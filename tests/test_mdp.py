"""Optimal fork-race withholding: model construction, ratio solver, rollouts."""

import math
import tracemalloc
from dataclasses import FrozenInstanceError, fields, replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    bfs_codes,
    bfs_rows,
    build_mdp_unlumped,
    edge_bribe_where,
    edge_prob_where,
    grid_padded,
    grid_uncached,
    greedy_policy_loop,
    greedy_slots_padded,
    policy_rollout_counts_loop,
    policy_rollout_loop,
    policy_ratio_full_chain,
    policy_tables_loop,
    row_classes_unique,
    row_values_padded,
    solve_reward_share_all_slots,
    solve_reward_share_bisection,
    solve_reward_share_padded,
    solve_reward_share_per_edge,
    sweeps_padded,
    topology_bfs,
)
from powplay import mdp
from powplay.errors import CapacityError, ConvergenceError, ValidationError
from powplay.experiments import TABLE2, TABLE3
from powplay.mdp import (
    ADOPT,
    ADVERSARY,
    MATCH,
    OVERRIDE,
    WAIT,
    _greedy_slots,
    _grid,
    _policy_ratio,
    _row_values,
    _slots,
    _stationary,
    _sweeps,
    _topology,
    _Topology,
    build_mdp,
    honest_policy,
    policy_rollout,
    policy_tables,
    solve_reward_share,
)
from powplay.model import (
    AttackParams,
    Pool,
    PoolSet,
    bundled_pool_file,
    load_pool_file,
    residual_centralization_factor,
)
from powplay.selfish import STAY_SHARE_THRESHOLD, selfish_profit
from powplay.sim import SimConfig, SimStats, reward_share_mc

EPS01 = AttackParams(epsilon=0.1)
EPS0 = AttackParams()
#: the model arrays that belong to the shared topology, not to one model
TOPOLOGY_ARRAYS = ("state_ptr", "action_ptr", "edge_dst", "edge_winner",
                   "edge_settled", "edge_reward", "edge_orphans")


@pytest.fixture(scope="module")
def two_pool_model():
    """Smallest published configuration: 0.4 vs petty [0.3, 0.3], eps 0.1."""
    return build_mdp(PoolSet.from_shares(0.4, [0.3, 0.3]), EPS01)


@pytest.fixture(scope="module")
def two_pool_solved(two_pool_model):
    return solve_reward_share(two_pool_model)


def _as_actions(model, slots):
    """A slot policy as the {state row: action code} dict the oracles walk."""
    return dict(zip(map(tuple, model.states.tolist()), model.actions[slots].tolist()))


@pytest.fixture(scope="module")
def fig3_row_model():
    """A fig3 row: the merged 2024 snapshot with Unknown as adversary, cap 6."""
    pools = load_pool_file(
        bundled_pool_file("bitcoin_pools_2024_merged.json"), adversary="Unknown"
    )
    return build_mdp(pools, EPS0, fork_cap=6)


# -- model construction --------------------------------------------------------------


def test_pool_count_bounds():
    with pytest.raises(ValidationError):
        build_mdp(PoolSet((Pool("adversary", 1.0),), adversary=0), EPS0)
    too_many = PoolSet.from_shares(0.45, [0.055] * 10)
    with pytest.raises(ValidationError):
        build_mdp(too_many, EPS0)


def test_fork_cap_bounds():
    with pytest.raises(ValidationError):
        build_mdp(PoolSet.from_shares(0.4, [0.6]), EPS0, fork_cap=1)


def test_state_ceiling_trips():
    pools = PoolSet.from_shares(0.4, [0.3, 0.3])
    build_mdp(pools, EPS01)  # leaves this topology cached at the default ceiling
    with pytest.raises(CapacityError):
        build_mdp(pools, EPS01, state_ceiling=50)


def test_cap_states_force_resolution(two_pool_model):
    """At the truncation boundary only Override (if ahead) or Adopt remain."""
    m = two_pool_model
    lbar, a = m.states[:, -4], m.states[:, -3]
    boundary = (a == m.fork_cap) | (lbar == m.fork_cap)
    assert boundary.any()
    assert np.all(np.diff(m.state_ptr)[boundary] == 1)
    assert np.array_equal(m.actions[m.state_ptr[:-1][boundary]], np.where(a > lbar, OVERRIDE, ADOPT)[boundary])


def test_probabilities_sum_per_action(two_pool_model):
    m = two_pool_model
    sums = np.add.reduceat(m.edge_prob, m.action_ptr)
    assert np.allclose(sums, 1.0, atol=1e-9)


# -- exact lumping ------------------------------------------------------------------


@st.composite
def _lumping_cases(draw):
    alpha = draw(st.floats(0.1, 0.45))
    n = draw(st.integers(2, 4))
    weights = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    if draw(st.booleans()):
        weights[1] = weights[0]  # an equal-share pair for the sort to merge
    rivals = [(1.0 - alpha) * w / sum(weights) for w in weights]
    honest = draw(st.one_of(st.none(), st.integers(1, n)))
    params = AttackParams(
        epsilon=draw(st.floats(0.0, 0.15)), max_bribe=draw(st.integers(0, 2))
    )
    return PoolSet.from_shares(alpha, rivals), params, draw(st.integers(3, 5)), honest


@settings(max_examples=60, deadline=None)
@given(_lumping_cases())
def test_lumped_share_matches_unlumped_oracle(case):
    pools, params, cap, honest = case
    lumped = build_mdp(pools, params, fork_cap=cap, honest=honest)
    full = build_mdp_unlumped(pools, params, fork_cap=cap, honest=honest)
    assert lumped.state_count <= full.state_count
    assert solve_reward_share(lumped).reward_share == pytest.approx(
        solve_reward_share(full).reward_share, abs=1e-9
    )


def test_model_without_lumping_is_the_oracle_edge_for_edge():
    """Distinct shares and a bribe cap above the fork cap leave nothing to lump.

    The second pool set has other shares and another epsilon but the same
    topology signature, so its model reuses the first one's enumeration and
    must still be its own oracle build; the first must be left unchanged.
    """
    cases = [
        (PoolSet.from_shares(0.35, [0.3, 0.2, 0.15]), AttackParams(epsilon=0.05, max_bribe=6)),
        (PoolSet.from_shares(0.25, [0.15, 0.4, 0.2]), AttackParams(epsilon=0.12, max_bribe=6)),
    ]
    models = [build_mdp(pools, params, fork_cap=5) for pools, params in cases]
    assert models[1].topology is models[0].topology
    for lumped, (pools, params) in zip(models, cases):
        full = build_mdp_unlumped(pools, params, fork_cap=5)
        assert np.array_equal(full.states, lumped.states)
        assert np.array_equal(full.actions, lumped.actions)
        for name in ("edge_prob", "edge_bribe") + TOPOLOGY_ARRAYS:
            assert np.array_equal(getattr(lumped, name), getattr(full, name)), name


@pytest.mark.parametrize("rivals", [(0.3, 0.175, 0.175), (0.3, 0.35, 0.0)])
def test_equal_or_zero_shares_get_their_own_topology(rivals):
    """An equal-share pair lumps, a zero-share pool has no edges: no reuse."""
    params = AttackParams(epsilon=0.05, max_bribe=6)
    distinct = build_mdp(PoolSet.from_shares(0.35, [0.3, 0.2, 0.15]), params, fork_cap=5)
    pools = PoolSet.from_shares(0.35, list(rivals))
    model = build_mdp(pools, params, fork_cap=5)
    assert model.topology is not distinct.topology
    _topology.cache_clear()
    fresh = build_mdp(pools, params, fork_cap=5)
    for name in ("edge_prob", "edge_bribe", "states", "actions") + TOPOLOGY_ARRAYS:
        assert np.array_equal(getattr(model, name), getattr(fresh, name)), name


def test_shared_topology_arrays_are_read_only(two_pool_model):
    for name in ("states", "actions") + TOPOLOGY_ARRAYS:
        with pytest.raises(ValueError):
            getattr(two_pool_model, name)[0] = 0


def test_replace_cannot_swap_a_model_s_graph_arrays(two_pool_model):
    """The graph is the topology's, read through properties: replace takes
    no edge or pointer array, so no model holds edges that disagree with
    the rows its topology derived."""
    for name in ("edge_dst", "edge_prob", "action_ptr", "edge_bribe", "slot_row", "states"):
        with pytest.raises(TypeError):
            replace(two_pool_model, **{name: getattr(two_pool_model, name).copy()})


def test_symmetric_table_row_lumps_to_730_states():
    """Table 2's 8 x 0.075 row: 132,259 unlumped states, one share.

    The pin is the optimum as the bisection oracle finds it at tol 1e-11;
    the bisection at its old default of 1e-6 overshot it by 3.5e-7.
    """
    model = build_mdp(PoolSet.from_shares(0.4, [0.075] * 8), EPS01)
    assert model.state_count == 730
    res = solve_reward_share(model)
    assert res.reward_share == pytest.approx(0.5967590648244, abs=1e-9)


# -- the layered topology against the state-by-state search it replaced -------------


def _build_against_the_search(pools, params, fork_cap, honest=None):
    """build_mdp, with the topology it asks for checked against topology_bfs."""
    layered, searched = mdp._topology, []

    def checked(*signature):
        searched.append(topology_bfs(*signature))
        return layered(*signature)

    with mock.patch.object(mdp, "_topology", checked):
        model = build_mdp(pools, params, fork_cap=fork_cap, honest=honest)
    states, actions, edge_level, arrays = searched[0]
    assert model.states.dtype == model.actions.dtype == np.int16
    assert np.array_equal(model.states, bfs_rows(states))
    assert np.array_equal(model.actions, bfs_codes(actions))
    for name, want in {"edge_level": edge_level, **arrays}.items():
        have = getattr(model, name)
        assert have.dtype == want.dtype and np.array_equal(have, want), name
    return model


def _snapshot(adversary):
    return load_pool_file(bundled_pool_file("bitcoin_pools_2024_merged.json"), adversary=adversary)


_SNAPSHOT_NAMES = [p.name for p in load_pool_file(bundled_pool_file("bitcoin_pools_2024_merged.json")).pools]


NAMED_ROWS = {
    "fig3 Foundry USA": (lambda: _snapshot("Foundry USA"), EPS0, 6),
    "table2 row 2": (lambda: PoolSet.from_shares(TABLE2[0], TABLE2[2][2]), AttackParams(epsilon=TABLE2[1]), 8),
    "table2 row 3": (lambda: PoolSet.from_shares(TABLE2[0], TABLE2[2][3]), AttackParams(epsilon=TABLE2[1]), 8),
    "table3 row 0": (lambda: PoolSet.from_shares(TABLE3[0], TABLE3[2][0]), AttackParams(epsilon=TABLE3[1]), 8),
    "table4 Unknown": (lambda: _snapshot("Unknown"), EPS0, 8),
}


@pytest.mark.parametrize("row", list(NAMED_ROWS))
def test_topology_equals_the_search_on_named_rows(row):
    pools, params, cap = NAMED_ROWS[row]
    _build_against_the_search(pools(), params, cap)


@st.composite
def _topology_cases(draw):
    """Zero-share pools (the adversary's too), equal-share groups, an honest pool."""
    n = draw(st.integers(1, 5))
    weights = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any))
    alpha = draw(st.sampled_from([0.0, 0.1, 0.25, 0.4]))
    rivals = [(1.0 - alpha) * w / sum(weights) for w in weights]
    honest = draw(st.one_of(st.none(), st.integers(1, n)))
    params = AttackParams(max_bribe=draw(st.integers(0, 3)))
    return PoolSet.from_shares(alpha, rivals), params, draw(st.integers(2, 6)), honest


@settings(max_examples=60, deadline=None)
@given(_topology_cases())
def test_topology_equals_the_search_on_drawn_models(case):
    _build_against_the_search(*case)


def test_numpy_shares_build_the_model_of_python_shares():
    # numpy shares make the adversary's liveness a numpy bool
    rivals = np.array([0.3, 0.2, 0.1])
    got = build_mdp(PoolSet.from_shares(np.float64(0.4), tuple(rivals)), EPS01, fork_cap=4)
    want = build_mdp(PoolSet.from_shares(0.4, rivals.tolist()), EPS01, fork_cap=4)
    for name in ("edge_prob", "edge_bribe", "states", "actions") + TOPOLOGY_ARRAYS:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_fork_cap_must_be_an_integer():
    # a cap of 4.5 must not build the cap-5 model and report fork_cap 4.5
    pools = PoolSet.from_shares(0.4, [0.3, 0.3])
    for cap in (4.5, 5.0, True):
        with pytest.raises(ValidationError, match="fork_cap must be an integer"):
            build_mdp(pools, EPS01, fork_cap=cap)
    assert build_mdp(pools, EPS01, fork_cap=np.int64(5)).state_count == build_mdp(pools, EPS01, fork_cap=5).state_count


def test_state_keys_that_overflow_int64_are_refused():
    """9 distinct petty rivals at cap and bribe 1,000: the fork counts alone
    span 1001**9 > 2**63 keys, so the build stops before it enumerates."""
    pools = PoolSet.from_shares(0.1, [0.9 * k / 45 for k in range(1, 10)])
    with pytest.raises(CapacityError, match="overflow"):
        build_mdp(pools, AttackParams(max_bribe=1_000), fork_cap=1_000)


def test_topology_holds_rows_not_edges_and_builds_in_bounded_memory():
    """fig3's Foundry USA row at cap 8 (95,607 states, 1,670,922 edges,
    61,788 rows), built under tracemalloc: 9.3 MB held and 25.5 MB at the
    peak, where storing the per-edge arrays held 58.9 MB and peaked at
    82.0 MB.  No array of the topology has one entry per edge."""
    pools = _snapshot("Foundry USA")
    _topology.cache_clear()
    tracemalloc.start()
    try:
        model = build_mdp(pools, EPS0, fork_cap=8)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 15e6 and peak < 40e6, (held, peak)
    topology = model.topology
    edges = topology.slot_row.size * topology.winners.size
    assert (model.state_count, edges, topology.row_slot.size) == (95_607, 1_670_922, 61_788)
    assert all(value.size != edges for value in vars(topology).values() if isinstance(value, np.ndarray))


# -- the ratio solver against the bisection it replaced ---------------------------


@settings(max_examples=30, deadline=None)
@given(_lumping_cases())
def test_share_matches_tight_bisection_oracle_on_drawn_models(case):
    pools, params, cap, honest = case
    model = build_mdp(pools, params, fork_cap=cap, honest=honest)
    res = solve_reward_share(model)
    oracle = solve_reward_share_bisection(model, tol=1e-11)
    assert res.reward_share == pytest.approx(oracle.reward_share, abs=1e-9)


def test_share_matches_tight_bisection_oracle_on_fig3_row_and_at_cap_40():
    foundry = load_pool_file(
        bundled_pool_file("bitcoin_pools_2024_merged.json"), adversary="Foundry USA"
    )
    altruistic = PoolSet((Pool("adversary", 0.4), Pool("honest", 0.6)), adversary=0)
    for model in (
        build_mdp(foundry, EPS0, fork_cap=6),
        build_mdp(altruistic, AttackParams(max_bribe=0), fork_cap=40, honest="honest"),
    ):
        res = solve_reward_share(model)
        oracle = solve_reward_share_bisection(model, tol=1e-11)
        assert res.reward_share == pytest.approx(oracle.reward_share, abs=1e-9)
        # a handful of outer steps, not one per halving of the bracket
        assert res.outer_steps <= 6 < oracle.outer_steps


def _assert_matches_the_per_edge_oracle(model):
    """The grid sweep against the per-edge solver it replaced: one share and
    one sweep count per step, and policies of one exact ratio.

    Rounding may settle a tie between two actions of equal value either
    way.  Where neither policy has stationary mass the choice changes
    nothing the ratio reads, so the ratios agree to rounding.  A tie can
    also fall where a policy has mass: at epsilon 0 and max_bribe 0 a match
    pays a bribe of 0, and WAIT and MATCH 0 are then worth the same in some
    states; there the two policies are different chains whose stationary
    distributions are power-iterated to 1e-13, and their ratios agree to
    the share tolerance.
    """
    got = solve_reward_share(model)
    want = solve_reward_share_per_edge(model)
    assert got.reward_share == pytest.approx(want.reward_share, abs=1e-12)
    assert got.sweeps_per_step == want.sweeps_per_step
    differ = got.policy != want.policy
    if differ.any():
        grid = _grid(model)
        ours = _policy_ratio(grid, got.policy, _from_root(model))
        theirs = _policy_ratio(grid, want.policy, _from_root(model))
        with_mass = differ & ((ours[2] > 0) | (theirs[2] > 0))
        assert ours[0] == pytest.approx(theirs[0], abs=1e-12 if with_mass.any() else 1e-15)


ORACLE_ROWS = {
    **{f"fig3 {name}": (lambda name=name: _snapshot(name), EPS0, 6) for name in _SNAPSHOT_NAMES},
    **{f"table2 row {i}": (lambda i=i: PoolSet.from_shares(TABLE2[0], TABLE2[2][i]), AttackParams(epsilon=TABLE2[1]), 8)
       for i in range(len(TABLE2[2]))},
    "table4 Unknown": (lambda: _snapshot("Unknown"), EPS0, 8),
    "two pools at cap 40": (lambda: PoolSet((Pool("adversary", 0.4), Pool("honest", 0.6)), adversary=0),
                            AttackParams(max_bribe=0), 40),
}


@pytest.mark.parametrize("row", list(ORACLE_ROWS))
def test_grid_solver_matches_the_per_edge_oracle_on_named_rows(row):
    pools, params, cap = ORACLE_ROWS[row]
    honest = "honest" if row.endswith("cap 40") else None
    _assert_matches_the_per_edge_oracle(build_mdp(pools(), params, fork_cap=cap, honest=honest))


@settings(max_examples=30, deadline=None)
@given(_lumping_cases())
def test_grid_solver_matches_the_per_edge_oracle_on_drawn_models(case):
    pools, params, cap, honest = case
    _assert_matches_the_per_edge_oracle(build_mdp(pools, params, fork_cap=cap, honest=honest))


def _assert_matches_the_all_slots_oracle(model):
    """The sweep over distinct slot rows against the sweep over every slot
    it replaced: every output equal, bit for bit."""
    got = solve_reward_share(model)
    want = solve_reward_share_all_slots(model)
    assert got.reward_share == want.reward_share
    assert got.policy.dtype == want.policy.dtype and np.array_equal(got.policy, want.policy)
    assert got.iterations == want.iterations
    assert got.sweeps_per_step == want.sweeps_per_step
    assert got.stationary_per_step == want.stationary_per_step
    assert got.residual == want.residual


@pytest.mark.parametrize("row", list(ORACLE_ROWS))
def test_row_solver_matches_the_all_slots_oracle_on_named_rows(row):
    pools, params, cap = ORACLE_ROWS[row]
    honest = "honest" if row.endswith("cap 40") else None
    _assert_matches_the_all_slots_oracle(build_mdp(pools(), params, fork_cap=cap, honest=honest))


@settings(max_examples=30, deadline=None)
@given(_lumping_cases())
def test_row_solver_matches_the_all_slots_oracle_on_drawn_models(case):
    pools, params, cap, honest = case
    _assert_matches_the_all_slots_oracle(build_mdp(pools, params, fork_cap=cap, honest=honest))


@pytest.mark.parametrize("row", list(ORACLE_ROWS))
def test_sweep_order_solver_matches_the_padded_oracle_on_named_rows(row):
    """The sweep over single-slot and padded blocks against the padded
    state-order sweep it replaced: every SolveResult field equal."""
    pools, params, cap = ORACLE_ROWS[row]
    honest = "honest" if row.endswith("cap 40") else None
    model = build_mdp(pools(), params, fork_cap=cap, honest=honest)
    _assert_same_result(solve_reward_share(model), solve_reward_share_padded(model))


@settings(max_examples=30, deadline=None)
@given(_lumping_cases())
def test_sweep_order_solver_matches_the_padded_oracle_on_drawn_models(case):
    pools, params, cap, honest = case
    model = build_mdp(pools, params, fork_cap=cap, honest=honest)
    _assert_same_result(solve_reward_share(model), solve_reward_share_padded(model))


def _assert_row_classes_match_the_unique_partition(pools, params, cap, honest=None):
    """The topology's slot rows against np.unique over the slots' full rows."""
    model = build_mdp(pools, params, fork_cap=cap, honest=honest)
    topology = model.topology
    rows = np.column_stack([
        np.reshape(v, (-1, topology.winners.size))
        for v in (topology.edge_dst, topology.edge_settled, topology.edge_reward, topology.edge_level)
    ])
    want = row_classes_unique(rows)
    assert np.array_equal(topology.slot_row, want[0]) and np.array_equal(topology.row_slot, want[1])
    assert model.slot_row is topology.slot_row and model.row_slot is topology.row_slot


@pytest.mark.parametrize("row", list(ORACLE_ROWS))
def test_row_classes_match_the_unique_partition_on_named_rows(row):
    pools, params, cap = ORACLE_ROWS[row]
    honest = "honest" if row.endswith("cap 40") else None
    _assert_row_classes_match_the_unique_partition(pools(), params, cap, honest)


@settings(max_examples=30, deadline=None)
@given(_lumping_cases())
def test_row_classes_match_the_unique_partition_on_drawn_models(case):
    _assert_row_classes_match_the_unique_partition(*case)


@st.composite
def _grid_cases(draw):
    """_lumping_cases, half of them with one rival's share (or the
    adversary's) moved to another pool, so that pool has no edges."""
    pools, params, cap, honest = draw(_lumping_cases())
    if draw(st.booleans()):
        shares = [p.share for p in pools.pools]
        j = draw(st.integers(0, len(shares) - 1))
        shares[j - 1] += shares[j]
        shares[j] = 0.0
        pools = PoolSet.from_shares(shares[0], shares[1:])
    return pools, params, cap, honest


def _assert_grid_and_edges_match_the_uncached_oracle(pools, params, cap, honest=None):
    """The model's edge probabilities and bribes against np.where over every
    edge, and _grid, twice (the second from the topology's kept layout),
    against the grid rebuilt and rechecked in full: every array equal,
    dtype included."""
    model = build_mdp(pools, params, fork_cap=cap, honest=honest)
    for got, want in ((model.edge_prob, edge_prob_where(model)),
                      (model.edge_bribe, edge_bribe_where(model.edge_level, params.epsilon))):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    want = grid_uncached(model)
    for grid in (_grid(model), _grid(model)):
        for name, value in want._asdict().items():
            have = getattr(grid, name)
            assert have.dtype == value.dtype and np.array_equal(have, value), name


@pytest.mark.parametrize("row", list(ORACLE_ROWS))
def test_grid_and_edges_match_the_uncached_oracle_on_named_rows(row):
    pools, params, cap = ORACLE_ROWS[row]
    honest = "honest" if row.endswith("cap 40") else None
    _assert_grid_and_edges_match_the_uncached_oracle(pools(), params, cap, honest)


@settings(max_examples=40, deadline=None)
@given(_grid_cases())
def test_grid_and_edges_match_the_uncached_oracle_on_drawn_models(case):
    _assert_grid_and_edges_match_the_uncached_oracle(*case)


def _assert_sweeps_match_the_padded_oracle(model, rho, sweeps):
    """A run of value sweeps against the padded state-order sweep: the same
    average reward, span and sweep count, and the same value table, in
    sweep order, to the last bit; the same row values and greedy slots."""
    grid, padded = _grid(model), grid_padded(model)
    r = grid.gain - rho * grid.settled
    zeros = np.zeros(model.state_count)
    g, V, used, span = _sweeps(grid, r, zeros, 1e-4, sweeps)
    g_want, W, used_want, span_want = sweeps_padded(padded, r, zeros, 1e-4, sweeps)
    assert (g, used, span) == (g_want, used_want, span_want)
    assert np.array_equal(V, W[grid.order])  # relative to state 0 wherever it sits
    q = _row_values(grid, r, V)
    assert np.array_equal(q, row_values_padded(padded, r, W))
    assert np.array_equal(_greedy_slots(grid, q), greedy_slots_padded(padded, q))


def test_sweeps_match_the_padded_oracle_on_fig3_row(fig3_row_model):
    _assert_sweeps_match_the_padded_oracle(fig3_row_model, 0.08, 60)


def _swap_with_state_0(model, s):
    """The model with states 0 and s swapped: the same chain, numbered so
    that state 0 (where the solver's stationary search starts) is s, on a
    topology built from the renumbered slots, one row each, which merges
    its own rows and derives its own layout."""
    top = model.topology
    new = np.arange(model.state_count)
    new[[0, s]] = [s, 0]  # its own inverse: old state new[i] is new state i
    count = np.diff(top.state_ptr)[new]
    slots = np.concatenate([np.arange(top.state_ptr[t], top.state_ptr[t + 1]) for t in new])
    rows = top.slot_row[slots]
    one_each = np.arange(slots.size)  # one row per slot, repeats merged
    swapped = _Topology.of_rows(
        top.states[new], top.actions[slots], np.concatenate([[0], np.cumsum(count)]), top.winners, one_each,
        one_each, new[top.row_dst[rows]], top.row_settled[rows], top.row_reward[rows], top.row_level[rows],
    )
    return replace(model, topology=swapped)


def test_a_multi_slot_state_0_is_the_value_reference(fig3_row_model):
    """build_mdp's state 0 (the empty race) has one slot, so it leads the
    sweep order; renumbered to a state with four slots, it sits in the
    padded block, and the values are still taken relative to it."""
    count = np.diff(fig3_row_model.state_ptr)
    model = _swap_with_state_0(fig3_row_model, int(np.flatnonzero(count == 4)[0]))
    grid = _grid(model)
    assert grid.ref >= grid.one.size and grid.order[grid.ref] == 0
    _assert_sweep_layout(model)
    _assert_sweeps_match_the_padded_oracle(model, 0.08, 60)
    _assert_same_result(solve_reward_share(model), solve_reward_share_padded(model))


def _assert_sweep_layout(model):
    """The grid's sweep order and its two blocks, checked against their
    definition rather than against a second construction."""
    grid = _grid(model)
    ptr, order, single = model.state_ptr, grid.order, grid.one.size
    count = np.diff(ptr)
    assert np.array_equal(np.sort(order), np.arange(model.state_count))  # a permutation
    one, rest = order[:single], order[single:]
    assert np.all(count[one] == 1) and np.all(count[rest] != 1)  # single-slot block first
    assert np.all(np.diff(one) > 0) and np.all(np.diff(rest) > 0)  # state order in each block
    assert order[grid.ref] == 0
    assert np.array_equal(grid.one, model.slot_row[ptr[one]])
    assert grid.cols.shape == (count.max(), rest.size)
    slot = ptr[rest] + np.arange(count.max())[:, None]
    inside = slot < ptr[rest + 1]
    assert np.array_equal(grid.cols[inside], model.slot_row[slot[inside]])
    # padded columns repeat each state's last slot's row
    last = np.broadcast_to(model.slot_row[ptr[rest + 1] - 1], grid.cols.shape)
    assert np.array_equal(grid.cols[~inside], last[~inside])
    # one copy of the row destinations, as sweep positions
    width = model.edge_prob.size // model.action_ptr.size
    assert np.array_equal(order[grid.dst], model.edge_dst.reshape(-1, width)[model.row_slot].T)
    assert [name for name, value in grid._asdict().items() if np.shape(value) == grid.dst.shape] == ["dst"]


def test_sweep_layout_on_fig3_row(fig3_row_model):
    _assert_sweep_layout(fig3_row_model)
    grid = _grid(fig3_row_model)
    # 12,728 single-slot states and 8,973 padded to five: 57,593 gathers a sweep
    assert (grid.one.size, grid.cols.shape) == (12_728, (5, 8_973))


@settings(max_examples=30, deadline=None)
@given(_grid_cases())
def test_sweep_layout_on_drawn_models(case):
    pools, params, cap, honest = case
    _assert_sweep_layout(build_mdp(pools, params, fork_cap=cap, honest=honest))


def test_models_of_one_signature_share_one_topology():
    pools = [_snapshot(name) for name in _SNAPSHOT_NAMES[:3]]
    first, second, third = (build_mdp(p, EPS0, fork_cap=4) for p in pools)
    # another epsilon: the same signature, so the same topology
    other = build_mdp(pools[0], AttackParams(epsilon=0.05), fork_cap=4)
    assert second.topology is first.topology and third.topology is first.topology
    assert other.topology is first.topology
    assert first.topology.layout is other.topology.layout  # laid out once
    assert not np.array_equal(first.edge_bribe, other.edge_bribe)
    with pytest.raises(FrozenInstanceError):
        first.topology.row_dst = first.topology.row_dst.copy()


def test_fig3_row_has_11517_distinct_slot_rows(fig3_row_model):
    model = fig3_row_model
    assert (model.action_ptr.size, model.row_slot.size) == (37_450, 11_517)
    # an adopt leads to one of few states and pays by the public fork's length
    kinds = {WAIT: (8_974, 8_974), ADOPT: (17_920, 6), OVERRIDE: (5_910, 21)}
    for code, (slots, rows) in kinds.items():
        chosen = model.actions == code
        assert (chosen.sum(), np.unique(model.slot_row[chosen]).size) == (slots, rows)


def _assert_stationary_matches_the_full_chain(model, slots, pi):
    ratio, rate, got, iterations = _policy_ratio(_grid(model), slots, pi.copy())
    want = policy_ratio_full_chain(model, slots, pi.copy())
    np.testing.assert_allclose(got, want[2], rtol=0, atol=1e-15)
    assert ratio == pytest.approx(want[0], abs=1e-15)
    assert rate == pytest.approx(want[1], abs=1e-15)
    assert iterations == want[3]


def _random_slots(model, seed):
    count = np.diff(model.state_ptr)
    return model.state_ptr[:-1] + np.random.default_rng(seed).integers(0, count)


def test_reachable_stationary_matches_the_full_chain_on_fig3_row(fig3_row_model):
    model = fig3_row_model
    solved = solve_reward_share(model).policy
    carried = _policy_ratio(_grid(model), solved, _from_root(model))[2]
    for slots in (honest_policy(model), solved, _random_slots(model, 1), _random_slots(model, 2)):
        for pi in (_from_root(model), carried):
            _assert_stationary_matches_the_full_chain(model, slots, pi)


@settings(max_examples=30, deadline=None)
@given(_lumping_cases(), st.integers(0, 2**32 - 1))
def test_reachable_stationary_matches_the_full_chain_on_drawn_models(case, seed):
    pools, params, cap, honest = case
    model = build_mdp(pools, params, fork_cap=cap, honest=honest)
    for slots in (honest_policy(model), solve_reward_share(model).policy, _random_slots(model, seed)):
        _assert_stationary_matches_the_full_chain(model, slots, _from_root(model))


def test_solve_result_counts_steps_and_sweeps(two_pool_model, two_pool_solved):
    res = two_pool_solved
    assert res.outer_steps == len(res.sweeps_per_step) == len(res.stationary_per_step) >= 2
    assert sum(res.sweeps_per_step) == res.iterations
    assert min(res.sweeps_per_step) >= 1
    assert min(res.stationary_per_step) >= 1
    assert 0.0 <= res.residual < 1e-6
    # counts, no clock readings: two solves of one model agree field by field
    again = solve_reward_share(two_pool_model)
    for f in fields(mdp.SolveResult):
        np.testing.assert_array_equal(getattr(again, f.name), getattr(res, f.name), err_msg=f.name)


def _assert_same_result(got, want):
    for f in fields(mdp.SolveResult):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert type(a) is type(b) and np.array_equal(a, b), f.name
    assert got.policy.dtype == want.policy.dtype


def test_models_of_one_topology_solve_alike_in_any_order():
    """Models A (epsilon 0) and B (epsilon 0.05, other shares) of one
    topology, solved A, B, A, each as it solves on a fresh topology."""
    a = build_mdp(PoolSet.from_shares(0.35, [0.3, 0.2, 0.15]), EPS0, fork_cap=5)
    b = build_mdp(PoolSet.from_shares(0.25, [0.15, 0.4, 0.2]), AttackParams(epsilon=0.05), fork_cap=5)
    assert b.topology is a.topology
    got = [solve_reward_share(model) for model in (a, b, a)]
    for model, result in zip((a, b, a), got):
        _topology.cache_clear()
        fresh = build_mdp(model.pools, model.params, fork_cap=5)
        assert fresh.topology is not a.topology
        _assert_same_result(result, solve_reward_share(fresh))


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_solver_rejects_a_tol_that_is_not_positive_and_finite(two_pool_model, tol):
    # at tol 0 the Dinkelbach steps never stop short of max_sweeps
    with pytest.raises(ValidationError):
        solve_reward_share(two_pool_model, tol=tol)


def test_solver_out_of_sweeps_raises_with_residual(two_pool_model):
    with pytest.raises(ConvergenceError) as err:
        solve_reward_share(two_pool_model, max_sweeps=3)
    assert np.isfinite(err.value.residual) and err.value.residual > 0


def test_stationary_iteration_is_bounded():
    """A two-state flip-flop: the lazy chain converges, but not in 5 steps."""
    grid = SimpleNamespace(dst=np.array([[1, 0]]), order=np.arange(2), p=np.ones(1))
    rows, start = np.arange(2), np.array([1.0, 0.0])
    pi, iterations = _stationary(grid, rows, start)
    assert pi == pytest.approx([0.5, 0.5], abs=1e-13)
    assert iterations > 5
    with pytest.raises(ConvergenceError) as err:
        _stationary(grid, rows, start, max_iterations=5)
    assert err.value.residual > 0


# -- published reward shares (small rows; the full tables run in acceptance) ---------


def test_withholding_table_smallest_rows():
    r1 = solve_reward_share(build_mdp(PoolSet.from_shares(0.4, [0.3, 0.3]), EPS01))
    assert r1.reward_share == pytest.approx(0.5448, abs=0.01)
    r2 = solve_reward_share(
        build_mdp(PoolSet.from_shares(0.4, [0.2, 0.2, 0.2]), EPS01)
    )
    assert r2.reward_share == pytest.approx(0.5714, abs=0.01)
    # lower residual concentration among the petty pools helps the attacker
    assert r1.reward_share < r2.reward_share


def test_withholding_smaller_adversary_rows():
    r1 = solve_reward_share(build_mdp(PoolSet.from_shares(0.3, [0.4, 0.2, 0.1]), EPS0))
    assert r1.reward_share == pytest.approx(0.3534, abs=0.01)
    r2 = solve_reward_share(
        build_mdp(PoolSet.from_shares(0.3, [0.2, 0.2, 0.2, 0.1]), EPS0)
    )
    assert r2.reward_share == pytest.approx(0.3877, abs=0.01)
    assert r1.reward_share < r2.reward_share


def test_real_world_weakest_adversary(fig3_row_model):
    model = fig3_row_model
    # distinct shares: only the clipping of fork counts lumps (23,297 unlumped)
    assert model.state_count == 21_701
    res = solve_reward_share(model)
    assert res.reward_share == pytest.approx(0.0794, abs=0.005)


def test_altruistic_benchmark_against_honest_opponent():
    """No bribes, one non-petty opponent: the classic withholding optimum.

    The known altruistic reward share at a 0.4 adversary is 0.48863; a deep
    cap converges to it from below (0.488245 at cap 40), which validates
    the dynamics independently of the petty-compliance machinery.
    """
    pools = PoolSet((Pool("adversary", 0.4), Pool("honest", 0.6)), adversary=0)
    model = build_mdp(pools, AttackParams(max_bribe=0), fork_cap=40, honest="honest")
    res = solve_reward_share(model)
    assert res.reward_share == pytest.approx(0.488245, abs=5e-4)
    assert res.reward_share == pytest.approx(0.48863, abs=0.001)


def test_truncation_cap_trend():
    """Deeper caps keep adding value; the published rows sit at cap 8."""
    pools = PoolSet.from_shares(0.4, [0.3, 0.3])
    shares = [
        solve_reward_share(build_mdp(pools, EPS01, fork_cap=c)).reward_share
        for c in (4, 6, 8)
    ]
    assert shares[0] < shares[1] < shares[2]
    # the climb from 6 to 8 is large enough that the cap must be pinned
    assert shares[2] - shares[1] > 0.005


@pytest.mark.parametrize(
    "alpha, rivals, epsilon",
    [(0.35, [0.35, 0.3], 0.0), (0.4, [0.3, 0.3], 0.1), (0.3, [0.4, 0.2, 0.1], 0.05)],
)
def test_share_does_not_fall_as_the_fork_cap_grows(alpha, rivals, epsilon):
    # a policy feasible at one cap is feasible at every larger one
    pools = PoolSet.from_shares(alpha, rivals)
    params = AttackParams(epsilon=epsilon)
    shares = [
        solve_reward_share(build_mdp(pools, params, fork_cap=c)).reward_share
        for c in (3, 4, 5, 6, 8)
    ]
    assert all(b >= a - 1e-9 for a, b in zip(shares, shares[1:])), shares


def test_vanishing_adversary_has_nothing_to_gain():
    pools = PoolSet.from_shares(0.005, [0.5, 0.495])
    res = solve_reward_share(build_mdp(pools, EPS0, fork_cap=2))
    assert res.reward_share < 0.01


def test_share_never_below_honest(two_pool_solved):
    assert two_pool_solved.reward_share >= 0.4 - 1e-9


def test_monotone_in_adversary_share():
    shares = []
    for a in (0.25, 0.30, 0.35):
        rest = (1.0 - a) / 2.0
        model = build_mdp(PoolSet.from_shares(a, [rest, rest]), EPS0, fork_cap=4)
        shares.append(solve_reward_share(model).reward_share)
    assert shares[0] <= shares[1] + 1e-9 <= shares[2] + 2e-9


# -- exact policy values -----------------------------------------------------------


def _from_root(model):
    pi = np.zeros(model.state_count)
    pi[0] = 1.0
    return pi


def _selfish_slots(model):
    """pi_selfish as a policy: wait while lbar == 0 and a < 3, override
    (trickle) at lbar == 0 and a >= 3, match at level 0 at a == lbar == 1
    with no live match, override when ahead and adopt otherwise."""
    lbar, a, live = model.states[:, -4], model.states[:, -3], model.states[:, -2] == 1
    code = np.where(a > lbar, OVERRIDE, ADOPT)
    code = np.where((a == 1) & (lbar == 1) & ~live, MATCH, code)
    return _slots(model, np.where(lbar == 0, np.where(a < 3, WAIT, OVERRIDE), code))


@settings(max_examples=30, deadline=None)
@given(_lumping_cases())
def test_honest_policy_ratio_is_the_adversary_share_on_drawn_models(case):
    pools, params, cap, honest = case
    model = build_mdp(pools, params, fork_cap=cap, honest=honest)
    ratio = _policy_ratio(_grid(model), honest_policy(model), _from_root(model))[0]
    assert ratio == pytest.approx(model.alpha_a, abs=1e-12)


def test_honest_policy_ratio_is_the_adversary_share_on_fig3_row(fig3_row_model):
    model = fig3_row_model
    ratio = _policy_ratio(_grid(model), honest_policy(model), _from_root(model))[0]
    assert ratio == pytest.approx(model.alpha_a, abs=1e-12)


def _selfish_pool_sets():
    """Acceptance criterion 06's random pool sets with every rival below STAY_SHARE_THRESHOLD."""
    rng = np.random.default_rng(20260814)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        alpha = float(rng.uniform(0.12, 0.42))
        eps = float(rng.uniform(0.0, 0.15))
        rivals = (1.0 - alpha) * rng.dirichlet(np.ones(n))
        if rivals.max() < STAY_SHARE_THRESHOLD:
            yield PoolSet.from_shares(alpha, rivals.tolist()), eps


def test_selfish_policy_ratio_is_the_closed_form_and_the_optimum_beats_it():
    sets = list(_selfish_pool_sets())
    assert len(sets) >= 10
    for pools, eps in sets:
        model = build_mdp(pools, AttackParams(epsilon=eps), fork_cap=5)
        ratio = _policy_ratio(_grid(model), _selfish_slots(model), _from_root(model))[0]
        closed = selfish_profit(pools.adversary_share, residual_centralization_factor(pools), eps)
        assert ratio == pytest.approx(closed, abs=1e-12), (pools.shares, eps)
        assert solve_reward_share(model).reward_share >= ratio


# -- rollouts ------------------------------------------------------------------------


def test_honest_policy_rolls_out_to_the_share(two_pool_model):
    stats = policy_rollout(
        two_pool_model, honest_policy(two_pool_model), seed=7, horizon=500_000
    )
    sigma = np.sqrt(0.4 * 0.6 / 500_000)
    assert stats.adversary_reward_share == pytest.approx(0.4, abs=4 * sigma)
    assert stats.orphan_count == 0


def test_optimal_policy_rollout_agrees_with_solver(two_pool_model, two_pool_solved):
    stats = policy_rollout(two_pool_model, two_pool_solved.policy, seed=7, horizon=1_000_000)
    assert stats.adversary_reward_share == pytest.approx(
        two_pool_solved.reward_share, abs=0.01
    )
    # withholding play orphans rival blocks; honest play never does
    assert stats.orphan_count > 0


def test_rollout_rejects_partial_policy(two_pool_model, two_pool_solved):
    model, slots = two_pool_model, two_pool_solved.policy
    # the first state of one slot past its range: a slot of its neighbour
    s = int(np.flatnonzero(np.diff(model.state_ptr) > 0)[0])
    foreign = slots.copy()
    foreign[s] = model.state_ptr[s + 1]
    for policy in (slots[:-1], foreign, _as_actions(model, slots)):
        with pytest.raises(ValidationError):
            policy_rollout(model, policy, seed=1, horizon=10_000)


def test_rollout_deterministic(two_pool_model, two_pool_solved):
    a = policy_rollout(two_pool_model, two_pool_solved.policy, seed=42, horizon=100_000)
    b = policy_rollout(two_pool_model, two_pool_solved.policy, seed=42, horizon=100_000)
    assert a.adversary_reward_share == b.adversary_reward_share
    assert a.orphan_count == b.orphan_count
    # seeded pin, from policy_rollout_counts_loop; its last bit depends on
    # the order the rewards are summed in (the loop's sum reads ...783)
    assert a.adversary_reward_share == 0.5488466058176784
    assert a.orphan_count == 37_756
    assert a.events == 100_000  # one counted step of each of the 100,000 replicas


@pytest.mark.parametrize("replicas, burn_in", [(1_024, 300), (5_000, 20)])
def test_rollout_matches_the_per_step_loop(two_pool_model, two_pool_solved, replicas, burn_in):
    three = build_mdp(PoolSet.from_shares(0.3, [0.4, 0.2, 0.1]), AttackParams(epsilon=0.05), fork_cap=4)
    cases = [
        (two_pool_model, two_pool_solved.policy),
        (two_pool_model, honest_policy(two_pool_model)),
        (three, solve_reward_share(three).policy),
    ]
    for model, policy in cases:
        got = policy_rollout(model, policy, seed=9, horizon=200_000, replicas=replicas, burn_in=burn_in)
        want = policy_rollout_counts_loop(model, policy, seed=9, horizon=200_000, replicas=replicas, burn_in=burn_in)
        assert got.orphan_count == want.orphan_count
        assert got.rng_draws == want.rng_draws
        assert got.events == want.events >= 200_000
        assert got.adversary_reward_share == pytest.approx(want.adversary_reward_share, abs=1e-15)


def test_rollout_agrees_in_mean_with_the_per_chain_loop(two_pool_model, two_pool_solved):
    model, policy = two_pool_model, two_pool_solved.policy
    got, want = np.array([
        [f(model, policy, seed=s, horizon=2_000, replicas=50, burn_in=20).adversary_reward_share for s in range(40)]
        for f in (policy_rollout, policy_rollout_loop)
    ])
    sem = math.hypot(got.std(ddof=1), want.std(ddof=1)) / math.sqrt(len(got))
    assert abs(got.mean() - want.mean()) <= 5 * sem


def test_rollout_equals_reward_share_mc_under_the_policy(two_pool_model, two_pool_solved):
    # a pool of share 0 has no edge, so its policy table has an empty column
    zero = build_mdp(PoolSet.from_shares(0.35, [0.35, 0.3, 0.0]), EPS0, fork_cap=4)
    cases = [(two_pool_model, two_pool_solved.policy), (zero, solve_reward_share(zero).policy)]
    for model, policy in cases:
        for seed in (3, 42):
            cfg = SimConfig(model.pools, strategy="mdp_policy", params=model.params,
                            fork_cap=model.fork_cap, policy=policy, seed=seed)
            got = policy_rollout(model, policy, seed=seed, horizon=150_000)
            want = reward_share_mc(cfg, transitions=150_000)
            for f in fields(SimStats):
                np.testing.assert_array_equal(getattr(got, f.name), getattr(want, f.name), err_msg=f.name)


@pytest.mark.parametrize(
    "sizes", [{"replicas": 0}, {"horizon": 0}, {"horizon": -10}, {"burn_in": -1}],
    ids=["replicas=0", "horizon=0", "horizon=-10", "burn_in=-1"],
)
def test_rollout_rejects_sizes_that_walk_or_count_nothing(two_pool_model, two_pool_solved, sizes):
    with pytest.raises(ValidationError):
        policy_rollout(two_pool_model, two_pool_solved.policy, seed=1, **{"horizon": 10_000, **sizes})


@pytest.mark.parametrize(
    "sizes", [{"horizon": math.inf}, {"replicas": 1_024.0}, {"burn_in": 2.5}],
    ids=["horizon=inf", "replicas=1024.0", "burn_in=2.5"],
)
def test_rollout_rejects_sizes_that_are_not_integers(two_pool_model, two_pool_solved, sizes):
    with pytest.raises(ValidationError, match=next(iter(sizes))):
        policy_rollout(two_pool_model, two_pool_solved.policy, seed=1, **{"horizon": 10_000, **sizes})


# -- greedy policy extraction -------------------------------------------------------


def test_greedy_policy_matches_argmax_loop_on_fig3_row(fig3_row_model):
    model = fig3_row_model
    grid = _grid(model)
    r = grid.gain - 0.08 * grid.settled
    _, V, _, _ = _sweeps(grid, r, np.zeros(model.state_count), 0.0, 50)
    q_row = _row_values(grid, r, V)
    tied = np.round(q_row, 2)  # ties between actions, settled by the first
    for q in (q_row, tied):
        assert np.array_equal(_greedy_slots(grid, q), greedy_policy_loop(model, q[model.slot_row]))


@settings(max_examples=30, deadline=None)
@given(_lumping_cases(), st.integers(0, 2**32 - 1))
def test_greedy_policy_matches_argmax_loop_on_drawn_models(case, seed):
    pools, params, cap, honest = case
    model = build_mdp(pools, params, fork_cap=cap, honest=honest)
    q_row = np.random.default_rng(seed).integers(0, 3, model.row_slot.size).astype(float)
    assert np.array_equal(_greedy_slots(_grid(model), q_row), greedy_policy_loop(model, q_row[model.slot_row]))


# -- freezing a policy into tables --------------------------------------------------


def _assert_tables_match_the_dict_walk(model, slots):
    got = policy_tables(model, slots)
    want = policy_tables_loop(model, _as_actions(model, slots))
    for name, g, w in zip(("next_state", "settled", "reward", "bribe", "orphans"), got, want):
        assert g.dtype == w.dtype, name
        assert np.array_equal(g, w), name


def _assert_honest(model, slots):
    for (*_, lbar, a, _, _), code in _as_actions(model, slots).items():
        assert code == (OVERRIDE if a > lbar else ADOPT if lbar >= 1 else WAIT)


def test_policy_tables_match_the_dict_walk_on_fig3_row():
    foundry = load_pool_file(
        bundled_pool_file("bitcoin_pools_2024_merged.json"), adversary="Foundry USA"
    )
    model = build_mdp(foundry, EPS0, fork_cap=6)
    honest = honest_policy(model)
    _assert_honest(model, honest)
    for slots in (solve_reward_share(model).policy, honest):
        assert slots.dtype == np.int64
        _assert_tables_match_the_dict_walk(model, slots)


@settings(max_examples=30, deadline=None)
@given(_lumping_cases(), st.integers(0, 2**32 - 1))
def test_policy_tables_match_the_dict_walk_on_drawn_models(case, seed):
    pools, params, cap, honest = case
    model = build_mdp(pools, params, fork_cap=cap, honest=honest)
    q_row = np.random.default_rng(seed).integers(0, 3, model.row_slot.size).astype(float)
    honest_slots = honest_policy(model)
    _assert_honest(model, honest_slots)
    for slots in (_greedy_slots(_grid(model), q_row), honest_slots):
        _assert_tables_match_the_dict_walk(model, slots)


# -- action plumbing -----------------------------------------------------------------


def test_winner_codes_cover_all_pools(two_pool_model):
    winners = set(int(w) for w in two_pool_model.edge_winner)
    assert ADVERSARY in winners
    assert {0, 1} <= winners

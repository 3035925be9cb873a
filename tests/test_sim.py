"""Simulation engines: automata vs closed forms, difficulty retargets, trajectories."""

import itertools
import math
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    distraction_occupancy_counts_loop,
    distraction_occupancy_loop,
    exact_automaton,
    lockstep_counts_loop,
    lockstep_visits_loop,
    per_state_automaton,
    reward_share_counts_loop,
    reward_share_mc_loop,
    simulate_sequential,
    unfold_visits,
)
from powplay import sim
from powplay.bribery import TargetPartition, bribery_reward_share, undercut_reward_share
from powplay.distraction import DistractionParams, PowerSplit, distraction_reward_share, scenario_rates
from powplay.errors import ValidationError
from powplay.mdp import _topology, build_mdp, honest_policy, policy_rollout, solve_reward_share
from powplay.model import (
    AttackParams,
    EpochModel,
    PoolSet,
    bundled_pool_file,
    load_pool_file,
    residual_centralization_factor,
)
from powplay.selfish import selfish_profit
from powplay.sim import (
    _CHUNK,
    DEFAULT_SEED,
    HorizonWarning,
    SimConfig,
    SimStats,
    _JUMP_ENTRIES,
    _events,
    _jump_steps,
    _jumps,
    _lockstep_visits,
    _policy_automaton,
    _walk,
    _Winners,
    build_automaton,
    dam_update,
    distraction_occupancy_mc,
    reward_share_mc,
    revenue_advantage_trajectory,
    simulate,
    simulate_many,
)


@pytest.fixture(scope="module")
def merged_foundry():
    return load_pool_file(
        bundled_pool_file("bitcoin_pools_2024_merged.json"), adversary="Foundry USA"
    )


@pytest.fixture(scope="module")
def three_targets():
    """Adversary 0.3 with pools [0.2, 0.3, 0.2]; the two 0.2 pools targeted."""
    pools = PoolSet.from_shares(0.3, [0.2, 0.3, 0.2])
    return pools, (1, 3)


# -- configuration validation --------------------------------------------------------


def test_config_rejects_unknown_strategy(merged_foundry):
    with pytest.raises(ValidationError):
        SimConfig(merged_foundry, strategy="petty")


def test_config_rejects_bad_horizon(merged_foundry):
    with pytest.raises(ValidationError):
        SimConfig(merged_foundry, horizon=0)
    with pytest.raises(ValidationError, match="horizon must be an integer"):
        SimConfig(merged_foundry, horizon=True)  # once ran one epoch
    with pytest.raises(ValidationError):
        SimConfig(merged_foundry, horizon_unit="days")
    with pytest.raises(ValidationError):
        SimConfig(merged_foundry, dam_mode="none")


def test_config_requires_pools_except_distraction():
    with pytest.raises(ValidationError):
        SimConfig(None, strategy="pi_selfish")
    with pytest.raises(ValidationError):
        SimConfig(None, strategy="distraction")  # needs the parameter record
    dp = DistractionParams(PowerSplit(0.3, 0.2, 0.5, 0.0), 5.0, 0.03, 0.0)
    cfg = SimConfig(None, strategy="distraction", distraction=dp)
    assert cfg.pools is None


def test_config_requires_designated_adversary():
    anon = PoolSet.from_shares(0.3, [0.7]).pools
    with pytest.raises(ValidationError):
        SimConfig(PoolSet(anon, adversary=None), strategy="pi_selfish")


# -- difficulty retargets ------------------------------------------------------------


def test_dam_on_target_is_identity():
    assert dam_update(2016.0, (2016, 0)) == pytest.approx(1.0, abs=1e-12)


def test_dam_slow_epoch_halves_difficulty():
    assert dam_update(4032.0, (2016, 0)) == pytest.approx(0.5, abs=1e-12)


def test_dam_active_power_charges_orphans():
    ratio = dam_update(2016.0, (2016, 202), "active_power") / dam_update(
        2016.0, (2016, 202), "canonical_only"
    )
    assert ratio == pytest.approx((2016 + 202) / 2016, abs=1e-12)


@given(st.floats(100.0, 10_000.0), st.integers(1, 5000))
def test_dam_modes_agree_without_orphans(duration, canonical):
    a = dam_update(duration, (canonical, 0), "canonical_only")
    b = dam_update(duration, (canonical, 0), "active_power")
    assert a == pytest.approx(b, rel=1e-12)


def test_dam_rejects_degenerate_epochs():
    with pytest.raises(ValidationError):
        dam_update(2016.0, (0, 5))
    with pytest.raises(ValidationError):
        dam_update(0.0, (2016, 0))
    with pytest.raises(ValidationError):
        dam_update(2016.0, (2016, -1))
    with pytest.raises(ValidationError):
        dam_update(2016.0, (2016, 0), "hybrid")


@pytest.mark.parametrize(
    "duration, counts, difficulty, name",
    [
        (math.nan, (10, 0), 1.0, "epoch duration"),  # once returned nan
        (1.0, (10.5, 0), 1.0, "canonical block count"),  # once returned 10.5
        (1.0, (10, 0.5), 1.0, "orphan count"),
        (1.0, (10, 0), math.inf, "difficulty"),
    ],
    ids=["duration=nan", "canonical=10.5", "orphaned=0.5", "difficulty=inf"],
)
def test_dam_rejects_non_finite_or_fractional_inputs(duration, counts, difficulty, name):
    with pytest.raises(ValidationError, match=name):
        dam_update(duration, counts, "active_power", difficulty=difficulty)


def test_dam_respects_block_rate():
    ep = EpochModel(blocks_per_epoch=100, block_rate=2.0)
    # 100 blocks should take 50 time units at rate 2; taking 100 halves D
    assert dam_update(100.0, (100, 0), epoch=ep) == pytest.approx(0.5, abs=1e-12)


# -- lockstep engine vs the analytic routes ------------------------------------------


def test_lockstep_honest_share(merged_foundry):
    stats = reward_share_mc(SimConfig(merged_foundry, strategy="honest"), transitions=1_000_000)
    sigma = np.sqrt(0.29033 * (1 - 0.29033) / 1_000_000)
    assert stats.adversary_reward_share == pytest.approx(0.29033, abs=4 * sigma)
    assert stats.orphan_count == 0


def test_lockstep_withholding_matches_closed_form(merged_foundry):
    alpha = merged_foundry.adversary_share
    beta = residual_centralization_factor(merged_foundry, merged_foundry.adversary)
    for eps in (0.0, 0.5):
        closed = selfish_profit(alpha, beta, eps)
        stats = reward_share_mc(
            SimConfig(merged_foundry, strategy="pi_selfish", params=AttackParams(epsilon=eps)),
            transitions=2_000_000,
        )
        assert stats.adversary_reward_share == pytest.approx(closed, abs=0.004)
    assert stats.orphan_count > 0


def test_lockstep_bribery_matches_closed_form(three_targets):
    pools, targets = three_targets
    part = TargetPartition(pools, targets)
    for eps in (0.0, 0.05):
        closed = bribery_reward_share(pools, part, eps)
        stats = reward_share_mc(
            SimConfig(pools, strategy="bribery", targets=targets, params=AttackParams(epsilon=eps)),
            transitions=2_000_000,
        )
        assert stats.adversary_reward_share == pytest.approx(closed, abs=0.004)


def test_lockstep_undercut_matches_closed_form(three_targets):
    pools, targets = three_targets
    part = TargetPartition(pools, targets)
    for eps in (0.0, 0.05):
        closed = undercut_reward_share(pools, part, eps)
        stats = reward_share_mc(
            SimConfig(pools, strategy="undercut", targets=targets, params=AttackParams(epsilon=eps)),
            transitions=2_000_000,
        )
        assert stats.adversary_reward_share == pytest.approx(closed, abs=0.004)


def test_lockstep_no_targets_collapses_to_honest():
    pools = PoolSet.from_shares(0.3, [0.35, 0.35])
    cfg = SimConfig(pools, strategy="bribery", targets=())
    assert build_automaton(cfg).n_states == 1
    stats = reward_share_mc(cfg, transitions=1_000_000)
    sigma = np.sqrt(0.3 * 0.7 / 1_000_000)
    assert stats.adversary_reward_share == pytest.approx(0.3, abs=4 * sigma)


def test_lockstep_mdp_policy_matches_solver():
    pools = PoolSet.from_shares(0.35, [0.35, 0.3])
    model = build_mdp(pools, AttackParams(), fork_cap=6)
    res = solve_reward_share(model)
    misses = _topology.cache_info().misses
    stats = reward_share_mc(
        SimConfig(pools, strategy="mdp_policy", fork_cap=6, policy=res.policy),
        transitions=2_000_000,
    )
    assert stats.adversary_reward_share == pytest.approx(res.reward_share, abs=0.005)
    # the automaton's build_mdp call reuses the topology just enumerated
    assert _topology.cache_info().misses == misses


def test_mdp_policy_runs_with_a_zero_share_rival():
    # a pool of share 0 has no edge in the MDP; its winner column is never drawn
    pools = PoolSet.from_shares(0.35, [0.35, 0.3, 0.0])
    cfg = SimConfig(pools, strategy="mdp_policy", fork_cap=4, horizon=2,
                    epoch=EpochModel(blocks_per_epoch=400), seed=5)
    auto = build_automaton(cfg)
    visits = _lockstep_visits(auto.next_state, auto.cdf, np.random.default_rng(1), 256, 10, 400)
    assert visits[:, 2].sum() == 0 and visits.sum() == 256 * 400
    want = lockstep_counts_loop(auto.next_state, auto.cdf, np.random.default_rng(1), 256, 10, 400)
    np.testing.assert_array_equal(visits, want)
    _assert_same_stats(simulate(cfg), simulate_sequential(cfg))
    solved = solve_reward_share(build_mdp(pools, AttackParams(), fork_cap=4)).reward_share
    stats = reward_share_mc(cfg, transitions=1_000_000)
    assert stats.adversary_reward_share == pytest.approx(solved, abs=0.005)


def test_lockstep_distraction_matches_closed_form():
    split = PowerSplit(0.3, 0.2, 0.5, 0.0)
    dp = DistractionParams(split, 5.0, 0.03, 0.0)
    closed = distraction_reward_share(split, 5.0, 0.03)
    stats = reward_share_mc(
        SimConfig(None, strategy="distraction", distraction=dp), transitions=2_000_000
    )
    assert stats.adversary_reward_share == pytest.approx(closed, abs=0.004)


def test_distraction_occupancy_within_mc_error():
    split = PowerSplit(0.4, 0.1, 0.3, 0.2)
    dp = DistractionParams(split, 5.0, 0.04, 0.02)
    for choice in ("mini_pow", "bitcoin"):
        occ = distraction_occupancy_mc(dp, choice, events=1_000_000)
        want = scenario_rates(split, 5.0, choice).occupancy()
        assert np.abs(occ - want).max() < 2e-3


def test_lockstep_deterministic(three_targets):
    pools, targets = three_targets
    cfg = SimConfig(pools, strategy="undercut", targets=targets, seed=99)
    a = reward_share_mc(cfg, transitions=200_000)
    b = reward_share_mc(cfg, transitions=200_000)
    assert a.adversary_reward_share == b.adversary_reward_share
    assert a.orphan_count == b.orphan_count


_DISTRACTION = DistractionParams(PowerSplit(0.4, 0.1, 0.3, 0.2), 5.0, 0.04, 0.02)


@pytest.mark.parametrize(
    "sizes", [{"replicas": 0}, {"burn_in": -3}, {"events": 0}],
    ids=["replicas=0", "burn_in=-3", "events=0"],
)
def test_occupancy_rejects_sizes_that_walk_or_count_nothing(sizes):
    with pytest.raises(ValidationError, match=next(iter(sizes))):
        distraction_occupancy_mc(_DISTRACTION, **{"events": 1000, **sizes})


@pytest.mark.parametrize(
    "sizes", [{"events": math.inf}, {"replicas": 1024.0}, {"burn_in": 2.5}],
    ids=["events=inf", "replicas=1024.0", "burn_in=2.5"],
)
def test_occupancy_rejects_sizes_that_are_not_integers(sizes):
    with pytest.raises(ValidationError, match=next(iter(sizes))):
        distraction_occupancy_mc(_DISTRACTION, **{"events": 1000, **sizes})


@pytest.mark.parametrize(
    "sizes", [{"transitions": math.inf}, {"replicas": 1024.0}, {"burn_in": 2.5}],
    ids=["transitions=inf", "replicas=1024.0", "burn_in=2.5"],
)
def test_reward_share_mc_rejects_sizes_that_are_not_integers(three_targets, sizes):
    pools, targets = three_targets
    cfg = SimConfig(pools, strategy="undercut", targets=targets)
    with pytest.raises(ValidationError, match=next(iter(sizes))):
        reward_share_mc(cfg, **{"transitions": 1000, **sizes})


# -- lockstep kernel against the per-step loops it replaced --------------------------

_FIVE_POOLS = PoolSet.from_shares(0.3, [0.25, 0.2, 0.15, 0.1])
_EPS = AttackParams(epsilon=0.05)
#: one configuration per strategy, distraction under both puzzle choices
KERNEL_CONFIGS = [
    *(SimConfig(_FIVE_POOLS, strategy=s, params=_EPS, seed=5)
      for s in ("honest", "pi_selfish", "bribery", "undercut")),
    SimConfig(PoolSet.from_shares(0.35, [0.35, 0.3]), strategy="mdp_policy",
              params=_EPS, fork_cap=4, seed=6),
    *(SimConfig(None, strategy="distraction", distraction=_DISTRACTION, puzzle_choice=c, seed=7)
      for c in ("mini_pow", "bitcoin")),
]
_KERNEL_IDS = [f"{c.strategy}-{c.puzzle_choice}" if c.distraction else c.strategy
               for c in KERNEL_CONFIGS]


@pytest.fixture(scope="module", params=KERNEL_CONFIGS, ids=_KERNEL_IDS)
def kernel_case(request):
    return request.param, build_automaton(request.param)


def test_only_the_distraction_automaton_has_more_than_one_winner_row(kernel_case):
    # before its rows are folded into one cdf, that is, as the oracles walk it
    cfg, _ = kernel_case
    rows = per_state_automaton(cfg).cdf
    assert bool((rows == rows[0]).all()) == (cfg.strategy != "distraction")


def test_every_automaton_has_one_cdf_row(kernel_case):
    _, auto = kernel_case
    assert auto.cdf.ndim == 1 and auto.cdf[-1] == 1.0
    assert auto.next_state.shape == (auto.n_states, auto.cdf.size)


def _state_count(cfg: SimConfig) -> int:
    """States of cfg's automaton, from the layout each builder documents."""
    if cfg.strategy == "distraction":
        return {"mini_pow": 3, "bitcoin": 4}[cfg.puzzle_choice]
    if cfg.strategy == "mdp_policy":
        return build_mdp(cfg.pools, cfg.params, fork_cap=cfg.fork_cap).state_count
    targets = len(TargetPartition.auto(cfg.pools, cfg.params.epsilon).targets)
    counts = {"honest": 1, "pi_selfish": 2 + len(cfg.pools), "bribery": 1 + 2 * targets, "undercut": 1 + 2 * targets}
    return counts[cfg.strategy]


def test_automaton_n_states_counts_states_not_winner_columns(kernel_case):
    # perfbench/spans.py records n_states as sim.automaton_states and its runs
    # compare it between passes; folding the distraction rows widens the cdf only
    cfg, auto = kernel_case
    assert auto.n_states == _state_count(cfg) == len(auto.rate)


def test_jump_table_takes_k_steps_per_lookup(kernel_case):
    _, auto = kernel_case
    S, W = auto.n_states, auto.cdf.size
    k = _jump_steps(S, W)
    assert 2 <= k and S * W**k <= _JUMP_ENTRIES < S * W ** (k + 1)
    jumps = _jumps(auto.next_state, k)
    # walk every (state, k winners) one step at a time, first winner most significant
    state = np.arange(S).repeat(W**k)
    code = np.tile(np.arange(W**k), S)
    for j in range(k):
        w = code // W ** (k - 1 - j) % W
        np.testing.assert_array_equal(jumps.steps[j], state * W + w)
        state = auto.next_state[state, w]
    np.testing.assert_array_equal(jumps.table, state * W**k)
    np.testing.assert_array_equal(jumps.next_offset, (auto.next_state * W).ravel())


def test_k_step_walk_visits_the_events_of_the_one_step_walk(kernel_case):
    # neither slab's length is a multiple of any k from 3 to 5, so the
    # second starts from offsets that the first ended on single steps
    _, auto = kernel_case
    W = auto.cdf.size
    k = _jump_steps(auto.n_states, W)
    jumps, single = _jumps(auto.next_state, k), _jumps(auto.next_state, 1)
    offset, offset_1 = np.zeros(5, dtype=np.int64), np.zeros(5, dtype=np.int64)
    for rows in (103, 62):
        bits = np.random.default_rng(rows).bit_generator
        wins = _Winners(auto.cdf)(bits, bits.jumped(), rows * 5).reshape(rows, 5)
        out, want = np.empty((rows // k + rows % k, 5), dtype=np.int64), np.empty((rows, 5), dtype=np.int64)
        _walk(jumps, wins, offset, out)
        _walk(single, wins, offset_1, want)
        np.testing.assert_array_equal(_events(jumps, out, rows), want)
        np.testing.assert_array_equal(offset, offset_1 * W ** (k - 1))


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("replicas, burn_in, steps",
                         [(64, 37, 150), (5_000, 20, 30), (1, 41, 997), (3, 13, 409)])
def test_kernel_visits_equal_the_searchsorted_loop(kernel_case, side, replicas, burn_in, steps):
    # the counts walk equals the loop of one scalar multinomial per occupied
    # state to the last bit; side picks how the counted window is taken:
    # "left" walks burn_in uncounted steps first, as the entries do, "right"
    # counts the whole walk and takes away the count of its first burn_in
    # steps, which is the same because counting never moves the walk
    _, auto = kernel_case

    def visits(burn, count):
        return _lockstep_visits(auto.next_state, auto.cdf, np.random.default_rng(3), replicas, burn, count)

    got = visits(burn_in, steps) if side == "left" else visits(0, burn_in + steps) - visits(0, burn_in)
    want = lockstep_counts_loop(auto.next_state, auto.cdf, np.random.default_rng(3), replicas, burn_in, steps)
    np.testing.assert_array_equal(got, want)
    assert got.sum() == replicas * steps


def _assert_same_mean(a, b):
    """Each entry of a and b (one row per seed) has the same mean within 5 standard errors."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    sem = np.hypot(a.std(axis=0, ddof=1), b.std(axis=0, ddof=1)) / math.sqrt(len(a))
    assert (np.abs(a.mean(axis=0) - b.mean(axis=0)) <= 5 * sem + 1e-12).all()


def test_kernel_visits_agree_in_mean_with_the_per_chain_loop(kernel_case):
    # the loop draws a winner per chain by a bisect on its state's own row;
    # the kernel's visits of the folded cdf are unfolded onto those rows
    cfg, auto = kernel_case
    rows = per_state_automaton(cfg)
    got = [unfold_visits(_lockstep_visits(auto.next_state, auto.cdf, np.random.default_rng(s), 32, 20, 40),
                         auto.cdf, rows.cdf) for s in range(40)]
    want = [lockstep_visits_loop(rows.next_state, rows.cdf, np.random.default_rng(s), 32, 20, 40) for s in range(40)]
    _assert_same_mean(got, want)


def test_kernel_visits_over_the_table_budget_equal_the_searchsorted_loop(kernel_case, monkeypatch):
    # with no room for a two-step table the clocked engine walks one step per
    # lookup, and still equals the per-event loop
    cfg, auto = kernel_case
    monkeypatch.setattr(sim, "_JUMP_ENTRIES", 0)
    assert _jumps(auto.next_state, _jump_steps(auto.n_states, auto.cdf.size)).steps == ()
    cfg = replace(cfg, epoch=EpochModel(blocks_per_epoch=300), horizon=5_000, horizon_unit="blocks")
    _assert_same_stats(simulate(cfg), simulate_sequential(cfg))


class _Words:
    """bit_generator stand-in whose raw words cycle through a list; i counts the words drawn."""

    def __init__(self, words):
        self.words = words
        self.i = 0

    def random_raw(self, size=None):
        n = 1 if size is None else math.prod(np.atleast_1d(size))
        out = np.array([self.words[(self.i + j) % len(self.words)] for j in range(n)], dtype=np.uint64)
        self.i += n
        return int(out[0]) if size is None else out.reshape(size)


def _thresholds(cdf) -> list[int]:
    """ceil(c * 2**53) of every entry c of cdf, exactly."""
    return [math.ceil(Fraction(float(c)) * 2**53) for c in np.ravel(cdf)]


def _winner_words(ms_rows, thresholds):
    """The words of draws at the 53-bit values ms_rows, one row per step: (piece words, low-bit words).

    A row's pieces, each m's top 16 bits, fill ceil(width / 4) words, least
    significant first, the unused ones zero.  The low-bit words carry, in
    row-major order, the low 37 bits of every m in a bucket that one of the
    thresholds falls strictly inside, in their top bits.
    """
    split = {t >> 37 for t in thresholds if t % 2**37}
    words = []
    for row in ms_rows:
        pieces = [m >> 37 for m in row] + [0] * (-len(row) % 4)
        words += [sum(h << 16 * q for q, h in enumerate(pieces[i : i + 4])) for i in range(0, len(pieces), 4)]
    return words, [(m % 2**37) << 27 for row in ms_rows for m in row if m >> 37 in split]


class _GeneratorAt:
    """default_rng stand-in: winner draws cycle through 53-bit values ms (4n of them), gaps are 1."""

    def __init__(self, ms, thresholds):
        words, low = _winner_words([ms], thresholds)
        self.bit_generator = _Words(words)
        self.bit_generator.jumped = lambda: _Words(low)

    def standard_exponential(self, size=None):
        return np.ones(size)


def _on_the_thresholds(cdf_rows) -> list[int]:
    """Draws at every threshold below 2**53 of every row but the last column, one under each, and 0; 4n of them."""
    ts = [t for t in _thresholds(np.asarray(cdf_rows)[..., :-1]) if t < 2**53]
    return sorted({0, *ts, *(t - 1 for t in ts if t)}) * 4


# -- the winner rule, pinned draw by draw -----------------------------------------------


def _assert_rule_counts_the_cdf(cdf, ms_rows):
    """_Winners on cdf, called once per row of ms_rows, gives each m #{cdf[j] <= m * 2**-53}, drawing every word."""
    thresholds = _thresholds(cdf[:-1])
    words, low = _winner_words(ms_rows, thresholds)
    bits, refine = _Words(words), _Words(low)
    rule = _Winners(cdf)
    got = [rule(bits, refine, len(row)) for row in ms_rows]
    want = [[sum(Fraction(float(c)) <= Fraction(m, 2**53) for c in cdf[:-1]) for m in row] for row in ms_rows]
    np.testing.assert_array_equal(got, want)
    assert (bits.i, refine.i) == (len(words), len(low))


def _edge_draws(cdf) -> list[int]:
    """0, 2**53 - 1, every threshold below 2**53 and the one under it, and both ends of each split bucket."""
    ts = [t for t in _thresholds(cdf[:-1]) if t < 2**53]
    split = {t >> 37 for t in ts if t % 2**37}
    ends = [e for h in split for e in (h << 37, (h + 1 << 37) - 1)]
    return sorted({0, 2**53 - 1, *ts, *(t - 1 for t in ts if t), *ends})


#: zero-share pools first, in the middle, last (a threshold of 2**53) and in
#: all three places; entries on bucket edges only; ten pools of 0.1
_PINNED_CDFS = [
    [0.0, 1 / 3, 1.0],
    [1 / 3, 1 / 3, 1.0],
    [0.3, 1.0, 1.0],
    [0.0, 0.0, 0.3, 0.3, 0.7, 1.0, 1.0],
    [0.25, 0.5, 0.75, 1.0],
    [0.1, 0.2, 0.30000000000000004, 0.4, 0.5, 0.6, 0.7, 0.7999999999999999, 0.8999999999999999, 1.0],
]


@pytest.mark.parametrize("cdf", _PINNED_CDFS, ids=lambda c: "-".join(f"{x:.3g}" for x in c))
def test_winner_rule_counts_the_cdf_entries_at_most_the_draw(cdf):
    cdf = np.array(cdf)
    ms = _edge_draws(cdf)
    # one step of every draw, then steps of 5, which leave 3 pieces of every second word
    _assert_rule_counts_the_cdf(cdf, [ms])
    ms += [0] * (-len(ms) % 5)
    _assert_rule_counts_the_cdf(cdf, [ms[i : i + 5] for i in range(0, len(ms), 5)])


_CDF_ENTRIES = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1 / 3, 0.5, 1.0]))


@settings(max_examples=60, deadline=None)
@given(st.lists(_CDF_ENTRIES, min_size=0, max_size=9), st.lists(st.integers(0, 2**53 - 1), max_size=20))
def test_winner_rule_counts_drawn_cdfs(entries, drawn):
    cdf = np.array(sorted(entries) + [1.0])
    _assert_rule_counts_the_cdf(cdf, [_edge_draws(cdf) + drawn])


@pytest.mark.parametrize("transitions, replicas, burn_in", [(200_000, 1024, 300), (150_000, 5_000, 20)])
def test_reward_share_mc_matches_the_per_step_loop(kernel_case, transitions, replicas, burn_in):
    cfg, _ = kernel_case
    got = reward_share_mc(cfg, transitions, replicas, burn_in)
    want = reward_share_counts_loop(cfg, transitions, replicas, burn_in)
    assert got.orphan_count == want.orphan_count
    assert got.rng_draws == want.rng_draws
    assert got.events == want.events == replicas * math.ceil(transitions / replicas)
    # only the order of the bribe sums differs
    assert got.adversary_reward_share == pytest.approx(want.adversary_reward_share, abs=1e-15)


def test_reward_share_mc_agrees_in_mean_with_the_per_chain_loop(kernel_case):
    cfg, _ = kernel_case
    got, want = (
        [[f(replace(cfg, seed=s), 2_000, 50, 20).adversary_reward_share] for s in range(40)]
        for f in (reward_share_mc, reward_share_mc_loop)
    )
    _assert_same_mean(got, want)


@pytest.mark.parametrize("choice", ["mini_pow", "bitcoin"])
@pytest.mark.parametrize("events, replicas, burn_in", [(300_000, 1024, 300), (100_000, 5_000, 20)])
def test_occupancy_matches_the_per_step_loop(choice, events, replicas, burn_in):
    got = distraction_occupancy_mc(_DISTRACTION, choice, events, replicas, burn_in, seed=11)
    want = distraction_occupancy_counts_loop(_DISTRACTION, choice, events, replicas, burn_in, seed=11)
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("choice", ["mini_pow", "bitcoin"])
def test_occupancy_agrees_in_mean_with_the_per_chain_loop(choice):
    got, want = (
        [f(_DISTRACTION, choice, 2_000, 50, 20, seed=s) for s in range(40)]
        for f in (distraction_occupancy_mc, distraction_occupancy_loop)
    )
    _assert_same_mean(got, want)


# -- clocked engine against the per-event loop it replaced ---------------------------


def _assert_same_stats(got: SimStats, want: SimStats) -> None:
    for f in fields(SimStats):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert a.shape == b.shape and np.array_equal(a, b), f.name
        else:
            assert a == b, f.name


def _spawned(cfg: SimConfig, replicas: int) -> list[SimConfig]:
    children = np.random.SeedSequence(cfg.seed).spawn(replicas)
    return [replace(cfg, seed=int(c.generate_state(1, np.uint64)[0])) for c in children]


@pytest.mark.parametrize("dam_mode", ["canonical_only", "active_power"])
@pytest.mark.parametrize("horizon, unit", [(3, "epochs"), (700, "blocks"), (5_000, "blocks")],
                         ids=["epochs", "blocks", "two-chunks"])
def test_simulate_equals_the_per_event_loop(kernel_case, dam_mode, horizon, unit):
    # one replica walks k = 3 to 5 steps per lookup here; a chunk of 4,096
    # events is not a multiple of k = 3 or 5, so those two-chunk runs carry
    # a walk that ended on single steps into the next chunk
    cfg, _ = kernel_case
    cfg = replace(cfg, epoch=EpochModel(blocks_per_epoch=300), horizon=horizon, horizon_unit=unit, dam_mode=dam_mode)
    got = simulate(cfg)
    _assert_same_stats(got, simulate_sequential(cfg))
    assert got.events == len(got.revenue_advantage)
    assert len(got.epoch_durations) == (horizon if unit == "epochs" else horizon // 300)
    if horizon == 5_000:
        assert got.events > _CHUNK


def test_simulate_equals_the_per_event_loop_without_a_trajectory(merged_foundry):
    cfg = SimConfig(merged_foundry, strategy="bribery", horizon=2, collect_trajectory=False, seed=4)
    got = simulate(cfg)
    _assert_same_stats(got, simulate_sequential(cfg))
    assert got.revenue_advantage.shape == (0, 2) and got.events > 0


def test_horizon_on_an_epoch_end_reached_by_a_two_block_event(merged_foundry):
    # the first epoch length from 400 on whose third epoch, at seed 0, ends
    # on an event that settles blocks 3L - 1 and 3L: one block short of the
    # horizon, the walk stops at the same event
    for L in range(400, 500):
        cfg = SimConfig(merged_foundry, strategy="pi_selfish", epoch=EpochModel(blocks_per_epoch=L),
                        horizon=3, dam_mode="active_power", seed=0)
        want = simulate_sequential(cfg)
        one_short = simulate_sequential(replace(cfg, horizon=3 * L - 1, horizon_unit="blocks"))
        if one_short.events == want.events:
            break
    else:
        pytest.fail("no epoch length in [400, 500) ends its third epoch on a two-block event")
    _assert_same_stats(simulate(cfg), want)


@pytest.mark.parametrize("replicas", [1, 3, 24])
@pytest.mark.parametrize("dam_mode", ["canonical_only", "active_power"])
def test_simulate_many_equals_the_per_event_loop_across_chunks(merged_foundry, replicas, dam_mode):
    # about 8,200 events a run: replicas finish in the second or third chunk
    cfg = SimConfig(merged_foundry, strategy="pi_selfish", epoch=EpochModel(blocks_per_epoch=1_000),
                    horizon=6_726, horizon_unit="blocks", dam_mode=dam_mode, seed=replicas)
    runs = simulate_many(cfg, replicas)
    for got, alone in zip(runs, _spawned(cfg, replicas), strict=True):
        _assert_same_stats(got, simulate_sequential(alone))
    if replicas == 24:
        assert {math.ceil(r.events / _CHUNK) for r in runs} == {2, 3}
        assert {r.rng_draws for r in runs} == {4 * _CHUNK, 6 * _CHUNK}


def test_simulate_many_257_wide_equals_the_per_event_loop(merged_foundry):
    # a walk wider than any experiment's, k steps per lookup as at every
    # width; about 4,100 events a run, so replicas finish in the first or
    # the second chunk and the walk narrows between them
    replicas = 257
    cfg = SimConfig(merged_foundry, strategy="pi_selfish", epoch=EpochModel(blocks_per_epoch=1_000),
                    horizon=3_354, horizon_unit="blocks", seed=replicas)
    runs = simulate_many(cfg, replicas)
    for got, alone in zip(runs, _spawned(cfg, replicas), strict=True):
        _assert_same_stats(got, simulate_sequential(alone))
    assert {math.ceil(r.events / _CHUNK) for r in runs} == {1, 2}


@pytest.mark.parametrize("case", [
    SimConfig(PoolSet.from_shares(0.25, [0.25, 0.5]), strategy="pi_selfish", params=_EPS),
    SimConfig(None, strategy="distraction", distraction=_DISTRACTION, puzzle_choice="bitcoin"),
], ids=["one-row", "per-state"])
def test_simulate_breaks_ties_as_bisect_right(monkeypatch, case):
    cfg = replace(case, epoch=EpochModel(blocks_per_epoch=100), horizon=3)
    # every threshold of every state's own row, which the folded cdf must split at
    rows = per_state_automaton(cfg).cdf
    ms = _on_the_thresholds(rows)
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _GeneratorAt(ms, _thresholds(rows)))
    _assert_same_stats(simulate(cfg), simulate_sequential(cfg))


_WEIGHTS = st.integers(0, 4)


@settings(max_examples=40, deadline=None)
@given(
    _WEIGHTS, _WEIGHTS, _WEIGHTS, _WEIGHTS,
    st.floats(1.0, 8.0), st.sampled_from([0.0, 0.02, 0.1]), st.sampled_from([0.0, 0.01, 0.05]),
    st.sampled_from(["mini_pow", "bitcoin"]), st.integers(0, 2**32 - 1),
)
# no adversary power: the quiet row's entries sum to 1.0000000000000002 before its last column
@example(0, 1, 2, 2, 3.0, 0.02, 0.0, "mini_pow", 1)
def test_folded_distraction_walk_equals_the_per_state_rows(wa, wi, wc, wnc, d_ratio, br2, br3, choice, seed):
    # whole-number weights put zero categories and coinciding row entries in reach
    total = wa + wi + wc + wnc
    assume(total > 0)
    split = PowerSplit(wa / total, wi / total, wc / total, wnc / total)
    cfg = SimConfig(None, strategy="distraction", distraction=DistractionParams(split, d_ratio, br2, br3),
                    puzzle_choice=choice, epoch=EpochModel(blocks_per_epoch=100), horizon=2, seed=seed)
    _assert_same_stats(simulate(cfg), simulate_sequential(cfg))


# -- exact evaluation of the automata --------------------------------------------------


def _criterion_06_pool_sets():
    """The 20 random (pools, epsilon) cases of acceptance criterion 06."""
    rng = np.random.default_rng(20260814)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        alpha = float(rng.uniform(0.12, 0.42))
        eps = float(rng.uniform(0.0, 0.15))
        rivals = tuple(float(v) for v in (1.0 - alpha) * rng.dirichlet(np.ones(n)))
        yield PoolSet.from_shares(alpha, rivals), eps


def _exact(auto):
    return exact_automaton(auto.cdf, auto.next_state, auto.settled, auto.attacker - auto.bribe)


def test_reward_share_mc_is_unbiased_against_the_exact_automata():
    # 16 independently seeded runs per automaton; their spread gives sigma of the mean
    runs = 16
    for pools, eps in itertools.islice(_criterion_06_pool_sets(), 3):
        for strategy in ("pi_selfish", "bribery", "undercut"):
            cfg = SimConfig(pools, strategy=strategy, params=AttackParams(epsilon=eps))
            exact = _exact(build_automaton(cfg))[0]
            shares = [reward_share_mc(replace(cfg, seed=seed), transitions=250_000).adversary_reward_share
                      for seed in range(runs)]
            sigma = np.std(shares, ddof=1) / math.sqrt(runs)
            assert 0 < sigma and abs(np.mean(shares) - exact) <= 5 * sigma, (strategy, pools.shares, eps)


def test_reward_share_mc_at_a_billion_transitions_is_unbiased_against_the_exact_automata():
    # ten million replicas walk as counts per state, so 1e9 transitions are
    # 100 counted steps; the spread of one run must resolve the share to 1e-4
    runs = 8
    for pools, eps in itertools.islice(_criterion_06_pool_sets(), 3):
        for strategy in ("pi_selfish", "bribery", "undercut"):
            cfg = SimConfig(pools, strategy=strategy, params=AttackParams(epsilon=eps))
            exact = _exact(build_automaton(cfg))[0]
            shares = [reward_share_mc(replace(cfg, seed=seed), transitions=10**9, replicas=10**7).adversary_reward_share
                      for seed in range(runs)]
            spread = np.std(shares, ddof=1)
            assert 0 < spread < 1e-4, (strategy, pools.shares, eps)
            assert abs(np.mean(shares) - exact) <= 5 * spread / math.sqrt(runs), (strategy, pools.shares, eps)


def _exact_orphans(auto):
    """Exact orphaned blocks per transition: the occupancy times each state's expected orphans."""
    p = np.diff(auto.cdf, prepend=0.0)
    return float(_exact(auto)[1] @ (p * auto.orphans).sum(axis=1))


def test_policy_rollout_orphans_are_unbiased_against_the_exact_rate():
    """The orphans per transition of the solved cap-5 policy (the blocks its
    withholding destroys) against the policy automaton's exact rate: the
    mean of 16 seeded rollouts within 5 sigma.  A policy that orphans
    nothing, as the solved one of the first set and honest play do, rolls
    out to none."""
    runs, orphaning = 16, 0
    for pools, eps in itertools.islice(_criterion_06_pool_sets(), 4):
        model = build_mdp(pools, AttackParams(epsilon=eps), fork_cap=5)
        policy = solve_reward_share(model).policy
        exact = _exact_orphans(_policy_automaton(model, policy))
        rates = []
        for seed in range(runs):
            stats = policy_rollout(model, policy, seed=seed, horizon=100_000)
            rates.append(stats.orphan_count / stats.events)
        if exact == 0.0:
            assert not any(rates), pools.shares
        else:
            orphaning += 1
            sigma = np.std(rates, ddof=1) / math.sqrt(runs)
            assert 0 < sigma and abs(np.mean(rates) - exact) <= 5 * sigma, (pools.shares, eps)
        assert _exact_orphans(_policy_automaton(model, honest_policy(model))) == pytest.approx(0.0, abs=1e-15)
    assert orphaning == 3


def test_exact_automata_equal_the_closed_forms():
    for pools, eps in _criterion_06_pool_sets():
        a = pools.adversary_share
        partition = TargetPartition.auto(pools, eps)
        closed = {
            "honest": a,
            "pi_selfish": selfish_profit(a, residual_centralization_factor(pools), eps),
            "bribery": bribery_reward_share(pools, partition, eps),
            "undercut": undercut_reward_share(pools, partition, eps),
        }
        for strategy, want in closed.items():
            auto = build_automaton(SimConfig(pools, strategy=strategy, params=AttackParams(epsilon=eps)))
            assert _exact(auto)[0] == pytest.approx(want, abs=1e-12), (strategy, pools.shares, eps)


@pytest.mark.parametrize("choice", ["mini_pow", "bitcoin"])
@pytest.mark.parametrize("split", [PowerSplit(0.4, 0.1, 0.3, 0.2), PowerSplit(0.3, 0.2, 0.5, 0.0),
                                   PowerSplit(0.25, 0.0, 0.5, 0.25)])
def test_folding_keeps_the_exact_distraction_chain(split, choice):
    cfg = SimConfig(None, strategy="distraction", distraction=DistractionParams(split, 5.0, 0.04, 0.02),
                    puzzle_choice=choice)
    folded, rows = build_automaton(cfg), per_state_automaton(cfg)
    share, occupancy = _exact(folded)
    want_share, want_occupancy = _exact(rows)
    assert share == pytest.approx(want_share, abs=1e-14)
    np.testing.assert_allclose(occupancy, want_occupancy, rtol=0, atol=1e-14)
    # the quiet and live rows differ, so the fold has work to do
    assert rows.cdf.shape == (folded.n_states, 4) and not np.array_equal(rows.cdf[0], rows.cdf[1])


@pytest.mark.parametrize("split, d_ratio, br2", [
    (PowerSplit(0.4, 0.1, 0.5, 0.0), 5.0, 0.04), (PowerSplit(0.3, 0.2, 0.5, 0.0), 5.0, 0.04),
    (PowerSplit(0.25, 0.15, 0.6, 0.0), 3.0, 0.02), (PowerSplit(0.45, 0.05, 0.5, 0.0), 8.0, 0.01),
])
def test_distraction_closed_form_is_the_exact_automaton_without_never_compliant_power(split, d_ratio, br2):
    # with alpha_nc > 0 the two differ; which one models the attack is still open, so no gap is pinned
    cfg = SimConfig(None, strategy="distraction", distraction=DistractionParams(split, d_ratio, br2, 0.0),
                    puzzle_choice="mini_pow")
    assert _exact(build_automaton(cfg))[0] == pytest.approx(distraction_reward_share(split, d_ratio, br2), abs=1e-12)


# -- clocked engine ------------------------------------------------------------------


def test_sequential_honest_run(merged_foundry):
    ep = EpochModel(blocks_per_epoch=400)
    cfg = SimConfig(merged_foundry, strategy="honest", epoch=ep, horizon=5)
    stats = simulate(cfg)
    assert stats.orphan_count == 0
    assert len(stats.epoch_durations) == 5
    # every event settles exactly one block, so durations hover near L/lambda
    assert np.abs(stats.epoch_durations.mean() - 400.0) < 60.0
    assert np.all(stats.revenue_advantage[:, 1] == 0.0)
    sigma = np.sqrt(0.29033 * 0.70967 / 2000)
    assert stats.adversary_reward_share == pytest.approx(0.29033, abs=4 * sigma)
    assert stats.rng_draws > 0


def test_sequential_block_horizon(merged_foundry):
    ep = EpochModel(blocks_per_epoch=500)
    cfg = SimConfig(
        merged_foundry, strategy="honest", epoch=ep, horizon=700, horizon_unit="blocks"
    )
    stats = simulate(cfg)
    assert len(stats.epoch_durations) == 1  # one full epoch inside 700 blocks


def test_sequential_bitwise_deterministic(merged_foundry):
    ep = EpochModel(blocks_per_epoch=300)
    cfg = SimConfig(merged_foundry, strategy="pi_selfish", epoch=ep, horizon=3)
    a, b = simulate(cfg), simulate(cfg)
    assert np.array_equal(a.revenue_advantage, b.revenue_advantage)
    assert np.array_equal(a.epoch_durations, b.epoch_durations)
    assert a.adversary_reward_share == b.adversary_reward_share


def test_dam_mode_only_reshapes_time(merged_foundry):
    """Same seed, same winner draws: shares match, epoch durations diverge."""
    ep = EpochModel(blocks_per_epoch=400)
    runs = {
        mode: simulate(
            SimConfig(merged_foundry, strategy="pi_selfish", epoch=ep, horizon=8, dam_mode=mode)
        )
        for mode in ("canonical_only", "active_power")
    }
    a, b = runs["canonical_only"], runs["active_power"]
    assert a.adversary_reward_share == b.adversary_reward_share
    assert a.orphan_count == b.orphan_count
    # canonical_only retargets back to the nominal block interval; charging
    # for orphans keeps difficulty higher and epochs proportionally longer
    assert b.epoch_durations[1:].mean() > a.epoch_durations[1:].mean() * 1.08


def test_active_power_modes_identical_for_honest(merged_foundry):
    ep = EpochModel(blocks_per_epoch=300)
    a = simulate(SimConfig(merged_foundry, strategy="honest", epoch=ep, horizon=4))
    b = simulate(
        SimConfig(
            merged_foundry, strategy="honest", epoch=ep, horizon=4, dam_mode="active_power"
        )
    )
    assert np.array_equal(a.epoch_durations, b.epoch_durations)


def test_canonical_only_restores_block_rate(merged_foundry):
    """After the first retarget the canonical interval returns to target."""
    ep = EpochModel(blocks_per_epoch=400)
    cfg = SimConfig(merged_foundry, strategy="pi_selfish", epoch=ep, horizon=10)
    stats = simulate(cfg)
    assert stats.epoch_durations[0] > 440.0  # withholding slows epoch one
    assert np.abs(stats.epoch_durations[2:].mean() - 400.0) < 25.0


def test_sequential_distraction_share_and_rate():
    split = PowerSplit(0.3, 0.2, 0.5, 0.0)
    dp = DistractionParams(split, 5.0, 0.03, 0.0)
    # epoch longer than the horizon: no retarget, difficulty stays 1
    ep = EpochModel(blocks_per_epoch=50_000)
    cfg = SimConfig(
        None,
        strategy="distraction",
        distraction=dp,
        epoch=ep,
        horizon=30_000,
        horizon_unit="blocks",
    )
    stats = simulate(cfg)
    closed = distraction_reward_share(split, 5.0, 0.03)
    assert stats.adversary_reward_share == pytest.approx(closed, abs=0.01)
    # with no never-compliant power there is no race, hence no orphans
    assert stats.orphan_count == 0
    assert len(stats.epoch_durations) == 0
    # event clock: live-state events arrive rate_multiplier times faster, so
    # the run's duration matches the occupancy-weighted expectation
    sr = scenario_rates(split, 5.0, "mini_pow")
    canonical_per_event = sr.p0 * (1 - split.alpha_a) + sr.p1 * (
        sr.alpha_a_prime + sr.alpha_c_prime + sr.alpha_i_prime
    )
    time_per_event = sr.p0 + sr.p1 / sr.rate_multiplier + sr.p2
    expected_duration = 30_000 * time_per_event / canonical_per_event
    total = stats.revenue_advantage[-1, 0]
    assert total == pytest.approx(expected_duration, rel=0.03)


def test_simulate_many_replicas_use_spawned_seeds(merged_foundry):
    ep = EpochModel(blocks_per_epoch=250)
    cfg = SimConfig(merged_foundry, strategy="pi_selfish", epoch=ep, horizon=2)
    children = np.random.SeedSequence(cfg.seed).spawn(4)
    runs = simulate_many(cfg, 4)
    assert len(runs) == 4
    for run, child in zip(runs, children):
        alone = simulate(replace(cfg, seed=int(child.generate_state(1, np.uint64)[0])))
        assert run.adversary_reward_share == alone.adversary_reward_share
        assert run.orphan_count == alone.orphan_count
        assert run.rng_draws == alone.rng_draws
        assert np.array_equal(run.epoch_durations, alone.epoch_durations)
        assert np.array_equal(run.revenue_advantage, alone.revenue_advantage)


def test_simulate_many_replicas_differ(merged_foundry):
    ep = EpochModel(blocks_per_epoch=250)
    cfg = SimConfig(merged_foundry, strategy="pi_selfish", epoch=ep, horizon=2)
    runs = simulate_many(cfg, 3)
    shares = {r.adversary_reward_share for r in runs}
    assert len(shares) == 3


@pytest.mark.parametrize("replicas", [2.5, math.inf, True, 0])
def test_simulate_many_rejects_a_replica_count_that_is_not_a_positive_integer(merged_foundry, replicas):
    # 2.5 and inf once raised TypeError in SeedSequence.spawn, and True ran one replica
    cfg = SimConfig(merged_foundry, strategy="pi_selfish", epoch=EpochModel(blocks_per_epoch=250), horizon=1)
    with pytest.raises(ValidationError, match="replicas must be"):
        simulate_many(cfg, replicas)


# -- revenue-advantage trajectories --------------------------------------------------


def test_trajectory_withholding_dips_then_recovers(merged_foundry):
    ep = EpochModel(blocks_per_epoch=500)
    cfg = SimConfig(merged_foundry, strategy="pi_selfish", epoch=ep, horizon=6)
    tr = revenue_advantage_trajectory(cfg, replicas=8)
    assert tr.first_epoch_min < -5.0
    assert tr.first_epoch_min_time <= tr.first_epoch_duration
    assert tr.zero_crossing_time is not None
    assert tr.zero_crossing_time > tr.first_epoch_min_time
    assert tr.final_advantage > 0.0


def test_trajectory_active_power_never_recovers(merged_foundry):
    ep = EpochModel(blocks_per_epoch=500)
    cfg = SimConfig(
        merged_foundry, strategy="pi_selfish", epoch=ep, horizon=6, dam_mode="active_power"
    )
    tr = revenue_advantage_trajectory(cfg, replicas=8)
    assert tr.first_epoch_min < -5.0
    assert tr.zero_crossing_time is None
    assert tr.final_advantage < 0.0


def test_trajectory_bribery_dips_then_recovers():
    pools = load_pool_file(
        bundled_pool_file("bitcoin_pools_2024_merged.json"), adversary="Unknown"
    )
    ep = EpochModel(blocks_per_epoch=500)
    tr = revenue_advantage_trajectory(
        SimConfig(pools, strategy="bribery", epoch=ep, horizon=6), replicas=8
    )
    assert tr.first_epoch_min < 0.0
    assert tr.zero_crossing_time is not None
    assert tr.final_advantage > 0.0


def test_trajectory_honest_is_identically_zero(merged_foundry):
    ep = EpochModel(blocks_per_epoch=300)
    tr = revenue_advantage_trajectory(
        SimConfig(merged_foundry, strategy="honest", epoch=ep, horizon=3), replicas=2
    )
    assert np.all(tr.points[:, 1] == 0.0)
    assert tr.first_epoch_min == 0.0
    assert tr.zero_crossing_time is None


def test_trajectory_warns_on_short_horizon(merged_foundry):
    ep = EpochModel(blocks_per_epoch=250)
    with pytest.warns(HorizonWarning):
        revenue_advantage_trajectory(
            SimConfig(merged_foundry, strategy="pi_selfish", epoch=ep, horizon=2)
        )


def test_trajectory_rejects_uncovered_strategies(three_targets):
    pools, targets = three_targets
    with pytest.raises(ValidationError):
        revenue_advantage_trajectory(
            SimConfig(pools, strategy="undercut", targets=targets)
        )


# -- stats record --------------------------------------------------------------------


def test_stats_shape_contract(merged_foundry):
    stats = reward_share_mc(SimConfig(merged_foundry, strategy="honest"), transitions=50_000)
    assert isinstance(stats, SimStats)
    assert stats.epoch_durations.shape == (0,)
    assert stats.revenue_advantage.shape == (0, 2)
    assert stats.rng_draws >= 50_000


def test_configs_holding_policies_compare_by_value():
    pools = PoolSet.from_shares(0.35, [0.35, 0.3])
    a, b, c = (SimConfig(pools, strategy="mdp_policy", policy=np.array(p)) for p in ([0, 1], [0, 1], [0, 2]))
    assert (a == b) is True and hash(a) == hash(b)
    assert (a == c) is False and a != c
    assert a != replace(a, policy=None) and replace(a, policy=None) == replace(c, policy=None)


def test_default_seed_is_pinned():
    assert DEFAULT_SEED == 0xC0FFEE

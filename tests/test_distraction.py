"""Mining-power distraction: puzzle bounties, scenario occupancy, dominance frontier."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from powplay.distraction import (
    DEFAULT_GRID_HI,
    DistractionParams,
    PowerSplit,
    default_deciding_grid,
    delta_sweep,
    distraction_profit,
    distraction_profit_bound,
    distraction_reward_share,
    expected_return_delta,
    lying_bribe_bound,
    min_difficulty_ratio,
    scenario_rates,
)
from powplay.errors import InfeasibleError, ValidationError
from powplay.model import EpochModel

from oracles import (
    distraction_delta_exact,
    distraction_occupancy_exact,
    distraction_share_exact,
)


def splits(min_aa=0.05, max_aa=0.6, with_nc=True):
    """Strategy for valid power splits with a nonzero deciding pool."""

    @st.composite
    def build(draw):
        aa = draw(st.floats(min_aa, max_aa))
        ai = draw(st.floats(0.01, 0.9 * (1.0 - aa)))
        anc = draw(st.floats(0.0, 1.0 - aa - ai)) if with_nc else 0.0
        ac = 1.0 - aa - ai - anc
        assume(ac >= 0.0)
        return PowerSplit(aa, ai, ac, anc)

    return build()


# -- splits and parameter records ----------------------------------------------------


def test_power_split_must_be_a_partition():
    with pytest.raises(ValidationError):
        PowerSplit(0.4, 0.2, 0.2, 0.1)
    with pytest.raises(ValidationError):
        PowerSplit(0.5, -0.1, 0.4, 0.2)


def test_remainder_compliant_fills_the_gap():
    sp = PowerSplit.remainder_compliant(0.4, 0.25)
    assert sp.alpha_c == pytest.approx(0.35, abs=1e-15)
    assert sp.alpha_nc == 0.0
    sp2 = PowerSplit.remainder_compliant(0.4, 0.25, alpha_nc=0.1)
    assert sp2.alpha_c == pytest.approx(0.25, abs=1e-15)


def test_distraction_params_validate():
    sp = PowerSplit.remainder_compliant(0.4, 0.2)
    with pytest.raises(ValidationError):
        DistractionParams(sp, 0.5, 0.01, 0.0)
    with pytest.raises(ValidationError):
        DistractionParams(sp, 5.0, -0.01, 0.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            DistractionParams(sp, bad, 0.01, 0.0)
        with pytest.raises(ValidationError):
            DistractionParams(sp, 5.0, bad, 0.0)
        with pytest.raises(ValidationError):
            DistractionParams(sp, 5.0, 0.01, bad)


# -- bounty bounds and the bounty-profit shape ---------------------------------------


def test_lying_bribe_bound_values():
    assert lying_bribe_bound(10.0) == pytest.approx(0.1, abs=1e-15)
    assert lying_bribe_bound(10.0, epsilon=0.02) == pytest.approx(0.102, abs=1e-15)
    for bad in (0.9, float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            lying_bribe_bound(bad)
    for bad in (-0.01, float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            lying_bribe_bound(10.0, epsilon=bad)


@pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
def test_inputs_outside_their_finite_range_are_rejected(bad):
    sp = PowerSplit(0.4, 0.1, 0.3, 0.2)
    idle = PowerSplit(0.4, 0.0, 0.6, 0.0)  # checked before the zero-share early return
    calls = [
        lambda: distraction_profit_bound(0.4, bad),
        lambda: distraction_profit(0.4, bad, 10.0, 500.0),
        lambda: distraction_profit(0.4, 0.03, bad, 500.0),
        lambda: distraction_profit(0.4, 0.03, 10.0, bad),
        lambda: scenario_rates(sp, bad),
        lambda: expected_return_delta(sp, bad, 0.04, 0.02),
        lambda: expected_return_delta(sp, 5.0, bad, 0.02),
        lambda: expected_return_delta(sp, 5.0, 0.04, bad),
        lambda: expected_return_delta(idle, bad, 0.04, 0.02),
        lambda: distraction_reward_share(sp, bad, 0.04),
        lambda: distraction_reward_share(sp, 5.0, bad),
        lambda: min_difficulty_ratio(0.4, bad),
    ]
    for call in calls:
        with pytest.raises(ValidationError):
            call()


def test_profit_bound_is_share_over_ratio():
    assert distraction_profit_bound(0.4, 10.0) == pytest.approx(0.04, abs=1e-15)
    assert distraction_profit_bound(0.3, 5.0) == pytest.approx(0.06, abs=1e-15)


def test_profit_at_bound_is_honest_income():
    # paying the whole replacement margin away leaves exactly alpha_a
    assert distraction_profit(0.4, 0.04, 10.0, 500.0) == pytest.approx(0.4, abs=1e-15)


def test_profit_frozen_value():
    # 0.4 + (500/2016) * (0.4/10 - 0.03), default epoch, lambda = R = 1
    assert distraction_profit(0.4, 0.03, 10.0, 500.0) == pytest.approx(
        0.40248015873015874, abs=1e-14
    )


def test_profit_scales_with_block_income():
    ep = EpochModel(block_rate=2.0, block_reward=3.0)
    assert distraction_profit(0.4, 0.03, 10.0, 500.0, epoch=ep) == pytest.approx(
        6.0 * 0.40248015873015874, abs=1e-12
    )


@given(
    st.floats(0.1, 0.6),
    st.floats(1.0, 20.0),
    st.floats(0.0, 0.05),
    st.floats(0.0, 2000.0),
)
def test_profit_sign_matches_margin(alpha_a, d, br, k):
    profit = distraction_profit(alpha_a, br, d, k)
    margin = alpha_a / d - br
    if margin > 0:
        assert profit >= alpha_a - 1e-12
    else:
        assert profit <= alpha_a + 1e-12


# -- scenario occupancy --------------------------------------------------------------


def test_occupancy_frozen_mini_pow():
    sp = PowerSplit(0.4, 0.1, 0.3, 0.2)
    sr = scenario_rates(sp, 5.0, "mini_pow")
    # exact chain solution: (55/83, 26/83, 2/83)
    assert sr.p0 == pytest.approx(0.6626506024096386, abs=1e-14)
    assert sr.p1 == pytest.approx(0.3132530120481928, abs=1e-14)
    assert sr.p2 == pytest.approx(0.024096385542168676, abs=1e-14)


def test_occupancy_frozen_bitcoin():
    sp = PowerSplit(0.4, 0.1, 0.3, 0.2)
    sr = scenario_rates(sp, 5.0, "bitcoin")
    # exact chain solution: (9/14, 11/35, 3/70)
    assert sr.p0 == pytest.approx(0.6428571428571429, abs=1e-14)
    assert sr.p1 == pytest.approx(0.3142857142857143, abs=1e-14)
    assert sr.p2 == pytest.approx(0.04285714285714286, abs=1e-14)


def test_live_state_rate_counts_puzzle_hash_d_fold():
    sp = PowerSplit(0.4, 0.1, 0.3, 0.2)
    m = scenario_rates(sp, 5.0, "mini_pow")
    assert m.rate_multiplier == pytest.approx(5.0 * 0.4 + 0.2 + 0.4, abs=1e-12)
    b = scenario_rates(sp, 5.0, "bitcoin")
    assert b.rate_multiplier == pytest.approx(5.0 * 0.3 + 0.1 + 0.2 + 0.4, abs=1e-12)


def test_unit_ratio_degenerates_to_raw_shares():
    sp = PowerSplit(0.35, 0.2, 0.25, 0.2)
    for choice in ("mini_pow", "bitcoin"):
        sr = scenario_rates(sp, 1.0, choice)
        assert sr.rate_multiplier == pytest.approx(1.0, abs=1e-12)
        assert sr.alpha_a_prime == pytest.approx(sp.alpha_a, abs=1e-12)
        assert sr.alpha_i_prime == pytest.approx(sp.alpha_i, abs=1e-12)
        assert sr.alpha_c_prime == pytest.approx(sp.alpha_c, abs=1e-12)
        assert sr.alpha_nc_prime == pytest.approx(sp.alpha_nc, abs=1e-12)


def test_no_attacker_means_always_quiet():
    sr = scenario_rates(PowerSplit(0.0, 0.3, 0.5, 0.2), 5.0)
    assert sr.p0 == pytest.approx(1.0, abs=1e-12)
    assert sr.p1 == 0.0 and sr.p2 == 0.0


def test_unknown_choice_rejected():
    with pytest.raises(ValidationError):
        scenario_rates(PowerSplit(0.4, 0.1, 0.3, 0.2), 5.0, "solo")


@settings(max_examples=150)
@given(splits(), st.floats(1.0, 20.0), st.sampled_from(["mini_pow", "bitcoin"]))
def test_occupancy_matches_exact_chain(sp, d, choice):
    """Displayed stationary formulas vs an independent exact-fraction solve."""
    sr = scenario_rates(sp, d, choice)
    occ = sr.occupancy()
    assert occ.min() >= -1e-15
    assert occ.sum() == pytest.approx(1.0, abs=1e-12)
    exact = distraction_occupancy_exact(
        sp.alpha_a, sp.alpha_i, sp.alpha_c, sp.alpha_nc, d, choice
    )
    assert np.abs(occ - np.array(exact, dtype=float)).max() < 1e-12


# -- the deciding pool's return gap --------------------------------------------------


def test_delta_frozen_values():
    # alpha_a = 0.4, br2 = 0.04, eps = 0.02, compliant remainder
    cases = [
        (5.0, 0.1, 0.052542048929664),
        (5.0, 0.3, 0.021887287024902),
        (2.0, 0.1, 0.0018390804597701149),
        (2.0, 0.3, -0.06025974025974026),
    ]
    for d, ai, want in cases:
        sp = PowerSplit.remainder_compliant(0.4, ai)
        assert expected_return_delta(sp, d, 0.04, 0.02) == pytest.approx(
            want, abs=1e-12
        )


def test_delta_zero_share_pool_has_nothing_to_decide():
    sp = PowerSplit(0.4, 0.0, 0.6, 0.0)
    assert expected_return_delta(sp, 5.0, 0.04, 0.02) == 0.0


@settings(max_examples=150)
@given(splits(), st.floats(1.0, 15.0), st.floats(0.0, 0.1), st.floats(0.0, 0.05))
def test_delta_matches_exact_chain(sp, d, br2, eps):
    got = expected_return_delta(sp, d, br2, eps)
    want = distraction_delta_exact(
        sp.alpha_a, sp.alpha_i, sp.alpha_c, sp.alpha_nc, d, br2, eps
    )
    assert got == pytest.approx(float(want), abs=1e-12)


@given(splits(), st.floats(1.0, 15.0), st.floats(0.0, 0.05), st.floats(0.0, 0.08))
def test_delta_never_decreases_in_the_puzzle_reward(sp, d, eps, br2):
    lo = expected_return_delta(sp, d, br2, eps)
    hi = expected_return_delta(sp, d, br2 + 0.01, eps)
    assert hi >= lo - 1e-12


# -- sweeps and the dominance frontier -----------------------------------------------


def test_default_grid_shape():
    grid = default_deciding_grid(0.4)
    assert len(grid) == 30
    assert grid[0] == pytest.approx(0.01, abs=1e-12)
    assert grid[-1] == pytest.approx(DEFAULT_GRID_HI, abs=1e-12)
    # a large adversary leaves less room than the cap
    tight = default_deciding_grid(0.8)
    assert tight[-1] <= 0.2 + 1e-12


def test_sweep_passes_everywhere_at_ratio_five():
    sweep = delta_sweep(0.4, 0.04, 0.02, 5.0)
    assert len(sweep) == 30
    worst = min(delta for _, delta in sweep)
    assert worst == pytest.approx(0.02188728702490178, abs=1e-12)
    assert all(delta >= 0.02 for _, delta in sweep)


def test_sweep_fails_somewhere_at_ratio_two():
    sweep = delta_sweep(0.4, 0.04, 0.02, 2.0)
    # the smallest pools still take the puzzle, the larger ones refuse
    assert sweep[0][1] >= 0.02
    assert min(delta for _, delta in sweep) < 0.02
    worst = min(delta for _, delta in sweep)
    assert worst == pytest.approx(-0.06025974025974009, abs=1e-12)


def test_min_difficulty_ratio_frozen():
    d = min_difficulty_ratio(0.4, 0.04, epsilon=0.02)
    assert d <= 5.0
    assert d == pytest.approx(4.90234375, abs=0.011)
    # the returned endpoint must itself clear the bar on the whole grid
    assert all(delta >= 0.02 for _, delta in delta_sweep(0.4, 0.04, 0.02, d))


def test_min_difficulty_ratio_second_point():
    d = min_difficulty_ratio(0.3, 0.03)
    assert d == pytest.approx(4.3134765625, abs=0.011)
    assert all(delta >= 0.0 for _, delta in delta_sweep(0.3, 0.03, 0.0, d))


def test_min_difficulty_ratio_infeasible_reward():
    # br2 >= alpha_a puts the profitability ceiling below d = 1
    with pytest.raises(InfeasibleError):
        min_difficulty_ratio(0.3, 0.35)
    # feasible ceiling but the grid never clears a huge margin
    with pytest.raises(InfeasibleError):
        min_difficulty_ratio(0.3, 0.03, epsilon=0.5)


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_min_difficulty_ratio_rejects_a_tol_that_is_not_positive_and_finite(tol):
    # at tol 0 the bisection stalls on adjacent floats and never returns
    with pytest.raises(ValidationError):
        min_difficulty_ratio(0.4, 0.04, 0.02, tol=tol)


@pytest.mark.parametrize("step", [0.0, -0.01, float("nan"), float("inf")])
def test_default_grid_rejects_a_step_that_is_not_positive_and_finite(step):
    with pytest.raises(ValidationError):
        default_deciding_grid(0.4, step)


# -- attacker reward share -----------------------------------------------------------


def test_reward_share_frozen_value():
    sp = PowerSplit(0.3, 0.2, 0.5, 0.0)
    assert distraction_reward_share(sp, 5.0, 0.03) == pytest.approx(
        0.30877437325905294, abs=1e-14
    )


def test_reward_share_matches_exact_accounting():
    # independent route: per-event block/bounty accounting in fractions
    for aa, ai, d, br2 in [(0.3, 0.2, 5.0, 0.03), (0.4, 0.1, 8.0, 0.02)]:
        sp = PowerSplit.remainder_compliant(aa, ai)
        want = distraction_share_exact(aa, ai, sp.alpha_c, 0.0, d, br2)
        assert distraction_reward_share(sp, d, br2) == pytest.approx(
            float(want), abs=1e-12
        )


def test_reward_share_boundary_is_exactly_honest():
    # br2 = alpha_a/d: every puzzle margin vanishes
    sp = PowerSplit(0.3, 0.2, 0.5, 0.0)
    assert distraction_reward_share(sp, 10.0, 0.03) == pytest.approx(0.3, abs=1e-15)


@given(splits(with_nc=False), st.floats(1.5, 15.0))
def test_reward_share_sides_of_the_margin(sp, d):
    bound = sp.alpha_a / d
    assert distraction_reward_share(sp, d, bound * 0.5) >= sp.alpha_a - 1e-12
    assert distraction_reward_share(sp, d, bound * 1.5) <= sp.alpha_a + 1e-12


def test_reward_share_at_solved_ratio_beats_honest():
    # the dominance ratio from the frontier keeps the scheme profitable for
    # the attacker even at the largest deciding pool on the grid
    d = min_difficulty_ratio(0.3, 0.03)
    sp = PowerSplit(0.3, 0.3, 0.4, 0.0)
    assert distraction_reward_share(sp, d, 0.03) == pytest.approx(
        0.31152142233500624, abs=1e-12
    )
    assert distraction_reward_share(sp, d, 0.03) > 0.3

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from powplay.errors import ConvergenceError, ValidationError
from powplay.randomwalk import (
    abandon_threshold,
    f_series,
    f_series_weighted,
    fork_abandon_returns,
    g_series,
    prob_never_reach,
    walk_never_reach_mc,
)

from oracles import (
    alpha_poly_from_counts,
    f_closed_taylor,
    fork_race_returns_mc,
    g_closed_taylor,
    lattice_counts,
    series_sum_numeric,
    walk_never_reach_counts_loop,
    walk_never_reach_mc_per_step,
)


# -- never-reach probability ---------------------------------------------------


def test_symmetric_walk_always_reaches():
    assert prob_never_reach(0.5, 1) == 0.0


def test_one_third_share_closed_values():
    # lead-by-one hit probability is (1/3)/(2/3) = 1/2
    assert prob_never_reach(1 / 3, 1) == pytest.approx(0.5, abs=1e-12)
    assert prob_never_reach(1 / 3, 2) == pytest.approx(0.75, abs=1e-12)


def test_never_reach_domain_errors():
    with pytest.raises(ValidationError):
        prob_never_reach(1 / 3, 0)
    with pytest.raises(ValidationError):
        prob_never_reach(1.2, 1)


@pytest.mark.parametrize("r", [1.5, 2.0, True, np.float64(2.0)])
def test_never_reach_refuses_a_count_that_is_not_an_integer(r):
    with pytest.raises(ValidationError, match="r must be an integer"):
        prob_never_reach(0.3, r)


def test_majority_share_always_reaches():
    assert prob_never_reach(0.7, 3) == 0.0


@pytest.mark.parametrize("share", [0.1, 0.2, 1 / 3, 0.45])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_never_reach_matches_monte_carlo(share, r):
    walks = 200_000
    est = walk_never_reach_mc(share, r, walks=walks, seed=97)
    exact = prob_never_reach(share, r)
    sd = math.sqrt(max(exact * (1 - exact), 1e-12) / walks)
    assert abs(est - exact) <= 3 * sd + 1e-9


def test_walk_mc_deterministic():
    one = walk_never_reach_mc(0.3, 2, walks=100_000, seed=5)
    two = walk_never_reach_mc(0.3, 2, walks=100_000, seed=5)
    assert one == two


@settings(max_examples=40, deadline=None)
@given(
    share=st.floats(0.02, 0.98),
    r=st.integers(1, 4),
    walks=st.integers(1, 10**12),
    seed=st.integers(0, 2**32 - 1),
    step_cap=st.integers(0, 300),
    band=st.integers(1, 12),
)
# the defaults
@example(share=0.45, r=3, walks=70_001, seed=1, step_cap=100_000, band=30)
# most walks are still alive at the cap and closed out analytically
@example(share=0.3, r=2, walks=65_537, seed=2, step_cap=4, band=12)
# bands below r start every walk under the floor, so it sinks on its first step
@example(share=0.4, r=4, walks=1_000, seed=3, step_cap=100, band=2)
# a band past 128 leads, and a start far below the floor
@example(share=0.45, r=2, walks=1_000, seed=4, step_cap=500, band=200)
@example(share=0.6, r=300, walks=1_000, seed=5, step_cap=10, band=3)
def test_walk_mc_equals_the_counts_loop(share, r, walks, seed, step_cap, band):
    got = walk_never_reach_mc(share, r, walks=walks, seed=seed, step_cap=step_cap, band=band)
    assert got == walk_never_reach_counts_loop(share, r, walks=walks, seed=seed, step_cap=step_cap, band=band)


@pytest.mark.parametrize("share,r,step_cap,band", [(0.3, 2, 4, 12), (0.4, 4, 100, 2), (0.6, 2, 10, 30)])
def test_walk_mc_agrees_in_mean_with_the_per_walk_loop(share, r, step_cap, band):
    # the counts walk and the per-walk oracle draw different bits, so they
    # are compared over 200 seeds, with each other and with the exact value
    walks = 2_000
    sizes = {"walks": walks, "step_cap": step_cap, "band": band}
    counts = np.array([walk_never_reach_mc(share, r, seed=s, **sizes) for s in range(200)])
    per_walk = np.array([walk_never_reach_mc_per_step(share, r, seed=s, **sizes) for s in range(200)])
    exact = prob_never_reach(share, r)

    def sem(est):
        return est.std(ddof=1) / math.sqrt(est.size)

    for est in (counts, per_walk):
        assert abs(est.mean() - exact) <= 5 * sem(est) + 1e-12
    assert abs(counts.mean() - per_walk.mean()) <= 5 * math.hypot(sem(counts), sem(per_walk)) + 1e-12


@pytest.mark.parametrize("share,r", [(1 / 3, 1), (0.3, 2), (0.45, 3)])
def test_walk_mc_at_ten_billion_walks_is_within_five_sigma(share, r):
    # sigma is 4-5e-6 here; the counts walk's cost does not grow with walks
    walks = 10**10
    est = walk_never_reach_mc(share, r, walks=walks, seed=97)
    exact = prob_never_reach(share, r)
    assert abs(est - exact) <= 5 * math.sqrt(exact * (1 - exact) / walks)


def test_walk_mc_rejects_more_walks_than_int64_holds():
    # the check runs before any array is sized by walks
    with pytest.raises(ValidationError, match="walks must fit in int64"):
        walk_never_reach_mc(0.3, 1, walks=2**63)


_BAD_SIZES = [{"band": 0}, {"band": -3}, {"band": 2.5}, {"band": True}, {"step_cap": -1}, {"step_cap": 10.0},
              {"walks": True}, {"walks": 1.5}, {"r": 1.5}, {"r": True}]


@pytest.mark.parametrize("sizes", _BAD_SIZES, ids=[f"{k}={v}" for d in _BAD_SIZES for k, v in d.items()])
def test_walk_mc_rejects_sizes_that_are_not_counts(sizes):
    # at band 0 a walk reaching r was also counted as sunk (0.2732, exact 0.5714)
    with pytest.raises(ValidationError, match=next(iter(sizes))):
        walk_never_reach_mc(0.3, **{"r": 1, "walks": 1_000, "seed": 1, **sizes})


# -- generating-function series -------------------------------------------------


def test_series_reject_majority_share():
    with pytest.raises(ValidationError):
        g_series(0.5, 2)
    with pytest.raises(ValidationError):
        f_series(0.6, 2)


def test_series_constant_terms_are_single_paths():
    # the only path to the first G endpoint is d straight up-moves, and the
    # only path to the first F endpoint is two right-moves
    for d in range(1, 6):
        g, f = lattice_counts(d, 0)
        assert g[0] == 1
        assert f[0] == 1


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_closed_forms_equal_enumeration_exactly(d):
    """Taylor coefficients of the closed forms are the integer path counts.

    Expanded to alpha^15 over exact rationals, so this also pins every count
    with s <= 14 (the alpha^k coefficient only involves s <= k).
    """
    order = 16
    g_counts, f_counts = lattice_counts(d, order)
    assert alpha_poly_from_counts(g_counts, order) == g_closed_taylor(d, order)
    assert alpha_poly_from_counts(f_counts, order) == f_closed_taylor(d, order)


@pytest.mark.parametrize(
    "share,d", [(0.25, 1), (0.25, 2), (0.3, 3), (0.2, 5), (0.35, 2)]
)
def test_series_numeric_reconstruction(share, d):
    g_counts, f_counts = lattice_counts(d, 280)
    g = g_series(share, d)
    assert g.sum == pytest.approx(series_sum_numeric(g_counts, share), abs=1e-9)
    assert g.weighted_sum == pytest.approx(
        series_sum_numeric(g_counts, share, weighted=True), abs=1e-9
    )
    assert f_series(share, d) == pytest.approx(
        series_sum_numeric(f_counts, share), abs=1e-9
    )
    assert f_series_weighted(share, d) == pytest.approx(
        series_sum_numeric(f_counts, share, weighted=True), abs=1e-9
    )


def test_quarter_share_worked_value():
    assert g_series(0.25, 1).sum == pytest.approx(0.5 / 0.40625, abs=1e-12)


@settings(max_examples=60)
@given(
    st.floats(0.02, 0.48, allow_nan=False),
    st.integers(min_value=1, max_value=8),
)
def test_first_passage_masses_cover_every_walk(share, d):
    """Hitting y=x+d first and hitting y=x-2 first are complementary events."""
    up = (1 - share) ** d * g_series(share, d).sum
    down = share**2 * f_series(share, d)
    assert up + down == pytest.approx(1.0, abs=1e-9)


# -- stay-or-switch race -------------------------------------------------------


def test_vanishing_share_earns_nothing_either_way():
    r1, r2 = fork_abandon_returns(1e-4, 2)
    assert 0 < r1 < 1e-3
    assert 0 < r2 < 1e-3


def test_stay_switch_crossover_brackets_published_threshold():
    r1, r2 = fork_abandon_returns(0.43, 2)
    assert r1 - r2 < 0
    r1, r2 = fork_abandon_returns(0.44, 2)
    assert r1 - r2 > 0


def test_race_returns_match_monte_carlo():
    for share, d in [(0.40, 2), (0.46, 2), (0.3, 3)]:
        r1, r2 = fork_abandon_returns(share, d)
        r1m, r2m = fork_race_returns_mc(share, d, races=300_000, seed=23)
        assert r1 == pytest.approx(r1m, abs=0.012)
        assert r2 == pytest.approx(r2m, abs=0.012)
        if abs(r1 - r2) > 0.02:
            assert (r1 - r2 > 0) == (r1m - r2m > 0)


def test_staying_value_decreases_with_race_length():
    for share in (0.31, 0.35, 0.40, 0.45, 0.49):
        diffs = [
            (lambda rr: rr[0] - rr[1])(fork_abandon_returns(share, d))
            for d in range(2, 9)
        ]
        assert all(a > b for a, b in zip(diffs, diffs[1:])), (share, diffs)


def test_abandon_threshold_published_value():
    assert abandon_threshold(2) == pytest.approx(0.4302, abs=5e-4)


def test_abandon_threshold_no_root_beyond_two():
    # staying never pays once the race can run three or more blocks deep:
    # r1 - r2 < 0 across (0, 0.5), so the bracketing solve reports no crossing
    for d in (3, 4, 10):
        with pytest.raises(ConvergenceError):
            abandon_threshold(d)


def test_abandon_threshold_rejects_short_races():
    with pytest.raises(ValidationError):
        abandon_threshold(1)


@pytest.mark.parametrize("d", [2.5, 3.0, True, np.float64(3.0)])
def test_series_and_race_returns_refuse_a_depth_that_is_not_an_integer(d):
    for call in (
        lambda: g_series(0.3, d),
        lambda: f_series(0.3, d),
        lambda: f_series_weighted(0.3, d),
        lambda: fork_abandon_returns(0.3, d),
        lambda: abandon_threshold(d),
    ):
        with pytest.raises(ValidationError, match="d must be an integer"):
            call()


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_abandon_threshold_rejects_a_tol_that_is_not_positive_and_finite(tol):
    # at tol 0 the bisection stalls on adjacent floats and never returns
    with pytest.raises(ValidationError):
        abandon_threshold(2, tol=tol)

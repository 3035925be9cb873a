"""End-to-end guarantees, one test per shipped claim, in the promised order.

Running `pytest -v tests/test_acceptance.py` yields exactly one pass/fail
line per criterion; each test also prints a `criterion NN PASS` summary with
the measured margins (visible with -s or on failure).  Tolerances are pinned
inline next to the assertion they guard.  The slow solver tables live here
rather than in the unit files so the fast suite stays fast.
"""

import math
import time

import numpy as np
import pytest

from powplay.bribery import (
    TargetPartition,
    bribery_profit,
    bribery_reward_share,
    max_profitable_bribe,
    undercut_reward_share,
)
from powplay.distraction import (
    delta_sweep,
    distraction_profit,
    distraction_profit_bound,
    lying_bribe_bound,
)
from powplay.errors import ConvergenceError
from powplay.experiments import run_table2, run_table3, run_table4
from powplay.mdp import build_mdp, solve_reward_share
from powplay.model import (
    BITCOIN_POOLS_MERGED,
    AttackParams,
    EpochModel,
    PoolSet,
    bundled_pool_file,
    load_pool_file,
    residual_centralization_factor,
)
from powplay.randomwalk import (
    abandon_threshold,
    fork_abandon_returns,
    prob_never_reach,
    walk_never_reach_mc,
)
from powplay.selfish import selfish_dominance_threshold, selfish_profit
from powplay.sim import (
    SimConfig,
    reward_share_mc,
    revenue_advantage_trajectory,
    simulate_many,
)

from oracles import (
    alpha_poly_from_counts,
    f_closed_taylor,
    g_closed_taylor,
    lattice_counts,
)

SEED = 0xC0FFEE

#: minimum closed-form uplift, in block rewards per epoch, for the profit-lag
#: shape to be resolvable above Monte Carlo noise at the replica budget used
#: here; attacks below it are checked for noise-consistency only.
SIGNAL_FLOOR = 1.0


@pytest.fixture(scope="module")
def merged():
    return load_pool_file(bundled_pool_file(BITCOIN_POOLS_MERGED))


def _ok(n: int, detail: str) -> None:
    print(f"criterion {n:02d} PASS: {detail}")


def test_criterion_01_optimal_shares_alpha_04(merged):
    t0 = time.monotonic()
    art = run_table2()
    elapsed = time.monotonic() - t0
    devs = [abs(g - w) for g, w in zip(art.column("reward_share"), art.column("reference"))]
    assert len(devs) == 4
    assert max(devs) <= 0.01
    assert art.meta["fork_cap"] >= 6
    assert art.meta["max_bribe"] >= 1
    assert elapsed <= 900.0
    _ok(1, f"four reward shares within 0.01 (worst dev {max(devs):.4f}) in {elapsed:.0f}s")


def test_criterion_02_optimal_shares_alpha_03_monotone():
    art = run_table3()
    devs = [abs(g - w) for g, w in zip(art.column("reward_share"), art.column("reference"))]
    assert len(devs) == 4
    assert max(devs) <= 0.01
    factors = art.column("residual_factor")
    shares = art.column("reward_share")
    for (f1, s1), (f2, s2) in zip(zip(factors, shares), zip(factors[1:], shares[1:])):
        assert f2 < f1  # rows are ordered by shrinking residual factor
        assert s2 > s1  # and the attacker only gains from the shrinkage
    _ok(2, f"four reward shares within 0.01 (worst dev {max(devs):.4f}), monotone in the residual factor")


def test_criterion_03_optimal_shares_real_pools():
    art = run_table4()
    devs = [abs(g - w) for g, w in zip(art.column("reward_share"), art.column("reference"))]
    assert len(devs) == 5
    assert max(devs) <= 0.01
    _ok(3, f"five snapshot reward shares within 0.01 (worst dev {max(devs):.4f})")


def test_criterion_04_fork_abandon_threshold():
    thr = abandon_threshold(2)
    assert thr == pytest.approx(0.4302, abs=5e-4)
    # the stay-vs-switch return gap shrinks strictly as the deficit grows,
    # for every share, which makes the two-behind case the binding one
    for share in np.linspace(0.02, 0.48, 24):
        gaps = [np.subtract(*fork_abandon_returns(float(share), d)) for d in range(2, 9)]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
    # beyond two the gap never changes sign on (0, 0.5): there is no root to
    # return, and the solver says so instead of inventing one
    for d in range(3, 9):
        with pytest.raises(ConvergenceError):
            abandon_threshold(d)
    _ok(4, f"two-behind threshold {thr:.6f}; gap strictly decreasing and rootless for deficits 3..8")


def test_criterion_05_lattice_paths_and_walk_mc():
    order = 15  # enumeration depth: series coefficients for s <= 14
    for d in range(1, 6):
        g_counts, f_counts = lattice_counts(d, order - 1)
        assert alpha_poly_from_counts(g_counts, order) == g_closed_taylor(d, order)
        assert alpha_poly_from_counts(f_counts, order) == f_closed_taylor(d, order)
    # exact rational equality of all coefficients is stronger than the
    # promised 1e-9 on any partial sum
    walks = 1_000_000
    worst = 0.0
    for share, r in ((1.0 / 3.0, 1), (0.3, 2), (0.45, 3)):
        p = prob_never_reach(share, r)
        est = walk_never_reach_mc(share, r, walks=walks, seed=SEED)
        sigma = math.sqrt(max(p * (1.0 - p), 1e-12) / walks)
        assert abs(est - p) <= 3.0 * sigma
        worst = max(worst, abs(est - p) / sigma)
    _ok(5, f"series coefficients exactly equal for s<=14, d<=5; walk MC worst z = {worst:.2f}")


def test_criterion_06_closed_forms_match_simulation():
    rng = np.random.default_rng(20260814)
    worst = 0.0
    for i in range(20):
        n = int(rng.integers(2, 7))
        alpha = float(rng.uniform(0.12, 0.42))
        eps = float(rng.uniform(0.0, 0.15))
        rivals = tuple(float(v) for v in (1.0 - alpha) * rng.dirichlet(np.ones(n)))
        pools = PoolSet.from_shares(alpha, rivals)
        a = pools.adversary_share
        partition = TargetPartition.auto(pools, eps)
        cases = (
            ("pi_selfish", selfish_profit(a, residual_centralization_factor(pools), eps)),
            ("bribery", bribery_reward_share(pools, partition, eps)),
            ("undercut", undercut_reward_share(pools, partition, eps)),
        )
        for strategy, expected in cases:
            cfg = SimConfig(pools=pools, strategy=strategy, params=AttackParams(epsilon=eps), seed=SEED + i)
            got = reward_share_mc(cfg, transitions=10_000_000).adversary_reward_share
            assert got == pytest.approx(expected, abs=0.005), (i, strategy)
            worst = max(worst, abs(got - expected))
    # an empty target set is exactly honest, not approximately
    lone = PoolSet.from_shares(0.05, (0.5, 0.45))
    none = TargetPartition.auto(lone, 0.0)
    assert none.targets == ()
    assert bribery_reward_share(lone, none) == lone.adversary_share
    assert undercut_reward_share(lone, none) == lone.adversary_share
    _ok(6, f"60 closed-form vs 1e7-transition comparisons within 0.005 (worst {worst:.5f}); empty targets exact")


def test_criterion_07_profit_boundaries():
    # orphaning a rival block pays iff the bribe stays below the attacker
    # share; at the boundary the profit is honest to the last bit
    for alpha in (0.1, 0.25, 0.4):
        assert max_profitable_bribe(alpha) == alpha
        for k in (1, 50, 200):
            assert bribery_profit(alpha, alpha - 0.05, k) > alpha
            assert bribery_profit(alpha, alpha + 0.05, k) < alpha
            assert bribery_profit(alpha, alpha, k) == alpha
    # withholding pays exactly honest at the dominance boundary; a negative
    # threshold means no residual factor makes it pay at all
    interior = 0
    for alpha in (0.1, 0.2, 0.29033, 0.4, 0.45):
        for eps in (0.0, 0.1, 0.2):
            beta_star = selfish_dominance_threshold(alpha, eps)
            if 0.0 < beta_star < 1.0:
                interior += 1
                assert selfish_profit(alpha, beta_star, eps) == pytest.approx(alpha, abs=1e-9)
            else:
                assert beta_star <= 0.0
                assert selfish_profit(alpha, 1e-9, eps) < alpha
    assert interior >= 14
    # the puzzle diversion pays exactly honest when the reward hits alpha/d
    for alpha, d in ((0.4, 10.0), (0.3, 5.0), (0.2, 2.0)):
        for k in (1, 100, 2016):
            assert distraction_profit(alpha, alpha / d, d, k) == pytest.approx(alpha, abs=1e-12)
    _ok(7, "bounty, withholding and diversion boundaries all pay exactly honest at their thresholds")


def test_criterion_08_attack_ordering_at_small_share(merged):
    pools = merged.with_adversary("Unknown")
    a = pools.adversary_share
    assert a == pytest.approx(0.07902, abs=1e-9)
    partition = TargetPartition.auto(pools, 0.0)
    br = bribery_reward_share(pools, partition, 0.0)
    uc = undercut_reward_share(pools, partition, 0.0)
    md = solve_reward_share(build_mdp(pools, AttackParams(), fork_cap=8)).reward_share
    assert br > uc > md > a
    # derived artifacts: frozen from this deterministic configuration
    assert br == pytest.approx(0.0840814, abs=1e-6)
    assert uc == pytest.approx(0.0794679, abs=1e-6)
    assert md == pytest.approx(0.0794387, abs=1e-5)
    _ok(8, f"bribery {br:.5f} > undercut {uc:.5f} > withholding {md:.5f} > honest {a:.5f}")


def test_criterion_09_profit_lag_shape(merged):
    replicas = 32
    L = EpochModel().blocks_per_epoch

    def lag_curve(name, strategy):
        pools = merged.with_adversary(name)
        cfg = SimConfig(pools=pools, strategy=strategy, params=AttackParams(), horizon=20, seed=SEED)
        tr = revenue_advantage_trajectory(cfg, replicas=replicas)
        a = pools.adversary_share
        # binomial scale of the averaged curve at the end of epoch one; the
        # first 2% of the epoch is single-block launch jitter and is skipped
        band = 3.0 * math.sqrt(a * (1.0 - a) * L / replicas)
        pts = tr.points
        ep1 = pts[pts[:, 0] <= tr.first_epoch_duration]
        body = ep1[ep1[:, 0] > 0.02 * tr.first_epoch_duration]
        assert body[:, 1].max() <= band, name
        assert tr.zero_crossing_time is not None, name
        assert tr.zero_crossing_time <= pts[-1, 0], name
        return tr

    tr = lag_curve("Foundry USA", "pi_selfish")
    assert tr.first_epoch_min < -1.0
    assert tr.zero_crossing_time > 0.9 * tr.first_epoch_duration
    assert tr.final_advantage > 0.0

    checked = strong = 0
    for pool in sorted(merged.pools, key=lambda p: -p.share):
        pools = merged.with_adversary(pool.name)
        partition = TargetPartition.auto(pools, 0.0)
        if not partition.targets:
            # nothing is cheap enough to bribe: the chain is exactly honest
            # and there is no lag to observe
            assert bribery_reward_share(pools, partition) == pools.adversary_share
            continue
        tr = lag_curve(pool.name, "bribery")
        checked += 1
        uplift = bribery_reward_share(pools, partition) - pools.adversary_share
        if uplift * L >= SIGNAL_FLOOR:
            strong += 1
            assert tr.first_epoch_min < -1.0, pool.name
            assert tr.zero_crossing_time > 0.9 * tr.first_epoch_duration, pool.name
            assert tr.final_advantage > 0.0, pool.name
    assert checked == 8 and strong >= 6
    _ok(9, f"withholding and {checked} bribery curves lag through epoch 1 and recover within 20 epochs "
           f"({strong} with noise-resolvable shape)")


def test_criterion_10_distraction_frontier():
    alpha_a, br2, eps = 0.4, 0.04, 0.02
    sweep5 = delta_sweep(alpha_a, br2, eps, 5.0)
    assert len(sweep5) == 30
    assert min(v for _, v in sweep5) >= eps
    sweep2 = delta_sweep(alpha_a, br2, eps, 2.0)
    failing = [ai for ai, v in sweep2 if v < eps]
    assert failing
    # the bribe that keeps solvers honest always exceeds what the attacker
    # can profitably pay, across the whole parameter box
    for d in (1.0, 1.5, 2.0, 5.0, 10.0, 20.0):
        for e in (0.0, 0.02, 0.2):
            for a in np.arange(0.05, 0.96, 0.05):
                assert lying_bribe_bound(d, e) > distraction_profit_bound(float(a), d)
    _ok(10, f"full frontier at ratio 5 (min gap {min(v for _, v in sweep5):.4f}), "
            f"{len(failing)} grid points fail at ratio 2; lying bound strictly above profit bound")


def test_criterion_11_dam_power_accounting_mitigation(merged):
    cfg = SimConfig(
        pools=merged.with_adversary("Foundry USA"),
        strategy="pi_selfish",
        dam_mode="active_power",
        horizon=12,
        seed=SEED,
    )
    runs = simulate_many(cfg, replicas=32)
    rates = np.array([s.revenue_advantage[-1, 1] / s.revenue_advantage[-1, 0] for s in runs])
    mean = float(rates.mean())
    sem = float(rates.std(ddof=1) / math.sqrt(len(rates)))
    assert mean <= 3.0 * sem
    _ok(11, f"orphan-counting difficulty keeps withholding at {mean:+.5f}/time vs honest (3 sigma {3 * sem:.5f})")

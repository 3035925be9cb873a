"""The benchmark's workloads: inputs drawn from the seed, the ops, their checks.

A workload's `setup(seed, scratch)` loads the bundled snapshot (every set-up
does, so `setup_s` covers the load) and returns its ops.  An op is a
callable that returns one `Check` per result it produced.  Ops run in order
and may use what an earlier op left in the workload's shared state (the
solved 4-pool policy, for instance).  No op passes a thread count: every
call runs on the library's single-threaded default.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from powplay import bribery, cli, distraction, experiments, mdp, model, randomwalk, selfish, sim

#: acceptance tolerance for a Monte Carlo share against its closed form or
#: solved share.  At the sizes below the measured standard error is at most
#: 5.6e-4 (the 4-pool policy at 5e6 transitions) and 2.5e-4 (the random pool
#: sets at 8e6), so the bound is at least 9 of them.
SHARE_TOL = 0.005
#: Monte Carlo occupancy against the closed-form chain, as in the unit tests;
#: the measured standard error at 2e6 events is at most 2.6e-4.
OCCUPANCY_TOL = 2e-3
#: z-score bound for the checks whose tolerance is a standard error.
Z = 5.0

#: withholding shares of `powplay reproduce fig3` (merged 2024 snapshot, fork
#: cap 6), and the bribery and undercut closed forms of the same rows.
FIG3_FROZEN = {
    "SBI Crypto": (0.021010000000000004, 0.021010000000000004, 0.021010250060558316),
    "Binance Pool": (0.030182891681845014, 0.03000566997078259, 0.030005953311920165),
    "Mara Pool": (0.034776520845430633, 0.03439419990391546, 0.03439519234180451),
    "others": (0.054760811676417206, 0.052995881220746575, 0.05299368931531906),
    "Unknown": (0.08408140477527759, 0.07946789036030846, 0.07943866453647612),
    "F2Pool": (0.12668121064042337, 0.11686414510784, 0.11667166308641434),
    "ViaBTC": (0.14299501744597162, 0.1309857096264388, 0.13060191058635712),
    "AntPool": (0.2940576265182344, 0.26907202158153143, 0.2966972863101959),
    "Foundry USA": (0.3410282555831816, 0.32795456769162407, 0.3758644532513618),
}
#: withholding share of `powplay reproduce table2 --rows 3` (fork cap 8).
TABLE2_ROW3_FROZEN = 0.5967594146728517
SOLVER_TOL = 1e-5
CLOSED_FORM_TOL = 1e-9


@dataclass(frozen=True)
class Check:
    label: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class Op:
    name: str
    expect: int  # checks a successful run of the op yields
    run: Callable[[], list[Check]]


def _close(label: str, got: float, want: float, tol: float) -> Check:
    return Check(label, abs(got - want) <= tol, f"got {got:.7f} want {want:.7f} tol {tol:g}")


def load_snapshot() -> model.PoolSet:
    return model.load_pool_file(model.bundled_pool_file(model.BITCOIN_POOLS_MERGED))


# -- solver workloads ---------------------------------------------------------------


def _reproduce(argv: list[str], out: Path) -> experiments.Artifact:
    """Run `powplay reproduce` in process and read its CSV back."""
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        code = cli.main(["reproduce", *argv, "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"powplay exited {code}: {captured.getvalue().strip()}")
    return experiments.read_artifact(out)


def _seed_check(art: experiments.Artifact, seed: int) -> None:
    if art.meta.get("seed") != str(seed):
        raise RuntimeError(f"artifact seed {art.meta.get('seed')!r}, expected {seed}")


def solver_snapshot(seed: int, scratch: Path) -> list[Op]:
    load_snapshot()

    def fig3() -> list[Check]:
        art = _reproduce(["fig3", "--seed", str(seed)], scratch / "fig3.csv")
        _seed_check(art, seed)
        checks = []
        for name, _, bribe, undercut, withhold in art.rows:
            want = FIG3_FROZEN[name]
            parts = [
                _close("bribery", bribe, want[0], CLOSED_FORM_TOL),
                _close("undercut", undercut, want[1], CLOSED_FORM_TOL),
                _close("withholding", withhold, want[2], SOLVER_TOL),
            ]
            bad = [f"{c.label} {c.detail}" for c in parts if not c.ok]
            checks.append(Check(f"fig3 {name}", not bad, "; ".join(bad) or parts[2].detail))
        return checks

    return [Op("fig3", len(FIG3_FROZEN), fig3)]


def solver_symmetric(seed: int, scratch: Path) -> list[Op]:
    load_snapshot()

    def table2_row3() -> list[Check]:
        art = _reproduce(["table2", "--rows", "3", "--seed", str(seed)], scratch / "table2.csv")
        _seed_check(art, seed)
        return [
            _close(f"table2 row {row[0]}", row[art.columns.index("reward_share")], TABLE2_ROW3_FROZEN, SOLVER_TOL)
            for row in art.rows
        ]

    return [Op("table2_row3", 1, table2_row3)]


# -- Monte Carlo cross-checks -------------------------------------------------------

MC_TRANSITIONS = 8_000_000
#: rival count of each random pool set; fixed so every seed does the same work
#: (a lockstep step costs more the more winners it draws between)
MC_RIVALS = (3, 5)
SMALL_FORK_CAP = 8  # a 4-pool model at this cap has about 2k states
SMALL_TRANSITIONS = 5_000_000
OCCUPANCY_EVENTS = 2_000_000
TRAJECTORY_REPLICAS = 16
TRAJECTORY_EPOCHS = 8
ACTIVE_POWER_REPLICAS = 24
ACTIVE_POWER_EPOCHS = 12
WALKS = 200_000
WALK_CASES = ((1.0 / 3.0, 1), (0.3, 2), (0.45, 3))
#: minimum closed-form uplift, in block rewards per epoch, for a profit-lag
#: curve to be held to the full lag-and-recovery shape (as in the acceptance
#: suite); Foundry USA clears it by two orders of magnitude.
SIGNAL_FLOOR = 1.0


def _random_pool_set(rng: np.random.Generator, n: int) -> tuple[model.PoolSet, float]:
    """A pool set and sweetener drawn as the closed-form acceptance check draws them."""
    alpha = float(rng.uniform(0.12, 0.42))
    eps = float(rng.uniform(0.0, 0.15))
    rivals = tuple(float(v) for v in (1.0 - alpha) * rng.dirichlet(np.ones(n)))
    return model.PoolSet.from_shares(alpha, rivals), eps


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31))


def _closed_form(strategy: str, pools: model.PoolSet, eps: float) -> float:
    a = pools.adversary_share
    if strategy == "pi_selfish":
        return selfish.selfish_profit(a, model.residual_centralization_factor(pools), eps)
    partition = bribery.TargetPartition.auto(pools, eps)
    if strategy == "bribery":
        return bribery.bribery_reward_share(pools, partition, eps)
    return bribery.undercut_reward_share(pools, partition, eps)


def _lag_checks(label: str, tr: sim.TrajectoryResult, pools: model.PoolSet, uplift: float) -> list[Check]:
    """The acceptance suite's profit-lag shape, its noise band widened to Z sigma."""
    L = model.EpochModel().blocks_per_epoch
    a = pools.adversary_share
    band = Z * math.sqrt(a * (1.0 - a) * L / tr.replicas)
    pts = tr.points
    ep1 = pts[pts[:, 0] <= tr.first_epoch_duration]
    body = ep1[ep1[:, 0] > 0.02 * tr.first_epoch_duration]
    problems = []
    if body[:, 1].max() > band:
        problems.append(f"epoch-1 advantage {body[:, 1].max():.2f} above band {band:.2f}")
    if tr.zero_crossing_time is None:
        problems.append("curve never recovers")
    if uplift * L >= SIGNAL_FLOOR:
        if tr.first_epoch_min >= -1.0:
            problems.append(f"no epoch-1 loss (min {tr.first_epoch_min:.2f})")
        if tr.zero_crossing_time is not None and tr.zero_crossing_time <= 0.9 * tr.first_epoch_duration:
            problems.append("recovers before the first retarget")
        if tr.final_advantage <= 0.0:
            problems.append(f"final advantage {tr.final_advantage:.2f} not positive")
    detail = "; ".join(problems) or (
        f"min {tr.first_epoch_min:.1f}, recovery at {tr.zero_crossing_time:.0f}, final {tr.final_advantage:.1f}"
    )
    return [Check(label, not problems, detail)]


def mc_crosscheck(seed: int, scratch: Path) -> list[Op]:
    rng = np.random.default_rng(seed)
    snapshot = load_snapshot()
    foundry = snapshot.with_adversary("Foundry USA")
    ops: list[Op] = []

    # lockstep engine against the closed forms, criterion-06 style
    for k, rivals in enumerate(MC_RIVALS):
        pools, eps = _random_pool_set(rng, rivals)
        for strategy in ("pi_selfish", "bribery", "undercut"):
            cfg = sim.SimConfig(
                pools=pools, strategy=strategy, params=model.AttackParams(epsilon=eps), seed=_seed(rng)
            )

            def lockstep(cfg=cfg, label=f"mc {strategy} set {k}") -> list[Check]:
                got = sim.reward_share_mc(cfg, transitions=MC_TRANSITIONS).adversary_reward_share
                want = _closed_form(cfg.strategy, cfg.pools, cfg.params.epsilon)
                return [_close(label, got, want, SHARE_TOL)]

            ops.append(Op(f"mc_{strategy}_{k}", 1, lockstep))

    # a small solved 4-pool model, then two Monte Carlo executions of its policy
    alpha = float(rng.uniform(0.3, 0.4))
    small = model.PoolSet.from_shares(alpha, tuple((1.0 - alpha) * rng.dirichlet(np.ones(3))))
    small_params = model.AttackParams(epsilon=float(rng.uniform(0.0, 0.1)))
    rollout_seed, policy_mc_seed = _seed(rng), _seed(rng)
    solved: dict = {}

    def solve_small() -> list[Check]:
        m = mdp.build_mdp(small, small_params, fork_cap=SMALL_FORK_CAP)
        res = mdp.solve_reward_share(m)
        solved.update(model=m, result=res)
        ok = small.adversary_share - 1e-9 <= res.reward_share <= 1.0
        return [Check("4-pool solve", ok, f"share {res.reward_share:.7f}, {m.state_count} states")]

    def rollout() -> list[Check]:
        res = solved["result"]
        stats = mdp.policy_rollout(solved["model"], res.policy, seed=rollout_seed, horizon=SMALL_TRANSITIONS)
        return [_close("4-pool rollout", stats.adversary_reward_share, res.reward_share, SHARE_TOL)]

    def policy_mc() -> list[Check]:
        res = solved["result"]
        cfg = sim.SimConfig(
            pools=small,
            strategy="mdp_policy",
            params=small_params,
            fork_cap=SMALL_FORK_CAP,
            policy=res.policy,
            seed=policy_mc_seed,
        )
        got = sim.reward_share_mc(cfg, transitions=SMALL_TRANSITIONS).adversary_reward_share
        return [_close("4-pool lockstep", got, res.reward_share, SHARE_TOL)]

    ops += [Op("solve_4pool", 1, solve_small), Op("rollout_4pool", 1, rollout), Op("mc_4pool", 1, policy_mc)]

    # distraction occupancy against the closed-form chain
    split = distraction.PowerSplit(0.4, 0.1, 0.3, 0.2)
    dparams = distraction.DistractionParams(split, 5.0, 0.04, 0.02)
    for choice in ("mini_pow", "bitcoin"):

        def occupancy(choice=choice, occ_seed=_seed(rng)) -> list[Check]:
            got = sim.distraction_occupancy_mc(dparams, choice, events=OCCUPANCY_EVENTS, seed=occ_seed)
            want = distraction.scenario_rates(split, dparams.d_ratio, choice).occupancy()
            gap = float(np.abs(got - want).max())
            return [Check(f"occupancy {choice}", gap <= OCCUPANCY_TOL, f"max gap {gap:.5f}")]

        ops.append(Op(f"occupancy_{choice}", 1, occupancy))

    # sequential engine: profit-lag curves, criterion-09 style
    for strategy in ("pi_selfish", "bribery"):
        cfg = sim.SimConfig(
            pools=foundry, strategy=strategy, horizon=TRAJECTORY_EPOCHS, seed=_seed(rng)
        )

        def trajectory(cfg=cfg) -> list[Check]:
            tr = sim.revenue_advantage_trajectory(cfg, replicas=TRAJECTORY_REPLICAS)
            uplift = _closed_form(cfg.strategy, cfg.pools, 0.0) - cfg.pools.adversary_share
            return _lag_checks(f"lag {cfg.strategy}", tr, cfg.pools, uplift)

        ops.append(Op(f"trajectory_{strategy}", 1, trajectory))

    # sequential engine under orphan-counting difficulty, criterion-11 style
    active = sim.SimConfig(
        pools=foundry,
        strategy="pi_selfish",
        dam_mode="active_power",
        horizon=ACTIVE_POWER_EPOCHS,
        seed=_seed(rng),
    )

    def active_power() -> list[Check]:
        runs = sim.simulate_many(active, replicas=ACTIVE_POWER_REPLICAS)
        rates = np.array([s.revenue_advantage[-1, 1] / s.revenue_advantage[-1, 0] for s in runs])
        mean = float(rates.mean())
        sem = float(rates.std(ddof=1) / math.sqrt(rates.size))
        return [Check("active_power", mean <= Z * sem, f"mean rate {mean:+.5f}, sem {sem:.5f}")]

    ops.append(Op("active_power", 1, active_power))

    # fork-race random walks against the exact never-reach probability
    for share, r in WALK_CASES:

        def walk(share=share, r=r, walk_seed=_seed(rng)) -> list[Check]:
            p = randomwalk.prob_never_reach(share, r)
            est = randomwalk.walk_never_reach_mc(share, r, walks=WALKS, seed=walk_seed)
            sigma = math.sqrt(max(p * (1.0 - p), 1e-12) / WALKS)
            return [_close(f"walk {share:.3f} r={r}", est, p, Z * sigma)]

        ops.append(Op(f"walk_r{r}", 1, walk))
    return ops


WORKLOADS = {
    "solver_snapshot": solver_snapshot,
    "solver_symmetric": solver_symmetric,
    "mc_crosscheck": mc_crosscheck,
}

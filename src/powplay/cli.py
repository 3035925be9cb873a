"""Command-line surface: every analysis in the package as `powplay <cmd>`.

All commands funnel their results through an Artifact, so every CSV this
tool writes carries `# key: value` metadata naming the parameters behind it
(fork_cap, seed, tolerance, ...), and every write is round-trip checked.
Without --out the artifact goes to stdout in the chosen --format; verdict
commands additionally carry a human-readable line in the metadata.

Exit codes: 0 success, 1 bad input (including usage errors), 2 a solver
failed to converge or a reproduced value missed its declared tolerance,
3 file I/O trouble.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bribery import TargetPartition, bribery_reward_share, undercut_reward_share
from .distraction import (
    DistractionParams,
    PowerSplit,
    default_deciding_grid,
    delta_sweep,
    min_difficulty_ratio,
)
from .errors import ConvergenceError, ValidationError, require_positive_finite
from .experiments import (
    EXPERIMENT_KINDS,
    Artifact,
    ExperimentSpec,
    _downsample,
    artifact_meta,
    emit_artifact,
    render_csv,
    render_json,
    run_experiment,
)
from .mdp import build_mdp, solve_reward_share
from .model import AttackParams, EpochModel, PoolSet, load_pool_file, parse_pool_entries
from .randomwalk import abandon_threshold
from .selfish import is_selfish_dominant, selfish_dominance_threshold
from .sim import DEFAULT_SEED, SimConfig, revenue_advantage_trajectory, simulate


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as validation failures.

    Stock argparse exits with status 2 on a bad flag; here 2 is reserved for
    solver trouble, so usage errors are rethrown as ValidationError and
    surface as exit 1 like every other bad input.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValidationError(message)


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part != "")
    except ValueError:
        raise ValidationError(f"expected a comma-separated list of integers, got {text!r}")


def _seed(text: str) -> int:
    try:
        return int(text, 0)  # accepts both 1234 and 0xC0FFEE
    except ValueError:
        raise ValidationError(f"seed must be an integer, got {text!r}")


def _common() -> _Parser:
    p = _Parser(add_help=False)
    g = p.add_argument_group("output")
    g.add_argument("--out", type=Path, metavar="FILE", help="write the artifact here")
    g.add_argument("--svg", type=Path, metavar="FILE", help="also draw it as a line chart")
    g.add_argument(
        "--seed",
        type=_seed,
        default=DEFAULT_SEED,
        help="seed for randomized commands (default 0xC0FFEE)",
    )
    g.add_argument(
        "--format",
        dest="fmt",
        choices=("csv", "json"),
        default="csv",
        help="artifact format for --out and stdout",
    )
    return p


def _load_pools(args) -> PoolSet:
    return load_pool_file(args.pools, adversary=args.adversary)


def _partition(pools: PoolSet, spec: str, epsilon: float) -> TargetPartition:
    if spec == "auto":
        return TargetPartition.auto(pools, epsilon)
    idx = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        idx.append(int(part) if part.lstrip("-").isdigit() else pools.index_of(part))
    return TargetPartition(pools, tuple(idx))


# -- subcommand handlers -------------------------------------------------------
# each returns an Artifact for the shared delivery path, or None after
# handling its own output (mdp solve, whose contract is a JSON object)


def _cmd_reproduce(args):
    overrides = {}
    for name in ("fork_cap", "tol", "rows", "epochs", "replicas", "epsilon", "points", "adversary", "step", "dam_mode"):
        value = getattr(args, name)
        if value is not None:
            overrides[name] = value
    if args.pool_file is not None:
        overrides["pool_file"] = str(args.pool_file)
    return run_experiment(ExperimentSpec(args.kind, overrides=overrides, seed=args.seed))


def _cmd_selfish_threshold(args):
    thr = selfish_dominance_threshold(args.alpha, args.epsilon)
    verdict = (
        f"withholding beats honest mining for a {args.alpha:g} attacker against "
        f"any rival mix with residual centralization factor below {thr:.6f}"
    )
    meta = artifact_meta("selfish_threshold", args.seed, alpha=args.alpha, epsilon=args.epsilon, verdict=verdict)
    return Artifact(
        "selfish_threshold",
        meta,
        ("alpha", "epsilon", "residual_factor_threshold"),
        [(args.alpha, args.epsilon, thr)],
    )


def _cmd_selfish_dominant(args):
    pools = _load_pools(args)
    verdict = is_selfish_dominant(pools, AttackParams(epsilon=args.epsilon))
    line = (
        f"withholding beats honest mining for {args.adversary!r} "
        if verdict.dominant
        else f"honest mining beats withholding for {args.adversary!r} "
    ) + f"(threshold {verdict.threshold:.6f}, residual factor {verdict.residual_factor:.6f})"
    if not verdict.assumptions_ok:
        line += " [a rival pool is large enough to fight back; verdict is outside its assumptions]"
    meta = artifact_meta("selfish_dominant", args.seed, pools=str(args.pools), adversary=args.adversary, verdict=line)
    columns = ("adversary", "adversary_share", "epsilon", "residual_factor", "threshold", "margin", "dominant")
    row = (
        args.adversary,
        pools.adversary_share,
        args.epsilon,
        verdict.residual_factor,
        verdict.threshold,
        verdict.margin,
        int(verdict.dominant),
    )
    return Artifact("selfish_dominant", meta, columns, [row])


def _share_artifact(args, attack: str, fn) -> Artifact:
    pools = _load_pools(args)
    partition = _partition(pools, args.targets, args.epsilon)
    share = fn(pools, partition, args.epsilon)
    honest = pools.adversary_share
    target_names = ", ".join(pools.pools[i].name for i in partition.targets) or "none"
    verdict = (
        f"{attack} moves {args.adversary!r} from reward share {honest:.4f} to "
        f"{share:.4f} ({share - honest:+.4f}) against targets: {target_names}"
    )
    meta = artifact_meta(
        f"{attack}_share", args.seed,
        pools=str(args.pools),
        adversary=args.adversary,
        epsilon=args.epsilon,
        targets=args.targets,
        combined_target_share=f"{partition.b:.5f}",
        verdict=verdict,
    )
    columns = ("adversary_share", "attack", "reward_share", "delta_vs_honest")
    return Artifact(f"{attack}_share", meta, columns, [(honest, attack, share, share - honest)])


def _cmd_bribery_share(args):
    return _share_artifact(args, "bribery", bribery_reward_share)


def _cmd_undercut_share(args):
    return _share_artifact(args, "undercut", undercut_reward_share)


def _cmd_mdp_solve(args):
    if args.svg is not None:
        raise ValidationError("mdp solve emits a JSON object; there is no curve to draw")
    pools = _load_pools(args)
    params = AttackParams(epsilon=args.epsilon, max_bribe=args.max_bribe)
    model = build_mdp(pools, params, fork_cap=args.fork_cap)
    result = solve_reward_share(model, tol=args.tol)
    doc = {
        "reward_share": result.reward_share,
        "iterations": result.iterations,
        "sweeps_per_step": result.sweeps_per_step,
        "stationary_per_step": result.stationary_per_step,
        "state_count": model.state_count,
        "action_slots": model.slot_row.size,
        "edge_count": model.slot_row.size * model.topology.winners.size,
        "slot_rows": model.row_slot.size,
    }
    text = json.dumps(doc, indent=2) + "\n"
    if args.out is not None:
        Path(args.out).write_text(text)
        print(f"wrote solver result -> {args.out}")
    else:
        sys.stdout.write(text)
    if args.policy_csv is not None:
        names = np.array(["wait", "adopt", "override"] + [f"match:{i}" for i in range(model.max_bribe + 1)])
        m = len(model.shares)  # a row is (fork[0..m-1], lbar, a, match_active, level)
        labels = [str((tuple(r[:m]), r[m], r[m + 1], bool(r[m + 2]), r[m + 3])) for r in model.states.tolist()]
        rows = list(zip(labels, names[model.actions[result.policy]].tolist()))
        meta = artifact_meta(
            "mdp_policy", "n/a (deterministic solver)", args.fork_cap, args.tol,
            pools=str(args.pools),
            adversary=args.adversary,
            epsilon=args.epsilon,
            max_bribe=args.max_bribe,
            reward_share=result.reward_share,
        )
        emit_artifact(Artifact("mdp_policy", meta, ("state", "action"), rows), out=args.policy_csv)
        print(f"wrote {len(rows)} policy rows -> {args.policy_csv}")
    return None


_SIM_KEYS = {
    "pools",
    "adversary",
    "strategy",
    "epsilon",
    "max_bribe",
    "targets",
    "horizon",
    "horizon_unit",
    "seed",
    "dam_mode",
    "fork_cap",
    "epoch",
    "distraction",
    "puzzle_choice",
    "collect_trajectory",
}


def _pools_from_config(raw: dict, base_dir: Path) -> PoolSet | None:
    spec = raw.get("pools")
    if spec is None:
        return None
    if isinstance(spec, str):
        path = Path(spec)
        if not path.is_absolute():
            path = base_dir / path
        return load_pool_file(path, adversary=raw.get("adversary"))
    if isinstance(spec, list):
        return parse_pool_entries(spec, "inline pools", raw.get("adversary"))
    raise ValidationError("'pools' must be a file path or an inline pool list")


def _number(path: Path, key: str, value, integer: bool = False):
    """A config value that must be a JSON number (an integer if asked), not a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        what = "an integer" if integer else "a number"
        raise ValidationError(f"{path}: {key!r} must be {what}, got {value!r}")
    return value


def _object(path: Path, key: str, value, allowed: set) -> dict:
    """A config value that must be a JSON object holding only the allowed keys."""
    if not isinstance(value, dict):
        raise ValidationError(f"{path}: {key!r} must be an object")
    extra = set(value) - allowed
    if extra:
        raise ValidationError(f"{path}: unknown {key} keys {sorted(extra)}")
    return value


def _sim_config_from_file(path: Path, default_seed: int) -> SimConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise ValidationError(f"{path}: not valid JSON ({e})")
    if not isinstance(raw, dict):
        raise ValidationError(f"{path}: expected a JSON object")
    unknown = set(raw) - _SIM_KEYS
    if unknown:
        raise ValidationError(f"{path}: unknown config keys {sorted(unknown)}")
    kwargs = {"pools": _pools_from_config(raw, Path(path).resolve().parent), "seed": default_seed}
    for name, kind, what in (
        ("strategy", str, "a string"),
        ("horizon_unit", str, "a string"),
        ("dam_mode", str, "a string"),
        ("puzzle_choice", str, "a string"),
        ("collect_trajectory", bool, "true or false"),
    ):
        if name in raw:
            if not isinstance(raw[name], kind):
                raise ValidationError(f"{path}: {name!r} must be {what}, got {raw[name]!r}")
            kwargs[name] = raw[name]
    for name in ("horizon", "seed", "fork_cap"):
        if name in raw:
            kwargs[name] = _number(path, name, raw[name], integer=True)
    params = {}
    for name, integer in (("epsilon", False), ("max_bribe", True)):
        if name in raw:
            params[name] = _number(path, name, raw[name], integer)
    if params:
        kwargs["params"] = AttackParams(**params)
    if raw.get("targets") is not None:
        if not isinstance(raw["targets"], list):
            raise ValidationError(f"{path}: 'targets' must be a list of pool indices")
        kwargs["targets"] = tuple(_number(path, "targets", t, integer=True) for t in raw["targets"])
    if "epoch" in raw:
        epoch = _object(path, "epoch", raw["epoch"], {"blocks_per_epoch", "block_rate", "block_reward"})
        kwargs["epoch"] = EpochModel(
            **{k: _number(path, f"epoch.{k}", v, integer=k == "blocks_per_epoch") for k, v in epoch.items()}
        )
    if "distraction" in raw:
        defaults = {"alpha_a": 0.0, "alpha_i": 0.0, "alpha_c": 0.0, "alpha_nc": 0.0, "d_ratio": 1.0, "br2": 0.0, "br3": 0.0}
        d = _object(path, "distraction", raw["distraction"], set(defaults))
        v = {k: float(_number(path, f"distraction.{k}", d.get(k, default))) for k, default in defaults.items()}
        kwargs["distraction"] = DistractionParams(
            split=PowerSplit(alpha_a=v["alpha_a"], alpha_i=v["alpha_i"], alpha_c=v["alpha_c"], alpha_nc=v["alpha_nc"]),
            d_ratio=v["d_ratio"],
            br2=v["br2"],
            br3=v["br3"],
        )
    return SimConfig(**kwargs)


def _cmd_sim_run(args):
    cfg = _sim_config_from_file(args.config, args.seed)
    stats = simulate(cfg)
    if len(stats.revenue_advantage):
        total_time = float(stats.revenue_advantage[-1, 0])
        final_advantage = float(stats.revenue_advantage[-1, 1])
    else:
        total_time = float("nan")
        final_advantage = float("nan")
    meta = artifact_meta(
        "sim_run",
        cfg.seed,  # the config file wins over --seed when it sets one
        cfg.fork_cap,
        config=str(args.config),
        strategy=cfg.strategy,
        dam_mode=cfg.dam_mode,
        horizon=f"{cfg.horizon} {cfg.horizon_unit}",
    )
    columns = (
        "strategy",
        "adversary_reward_share",
        "orphan_count",
        "epochs_completed",
        "total_time",
        "final_advantage",
        "rng_draws",
    )
    row = (
        cfg.strategy,
        stats.adversary_reward_share,
        stats.orphan_count,
        len(stats.epoch_durations),
        total_time,
        final_advantage,
        stats.rng_draws,
    )
    return Artifact("sim_run", meta, columns, [row])


def _cmd_sim_profit_lag(args):
    pools = _load_pools(args)
    strategy = {"selfish": "pi_selfish", "bribery": "bribery"}[args.attack]
    cfg = SimConfig(
        pools=pools,
        strategy=strategy,
        params=AttackParams(epsilon=args.epsilon),
        horizon=args.epochs,
        seed=args.seed,
        dam_mode=args.dam_mode,
    )
    traj = revenue_advantage_trajectory(cfg, replicas=args.replicas)
    points = _downsample(traj.points, args.points)
    meta = artifact_meta(
        "profit_lag", args.seed,
        attack=args.attack,
        pools=str(args.pools),
        adversary=args.adversary,
        epsilon=args.epsilon,
        epochs=args.epochs,
        replicas=args.replicas,
        dam_mode=args.dam_mode,
        first_epoch_min=f"{traj.first_epoch_min:.4f}",
        first_epoch_duration=f"{traj.first_epoch_duration:.1f}",
        zero_crossing="never" if traj.zero_crossing_time is None else f"{traj.zero_crossing_time:.1f}",
    )
    rows = [(float(t), float(v)) for t, v in points]
    return Artifact("profit_lag", meta, ("time", "cumulative_advantage"), rows)


def _cmd_walk_threshold(args):
    thr = abandon_threshold(args.d, tol=args.tol)
    verdict = (
        f"chasing a fork {args.d} blocks behind pays only for a pool with "
        f"share above {thr:.4f}"
    )
    meta = artifact_meta("walk_threshold", args.seed, tolerance=args.tol, verdict=verdict)
    return Artifact("walk_threshold", meta, ("d", "abandon_threshold"), [(args.d, thr)])


def _parse_grid(spec: str | None, alpha_a: float) -> np.ndarray:
    if spec is None:
        return default_deciding_grid(alpha_a)
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValidationError(f"grid must look like lo:hi:step, got {spec!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise ValidationError(f"grid must be three numbers lo:hi:step, got {spec!r}")
    if not (0 < lo <= hi and 0 < step < np.inf):
        raise ValidationError("grid needs 0 < lo <= hi and a finite step > 0")
    if hi > 1.0 - alpha_a:
        raise ValidationError(
            f"grid reaches {hi:g} but the attacker leaves only {1.0 - alpha_a:g} to share"
        )
    return np.arange(lo, hi + step / 2, step)


def _cmd_distraction_delta(args):
    grid = _parse_grid(args.grid, args.alpha_a)
    rows = delta_sweep(args.alpha_a, args.br2, args.epsilon, args.d, grid, args.alpha_nc)
    failing = [(ai, v) for ai, v in rows if v < args.epsilon]
    if failing:
        worst = min(failing, key=lambda r: r[1])
        verdict = (
            f"the puzzle loses to chain mining for {len(failing)} of {len(rows)} "
            f"deciding shares (worst gap {worst[1]:+.4f} at share {worst[0]:g})"
        )
    else:
        verdict = f"the puzzle dominates chain mining for every deciding share on the grid ({len(rows)} points)"
    meta = artifact_meta(
        "distraction_delta", args.seed,
        alpha_a=args.alpha_a,
        br2=args.br2,
        epsilon=args.epsilon,
        d_ratio=args.d,
        alpha_nc=args.alpha_nc,
        grid=args.grid or f"default up to {grid[-1]:g}",
        pass_criterion="delta >= epsilon",
        verdict=verdict,
    )
    return Artifact("distraction_delta", meta, ("alpha_i", "delta"), [(ai, v) for ai, v in rows])


def _cmd_distraction_min_d(args):
    grid = _parse_grid(args.grid, args.alpha_a)
    ratio = min_difficulty_ratio(args.alpha_a, args.br2, args.epsilon, grid)
    verdict = (
        f"a puzzle {ratio:.4f}x easier than the chain is the cheapest one that "
        f"distracts every deciding share on the grid"
    )
    meta = artifact_meta(
        "distraction_min_d", args.seed,
        grid=args.grid or f"default up to {grid[-1]:g}",
        verdict=verdict,
    )
    columns = ("alpha_a", "br2", "epsilon", "min_difficulty_ratio")
    return Artifact("distraction_min_d", meta, columns, [(args.alpha_a, args.br2, args.epsilon, ratio)])


# -- parser assembly ------------------------------------------------------------


def build_parser() -> _Parser:
    common = _common()
    p = _Parser(prog="powplay", description="mining-attack incentive analyses, tables and simulations")
    p.add_argument("--version", action="version", version=f"powplay {__version__}")
    sub = p.add_subparsers(dest="command", required=True, metavar="command")

    rep = sub.add_parser(
        "reproduce",
        parents=[common],
        help="regenerate a result table or curve family",
        description="Regenerate one of the packaged result sets as a self-describing artifact.",
    )
    rep.add_argument("kind", choices=EXPERIMENT_KINDS)
    rep.add_argument("--fork-cap", dest="fork_cap", type=int, help="fork-race state cap for solver kinds")
    rep.add_argument("--tol", type=float, help="solver stopping tolerance on the share")
    rep.add_argument("--rows", type=_int_list, help="run only these row indices, e.g. 0,2")
    rep.add_argument("--epochs", type=int, help="difficulty epochs for curve kinds")
    rep.add_argument("--replicas", type=int, help="averaged runs per curve")
    rep.add_argument("--epsilon", type=float, help="sweetener override where the kind takes one")
    rep.add_argument("--points", type=int, help="points kept per curve (default 400, 0 = keep all)")
    rep.add_argument("--adversary", help="attacking pool for single-curve kinds")
    rep.add_argument("--step", type=float, help="grid step for the frontier kind")
    rep.add_argument("--dam-mode", dest="dam_mode", choices=("canonical_only", "active_power"))
    rep.add_argument("--pool-file", dest="pool_file", type=Path, help="pool snapshot to attack")
    rep.set_defaults(func=_cmd_reproduce)

    sf = sub.add_parser("selfish", help="withholding-vs-honest comparisons")
    sfsub = sf.add_subparsers(dest="action", required=True, metavar="action")
    sft = sfsub.add_parser("threshold", parents=[common], help="dominance threshold for one attacker share")
    sft.add_argument("--alpha", type=float, required=True, help="attacker's power share")
    sft.add_argument("--epsilon", type=float, default=0.0, help="bribe sweetener")
    sft.set_defaults(func=_cmd_selfish_threshold)
    sfd = sfsub.add_parser("dominant", parents=[common], help="verdict for a named pool in a snapshot")
    sfd.add_argument("--pools", type=Path, required=True, help="pool snapshot JSON")
    sfd.add_argument("--adversary", required=True, help="attacking pool name")
    sfd.add_argument("--epsilon", type=float, default=0.0)
    sfd.set_defaults(func=_cmd_selfish_dominant)

    br = sub.add_parser("bribery", help="bounty-funded orphaning attack")
    brsub = br.add_subparsers(dest="action", required=True, metavar="action")
    brs = brsub.add_parser("share", parents=[common], help="long-run reward share of the briber")
    brs.add_argument("--pools", type=Path, required=True)
    brs.add_argument("--adversary", required=True)
    brs.add_argument("--epsilon", type=float, default=0.0)
    brs.add_argument("--targets", default="auto", help="'auto' or comma list of pool names/indices")
    brs.set_defaults(func=_cmd_bribery_share)

    uc = sub.add_parser("undercut", help="self-mined rival-block attack")
    ucsub = uc.add_subparsers(dest="action", required=True, metavar="action")
    ucs = ucsub.add_parser("share", parents=[common], help="long-run reward share of the undercutter")
    ucs.add_argument("--pools", type=Path, required=True)
    ucs.add_argument("--adversary", required=True)
    ucs.add_argument("--epsilon", type=float, default=0.0)
    ucs.add_argument("--targets", default="auto")
    ucs.set_defaults(func=_cmd_undercut_share)

    md = sub.add_parser("mdp", help="optimal withholding strategy solver")
    mdsub = md.add_subparsers(dest="action", required=True, metavar="action")
    mds = mdsub.add_parser("solve", parents=[common], help="solve for the optimal reward share (JSON result)")
    mds.add_argument("--pools", type=Path, required=True)
    mds.add_argument("--adversary", required=True)
    mds.add_argument("--epsilon", type=float, default=0.0)
    mds.add_argument("--max-bribe", dest="max_bribe", type=int, default=1)
    mds.add_argument("--fork-cap", dest="fork_cap", type=int, default=8)
    mds.add_argument("--tol", type=float, default=1e-6, help="solver stopping tolerance on the share")
    mds.add_argument("--policy-csv", dest="policy_csv", type=Path, help="dump the optimal state->action map")
    mds.set_defaults(func=_cmd_mdp_solve)

    sm = sub.add_parser("sim", help="seeded event simulator")
    smsub = sm.add_subparsers(dest="action", required=True, metavar="action")
    smr = smsub.add_parser("run", parents=[common], help="run one configured simulation")
    smr.add_argument("--config", type=Path, required=True, help="JSON run configuration")
    smr.set_defaults(func=_cmd_sim_run)
    sml = smsub.add_parser("profit-lag", parents=[common], help="cumulative revenue advantage over time")
    sml.add_argument("--attack", choices=("selfish", "bribery"), required=True)
    sml.add_argument("--pools", type=Path, required=True)
    sml.add_argument("--adversary", required=True)
    sml.add_argument("--epsilon", type=float, default=0.0)
    sml.add_argument("--epochs", type=int, default=20)
    sml.add_argument("--replicas", type=int, default=4)
    sml.add_argument("--dam-mode", dest="dam_mode", choices=("canonical_only", "active_power"), default="canonical_only")
    sml.add_argument("--points", type=int, default=0, help="thin the curve to this many points (0 = keep all)")
    sml.set_defaults(func=_cmd_sim_profit_lag)

    wk = sub.add_parser("walk", help="fork-race random-walk results")
    wksub = wk.add_subparsers(dest="action", required=True, metavar="action")
    wkt = wksub.add_parser("threshold", parents=[common], help="share above which chasing a d-behind fork pays")
    wkt.add_argument("--d", type=int, required=True, help="deficit of the trailing fork")
    wkt.add_argument("--tol", type=float, default=1e-6)
    wkt.set_defaults(func=_cmd_walk_threshold)

    ds = sub.add_parser("distraction", help="out-of-band puzzle power diversion")
    dssub = ds.add_subparsers(dest="action", required=True, metavar="action")
    dsd = dssub.add_parser("delta", parents=[common], help="puzzle-vs-chain return gap across deciding shares")
    dsd.add_argument("--alpha-a", dest="alpha_a", type=float, required=True)
    dsd.add_argument("--br2", type=float, required=True, help="per-puzzle reward")
    dsd.add_argument("--epsilon", type=float, default=0.0)
    dsd.add_argument("--d", type=float, required=True, help="chain/puzzle difficulty ratio")
    dsd.add_argument("--alpha-nc", dest="alpha_nc", type=float, default=0.0)
    dsd.add_argument("--grid", help="deciding-share grid lo:hi:step (default 0.01 steps up to 0.30)")
    dsd.set_defaults(func=_cmd_distraction_delta)
    dsm = dssub.add_parser("min-d", parents=[common], help="cheapest ratio that distracts the whole grid")
    dsm.add_argument("--alpha-a", dest="alpha_a", type=float, required=True)
    dsm.add_argument("--br2", type=float, required=True)
    dsm.add_argument("--epsilon", type=float, default=0.0)
    dsm.add_argument("--grid")
    dsm.set_defaults(func=_cmd_distraction_min_d)

    return p


def _deliver(artifact: Artifact, args) -> None:
    emit_artifact(artifact, out=args.out, fmt=args.fmt, svg=args.svg)
    if args.out is None:
        sys.stdout.write(render_csv(artifact) if args.fmt == "csv" else render_json(artifact))
    else:
        if "verdict" in artifact.meta:
            print(artifact.meta["verdict"])
        print(f"wrote {len(artifact.rows)} rows -> {args.out}")
    if args.svg is not None:
        # keep stdout machine-readable when the artifact itself goes there
        print(f"wrote chart -> {args.svg}", file=sys.stderr if args.out is None else sys.stdout)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "tol", None) is not None:
            require_positive_finite("tol", args.tol)  # before a solver command builds its model
        artifact = args.func(args)
        if artifact is not None:
            _deliver(artifact, args)
        return 0
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ConvergenceError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader (head, less) went away mid-artifact; that is not an
        # error worth a message, and writing one would just raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 3
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

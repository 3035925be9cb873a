"""Runners behind `powplay reproduce`, plus the artifact plumbing they share.

Each runner regenerates one headline result set (a solver table or a curve
family) and returns an Artifact: column names, data rows and a metadata
mapping naming every parameter the numbers depend on (fork_cap, seed,
tolerance, ...).  A CSV written from an Artifact is self-describing: metadata
travels as leading `# key: value` lines, so the file can be re-read and
re-checked without the command line that produced it.

Emission goes through emit_artifact, which round-trips every CSV it writes
(read back, compare, re-validate) before reporting success.  SVG output is a
small hand-rolled line chart; the curves here are simple enough that pulling
in a plotting stack would be all cost.
"""

from __future__ import annotations

import csv
import inspect
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .bribery import TargetPartition, bribery_reward_share, undercut_reward_share
from .distraction import default_deciding_grid, delta_sweep, min_difficulty_ratio
from .errors import ConvergenceError, ValidationError
from .mdp import build_mdp, solve_reward_share
from .model import (
    BITCOIN_POOLS_MERGED,
    AttackParams,
    PoolSet,
    bundled_pool_file,
    load_pool_file,
    residual_centralization_factor,
)
from .sim import DEFAULT_SEED, SimConfig, revenue_advantage_trajectory

__all__ = [
    "Artifact",
    "ExperimentSpec",
    "EXPERIMENT_KINDS",
    "run_experiment",
    "emit_artifact",
    "render_csv",
    "read_artifact",
    "validate_artifact",
    "write_svg",
    "run_table2",
    "run_table3",
    "run_table4",
    "run_fig3",
    "run_fig4",
    "run_fig5",
    "run_fig6",
    "TABLE_TOLERANCE",
]

#: validation half-width for the solver tables (reward_share vs reference).
TABLE_TOLERANCE = 0.01

# Reference reward shares the table runners re-validate against, with the
# configurations that produce them: (adversary share, epsilon, rival-share
# tuples, expected optimal reward shares).
TABLE2 = (
    0.4,
    0.1,
    ((0.3, 0.3), (0.2, 0.2, 0.2), (0.1,) * 4 + (0.05,) * 4, (0.075,) * 8),
    (0.5448, 0.5714, 0.5955, 0.5967),
)
TABLE3 = (
    0.3,
    0.0,
    ((0.4, 0.2, 0.1), (0.2, 0.2, 0.2, 0.1), (0.2, 0.2) + (0.05,) * 6, (0.0875,) * 8),
    (0.3534, 0.3877, 0.4006, 0.4112),
)
#: real-world snapshot rows: each named pool plays the adversary in turn.
TABLE4_ADVERSARIES = ("Unknown", "F2Pool", "ViaBTC", "AntPool", "Foundry USA")
TABLE4_REFERENCE = (0.0794, 0.1166, 0.1306, 0.2980, 0.3785)


@dataclass(frozen=True)
class Artifact:
    """One experiment's output: metadata, a column header and data rows."""

    kind: str
    meta: dict
    columns: tuple[str, ...]
    rows: list

    def __post_init__(self):
        for r in self.rows:
            if len(r) != len(self.columns):
                raise ValidationError(
                    f"{self.kind}: row of width {len(r)} under a "
                    f"{len(self.columns)}-column header"
                )

    def column(self, name: str) -> list:
        i = self.columns.index(name)
        return [r[i] for r in self.rows]


# -- shared helpers -------------------------------------------------------------


def _row_subset(rows, n: int) -> tuple[int, ...]:
    if rows is None:
        return tuple(range(n))
    take = tuple(int(r) for r in rows)
    for r in take:
        if not 0 <= r < n:
            raise ValidationError(f"row index {r} out of range 0..{n - 1}")
    return take


def _mdp_share(pools: PoolSet, params: AttackParams, fork_cap: int, tol: float) -> tuple[float, str]:
    """The solved share and a summary of its solve for the artifact header:
    the model's state count, the outer steps, the value sweeps in all and
    the final residual, written the same way every run."""
    model = build_mdp(pools, params, fork_cap=fork_cap)
    res = solve_reward_share(model, tol=tol)
    summary = (f"state_count={model.state_count} outer_steps={res.outer_steps} "
               f"sweeps={res.iterations} residual={res.residual!r}")
    return res.reward_share, summary


def _load_snapshot(pool_file) -> PoolSet:
    path = Path(pool_file) if pool_file else bundled_pool_file(BITCOIN_POOLS_MERGED)
    return load_pool_file(path)


def _downsample(points: np.ndarray, keep: int) -> np.ndarray:
    """Thin a curve to ~keep points, at least both endpoints; keep=0 keeps every point."""
    if keep < 0:
        raise ValidationError(f"points must be at least 0, got {keep}")
    if keep == 0 or len(points) <= keep:
        return points
    idx = np.unique(np.linspace(0, len(points) - 1, max(keep, 2)).round().astype(int))
    return points[idx]


def artifact_meta(kind: str, seed="n/a", fork_cap="n/a", tolerance="n/a", **extra) -> dict:
    """An artifact's metadata: the four keys validate_artifact requires, the
    powplay version that made it, then extra.

    Every artifact names these even when a runner ignores one, so
    downstream readers never have to guess which knobs existed.  No clock
    reading is recorded, so a seeded artifact is the same file every run.
    """
    return {"artifact": kind, "seed": seed, "fork_cap": fork_cap, "tolerance": tolerance,
            "powplay_version": __version__, **extra}


# -- solver tables --------------------------------------------------------------


def _run_table(kind, spec, *, fork_cap, tol, rows, seed):
    alpha_a, epsilon, configs, reference = spec
    take = _row_subset(rows, len(configs))
    params = AttackParams(epsilon=epsilon)
    solves = {}  # one header key per solved row

    def solve_one(idx: int):
        pools = PoolSet.from_shares(alpha_a, configs[idx])
        share, solves[f"solve[{idx}]"] = _mdp_share(pools, params, fork_cap, tol)
        return (
            idx,
            alpha_a,
            epsilon,
            "+".join(f"{s:g}" for s in configs[idx]),
            residual_centralization_factor(pools),
            share,
            reference[idx],
        )

    out = [solve_one(idx) for idx in take]
    meta = artifact_meta(
        kind, seed, fork_cap, TABLE_TOLERANCE,
        adversary_share=alpha_a,
        epsilon=epsilon,
        max_bribe=params.max_bribe,
        solver_tol=tol,
        check="reward_share within tolerance of reference",
        **solves,
    )
    columns = (
        "row",
        "adversary_share",
        "epsilon",
        "rival_shares",
        "residual_factor",
        "reward_share",
        "reference",
    )
    return Artifact(kind, meta, columns, out)


def run_table2(*, fork_cap=8, tol=1e-6, rows=None, seed=DEFAULT_SEED):
    """Optimal reward share of a 0.4 attacker against four rival mixes."""
    return _run_table("table2", TABLE2, fork_cap=fork_cap, tol=tol, rows=rows, seed=seed)


def run_table3(*, fork_cap=8, tol=1e-6, rows=None, seed=DEFAULT_SEED):
    """Optimal reward share of a 0.3 attacker, no sweetener, four rival mixes."""
    return _run_table("table3", TABLE3, fork_cap=fork_cap, tol=tol, rows=rows, seed=seed)


def run_table4(*, fork_cap=8, tol=1e-6, rows=None, seed=DEFAULT_SEED, pool_file=None):
    """Optimal reward share of each major real-world pool turned attacker."""
    base = _load_snapshot(pool_file)
    take = _row_subset(rows, len(TABLE4_ADVERSARIES))
    params = AttackParams()
    solves = {}  # one header key per solved row

    def solve_one(idx: int):
        name = TABLE4_ADVERSARIES[idx]
        pools = base.with_adversary(name)
        share, solves[f"solve[{name}]"] = _mdp_share(pools, params, fork_cap, tol)
        return (
            idx,
            name,
            pools.adversary_share,
            params.epsilon,
            residual_centralization_factor(pools),
            share,
            TABLE4_REFERENCE[idx],
        )

    out = [solve_one(idx) for idx in take]
    meta = artifact_meta(
        "table4", seed, fork_cap, TABLE_TOLERANCE,
        pool_file=pool_file or BITCOIN_POOLS_MERGED,
        epsilon=params.epsilon,
        max_bribe=params.max_bribe,
        solver_tol=tol,
        check="reward_share within tolerance of reference",
        **solves,
    )
    columns = (
        "row",
        "adversary",
        "adversary_share",
        "epsilon",
        "residual_factor",
        "reward_share",
        "reference",
    )
    return Artifact("table4", meta, columns, out)


# -- figures ----------------------------------------------------------------------


def run_fig3(*, fork_cap=6, tol=1e-6, rows=None, seed=DEFAULT_SEED, pool_file=None, epsilon=0.0):
    """Three-attack comparison across the snapshot, smallest attacker first.

    Bribery and undercutting come from their closed forms, withholding from
    the strategy solver; the interesting property is the ordering at small
    adversary shares (bribery > undercut > solver share > honest), not any
    particular pixel.
    """
    base = _load_snapshot(pool_file)
    names = sorted((p.name for p in base.pools), key=lambda n: base.pools[base.index_of(n)].share)
    take = _row_subset(rows, len(names))
    solves = {}  # one header key per solved row

    def eval_one(idx: int):
        pools = base.with_adversary(names[idx])
        partition = TargetPartition.auto(pools, epsilon)
        share, solves[f"solve[{names[idx]}]"] = _mdp_share(pools, AttackParams(epsilon=epsilon), fork_cap, tol)
        return (
            names[idx],
            pools.adversary_share,
            bribery_reward_share(pools, partition, epsilon),
            undercut_reward_share(pools, partition, epsilon),
            share,
        )

    out = [eval_one(idx) for idx in take]
    meta = artifact_meta(
        "fig3", seed, fork_cap, tol,
        pool_file=pool_file or BITCOIN_POOLS_MERGED,
        epsilon=epsilon,
        ordering="bribery_share > undercut_share > withholding_mdp_share at small adversary_share",
        **solves,
    )
    columns = ("pool", "adversary_share", "bribery_share", "undercut_share", "withholding_mdp_share")
    return Artifact("fig3", meta, columns, out)


def run_fig4(
    *,
    epochs=20,
    replicas=4,
    epsilon=0.0,
    seed=DEFAULT_SEED,
    rows=None,
    pool_file=None,
    points=400,
    dam_mode="canonical_only",
):
    """Bribery revenue-advantage trajectories, one curve per snapshot pool.

    Pools whose auto-target set is empty (nothing cheap enough to bribe
    against) run the degenerate attack and trace a flat line; they are kept
    so the artifact covers the whole snapshot.
    """
    base = _load_snapshot(pool_file)
    names = sorted((p.name for p in base.pools), key=lambda n: -base.pools[base.index_of(n)].share)
    take = _row_subset(rows, len(names))
    out = []
    crossings = {}
    for idx in take:
        name = names[idx]
        cfg = SimConfig(
            pools=base.with_adversary(name),
            strategy="bribery",
            params=AttackParams(epsilon=epsilon),
            horizon=epochs,
            seed=seed,
            dam_mode=dam_mode,
        )
        traj = revenue_advantage_trajectory(cfg, replicas=replicas)
        crossings[name] = traj.zero_crossing_time
        for t, v in _downsample(traj.points, points):
            out.append((name, float(t), float(v)))
    meta = artifact_meta(
        "fig4", seed,
        pool_file=pool_file or BITCOIN_POOLS_MERGED,
        attack="bribery",
        epsilon=epsilon,
        epochs=epochs,
        replicas=replicas,
        dam_mode=dam_mode,
        points_per_curve=points,
    )
    for name, t in crossings.items():
        meta[f"zero_crossing[{name}]"] = "never" if t is None else f"{t:.1f}"
    return Artifact("fig4", meta, ("pool", "time", "cumulative_advantage"), out)


def run_fig5(
    *,
    adversary="Foundry USA",
    epochs=20,
    replicas=8,
    epsilon=0.0,
    seed=DEFAULT_SEED,
    pool_file=None,
    points=400,
    dam_mode="canonical_only",
):
    """Withholding revenue-advantage trajectory for the largest snapshot pool."""
    base = _load_snapshot(pool_file)
    cfg = SimConfig(
        pools=base.with_adversary(adversary),
        strategy="pi_selfish",
        params=AttackParams(epsilon=epsilon),
        horizon=epochs,
        seed=seed,
        dam_mode=dam_mode,
    )
    traj = revenue_advantage_trajectory(cfg, replicas=replicas)
    out = [(float(t), float(v)) for t, v in _downsample(traj.points, points)]
    meta = artifact_meta(
        "fig5", seed,
        pool_file=pool_file or BITCOIN_POOLS_MERGED,
        attack="pi_selfish",
        adversary=adversary,
        epsilon=epsilon,
        epochs=epochs,
        replicas=replicas,
        dam_mode=dam_mode,
        points_per_curve=points,
        first_epoch_min=f"{traj.first_epoch_min:.3f}",
        zero_crossing="never" if traj.zero_crossing_time is None else f"{traj.zero_crossing_time:.1f}",
    )
    return Artifact("fig5", meta, ("time", "cumulative_advantage"), out)


def run_fig6(
    *,
    alpha_a=0.4,
    br2=0.04,
    epsilon=0.02,
    d_pass=5.0,
    d_fail=2.0,
    step=0.01,
    seed=DEFAULT_SEED,
):
    """Distraction frontier: return gaps over the deciding-share grid + min ratio.

    Series delta_d*: puzzle-vs-chain return gap per deciding share at a fixed
    difficulty ratio (the scheme holds where the gap clears epsilon).  Series
    min_d: smallest ratio that makes the puzzle dominant for every share up
    to x, i.e. the ratio an attacker must fund as larger pools join the grid.
    """
    grid = default_deciding_grid(alpha_a, step)
    if grid.size == 0:
        raise ValidationError("the attacker's share leaves no room for a deciding pool")
    rows = []
    for d in (d_pass, d_fail):
        label = f"delta_d{d:g}"
        for ai, delta in delta_sweep(alpha_a, br2, epsilon, d, grid):
            rows.append((label, ai, delta))
    for s in grid:
        if s < 2 * step:  # one-point grids make a degenerate frontier
            continue
        sub = grid[grid <= s + step / 2]
        rows.append(("min_d", float(s), min_difficulty_ratio(alpha_a, br2, epsilon, sub)))
    meta = artifact_meta(
        "fig6", seed,
        tolerance=epsilon,
        alpha_a=alpha_a,
        br2=br2,
        epsilon=epsilon,
        grid=f"{step:g}:{grid[-1]:g}:{step:g}",
        series_delta=f"return gap at difficulty ratio {d_pass:g} (holds) and {d_fail:g} (fails)",
        series_min_d="smallest ratio dominant for every deciding share <= x",
        pass_criterion="delta >= epsilon",
    )
    return Artifact("fig6", meta, ("series", "x", "y"), rows)


RUNNERS = {
    "table2": run_table2,
    "table3": run_table3,
    "table4": run_table4,
    "fig3": run_fig3,
    "fig4": run_fig4,
    "fig5": run_fig5,
    "fig6": run_fig6,
}

EXPERIMENT_KINDS = tuple(RUNNERS)


# -- CSV / JSON / SVG emission ---------------------------------------------------


def _fmt_cell(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def render_csv(artifact: Artifact) -> str:
    buf = io.StringIO()
    for k, v in artifact.meta.items():
        buf.write(f"# {k}: {v}\n")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(artifact.columns)
    for row in artifact.rows:
        w.writerow([_fmt_cell(v) for v in row])
    return buf.getvalue()


def render_json(artifact: Artifact) -> str:
    def clean(v):
        if isinstance(v, (float, np.floating)):
            return float(v)
        if isinstance(v, (int, np.integer)):
            return int(v)
        return v

    doc = {
        "meta": {k: clean(v) for k, v in artifact.meta.items()},
        "columns": list(artifact.columns),
        "rows": [[clean(v) for v in row] for row in artifact.rows],
    }
    return json.dumps(doc, indent=2) + "\n"


def _parse_cell(s: str):
    try:
        return int(s)
    except ValueError:
        pass
    try:
        return float(s)
    except ValueError:
        return s


def read_artifact(path) -> Artifact:
    """Read a CSV written by render_csv back into an Artifact."""
    meta = {}
    body = []
    text = Path(path).read_text()
    for line in text.splitlines():
        if line.startswith("#"):
            key, sep, value = line[1:].partition(":")
            if not sep:
                raise ValidationError(f"{path}: malformed metadata line {line!r}")
            meta[key.strip()] = value.strip()
        elif line.strip():
            body.append(line)
    if not body:
        raise ValidationError(f"{path}: no header row")
    reader = csv.reader(body)
    columns = tuple(next(reader))
    rows = [tuple(_parse_cell(c) for c in row) for row in reader]
    return Artifact(meta.get("artifact", "custom"), meta, columns, rows)


def validate_artifact(artifact: Artifact) -> None:
    """Re-check what the artifact's own metadata declares about it.

    Structural problems (ragged rows, non-numeric cells where a number is
    promised, empty body) raise ValidationError; a declared reference
    tolerance that the values miss raises ConvergenceError, since that is
    solver quality rather than file shape.
    """
    if not artifact.rows:
        raise ValidationError(f"{artifact.kind}: artifact has no data rows")
    for required in ("seed", "fork_cap", "tolerance"):
        if required not in artifact.meta:
            raise ValidationError(f"{artifact.kind}: metadata lacks {required!r}")
    if "reference" in artifact.columns and "reward_share" in artifact.columns:
        tol = float(artifact.meta["tolerance"])
        got = artifact.column("reward_share")
        want = artifact.column("reference")
        for i, (g, w) in enumerate(zip(got, want)):
            if not (math.isfinite(float(g)) and abs(float(g) - float(w)) <= tol):
                raise ConvergenceError(
                    f"{artifact.kind} row {i}: reward_share {g} misses "
                    f"reference {w} by more than {tol}"
                )
    if "time" in artifact.columns:
        t = artifact.column("time")
        groups = artifact.column(artifact.columns[0]) if artifact.columns[0] not in ("time",) else [0] * len(t)
        last = {}
        for g, ti in zip(groups, t):
            if g in last and float(ti) < last[g] - 1e-9:
                raise ValidationError(f"{artifact.kind}: time not monotone within series {g!r}")
            last[g] = float(ti)


def _svg_series(artifact: Artifact):
    """Split an artifact into (label, x, y) series for plotting."""
    numeric = [
        i
        for i in range(len(artifact.columns))
        if all(isinstance(r[i], (int, float, np.floating, np.integer)) for r in artifact.rows)
    ]
    if len(numeric) < 2:
        raise ValidationError(f"{artifact.kind}: artifact has no curve to draw")
    xi, yi = numeric[0], numeric[1]
    label_col = 0 if 0 not in numeric else None
    series = {}
    for r in artifact.rows:
        key = r[label_col] if label_col is not None else artifact.kind
        series.setdefault(key, []).append((float(r[xi]), float(r[yi])))
    return [(k, np.asarray(v)) for k, v in series.items()]


# a dozen visually distinct stroke colors; series cycle through them
_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
    "#e377c2", "#7f7f7f", "#bcbd22", "#17becf", "#393b79", "#ad494a",
)


def write_svg(artifact: Artifact, path, width=720, height=440) -> None:
    """Minimal multi-series line chart; axes, zero line and a legend."""
    series = _svg_series(artifact)
    allpts = np.vstack([pts for _, pts in series])
    x0, x1 = float(allpts[:, 0].min()), float(allpts[:, 0].max())
    y0, y1 = float(allpts[:, 1].min()), float(allpts[:, 1].max())
    if x1 - x0 <= 0:
        x1 = x0 + 1.0
    if y1 - y0 <= 0:
        y1 = y0 + 1.0
    pad = 50.0

    def sx(x):
        return pad + (x - x0) / (x1 - x0) * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y0) / (y1 - y0) * (height - 2 * pad)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
    ]
    if y0 < 0.0 < y1:
        zy = sy(0.0)
        out.append(
            f'<line x1="{pad}" y1="{zy:.1f}" x2="{width - pad}" y2="{zy:.1f}" '
            f'stroke="#999" stroke-dasharray="4 3"/>'
        )
    for k, (label, pts) in enumerate(series):
        color = _PALETTE[k % len(_PALETTE)]
        coords = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in pts)
        out.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{coords}"/>')
        out.append(
            f'<text x="{width - pad + 4}" y="{pad + 14 * k + 10}" font-size="10" '
            f'fill="{color}">{label}</text>'
        )
    for x, anchor in ((x0, "start"), (x1, "end")):
        out.append(
            f'<text x="{sx(x):.1f}" y="{height - pad + 16}" font-size="10" '
            f'text-anchor="{anchor}">{x:g}</text>'
        )
    for y in (y0, y1):
        out.append(f'<text x="4" y="{sy(y):.1f}" font-size="10">{y:g}</text>')
    out.append("</svg>")
    Path(path).write_text("\n".join(out) + "\n")


def emit_artifact(artifact: Artifact, out=None, fmt="csv", svg=None) -> None:
    """Write an artifact and prove the write: CSVs are re-read and re-checked."""
    validate_artifact(artifact)
    if out is not None:
        out = Path(out)
        if fmt == "csv":
            out.write_text(render_csv(artifact))
            back = read_artifact(out)
            if back.columns != artifact.columns or len(back.rows) != len(artifact.rows):
                raise ValidationError(f"{out}: artifact did not survive a CSV round-trip")
            validate_artifact(back)
        elif fmt == "json":
            out.write_text(render_json(artifact))
            json.loads(out.read_text())
        else:
            raise ValidationError(f"unknown output format {fmt!r}")
    if svg is not None:
        write_svg(artifact, svg)


# -- the reproduce entry point -----------------------------------------------------


@dataclass
class ExperimentSpec:
    """What to regenerate: a kind, its parameter overrides and the seed."""

    kind: str
    overrides: dict = field(default_factory=dict)
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ValidationError(
                f"unknown experiment kind {self.kind!r}; expected one of {', '.join(EXPERIMENT_KINDS)}"
            )


def run_experiment(spec: ExperimentSpec) -> Artifact:
    """Run one experiment and return its artifact; the caller emits it."""
    runner = RUNNERS[spec.kind]
    kwargs = dict(spec.overrides)
    allowed = set(inspect.signature(runner).parameters)
    for k in kwargs:
        if k not in allowed:
            raise ValidationError(f"{spec.kind} does not take parameter {k!r}")
    kwargs.setdefault("seed", spec.seed)
    return runner(**kwargs)

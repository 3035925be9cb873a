"""Spans around the calls into each powplay layer, and the per-layer metrics.

Tracing happens only in the benchmark's process: `install` rebinds every
name under which a traced function is reachable inside `powplay` (module
globals such as `powplay.experiments.build_mdp`, the experiment runner table
and `TargetPartition.auto`) to a wrapper that records a span.  Nothing in
`src/` is edited, and an untraced run imports the same modules unwrapped.
"""

from __future__ import annotations

import functools
import inspect
import math
import statistics
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    op: str | None
    passno: int | None
    end: float = math.nan
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps every span in memory; the benchmark writes them out at the end."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op: str | None = None
        self.passno: int | None = None

    def wrap(self, name, fn, count=None):
        """Return fn recording one span per call; count(result, bound args) adds counts."""
        signature = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, time.perf_counter(), parent, self.op, self.passno)
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = count(result, bound.arguments)
            return result

        return traced

    def to_json(self) -> list[dict]:
        return [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "op": s.op,
                "pass": s.passno,
                "self_s": self_time(self.spans, i),
                "counts": s.counts,
            }
            for i, s in enumerate(self.spans)
        ]


# -- counts read from returned objects --------------------------------------------


def _model_counts(model, _args):
    return {
        "states": model.state_count,
        "edges": int(model.edge_prob.size),
        "action_slots": int(model.action_ptr.size),
    }


def sweep_bytes(states: int, action_slots: int, edges: int) -> int:
    """Bytes one value sweep reads and writes, computed from array sizes.

    Counts every operand and result of the numpy operations in one sweep of
    `powplay.mdp._sweeps` (8-byte floats and indices): the gather V[dst],
    the product with edge_prob and the sum with the base reward (24 bytes per
    edge each), add.reduceat over the edges (8 per edge, 16 per action slot),
    maximum.reduceat (8 per action slot, 16 per state), and the difference,
    its max and min, and the renormalisation (56 per state).  Cache misses
    are not modelled.
    """
    return 80 * edges + 24 * action_slots + 72 * states


def _solve_counts(result, args):
    m = args["model"]
    return {
        "sweeps": result.iterations,
        "residual": result.residual,
        "bytes_per_sweep": sweep_bytes(m.state_count, m.action_ptr.size, m.edge_prob.size),
    }


def _draw_counts(stats, _args):
    return {"rng_draws": stats.rng_draws}


def _automaton_counts(auto, _args):
    return {"states": auto.n_states}


def _occupancy_counts(_occ, args):
    replicas = args["replicas"]
    return {"events": replicas * (args["burn_in"] + max(1, math.ceil(args["events"] / replicas)))}


def _simulate_counts(stats, _args):
    return {
        "events": int(stats.revenue_advantage.shape[0]),
        "rng_draws": stats.rng_draws,
        "epochs": int(stats.epoch_durations.size),
        "orphans": stats.orphan_count,
    }


def _walk_counts(_est, args):
    return {"walks": args["walks"]}


#: (module, attribute, span name, counter) for every traced public function.
TRACED = (
    ("cli", "main", "cli.main", None),
    ("experiments", "run_experiment", "experiments.run", None),
    ("experiments", "emit_artifact", "experiments.emit", None),
    ("model", "load_pool_file", "model.load", None),
    ("mdp", "build_mdp", "mdp.build", _model_counts),
    ("mdp", "solve_reward_share", "mdp.solve", _solve_counts),
    ("mdp", "policy_rollout", "mdp.rollout", _draw_counts),
    ("bribery", "bribery_reward_share", "bribery", None),
    ("bribery", "undercut_reward_share", "bribery", None),
    ("sim", "build_automaton", "sim.automaton", _automaton_counts),
    ("sim", "reward_share_mc", "sim.mc", _draw_counts),
    ("sim", "distraction_occupancy_mc", "sim.occupancy", _occupancy_counts),
    ("sim", "simulate", "sim.simulate", _simulate_counts),
    ("sim", "simulate_many", "sim.simulate_many", None),
    ("sim", "revenue_advantage_trajectory", "sim.trajectory", None),
    ("randomwalk", "walk_never_reach_mc", "randomwalk.walk", _walk_counts),
)


def _rebind(original, wrapped) -> None:
    for name, module in list(sys.modules.items()):
        if name == "powplay" or name.startswith("powplay."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)


def install(tracer: Tracer) -> None:
    """Rebind the traced functions everywhere powplay can reach them."""
    import importlib

    from powplay import bribery, experiments

    for modname, attr, span, count in TRACED:
        module = importlib.import_module(f"powplay.{modname}")
        original = getattr(module, attr)
        _rebind(original, tracer.wrap(span, original, count))
    for kind, runner in list(experiments.RUNNERS.items()):
        experiments.RUNNERS[kind] = tracer.wrap("experiments.runner", runner)
    auto = bribery.TargetPartition.__dict__["auto"].__func__
    bribery.TargetPartition.auto = classmethod(tracer.wrap("bribery", auto))


# -- per-layer metrics ------------------------------------------------------------


def self_time(spans: list[Span], i: int) -> float:
    """Duration of span i minus the part of it its direct children cover."""
    s = spans[i]
    kids = sorted((c.start, c.end) for c in spans if c.parent == i)
    covered, reach = 0.0, s.start
    for a, b in kids:
        a, b = max(a, reach), min(b, s.end)
        if b > a:
            covered += b - a
            reach = b
    return s.duration - covered


def _outermost(spans: list[Span], name: str) -> list[int]:
    """Indices of spans called name that have no ancestor of the same name."""
    out = []
    for i, s in enumerate(spans):
        if s.name != name:
            continue
        p = s.parent
        while p is not None and spans[p].name != name:
            p = spans[p].parent
        if p is None:
            out.append(i)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list[Span], indices: list[int]) -> dict[str, float]:
    """Per-layer metrics over the spans at `indices` (one pass plus set-up)."""
    chosen = [spans[i] for i in indices]
    chosen_idx = set(indices)

    def total(name):
        return sum(spans[i].duration for i in _outermost(spans, name) if i in chosen_idx)

    def self_sum(name):
        return sum(self_time(spans, i) for i in indices if spans[i].name == name)

    def count(name, key):
        return sum(s.counts.get(key, 0) for s in chosen if s.name == name)

    def calls(name):
        return sum(1 for s in chosen if s.name == name)

    build_s = total("mdp.build")
    solve_s = total("mdp.solve")
    sweeps = count("mdp.solve", "sweeps")
    swept_bytes = sum(
        s.counts["sweeps"] * s.counts["bytes_per_sweep"] for s in chosen if s.name == "mdp.solve"
    )
    residuals = [s.counts["residual"] for s in chosen if s.name == "mdp.solve"]
    states = count("mdp.build", "states")
    rollout_s = total("mdp.rollout")
    mc_draws = count("sim.mc", "rng_draws")
    sim_events = count("sim.simulate", "events")
    walks = count("randomwalk.walk", "walks")
    walk_s = total("randomwalk.walk")
    return {
        "experiments.run_s": total("experiments.run"),
        "experiments.self_s": self_sum("experiments.runner"),
        "experiments.emit_s": total("experiments.emit"),
        "model.load_s": total("model.load"),
        "mdp.build_s": build_s,
        "mdp.build_calls": calls("mdp.build"),
        "mdp.states": states,
        "mdp.edges": count("mdp.build", "edges"),
        "mdp.action_slots": count("mdp.build", "action_slots"),
        "mdp.build_states_per_s": _ratio(states, build_s),
        "mdp.solve_s": solve_s,
        "mdp.sweeps": sweeps,
        "mdp.sweep_ms": 1e3 * _ratio(solve_s, sweeps),
        "mdp.residual_max": max(residuals, default=0.0),
        "mdp.sweep_bytes_computed": _ratio(swept_bytes, sweeps),
        "mdp.rollout_s": rollout_s,
        "mdp.rollout_transitions_per_s": _ratio(count("mdp.rollout", "rng_draws"), rollout_s),
        "bribery.s": total("bribery"),
        "bribery.calls": calls("bribery"),
        "sim.automaton_s": total("sim.automaton"),
        "sim.automaton_states": count("sim.automaton", "states"),
        "sim.mc_s": total("sim.mc"),
        "sim.mc_transitions_per_s": _ratio(mc_draws, self_sum("sim.mc")),
        "sim.mc_rng_draws": mc_draws,
        "sim.occupancy_events_per_s": _ratio(
            count("sim.occupancy", "events"), self_sum("sim.occupancy")
        ),
        "sim.simulate_s": total("sim.simulate"),
        "sim.events": sim_events,
        "sim.events_per_s": _ratio(sim_events, self_sum("sim.simulate")),
        "sim.rng_draws": count("sim.simulate", "rng_draws"),
        "sim.epochs": count("sim.simulate", "epochs"),
        "sim.orphans": count("sim.simulate", "orphans"),
        "sim.trajectory_self_s": self_sum("sim.trajectory"),
        "randomwalk.walk_s": walk_s,
        "randomwalk.walks_per_s": _ratio(walks, walk_s),
        "trace.spans": len(indices),
    }


#: metrics that are exact counts: two runs at one seed must agree on them.
EXACT_COUNTS = (
    "mdp.build_calls",
    "mdp.states",
    "mdp.edges",
    "mdp.action_slots",
    "mdp.sweeps",
    "mdp.sweep_bytes_computed",
    "bribery.calls",
    "sim.automaton_states",
    "sim.mc_rng_draws",
    "sim.events",
    "sim.rng_draws",
    "sim.epochs",
    "sim.orphans",
)


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}

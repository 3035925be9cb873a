#!/usr/bin/env python3
"""powplay benchmark: one workload per process, untraced or traced.

    python3 perfbench/run.py --workload solver_snapshot --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  A run repeats the workload's full list of ops ("a pass") while
another pass fits in --seconds, checks every result, and prints the metrics
as the last line of stdout, one JSON object.  --trace 0 gives the end-to-end
metrics; --trace 1 gives the per-layer metrics from a traced pass, plus the
tracing overhead against an untraced run of the same seed started as a
child process.  Everything a run writes goes under `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("solver_snapshot", "solver_symmetric", "mc_crosscheck")
#: cold starts per run whose median is setup_s
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
UNTRACED_TIMEOUT_S = 100
#: the workload process never sees a thread-count setting: powplay's own
#: knob is dropped and numpy's native pools are pinned to one thread
SINGLE_THREADED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def workload_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "POWPLAY_THREADS"}
    env.update(SINGLE_THREADED)
    return env


def child(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=ROOT,
        env=workload_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )


# -- run metadata ---------------------------------------------------------------------


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _cpu() -> tuple[str | None, list[str]]:
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.partition(":")[2].strip()
                break
    except OSError:
        pass
    caches = []
    for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((d / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches.append(f"L{level} {kind} {size}")
    return model, caches


def run_metadata() -> dict:
    import numpy as np

    model, caches = _cpu()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
    }


def source_digest() -> str:
    """Identifies the code whose exact counts a repeated run must reproduce."""
    import numpy as np

    h = hashlib.sha256(f"{platform.python_version()} {np.__version__}".encode())
    files = [p for p in sorted(SRC.rglob("*")) if p.is_file() and "__pycache__" not in p.parts]
    for p in files + sorted(BENCH.glob("*.py")):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


# -- passes ---------------------------------------------------------------------------


@dataclass
class Pass:
    wall_s: float
    attempted: int
    failed: int
    failures: list[str]


def run_pass(ops, tracer=None, passno=0) -> Pass:
    from workloads import Check

    attempted = failed = 0
    failures = []
    t0 = time.perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.op, tracer.passno = op.name, passno
        try:
            checks = op.run()
        except Exception:  # a failing op is counted and reported; the run goes on
            checks = [Check(op.name, False, traceback.format_exc(limit=3).strip())]
        bad = [c for c in checks if not c.ok]
        n = max(op.expect, len(checks))
        attempted += n
        failed += n - (len(checks) - len(bad))
        failures += [f"{c.label}: {c.detail}" for c in bad]
        if len(checks) < op.expect and not bad:
            failures.append(f"{op.name}: {len(checks)} results, expected {op.expect}")
    wall = time.perf_counter() - t0
    return Pass(wall, attempted, failed, failures)


def run_passes(ops, seconds: float, tracer=None) -> list[Pass]:
    """At least one pass; another only while it is expected to fit in `seconds`."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(ops, tracer, len(passes)))
        elapsed = time.perf_counter() - start
        if elapsed + max(p.wall_s for p in passes) > seconds:
            return passes


def setup_workload(name: str, seed: int, scratch: Path):
    import workloads

    return workloads.WORKLOADS[name](seed, scratch)


def probe_setup(args) -> None:
    """Child side of a cold start: set up, then report seconds since the parent's stamp."""
    setup_workload(args.workload, args.seed, OUT / "unused")
    print(repr(time.monotonic() - args.probe_setup))


def measure_setup(args) -> list[float]:
    samples = []
    for _ in range(SETUP_PROBES):
        stamp = time.monotonic()
        proc = child(
            ["--workload", args.workload, "--seed", str(args.seed), "--probe-setup", repr(stamp)],
            PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


# -- the two kinds of run -------------------------------------------------------------


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def untraced_run(args, scratch: Path, record: dict) -> tuple[dict, int, int, bool]:
    setup = measure_setup(args)
    ops = setup_workload(args.workload, args.seed, scratch)
    passes = run_passes(ops, args.seconds)
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": (self_kb + kids_kb) * 1024 / 1e6,
    }
    record.update(setup_samples_s=setup, passes=[vars(p) for p in passes])
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    return metrics, attempted, failed, failed == 0


def traced_run(args, scratch: Path, record: dict) -> tuple[dict, int, int, bool]:
    import spans

    problems = []
    proc = child(
        ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
        UNTRACED_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"the untraced run of this seed exited {proc.returncode}: {proc.stderr.strip()}")
    reference = json.loads(proc.stdout.strip().splitlines()[-1])
    if not reference["correct"]:
        problems.append("the untraced run of this seed failed its checks")

    tracer = spans.Tracer()
    spans.install(tracer)
    ops = setup_workload(args.workload, args.seed, scratch)
    passes = run_passes(ops, args.seconds, tracer)

    setup_idx = [i for i, s in enumerate(tracer.spans) if s.passno is None]
    per_pass = [
        spans.layer_metrics(tracer.spans, setup_idx + [i for i, s in enumerate(tracer.spans) if s.passno == n])
        for n in range(len(passes))
    ]
    counts = [{k: m[k] for k in spans.EXACT_COUNTS} for m in per_pass]
    if any(c != counts[0] for c in counts[1:]):
        problems.append("exact counts differ between passes of one run")
    problems += compare_counts(args, counts[0])

    layer = spans.median_metrics(per_pass)
    traced_wall = statistics.median(p.wall_s for p in passes)
    untraced_wall = reference["metrics"]["wall_s"]["value"]
    layer.update(
        {
            "trace.wall_s": traced_wall,
            "trace.overhead_s": traced_wall - untraced_wall,
        }
    )
    record.update(passes=[vars(p) for p in passes], per_pass=per_pass, problems=problems, spans=tracer.to_json())
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    return layer, attempted, failed, failed == 0 and not problems


def compare_counts(args, counts: dict) -> list[str]:
    """Exact counts must match the last traced run of this workload, seed and code."""
    path = OUT / f"counts-{args.workload}-seed{args.seed}.json"
    digest = source_digest()
    problems = []
    if path.is_file():
        previous = json.loads(path.read_text())
        if previous["digest"] == digest and previous["counts"] != counts:
            diff = sorted(k for k in counts if previous["counts"].get(k) != counts[k])
            problems.append(f"exact counts differ from the previous run of this seed: {diff}")
    path.write_text(json.dumps({"digest": digest, "counts": counts}, indent=1))
    return problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0, help="start another pass only while it fits")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", type=float, help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (SRC / "powplay" / "__init__.py").is_file():
        print(f"error: no powplay sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    os.environ.pop("POWPLAY_THREADS", None)
    os.environ.update(SINGLE_THREADED)
    sys.path.insert(0, str(SRC))

    if args.probe_setup is not None:
        probe_setup(args)
        return 0

    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"tmp-{os.getpid()}"
    scratch.mkdir()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    try:
        run = traced_run if args.trace else untraced_run
        metrics, attempted, failed, correct = run(args, scratch, record)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    units = declared_units(args.trace)
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json", file=sys.stderr)
        return 2
    record["meta"] = run_metadata()
    record["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print(f"{args.workload} seed {args.seed} trace {args.trace}: {len(record['passes'])} pass(es)")
    for k, m in record["metrics"].items():
        print(f"  {k:32s} {m['value']:.6g} {m['unit']}")
    print(f"  {'ops_total':32s} {attempted}")
    print(f"  {'ops_failed':32s} {failed}")
    for line in [f for q in record["passes"] for f in q["failures"]] + record.get("problems", []):
        print(f"  FAIL {line}")
    print("meta " + json.dumps(record["meta"]))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

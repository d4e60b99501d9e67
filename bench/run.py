"""uavmec benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of bench/workloads.py (dwoa-large, exhaustive-small,
sweep-cells) as a closed loop in this one process, with BLAS/OpenMP
threads set to 1, on inputs derived from the base seed N, for S
seconds. Every operation's output is checked; the first pass over the
input pool gets the full check and later passes must reproduce its
output bytes exactly.

--trace 0 prints the end-to-end metrics; operation costs are in
reference units (see timed_run). --trace 1 prints the per-layer metrics
instead: one counting pass, then pairs of an untraced and a traced
operation on the same input, whose ratio is the tracing overhead. The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}; the lines before it give
each metric with its unit and sample count, the determinism digest and
the machine stamp. A full report goes to .bench_out/. The exit code is
1 when any check failed. No machine-level tuning is done: no CPU
pinning, no frequency control, no cache drops.
"""
from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5


def add_package_source() -> None:
    """Put the checkout's src/ first on the import path; refuse to run
    without it, so an installed copy of the package is never measured."""
    if not (SRC / "uavmec" / "__init__.py").is_file():
        raise SystemExit(f"bench: no package source at {SRC / 'uavmec'}")
    sys.path.insert(0, str(SRC))


def nearest_rank(sorted_xs, q: float) -> float:
    return sorted_xs[max(0, math.ceil(q / 100.0 * len(sorted_xs)) - 1)]


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples beyond it
    (never below the median)."""
    return max(50, math.floor(100.0 * (n - 10) / n)) if n > 0 else 50


def setup_probe(workload: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter, so the import counts."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def machine_stamp(seed: int) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((SRC / "uavmec").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "commit": commit,
        "source_sha256": src.hexdigest(),
        "base_seed": seed,
        "machine_tuning": "none (no CPU pinning, frequency control or cache drops)",
        "threads": "one process, BLAS/OpenMP threads = 1",
    }


class Loop:
    """Runs and checks operations, keeping the first-pass fingerprints."""

    def __init__(self, wl, inputs):
        self.wl = wl
        self.inputs = inputs
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.prints = {}  # pool index -> fingerprint of the checked output
        self.quality = []

    def once(self, i: int, tracer=None):
        """One operation on pool input i; returns its (wall, CPU) time,
        or None when it raised or failed a check."""
        wl, inp = self.wl, self.inputs[i]
        self.attempted += 1
        wl.prepare(inp)
        try:
            with contextlib.nullcontext() if tracer is None else tracer.installed():
                t0, c0 = time.perf_counter(), time.process_time()
                out = wl.run(inp)
                dt = time.perf_counter() - t0, time.process_time() - c0
            if tracer is not None:
                tracer.op_id += 1
            if i in self.prints:
                problems = [] if wl.fingerprint(out) == self.prints[i] else [
                    "output differs from the first run on the same input"
                ]
            else:
                problems = wl.check(inp, out)
                self.prints[i] = wl.fingerprint(out)
                self.quality.extend(wl.quality(out))
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.problems.append(f"input {i}: " + "; ".join(problems))
            return None
        return dt

    def digest(self, count: int) -> str:
        h = hashlib.sha256()
        for i in range(count):
            h.update(self.prints.get(i, b"<missing>"))
            h.update(b"\0")
        return h.hexdigest()


class _Node:
    __slots__ = ("a", "b", "w")

    def __init__(self, a, b, w):
        self.a, self.b, self.w = a, b, w


def reference_kernel() -> float:
    """Fixed interpreter-bound work (list and dict indexing, float math,
    attribute access), about a millisecond. Its time tracks the speed
    the shared host gives this process at that moment."""
    nodes = [_Node(i % 7, (i * 3) % 11, 1.0 + i * 0.001) for i in range(300)]
    tab = {i: 1.0 / (1 + i) for i in range(50)}
    acc = 0.0
    for r in range(25):
        tot = [0.0] * 11
        for n in nodes:
            tot[n.b] += n.w * tab[n.a + r % 5]
            if tot[n.b] > acc:
                acc = tot[n.b] * 0.5
        acc += max(tot) / (1.0 + sum(tot))
    return acc


def reference_sample(reps: int) -> float:
    """Median CPU time of reps reference runs."""
    times = []
    for _ in range(reps):
        c0 = time.process_time()
        reference_kernel()
        times.append(time.process_time() - c0)
    return statistics.median(times)


def timed_run(wl, seed: int, seconds: float):
    """Closed loop over the pool. An operation's cost in reference units
    ("ref") is its process CPU time divided by the mean CPU time of the
    reference samples taken just before and after it. On a shared host,
    speed swings by tens of percent over tens of seconds and the
    reference slows with it; CPU time leaves out the bursts in which the
    host deschedules this VM. The raw wall figures are reported beside."""
    inputs = wl.make_inputs(seed)
    setup = sorted(setup_probe(wl.name, seed) for _ in range(SETUP_PROBES))
    loop = Loop(wl, inputs)
    c0 = time.process_time()
    loop.once(0)  # warm-up: lazy imports and caches fill before timing
    warm_cpu = time.process_time() - c0
    loop.prints.clear()
    loop.quality.clear()
    # reference time spent per operation: about 2% of an operation
    reps = max(1, min(50, round(0.02 * warm_cpu / reference_sample(5))))
    times, costs, refs = [], [], [reference_sample(reps)]
    decisions = cells = 0
    t_start = time.perf_counter()
    k = 0
    while k < len(inputs) or time.perf_counter() - t_start < seconds:
        i = k % len(inputs)
        dt = loop.once(i)
        refs.append(reference_sample(reps))
        if dt is not None:
            times.append(dt[0])
            costs.append(dt[1] / (0.5 * (refs[-2] + refs[-1])))
            decisions += wl.decisions(inputs[i])
            cells += wl.cells(inputs[i])
        k += 1
    if not times or not loop.quality:
        raise SystemExit("bench: no operation passed its checks:\n" + "\n".join(loop.problems[:5]))
    n = len(times)
    q = tail_percentile(n)
    busy, busy_ref = math.fsum(times), math.fsum(costs)
    xs, cs = sorted(times), sorted(costs)
    n_sol = len(loop.quality)
    metrics = {
        "op_ref.p50": (statistics.median(cs), "ref"),
        "op_ref.tail": (nearest_rank(cs, q), "ref"),
        "decisions_per_ref": (decisions / busy_ref, "1/ref"),
        "cells_per_ref": (cells / busy_ref, "1/ref"),
        "objective_mean_s": (math.fsum(o for o, _ in loop.quality) / n_sol, "s"),
        "feasible_share": (sum(1 for _, f in loop.quality if f) / n_sol, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    wall = {
        "op_s.p50": (statistics.median(xs), "s"),
        "op_s.tail": (nearest_rank(xs, q), "s"),
        "decisions_per_s": (decisions / busy, "1/s"),
        "cells_per_s": (cells / busy, "1/s"),
        "reference_cpu_s.p50": (statistics.median(refs), "s"),
    }
    beyond = n - math.ceil(q * n / 100)
    notes = {
        "samples": f"{n} operations; tail = p{q} ({beyond} beyond); pool of {len(inputs)} inputs",
        "work": f"{decisions} decisions, {cells} cells in {busy:.3f} s = {busy_ref:.1f} ref",
        "reference": f"{reps} reference runs between operations, median of each batch",
        "quality": f"objective_mean_s and feasible_share over {n_sol} solutions of the first pass",
        "setup_s": f"median of {SETUP_PROBES} fresh-interpreter set-ups: "
        + ", ".join(f"{s:.4f}" for s in setup),
    }
    ident = {
        "digest": loop.digest(len(inputs)),
        "pool": len(inputs),
        "wall": {k: {"value": v, "unit": u} for k, (v, u) in wall.items()},
        "op_wall_s": times,
        "op_ref": costs,
        "reference_cpu_s": refs,
    }
    return loop, metrics, notes, ident


def traced_run(wl, seed: int, seconds: float):
    import tracing

    inputs = wl.make_inputs(seed)[: wl.trace_pool]
    loop = Loop(wl, inputs)
    loop.once(0)
    loop.prints.clear()
    t_start = time.perf_counter()

    # counting pass: deterministic counters over the fixed subset
    counter = tracing.Tracer(count_distinct=True)
    bytes_written = 0
    for i in range(len(inputs)):
        loop.once(i, counter)
        bytes_written += wl.bytes_written(inputs[i])
    counts = counter.summary()

    # timing pairs: untraced and traced runs of one input, order alternating
    timer = tracing.Tracer()
    plain, traced = [], []
    k = 0
    while k < 1 or time.perf_counter() - t_start < seconds:
        i = k % len(inputs)
        pair = (None, timer) if k % 2 == 0 else (timer, None)
        dts = [loop.once(i, t) for t in pair]
        if None not in dts:
            untraced_dt, traced_dt = dts if k % 2 == 0 else dts[::-1]
            plain.append(untraced_dt[1])
            traced.append(traced_dt[1])
        k += 1
    times = timer.summary()
    OUT.mkdir(exist_ok=True)
    timer.save(OUT / f"{wl.name}.spans.npz")

    layers = tracing.LAYERS
    wall = times["wall_s"]
    n_ops = len(traced)
    metrics = {}
    for j, name in enumerate(layers):
        metrics[f"{name}.calls"] = (int(counts["calls"][j]), "count")
        self_s = float(times["self_s"][j])
        metrics[f"{name}.self_pct"] = (100.0 * self_s / wall, "%")
        metrics[f"{name}.self_ms_per_op"] = (1e3 * self_s / n_ops, "ms/op")

    def per_call(name):
        j = layers.index(name)
        calls = int(times["calls"][j])
        return 1e6 * float(times["inclusive_s"][j]) / calls if calls else 0.0

    def ratio(name):
        calls = int(counts["calls"][layers.index(name)])
        return len(counter.distinct[name]) / calls if calls else 0.0

    for name in ("evaluator.fitness", "evaluator.objective_and_feasible",
                 "evaluator.init", "evaluator.result"):
        metrics[f"{name}.us_per_call"] = (per_call(name), "us/call")
    step_self = float(times["self_s"][layers.index("solvers.woa_step")])
    exh_self = float(times["self_s"][layers.index("solvers.exhaustive_solve")])
    metrics["solvers.woa_step.us_per_agent_iter"] = (
        1e6 * step_self / times["agent_iters"] if times["agent_iters"] else 0.0, "us/agent-iter")
    metrics["solvers.exhaustive_solve.us_per_decision"] = (
        1e6 * exh_self / times["enumerated"] if times["enumerated"] else 0.0, "us/decision")
    metrics["evaluator.fitness.distinct_ratio"] = (ratio("evaluator.fitness"), "ratio")
    metrics["scenario.generate.distinct_ratio"] = (ratio("scenario.generate"), "ratio")
    metrics["experiments.bytes_written"] = (bytes_written, "B")
    metrics["trace.overhead_pct"] = (100.0 * (math.fsum(traced) / math.fsum(plain) - 1.0), "%")
    metrics["trace.op_ms"] = (1e3 * wall / n_ops, "ms/op")
    metrics["trace.traced_ops"] = (n_ops, "count")

    notes = {
        "calls": f"counted over one pass of {len(inputs)} inputs; bytes_written "
        "excludes timings.csv, whose wall-clock content varies",
        "times": f"{n_ops} traced operations, paired with {len(plain)} untraced ones",
    }
    return loop, metrics, notes, {"digest": loop.digest(len(inputs)), "pool": len(inputs)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    add_package_source()
    os.chdir(ROOT)
    import uavmec
    from workloads import WORKLOADS

    if Path(uavmec.__file__).resolve().parent != SRC / "uavmec":
        raise SystemExit(f"bench: uavmec imported from {uavmec.__file__}, not {SRC}")
    if args.workload not in WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    run = traced_run if args.trace else timed_run
    loop, metrics, notes, ident = run(wl, args.seed, args.seconds)

    correct = loop.failed == 0
    report = {
        "workload": wl.name,
        "why": wl.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "failed_share": loop.failed / loop.attempted,
        "problems": loop.problems[:20],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes,
        **ident,
        "stamp": machine_stamp(args.seed),
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  -- {wl.why}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value!r} {unit}")
    for name, m in ident.get("wall", {}).items():
        print(f"  wall {name:43s} {m['value']!r} {m['unit']}")
    for key, text in notes.items():
        print(f"  note {key}: {text}")
    print(f"  failed_share {loop.failed}/{loop.attempted}")
    for problem in loop.problems[:5]:
        print(f"  FAILED {problem}")
    print(f"  digest {ident['digest']} (pool of {ident['pool']} inputs)")
    print("  stamp " + json.dumps(report["stamp"], sort_keys=True))
    print(f"  report {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": report["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

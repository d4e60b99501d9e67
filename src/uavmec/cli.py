"""Command-line front end.

Verbs: generate (write a scenario file), solve (one instance), sweep
(run an experiment spec), summarize (stats over a results.csv),
plot-data (tidy per-curve series for one figure).

Exit codes: 0 success, 2 the run finished but found only infeasible
outcomes, 1 any error. The default output directory comes from
UAVMEC_OUTPUT_DIR (falling back to the current directory).

All randomness flows from --seed. The splitting scheme, everywhere:
scenario generation uses SeedSequence([seed, 0]) and the solver uses
SeedSequence([seed, 1]), so the two branches never correlate.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

import numpy as np

from . import __version__
from .evaluator import PENALTY_MODES, UPLOAD_MODELS, Evaluator, _penalty, _Plan
from .experiments import (
    FIGURES,
    ExperimentSpec,
    emit_plot_data,
    rows_from_csv,
    run_experiment,
    summarize,
    summary_to_csv,
)
from .scenario import generate_scenario, load_scenario, save_scenario, validate_scenario
from .solvers import ALLOCATORS, SOLVERS, DwoaConfig, NoFeasibleDecisionError, _count, _SWARM_COUNTS, solver_seed


def _out_dir() -> str:
    return os.environ.get("UAVMEC_OUTPUT_DIR", ".")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="uavmec",
        description="Latency/energy simulator and solvers for cooperative "
        "UAV edge offloading of dependency tasks.",
    )
    ap.add_argument("--version", action="version", version=f"uavmec {__version__}")
    sub = ap.add_subparsers(dest="verb", required=True)

    g = sub.add_parser("generate", help="generate and save a random scenario")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--uavs", type=int, default=4)
    g.add_argument("--users-min", type=int, default=2)
    g.add_argument("--users-max", type=int, default=10)
    g.add_argument("--active", type=int, default=3)
    g.add_argument("--subtasks", type=int, default=10)
    g.add_argument("--out", default=None, help="output file (default scenario_<seed>.json)")

    s = sub.add_parser("solve", help="solve one instance")
    s.add_argument("--scenario", default=None, help="scenario file; generated from --seed if omitted")
    s.add_argument("--solver", choices=tuple(SOLVERS), default="dwoa")
    s.add_argument("--alloc", choices=tuple(ALLOCATORS), default="equal")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--agents", type=int, default=100)
    s.add_argument("--iters", type=int, default=50)
    s.add_argument("--lambda", dest="lambda_", type=float, default=0.1)
    s.add_argument("--penalty-mode", choices=PENALTY_MODES, default="penalty")
    s.add_argument("--upload-model", choices=UPLOAD_MODELS, default="cumulative")
    # generation only; the generator's defaults (4, 3, 10) when omitted
    s.add_argument("--uavs", dest="uav_count", type=int, default=argparse.SUPPRESS)
    s.add_argument("--active", dest="active_users", type=int, default=argparse.SUPPRESS)
    s.add_argument("--subtasks", dest="subtasks_per_task", type=int, default=argparse.SUPPRESS)
    s.add_argument("--out", default=None, help="write the run as JSON here")

    w = sub.add_parser("sweep", help="run an experiment spec file")
    w.add_argument("spec", help="experiment spec JSON")
    w.add_argument("--out", default=None, help="override the spec's output directory")

    m = sub.add_parser("summarize", help="summary stats for a results.csv")
    m.add_argument("results", help="results.csv from a sweep")
    m.add_argument("--out", default=None, help="write CSV here instead of stdout")

    p = sub.add_parser("plot-data", help="emit tidy series files for one figure")
    p.add_argument("results", help="results.csv from a sweep")
    p.add_argument("--figure", choices=FIGURES, required=True)
    p.add_argument("--traces", default=None, help="traces/ directory (convergence figures)")
    p.add_argument("--out", default=None, help="output directory")
    return ap


def _cmd_generate(args) -> int:
    _count("seed", args.seed, *_SWARM_COUNTS["seed"])  # before any stream reads it
    # a scenario with no active user or sub-task is one every solver refuses
    for name in ("active", "subtasks"):
        _count(name, getattr(args, name), 1, None)
    scenario = generate_scenario(
        np.random.SeedSequence([args.seed, 0]),
        uav_count=args.uavs,
        users_per_uav=(args.users_min, args.users_max),
        active_users=args.active,
        subtasks_per_task=args.subtasks,
    )
    problems = validate_scenario(scenario)
    if problems:
        print("invalid scenario: " + "; ".join(problems), file=sys.stderr)
        return 1
    out = args.out or os.path.join(_out_dir(), f"scenario_{args.seed}.json")
    save_scenario(scenario, out)
    print(out)
    return 0


def _cmd_solve(args) -> int:
    _count("seed", args.seed, *_SWARM_COUNTS["seed"])  # before any stream reads it
    penalty = _penalty(args.penalty_mode, args.lambda_)
    shape = {k: v for k, v in vars(args).items() if k in ("uav_count", "active_users", "subtasks_per_task")}
    if args.scenario:
        if shape:
            raise ValueError("--uavs, --active and --subtasks shape a generated scenario; "
                             "drop them next to --scenario")
        scenario = load_scenario(args.scenario)
    else:
        scenario = generate_scenario(np.random.SeedSequence([args.seed, 0]), **shape)
    cfg = DwoaConfig(
        agents=args.agents,
        max_iterations=args.iters,
        penalty=penalty,
        seed=solver_seed(args.seed),
        upload_model=args.upload_model,
    )
    # load_scenario validated a file's scenario; the plan validates a generated one
    plan = _Plan(scenario, checked=bool(args.scenario))
    ev = Evaluator(scenario, ALLOCATORS[args.alloc](scenario), penalty, args.upload_model, _plan=plan)
    try:
        run = SOLVERS[args.solver](ev, cfg)
    except NoFeasibleDecisionError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    if not run.config:  # a parameterless run records the split it was scored under
        run.config = {"allocator": args.alloc}

    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as f:
            f.write(run.to_json())
            f.write("\n")
    print(
        f"solver={run.solver} objective_s={run.objective_s!r} "
        f"feasible={str(run.feasible).lower()}"
    )
    return 0 if run.feasible else 2


def _cmd_sweep(args) -> int:
    spec = ExperimentSpec.from_json_file(args.spec)
    out = args.out
    if out is None and not spec.output_dir:
        out = _out_dir()
    if out is not None:
        import dataclasses

        spec = dataclasses.replace(spec, output_dir=out)
    rows, paths = run_experiment(spec)
    print(paths["results"])
    solved = [r for r in rows if not r.error]
    if solved and all(r.feasible is False for r in solved):
        return 2
    return 0


def _cmd_summarize(args) -> int:
    with open(args.results, encoding="utf-8") as f:
        rows = rows_from_csv(f.read())
    text = summary_to_csv(summarize(rows))
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
        print(args.out)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_plot_data(args) -> int:
    with open(args.results, encoding="utf-8") as f:
        rows = rows_from_csv(f.read())
    results_dir = os.path.dirname(os.path.abspath(args.results))
    traces = args.traces or os.path.join(results_dir, "traces")
    out = args.out or os.path.join(_out_dir(), "plot-data")
    for path in emit_plot_data(rows, args.figure, out, traces):
        print(path)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage; keep 2 reserved for infeasible
        return 0 if exc.code in (0, None) else 1
    try:
        if args.verb == "generate":
            return _cmd_generate(args)
        if args.verb == "solve":
            return _cmd_solve(args)
        if args.verb == "sweep":
            return _cmd_sweep(args)
        if args.verb == "summarize":
            return _cmd_summarize(args)
        return _cmd_plot_data(args)
    except Exception as exc:  # noqa: BLE001 - single CLI error funnel
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

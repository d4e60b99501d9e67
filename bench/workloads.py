"""The benchmark's workloads: inputs from a base seed, the operation,
and the checks each operation's output must pass.

Every workload is a closed loop over a pool of inputs built from the
base seed: the next operation starts when the previous one returns.
Each workload has a pool size, the size of the fixed subset a traced
run uses (trace_pool), and exposes

    make_inputs(seed)   -> list of inputs (the pool)
    prepare(inp)        state reset done outside the timed call
    run(inp)            the operation: one call into the package
    check(inp, out)     -> list of problems (empty when correct)
    fingerprint(out)    -> bytes that identify the output exactly
    bytes_written(inp)  bytes the last operation on inp left on disk
    quality(out)        -> list of (objective_s, feasible) per solution
    decisions(inp)      candidate decisions the operation scores
    cells(inp)          solver cells the operation completes

Operations call the package through module attributes (``uavmec.x``),
so the span wrappers of tracing.py see them.
"""
from __future__ import annotations

import json
import os
import shutil
from typing import List, Tuple

import numpy as np

import uavmec

DESK_TASK = dict(size_mean_bits=1e6, size_std_bits=2e5)


def _seq(*key: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([int(k) for k in key])


def _u32(*key: int) -> int:
    return int(_seq(*key).generate_state(1)[0])


def _non_increasing(trace) -> bool:
    return all(b <= a for a, b in zip(trace, trace[1:]))


class _SolverWorkload:
    """Shared shape of the two single-solve workloads: an input is
    (scenario, beta, extra) and the output is a SolverRun."""

    name = ""
    tag = 0
    pool = 0
    trace_pool = 0

    def scenario(self, seed: int, i: int):
        raise NotImplementedError

    def make_inputs(self, seed: int) -> List[tuple]:
        out = []
        for i in range(self.pool):
            sc = self.scenario(seed, i)
            out.append((sc, uavmec.alloc_equal(sc), _u32(seed, self.tag, i, 1)))
        return out

    def prepare(self, inp) -> None:
        pass

    def fingerprint(self, out) -> bytes:
        run, sc = out
        vec = uavmec.decision_to_vector(sc, run.decision)
        return repr((vec, run.objective_s, run.feasible, run.trace)).encode()

    def quality(self, out) -> List[Tuple[float, bool]]:
        return [(out[0].objective_s, out[0].feasible)]

    def cells(self, inp) -> int:
        return 1

    def bytes_written(self, inp) -> int:
        return 0


class DwoaLarge(_SolverWorkload):
    name = "dwoa-large"
    tag = 1
    pool = 16
    trace_pool = 2
    why = (
        "dwoa_solve 100 agents x 50 iterations, equal split, penalty mode; V=9, "
        "5 users x 40 sub-tasks (M=200), 1 Mb tasks, loose budget: fitness kernel "
        "and swarm update dominate"
    )

    def scenario(self, seed, i):
        return uavmec.generate_scenario(
            _seq(seed, self.tag, i),
            uav_count=9,
            users_per_uav=(1, 2),
            active_users=5,
            subtasks_per_task=40,
            energy_per_subtask_j=1e9 / 40,
            task_params=dict(DESK_TASK),
        )

    def config(self, solver_seed: int):
        return uavmec.DwoaConfig(seed=solver_seed)

    def run(self, inp):
        sc, beta, solver_seed = inp
        return uavmec.dwoa_solve(sc, beta, self.config(solver_seed)), sc

    def check(self, inp, out) -> List[str]:
        sc, beta, solver_seed = inp
        run = out[0]
        cfg = self.config(solver_seed)
        problems = []
        res = uavmec.evaluate(run.decision, beta, sc, cfg.penalty)
        if res.objective_s != run.objective_s:
            problems.append(f"re-scored objective {res.objective_s!r} != {run.objective_s!r}")
        if res.feasible != run.feasible:
            problems.append("re-scored feasible flag differs")
        if len(run.trace) != cfg.max_iterations:
            problems.append(f"trace has {len(run.trace)} entries, want {cfg.max_iterations}")
        elif not _non_increasing(run.trace):
            problems.append("trace increases")
        elif run.trace[-1] != res.penalized_s:
            problems.append("last trace entry is not the returned decision's fitness")
        return problems

    def decisions(self, inp) -> int:
        cfg = self.config(inp[2])
        return cfg.agents * (cfg.max_iterations + 1)


class ExhaustiveSmall(_SolverWorkload):
    name = "exhaustive-small"
    tag = 2
    pool = 128
    trace_pool = 16
    why = (
        "exhaustive_solve over 3^8 = 6561 decisions; V=3, 1 user x 8 sub-tasks, loose "
        "budget: per-call scoring cost dominates, no swarm and no repeated decision"
    )

    def scenario(self, seed, i):
        return uavmec.generate_scenario(
            _seq(seed, self.tag, i),
            uav_count=3,
            active_users=1,
            subtasks_per_task=8,
            energy_per_subtask_j=1e9 / 8,
            task_params=dict(DESK_TASK),
        )

    def run(self, inp):
        sc, beta, _ = inp
        return uavmec.exhaustive_solve(sc, beta), sc

    def check(self, inp, out) -> List[str]:
        sc, beta, _ = inp
        run = out[0]
        problems = []
        res = uavmec.evaluate(run.decision, beta, sc)
        if res.objective_s != run.objective_s:
            problems.append(f"re-scored objective {res.objective_s!r} != {run.objective_s!r}")
        if res.feasible != run.feasible or not run.feasible:
            problems.append("optimum is not feasible on re-scoring")
        base = uavmec.evaluate(uavmec.associated_decision(sc), beta, sc)
        if base.feasible and run.objective_s > base.objective_s:
            problems.append("optimum is worse than the associated baseline")
        return problems

    def decisions(self, inp) -> int:
        sc = inp[0]
        m = sum(len(t.non_dummy()) for t in sc.tasks)
        return len(sc.uavs) ** m


class SweepCells:
    """One run_experiment call for one row seed: allocator axis (3 values)
    x solvers associated/dwoa x energy modes limited/unlimited = 12 rows."""

    name = "sweep-cells"
    tag = 3
    pool = 64
    trace_pool = 16
    why = (
        "run_experiment, allocator axis x associated/dwoa(5x5) x limited/unlimited = "
        "12 cells per call; V=4, 3 users x 10 sub-tasks, binding budget: per-cell "
        "set-up, result() and I/O"
    )
    out_dir = os.path.join(".bench_out", "sweep-op")

    def make_inputs(self, seed: int) -> list:
        out = []
        for i in range(self.pool):
            out.append(
                uavmec.ExperimentSpec(
                    experiment_id="bench",
                    axis="allocator",
                    values=("equal", "proportional", "optimal"),
                    seeds=(_u32(seed, self.tag, i),),
                    output_dir=self.out_dir,
                    generator=dict(
                        uav_count=4,
                        users_per_uav=(2, 4),
                        active_users=3,
                        subtasks_per_task=10,
                        task_params=dict(DESK_TASK),
                    ),
                    solvers=("associated", "dwoa"),
                    energy_modes=("limited", "unlimited"),
                    agents=5,
                    max_iterations=5,
                )
            )
        return out

    def prepare(self, spec) -> None:
        # each call writes into a fresh directory at a fixed relative path,
        # so manifest.json (which echoes output_dir) is the same every time
        shutil.rmtree(spec.output_dir, ignore_errors=True)

    def run(self, spec):
        rows, paths = uavmec.run_experiment(spec)
        with open(paths["results"], "rb") as f:
            csv_bytes = f.read()
        return rows, paths, csv_bytes

    def expected_rows(self, spec) -> int:
        return len(spec.values) * len(spec.seeds) * len(spec.solvers) * len(spec.energy_modes)

    def check(self, spec, out) -> List[str]:
        rows, paths, csv_bytes = out
        problems = []
        if len(rows) != self.expected_rows(spec):
            problems.append(f"{len(rows)} rows, want {self.expected_rows(spec)}")
        if uavmec.rows_from_csv(csv_bytes.decode()) != rows:
            problems.append("results.csv does not round-trip to the returned rows")
        for row in rows:
            if row.error:
                problems.append(f"row error: {row.error}")
                continue
            problems.extend(self._rescore(spec, row, paths["traces"]))
        return problems

    def _rescore(self, spec, row, traces_dir) -> List[str]:
        """Recompute one row from public calls, following the seed split
        documented in uavmec.experiments: scenario SeedSequence([s, 0]),
        solver SeedSequence([s, 1])."""
        sc = uavmec.generate_scenario(_seq(row.seed, 0), **spec.generator)
        if row.energy_mode == "unlimited":
            sc = uavmec.with_unlimited_energy(sc)
        beta = uavmec.ALLOCATORS[row.allocator](sc)
        penalty = uavmec.PenaltyConfig(lambda_=spec.penalty_lambda)
        trace = None
        if row.solver == "dwoa":
            cfg = uavmec.DwoaConfig(
                agents=spec.agents,
                max_iterations=spec.max_iterations,
                penalty=penalty,
                seed=_u32(row.seed, 1),
            )
            decision = uavmec.dwoa_solve(sc, beta, cfg).decision
            name = f"{row.value}_{row.seed}_{row.solver}_{row.allocator}_{row.energy_mode}.json"
            with open(os.path.join(traces_dir, name), encoding="utf-8") as f:
                trace = json.load(f)["trace"]
        else:
            decision = uavmec.associated_decision(sc)
        res = uavmec.evaluate(decision, beta, sc, penalty)
        where = f"{row.solver}/{row.allocator}/{row.energy_mode}"
        problems = []
        if res.objective_s != row.objective_s:
            problems.append(f"{where}: objective {row.objective_s!r} != re-scored {res.objective_s!r}")
        if res.feasible != row.feasible:
            problems.append(f"{where}: feasible flag differs from re-scoring")
        if trace is not None:
            if len(trace) != spec.max_iterations:
                problems.append(f"{where}: trace has {len(trace)} entries")
            elif not _non_increasing(trace):
                problems.append(f"{where}: trace increases")
            elif trace[-1] != res.penalized_s:
                problems.append(f"{where}: last trace entry is not the row's fitness")
        return problems

    def fingerprint(self, out) -> bytes:
        return out[2]

    def quality(self, out) -> List[Tuple[float, bool]]:
        return [(r.objective_s, r.feasible) for r in out[0]]

    def decisions(self, spec) -> int:
        # per (allocator, seed, energy mode): a dwoa cell scores
        # agents x (iterations + 1) decisions, an associated cell one
        pairs = len(spec.values) * len(spec.seeds) * len(spec.energy_modes)
        return pairs * (spec.agents * (spec.max_iterations + 1) + 1)

    def cells(self, spec) -> int:
        return self.expected_rows(spec)

    def bytes_written(self, spec) -> int:
        """Every file of the output directory except timings.csv, whose
        wall-clock content changes from run to run."""
        total = 0
        for dirpath, _, files in os.walk(spec.output_dir):
            for name in files:
                if name != "timings.csv":
                    total += os.path.getsize(os.path.join(dirpath, name))
        return total


WORKLOADS = {w.name: w for w in (DwoaLarge(), ExhaustiveSmall(), SweepCells())}

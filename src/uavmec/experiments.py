"""Multi-seed experiment sweeps over one axis, with deterministic output.

Axes: agents, users, subtasks, penalty_lambda, energy_mode, allocator,
solver. Every sweep writes four things into its output directory:

  results.csv   one row per (axis value, seed, scheme); fixed columns
                experiment,seed,axis,value,solver,allocator,energy_mode,
                objective_s,computation_s,distributed_s,comm_s,
                mean_rate_bps,energy_j,feasible,error
  timings.csv   wall-clock per row, kept out of results.csv so a re-run
                from the manifest reproduces results.csv byte for byte
  traces/       per-run convergence traces (searching solvers only)
  manifest.json config echo + package version; rerun_from_manifest(path)
                repeats the sweep exactly

Scenario and solver randomness are split from the row seed s as
SeedSequence([s, 0]) and SeedSequence([s, 1]) respectively, so the two
never share a stream.

Each input a cell reads is built once and shared by every cell that
reads the same input: one scenario per generator input (the seed, plus
the axis value on the users and subtasks axes; the unlimited energy mode
is that scenario with infinite budgets), one allocation per (scenario,
energy mode, allocator) and one Evaluator per (scenario, energy mode,
allocator, penalty), which the dwoa, exhaustive and associated cells
search and score with. alternating picks its own allocation and so
builds its own. Cells run grouped by these keys, holding one input of
each kind at a time. results.csv stays byte-identical to building every
input per cell: each input is a pure function of its key, and an
Evaluator's scoring buffers are reset on every call, so no cell sees
another's state. Rows are sorted into the fixed output order at the end.
"""
from __future__ import annotations

import dataclasses
import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from . import channel
from .channel import BandwidthAllocation
from .evaluator import Evaluator, PenaltyConfig, decision_latency_breakdown, evaluate
from .scenario import (
    MB_BITS,
    PhysicsConstants,
    Scenario,
    UavNode,
    UserNode,
    generate_scenario,
    generate_task_dag,
    load_scenario,
)
from .solvers import (
    ALLOCATORS,
    DwoaConfig,
    NoFeasibleDecisionError,
    alternating_solve,
    associated_decision,
    dwoa_search,
    dwoa_solve,  # noqa: F401 - kept importable from this module
    exhaustive_search,
    exhaustive_solve,  # noqa: F401
)

AXES = (
    "agents",
    "users",
    "subtasks",
    "penalty_lambda",
    "energy_mode",
    "allocator",
    "solver",
)
SOLVERS = ("dwoa", "exhaustive", "associated", "alternating")
ENERGY_MODES = ("limited", "unlimited")

RESULT_COLUMNS = (
    "experiment",
    "seed",
    "axis",
    "value",
    "solver",
    "allocator",
    "energy_mode",
    "objective_s",
    "computation_s",
    "distributed_s",
    "comm_s",
    "mean_rate_bps",
    "energy_j",
    "feasible",
    "error",
)


@dataclass(frozen=True)
class ExperimentSpec:
    experiment_id: str
    axis: str
    values: Tuple[object, ...]
    seeds: Tuple[int, ...]
    output_dir: str
    scenario_file: Optional[str] = None
    generator: Dict[str, object] = field(default_factory=dict)
    solvers: Tuple[str, ...] = ("dwoa",)
    allocators: Tuple[str, ...] = ("equal",)
    energy_modes: Tuple[str, ...] = ("limited",)
    agents: int = 100
    max_iterations: int = 50
    penalty_lambda: float = 0.1
    penalty_mode: str = "penalty"
    upload_model: str = "cumulative"

    def validate(self) -> List[str]:
        out = []
        if self.axis not in AXES:
            out.append(f"unknown axis {self.axis!r}")
        if not self.values:
            out.append("need at least one axis value")
        if not self.seeds:
            out.append("need at least one seed (replications >= 1)")
        if len(set(self.seeds)) != len(self.seeds):
            out.append("seeds must be distinct")
        if not self.output_dir:
            out.append("output_dir must be set")
        solvers = self.values if self.axis == "solver" else self.solvers
        for s in solvers:
            if s not in SOLVERS:
                out.append(f"unknown solver {s!r}")
        allocs = self.values if self.axis == "allocator" else self.allocators
        for a in allocs:
            if a not in ALLOCATORS:
                out.append(f"unknown allocator {a!r}")
        modes = self.values if self.axis == "energy_mode" else self.energy_modes
        for m in modes:
            if m not in ENERGY_MODES:
                out.append(f"unknown energy mode {m!r}")
        if self.axis in ("users", "subtasks") and self.scenario_file:
            out.append(f"axis {self.axis} regenerates scenarios; scenario_file unsupported")
        if self.axis == "agents":
            bad = [s for s in solvers if s not in ("dwoa", "alternating")]
            if bad:
                out.append(f"agents axis needs a searching solver, got {bad}")
        if self.axis == "penalty_lambda":
            for v in self.values:
                if v != "hard" and (not isinstance(v, (int, float)) or v <= 0):
                    out.append(f"penalty_lambda value {v!r} must be positive or 'hard'")
        return out

    def to_dict(self) -> Dict[str, object]:
        d = dataclasses.asdict(self)
        d["values"] = list(self.values)
        d["seeds"] = list(self.seeds)
        d["solvers"] = list(self.solvers)
        d["allocators"] = list(self.allocators)
        d["energy_modes"] = list(self.energy_modes)
        return d

    @staticmethod
    def from_dict(d: Dict[str, object]) -> "ExperimentSpec":
        return ExperimentSpec(
            experiment_id=d["experiment_id"],
            axis=d["axis"],
            values=tuple(d["values"]),
            seeds=tuple(int(s) for s in d["seeds"]),
            output_dir=d["output_dir"],
            scenario_file=d.get("scenario_file"),
            # JSON has no tuples; sequence-valued generator params come
            # back as lists, so re-tuple them for spec equality
            generator={
                k: tuple(v) if isinstance(v, list) else v
                for k, v in dict(d.get("generator", {})).items()
            },
            solvers=tuple(d.get("solvers", ("dwoa",))),
            allocators=tuple(d.get("allocators", ("equal",))),
            energy_modes=tuple(d.get("energy_modes", ("limited",))),
            agents=int(d.get("agents", 100)),
            max_iterations=int(d.get("max_iterations", 50)),
            penalty_lambda=float(d.get("penalty_lambda", 0.1)),
            penalty_mode=d.get("penalty_mode", "penalty"),
            upload_model=d.get("upload_model", "cumulative"),
        )

    @staticmethod
    def from_json_file(path: str) -> "ExperimentSpec":
        with open(path, encoding="utf-8") as f:
            return ExperimentSpec.from_dict(json.load(f))


@dataclass
class ResultRow:
    experiment: str
    seed: int
    axis: str
    value: str
    solver: str
    allocator: str
    energy_mode: str
    objective_s: Optional[float] = None
    computation_s: Optional[float] = None
    distributed_s: Optional[float] = None
    comm_s: Optional[float] = None
    mean_rate_bps: Optional[float] = None
    energy_j: Dict[int, float] = field(default_factory=dict)
    feasible: Optional[bool] = None
    error: str = ""
    wall_time_s: float = field(default=0.0, compare=False)


def _fmt(x: Optional[float]) -> str:
    return "" if x is None else repr(float(x))


def _fmt_energy(e: Dict[int, float]) -> str:
    return ";".join(f"{k}:{float(v)!r}" for k, v in sorted(e.items()))


def _sanitize(text: str) -> str:
    return text.replace(",", ";").replace("\n", " ").replace("\r", " ")


def rows_to_csv(rows: Sequence[ResultRow]) -> str:
    lines = [",".join(RESULT_COLUMNS)]
    for r in rows:
        lines.append(
            ",".join(
                (
                    r.experiment,
                    str(r.seed),
                    r.axis,
                    r.value,
                    r.solver,
                    r.allocator,
                    r.energy_mode,
                    _fmt(r.objective_s),
                    _fmt(r.computation_s),
                    _fmt(r.distributed_s),
                    _fmt(r.comm_s),
                    _fmt(r.mean_rate_bps),
                    _fmt_energy(r.energy_j),
                    "" if r.feasible is None else ("true" if r.feasible else "false"),
                    _sanitize(r.error),
                )
            )
        )
    return "\n".join(lines) + "\n"


def rows_from_csv(text: str) -> List[ResultRow]:
    lines = text.strip("\n").split("\n")
    header = lines[0].split(",")
    if tuple(header) != RESULT_COLUMNS:
        raise ValueError(f"unexpected columns {header}")
    out = []
    for line in lines[1:]:
        c = line.split(",")
        energy = {}
        if c[12]:
            for part in c[12].split(";"):
                k, v = part.split(":")
                energy[int(k)] = float(v)
        out.append(
            ResultRow(
                experiment=c[0],
                seed=int(c[1]),
                axis=c[2],
                value=c[3],
                solver=c[4],
                allocator=c[5],
                energy_mode=c[6],
                objective_s=float(c[7]) if c[7] else None,
                computation_s=float(c[8]) if c[8] else None,
                distributed_s=float(c[9]) if c[9] else None,
                comm_s=float(c[10]) if c[10] else None,
                mean_rate_bps=float(c[11]) if c[11] else None,
                energy_j=energy,
                feasible=None if c[13] == "" else c[13] == "true",
                error=c[14],
            )
        )
    return out


def with_unlimited_energy(scenario: Scenario) -> Scenario:
    uavs = tuple(
        dataclasses.replace(v, energy_budget_j=math.inf) for v in scenario.uavs
    )
    return dataclasses.replace(scenario, uavs=uavs)


def generate_user_sweep_family(
    seed: int,
    users: int,
    max_users: int = 10,
    subtasks: int = 4,
    region_m: Tuple[float, float] = (400.0, 400.0),
    altitude_m: float = 50.0,
    compute_hz: float = 1e9,
    size_mean_bits: float = 6 * MB_BITS,
) -> Scenario:
    """Single-UAV scenario family coupled across user counts.

    All max_users candidate positions are drawn once from the seed and
    sorted by distance to the UAV; a sweep value of k serves the k
    closest and activates the closest ceil(k/2). Growing k therefore
    only appends users, and every task is drawn from a per-slot stream,
    so shared users carry identical tasks at every k. Task sizes have
    zero variance so allocator comparisons see identical demands.
    """
    if not 1 <= users <= max_users:
        raise ValueError(f"users must be in [1, {max_users}]")
    base = np.random.SeedSequence([int(seed), 0])
    rng = np.random.Generator(np.random.PCG64(base))
    cx, cy = region_m[0] / 2.0, region_m[1] / 2.0
    pts = rng.uniform((0.0, 0.0), region_m, size=(max_users, 2))
    d2 = (pts[:, 0] - cx) ** 2 + (pts[:, 1] - cy) ** 2
    order = np.argsort(d2, kind="stable")
    pts = pts[order]

    uav = UavNode(
        id=1,
        position_m=(cx, cy, altitude_m),
        max_compute_hz=compute_hz,
        energy_budget_j=math.inf,
    )
    n_active = math.ceil(users / 2)
    user_nodes = []
    tasks = []
    for i in range(users):
        uid = i + 1
        active = i < n_active
        user_nodes.append(
            UserNode(
                id=uid,
                position_m=(float(pts[i, 0]), float(pts[i, 1])),
                associated_uav=1,
                active=active,
            )
        )
        if active:
            task_ss = np.random.SeedSequence([int(seed), 1, i])
            tasks.append(
                generate_task_dag(
                    task_ss,
                    subtasks,
                    owner_user=uid,
                    size_mean_bits=size_mean_bits,
                    size_std_bits=0.0,
                )
            )
    return Scenario(
        physics=PhysicsConstants(),
        uavs=(uav,),
        users=tuple(user_nodes),
        tasks=tuple(tasks),
        bs_position_m=(cx, cy, 0.0),
    )


def mean_uplink_rate(scenario: Scenario, beta) -> float:
    rates = []
    for t in scenario.tasks:
        user = scenario.user_by_id(t.owner_user)
        uav = scenario.uav_by_id(user.associated_uav)
        rates.append(
            channel.user_uplink_rate(
                user, uav, beta.fraction(uav.id, user.id), scenario.physics
            )
        )
    return math.fsum(rates) / len(rates)


def _solver_seed(row_seed: int) -> int:
    return int(np.random.SeedSequence([int(row_seed), 1]).generate_state(1)[0])


def _build_scenario(spec: ExperimentSpec, seed: int, value) -> Scenario:
    if spec.scenario_file:
        return load_scenario(spec.scenario_file)
    if spec.axis == "users":
        return generate_user_sweep_family(seed, int(value), **spec.generator)
    params = dict(spec.generator)
    if spec.axis == "subtasks":
        params["subtasks_per_task"] = int(value)
    return generate_scenario(np.random.SeedSequence([int(seed), 0]), **params)


def _penalty_for(spec: ExperimentSpec, value) -> PenaltyConfig:
    if spec.axis == "penalty_lambda":
        if value == "hard":
            return PenaltyConfig(mode="hard")
        return PenaltyConfig(lambda_=float(value))
    if spec.penalty_mode == "hard":
        return PenaltyConfig(mode="hard")
    return PenaltyConfig(lambda_=spec.penalty_lambda)


def _input_key(spec: ExperimentSpec, value, seed: int, alloc: str, emode: str) -> Tuple:
    """(generator input, energy mode, allocator, penalty input) of a cell.

    Its prefixes key the inputs the cell reads: the generated scenario,
    the scenario in its energy mode, the allocation and the Evaluator.
    The generator reads the axis value only on the users and subtasks
    axes, and the penalty only on the penalty_lambda axis.
    """
    gen = (seed, str(value)) if spec.axis in ("users", "subtasks") else (seed,)
    pen = str(value) if spec.axis == "penalty_lambda" else ""
    return (gen, emode, alloc, pen)


def _cells(spec: ExperimentSpec) -> List[Tuple[Tuple, object, int, str, str, str]]:
    """Every cell of the sweep as (input key, value, seed, solver,
    allocator, energy mode), sorted by input key."""
    solvers = spec.values if spec.axis == "solver" else spec.solvers
    allocators = spec.values if spec.axis == "allocator" else spec.allocators
    emodes = spec.values if spec.axis == "energy_mode" else spec.energy_modes
    cells = []
    for value in spec.values:
        for seed in spec.seeds:
            for solver in [value] if spec.axis == "solver" else solvers:
                for alloc in [value] if spec.axis == "allocator" else allocators:
                    for emode in [value] if spec.axis == "energy_mode" else emodes:
                        key = _input_key(spec, value, seed, str(alloc), str(emode))
                        cells.append((key, value, seed, str(solver), str(alloc), str(emode)))
    return sorted(cells, key=lambda c: c[0])


class _SharedInputs:
    """The scenario, allocation and Evaluator of the current cell.

    Each is built on first use and held until a cell asks for it under
    another key. Cells run sorted by _input_key, so each is built once
    per sweep and only one of each is held at a time. A build error is
    held too and re-raised for every cell that reads the input, so each
    of those cells records the error it would have met building it.
    """

    def __init__(self, spec: ExperimentSpec):
        self.spec = spec
        self._held: Dict[str, Tuple] = {}

    def _get(self, kind: str, key: Tuple, build):
        held = self._held.get(kind)
        if held is None or held[0] != key:
            try:
                held = (key, build(), None)
            except Exception as exc:  # noqa: BLE001 - re-raised per reading cell
                held = (key, None, exc)
            self._held[kind] = held
        if held[2] is not None:
            raise held[2]
        return held[1]

    def scenario(self, key: Tuple, seed: int, value) -> Scenario:
        scen = self._get("scenario", key[:1], lambda: _build_scenario(self.spec, seed, value))
        if key[1] != "unlimited":
            return scen
        return self._get("unlimited", key[:2], lambda: with_unlimited_energy(scen))

    def allocation(self, key: Tuple, scenario: Scenario) -> BandwidthAllocation:
        return self._get("allocation", key[:3], lambda: ALLOCATORS[key[2]](scenario))

    def evaluator(
        self, key: Tuple, scenario: Scenario, beta: BandwidthAllocation, penalty: PenaltyConfig
    ) -> Evaluator:
        return self._get(
            "evaluator",
            key,
            lambda: Evaluator(scenario, beta, penalty, self.spec.upload_model),
        )


def _run_cell(
    spec: ExperimentSpec,
    inputs: _SharedInputs,
    key: Tuple,
    seed: int,
    value,
    solver: str,
) -> Tuple[Dict[str, object], Optional[List[float]]]:
    scenario = inputs.scenario(key, seed, value)
    penalty = _penalty_for(spec, value)
    agents = int(value) if spec.axis == "agents" else spec.agents
    cfg = DwoaConfig(
        agents=agents,
        max_iterations=spec.max_iterations,
        penalty=penalty,
        seed=_solver_seed(seed),
        upload_model=spec.upload_model,
    )
    beta = inputs.allocation(key, scenario)
    trace = None
    if solver == "alternating":
        # picks its own allocation, so it scores against its own Evaluator
        run = alternating_solve(scenario, cfg)
        beta, trace = run.beta, run.trace
        result = evaluate(run.decision, beta, scenario, penalty, spec.upload_model)
    else:
        if solver == "associated":
            decision = associated_decision(scenario)
        ev = inputs.evaluator(key, scenario, beta, penalty)
        if solver == "dwoa":
            run = dwoa_search(ev, cfg)
            decision, trace = run.decision, run.trace
        elif solver == "exhaustive":
            decision = exhaustive_search(ev).decision
        elif solver != "associated":
            raise ValueError(f"unknown solver {solver!r}")
        result = ev.result(decision)

    br = decision_latency_breakdown(result)
    comm = math.fsum(result.task_upload_s.values()) / len(result.task_upload_s)
    return (
        dict(
            objective_s=result.objective_s,
            computation_s=br["computation"],
            distributed_s=br["distributed"],
            comm_s=comm,
            mean_rate_bps=mean_uplink_rate(scenario, beta),
            energy_j=dict(sorted(result.energy.total_j.items())),
            feasible=result.feasible,
        ),
        trace,
    )


def _write_trace(traces_dir: str, value, seed: int, solver: str, alloc: str, emode: str, trace) -> None:
    name = f"{_slug(value)}_{seed}_{solver}_{alloc}_{emode}.json"
    with open(os.path.join(traces_dir, name), "w", encoding="utf-8", newline="\n") as f:
        json.dump(
            {
                "value": str(value),
                "seed": seed,
                "solver": solver,
                "allocator": alloc,
                "energy_mode": emode,
                "trace": trace,
            },
            f,
            indent=2,
            sort_keys=True,
        )
        f.write("\n")


def run_experiment(spec: ExperimentSpec) -> Tuple[List[ResultRow], Dict[str, str]]:
    """Executes the sweep and writes results, timings, traces, manifest.

    Per-cell failures become rows with the error column set; only an
    invalid spec or an unwritable output directory aborts the sweep.
    """
    problems = spec.validate()
    if problems:
        raise ValueError("; ".join(problems))
    out_dir = spec.output_dir
    traces_dir = os.path.join(out_dir, "traces")
    os.makedirs(traces_dir, exist_ok=True)

    rows: List[ResultRow] = []
    inputs = _SharedInputs(spec)
    for key, value, seed, solver, alloc, emode in _cells(spec):
        row = ResultRow(
            experiment=spec.experiment_id,
            seed=seed,
            axis=spec.axis,
            value=str(value),
            solver=solver,
            allocator=alloc,
            energy_mode=emode,
        )
        t0 = time.perf_counter()
        try:
            metrics, trace = _run_cell(spec, inputs, key, seed, value, solver)
            for k, v in metrics.items():
                setattr(row, k, v)
            if trace is not None:
                _write_trace(traces_dir, value, seed, solver, alloc, emode, trace)
        except Exception as exc:  # noqa: BLE001 - per-cell isolation
            row.error = f"{type(exc).__name__}: {exc}"
        row.wall_time_s = time.perf_counter() - t0
        rows.append(row)

    value_pos = {str(v): i for i, v in enumerate(spec.values)}
    rows.sort(
        key=lambda r: (
            value_pos[r.value],
            r.seed,
            r.solver,
            r.allocator,
            r.energy_mode,
        )
    )

    paths = {
        "results": os.path.join(out_dir, "results.csv"),
        "timings": os.path.join(out_dir, "timings.csv"),
        "manifest": os.path.join(out_dir, "manifest.json"),
        "traces": traces_dir,
    }
    with open(paths["results"], "w", encoding="utf-8", newline="\n") as f:
        f.write(rows_to_csv(rows))
    with open(paths["timings"], "w", encoding="utf-8", newline="\n") as f:
        f.write("experiment,seed,axis,value,solver,allocator,energy_mode,wall_time_s\n")
        for r in rows:
            f.write(
                f"{r.experiment},{r.seed},{r.axis},{r.value},{r.solver},"
                f"{r.allocator},{r.energy_mode},{r.wall_time_s!r}\n"
            )
    with open(paths["manifest"], "w", encoding="utf-8", newline="\n") as f:
        json.dump(
            {
                "schema_version": 1,
                "package_version": __version__,
                "spec": spec.to_dict(),
            },
            f,
            indent=2,
            sort_keys=True,
        )
        f.write("\n")
    return rows, paths


def rerun_from_manifest(
    manifest_path: str, output_dir: Optional[str] = None
) -> Tuple[List[ResultRow], Dict[str, str]]:
    """Repeats the sweep recorded in a manifest; results.csv comes back
    byte-identical (timings differ, they are wall-clock)."""
    with open(manifest_path, encoding="utf-8") as f:
        manifest = json.load(f)
    spec = ExperimentSpec.from_dict(manifest["spec"])
    if output_dir is not None:
        spec = dataclasses.replace(spec, output_dir=output_dir)
    return run_experiment(spec)


def _slug(value) -> str:
    return str(value).replace(".", "p").replace("/", "_")


def improvement_pct(a: float, b: float) -> float:
    """How much better a is than baseline b, as (b - a) / b * 100."""
    if b == 0:
        raise ValueError("baseline is zero")
    return (b - a) / b * 100.0


def _scheme(r: ResultRow) -> Tuple[str, str, str]:
    return (r.solver, r.allocator, r.energy_mode)


def summarize(rows: Sequence[ResultRow]) -> Dict[str, object]:
    """Per (axis value, scheme) objective stats, feasibility rate, and
    pairwise median-objective improvements between schemes."""
    if not rows:
        raise ValueError("no rows to summarize")
    groups: Dict[Tuple[str, Tuple[str, str, str]], List[ResultRow]] = {}
    value_order: List[str] = []
    for r in rows:
        if r.value not in value_order:
            value_order.append(r.value)
        groups.setdefault((r.value, _scheme(r)), []).append(r)

    table = []
    medians: Dict[Tuple[str, Tuple[str, str, str]], float] = {}
    for (value, scheme), grp in sorted(
        groups.items(), key=lambda kv: (value_order.index(kv[0][0]), kv[0][1])
    ):
        ok = [g for g in grp if not g.error]
        objs = sorted(g.objective_s for g in ok)
        entry = {
            "value": value,
            "solver": scheme[0],
            "allocator": scheme[1],
            "energy_mode": scheme[2],
            "n": len(grp),
            "errors": len(grp) - len(ok),
        }
        if objs:
            mid = len(objs) // 2
            median = (
                objs[mid] if len(objs) % 2 else (objs[mid - 1] + objs[mid]) / 2.0
            )
            entry.update(
                objective_median=median,
                objective_mean=math.fsum(objs) / len(objs),
                objective_min=objs[0],
                objective_max=objs[-1],
                feasible_rate=sum(1 for g in ok if g.feasible) / len(ok),
            )
            medians[(value, scheme)] = median
        table.append(entry)

    improvements = []
    for value in value_order:
        schemes = sorted(s for (v, s) in medians if v == value)
        for sa in schemes:
            for sb in schemes:
                if sa == sb or medians[(value, sb)] == 0:
                    continue
                improvements.append(
                    {
                        "value": value,
                        "scheme": "+".join(sa),
                        "baseline": "+".join(sb),
                        "improvement_pct": improvement_pct(
                            medians[(value, sa)], medians[(value, sb)]
                        ),
                    }
                )
    return {"table": table, "improvements": improvements}


def summary_to_csv(summary: Dict[str, object]) -> str:
    cols = (
        "value,solver,allocator,energy_mode,n,errors,objective_median,"
        "objective_mean,objective_min,objective_max,feasible_rate"
    )
    lines = [cols]
    for e in summary["table"]:
        lines.append(
            ",".join(
                (
                    e["value"],
                    e["solver"],
                    e["allocator"],
                    e["energy_mode"],
                    str(e["n"]),
                    str(e["errors"]),
                    _fmt(e.get("objective_median")),
                    _fmt(e.get("objective_mean")),
                    _fmt(e.get("objective_min")),
                    _fmt(e.get("objective_max")),
                    _fmt(e.get("feasible_rate")),
                )
            )
        )
    lines.append("")
    lines.append("value,scheme,baseline,improvement_pct")
    for e in summary["improvements"]:
        lines.append(
            f"{e['value']},{e['scheme']},{e['baseline']},{_fmt(e['improvement_pct'])}"
        )
    return "\n".join(lines) + "\n"


FIGURES = (
    "convergence",
    "latency-bars",
    "energy-bars",
    "rate-vs-users",
    "latency-vs-users",
    "latency-vs-subtasks",
    "limited-vs-unlimited",
    "penalty-factors",
)


def _median(xs: Sequence[float]) -> float:
    s = sorted(xs)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2.0


def _require_axis(rows: Sequence[ResultRow], axis: str, figure: str):
    if not rows or any(r.axis != axis for r in rows):
        raise ValueError(f"figure {figure!r} needs rows from a {axis!r}-axis sweep")


def _write_series(path: str, header: str, lines: Sequence[str]) -> str:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(header + "\n")
        for line in lines:
            f.write(line + "\n")
    return path


def _trace_series(
    rows: Sequence[ResultRow], traces_dir: str, out_dir: str, figure: str
) -> List[str]:
    if not traces_dir:
        raise ValueError(f"figure {figure!r} needs traces_dir")
    written = []
    values = []
    for r in rows:
        if r.value not in values:
            values.append(r.value)
    for value in values:
        per_iter: List[List[float]] = []
        flagged = 0
        total = 0
        for r in rows:
            if r.value != value or r.error:
                continue
            total += 1
            if r.feasible is False:
                flagged += 1
            name = f"{_slug(value)}_{r.seed}_{r.solver}_{r.allocator}_{r.energy_mode}.json"
            path = os.path.join(traces_dir, name)
            if not os.path.exists(path):
                raise ValueError(f"missing trace file {name} for figure {figure!r}")
            with open(path, encoding="utf-8") as f:
                trace = json.load(f)["trace"]
            for i, v in enumerate(trace):
                if i >= len(per_iter):
                    per_iter.append([])
                per_iter[i].append(v)
        if not per_iter:
            raise ValueError(f"no traces for value {value!r} in figure {figure!r}")
        lines = [
            f"{i + 1},{_fmt(_median(vals))}" for i, vals in enumerate(per_iter)
        ]
        out = os.path.join(out_dir, f"{figure}_{_slug(value)}.csv")
        written.append(
            _write_series(out, f"# infeasible {flagged}/{total}\niteration,objective_s", lines)
        )
    return written


def emit_plot_data(
    rows: Sequence[ResultRow],
    figure: str,
    out_dir: str,
    traces_dir: str = "",
) -> List[str]:
    """Writes one tidy CSV per curve of the requested figure and returns
    the paths. No plotting happens here; any tool can render the files."""
    if figure not in FIGURES:
        raise ValueError(f"unknown figure {figure!r}; choose from {FIGURES}")
    if not rows:
        raise ValueError("no rows")
    os.makedirs(out_dir, exist_ok=True)
    ok = [r for r in rows if not r.error]

    if figure == "convergence":
        _require_axis(rows, "agents", figure)
        return _trace_series(ok, traces_dir, out_dir, figure)

    if figure == "penalty-factors":
        _require_axis(rows, "penalty_lambda", figure)
        return _trace_series(ok, traces_dir, out_dir, figure)

    if figure in ("latency-bars", "energy-bars"):
        schemes: Dict[Tuple[str, str, str], List[ResultRow]] = {}
        for r in ok:
            schemes.setdefault(_scheme(r), []).append(r)
        if not schemes:
            raise ValueError(f"no usable rows for figure {figure!r}")
        lines = []
        for scheme in sorted(schemes):
            grp = schemes[scheme]
            label = "+".join(scheme)
            if figure == "latency-bars":
                comp = _median([g.computation_s for g in grp])
                dist = _median([g.distributed_s for g in grp])
                lines.append(f"{label},computation,{_fmt(comp)}")
                lines.append(f"{label},distributed,{_fmt(dist)}")
                lines.append(f"{label},total,{_fmt(comp + dist)}")
            else:
                tot = _median([math.fsum(g.energy_j.values()) for g in grp])
                lines.append(f"{label},{_fmt(tot)}")
        header = "scheme,component,seconds" if figure == "latency-bars" else "scheme,energy_j"
        path = os.path.join(out_dir, f"{figure}.csv")
        return [_write_series(path, header, lines)]

    axis_by_figure = {
        "rate-vs-users": "users",
        "latency-vs-users": "users",
        "latency-vs-subtasks": "subtasks",
        "limited-vs-unlimited": "subtasks",
    }
    axis = axis_by_figure[figure]
    _require_axis(rows, axis, figure)
    if figure == "limited-vs-unlimited":
        modes = {r.energy_mode for r in ok}
        if modes != set(ENERGY_MODES):
            raise ValueError(
                f"figure {figure!r} needs both energy modes, found {sorted(modes)}"
            )
    value_order: List[str] = []
    for r in ok:
        if r.value not in value_order:
            value_order.append(r.value)

    written = []
    if figure == "limited-vs-unlimited":
        key_fn = lambda r: r.energy_mode
        metric = lambda r: r.objective_s
        header = "value,objective_s"
    elif figure == "rate-vs-users":
        key_fn = lambda r: r.allocator
        metric = lambda r: r.mean_rate_bps
        header = "value,mean_rate_bps"
    else:
        key_fn = lambda r: "+".join(_scheme(r))
        metric = lambda r: r.objective_s
        header = "value,objective_s"
    grouped: Dict[str, Dict[str, List[float]]] = {}
    for r in ok:
        grouped.setdefault(key_fn(r), {}).setdefault(r.value, []).append(metric(r))
    for label in sorted(grouped):
        lines = [
            f"{v},{_fmt(_median(grouped[label][v]))}"
            for v in value_order
            if v in grouped[label]
        ]
        path = os.path.join(out_dir, f"{figure}_{_slug(label)}.csv")
        written.append(_write_series(path, header, lines))
    return written

"""Multi-seed experiment sweeps over one axis, with deterministic output.

Axes: agents, users, subtasks, penalty_lambda, energy_mode, allocator,
solver. Every sweep writes four things into its output directory:

  results.csv   one row per (axis value, seed, scheme); columns in
                RESULT_COLUMNS order
  timings.csv   each row's key columns and wall-clock time, kept out of
                results.csv so a re-run from the manifest reproduces
                results.csv byte for byte
  traces/       per-run convergence traces (searching solvers only)
  manifest.json config echo + package version; rerun_from_manifest(path)
                repeats the sweep exactly

Scenario and solver randomness are split from the row seed s as
SeedSequence([s, 0]) and SeedSequence([s, 1]) respectively, so the two
never share a stream.

Each input a cell reads is built once and shared by every cell that
reads the same input: one scenario per generator input (the seed, plus
the axis value on the users and subtasks axes; the unlimited energy mode
is that scenario with infinite budgets), one validated evaluator plan
per generator input, which both energy modes share since it holds no
budget, one allocation per (scenario, energy mode, allocator) and one
Evaluator per (scenario, energy mode, allocator, penalty), which every
cell runs its solver on (through solvers.SOLVERS); each row is read from
the schedule the run returns. Alternating starts from that Evaluator
too, and builds one closed-form split Evaluator on the same plan only
when the cell's split differs. Cells run grouped
by these keys, holding one input of each kind at a time. results.csv
stays byte-identical to building every input per cell: each input is a
pure function of its key, and the only state kept between calls is
the population layout and scratch on each plan: the layout is a pure
function of the plan, and the scratch holds nothing a split sets and
is overwritten before it is read, so no cell sees another's state.
Rows are sorted into the fixed output order at the end.
"""
from __future__ import annotations

import dataclasses
import inspect
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
from .evaluator import UPLOAD_MODELS, Evaluator, PenaltyConfig, _Plan, decision_latency_breakdown
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
    SOLVERS as SOLVER_FNS,
    DwoaConfig,
    _integer,
    dwoa_solve,  # noqa: F401 - kept importable from this module
    exhaustive_solve,  # noqa: F401
    solver_seed,
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
SOLVERS = tuple(SOLVER_FNS)
# solvers whose runs write a convergence trace; the agents axis needs one
SEARCHING_SOLVERS = ("dwoa", "alternating")
ENERGY_MODES = ("limited", "unlimited")


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
        # cells, results.csv rows and trace files are keyed by these too
        for name in ("solvers", "allocators", "energy_modes"):
            entries = getattr(self, name)
            if len(set(entries)) != len(entries):
                out.append(f"{name} must be distinct, got {list(entries)}")
        if self.penalty_mode not in ("penalty", "hard"):
            out.append(f"unknown penalty mode {self.penalty_mode!r}")
        if self.upload_model not in UPLOAD_MODELS:
            out.append(f"unknown upload model {self.upload_model!r}")
        # whole numbers, by DwoaConfig's rule: never truncated to one; and
        # in the ranges DwoaConfig and the scenario generators enforce, so
        # no cell can only record their ValueError. (name, value, low,
        # high), None for no upper bound
        agents = (1, 2**32 - 1)
        counts = [("agents", self.agents, *agents), ("max_iterations", self.max_iterations, 0, None)]
        counts += [("seed", s, 0, None) for s in self.seeds]
        counts += [(f"generator {k}", self.generator[k], 1, None) for k in _GENERATOR_COUNTS
                   if k in self.generator]
        axis_range = {"agents": agents, "subtasks": (1, None)}.get(self.axis)
        if self.axis == "users":
            # generate_user_sweep_family's range
            try:
                axis_range = (1, _integer("generator max_users", self.generator.get("max_users", 10)))
            except ValueError as exc:
                out.append(str(exc))
                axis_range = (1, None)
        if axis_range:
            counts += [(f"{self.axis} value", v, *axis_range) for v in self.values]
        for name, v, low, high in counts:
            try:
                k = _integer(name, v)
            except ValueError as exc:
                out.append(str(exc))
                continue
            if k < low:
                out.append(f"{name} must be >= {low}, got {v!r}")
            elif high is not None and k > high:
                out.append(f"{name} must be <= {high}, got {v!r}")
        if self.axis in ("users", "subtasks") and self.scenario_file:
            out.append(f"axis {self.axis} regenerates scenarios; scenario_file unsupported")
        if self.scenario_file and self.generator:
            out.append("generator parameters are unused next to scenario_file")
        # keyword parameters of the generator this axis calls, bar the
        # seed and users, which the sweep sets itself; the subtasks axis
        # overrides subtasks_per_task too, but takes it, so that spec
        # files written for the other axes run on it unchanged
        takes = _FAMILY_KEYS if self.axis == "users" else _SCENARIO_KEYS
        for k in sorted(self.generator, key=str):
            if k in ("seed", "users"):
                out.append(f"generator key {k!r} is set by the sweep")
            elif k not in takes:
                out.append(f"unknown generator key {k!r}")
            elif k == "energy_per_subtask_j" and not (
                isinstance(self.generator[k], (int, float)) and self.generator[k] >= 0
            ):
                # every budget is a multiple of it, and the plan of an input
                # that both energy modes share rejects a negative or NaN one
                out.append(f"generator {k} must be >= 0, got {self.generator[k]!r}")
        if self.axis == "agents":
            bad = [s for s in solvers if s not in SEARCHING_SOLVERS]
            if bad:
                out.append(f"agents axis needs a searching solver, got {bad}")
        if self.axis == "penalty_lambda":
            for v in self.values:
                if v != "hard" and (not isinstance(v, (int, float)) or v <= 0):
                    out.append(f"penalty_lambda value {v!r} must be positive or 'hard'")
        # cells, results.csv rows and trace files are keyed by the value's text
        texts = [str(v) for v in self.values]
        if len(set(texts)) != len(texts):
            out.append(f"axis values must differ as text, got {texts}")
        for text in (str(self.experiment_id), *texts):
            if any(c in text for c in ",\n\r"):
                out.append(f"{text!r}: results.csv text may not hold ',', newline or carriage return")
        return out

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    @staticmethod
    def from_dict(d: Dict[str, object]) -> "ExperimentSpec":
        """Builds a spec from its JSON form; a missing key takes the
        field's default and an unknown key is an error."""
        unknown = sorted(set(d) - {f.name for f in dataclasses.fields(ExperimentSpec)})
        if unknown:
            raise ValueError(f"unknown spec keys {unknown}")
        return ExperimentSpec(**{k: _SPEC_DECODE.get(k, lambda x: x)(v) for k, v in d.items()})

    @staticmethod
    def from_json_file(path: str) -> "ExperimentSpec":
        with open(path, encoding="utf-8") as f:
            return ExperimentSpec.from_dict(json.load(f))


# JSON has no tuples: the sequence fields and sequence-valued generator
# params come back as lists, so they are re-tupled for spec equality
_SPEC_DECODE = {
    "values": tuple,
    "seeds": tuple,
    "generator": lambda g: {k: tuple(v) if isinstance(v, list) else v for k, v in dict(g).items()},
    "solvers": tuple,
    "allocators": tuple,
    "energy_modes": tuple,
    "penalty_lambda": float,
}


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


def _float_or_none(text: str) -> Optional[float]:
    return float(text) if text else None


def _fmt_energy(e: Dict[int, float]) -> str:
    return ";".join(f"{k}:{float(v)!r}" for k, v in sorted(e.items()))


def _parse_energy(text: str) -> Dict[int, float]:
    pairs = (part.split(":") for part in text.split(";")) if text else ()
    return {int(k): float(v) for k, v in pairs}


def _fmt_bool(b: Optional[bool]) -> str:
    return "" if b is None else ("true" if b else "false")


def _sanitize(text: str) -> str:
    return text.replace(",", ";").replace("\n", " ").replace("\r", " ")


# results.csv layout: (column, encode, decode) per ResultRow field, in
# column order; the first seven name the cell
_RESULT_TABLE = (
    ("experiment", str, str),
    ("seed", str, int),
    ("axis", str, str),
    ("value", str, str),
    ("solver", str, str),
    ("allocator", str, str),
    ("energy_mode", str, str),
    ("objective_s", _fmt, _float_or_none),
    ("computation_s", _fmt, _float_or_none),
    ("distributed_s", _fmt, _float_or_none),
    ("comm_s", _fmt, _float_or_none),
    ("mean_rate_bps", _fmt, _float_or_none),
    ("energy_j", _fmt_energy, _parse_energy),
    ("feasible", _fmt_bool, lambda t: None if t == "" else t == "true"),
    ("error", _sanitize, str),
)
RESULT_COLUMNS = tuple(name for name, _, _ in _RESULT_TABLE)
# timings.csv: the cell's key columns and its wall-clock time
_TIMING_TABLE = _RESULT_TABLE[:7] + (("wall_time_s", repr, float),)


def _to_csv(table, rows: Sequence[ResultRow]) -> str:
    lines = [",".join(name for name, _, _ in table)]
    lines += [",".join(enc(getattr(r, name)) for name, enc, _ in table) for r in rows]
    return "\n".join(lines) + "\n"


def rows_to_csv(rows: Sequence[ResultRow]) -> str:
    return _to_csv(_RESULT_TABLE, rows)


def rows_from_csv(text: str) -> List[ResultRow]:
    lines = text.strip("\n").split("\n")
    header = lines[0].split(",")
    if tuple(header) != RESULT_COLUMNS:
        raise ValueError(f"unexpected columns {header}")
    out = []
    for n, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(RESULT_COLUMNS):
            raise ValueError(f"line {n}: {len(cells)} fields, expected {len(RESULT_COLUMNS)}")
        out.append(ResultRow(**{name: dec(c) for (name, _, dec), c in zip(_RESULT_TABLE, cells)}))
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


def _keywords(fn) -> frozenset:
    return frozenset(inspect.signature(fn).parameters)


# the generator's keyword parameters on the users axis and on the others;
# the counts among them, which must be whole numbers >= 1
_FAMILY_KEYS = _keywords(generate_user_sweep_family)
_SCENARIO_KEYS = _keywords(generate_scenario)
_GENERATOR_COUNTS = ("uav_count", "active_users", "subtasks_per_task", "subtasks")


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


def _build_scenario(spec: ExperimentSpec, seed: int, value) -> Scenario:
    if spec.scenario_file:
        return load_scenario(spec.scenario_file)
    if spec.axis == "users":
        return generate_user_sweep_family(seed, value, **spec.generator)
    params = dict(spec.generator)
    if spec.axis == "subtasks":
        params["subtasks_per_task"] = value
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
    """The scenario, plan, allocation and Evaluator of the current cell.

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

    def plan(self, key: Tuple, scenario: Scenario) -> _Plan:
        """The plan of the generator input, which validates it; the
        energy modes differ only in budgets, which no plan holds."""
        return self._get("plan", key[:1], lambda: _Plan(scenario))

    def allocation(self, key: Tuple, scenario: Scenario) -> BandwidthAllocation:
        return self._get("allocation", key[:3], lambda: ALLOCATORS[key[2]](scenario))

    def evaluator(
        self, key: Tuple, scenario: Scenario, plan: _Plan, beta: BandwidthAllocation,
        penalty: PenaltyConfig,
    ) -> Evaluator:
        return self._get(
            "evaluator",
            key,
            lambda: Evaluator(scenario, beta, penalty, self.spec.upload_model, _plan=plan),
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
    plan = inputs.plan(key, scenario)
    penalty = _penalty_for(spec, value)
    agents = value if spec.axis == "agents" else spec.agents
    cfg = DwoaConfig(
        agents=agents,
        max_iterations=spec.max_iterations,
        penalty=penalty,
        seed=solver_seed(seed),
        upload_model=spec.upload_model,
    )
    ev = inputs.evaluator(key, scenario, plan, inputs.allocation(key, scenario), penalty)
    run = SOLVER_FNS[solver](ev, cfg)
    result = run.schedule
    br = decision_latency_breakdown(result)
    comm = math.fsum(result.task_upload_s.values()) / len(result.task_upload_s)
    return (
        dict(
            objective_s=result.objective_s,
            computation_s=br["computation"],
            distributed_s=br["distributed"],
            comm_s=comm,
            mean_rate_bps=mean_uplink_rate(scenario, run.beta),
            energy_j=dict(sorted(result.energy.total_j.items())),
            feasible=result.feasible,
        ),
        run.trace if solver in SEARCHING_SOLVERS else None,
    )


def _trace_name(r: ResultRow) -> str:
    return f"{_slug(r.value)}_{r.seed}_{r.solver}_{r.allocator}_{r.energy_mode}.json"


def _write_text(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(text)
    return path


def _write_json(path: str, obj) -> None:
    _write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_trace(traces_dir: str, r: ResultRow, trace) -> None:
    _write_json(
        os.path.join(traces_dir, _trace_name(r)),
        {
            "value": r.value,
            "seed": r.seed,
            "solver": r.solver,
            "allocator": r.allocator,
            "energy_mode": r.energy_mode,
            "trace": trace,
        },
    )


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
                _write_trace(traces_dir, row, trace)
        except Exception as exc:  # noqa: BLE001 - per-cell isolation
            row.error = f"{type(exc).__name__}: {exc}"
        row.wall_time_s = time.perf_counter() - t0
        rows.append(row)

    value_pos = {str(v): i for i, v in enumerate(spec.values)}
    rows.sort(key=lambda r: (value_pos[r.value], r.seed, *_scheme(r)))

    paths = {
        "results": os.path.join(out_dir, "results.csv"),
        "timings": os.path.join(out_dir, "timings.csv"),
        "manifest": os.path.join(out_dir, "manifest.json"),
        "traces": traces_dir,
    }
    _write_text(paths["results"], rows_to_csv(rows))
    _write_text(paths["timings"], _to_csv(_TIMING_TABLE, rows))
    _write_json(
        paths["manifest"],
        {"schema_version": 1, "package_version": __version__, "spec": spec.to_dict()},
    )
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


def _values_in_order(rows: Sequence[ResultRow]) -> List[str]:
    return list(dict.fromkeys(r.value for r in rows))


def _median(xs: Sequence[float]) -> float:
    s = sorted(xs)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2.0


def summarize(rows: Sequence[ResultRow]) -> Dict[str, object]:
    """Per (axis value, scheme) objective stats, feasibility rate, and
    pairwise median-objective improvements between schemes."""
    if not rows:
        raise ValueError("no rows to summarize")
    groups: Dict[Tuple[str, Tuple[str, str, str]], List[ResultRow]] = {}
    for r in rows:
        groups.setdefault((r.value, _scheme(r)), []).append(r)
    value_order = _values_in_order(rows)

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
            median = _median(objs)
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


# summary.csv table columns; the text and count columns come first, the
# objective statistics after them are empty for a group with no solved row
_SUMMARY_COLUMNS = (
    "value",
    "solver",
    "allocator",
    "energy_mode",
    "n",
    "errors",
    "objective_median",
    "objective_mean",
    "objective_min",
    "objective_max",
    "feasible_rate",
)


def summary_to_csv(summary: Dict[str, object]) -> str:
    text, stats = _SUMMARY_COLUMNS[:6], _SUMMARY_COLUMNS[6:]
    lines = [",".join(_SUMMARY_COLUMNS)]
    for e in summary["table"]:
        lines.append(",".join([str(e[c]) for c in text] + [_fmt(e.get(c)) for c in stats]))
    lines.append("")
    lines.append("value,scheme,baseline,improvement_pct")
    for e in summary["improvements"]:
        lines.append(
            f"{e['value']},{e['scheme']},{e['baseline']},{_fmt(e['improvement_pct'])}"
        )
    return "\n".join(lines) + "\n"


# each figure and the sweep axis its rows must come from (None: any axis)
FIGURES = {
    "convergence": "agents",
    "latency-bars": None,
    "energy-bars": None,
    "rate-vs-users": "users",
    "latency-vs-users": "users",
    "latency-vs-subtasks": "subtasks",
    "limited-vs-unlimited": "subtasks",
    "penalty-factors": "penalty_lambda",
}


def _write_series(path: str, header: str, lines: Sequence[str]) -> str:
    return _write_text(path, "".join(line + "\n" for line in (header, *lines)))


def _trace_series(
    rows: Sequence[ResultRow], traces_dir: str, out_dir: str, figure: str
) -> List[str]:
    if not traces_dir:
        raise ValueError(f"figure {figure!r} needs traces_dir")
    written = []
    for value in _values_in_order(rows):
        per_iter: List[List[float]] = []
        flagged = 0
        total = 0
        for r in rows:
            if r.value != value or r.error:
                continue
            total += 1
            if r.feasible is False:
                flagged += 1
            name = _trace_name(r)
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
        raise ValueError(f"unknown figure {figure!r}; choose from {tuple(FIGURES)}")
    if not rows:
        raise ValueError("no rows")
    axis = FIGURES[figure]
    if axis is not None and any(r.axis != axis for r in rows):
        raise ValueError(f"figure {figure!r} needs rows from a {axis!r}-axis sweep")
    os.makedirs(out_dir, exist_ok=True)
    ok = [r for r in rows if not r.error]

    if figure in ("convergence", "penalty-factors"):
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

    if figure == "limited-vs-unlimited":
        modes = {r.energy_mode for r in ok}
        if modes != set(ENERGY_MODES):
            raise ValueError(
                f"figure {figure!r} needs both energy modes, found {sorted(modes)}"
            )
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
    value_order = _values_in_order(ok)
    written = []
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

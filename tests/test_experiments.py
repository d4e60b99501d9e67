import hashlib
import json
import math
import os

import numpy as np
import pytest

from uavmec import (
    ExperimentSpec,
    emit_plot_data,
    generate_user_sweep_family,
    improvement_pct,
    rerun_from_manifest,
    rows_from_csv,
    rows_to_csv,
    run_experiment,
    summarize,
    with_unlimited_energy,
)
from uavmec import experiments, solvers
from uavmec.evaluator import Evaluator
from uavmec.experiments import FIGURES, ResultRow, summary_to_csv

from conftest import DESK_TASK

DESK_GEN = dict(
    uav_count=3,
    users_per_uav=(1, 1),
    active_users=1,
    subtasks_per_task=4,
    energy_per_subtask_j=1e9,
    task_params=dict(DESK_TASK),
)


def _spec(tmp_path, **kw):
    base = dict(
        experiment_id="t",
        axis="agents",
        values=(5, 10),
        seeds=(0, 1),
        output_dir=str(tmp_path / "out"),
        generator=dict(DESK_GEN),
        solvers=("dwoa",),
        agents=10,
        max_iterations=5,
    )
    base.update(kw)
    return ExperimentSpec(**base)


# ------------------------------------------------------------------ spec

def test_spec_validation_errors(tmp_path):
    assert _spec(tmp_path).validate() == []
    assert _spec(tmp_path, axis="speed").validate()
    assert _spec(tmp_path, values=()).validate()
    assert _spec(tmp_path, seeds=()).validate()
    assert _spec(tmp_path, seeds=(1, 1)).validate()
    assert _spec(tmp_path, output_dir="").validate()
    assert _spec(tmp_path, solvers=("sa",)).validate()
    assert _spec(tmp_path, allocators=("fair",)).validate()
    assert _spec(tmp_path, axis="users", scenario_file="x.json").validate()
    assert _spec(tmp_path, axis="agents", solvers=("associated",)).validate()


def test_spec_json_round_trip(tmp_path):
    spec = _spec(tmp_path)
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(spec.to_dict()), encoding="utf-8")
    back = ExperimentSpec.from_json_file(str(p))
    assert back == spec


def test_run_experiment_rejects_bad_spec(tmp_path):
    with pytest.raises(ValueError):
        run_experiment(_spec(tmp_path, axis="nope"))


# ------------------------------------------------------------------ runs

def test_run_experiment_layout_and_rows(tmp_path):
    spec = _spec(tmp_path)
    rows, paths = run_experiment(spec)
    assert len(rows) == len(spec.values) * len(spec.seeds)
    for r in rows:
        assert r.error == ""
        assert r.feasible
        assert r.objective_s > 0
    # sorted by (value, seed, scheme); values ride along as strings
    order = [str(v) for v in spec.values]
    keys = [(order.index(r.value), r.seed) for r in rows]
    assert keys == sorted(keys)
    assert os.path.exists(paths["results"])
    assert os.path.exists(paths["timings"])
    assert os.path.exists(paths["manifest"])
    traces = sorted(os.listdir(paths["traces"]))
    assert len(traces) == len(rows)  # dwoa emits one trace per cell
    blob = json.loads(open(os.path.join(paths["traces"], traces[0])).read())
    assert set(blob) >= {"value", "seed", "solver", "allocator", "energy_mode", "trace"}
    assert len(blob["trace"]) == spec.max_iterations


def test_rows_csv_round_trip(tmp_path):
    rows, paths = run_experiment(_spec(tmp_path))
    text = open(paths["results"], encoding="utf-8").read()
    assert "\r" not in text
    assert text.splitlines()[0] == "experiment,seed,axis,value,solver,allocator,energy_mode,objective_s,computation_s,distributed_s,comm_s,mean_rate_bps,energy_j,feasible,error"
    back = rows_from_csv(text)
    assert back == rows
    assert rows_to_csv(back) == text


def test_wall_time_lives_outside_results(tmp_path):
    rows, paths = run_experiment(_spec(tmp_path))
    res = open(paths["results"], encoding="utf-8").read()
    assert "wall" not in res.splitlines()[0]
    timing = open(paths["timings"], encoding="utf-8").read().splitlines()
    assert timing[0].startswith("experiment,") and "wall_time_s" in timing[0]
    assert len(timing) == 1 + len(rows)


def test_error_cells_recorded_not_fatal(tmp_path):
    # 3**8 = 6561 decisions exceed no cap, so grow the space: 10 sub-tasks
    gen = dict(DESK_GEN, subtasks_per_task=16)
    spec = _spec(
        tmp_path,
        axis="solver",
        values=("exhaustive", "associated"),
        seeds=(0,),
        generator=gen,
    )
    rows, _paths = run_experiment(spec)
    by_solver = {r.solver: r for r in rows}
    assert "StateSpaceCapError" in by_solver["exhaustive"].error
    assert by_solver["exhaustive"].objective_s is None
    assert by_solver["associated"].error == ""
    assert by_solver["associated"].feasible


def test_rerun_from_manifest_is_byte_identical(tmp_path):
    spec = _spec(tmp_path)
    _rows, paths = run_experiment(spec)
    first = open(paths["results"], encoding="utf-8").read()
    _rows2, paths2 = rerun_from_manifest(paths["manifest"], str(tmp_path / "again"))
    second = open(paths2["results"], encoding="utf-8").read()
    assert first == second


# --------------------------------------------------------- shared inputs

# 2 active users x 3 sub-tasks on 3 UAVs (3**6 exhaustive decisions) with
# a 1800 J budget that binds on some decisions and seeds, not on all
BIND_GEN = dict(
    uav_count=3,
    users_per_uav=(1, 2),
    active_users=2,
    subtasks_per_task=3,
    energy_per_subtask_j=600.0,
    task_params=dict(DESK_TASK),
)


def _shared_spec(tmp_path, **kw):
    base = dict(
        experiment_id="golden",
        seeds=(0, 1),
        output_dir=str(tmp_path / "out"),
        generator=dict(BIND_GEN),
        agents=10,
        max_iterations=5,
    )
    base.update(kw)
    return ExperimentSpec(**base)


def _output_digests(paths):
    """SHA-256 of results.csv, and of the trace files' names and bytes."""
    with open(paths["results"], "rb") as f:
        results = hashlib.sha256(f.read()).hexdigest()
    traces = hashlib.sha256()
    for name in sorted(os.listdir(paths["traces"])):
        with open(os.path.join(paths["traces"], name), "rb") as f:
            traces.update(name.encode() + b"\0" + f.read() + b"\0")
    return results, traces.hexdigest()


@pytest.fixture
def build_counts(monkeypatch):
    """Counts generate_scenario calls made by the sweep and Evaluator
    constructions anywhere."""
    counts = {"scenarios": 0, "evaluators": 0}
    generate = experiments.generate_scenario
    init = Evaluator.__init__

    def counting_generate(*args, **kwargs):
        counts["scenarios"] += 1
        return generate(*args, **kwargs)

    def counting_init(self, *args, **kwargs):
        counts["evaluators"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(experiments, "generate_scenario", counting_generate)
    monkeypatch.setattr(Evaluator, "__init__", counting_init)
    return counts


def test_sweep_builds_each_input_once(tmp_path, build_counts):
    spec = _shared_spec(
        tmp_path,
        axis="allocator",
        values=("equal", "proportional", "optimal"),
        solvers=("associated", "dwoa"),
        energy_modes=("limited", "unlimited"),
    )
    rows, _paths = run_experiment(spec)
    assert len(rows) == 24 and not any(r.error for r in rows)
    # one scenario per seed; one Evaluator per (seed, mode, allocator),
    # shared by the associated and the dwoa cell and their result()
    assert build_counts == {"scenarios": 2, "evaluators": 12}


def test_subtasks_axis_generates_per_seed_and_value(tmp_path, build_counts):
    spec = _shared_spec(
        tmp_path,
        axis="subtasks",
        values=(2, 3),
        solvers=("associated", "dwoa"),
        energy_modes=("limited", "unlimited"),
    )
    rows, _paths = run_experiment(spec)
    assert len(rows) == 16 and not any(r.error for r in rows)
    assert build_counts == {"scenarios": 4, "evaluators": 8}


# results.csv and trace digests captured before the sweep shared its
# inputs across cells, when every cell built its own scenario, allocation
# and Evaluators
SHARED_INPUT_GOLDENS = {
    "allocator": (
        dict(
            axis="allocator",
            values=("equal", "proportional", "optimal"),
            solvers=("associated", "dwoa", "exhaustive"),
            energy_modes=("limited", "unlimited"),
        ),
        (
            "32f36c7228cdc6818dabd1bbf3dd57c7bab962ba22ff27130e5871f28e856c36",
            "5a4b3cc69e957b91b970e944fa6dfe960170a1176783f1222e94eafcbc7a140d",
        ),
    ),
    "penalty_lambda": (
        dict(
            axis="penalty_lambda",
            values=(0.01, 1.0, "hard"),
            solvers=("associated", "dwoa"),
            allocators=("equal", "optimal"),
        ),
        (
            "aef02f8223870d8f2731f18cf3597821380efb68bdea3ddad64d3decab6e68bb",
            "b663ec2f517b238975c1d5989fa34216aba2065a01f5b4cb362d32b79832db5a",
        ),
    ),
    "solver": (
        dict(
            axis="solver",
            values=("dwoa", "exhaustive", "associated", "alternating"),
            allocators=("equal", "optimal"),
            energy_modes=("limited", "unlimited"),
        ),
        (
            "505e731515454f1e3acc956fc61cec3d8e4fa1b0b501cee97b6597b5f6a850f0",
            "2ccc33f05dad7da42ffcd3bfd14afaf1612f476c885cc69f4f76f94326eb52b1",
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(SHARED_INPUT_GOLDENS))
def test_shared_inputs_keep_output_bytes(tmp_path, name):
    kw, want = SHARED_INPUT_GOLDENS[name]
    _rows, paths = run_experiment(_shared_spec(tmp_path, **kw))
    assert _output_digests(paths) == want


def test_allocator_error_gives_one_row_per_cell(tmp_path, monkeypatch):
    calls = []

    def failing(scenario, decision=None):
        calls.append(scenario)
        raise RuntimeError("allocator failed")

    monkeypatch.setitem(solvers.ALLOCATORS, "optimal", failing)
    spec = _shared_spec(
        tmp_path,
        axis="solver",
        values=("dwoa", "exhaustive", "associated", "alternating"),
        seeds=(0,),
        allocators=("equal", "optimal"),
    )
    rows, _paths = run_experiment(spec)
    assert len(rows) == 8
    for r in rows:
        if r.allocator == "optimal":
            assert r.error == "RuntimeError: allocator failed"
            assert r.objective_s is None and r.feasible is None
        else:
            assert r.error == "" and r.objective_s > 0
    assert len(calls) == 1  # the failed build is kept for its whole group


def test_evaluator_error_gives_one_row_per_cell(tmp_path, build_counts):
    spec = _shared_spec(
        tmp_path,
        axis="solver",
        values=("dwoa", "exhaustive", "associated", "alternating"),
        seeds=(0,),
        generator=dict(BIND_GEN, active_users=0),
        energy_modes=("limited", "unlimited"),
    )
    rows, paths = run_experiment(spec)
    assert len(rows) == 8
    assert {r.error for r in rows} == {"ValueError: scenario has no active users"}
    assert os.listdir(paths["traces"]) == []
    # one failed Evaluator build per energy mode, plus one per alternating
    # cell, which builds its own
    assert build_counts["evaluators"] == 4


# ---------------------------------------------------------- sweep families

def test_user_family_is_prefix_coupled():
    for k in (2, 4, 6):
        small = generate_user_sweep_family(3, k)
        big = generate_user_sweep_family(3, k + 2)
        assert [u.position_m for u in big.users[:k]] == [
            u.position_m for u in small.users
        ]
        assert len(small.tasks) == math.ceil(k / 2)
        for ts, tb in zip(small.tasks, big.tasks):
            assert ts.owner_user == tb.owner_user
            assert [s.input_size_bits for s in ts.sub_tasks] == [
                s.input_size_bits for s in tb.sub_tasks
            ]


def test_user_family_identical_sizes_and_sorted_distance():
    s = generate_user_sweep_family(5, 8)
    sizes = {st.input_size_bits for t in s.tasks for st in t.non_dummy()}
    assert len(sizes) == 1
    uav = s.uavs[0]
    d = [
        (u.position_m[0] - uav.position_m[0]) ** 2
        + (u.position_m[1] - uav.position_m[1]) ** 2
        for u in s.users
    ]
    assert d == sorted(d)
    assert [u.active for u in s.users] == [True] * 4 + [False] * 4


def test_user_family_bounds():
    with pytest.raises(ValueError):
        generate_user_sweep_family(0, 11)
    with pytest.raises(ValueError):
        generate_user_sweep_family(0, 0)


def test_with_unlimited_energy():
    s = generate_user_sweep_family(1, 2)
    unl = with_unlimited_energy(s)
    assert all(v.energy_budget_j == math.inf for v in unl.uavs)
    assert [v.id for v in unl.uavs] == [v.id for v in s.uavs]


# ------------------------------------------------------------- summaries

def _fake_rows(values, objs_by_scheme, axis="users"):
    rows = []
    for v in values:
        for scheme, objs in objs_by_scheme.items():
            solver, alloc = scheme
            for i, o in enumerate(objs[v]):
                rows.append(
                    ResultRow(
                        experiment="t",
                        seed=i,
                        axis=axis,
                        value=str(v),
                        solver=solver,
                        allocator=alloc,
                        energy_mode="limited",
                        objective_s=o,
                        computation_s=o * 0.8,
                        distributed_s=o * 0.2,
                        comm_s=o * 0.1,
                        mean_rate_bps=1e8 / v,
                        energy_j={1: o * 10},
                        feasible=True,
                        error="",
                    )
                )
    return rows


def test_improvement_pct_goldens():
    # printed-figure percentages recovered from the raw pair
    assert improvement_pct(8286.0, 18186.0) == pytest.approx(54.43, abs=0.01)
    assert improvement_pct(8286.0, 18186.0) == pytest.approx(54.43747937974266, abs=1e-10)
    assert improvement_pct(8286.0, 10248.0) == pytest.approx(19.145, abs=1e-3)
    assert improvement_pct(8286.0, 10248.0) == pytest.approx(19.14519906323185, abs=1e-10)
    with pytest.raises(ValueError):
        improvement_pct(1.0, 0.0)


def test_summarize_medians_and_improvements():
    rows = _fake_rows(
        [2],
        {
            ("dwoa", "equal"): {2: [4.0, 6.0, 5.0]},
            ("associated", "equal"): {2: [10.0, 10.0, 10.0]},
        },
    )
    summary = summarize(rows)
    table = {(t["value"], t["solver"]): t for t in summary["table"]}
    assert table[("2", "dwoa")]["objective_median"] == 5.0
    assert table[("2", "dwoa")]["objective_mean"] == 5.0
    assert table[("2", "associated")]["objective_min"] == 10.0
    assert table[("2", "dwoa")]["feasible_rate"] == 1.0
    imp = {
        (i["value"], i["scheme"], i["baseline"]): i["improvement_pct"]
        for i in summary["improvements"]
    }
    got = imp[("2", "dwoa+equal+limited", "associated+equal+limited")]
    assert got == pytest.approx(50.0, abs=1e-9)
    text = summary_to_csv(summary)
    assert text.startswith("value,")


def test_summarize_counts_errors():
    rows = _fake_rows([1], {("dwoa", "equal"): {1: [3.0, 3.0]}})
    bad = rows[0]
    bad = type(bad)(**{**bad.__dict__, "error": "Boom: x", "objective_s": float("nan")})
    summary = summarize([bad, rows[1]])
    (entry,) = summary["table"]
    assert entry["errors"] == 1
    assert entry["n"] == 2  # errors stay in the head count
    assert entry["objective_median"] == 3.0


# ------------------------------------------------------------- plot data

def test_emit_plot_data_unknown_figure(tmp_path):
    with pytest.raises(ValueError, match="figure"):
        emit_plot_data([], "pie", str(tmp_path))


def test_emit_plot_data_axis_guards(tmp_path):
    rows = _fake_rows([2], {("dwoa", "equal"): {2: [1.0]}}, axis="subtasks")
    with pytest.raises(ValueError, match="users"):
        emit_plot_data(rows, "rate-vs-users", str(tmp_path))


def test_latency_and_rate_series(tmp_path):
    rows = _fake_rows(
        [2, 4],
        {
            ("dwoa", "equal"): {2: [4.0, 5.0], 4: [6.0, 7.0]},
            ("dwoa", "optimal"): {2: [3.0, 3.5], 4: [5.0, 5.5]},
        },
    )
    files = emit_plot_data(rows, "latency-vs-users", str(tmp_path))
    assert len(files) == 2
    for f in files:
        lines = open(f, encoding="utf-8").read().splitlines()
        assert lines[0] == "value,objective_s"
        assert len(lines) == 3
    files = emit_plot_data(rows, "rate-vs-users", str(tmp_path))
    text = open(files[0], encoding="utf-8").read()
    assert "mean_rate_bps" in text.splitlines()[0]


def test_latency_bars_components(tmp_path):
    rows = _fake_rows([3], {("dwoa", "equal"): {3: [2.0, 4.0]}})
    (f,) = emit_plot_data(rows, "latency-bars", str(tmp_path))
    lines = open(f, encoding="utf-8").read().splitlines()
    assert lines[0] == "scheme,component,seconds"
    comp = {l.split(",")[1]: float(l.split(",")[2]) for l in lines[1:]}
    assert comp["total"] == pytest.approx(3.0)
    assert comp["computation"] + comp["distributed"] == pytest.approx(3.0)


def test_limited_vs_unlimited_needs_both_modes(tmp_path):
    rows = _fake_rows([2], {("dwoa", "equal"): {2: [1.0]}}, axis="subtasks")
    with pytest.raises(ValueError, match="energy"):
        emit_plot_data(rows, "limited-vs-unlimited", str(tmp_path))


def test_convergence_series_from_traces(tmp_path):
    spec = _spec(tmp_path, values=(6,), seeds=(0, 1))
    rows, paths = run_experiment(spec)
    files = emit_plot_data(
        rows, "convergence", str(tmp_path / "plots"), traces_dir=paths["traces"]
    )
    assert files
    lines = open(files[0], encoding="utf-8").read().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "iteration,objective_s"
    vals = [float(l.split(",")[1]) for l in lines[2:]]
    assert vals == sorted(vals, reverse=True)
    assert len(vals) == spec.max_iterations


def test_figures_registry_complete():
    assert set(FIGURES) == {
        "convergence",
        "latency-bars",
        "energy-bars",
        "rate-vs-users",
        "latency-vs-users",
        "latency-vs-subtasks",
        "limited-vs-unlimited",
        "penalty-factors",
    }

import dataclasses
import hashlib
import json
import math
import os
import re

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
from uavmec import (
    BandwidthAllocation, DwoaConfig, PenaltyConfig, alloc_proportional, decision_to_vector,
    generate_scenario, save_scenario, validate_scenario,
)
from uavmec import channel, evaluator, experiments, solvers
from uavmec.evaluator import Evaluator
from uavmec.experiments import FIGURES, ResultRow, summary_to_csv

from conftest import DESK_TASK, searched_alone, write_nan_uav_scenario

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


def test_spec_rejects_unknown_keys(tmp_path):
    d = dict(_spec(tmp_path).to_dict(), max_iteration=2)
    with pytest.raises(ValueError, match="max_iteration"):
        ExperimentSpec.from_dict(d)


@pytest.mark.parametrize(
    "kw",
    [
        dict(values=("1,2", 3)),
        dict(axis="subtasks", values=("2\n", 3)),
        dict(experiment_id="a,b"),
        dict(experiment_id="a\rb"),
    ],
)
def test_spec_rejects_csv_breaking_text(tmp_path, kw):
    problems = _spec(tmp_path, **kw).validate()
    assert any("',', newline or carriage return" in p for p in problems)


def test_spec_rejects_axis_values_that_repeat_as_text(tmp_path):
    # (3, "3") would run two cells writing one trace file
    problems = _spec(tmp_path, values=(3, "3")).validate()
    assert any("axis values must differ as text" in p for p in problems)


@pytest.mark.parametrize(
    "field, entries",
    [("solvers", ("dwoa", "dwoa")), ("allocators", ("equal", "optimal", "equal")),
     ("energy_modes", ("limited", "limited"))],
)
def test_spec_rejects_repeated_entries(tmp_path, field, entries):
    # solvers=("dwoa", "dwoa") would run two cells writing one trace file
    problems = _spec(tmp_path, **{field: entries}).validate()
    assert f"{field} must be distinct, got {list(entries)}" in problems


def test_spec_reports_an_unknown_name_once(tmp_path):
    problems = _spec(tmp_path, solvers=("bogus", "bogus")).validate()
    assert problems.count("unknown solver 'bogus'") == 1
    assert "solvers must be distinct, got ['bogus', 'bogus']" in problems


@pytest.mark.parametrize(
    "key, value",
    [("values", 4), ("seeds", 7), ("solvers", "dwoa"), ("allocators", "equal"),
     ("energy_modes", "limited")],
)
def test_spec_file_refuses_a_sequence_key_that_is_not_a_list(tmp_path, key, value):
    # a string would be split into one-letter entries, a number not read at all
    d = dict(json.loads(json.dumps(_spec(tmp_path).to_dict())), **{key: value})
    with pytest.raises(ValueError, match=f"spec key '{key}' must be a list, got {value!r}"):
        ExperimentSpec.from_dict(d)


@pytest.mark.parametrize(
    "key, value, kind",
    [("generator", 5, "an object"), ("axis", ["agents"], "a string"),
     ("experiment_id", None, "a string")],
)
def test_spec_file_refuses_a_key_of_another_json_type(tmp_path, key, value, kind):
    # else the sweep fails far from the file without naming the key, or
    # runs and writes the null id into every results.csv row
    d = dict(json.loads(json.dumps(_spec(tmp_path).to_dict())), **{key: value})
    with pytest.raises(ValueError, match=re.escape(f"spec key '{key}' must be {kind}, got {value!r}")):
        ExperimentSpec.from_dict(d)


def test_spec_from_dict_takes_the_tuples_to_dict_gives(tmp_path):
    spec = _spec(tmp_path)
    assert ExperimentSpec.from_dict(spec.to_dict()) == spec


@pytest.mark.parametrize("lam", [None, True, "abc", [1]], ids=["null", "true", "string", "list"])
def test_spec_file_penalty_lambda_meets_the_lambda_rule(tmp_path, lam):
    # as JSON gives it: no conversion runs before the rule
    d = json.loads(json.dumps(dict(_spec(tmp_path).to_dict(), penalty_lambda=lam)))
    assert ExperimentSpec.from_dict(d).validate() == [
        f"lambda must be a finite number > 0 in penalty mode, got {lam!r}"]
    axis = dict(d, axis="penalty_lambda", values=[0.1, lam])
    assert ExperimentSpec.from_dict(axis).validate() == [
        f"lambda must be a finite number > 0 in penalty mode, got {lam!r}"]


def test_spec_file_keeps_an_integer_lambda(tmp_path):
    spec = ExperimentSpec.from_dict(dict(_spec(tmp_path, values=(5,), seeds=(0,)).to_dict(),
                                         penalty_lambda=1))
    _rows, paths = run_experiment(spec)
    with open(paths["manifest"], encoding="utf-8") as f:
        lam = json.load(f)["spec"]["penalty_lambda"]
    assert lam == 1 and type(lam) is int


def test_spec_rejects_unknown_penalty_mode(tmp_path):
    assert _spec(tmp_path, penalty_mode="hard").validate() == []
    assert _spec(tmp_path, penalty_mode="hrad").validate() == ["unknown penalty mode 'hrad'"]


@pytest.mark.parametrize("lam", [0.0, -1.0, math.nan, math.inf], ids=["zero", "negative", "nan", "inf"])
def test_spec_rejects_a_penalty_lambda_no_cell_could_run(tmp_path, lam):
    # read as JSON would give it; every cell would only record the error
    spec = ExperimentSpec.from_dict(dict(_spec(tmp_path).to_dict(), penalty_lambda=lam))
    assert spec.validate() == [f"lambda must be a finite number > 0 in penalty mode, got {lam!r}"]
    with pytest.raises(ValueError, match="lambda must be a finite number"):
        run_experiment(spec)
    assert not os.path.exists(spec.output_dir)
    # hard mode reads no lambda
    assert dataclasses.replace(spec, penalty_mode="hard").validate() == []


def test_spec_rejects_penalty_axis_values_no_cell_could_run(tmp_path):
    spec = _spec(tmp_path, axis="penalty_lambda", values=(0.1, "hard", 0, math.nan, "hrad"))
    assert spec.validate() == [
        f"lambda must be a finite number > 0 in penalty mode, got {v!r}" for v in (0, math.nan, "hrad")]


def test_spec_rejects_unknown_upload_model(tmp_path):
    assert _spec(tmp_path, upload_model="independent").validate() == []
    assert _spec(tmp_path, upload_model="cumulatve").validate() == [
        "unknown upload model 'cumulatve'"]


@pytest.mark.parametrize(
    "kw, problem",
    [
        (dict(values=(3.7, 5)), "agents value must be an integer, got 3.7"),
        (dict(values=(True, 5)), "agents value must be an integer, got True"),
        (dict(axis="users", values=(2.5,), generator={}), "users value must be an integer, got 2.5"),
        (dict(axis="subtasks", values=(4, 2.5)), "subtasks value must be an integer, got 2.5"),
        (dict(agents=3.9), "agents must be an integer, got 3.9"),
        (dict(max_iterations=2.5), "max_iterations must be an integer, got 2.5"),
        (dict(seeds=[0, 1.7]), "seed must be an integer, got 1.7"),
        (dict(seeds=[True]), "seed must be an integer, got True"),
        (dict(seeds=[0, -1]), "seed must be >= 0, got -1"),
    ],
    ids=["agents-float", "agents-bool", "users-float", "subtasks-float", "agents-field",
         "max-iterations", "seed-float", "seed-bool", "seed-negative"],
)
def test_spec_rejects_non_integer_counts(tmp_path, kw, problem):
    # read as JSON would give them, none truncated to an integer
    spec = ExperimentSpec.from_dict(dict(_spec(tmp_path).to_dict(), **kw))
    assert spec.validate() == [problem]


@pytest.mark.parametrize(
    "kw, problems",
    [
        (dict(values=(0, 3)), ["agents value must be >= 1, got 0"]),
        (dict(values=(3, 2**32)), [f"agents value must be <= {2**32 - 1}, got {2**32}"]),
        (dict(agents=0), ["agents must be >= 1, got 0"]),
        (dict(max_iterations=-2), ["max_iterations must be >= 0, got -2"]),
        (dict(axis="subtasks", values=(0, 4)), ["subtasks value must be >= 1, got 0"]),
        (dict(axis="users", values=(0, 99), generator={}),
         ["users value must be >= 1, got 0", "users value must be <= 10, got 99"]),
        (dict(axis="users", values=(4, 5), generator=dict(max_users=4)),
         ["users value must be <= 4, got 5"]),
        (dict(axis="users", values=(4,), generator=dict(max_users=4.5)),
         ["generator max_users must be an integer, got 4.5"]),
    ],
    ids=["agents-axis-zero", "agents-axis-past-u32", "agents-field-zero", "max-iterations-negative",
         "subtasks-zero", "users-outside-default", "users-past-max-users", "max-users-float"],
)
def test_spec_rejects_counts_out_of_range(tmp_path, kw, problems):
    # the ranges DwoaConfig and the scenario generators enforce, so no
    # cell of the sweep can only record their ValueError
    spec = ExperimentSpec.from_dict(dict(_spec(tmp_path).to_dict(), **kw))
    assert spec.validate() == problems


def test_spec_takes_counts_at_their_range_ends(tmp_path):
    assert _spec(tmp_path, values=(1, 2**32 - 1), max_iterations=0).validate() == []
    assert _spec(tmp_path, axis="subtasks", values=(1, 4)).validate() == []
    assert _spec(tmp_path, axis="users", values=(1, 10), generator={}).validate() == []
    assert _spec(tmp_path, axis="users", values=(12,), generator=dict(max_users=12)).validate() == []


@pytest.mark.parametrize(
    "kw, problems",
    [
        (dict(generator=dict(DESK_GEN, uav_cout=4)), ["unknown generator key 'uav_cout'"]),
        (dict(generator=dict(DESK_GEN, seed=3)), ["generator key 'seed' is set by the sweep"]),
        (dict(generator=dict(DESK_GEN, users=3)), ["generator key 'users' is set by the sweep"]),
        (dict(axis="users", values=(2,), generator=dict(users=3)),
         ["generator key 'users' is set by the sweep"]),
        # the users axis calls generate_user_sweep_family, which takes
        # neither uav_count nor task_params
        (dict(axis="users", values=(2,), generator=dict(uav_count=2, subtasks=3)),
         ["unknown generator key 'uav_count'"]),
        (dict(generator=dict(DESK_GEN, subtasks=3)), ["unknown generator key 'subtasks'"]),
    ],
    ids=["typo", "seed", "users", "users-axis-users", "users-axis-scenario-key",
         "family-key-elsewhere"],
)
def test_spec_rejects_generator_keys_no_generator_takes(tmp_path, kw, problems):
    assert _spec(tmp_path, **kw).validate() == problems


@pytest.mark.parametrize(
    "axis, name, value, problem",
    [
        ("agents", "uav_count", 0, "generator uav_count must be >= 1, got 0"),
        ("agents", "active_users", 0, "generator active_users must be >= 1, got 0"),
        ("agents", "subtasks_per_task", 2.5, "generator subtasks_per_task must be an integer, got 2.5"),
        ("agents", "uav_count", True, "generator uav_count must be an integer, got True"),
        ("users", "subtasks", 0, "generator subtasks must be >= 1, got 0"),
        ("users", "subtasks", 3.0, "generator subtasks must be an integer, got 3.0"),
    ],
    ids=["uav-count-zero", "active-users-zero", "subtasks-per-task-float", "uav-count-bool",
         "subtasks-zero", "subtasks-float"],
)
def test_spec_rejects_generator_counts_out_of_range(tmp_path, axis, name, value, problem):
    generator = {} if axis == "users" else dict(DESK_GEN)
    spec = _spec(tmp_path, axis=axis, values=(2,), generator={**generator, name: value})
    assert spec.validate() == [problem]
    assert _spec(tmp_path, axis=axis, values=(2,), generator={**generator, name: 1}).validate() == []


@pytest.mark.parametrize("energy", [-1.0, math.nan], ids=["negative", "nan"])
def test_spec_rejects_a_negative_or_nan_energy_per_subtask(tmp_path, energy):
    # the two energy modes share the input's plan, so such a budget would
    # fail the unlimited cells too
    spec = _spec(tmp_path, generator=dict(DESK_GEN, energy_per_subtask_j=energy),
                 energy_modes=("limited", "unlimited"))
    assert spec.validate() == [f"generator energy_per_subtask_j must be >= 0, got {energy!r}"]
    with pytest.raises(ValueError, match="energy_per_subtask_j"):
        run_experiment(spec)
    for fine in (0.0, math.inf):
        assert _spec(tmp_path, generator=dict(DESK_GEN, energy_per_subtask_j=fine)).validate() == []


def test_spec_takes_numpy_integer_counts(tmp_path):
    spec = _spec(tmp_path, values=(np.int64(5), 10), seeds=(np.uint32(0), 1), agents=np.int8(3))
    assert spec.validate() == []


def test_spec_rejects_generator_next_to_scenario_file(tmp_path):
    problems = _spec(tmp_path, scenario_file="scen.json").validate()
    assert "generator parameters are unused next to scenario_file" in problems
    assert _spec(tmp_path, scenario_file="scen.json", generator={}).validate() == []


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


def test_invalid_scenario_file_gives_error_rows(tmp_path):
    spec = _spec(
        tmp_path,
        axis="solver",
        values=("dwoa", "associated"),
        seeds=(0,),
        scenario_file=write_nan_uav_scenario(tmp_path / "nan.json"),
        generator={},
    )
    rows, paths = run_experiment(spec)
    assert len(rows) == 2
    for r in rows:
        assert r.error == "ValueError: invalid scenario: uav[1]: position_m must be finite"
        assert r.objective_s is None and r.feasible is None
    assert os.listdir(paths["traces"]) == []


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
    """Counts the generate_scenario and load_scenario calls made by the
    sweep, the allocator calls made through solvers.ALLOCATORS and
    Evaluator constructions anywhere."""
    counts = {"scenarios": 0, "loads": 0, "allocations": 0, "evaluators": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(experiments, "generate_scenario",
                        counting("scenarios", experiments.generate_scenario))
    monkeypatch.setattr(experiments, "load_scenario", counting("loads", experiments.load_scenario))
    for alloc, fn in solvers.ALLOCATORS.items():
        monkeypatch.setitem(solvers.ALLOCATORS, alloc, counting("allocations", fn))
    monkeypatch.setattr(Evaluator, "__init__", counting("evaluators", Evaluator.__init__))
    return counts


@pytest.fixture
def plan_counts(monkeypatch):
    """Counts the scenario plans built anywhere."""
    counts = {"plans": 0}
    init = evaluator._Plan.__init__

    def counting_init(self, *args, **kwargs):
        counts["plans"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(evaluator._Plan, "__init__", counting_init)
    return counts


@pytest.fixture
def layout_counts(monkeypatch):
    """Counts the plans laid out for the population kernel anywhere."""
    counts = {"layouts": 0}
    compile_ = evaluator._Plan.compile

    def counting_compile(self):
        counts["layouts"] += 1
        return compile_(self)

    monkeypatch.setattr(evaluator._Plan, "compile", counting_compile)
    return counts


def test_sweep_builds_each_input_once(tmp_path, build_counts, plan_counts, layout_counts):
    spec = _shared_spec(
        tmp_path,
        axis="allocator",
        values=("equal", "proportional", "optimal"),
        solvers=("associated", "dwoa"),
        energy_modes=("limited", "unlimited"),
    )
    rows, _paths = run_experiment(spec)
    assert len(rows) == 24 and not any(r.error for r in rows)
    # one scenario per seed; one allocation per (seed, allocator), which
    # both energy modes share; one Evaluator per (seed, mode, allocator),
    # shared by the associated and the dwoa cell and their result()
    assert build_counts == {"scenarios": 2, "loads": 0, "allocations": 6, "evaluators": 12}
    # one plan per seed, shared by its 3 allocators x 2 energy modes
    assert plan_counts == {"plans": 2}
    # and laid out once, by the first of its six swarms
    assert layout_counts == {"layouts": 2}


def test_file_sweep_builds_each_input_once(tmp_path, build_counts, plan_counts):
    save_scenario(generate_scenario(np.random.SeedSequence([0, 0]), **BIND_GEN),
                  tmp_path / "scen.json")
    spec = _shared_spec(
        tmp_path,
        axis="allocator",
        values=("equal", "optimal"),
        seeds=(0, 1, 2),
        scenario_file=str(tmp_path / "scen.json"),
        generator={},
        solvers=("associated", "dwoa"),
        energy_modes=("limited", "unlimited"),
    )
    rows, _paths = run_experiment(spec)
    assert len(rows) == 24 and not any(r.error for r in rows)
    # the file is one generator input, whatever the seed
    assert build_counts == {"scenarios": 0, "loads": 1, "allocations": 2, "evaluators": 4}
    assert plan_counts == {"plans": 1}


def test_file_sweep_validates_its_scenario_once(tmp_path, validations):
    save_scenario(generate_scenario(np.random.SeedSequence([0, 0]), **BIND_GEN),
                  tmp_path / "scen.json")
    spec = _shared_spec(tmp_path, axis="allocator", values=("equal", "optimal"), seeds=(0, 1, 2),
                        scenario_file=str(tmp_path / "scen.json"), generator={},
                        solvers=("associated", "dwoa"))
    rows, _paths = run_experiment(spec)
    assert len(rows) == 12 and not any(r.error for r in rows)
    assert len(validations) == 1


@pytest.mark.parametrize("alloc", sorted(solvers.ALLOCATORS))
def test_allocations_read_no_budget(alloc):
    # the sweep builds one allocation for both energy modes
    scen = generate_scenario(np.random.SeedSequence([0, 0]), **ALLOC_GEN)
    allocate = solvers.ALLOCATORS[alloc]
    assert allocate(with_unlimited_energy(scen)).fractions == allocate(scen).fractions


@pytest.mark.parametrize("alloc", sorted(solvers.ALLOCATORS))
def test_schedule_uplink_rates_are_the_channels(alloc):
    scen = generate_scenario(np.random.SeedSequence([0, 0]), **ALLOC_GEN)
    beta = solvers.ALLOCATORS[alloc](scen)
    res = Evaluator(scen, beta).result(solvers.associated_decision(scen))
    assert len(res.uplink_rate_bps) == len(scen.tasks) == 2
    for t in scen.tasks:
        user = scen.user_by_id(t.owner_user)
        uav = scen.uav_by_id(user.associated_uav)
        want = channel.user_uplink_rate(user, uav, beta.fraction(uav.id, user.id), scen.physics)
        assert res.uplink_rate_bps[user.id] == want


def test_alternating_closed_form_evaluator_shares_the_plan(tmp_path, build_counts, plan_counts):
    spec = _shared_spec(
        tmp_path, axis="allocator", values=("equal",), seeds=(0,), generator=dict(ALLOC_GEN),
        solvers=("alternating",), agents=5, max_iterations=3,
    )
    rows, _paths = run_experiment(spec)
    assert not rows[0].error
    assert build_counts["evaluators"] == 2 and plan_counts == {"plans": 1}
    # alternating_solve plans its scenario once too
    scen = generate_scenario(np.random.SeedSequence([0, 0]), **ALLOC_GEN)
    solvers.alternating_solve(scen, DwoaConfig(agents=5, max_iterations=3))
    assert build_counts["evaluators"] == 4 and plan_counts == {"plans": 2}


@pytest.mark.parametrize("spoil", [
    dict(altitude_m=math.nan),
    dict(task_params=dict(DESK_TASK, release_time_s=math.inf)),
], ids=["nan-uav-position", "inf-release"])
def test_sweep_cell_on_an_invalid_scenario_records_the_validators_message(tmp_path, spoil):
    gen = dict(DESK_GEN, **spoil)
    spec = _spec(tmp_path, generator=gen, seeds=(0,), solvers=("dwoa", "alternating"),
                 energy_modes=("limited", "unlimited"))
    rows, _paths = run_experiment(spec)
    problems = validate_scenario(generate_scenario(np.random.SeedSequence([0, 0]), **gen))
    assert problems
    assert [r.error for r in rows] == ["ValueError: invalid scenario: " + "; ".join(problems)] * 8


def test_alternating_cells_build_one_closed_form_evaluator_at_most(tmp_path, build_counts):
    spec = _shared_spec(
        tmp_path,
        axis="allocator",
        values=("equal", "proportional", "optimal"),
        solvers=("associated", "dwoa", "alternating"),
        energy_modes=("limited", "unlimited"),
    )
    rows, _paths = run_experiment(spec)
    assert len(rows) == 36 and not any(r.error for r in rows)
    # the 12 shared Evaluators, plus a closed-form split one for each
    # equal-split alternating cell; each UAV serves at most one active
    # user here, so the proportional split already is the closed form
    assert build_counts == {"scenarios": 2, "loads": 0, "allocations": 6, "evaluators": 16}


# three UAVs serving 2-10 users each; both active users share UAV 3, so
# the three allocators give three different splits
ALLOC_GEN = dict(uav_count=3, subtasks_per_task=4, active_users=2)


@pytest.mark.parametrize("alloc,builds", [("equal", 2), ("proportional", 2), ("optimal", 1)])
def test_alternating_cell_builds(tmp_path, build_counts, alloc, builds):
    spec = _shared_spec(
        tmp_path, axis="allocator", values=(alloc,), seeds=(0,), generator=dict(ALLOC_GEN),
        solvers=("alternating",), agents=5, max_iterations=3,
    )
    rows, _paths = run_experiment(spec)
    assert not rows[0].error
    assert build_counts["evaluators"] == builds


def test_alternating_row_searches_the_cells_allocation(tmp_path, monkeypatch):
    runs = {}

    def recording(ev, cfg):
        run = solvers.alternating_search(ev, cfg)
        runs[tuple(sorted(ev.beta.fractions.items()))] = run
        return run

    monkeypatch.setitem(solvers.SOLVERS, "alternating", recording)
    spec = _shared_spec(
        tmp_path, axis="allocator", values=("equal", "proportional"), seeds=(0,),
        generator=dict(ALLOC_GEN), solvers=("alternating",), agents=5, max_iterations=3,
    )
    rows, _paths = run_experiment(spec)
    row = next(r for r in rows if r.allocator == "proportional")

    scen = generate_scenario(np.random.SeedSequence([0, 0]), **ALLOC_GEN)
    beta = alloc_proportional(scen)
    cfg = DwoaConfig(agents=5, max_iterations=3, penalty=PenaltyConfig(lambda_=spec.penalty_lambda),
                     seed=solvers.solver_seed(0), upload_model=spec.upload_model)
    want = solvers.alternating_search(Evaluator(scen, beta, cfg.penalty, cfg.upload_model), cfg)
    assert row.objective_s.hex() == want.objective_s.hex() == (341.3554264017053).hex()
    assert runs[tuple(sorted(beta.fractions.items()))].beta.fractions == want.beta.fractions
    # the equal split reaches another optimum on this scenario
    assert next(r for r in rows if r.allocator == "equal").objective_s != row.objective_s


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
    assert build_counts == {"scenarios": 4, "loads": 0, "allocations": 4, "evaluators": 8}


def test_penalty_values_equal_as_numbers_share_one_evaluator(tmp_path, build_counts):
    spec = _shared_spec(
        tmp_path,
        axis="penalty_lambda",
        values=(1, 1.0),
        seeds=(0,),
        allocators=("equal", "optimal"),
        energy_modes=("limited", "unlimited"),
    )
    rows, _paths = run_experiment(spec)
    assert len(rows) == 8 and not any(r.error for r in rows)
    # one Evaluator per (energy mode, allocator): both values run one penalty
    assert build_counts["evaluators"] == 4
    by_value = {}
    for r in rows:
        by_value.setdefault(r.value, []).append(dataclasses.replace(r, value=""))
    assert by_value["1"] == by_value["1.0"]


@pytest.fixture
def lockstep_runs(monkeypatch):
    """Every (Evaluator, config) a sweep searches in lockstep, with its run."""
    seen = []

    def recording(searches):
        runs = solvers._dwoa_runs(searches)
        seen.extend(zip(searches, runs))
        return runs

    monkeypatch.setattr(experiments, "_dwoa_runs", recording)
    return seen


LOCKSTEP_SWEEPS = {
    "allocator": dict(axis="allocator", values=("equal", "proportional", "optimal"),
                      solvers=("associated", "dwoa"), energy_modes=("limited", "unlimited")),
    "agents": dict(axis="agents", values=(1, 3, 8), solvers=("dwoa",)),
    "penalty_lambda": dict(axis="penalty_lambda", values=(0.01, 1.0, 3, "hard"),
                           allocators=("equal", "optimal")),
    "dwoa+alternating": dict(axis="solver", values=("dwoa", "alternating"),
                             allocators=("equal", "optimal"), energy_modes=("limited", "unlimited")),
}


@pytest.mark.parametrize("name", sorted(LOCKSTEP_SWEEPS))
def test_lockstep_cells_run_as_they_run_alone(tmp_path, lockstep_runs, name):
    rows, _paths = run_experiment(_shared_spec(tmp_path, **LOCKSTEP_SWEEPS[name]))
    assert not any(r.error for r in rows)
    assert len(lockstep_runs) == sum(r.solver == "dwoa" for r in rows)
    for (ev, cfg), run in lockstep_runs:
        alone = solvers.dwoa_search(ev, cfg)
        assert (run.decision, run.objective_s, run.feasible, run.trace) == (
            alone.decision, alone.objective_s, alone.feasible, alone.trace)
        assert (decision_to_vector(ev.scenario, run.decision), run.trace) == searched_alone(ev, cfg)


def test_a_groups_dwoa_cells_share_one_pass_per_iteration(tmp_path, monkeypatch):
    passes = []
    score = evaluator._Stack.fitness_many
    monkeypatch.setattr(evaluator._Stack, "fitness_many", lambda st, P: passes.append(len(P)) or score(st, P))
    run_experiment(_shared_spec(tmp_path, **LOCKSTEP_SWEEPS["allocator"]))
    # per seed, 3 splits x 2 energy modes of 10 agents, 5 iterations
    assert passes == [60] * 6 * 2


@pytest.mark.parametrize("failure", ["allocator", "evaluator"])
def test_a_failing_cell_leaves_its_lockstep_group_unchanged(tmp_path, monkeypatch, failure):
    kw = LOCKSTEP_SWEEPS["allocator"]
    _rows, clean = run_experiment(_shared_spec(
        tmp_path, **dict(kw, values=("equal", "optimal")), output_dir=str(tmp_path / "clean")))

    def want(seed):
        if failure == "allocator":
            return "RuntimeError: allocator failed"
        scen = generate_scenario(np.random.SeedSequence([seed, 0]), **BIND_GEN)
        with pytest.raises(ValueError) as exc:  # a split that leaves users without uplink
            Evaluator(scen, BandwidthAllocation({}), PenaltyConfig())
        return f"ValueError: {exc.value}"

    def broken(scenario):
        if failure == "allocator":
            raise RuntimeError("allocator failed")
        return BandwidthAllocation({})

    monkeypatch.setitem(solvers.ALLOCATORS, "proportional", broken)
    rows, paths = run_experiment(_shared_spec(tmp_path, **kw))
    for r in rows:
        if r.allocator == "proportional":
            assert r.error == want(r.seed) and r.objective_s is None and r.feasible is None
    with open(paths["results"], encoding="utf-8") as f:
        kept = [line for line in f.read().splitlines() if ",proportional," not in line]
    with open(clean["results"], encoding="utf-8") as f:
        assert kept == f.read().splitlines()
    names = sorted(os.listdir(clean["traces"]))
    assert sorted(os.listdir(paths["traces"])) == names
    for name in names:
        with open(os.path.join(paths["traces"], name), "rb") as a, \
                open(os.path.join(clean["traces"], name), "rb") as b:
            assert a.read() == b.read()


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


# SHA-256 of every other artifact a sweep and its readers write, captured
# while results.csv, timings.csv and summary.csv each had a hand-typed
# writer: the summary CSV, the timings key columns (wall_time_s dropped),
# the manifest with output_dir replaced by "OUT", and the names and bytes
# of each figure's plot-data files
ARTIFACT_GOLDENS = {
    "agents": (
        dict(axis="agents", values=(3, 5), solvers=("dwoa", "alternating"), max_iterations=4),
        ("convergence", "latency-bars", "energy-bars"),
        {
            "convergence": "2253d406f269d053f28fca0ef9db9906b3a5b9e0f63bd0b248e34d66a4d19716",
            "energy-bars": "1548f81c32e36f0f7796452b995657bd8dee10604f6f3e47fd05b842373028da",
            "latency-bars": "05f8a3785e9b5e685af237638c1174e9d13fa0b9e23fb40cd154188658e74827",
            "manifest": "c0ef75a767be39190eb61728d7b50e3a1b2a2c630748b6c7bc9b09a1c634e9ad",
            "summary": "d7b452a2244da9d913178b5599fc059b6bc5b141f40700128775f843e0660f1c",
            "timings": "bdff8ed3cb12c8f085f2cbdde25f1e35873be300c3d684fcedcfa303e3281b03",
        },
    ),
    "penalty_lambda": (
        dict(axis="penalty_lambda", values=(0.01, "hard"), allocators=("equal", "optimal")),
        ("penalty-factors",),
        {
            "manifest": "afb5d178e854533408a685315c4af3d01ea51915c348dff8eed22cdce800fef9",
            "penalty-factors": "6ed71362090d51533bbc14f9e7e632c8e69e35ce34ef218df7c631a5c3632622",
            "summary": "2f9e00fb03d1d3123af61ed8d81c3880653d443532934459bfff9e7b0b65b643",
            "timings": "2a04db228bb8eeb525313b31948f335923d8445c029d73a98fce952a9445a415",
        },
    ),
    "users": (
        dict(axis="users", values=(2, 4), generator=dict(subtasks=3),
             solvers=("associated", "dwoa"), allocators=("equal", "optimal")),
        ("rate-vs-users", "latency-vs-users"),
        {
            "latency-vs-users": "ad47b904d26a8767234a2c762b631a54c25c6f42a3484440d48875328c030865",
            "manifest": "1c76db9f0fbfa4dd02919cdac42a9de94018fce34b7547dd99d747e123a55986",
            "rate-vs-users": "8674ab4441c0106acaf8545750348d404cc163805764348dad7bae8bb24a9f1d",
            "summary": "58ebb863074e590fe1a3da31ea6eb5629160d42d92571f8f1133d2a2a347e754",
            "timings": "a97e541462b31a8013fa499b08c21087d4f72fa9ad72da66619e0f6c5ba05bb4",
        },
    ),
    "subtasks": (
        dict(axis="subtasks", values=(2, 3), solvers=("associated", "dwoa"),
             energy_modes=("limited", "unlimited")),
        ("latency-vs-subtasks", "limited-vs-unlimited"),
        {
            "latency-vs-subtasks": "2406ba4cacfe651157c4888e4c60ad42436cb578c4729e5440807baec5bf8c07",
            "limited-vs-unlimited": "7da5749758226d8f8f2171dbe23bec159fec3ec0f9ce270c9df75866e15bc00d",
            "manifest": "3e6107bb15fe946c347140fab6f81c009284b6eb2d2d8c67a8d7dbae61f0018f",
            "summary": "2cc6a750f5f0c717833df29fcbb84f5916a06c02f755b8ed192f16a889e77225",
            "timings": "af322acc0805d1d3f90161da4f7417d5e9339d7f1ceca64e7c849eeb04ef4cf0",
        },
    ),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(ARTIFACT_GOLDENS))
def test_sweep_artifacts_keep_bytes(tmp_path, name):
    kw, figures, want = ARTIFACT_GOLDENS[name]
    spec = _shared_spec(tmp_path, agents=5, **kw)
    rows, paths = run_experiment(spec)
    got = {"summary": _sha(summary_to_csv(summarize(rows)).encode())}
    with open(paths["timings"], encoding="utf-8") as f:
        head, *body = f.read().splitlines()
    got["timings"] = _sha("\n".join([head] + [l.rsplit(",", 1)[0] for l in body]).encode())
    with open(paths["manifest"], encoding="utf-8") as f:
        manifest = f.read().replace(json.dumps(spec.output_dir), '"OUT"')
    got["manifest"] = _sha(manifest.encode())
    for figure in figures:
        out = tmp_path / figure
        files = emit_plot_data(rows, figure, str(out), traces_dir=paths["traces"])
        blob = hashlib.sha256()
        for path in files:
            with open(path, "rb") as f:
                blob.update(os.path.relpath(path, out).encode() + b"\0" + f.read() + b"\0")
        got[figure] = blob.hexdigest()
    assert got == want


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
    # a valid scenario with no active user and no task
    scen = generate_scenario(np.random.SeedSequence([0, 0]), **BIND_GEN)
    scen = dataclasses.replace(scen, tasks=(), users=tuple(
        dataclasses.replace(u, active=False) for u in scen.users))
    save_scenario(scen, tmp_path / "idle.json")
    spec = _shared_spec(
        tmp_path,
        axis="solver",
        values=("dwoa", "exhaustive", "associated", "alternating"),
        seeds=(0,),
        scenario_file=str(tmp_path / "idle.json"),
        generator={},
        energy_modes=("limited", "unlimited"),
    )
    rows, paths = run_experiment(spec)
    assert len(rows) == 8
    assert {r.error for r in rows} == {"ValueError: scenario has no active users"}
    assert os.listdir(paths["traces"]) == []
    # one failed Evaluator build per energy mode, re-raised for every cell
    # of the group, alternating included
    assert build_counts["evaluators"] == 2


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


def test_summary_csv_leaves_error_groups_empty():
    rows = _fake_rows([2], {("dwoa", "equal"): {2: [4.0, 6.0]}, ("associated", "equal"): {2: [10.0]}})
    rows[-1].error, rows[-1].objective_s = "Boom: x", None
    assert summary_to_csv(summarize(rows)) == (
        "value,solver,allocator,energy_mode,n,errors,objective_median,"
        "objective_mean,objective_min,objective_max,feasible_rate\n"
        "2,associated,equal,limited,1,1,,,,,\n"
        "2,dwoa,equal,limited,2,0,5.0,5.0,4.0,6.0,1.0\n"
        "\n"
        "value,scheme,baseline,improvement_pct\n"
    )


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


def test_penalty_factors_read_the_traces_of_searching_rows_only(tmp_path):
    spec = _shared_spec(tmp_path, axis="penalty_lambda", values=(0.01, "hard"), agents=5,
                        solvers=("associated", "dwoa"))
    rows, paths = run_experiment(spec)

    def figure(rows, name):
        out = tmp_path / name
        files = emit_plot_data(rows, "penalty-factors", str(out), traces_dir=paths["traces"])
        return {os.path.relpath(p, out): open(p, encoding="utf-8").read() for p in files}

    dwoa = [r for r in rows if r.solver == "dwoa"]
    assert figure(rows, "all") == figure(dwoa, "dwoa")
    os.remove(os.path.join(paths["traces"], experiments._trace_name(dwoa[0])))
    with pytest.raises(ValueError, match="missing trace file"):
        figure(rows, "missing")


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

import json
import os

import pytest

from uavmec import load_scenario, save_scenario
from uavmec.cli import main

from conftest import desk_scenario, run_digest, write_nan_uav_scenario

DESK_SPEC = dict(
    experiment_id="cli",
    axis="agents",
    values=[4, 8],
    seeds=[0, 1],
    solvers=["dwoa"],
    agents=8,
    max_iterations=4,
    generator=dict(
        uav_count=2,
        users_per_uav=[1, 1],
        active_users=1,
        subtasks_per_task=3,
        energy_per_subtask_j=1e9,
        task_params=dict(size_mean_bits=1e6, size_std_bits=2e5),
    ),
)


def _scenario_file(tmp_path, name="scen.json", **kw):
    path = str(tmp_path / name)
    save_scenario(desk_scenario(3, uav_count=2, subtasks=4, **kw), path)
    return path


def test_generate_writes_scenario(tmp_path, capsys):
    out = str(tmp_path / "s.json")
    rc = main(["generate", "--seed", "3", "--uavs", "2", "--subtasks", "4", "--out", out])
    assert rc == 0
    assert capsys.readouterr().out.strip() == out
    s = load_scenario(out)
    assert len(s.uavs) == 2


def test_generate_uses_env_output_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("UAVMEC_OUTPUT_DIR", str(tmp_path))
    rc = main(["generate", "--seed", "9", "--uavs", "2"])
    assert rc == 0
    expect = os.path.join(str(tmp_path), "scenario_9.json")
    assert capsys.readouterr().out.strip() == expect
    assert os.path.exists(expect)


def test_generate_is_seed_deterministic(tmp_path):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    assert main(["generate", "--seed", "5", "--out", a]) == 0
    assert main(["generate", "--seed", "5", "--out", b]) == 0
    assert open(a).read() == open(b).read()


def test_solve_feasible_exits_zero(tmp_path, capsys):
    scen = _scenario_file(tmp_path)
    run_file = str(tmp_path / "run.json")
    rc = main([
        "solve", "--scenario", scen, "--solver", "exhaustive",
        "--alloc", "equal", "--out", run_file,
    ])
    assert rc == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("solver=exhaustive objective_s=")
    assert line.endswith("feasible=true")
    blob = json.loads(open(run_file).read())
    assert blob["solver"] == "exhaustive"
    assert blob["feasible"] is True


def test_solve_dwoa_seed_repeatable(tmp_path, capsys):
    scen = _scenario_file(tmp_path)
    args = ["solve", "--scenario", scen, "--solver", "dwoa",
            "--agents", "10", "--iters", "5", "--seed", "11"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_solve_infeasible_exits_two(tmp_path, capsys):
    # 1 J cannot cover a second of hover, so no decision is feasible
    scen = _scenario_file(tmp_path, name="broke.json", budget_j=1.0)
    rc = main(["solve", "--scenario", scen, "--solver", "exhaustive"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "infeasible" in err

    rc = main(["solve", "--scenario", scen, "--solver", "dwoa",
               "--agents", "6", "--iters", "3"])
    assert rc == 2  # penalty mode still reports its flagged incumbent
    assert "feasible=false" in capsys.readouterr().out


def test_solve_zero_budget_file_exits_two(tmp_path, capsys):
    # a 0 J budget is valid, and no decision is feasible under it
    scen = _scenario_file(tmp_path, name="zero.json", budget_j=0.0)
    assert main(["solve", "--scenario", scen, "--solver", "exhaustive"]) == 2
    assert "infeasible" in capsys.readouterr().err


def test_solve_invalid_scenario_file_exits_one(tmp_path, capsys):
    scen = write_nan_uav_scenario(tmp_path / "nan.json")
    rc = main(["solve", "--scenario", scen, "--solver", "dwoa", "--agents", "4", "--iters", "1"])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "uav[1]: position_m must be finite" in err


def test_bad_usage_exits_one(tmp_path, capsys):
    assert main(["frobnicate"]) == 1
    assert main([]) == 1
    assert main(["solve", "--solver", "annealing"]) == 1
    assert main(["plot-data", "x.csv", "--figure", "pie"]) == 1
    capsys.readouterr()


def test_runtime_error_exits_one(tmp_path, capsys):
    rc = main(["summarize", str(tmp_path / "missing.csv")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_version_exits_zero(capsys):
    assert main(["--version"]) == 0
    capsys.readouterr()


def test_sweep_summarize_plot_data_flow(tmp_path, capsys):
    spec = dict(DESK_SPEC, output_dir=str(tmp_path / "out"))
    spec_file = str(tmp_path / "spec.json")
    with open(spec_file, "w") as f:
        json.dump(spec, f)

    rc = main(["sweep", spec_file])
    assert rc == 0
    results = capsys.readouterr().out.strip()
    assert os.path.exists(results)

    summary_file = str(tmp_path / "summary.csv")
    rc = main(["summarize", results, "--out", summary_file])
    assert rc == 0
    capsys.readouterr()
    head = open(summary_file).read().splitlines()[0]
    assert head.startswith("value,solver,")

    plots = str(tmp_path / "plots")
    rc = main(["plot-data", results, "--figure", "convergence", "--out", plots])
    assert rc == 0
    emitted = capsys.readouterr().out.strip().splitlines()
    assert emitted
    for path in emitted:
        assert os.path.exists(path)
        assert path.startswith(plots)


def test_sweep_out_flag_overrides_spec_dir(tmp_path, capsys):
    spec = dict(DESK_SPEC, output_dir=str(tmp_path / "ignored"), values=[4], seeds=[0])
    spec_file = str(tmp_path / "s.json")
    with open(spec_file, "w") as f:
        json.dump(spec, f)
    override = str(tmp_path / "elsewhere")
    rc = main(["sweep", spec_file, "--out", override])
    assert rc == 0
    printed = capsys.readouterr().out.strip()
    assert printed.startswith(override)
    assert not os.path.exists(str(tmp_path / "ignored"))


def test_sweep_unknown_spec_key_exits_one(tmp_path, capsys):
    spec = dict(DESK_SPEC, output_dir=str(tmp_path / "out"), max_iteration=2)
    spec_file = str(tmp_path / "s.json")
    with open(spec_file, "w") as f:
        json.dump(spec, f)
    assert main(["sweep", spec_file]) == 1
    assert "max_iteration" in capsys.readouterr().err
    assert not os.path.exists(str(tmp_path / "out"))


def test_sweep_agents_out_of_range_exits_one(tmp_path, capsys):
    spec = dict(DESK_SPEC, output_dir=str(tmp_path / "out"), values=[0, 3])
    spec_file = str(tmp_path / "s.json")
    with open(spec_file, "w") as f:
        json.dump(spec, f)
    assert main(["sweep", spec_file]) == 1
    assert "agents value must be >= 1, got 0" in capsys.readouterr().err
    assert not os.path.exists(str(tmp_path / "out"))


def test_sweep_generator_key_typo_exits_one(tmp_path, capsys):
    gen = dict(DESK_SPEC["generator"], uav_cout=4)
    spec = dict(DESK_SPEC, generator=gen, output_dir=str(tmp_path / "out"))
    spec_file = str(tmp_path / "s.json")
    with open(spec_file, "w") as f:
        json.dump(spec, f)
    assert main(["sweep", spec_file]) == 1
    assert "unknown generator key 'uav_cout'" in capsys.readouterr().err
    assert not os.path.exists(str(tmp_path / "out"))


def test_sweep_generator_next_to_scenario_file_exits_one(tmp_path, capsys):
    scen = _scenario_file(tmp_path)
    gen = dict(DESK_SPEC["generator"], uav_count=9)
    spec = dict(DESK_SPEC, scenario_file=scen, generator=gen, output_dir=str(tmp_path / "out"))
    spec_file = str(tmp_path / "s.json")
    with open(spec_file, "w") as f:
        json.dump(spec, f)
    assert main(["sweep", spec_file]) == 1
    assert "generator parameters are unused" in capsys.readouterr().err
    assert not os.path.exists(str(tmp_path / "out"))


def test_sweep_all_infeasible_exits_two(tmp_path, capsys):
    gen = dict(DESK_SPEC["generator"], energy_per_subtask_j=0.0)
    spec = dict(DESK_SPEC, generator=gen, values=[4], seeds=[0],
                output_dir=str(tmp_path / "out"))
    spec_file = str(tmp_path / "s.json")
    with open(spec_file, "w") as f:
        json.dump(spec, f)
    rc = main(["sweep", spec_file])
    assert rc == 2
    capsys.readouterr()


# SHA-256 of the sorted-key `solve --out` JSON without wall_time_s,
# captured while each solver had its own branch in the solve command; the
# 1800 J budget binds (the associated baseline is infeasible)
SOLVE_JSON_GOLDENS = {
    "dwoa": "82ee40a9d95d48dad42e2fb2e26cf277c8ca5fe31a6f36cac1c97edfb0254354",
    "exhaustive": "991302b055c050a780e6ad214eb1db49332738c74677bafdca6e5df2517cdb2c",
    "associated": "ca27f3a996d543eaa803d5388de353f1af3da40e193103b4e3bdb300198fbe79",
    "alternating": "1c614cd06ac4e289e25e75d0d73b58aa22300859c195e69f0a38b2859741e698",
}


@pytest.mark.parametrize("solver", sorted(SOLVE_JSON_GOLDENS))
def test_solve_json_goldens(tmp_path, capsys, solver):
    scen = str(tmp_path / "bind.json")
    save_scenario(desk_scenario(4, uav_count=3, subtasks=4, active=2, budget_j=1800.0), scen)
    out = str(tmp_path / "run.json")
    rc = main(["solve", "--scenario", scen, "--solver", solver, "--alloc", "optimal",
               "--agents", "8", "--iters", "4", "--seed", "5", "--out", out])
    capsys.readouterr()
    assert rc == (2 if solver == "associated" else 0)
    with open(out, encoding="utf-8") as f:
        assert run_digest(json.load(f)) == SOLVE_JSON_GOLDENS[solver]

"""Lookups other code makes by name: the benchmark's tracing targets and
the solver registry behind the CLI and the sweep."""
import argparse
import dataclasses
import os
import sys

import uavmec
from uavmec import cli, evaluator, experiments, solvers
from uavmec.experiments import ExperimentSpec, run_experiment

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def _import_tracing(monkeypatch):
    monkeypatch.syspath_prepend(BENCH_DIR)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    import tracing

    return tracing


def test_bench_tracing_targets_resolve(monkeypatch):
    tracing = _import_tracing(monkeypatch)
    targets = tracing._targets()
    assert targets
    for layer, owner, attr in targets:
        fn = tracing._get(owner, attr)
        assert callable(fn), (layer, owner, attr)


def test_sweep_keeps_its_bytes_under_the_bench_tracer(monkeypatch, tmp_path):
    # the tracer replaces Evaluator.__init__, the ALLOCATORS entries and
    # generate_scenario with wrappers; a traced sweep, run twice in a row,
    # must write what an untraced one writes
    tracing = _import_tracing(monkeypatch)
    spec = ExperimentSpec(
        experiment_id="traced",
        axis="allocator",
        values=("equal", "proportional", "optimal"),
        seeds=(3,),
        output_dir="",
        generator=dict(uav_count=3, users_per_uav=(1, 3), active_users=2, subtasks_per_task=4,
                       energy_per_subtask_j=700.0),
        solvers=("associated", "dwoa", "alternating"),
        energy_modes=("limited", "unlimited"),
        agents=4,
        max_iterations=3,
    )
    results = []
    tracer = tracing.Tracer(count_distinct=True)
    for run in range(3):
        out = str(tmp_path / f"run{run}")
        if run == 0:
            rows, paths = run_experiment(dataclasses.replace(spec, output_dir=out))
        else:
            with tracer.installed():
                rows, paths = run_experiment(dataclasses.replace(spec, output_dir=out))
        assert len(rows) == 18 and [r.error for r in rows] == [""] * 18
        with open(paths["results"], "rb") as f:
            results.append(f.read())
    assert results[1] == results[0] and results[2] == results[0]
    calls = tracer.summary()["calls"]
    for layer in ("evaluator.init", "solvers.woa_init", "solvers.woa_step"):
        assert calls[tracing.LAYERS.index(layer)] > 0, layer

    # a lone search through the package's public name is seen step by step
    s = uavmec.generate_scenario(3, **spec.generator)
    tracer = tracing.Tracer()
    with tracer.installed():
        uavmec.dwoa_solve(s, uavmec.alloc_equal(s), solvers.DwoaConfig(agents=4, max_iterations=3))
    calls = tracer.summary()["calls"]
    for layer, count in (("solvers.dwoa_solve", 1), ("solvers.woa_init", 1), ("solvers.woa_step", 3)):
        assert calls[tracing.LAYERS.index(layer)] == count, layer


def _solve_choices(dest="solver"):
    parser = cli._build_parser()
    verbs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    solve = verbs.choices["solve"]
    return next(a for a in solve._actions if a.dest == dest).choices


def test_cli_and_sweep_read_the_solver_registry():
    names = ("dwoa", "exhaustive", "associated", "alternating")
    assert tuple(solvers.SOLVERS) == names
    assert tuple(_solve_choices()) == names
    assert experiments.SOLVERS == names


def test_cli_reads_the_penalty_modes_and_upload_models():
    assert evaluator.PENALTY_MODES == ("penalty", "hard")
    assert evaluator.UPLOAD_MODELS == ("cumulative", "independent")
    assert _solve_choices("penalty_mode") is evaluator.PENALTY_MODES
    assert _solve_choices("upload_model") is evaluator.UPLOAD_MODELS

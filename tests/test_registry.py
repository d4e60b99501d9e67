"""Lookups other code makes by name: the benchmark's tracing targets and
the solver registry behind the CLI and the sweep."""
import argparse
import os
import sys

from uavmec import cli, experiments, solvers

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def test_bench_tracing_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(BENCH_DIR)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    import tracing

    targets = tracing._targets()
    assert targets
    for layer, owner, attr in targets:
        fn = tracing._get(owner, attr)
        assert callable(fn), (layer, owner, attr)


def _solve_choices():
    parser = cli._build_parser()
    verbs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    solve = verbs.choices["solve"]
    return next(a for a in solve._actions if a.dest == "solver").choices


def test_cli_and_sweep_read_the_solver_registry():
    names = ("dwoa", "exhaustive", "associated", "alternating")
    assert tuple(solvers.SOLVERS) == names
    assert tuple(_solve_choices()) == names
    assert experiments.SOLVERS == names

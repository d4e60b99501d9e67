"""Span tracing installed from outside the package.

Tracer.installed() replaces each public function listed in _targets()
with a wrapper that records one span per call: layer, start, end,
parent span and operation id. Spans stay in flat arrays in memory and
are written out once, at the end of a run. A layer's self time is its
span's duration minus the durations of its child spans.

The wrappers are set on every module attribute, class attribute or
registry entry through which the package looks the function up at call
time, and the originals are put back on exit.
"""
from __future__ import annotations

import contextlib
import time
from array import array
from typing import Dict, Iterator

import numpy as np

import uavmec
from uavmec import channel, evaluator, experiments, scenario, solvers

LAYERS = (
    "experiments.run_experiment",
    "scenario.generate",
    "channel.link",
    "evaluator.init",
    "evaluator.fitness",
    "evaluator.objective_and_feasible",
    "evaluator.result",
    "solvers.alloc",
    "solvers.dwoa_solve",
    "solvers.woa_init",
    "solvers.woa_step",
    "solvers.exhaustive_solve",
)
_ID = {name: i for i, name in enumerate(LAYERS)}


def _targets():
    """(layer, owner, attribute) for each lookup site of a public function."""
    ev = evaluator.Evaluator
    out = [
        ("experiments.run_experiment", experiments, "run_experiment"),
        ("experiments.run_experiment", uavmec, "run_experiment"),
        ("scenario.generate", scenario, "generate_scenario"),
        ("scenario.generate", experiments, "generate_scenario"),
        ("scenario.generate", uavmec, "generate_scenario"),
        ("evaluator.init", ev, "__init__"),
        ("evaluator.fitness", ev, "fitness"),
        ("evaluator.objective_and_feasible", ev, "objective_and_feasible"),
        ("evaluator.result", ev, "result"),
        ("solvers.woa_init", solvers, "woa_init"),
        ("solvers.woa_step", solvers, "woa_step"),
    ]
    for fn in ("user_uplink_rate", "user_uplink_budget", "u2u_rate", "u2b_rate"):
        out.append(("channel.link", channel, fn))
    for fn in ("dwoa_solve", "exhaustive_solve"):
        for owner in (solvers, experiments, uavmec):
            out.append((f"solvers.{fn}", owner, fn))
    for key in solvers.ALLOCATORS:
        out.append(("solvers.alloc", solvers.ALLOCATORS, key))
        out.append(("solvers.alloc", solvers, f"alloc_{key}"))
        out.append(("solvers.alloc", uavmec, f"alloc_{key}"))
    return out


def _get(owner, attr):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def _set(owner, attr, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


def _fitness_key(args, kwargs):
    # distinct per Evaluator instance: a decision cache would live there
    return args[0], tuple(args[1])


def _generate_key(args, kwargs):
    seed = args[0]
    return repr(
        (getattr(seed, "entropy", seed), getattr(seed, "spawn_key", ()), sorted(kwargs.items()))
    )


class Tracer:
    """Span store plus, with count_distinct, the distinct inputs seen by
    fitness calls and scenario generation (deterministic counters)."""

    def __init__(self, count_distinct: bool = False):
        self.layer = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.op_id = 0
        self._stack = [-1]
        self.count_distinct = count_distinct
        self.distinct: Dict[str, set] = {"evaluator.fitness": set(), "scenario.generate": set()}

    def _wrap(self, name: str, fn):
        layer_id = _ID[name]
        layer, parent, op, start, end = self.layer, self.parent, self.op, self.start, self.end
        stack = self._stack
        perf = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            i = len(start)
            layer.append(layer_id)
            parent.append(stack[-1])
            op.append(tracer.op_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = perf()
                start[i] = t0
                stack.pop()

        key_fn = {"evaluator.fitness": _fitness_key, "scenario.generate": _generate_key}.get(name)
        if not (self.count_distinct and key_fn):
            return traced
        seen = self.distinct[name]

        def counted(*args, **kwargs):
            seen.add(key_fn(args, kwargs))
            return traced(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        targets = _targets()
        saved = [(owner, attr, _get(owner, attr)) for _, owner, attr in targets]
        try:
            for (name, _, _), (owner, attr, fn) in zip(targets, saved):
                _set(owner, attr, self._wrap(name, fn))
            yield self
        finally:
            for owner, attr, fn in saved:
                _set(owner, attr, fn)

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "layer": np.frombuffer(self.layer, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def summary(self) -> Dict[str, object]:
        """Per-layer totals. A span nested in a span of its own layer
        (user_uplink_rate calling user_uplink_budget) is not a new call."""
        a = self.arrays()
        n_layers = len(LAYERS)
        layer, parent = a["layer"], a["parent"]
        dur = a["end"] - a["start"]
        nested = parent >= 0
        child = np.zeros(len(dur))
        np.add.at(child, parent[nested], dur[nested])
        parent_layer = np.full(len(dur), -1)
        parent_layer[nested] = layer[parent[nested]]
        outer = parent_layer != layer

        def by_layer(mask, weights=None):
            w = None if weights is None else weights[mask]
            return np.bincount(layer[mask], weights=w, minlength=n_layers)

        def under(child_name, parent_name):
            return int(
                np.count_nonzero((layer == _ID[child_name]) & (parent_layer == _ID[parent_name]))
            )

        return {
            "wall_s": float(dur[~nested].sum()),
            "self_s": by_layer(np.ones(len(dur), bool), dur - child),
            "calls": by_layer(outer),
            "inclusive_s": by_layer(outer, dur),
            # the units the solvers' own work is priced in
            "agent_iters": under("evaluator.fitness", "solvers.woa_step"),
            "enumerated": under("evaluator.objective_and_feasible", "solvers.exhaustive_solve"),
        }

    def save(self, path) -> None:
        np.savez(path, layers=np.array(LAYERS), **self.arrays())

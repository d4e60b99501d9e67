"""Shared builders for the test suite. Desk-scale means task sizes
around a megabit so instances stay fast and energy budgets meaningful.
"""
import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from uavmec import (
    HoverParams,
    PhysicsConstants,
    Scenario,
    SubTask,
    TaskGraph,
    UavNode,
    UserNode,
    generate_scenario,
    generate_task_dag,
    save_scenario,
)
from uavmec.solvers import discretize_vector, woa_init, woa_step

DESK_TASK = dict(size_mean_bits=1e6, size_std_bits=2e5)


def desk_scenario(seed, uav_count=3, subtasks=6, active=1, budget_j=1e9, **kw):
    """Small feasible instance: one user per UAV, desk-scale task sizes."""
    params = dict(
        uav_count=uav_count,
        users_per_uav=(1, 1),
        active_users=active,
        subtasks_per_task=subtasks,
        task_params=dict(DESK_TASK),
        energy_per_subtask_j=budget_j / subtasks,
    )
    params.update(kw)
    return generate_scenario(seed, **params)


def searched_alone(ev, cfg, seed=None):
    """A whale search over ev alone, from its public steps: the best
    decision vector and the incumbent fitness after every iteration."""
    state = woa_init(ev.fitness_many, ev.vector_length, len(ev.scenario.uavs), cfg.agents,
                     cfg.max_iterations, cfg.seed if seed is None else seed)
    trace = [woa_step(state, ev.fitness_many).best_value for _ in range(cfg.max_iterations)]
    return discretize_vector(state.best_position, state.v_count), trace


def hand_scenario():
    """Fully hand-built two-UAV instance with a three-node diamond DAG;
    every number is chosen so expected values can be derived on paper."""
    physics = PhysicsConstants()
    uav1 = UavNode(id=1, position_m=(0.0, 0.0, 50.0), max_compute_hz=1e9,
                   energy_budget_j=1e7)
    uav2 = UavNode(id=2, position_m=(500.0, 0.0, 50.0), max_compute_hz=5e8,
                   energy_budget_j=1e7)
    user1 = UserNode(id=1, position_m=(10.0, 0.0), associated_uav=1, active=True)
    user2 = UserNode(id=2, position_m=(490.0, 0.0), associated_uav=2, active=False)
    task = TaskGraph(
        owner_user=1,
        sub_tasks=(
            SubTask(index=0, input_size_bits=0.0, cycles_per_bit=0.0, is_dummy=True),
            SubTask(index=1, input_size_bits=1e6, cycles_per_bit=1000.0,
                    predecessors=((0, 0.0),)),
            SubTask(index=2, input_size_bits=2e6, cycles_per_bit=1000.0,
                    predecessors=((0, 0.0),)),
            SubTask(index=3, input_size_bits=1e6, cycles_per_bit=1000.0,
                    predecessors=((1, 2e5), (2, 2e5))),
        ),
    )
    return Scenario(
        physics=physics,
        uavs=(uav1, uav2),
        users=(user1, user2),
        tasks=(task,),
        bs_position_m=(250.0, 250.0, 0.0),
    )


def heterogeneous_instance(seed, subtasks=6, slow_hz=5e8, fast_hz=1e9):
    """Three UAVs, compute ratio >= 2, the single active user pinned to
    the slow one. Used for collaboration-benefit checks."""
    physics = PhysicsConstants()
    uavs = (
        UavNode(id=1, position_m=(0.0, 0.0, 50.0), max_compute_hz=slow_hz,
                energy_budget_j=1e12),
        UavNode(id=2, position_m=(300.0, 0.0, 50.0), max_compute_hz=fast_hz,
                energy_budget_j=1e12),
        UavNode(id=3, position_m=(0.0, 300.0, 50.0), max_compute_hz=fast_hz,
                energy_budget_j=1e12),
    )
    user = UserNode(id=1, position_m=(20.0, 0.0), associated_uav=1, active=True)
    task = generate_task_dag(
        np.random.SeedSequence([int(seed), 7]), subtasks, owner_user=1, **DESK_TASK
    )
    return Scenario(
        physics=physics,
        uavs=uavs,
        users=(user,),
        tasks=(task,),
        bs_position_m=(150.0, 150.0, 0.0),
    )


def has_parallel_pair(task) -> bool:
    """True when two non-dummy sub-tasks are mutually unreachable."""
    subs = {s.index: {p for p, _ in s.predecessors} for s in task.sub_tasks}
    ancestors = {}
    for j in sorted(subs):
        anc = set()
        for p in subs[j]:
            anc.add(p)
            anc |= ancestors.get(p, set())
        ancestors[j] = anc
    idx = [s.index for s in task.non_dummy()]
    for i in idx:
        for j in idx:
            if i < j and i not in ancestors[j] and j not in ancestors[i]:
                return True
    return False


def write_nan_uav_scenario(path):
    """Scenario file whose first UAV has a NaN x position: readable JSON
    that validate_scenario rejects. Returns the path as a string."""
    save_scenario(desk_scenario(3, uav_count=2, subtasks=4), path)
    with open(path, encoding="utf-8") as f:
        d = json.load(f)
    d["uavs"][0]["position_m"][0] = math.nan
    with open(path, "w", encoding="utf-8") as f:
        json.dump(d, f)
    return str(path)


@pytest.fixture
def validations(monkeypatch):
    """The scenarios validate_scenario is called on, wherever the
    package calls it."""
    from uavmec import cli, evaluator, scenario

    seen = []
    check = scenario.validate_scenario

    def counting(s):
        seen.append(s)
        return check(s)

    for module in (scenario, evaluator, cli):
        monkeypatch.setattr(module, "validate_scenario", counting)
    return seen


def random_decision(scenario, rng):
    from uavmec import decision_from_vector

    m = sum(len(t.non_dummy()) for t in scenario.tasks)
    vec = rng.integers(1, len(scenario.uavs) + 1, size=m)
    return decision_from_vector(scenario, [int(x) for x in vec])


def run_digest(blob):
    """SHA-256 of a SolverRun.to_dict() with its wall-clock field dropped."""
    blob = {k: v for k, v in blob.items() if k != "wall_time_s"}
    return hashlib.sha256(json.dumps(blob, sort_keys=True).encode()).hexdigest()


@pytest.fixture
def tiny():
    return hand_scenario()


# ------------------------------------------------- acceptance checklist

ACCEPTANCE_VERDICTS = []


def record_verdict(label, ok, note=""):
    """Collect one checklist line per acceptance criterion; echoed both
    into the captured test output and the terminal summary."""
    ACCEPTANCE_VERDICTS.append((str(label), bool(ok), note))
    line = f"[criterion {label}] {'PASS' if ok else 'FAIL'}"
    if note:
        line += f" ({note})"
    print(line)
    return bool(ok)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_VERDICTS:
        return
    terminalreporter.section("acceptance checklist")
    for label, ok, note in ACCEPTANCE_VERDICTS:
        line = f"[criterion {label}] {'PASS' if ok else 'FAIL'}"
        if note:
            line += f" ({note})"
        terminalreporter.write_line(line)

import dataclasses
import json
import math

import numpy as np
import pytest

from uavmec import (
    Scenario,
    SubTask,
    TaskGraph,
    UavNode,
    UserNode,
    generate_scenario,
    generate_task_dag,
    load_scenario,
    save_scenario,
    topological_order,
    validate_scenario,
    with_unlimited_energy,
)
from uavmec.scenario import MB_BITS, scenario_from_dict, scenario_to_dict

from conftest import hand_scenario, write_nan_uav_scenario


def test_generate_scenario_counts_and_ranges():
    s = generate_scenario(42, uav_count=4, users_per_uav=(2, 5), active_users=3,
                          subtasks_per_task=8)
    assert len(s.uavs) == 4
    assert len(s.tasks) == 3
    assert len(s.active_users()) == 3
    for v in s.uavs:
        served = s.users_of_uav(v.id)
        assert 2 <= len(served) <= 5
        assert 8e8 <= v.max_compute_hz <= 1e9
        assert v.energy_budget_j == 8 * 2000.0
        assert v.position_m[2] == 50.0
    for t in s.tasks:
        assert len(t.non_dummy()) == 8
        assert s.user_by_id(t.owner_user).active


def test_generate_scenario_is_deterministic():
    a = generate_scenario(7)
    b = generate_scenario(7)
    c = generate_scenario(8)
    assert a == b
    assert a != c


def test_generate_scenario_leaves_a_seed_sequence_as_passed():
    ss = np.random.SeedSequence(5)
    first = generate_scenario(ss)
    assert generate_scenario(ss) == first
    assert ss.n_children_spawned == 0
    assert first == generate_scenario(np.random.SeedSequence(5))


def test_task_dag_shape():
    t = generate_task_dag(3, 12)
    subs = t.sub_tasks
    assert subs[0].is_dummy and subs[0].index == 0
    assert len(t.non_dummy()) == 12
    seen = set()
    for s in t.non_dummy():
        assert s.input_size_bits >= 1.0
        assert s.cycles_per_bit == 1000.0
        assert s.predecessors, "every sub-task hangs off the DAG"
        for p, bits in s.predecessors:
            assert p < s.index, "predecessors come from earlier layers"
            assert p not in seen, f"duplicate predecessor {p} on {s.index}"
            seen.add(p)
            if p == 0:
                assert bits == 0.0
            else:
                assert bits >= 1.0
        seen.clear()


def test_task_dag_dependency_payload_range():
    t = generate_task_dag(11, 20)
    payloads = [
        bits
        for s in t.non_dummy()
        for p, bits in s.predecessors
        if p != 0
    ]
    assert payloads
    assert all(1.0 <= b <= 250e3 for b in payloads)
    assert any(b >= 150e3 for b in payloads)


def test_task_sizes_cluster_around_mean():
    t = generate_task_dag(5, 200)
    sizes = [s.input_size_bits for s in t.non_dummy()]
    mean = sum(sizes) / len(sizes)
    assert abs(mean - 6 * MB_BITS) < MB_BITS


def test_topological_order_canonical():
    task = TaskGraph(
        owner_user=1,
        sub_tasks=(
            SubTask(0, 0.0, 0.0, is_dummy=True),
            SubTask(1, 1.0, 1.0, predecessors=((0, 0.0),)),
            SubTask(2, 1.0, 1.0, predecessors=((1, 5.0), (3, 5.0))),
            SubTask(3, 1.0, 1.0, predecessors=((0, 0.0),)),
        ),
    )
    assert topological_order(task) == [0, 1, 3, 2]


def test_topological_order_rejects_cycle():
    task = TaskGraph(
        owner_user=1,
        sub_tasks=(
            SubTask(0, 0.0, 0.0, is_dummy=True),
            SubTask(1, 1.0, 1.0, predecessors=((2, 1.0),)),
            SubTask(2, 1.0, 1.0, predecessors=((1, 1.0),)),
        ),
    )
    with pytest.raises(ValueError, match="cycle"):
        topological_order(task)


def test_validate_passes_generated():
    assert validate_scenario(generate_scenario(3)) == []


def test_validate_flags_dangling_association():
    s = hand_scenario()
    users = tuple(
        dataclasses.replace(u, associated_uav=99) if u.id == 2 else u
        for u in s.users
    )
    bad = dataclasses.replace(s, users=users)
    assert any("dangling" in p for p in validate_scenario(bad))


def test_validate_flags_cycle():
    s = hand_scenario()
    task = s.tasks[0]
    subs = list(task.sub_tasks)
    subs[1] = dataclasses.replace(subs[1], predecessors=((3, 1.0),))
    bad = dataclasses.replace(s, tasks=(dataclasses.replace(task, sub_tasks=tuple(subs)),))
    assert any("cycle" in p for p in validate_scenario(bad))


def test_validate_flags_active_user_without_task():
    s = hand_scenario()
    users = tuple(
        dataclasses.replace(u, active=True) if u.id == 2 else u for u in s.users
    )
    bad = dataclasses.replace(s, users=users)
    assert any("task" in p for p in validate_scenario(bad))


def _with_uav(s, **changes):
    return dataclasses.replace(
        s, uavs=(dataclasses.replace(s.uavs[0], **changes),) + s.uavs[1:]
    )


def _with_user(s, **changes):
    return dataclasses.replace(
        s, users=(dataclasses.replace(s.users[0], **changes),) + s.users[1:]
    )


def _with_task(s, **changes):
    return dataclasses.replace(s, tasks=(dataclasses.replace(s.tasks[0], **changes),))


def _with_subtask(s, index, **changes):
    subs = tuple(
        dataclasses.replace(st, **changes) if st.index == index else st
        for st in s.tasks[0].sub_tasks
    )
    return _with_task(s, sub_tasks=subs)


# field -> how to put the value x into the hand scenario
NON_FINITE_FIELDS = {
    "uav position_m": lambda s, x: _with_uav(s, position_m=(0.0, x, 50.0)),
    "uav altitude": lambda s, x: _with_uav(s, position_m=(0.0, 0.0, x)),
    "max_compute_hz": lambda s, x: _with_uav(s, max_compute_hz=x),
    "bandwidth_users_hz": lambda s, x: _with_uav(s, bandwidth_users_hz=x),
    "bandwidth_u2u_hz": lambda s, x: _with_uav(s, bandwidth_u2u_hz=x),
    "bandwidth_to_bs_hz": lambda s, x: _with_uav(s, bandwidth_to_bs_hz=x),
    "tx_power_u2u_dbm": lambda s, x: _with_uav(s, tx_power_u2u_dbm=x),
    "tx_power_to_bs_dbm": lambda s, x: _with_uav(s, tx_power_to_bs_dbm=x),
    "user position_m": lambda s, x: _with_user(s, position_m=(x, 0.0)),
    "user tx_power_dbm": lambda s, x: _with_user(s, tx_power_dbm=x),
    "input_size_bits": lambda s, x: _with_subtask(s, 2, input_size_bits=x),
    "cycles_per_bit": lambda s, x: _with_subtask(s, 2, cycles_per_bit=x),
    "dependency payload": lambda s, x: _with_subtask(
        s, 3, predecessors=((1, 2e5), (2, x))
    ),
    "release_time_s": lambda s, x: _with_task(s, release_time_s=x),
}


@pytest.mark.parametrize("field", sorted(NON_FINITE_FIELDS))
def test_validate_rejects_non_finite(field):
    s = hand_scenario()
    assert validate_scenario(s) == []
    for bad in (math.nan, math.inf, -math.inf):
        problems = validate_scenario(NON_FINITE_FIELDS[field](s, bad))
        assert any("finite" in p for p in problems), (field, bad, problems)


def test_validate_energy_budget_nan_rejected_inf_allowed():
    s = hand_scenario()
    problems = validate_scenario(_with_uav(s, energy_budget_j=math.nan))
    assert problems == ["uav[1]: energy_budget_j must not be NaN"]
    assert validate_scenario(_with_uav(s, energy_budget_j=-math.inf))
    assert validate_scenario(_with_uav(s, energy_budget_j=math.inf)) == []
    assert validate_scenario(with_unlimited_energy(s)) == []


def test_zero_budget_loads_back_negative_rejected(tmp_path):
    # 0 J is a valid budget under which no decision is feasible
    s = generate_scenario(3, uav_count=3, active_users=1, subtasks_per_task=4,
                          energy_per_subtask_j=0.0)
    assert {v.energy_budget_j for v in s.uavs} == {0.0}
    path = tmp_path / "zero.json"
    save_scenario(s, path)
    assert load_scenario(path) == s
    problems = validate_scenario(_with_uav(hand_scenario(), energy_budget_j=-1.0))
    assert problems == ["uav[1]: energy_budget_j must not be negative"]


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def test_unlimited_budget_saves_as_strict_json(tmp_path):
    s = with_unlimited_energy(generate_scenario(21))
    path = tmp_path / "unlimited.json"
    save_scenario(s, path)
    text = path.read_text(encoding="utf-8")
    d = json.loads(text, parse_constant=_reject_constant)
    assert {v["energy_budget_j"] for v in d["uavs"]} == {"inf"}
    assert load_scenario(path) == s


def test_legacy_infinity_token_still_loads(tmp_path):
    s = with_unlimited_energy(generate_scenario(21))
    d = dataclasses.asdict(s)
    d["schema_version"] = 1
    path = tmp_path / "legacy.json"
    path.write_text(json.dumps(d, indent=2, sort_keys=True), encoding="utf-8")
    assert "Infinity" in path.read_text(encoding="utf-8")
    assert load_scenario(path) == s


def test_save_refuses_other_non_finite_numbers(tmp_path):
    bad = _with_uav(hand_scenario(), max_compute_hz=math.nan)
    with pytest.raises(ValueError):
        save_scenario(bad, tmp_path / "bad.json")


def test_load_rejects_invalid_scenario(tmp_path):
    path = write_nan_uav_scenario(tmp_path / "nan.json")
    with pytest.raises(ValueError, match=r"uav\[1\]: position_m must be finite"):
        load_scenario(path)


@pytest.mark.parametrize(
    "renumber, message",
    [
        ({4: 9}, "sub-task indices must be 0..4"),  # a gap: KeyError in the Evaluator
        ({0: 5}, "dummy root must have index 0"),  # IndexError in fitness
    ],
)
def test_load_rejects_subtask_indices_other_than_0_to_n(tmp_path, renumber, message):
    path = tmp_path / "scen.json"
    save_scenario(generate_scenario(3, uav_count=3, active_users=1, subtasks_per_task=4), path)
    d = json.loads(path.read_text(encoding="utf-8"))
    for sub in d["tasks"][0]["sub_tasks"]:
        sub["index"] = renumber.get(sub["index"], sub["index"])
        sub["predecessors"] = [[renumber.get(p, p), b] for p, b in sub["predecessors"]]
    path.write_text(json.dumps(d), encoding="utf-8")
    with pytest.raises(ValueError, match=message):
        load_scenario(path)


def test_save_load_round_trip(tmp_path):
    s = generate_scenario(21)
    path = tmp_path / "scen.json"
    save_scenario(s, path)
    assert load_scenario(path) == s
    text = path.read_text()
    assert "\r" not in text


def test_schema_version_checked():
    d = scenario_to_dict(generate_scenario(1))
    d["schema_version"] = 99
    with pytest.raises(ValueError, match="schema"):
        scenario_from_dict(d)


def test_generate_rejects_bad_params():
    with pytest.raises(ValueError):
        generate_scenario(1, uav_count=0)
    with pytest.raises(ValueError):
        generate_scenario(1, users_per_uav=(5, 2))
    with pytest.raises(ValueError):
        generate_scenario(1, region_m=(0.0, 100.0))


def test_active_users_clamped_to_population():
    # 1 user per UAV and 3 UAVs leaves room for exactly 3 active users
    s = generate_scenario(2, uav_count=3, users_per_uav=(1, 1), active_users=3)
    assert len(s.active_users()) == 3
    clamped = generate_scenario(2, uav_count=3, users_per_uav=(1, 1), active_users=9)
    assert len(clamped.active_users()) == 3
    assert len(clamped.tasks) == 3

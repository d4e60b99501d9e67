"""Domain types, validation, and seeded random generation of scenarios.

A Scenario bundles the whole world description: UAV nodes (position,
compute, power, energy budget), ground users with a fixed association,
per-user task DAGs, and the physics constants every link-budget formula
reads from. All types are frozen dataclasses; generation is a pure
function of (seed, params).
"""
from __future__ import annotations

import heapq
import json
import math
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

SCHEMA_VERSION = 1

# Unit conventions for the generator defaults. The task-size spec mixes
# "MB" and "Kb"; decimal megabytes and kilobits are assumed and both are
# overridable through the generator keyword arguments.
MB_BITS = 8e6
KB_BITS = 1e3

SeedLike = Union[int, np.random.SeedSequence]


@dataclass(frozen=True)
class PhysicsConstants:
    """Channel/energy model constants plus the formula-variant switches.

    The two *_loss_form switches select between the source formulas taken
    verbatim ("as-printed") and the conventional free-space expression
    ("standard-fspl"). noise_model picks whether noise_power_dbm is a
    total power ("total") or a per-Hz density scaled by the allocated
    bandwidth ("per-hz").
    """

    speed_of_light_m_s: float = 299792458.0
    carrier_freq_a2g_hz: float = 2.0e9
    carrier_freq_mmwave_hz: float = 28.0e9
    noise_power_dbm: float = -174.0
    path_loss_exponent: float = 2.0
    loss_los_db: float = 1.0
    loss_nlos_db: float = 20.0
    los_env_c: float = 11.9
    los_env_d: float = 0.1
    attenuation_los_db: float = 1.0
    air_density_kg_m3: float = 1.225
    effective_switched_capacitance: float = 5e-27
    a2g_loss_form: str = "as-printed"
    u2u_loss_form: str = "as-printed"
    noise_model: str = "total"


@dataclass(frozen=True)
class HoverParams:
    thrust_n: float = 30.0
    power_efficiency: float = 0.7
    rotor_count: int = 4
    rotor_diameter_m: float = 0.254


@dataclass(frozen=True)
class UavNode:
    id: int
    position_m: Tuple[float, float, float]
    max_compute_hz: float  # cycles/s
    tx_power_u2u_dbm: float = 30.0
    tx_power_to_bs_dbm: float = 30.0
    antenna_gain_tx: float = 1.0
    antenna_gain_rx_bs: float = 1.0
    bandwidth_users_hz: float = 3e6
    bandwidth_u2u_hz: float = 8e6
    bandwidth_to_bs_hz: float = 100e6
    energy_budget_j: float = 20000.0
    hover: HoverParams = HoverParams()
    info_payload_bits: float = 1e5


@dataclass(frozen=True)
class UserNode:
    id: int
    position_m: Tuple[float, float]  # ground level, z = 0
    associated_uav: int
    tx_power_dbm: float = 23.0
    active: bool = False


@dataclass(frozen=True)
class SubTask:
    """One node of a task DAG.

    predecessors holds (parent index, dependency payload bits) pairs. The
    dummy root carries index 0, zero input and no predecessors.
    """

    index: int
    input_size_bits: float
    cycles_per_bit: float
    predecessors: Tuple[Tuple[int, float], ...] = ()
    is_dummy: bool = False


@dataclass(frozen=True)
class TaskGraph:
    owner_user: int
    sub_tasks: Tuple[SubTask, ...]
    release_time_s: float = 0.0

    def non_dummy(self) ->List[SubTask]:
        return [s for s in self.sub_tasks if not s.is_dummy]

    def total_input_bits(self) -> float:
        return math.fsum(s.input_size_bits for s in self.sub_tasks if not s.is_dummy)


@dataclass(frozen=True)
class Scenario:
    physics: PhysicsConstants
    uavs: Tuple[UavNode, ...]
    users: Tuple[UserNode, ...]
    tasks: Tuple[TaskGraph, ...]
    bs_position_m: Tuple[float, float]

    def uav_by_id(self, uav_id: int) -> UavNode:
        for v in self.uavs:
            if v.id == uav_id:
                return v
        raise KeyError(f"no UAV with id {uav_id}")

    def user_by_id(self, user_id: int) -> UserNode:
        for u in self.users:
            if u.id == user_id:
                return u
        raise KeyError(f"no user with id {user_id}")

    def active_users(self) -> List[UserNode]:
        return [u for u in self.users if u.active]

    def users_of_uav(self, uav_id: int) -> List[UserNode]:
        return [u for u in self.users if u.associated_uav == uav_id]


def topological_order(task: TaskGraph) -> List[int]:
    """Kahn topological sort over sub-task indices, smallest index first.

    Raises ValueError when the predecessor relation has a cycle.
    """
    nodes = {s.index for s in task.sub_tasks}
    indeg = {i: 0 for i in nodes}
    succ: Dict[int, List[int]] = {i: [] for i in nodes}
    for s in task.sub_tasks:
        for p, _bits in s.predecessors:
            if p in nodes:
                indeg[s.index] += 1
                succ[p].append(s.index)
    ready = [i for i, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    order: List[int] = []
    while ready:
        i = heapq.heappop(ready)
        order.append(i)
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(ready, j)
    if len(order) != len(nodes):
        raise ValueError("task graph has a cycle")
    return order


def generate_task_dag(
    seed: SeedLike,
    total_subtasks: int,
    *,
    owner_user: int = 0,
    layer_mean: float = 2.0,
    layer_std: float = 1.0,
    size_mean_bits: float = 6 * MB_BITS,
    size_std_bits: float = 1 * MB_BITS,
    dep_min_bits: float = 150 * KB_BITS,
    dep_max_bits: float = 250 * KB_BITS,
    cycles_per_bit: float = 1000.0,
    release_time_s: float = 0.0,
) -> TaskGraph:
    """Layer-by-layer random DAG with a zero-cost dummy root at index 0.

    Layer widths are normal draws rounded to >= 1; every node in layer
    l > 1 receives a uniformly random nonempty predecessor subset of
    layer l-1. Input sizes are normal draws floored at 1 bit, dependency
    payloads uniform draws floored at 1 bit. Dummy-root edges carry zero
    payload so the root contributes no transfer time.
    """
    if total_subtasks < 1:
        raise ValueError("total_subtasks must be >= 1")
    rng = np.random.default_rng(seed)

    widths: List[int] = []
    remaining = total_subtasks
    while remaining > 0:
        w = int(round(rng.normal(layer_mean, layer_std)))
        w = max(1, min(w, remaining))
        widths.append(w)
        remaining -= w

    subs: List[SubTask] = [
        SubTask(index=0, input_size_bits=0.0, cycles_per_bit=cycles_per_bit, is_dummy=True)
    ]
    prev_layer: List[int] = []
    next_index = 1
    for li, width in enumerate(widths):
        layer = list(range(next_index, next_index + width))
        next_index += width
        for j in layer:
            size = max(1.0, float(rng.normal(size_mean_bits, size_std_bits)))
            if li == 0:
                preds: Tuple[Tuple[int, float], ...] = ((0, 0.0),)
            else:
                k = int(rng.integers(1, len(prev_layer) + 1))
                chosen = sorted(int(p) for p in rng.choice(prev_layer, size=k, replace=False))
                preds = tuple(
                    (p, max(1.0, float(rng.uniform(dep_min_bits, dep_max_bits)))) for p in chosen
                )
            subs.append(
                SubTask(
                    index=j,
                    input_size_bits=size,
                    cycles_per_bit=cycles_per_bit,
                    predecessors=preds,
                )
            )
        prev_layer = layer

    return TaskGraph(owner_user=owner_user, sub_tasks=tuple(subs), release_time_s=release_time_s)


def generate_scenario(
    seed: SeedLike,
    *,
    region_m: Tuple[float, float] = (1000.0, 1000.0),
    uav_count: int = 4,
    users_per_uav: Tuple[int, int] = (2, 10),
    altitude_m: float = 50.0,
    active_users: int = 3,
    subtasks_per_task: int = 10,
    max_compute_range_hz: Tuple[float, float] = (8e8, 1e9),
    energy_per_subtask_j: float = 2000.0,
    physics: Optional[PhysicsConstants] = None,
    uav_defaults: Optional[dict] = None,
    task_params: Optional[dict] = None,
) -> Scenario:
    """Random scenario on a rectangular region split into per-UAV tiles.

    Each UAV hovers at the center of its tile at altitude_m; users are
    placed uniformly inside their UAV's tile; the base station sits at
    the region center. active_users users (network-wide) are marked
    active and receive a task DAG each. The per-UAV energy budget follows
    the budget rule energy = subtasks_per_task * energy_per_subtask_j.
    Identical seed and params give a bit-identical scenario; a
    SeedSequence seed is left as it was passed in.
    """
    if region_m[0] <= 0 or region_m[1] <= 0:
        raise ValueError("region must have positive area")
    if uav_count < 1:
        raise ValueError("need at least one UAV")
    lo, hi = users_per_uav
    if lo < 1 or hi < lo:
        raise ValueError("users_per_uav range must satisfy 1 <= lo <= hi")

    if isinstance(seed, np.random.SeedSequence):
        # spawn from a copy: spawning advances the caller's sequence
        ss = np.random.SeedSequence(
            seed.entropy, spawn_key=seed.spawn_key, pool_size=seed.pool_size,
            n_children_spawned=seed.n_children_spawned,
        )
    else:
        ss = np.random.SeedSequence(seed)
    scen_ss, task_root = ss.spawn(2)
    rng = np.random.default_rng(scen_ss)

    physics = physics or PhysicsConstants()
    uav_defaults = dict(uav_defaults or {})
    task_params = dict(task_params or {})
    budget = subtasks_per_task * energy_per_subtask_j

    cols = int(math.ceil(math.sqrt(uav_count)))
    rows = int(math.ceil(uav_count / cols))
    tile_w = region_m[0] / cols
    tile_h = region_m[1] / rows

    uavs: List[UavNode] = []
    tiles: List[Tuple[float, float, float, float]] = []
    for i in range(uav_count):
        cx = (i % cols) * tile_w
        cy = (i // cols) * tile_h
        tiles.append((cx, cy, cx + tile_w, cy + tile_h))
        f_max = float(rng.uniform(*max_compute_range_hz))
        uavs.append(
            UavNode(
                id=i + 1,
                position_m=(cx + tile_w / 2, cy + tile_h / 2, altitude_m),
                max_compute_hz=f_max,
                energy_budget_j=budget,
                **uav_defaults,
            )
        )

    users: List[UserNode] = []
    uid = 1
    for v, (x0, y0, x1, y1) in zip(uavs, tiles):
        n = int(rng.integers(lo, hi + 1))
        for _ in range(n):
            pos = (float(rng.uniform(x0, x1)), float(rng.uniform(y0, y1)))
            users.append(UserNode(id=uid, position_m=pos, associated_uav=v.id))
            uid += 1

    n_active = min(active_users, len(users))
    active_ids = sorted(
        int(users[i].id) for i in rng.choice(len(users), size=n_active, replace=False)
    )
    active_set = set(active_ids)
    users = [replace(u, active=u.id in active_set) for u in users]

    tasks: List[TaskGraph] = []
    for uid_, child in zip(active_ids, task_root.spawn(n_active)):
        tasks.append(
            generate_task_dag(
                child, subtasks_per_task, owner_user=uid_, **task_params
            )
        )

    return Scenario(
        physics=physics,
        uavs=tuple(uavs),
        users=tuple(users),
        tasks=tuple(tasks),
        bs_position_m=(region_m[0] / 2, region_m[1] / 2),
    )


def _all_finite(values: Sequence[float]) -> bool:
    return all(math.isfinite(x) for x in values)


def validate_scenario(scenario: Scenario) -> List[str]:
    """Collect invariant violations; an empty list means well-formed.

    Violations are strings naming the entity and the invariant, they are
    data rather than exceptions.
    """
    out: List[str] = []
    ph = scenario.physics

    for name in ("speed_of_light_m_s", "carrier_freq_a2g_hz", "carrier_freq_mmwave_hz",
                 "air_density_kg_m3", "effective_switched_capacitance"):
        if getattr(ph, name) <= 0:
            out.append(f"physics.{name}: must be positive")
    if ph.path_loss_exponent < 2:
        out.append("physics.path_loss_exponent: must be >= 2")
    for name in ("noise_power_dbm", "loss_los_db", "loss_nlos_db", "attenuation_los_db"):
        if not math.isfinite(getattr(ph, name)):
            out.append(f"physics.{name}: must be finite")
    if ph.a2g_loss_form not in ("as-printed", "standard-fspl"):
        out.append("physics.a2g_loss_form: unknown form")
    if ph.u2u_loss_form not in ("as-printed", "standard-fspl"):
        out.append("physics.u2u_loss_form: unknown form")
    if ph.noise_model not in ("total", "per-hz"):
        out.append("physics.noise_model: unknown model")

    uav_ids = [v.id for v in scenario.uavs]
    if len(set(uav_ids)) != len(uav_ids):
        out.append("uavs: duplicate ids")
    for v in scenario.uavs:
        tag = f"uav[{v.id}]"
        if not _all_finite(v.position_m):
            out.append(f"{tag}: position_m must be finite")
        elif v.position_m[2] <= 0:
            out.append(f"{tag}: altitude must be positive")
        for name in ("max_compute_hz", "bandwidth_users_hz", "bandwidth_u2u_hz",
                     "bandwidth_to_bs_hz"):
            x = getattr(v, name)
            if not math.isfinite(x):
                out.append(f"{tag}: {name} must be finite")
            elif x <= 0:
                out.append(f"{tag}: {name} must be positive")
        for name in ("tx_power_u2u_dbm", "tx_power_to_bs_dbm"):
            if not math.isfinite(getattr(v, name)):
                out.append(f"{tag}: {name} must be finite")
        # +inf is a valid budget: unlimited energy; so is 0 J, under
        # which no decision is feasible
        if math.isnan(v.energy_budget_j):
            out.append(f"{tag}: energy_budget_j must not be NaN")
        elif v.energy_budget_j < 0:
            out.append(f"{tag}: energy_budget_j must not be negative")
        if not (0 < v.hover.power_efficiency <= 1):
            out.append(f"{tag}: hover power_efficiency must be in (0, 1]")
        if v.hover.rotor_count < 1 or v.hover.rotor_diameter_m <= 0 or v.hover.thrust_n <= 0:
            out.append(f"{tag}: hover params must be positive")

    known_uavs = set(uav_ids)
    user_ids = [u.id for u in scenario.users]
    if len(set(user_ids)) != len(user_ids):
        out.append("users: duplicate ids")
    for u in scenario.users:
        if u.associated_uav not in known_uavs:
            out.append(f"user[{u.id}]: association dangling (uav {u.associated_uav})")
        if not _all_finite(u.position_m):
            out.append(f"user[{u.id}]: position_m must be finite")
        if not math.isfinite(u.tx_power_dbm):
            out.append(f"user[{u.id}]: tx_power_dbm must be finite")

    known_users = set(user_ids)
    active = {u.id for u in scenario.users if u.active}
    owners = [t.owner_user for t in scenario.tasks]
    if len(set(owners)) != len(owners):
        out.append("tasks: duplicate owner")
    for t in scenario.tasks:
        tag = f"task[{t.owner_user}]"
        if t.owner_user not in known_users:
            out.append(f"{tag}: owner does not resolve")
        elif t.owner_user not in active:
            out.append(f"{tag}: owner is not an active user")
        if not math.isfinite(t.release_time_s):
            out.append(f"{tag}: release_time_s must be finite")
        dummies = [s for s in t.sub_tasks if s.is_dummy]
        if len(dummies) != 1 or not t.sub_tasks or not t.sub_tasks[0].is_dummy:
            out.append(f"{tag}: exactly one dummy root at the front required")
        else:
            d = dummies[0]
            if d.input_size_bits != 0 or d.predecessors:
                out.append(f"{tag}: dummy must have zero size and no predecessors")
            if d.index != 0:
                out.append(f"{tag}: dummy root must have index 0")
        # a decision's column j-1 is sub-task j, so indices are 0..n,
        # listed in any order
        idxs = [s.index for s in t.sub_tasks]
        if sorted(idxs) != list(range(len(idxs))):
            out.append(f"{tag}: sub-task indices must be 0..{len(idxs) - 1}, each once")
        known_idx = set(idxs)
        for s in t.sub_tasks:
            if not math.isfinite(s.input_size_bits):
                out.append(f"{tag}.sub[{s.index}]: input_size_bits must be finite")
            elif not s.is_dummy and s.input_size_bits <= 0:
                out.append(f"{tag}.sub[{s.index}]: input size must be positive")
            if not math.isfinite(s.cycles_per_bit):
                out.append(f"{tag}.sub[{s.index}]: cycles_per_bit must be finite")
            elif s.cycles_per_bit < 0:
                out.append(f"{tag}.sub[{s.index}]: cycles_per_bit must not be negative")
            for p, bits in s.predecessors:
                if p == s.index:
                    out.append(f"{tag}.sub[{s.index}]: self-predecessor (DAG)")
                if p not in known_idx:
                    out.append(f"{tag}.sub[{s.index}]: predecessor {p} does not resolve")
                if not math.isfinite(bits):
                    out.append(f"{tag}.sub[{s.index}]: dependency payload must be finite")
                elif bits < 0:
                    out.append(f"{tag}.sub[{s.index}]: negative dependency payload")
        try:
            topological_order(t)
        except ValueError:
            out.append(f"{tag}: cycle detected (DAG)")
    missing = active - set(owners)
    if missing:
        out.append(f"tasks: active users without a task: {sorted(missing)}")
    return out


# ---------------------------------------------------------------------------
# serialization

# JSON has no infinity. An unlimited energy budget (+inf) is written as
# this string; files holding the non-standard token Infinity, which
# Python's json module reads as +inf, still load.
UNLIMITED_BUDGET = "inf"


def scenario_to_dict(scenario: Scenario) -> dict:
    """Plain-data form of a scenario, ready for strict JSON: an infinite
    energy budget becomes the string UNLIMITED_BUDGET."""
    d = asdict(scenario)
    d["schema_version"] = SCHEMA_VERSION
    for v in d["uavs"]:
        if v["energy_budget_j"] == math.inf:
            v["energy_budget_j"] = UNLIMITED_BUDGET
    return d


def _tuplify_subtask(s: dict) -> SubTask:
    return SubTask(
        index=s["index"],
        input_size_bits=s["input_size_bits"],
        cycles_per_bit=s["cycles_per_bit"],
        predecessors=tuple((p[0], p[1]) for p in s["predecessors"]),
        is_dummy=s["is_dummy"],
    )


def scenario_from_dict(d: dict) -> Scenario:
    version = d.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {version!r}, expected {SCHEMA_VERSION}")
    physics = PhysicsConstants(**d["physics"])
    uavs = tuple(
        UavNode(
            **{
                **v,
                "position_m": tuple(v["position_m"]),
                "hover": HoverParams(**v["hover"]),
                "energy_budget_j": (
                    math.inf
                    if v["energy_budget_j"] == UNLIMITED_BUDGET
                    else v["energy_budget_j"]
                ),
            }
        )
        for v in d["uavs"]
    )
    users = tuple(UserNode(**{**u, "position_m": tuple(u["position_m"])}) for u in d["users"])
    tasks = tuple(
        TaskGraph(
            owner_user=t["owner_user"],
            sub_tasks=tuple(_tuplify_subtask(s) for s in t["sub_tasks"]),
            release_time_s=t["release_time_s"],
        )
        for t in d["tasks"]
    )
    return Scenario(
        physics=physics,
        uavs=uavs,
        users=users,
        tasks=tasks,
        bs_position_m=tuple(d["bs_position_m"]),
    )


def save_scenario(scenario: Scenario, path) -> None:
    """Writes strict JSON (no NaN or Infinity tokens). Raises ValueError
    on a non-finite number other than an unlimited energy budget; such
    a scenario fails validate_scenario too."""
    text = json.dumps(scenario_to_dict(scenario), indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def load_scenario(path) -> Scenario:
    """Reads a scenario file; raises ValueError listing every
    validate_scenario violation when the file's scenario is invalid."""
    with open(path, "r", encoding="utf-8") as fh:
        scenario = scenario_from_dict(json.load(fh))
    problems = validate_scenario(scenario)
    if problems:
        raise ValueError("invalid scenario: " + "; ".join(problems))
    return scenario

"""Decision-space solvers over the schedule evaluator.

The main solver is a whale-style metaheuristic run in a continuous
box [1, V]^M and discretized only at fitness evaluation. Alongside it:
an exhaustive oracle for small instances, the everything-local
baseline, three bandwidth allocators, and an alternating loop that
re-optimizes offloading and bandwidth in turns.
"""
from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import channel
from .channel import BandwidthAllocation
from .evaluator import (
    Evaluator,
    OffloadDecision,
    PenaltyConfig,
    decision_from_vector,
    decision_to_vector,
)
from .scenario import Scenario


# Decisions scored per array pass by exhaustive_solve. It bounds the
# pass's temporaries: at V=3, M=8, 4096 rows raised peak memory by
# ~4.7 MB and ran slower than 1024 rows (~0.7 MB).
EXHAUSTIVE_CHUNK = 1024


class NoFeasibleDecisionError(Exception):
    """Raised when no decision in the searched space meets every energy budget."""


class StateSpaceCapError(Exception):
    """Raised when the exhaustive space V**M exceeds the configured cap."""


@dataclass(frozen=True)
class DwoaConfig:
    agents: int = 100
    max_iterations: int = 50
    penalty: PenaltyConfig = field(default_factory=PenaltyConfig)
    seed: int = 0
    spiral_b: float = 1.0
    upload_model: str = "cumulative"

    def __post_init__(self):
        if self.agents < 1:
            raise ValueError("agents must be >= 1")
        # 0 is allowed and degenerates to random search over the initial pool
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")


@dataclass
class SolverRun:
    solver: str
    seed: Optional[int]
    decision: OffloadDecision
    beta: BandwidthAllocation
    objective_s: float
    feasible: bool
    trace: List[float]
    wall_time_s: float
    config: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "solver": self.solver,
            "seed": self.seed,
            "decision": {str(u): list(v) for u, v in self.decision.x.items()},
            "beta": {f"{v},{u}": b for (v, u), b in self.beta.fractions.items()},
            "objective_s": self.objective_s,
            "feasible": self.feasible,
            "trace": list(self.trace),
            "wall_time_s": self.wall_time_s,
            "config": self.config,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @staticmethod
    def from_dict(d: Dict[str, object]) -> "SolverRun":
        decision = OffloadDecision(
            {int(u): tuple(int(x) for x in v) for u, v in d["decision"].items()}
        )
        fr = {}
        for key, b in d["beta"].items():
            v, u = key.split(",")
            fr[(int(v), int(u))] = float(b)
        return SolverRun(
            solver=d["solver"],
            seed=d["seed"],
            decision=decision,
            beta=BandwidthAllocation(fr),
            objective_s=float(d["objective_s"]),
            feasible=bool(d["feasible"]),
            trace=[float(x) for x in d["trace"]],
            wall_time_s=float(d["wall_time_s"]),
            config=dict(d.get("config", {})),
        )


def discretize_slot(x: float, v_count: int) -> int:
    """Continuous coordinate -> UAV slot: round half down, clamp to [1, V]."""
    k = math.ceil(x - 0.5)
    if k < 1:
        return 1
    if k > v_count:
        return v_count
    return k


def discretize_vector(position: Sequence[float], v_count: int) -> Tuple[int, ...]:
    return tuple(discretize_slot(x, v_count) for x in position)


def discretize(position: Sequence[float], scenario: Scenario) -> OffloadDecision:
    """Continuous agent position -> concrete offloading decision."""
    return decision_from_vector(
        scenario, discretize_vector(position, len(scenario.uavs))
    )


def discretize_population(positions: np.ndarray, v_count: int) -> np.ndarray:
    """discretize_slot over a whole (N, M) position matrix, as an (N, M)
    integer slot matrix."""
    return np.clip(np.ceil(positions - 0.5), 1, v_count).astype(np.intp)


@dataclass
class WoaState:
    """Population state of the whale search.

    Positions stay continuous in [1, V]^M; best_value is the penalized
    fitness of the best discretized position ever seen and never rises.
    The exploration weight a holds the value the next step will use.
    """

    positions: np.ndarray
    best_position: np.ndarray
    best_value: float
    iteration: int
    max_iterations: int
    a: float
    v_count: int
    spiral_b: float = 1.0
    rngs: List[np.random.Generator] = field(default_factory=list, repr=False)


# Scores a whole population: (N, M) slot matrix -> (N,) fitness values.
FitnessFn = Callable[[np.ndarray], np.ndarray]


def _first_min(values: np.ndarray) -> int:
    """Index of the first strict minimum, NaN never winning (-1 when
    every value is NaN or +inf); the same agent a left-to-right scan
    with `<` would keep."""
    values = np.where(np.isnan(values), math.inf, values)
    i = int(np.argmin(values))
    return i if values[i] < math.inf else -1


def woa_init(
    fitness: FitnessFn,
    m: int,
    v_count: int,
    agents: int,
    max_iterations: int,
    seed: int,
    spiral_b: float = 1.0,
) -> WoaState:
    """Uniform random population in [1, V]^M, one independent stream per
    agent (so a population prefix is reproducible regardless of N)."""
    rngs = [
        np.random.Generator(np.random.PCG64(ss))
        for ss in np.random.SeedSequence(seed).spawn(agents)
    ]
    pos = np.empty((agents, m))
    for i, rng in enumerate(rngs):
        pos[i] = rng.uniform(1.0, v_count, m)
    values = fitness(discretize_population(pos, v_count))
    best_i = _first_min(values)
    return WoaState(
        positions=pos,
        best_position=pos[max(best_i, 0)].copy(),
        best_value=float(values[best_i]) if best_i >= 0 else math.inf,
        iteration=0,
        max_iterations=max_iterations,
        a=2.0,
        v_count=v_count,
        spiral_b=spiral_b,
        rngs=rngs,
    )


def _moved_positions(state: WoaState) -> np.ndarray:
    """Every agent's next position, clipped to the box. Each agent draws
    its coefficients from its own stream, agent by agent; the moves then
    run as whole-matrix operations on the snapshot of the population
    and the incumbent."""
    a = state.a
    b = state.spiral_b
    old = state.positions
    best_pos = state.best_position
    n = len(state.rngs)
    # encircle and random search both move to T - A * |C * T - X|, with
    # T the incumbent or a random agent's snapshot position
    coef_a = np.empty(n)
    coef_c = np.empty(n)
    target = np.empty(n, dtype=np.intp)  # agent index, or n for the incumbent
    spiral = np.zeros(n, dtype=bool)
    spiral_e = np.empty(n)
    spiral_c = np.empty(n)
    for i, rng in enumerate(state.rngs):
        r = rng.random()
        p = rng.random()
        l = rng.uniform(-1.0, 1.0)
        A = 2.0 * a * r - a
        coef_a[i] = A
        coef_c[i] = 2.0 * r
        target[i] = n
        if p < 0.5:
            if abs(A) >= 1.0:
                target[i] = int(rng.integers(n))
        else:
            spiral[i] = True
            spiral_e[i] = math.exp(b * l)
            spiral_c[i] = math.cos(2.0 * math.pi * l)

    move = ~spiral
    T = np.vstack((old, best_pos))[target[move]]
    pos = np.empty_like(old)
    pos[move] = T - coef_a[move, None] * np.abs(coef_c[move, None] * T - old[move])
    d = np.abs(best_pos - old[spiral])
    pos[spiral] = d * spiral_e[spiral, None] * spiral_c[spiral, None] + best_pos
    return np.clip(pos, 1.0, state.v_count, out=pos)


def woa_step(state: WoaState, fitness: FitnessFn) -> WoaState:
    """One synchronous population update (encircle / spiral / random
    search per agent), fitness re-evaluated on the discretized position,
    incumbent updated on strict improvement.

    All agents move relative to a snapshot of the population and the
    incumbent taken at iteration entry, and each draws from its own
    stream, so the result does not depend on evaluation order; the whole
    population is scored in one fitness call. Mutates and returns state.
    """
    state.positions = pos = _moved_positions(state)
    values = fitness(discretize_population(pos, state.v_count))
    cand_i = _first_min(values)
    if cand_i >= 0 and values[cand_i] < state.best_value:
        state.best_value = float(values[cand_i])
        state.best_position = pos[cand_i].copy()
    state.iteration += 1
    if state.max_iterations > 0:
        state.a = max(0.0, 2.0 * (1.0 - state.iteration / state.max_iterations))
    else:
        state.a = 0.0
    return state


def dwoa_solve(
    scenario: Scenario,
    beta: BandwidthAllocation,
    config: Optional[DwoaConfig] = None,
) -> SolverRun:
    """Whale-style search over offloading vectors for a fixed allocation.

    The trace records the incumbent penalized fitness after every
    iteration; identical seeds give identical runs. An energy-infeasible
    incumbent is still returned, flagged feasible=False.
    """
    cfg = config or DwoaConfig()
    t0 = time.perf_counter()
    run = dwoa_search(Evaluator(scenario, beta, cfg.penalty, cfg.upload_model), cfg)
    run.wall_time_s = time.perf_counter() - t0
    return run


def dwoa_search(ev: Evaluator, cfg: DwoaConfig) -> SolverRun:
    """dwoa_solve over an already-built Evaluator, which carries the
    scenario, allocation, penalty and upload model. cfg supplies the
    swarm parameters; its penalty and upload model must be the
    Evaluator's."""
    if cfg.penalty != ev.penalty or cfg.upload_model != ev.upload_model:
        raise ValueError("config penalty and upload model must match the Evaluator's")
    t0 = time.perf_counter()
    state = woa_init(
        ev.fitness_many,
        ev.vector_length,
        len(ev.scenario.uavs),
        cfg.agents,
        cfg.max_iterations,
        cfg.seed,
        cfg.spiral_b,
    )
    trace = []
    for _ in range(cfg.max_iterations):
        woa_step(state, ev.fitness_many)
        trace.append(state.best_value)

    vec = discretize_vector(state.best_position, state.v_count)
    decision = decision_from_vector(ev.scenario, vec)
    obj, feasible = ev.objective_and_feasible(vec)
    return SolverRun(
        solver="dwoa",
        seed=cfg.seed,
        decision=decision,
        beta=ev.beta,
        objective_s=obj,
        feasible=feasible,
        trace=trace,
        wall_time_s=time.perf_counter() - t0,
        config={
            "agents": cfg.agents,
            "max_iterations": cfg.max_iterations,
            "lambda": cfg.penalty.lambda_,
            "penalty_mode": cfg.penalty.mode,
            "spiral_b": cfg.spiral_b,
            "upload_model": cfg.upload_model,
        },
    )


def exhaustive_solve(
    scenario: Scenario,
    beta: BandwidthAllocation,
    cap: int = 10**7,
    upload_model: str = "cumulative",
) -> SolverRun:
    """Enumerates all V**M decisions in mixed-radix order; the returned
    objective is a true optimum over the feasible set. Raises
    StateSpaceCapError over the cap and NoFeasibleDecisionError when
    every decision blows an energy budget.
    """
    t0 = time.perf_counter()
    run = exhaustive_search(Evaluator(scenario, beta, None, upload_model), cap)
    run.wall_time_s = time.perf_counter() - t0
    return run


def exhaustive_search(ev: Evaluator, cap: int = 10**7) -> SolverRun:
    """exhaustive_solve over an already-built Evaluator. Only raw
    objectives and feasibility are compared, so the Evaluator's penalty
    does not change the result."""
    t0 = time.perf_counter()
    m = ev.vector_length
    v_count = len(ev.scenario.uavs)
    total = v_count**m
    if total > cap:
        raise StateSpaceCapError(f"{v_count}**{m} decisions exceed cap {cap}")

    # decision number k, written in base V with the last sub-task as the
    # lowest digit, is the k-th decision of itertools.product order
    place = np.array([v_count**e for e in range(m - 1, -1, -1)], dtype=np.int64)
    best_obj = math.inf
    best_vec: Optional[Tuple[int, ...]] = None
    for lo in range(0, total, EXHAUSTIVE_CHUNK):
        k = np.arange(lo, min(lo + EXHAUSTIVE_CHUNK, total), dtype=np.int64)
        slots = k[:, None] // place % v_count + 1
        obj, feasible = ev.objective_and_feasible_many(slots)
        i = _first_min(np.where(feasible, obj, math.inf))
        if i >= 0 and obj[i] < best_obj:
            best_obj = float(obj[i])
            best_vec = tuple(slots[i].tolist())
    if best_vec is None:
        raise NoFeasibleDecisionError("no decision satisfies all energy budgets")
    return SolverRun(
        solver="exhaustive",
        seed=None,
        decision=decision_from_vector(ev.scenario, best_vec),
        beta=ev.beta,
        objective_s=best_obj,
        feasible=True,
        trace=[best_obj],
        wall_time_s=time.perf_counter() - t0,
        config={"cap": cap, "upload_model": ev.upload_model},
    )


def associated_decision(scenario: Scenario) -> OffloadDecision:
    """Everything-local baseline: each sub-task runs on the owner's UAV."""
    x = {}
    for t in scenario.tasks:
        user = scenario.user_by_id(t.owner_user)
        x[t.owner_user] = tuple(user.associated_uav for _ in t.non_dummy())
    return OffloadDecision(x)


def _active_bits(scenario: Scenario) -> Dict[int, float]:
    return {t.owner_user: t.total_input_bits() for t in scenario.tasks}


def alloc_equal(scenario: Scenario) -> BandwidthAllocation:
    """Uniform split over every served user, active or not."""
    fractions = {}
    for v in scenario.uavs:
        users = scenario.users_of_uav(v.id)
        if not users:
            continue
        share = 1.0 / len(users)
        for u in users:
            fractions[(v.id, u.id)] = share
    return BandwidthAllocation(fractions)


def alloc_proportional(
    scenario: Scenario, decision: Optional[OffloadDecision] = None
) -> BandwidthAllocation:
    """Splits each UAV's uplink over its active users proportional to
    their total task input size. The decision does not change the bits
    on the uplink (every input crosses it once), so it is accepted only
    for interface symmetry with alloc_optimal.
    """
    bits = _active_bits(scenario)
    fractions = {}
    for v in scenario.uavs:
        users = [u for u in scenario.users_of_uav(v.id) if bits.get(u.id, 0.0) > 0]
        total = math.fsum(bits[u.id] for u in users)
        if total <= 0:
            continue
        for u in users:
            fractions[(v.id, u.id)] = bits[u.id] / total
    return BandwidthAllocation(fractions)


def alloc_optimal(
    scenario: Scenario, decision: Optional[OffloadDecision] = None
) -> BandwidthAllocation:
    """Latency-optimal uplink split per UAV.

    Total upload time sum_u H_u / (beta_u B Gamma_u) subject to
    sum beta_u = 1 is minimized at beta_u proportional to
    sqrt(H_u / Gamma_u), with Gamma_u the user's spectral efficiency
    log2(1 + SNR). Closed form from the KKT stationarity condition;
    users with no bits to send get beta = 0.
    """
    bits = _active_bits(scenario)
    ph = scenario.physics
    fractions = {}
    for v in scenario.uavs:
        users = [u for u in scenario.users_of_uav(v.id) if bits.get(u.id, 0.0) > 0]
        weights = {}
        for u in users:
            budget = channel.user_uplink_budget(u, v, 1.0, ph)
            gamma = math.log2(1.0 + budget.snr)
            if gamma <= 0:
                raise ValueError(f"user {u.id}: zero spectral efficiency")
            weights[u.id] = math.sqrt(bits[u.id] / gamma)
        total = math.fsum(weights.values())
        if total <= 0:
            continue
        for u in users:
            fractions[(v.id, u.id)] = weights[u.id] / total
    return BandwidthAllocation(fractions)


ALLOCATORS = {
    "equal": alloc_equal,
    "proportional": alloc_proportional,
    "optimal": alloc_optimal,
}


def alternating_solve(
    scenario: Scenario,
    config: Optional[DwoaConfig] = None,
    max_outer: int = 10,
    tol: float = 1e-6,
) -> SolverRun:
    """Block-coordinate loop: whale search under the current allocation,
    then the closed-form allocation for the found decision, until the
    best penalized fitness moves by less than tol (relative) between
    rounds. Keeps the best (decision, allocation) pair across rounds, so
    the reported objective never regresses even if a round wanders.
    """
    t0 = time.perf_counter()
    cfg = config or DwoaConfig()
    round_seeds = np.random.SeedSequence(cfg.seed).spawn(max_outer)

    beta = alloc_equal(scenario)
    best: Optional[SolverRun] = None
    best_pen = math.inf
    trace: List[float] = []
    prev = math.inf
    rounds = 0
    for k in range(max_outer):
        rounds += 1
        seed_k = int(round_seeds[k].generate_state(1)[0])
        run = dwoa_solve(
            scenario,
            beta,
            DwoaConfig(
                agents=cfg.agents,
                max_iterations=cfg.max_iterations,
                penalty=cfg.penalty,
                seed=seed_k,
                spiral_b=cfg.spiral_b,
                upload_model=cfg.upload_model,
            ),
        )
        pen_run = run.trace[-1] if run.trace else Evaluator(
            scenario, beta, cfg.penalty, cfg.upload_model
        ).fitness(decision_to_vector(scenario, run.decision))
        beta_new = alloc_optimal(scenario, run.decision)
        ev = Evaluator(scenario, beta_new, cfg.penalty, cfg.upload_model)
        vec = decision_to_vector(scenario, run.decision)
        obj_new, feas_new = ev.objective_and_feasible(vec)
        pen_new = ev.fitness(vec)
        for pen, obj, feas, bt in (
            (pen_run, run.objective_s, run.feasible, beta),
            (pen_new, obj_new, feas_new, beta_new),
        ):
            if pen < best_pen:
                best_pen = pen
                best = SolverRun(
                    solver="alternating",
                    seed=cfg.seed,
                    decision=run.decision,
                    beta=bt,
                    objective_s=obj,
                    feasible=feas,
                    trace=[],
                    wall_time_s=0.0,
                    config={},
                )
        trace.append(best_pen)
        beta = beta_new
        if math.isfinite(prev) and abs(prev - best_pen) <= tol * max(1.0, abs(prev)):
            break
        prev = best_pen

    assert best is not None
    best.trace = trace
    best.wall_time_s = time.perf_counter() - t0
    best.config = {
        "agents": cfg.agents,
        "max_iterations": cfg.max_iterations,
        "lambda": cfg.penalty.lambda_,
        "penalty_mode": cfg.penalty.mode,
        "max_outer": max_outer,
        "tol": tol,
        "rounds": rounds,
        "upload_model": cfg.upload_model,
    }
    return best

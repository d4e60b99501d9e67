"""Decision-space solvers over the schedule evaluator.

The main solver is a whale-style metaheuristic run in a continuous
box [1, V]^M and discretized only at fitness evaluation. Alongside it:
an exhaustive oracle for small instances, the everything-local
baseline, three bandwidth allocators, and the alternating loop (a
search under the given split, then restarts under the closed-form
split). SOLVERS maps each solver name to its search over a built
Evaluator; each search scores its own split only and returns through
_run, which scores the winning decision once on the Evaluator that
found it. A run's wall_time_s is search time over a built Evaluator;
the *_solve functions build one and return the search's run. The whale
search is one pair of steps over one record: woa_init decodes and
scores a stack of swarms (a WoaState), and each woa_step moves,
discretizes and scores it as one matrix. _lockstep drives them for a
batch of searches, as a sweep group's dwoa cells; one search is the
one-swarm case.
"""
from __future__ import annotations

import json
import math
import operator
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
    ScheduleResult,
    _Stack,
    decision_from_vector,
)
from .scenario import Scenario, UavNode, UserNode


# Decisions scored per array pass by exhaustive_solve, at most: its
# blocks hold q * V**d of them (see exhaustive_search). It bounds the
# pass's temporaries: at V=3, M=8, 4096 rows raised peak memory by
# ~4.7 MB and ran slower than 1024 rows (~0.7 MB).
EXHAUSTIVE_CHUNK = 1024

# Log-spiral shape constant of the whale search's bubble-net move.
SPIRAL_B = 1.0

# Relative change of the best penalized fitness between two alternating
# rounds at or below which the loop stops.
ALTERNATING_TOL = 1e-6


class NoFeasibleDecisionError(Exception):
    """Raised when no decision in the searched space meets every energy budget."""


class StateSpaceCapError(Exception):
    """Raised when the exhaustive space V**M exceeds the configured cap."""


def _integer(name: str, value) -> int:
    """value as a plain int, numpy integers included; ValueError for a
    bool or anything operator.index refuses."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _count(name: str, value, low: int, high: Optional[int]) -> int:
    """value as a plain int in [low, high], high None for no bound."""
    k = _integer(name, value)
    if k < low:
        raise ValueError(f"{name} must be >= {low}, got {value!r}")
    if high is not None and k > high:
        raise ValueError(f"{name} must be <= {high}, got {value!r}")
    return k


# name -> (low, high) of each swarm count: agent indices are 32-bit bounded
# draws; 0 iterations degenerates to random search over the initial pool
_SWARM_COUNTS = {"agents": (1, 2**32 - 1), "max_iterations": (0, None), "seed": (0, None)}


@dataclass(frozen=True)
class DwoaConfig:
    agents: int = 100
    max_iterations: int = 50
    penalty: PenaltyConfig = field(default_factory=PenaltyConfig)
    seed: int = 0
    upload_model: str = "cumulative"

    def __post_init__(self):
        for name, (low, high) in _SWARM_COUNTS.items():
            # plain int, so numpy integers serialize like any other
            object.__setattr__(self, name, _count(name, getattr(self, name), low, high))
        if not isinstance(self.penalty, PenaltyConfig):
            raise ValueError(f"penalty must be a PenaltyConfig, got {self.penalty!r}")


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
    # the decision's schedule under beta; not serialized
    schedule: Optional[ScheduleResult] = field(default=None, compare=False, repr=False)

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
        fr = {tuple(int(x) for x in key.split(",")): float(b) for key, b in d["beta"].items()}
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


def _run(
    solver: str, ev: Evaluator, decision: OffloadDecision, t0: float, seed: Optional[int] = None,
    trace: Optional[List[float]] = None, config: Optional[Dict[str, object]] = None,
) -> SolverRun:
    """The run a search ends with: decision scored once by ev, the
    Evaluator whose split it won under, timed from t0 (a perf_counter
    reading). The trace defaults to the objective alone."""
    res = ev.result(decision)
    return SolverRun(
        solver=solver,
        seed=seed,
        decision=decision,
        beta=ev.beta,
        objective_s=res.objective_s,
        feasible=res.feasible,
        trace=[res.objective_s] if trace is None else trace,
        wall_time_s=time.perf_counter() - t0,
        config=config or {},
        schedule=res,
    )


def _swarm_config(cfg: DwoaConfig) -> Dict[str, object]:
    """The swarm settings a dwoa or alternating run records."""
    return {
        "agents": cfg.agents,
        "max_iterations": cfg.max_iterations,
        "lambda": cfg.penalty.lambda_,
        "penalty_mode": cfg.penalty.mode,
        "upload_model": cfg.upload_model,
    }


def discretize_vector(position: Sequence[float], v_count: int) -> Tuple[int, ...]:
    """discretize_population of one position."""
    row = np.asarray(position, dtype=float).reshape(1, -1)
    return tuple(discretize_population(row, v_count)[0].tolist())


def discretize_population(positions: np.ndarray, v_count: int) -> np.ndarray:
    """Continuous coordinates -> UAV slots, round half down and clamped to
    [1, V], over a whole (N, M) position matrix, as an (N, M) integer
    slot matrix."""
    return np.clip(np.ceil(positions - 0.5), 1, v_count).astype(np.intp)


def _exploration_weight(iteration: int, max_iterations: int) -> float:
    """The whale search's exploration weight a at an iteration: 2 at the
    start, falling linearly to 0 at max_iterations and staying 0 after
    (0 from the first step on when max_iterations is 0)."""
    if max_iterations > 0:
        return max(0.0, 2.0 * (1.0 - iteration / max_iterations))
    return 2.0 if iteration == 0 else 0.0


# Generator.random() maps a PCG64 word w to (w >> 11) * 2**-53.
_UNIT = 2.0**-53
_LOW32 = 0xFFFFFFFF


def _bounded(n: int, words: Sequence[int], at: int, spare: Optional[int]) -> Tuple[int, int, Optional[int]]:
    """Generator.integers(n) for 1 <= n < 2**32, read from PCG64 words
    words[at:] and the spare 32-bit half a previous draw left (None when
    there is none). Returns the integer, the next unread word and the
    spare half left after it.

    Lemire's method (Lemire 2019, "Fast random integer generation in an
    interval"), as numpy applies it: a 32-bit draw x maps to x*n >> 32
    unless the low 32 bits of x*n fall below (2**32 - n) % n, in which
    case it draws again. A 32-bit draw is the spare half when there is
    one, else the low half of the next word, whose high half becomes the
    spare. n == 1 reads nothing. IndexError when the words run out."""
    if n == 1:
        return 0, at, spare
    floor = (2**32 - n) % n
    while True:
        if spare is None:
            word = int(words[at])
            at += 1
            x, spare = word & _LOW32, word >> 32
        else:
            x, spare = spare, None
        m = x * n
        if m & _LOW32 >= floor:
            return m >> 32, at, spare


@dataclass
class WoaCoefficients:
    """Every agent's move coefficients for a run of whale steps: row t
    holds iteration t's, column i agent i's. coef_a and coef_c are A and
    C of the encircle / random-search move T - A * |C * T - X|, where T
    is row target of the agents' snapshot positions stacked over their
    swarms' incumbents (row n, past n agents, for a lone swarm). Where
    spiral is set the agent takes the bubble-net move instead, with
    spiral_e = e^(b*l) and spiral_c = cos(2*pi*l) (0 elsewhere).
    woa_init decodes exactly max_iterations rows."""

    coef_a: np.ndarray
    coef_c: np.ndarray
    target: np.ndarray
    spiral: np.ndarray
    spiral_e: np.ndarray
    spiral_c: np.ndarray


def _decode(
    bits: Sequence[np.random.BitGenerator], m: int, v_count: int, max_iterations: int,
    sizes: Sequence[int],
) -> Tuple[np.ndarray, WoaCoefficients]:
    """Every agent's start position in [1, V]^m and its coefficient
    tables for max_iterations steps, read from one block of raw words
    per agent's bit generator, bits listing swarms of sizes agents in
    turn, as the whale search's draws were defined:
    uniform(1, V, m) for the position, then per iteration random()
    three times (r, p and u) and, when p < 0.5 and |A| >= 1,
    integers(N), N the agent's swarm size, for the target agent, with
    A = 2*a*r - a, C = 2*r and l = -1 + 2*u. Reads exactly the words
    and spare halves those Generator calls would, so both equal theirs
    bit for bit; when a Lemire redraw runs past the block, every agent
    draws one more."""
    n = len(bits)
    weights = [_exploration_weight(t, max_iterations) for t in range(max_iterations)]
    # |A| <= a, so only rows with a >= 1 can draw a target; a never
    # rises, so those rows come first and every later row reads 3 words
    drawing = sum(a >= 1.0 for a in weights)
    tail = 3 * (max_iterations - drawing)
    block = m + 4 * drawing + tail  # enough unless Lemire's method redraws
    words = np.array([b.random_raw(block) for b in bits], dtype=np.uint64)
    count = np.repeat(sizes, sizes)
    while True:
        width = words.shape[1]
        unit = (words >> np.uint64(11)) * _UNIT
        try:
            scans = [
                _scan(unit[i, m:width - tail].tolist(), words[i, m:], weights[:drawing], tail, k)
                for i, k in enumerate(count.tolist())
            ]
            break
        except IndexError:
            words = np.hstack((words, [b.random_raw(block) for b in bits]))
    starts, drawn = zip(*scans)
    incumbent = n + np.repeat(np.arange(len(sizes)), sizes)
    target = np.tile(incumbent, (max_iterations, 1))
    drawn = np.array(drawn, dtype=np.intp).T
    target[:drawing] = np.where(drawn < count, drawn + np.repeat(np.cumsum(sizes) - sizes, sizes), incumbent)

    # flat index of each row's r in unit, shaped (max_iterations, n)
    at = np.array(starts, dtype=np.intp).T + (m + np.arange(n) * width)
    flat = unit.ravel()
    r = flat.take(at)
    spiral = flat.take(at + 1) >= 0.5
    l = -1.0 + 2.0 * flat.take(at + 2)
    a = np.array(weights)[:, None]
    spiral_e = np.zeros_like(l)
    spiral_c = np.zeros_like(l)
    # math.exp and math.cos, not numpy's SIMD loops, whose last bit can differ
    ls = l[spiral]
    spiral_e[spiral] = list(map(math.exp, (SPIRAL_B * ls).tolist()))
    spiral_c[spiral] = list(map(math.cos, (2.0 * math.pi * ls).tolist()))
    coefficients = WoaCoefficients(
        coef_a=2.0 * a * r - a,
        coef_c=2.0 * r,
        target=target,
        spiral=spiral,
        spiral_e=spiral_e,
        spiral_c=spiral_c,
    )
    return 1.0 + (v_count - 1.0) * unit[:, :m], coefficients


def _scan(
    unit: List[float], words: np.ndarray, weights: List[float], tail: int, n: int,
) -> Tuple[List[int], List[int]]:
    """One agent's pass over its rows: the word each row's r sits at,
    and the target of each row in weights, which holds the a of the rows
    that can draw one. The other rows follow them, 3 of the tail words
    each. unit[k] is word k as random() reads it, up to the tail;
    IndexError when the rows read past its end."""
    at: List[int] = []
    drawn: List[int] = []
    c = 0
    spare = None
    for a in weights:
        at.append(c)
        c += 3
        j = n
        if unit[c - 2] < 0.5 and abs(2.0 * a * unit[c - 3] - a) >= 1.0:
            j, c, spare = _bounded(n, words, c, spare)
        drawn.append(j)
    if c > len(unit):
        raise IndexError("rows read past the drawn words")
    return at + list(range(c, c + tail, 3)), drawn


@dataclass
class WoaState:
    """Whale searches stepped as one swarm; a lone search is the
    one-swarm case.

    positions stacks their agents, continuous in [1, V]^M: swarm s from
    row starts[s] on, row i of swarm owner[i]. best_position (S, M) and
    best_value (S,) hold each swarm's incumbent, the best discretized
    position it has scored, whose penalized fitness never rises.
    coefficients holds every agent's move coefficients, row `iteration`
    being the next step's; a the exploration weight that step uses.
    """

    positions: np.ndarray
    best_position: np.ndarray
    best_value: np.ndarray
    starts: np.ndarray
    owner: np.ndarray
    iteration: int
    max_iterations: int
    v_count: int
    coefficients: WoaCoefficients = field(repr=False)

    @property
    def a(self) -> float:
        return _exploration_weight(self.iteration, self.max_iterations)


# Scores a whole population: (N, M) slot matrix -> (N,) fitness values.
FitnessFn = Callable[[np.ndarray], np.ndarray]


def _first_min(values: np.ndarray) -> int:
    """Index of the first strict minimum, NaN never winning (-1 when
    every value is NaN or +inf); the same agent a left-to-right scan
    with `<` would keep."""
    values = np.where(np.isnan(values), math.inf, values)
    i = int(np.argmin(values))
    return i if values[i] < math.inf else -1


def _swarm_minima(
    values: np.ndarray, owner: np.ndarray, starts: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per swarm of stacked rows (row i of swarm owner[i], swarm s from
    row starts[s] on), the row of its first strict minimum among values
    and that value, NaN never winning (the swarm's first row at +inf
    when none is finite)."""
    values = np.where(np.isnan(values), math.inf, values)
    # a stable sort by swarm, then value: each swarm's first row at its
    # least value leads the swarm's run
    first = np.lexsort((values, owner))[starts]
    return first, values[first]


def woa_init(
    fitness: FitnessFn,
    m: int,
    v_count: int,
    swarms: Sequence[Tuple[int, int]],
    max_iterations: int,
) -> WoaState:
    """The swarms of (agents, seed) pairs, stacked in order, each
    uniform random in [1, V]^M from one independent PCG64 stream per
    agent (so a swarm's prefix, and its coefficient columns, are
    reproducible regardless of its N). Every agent count is checked
    before any stream is drawn; each stream is read once, as raw words:
    its initial position, then the coefficients of all max_iterations
    steps (see _decode). One fitness call scores the whole stack, and
    each swarm's first strict minimum becomes its incumbent."""
    sizes = [_count("agents", agents, *_SWARM_COUNTS["agents"]) for agents, _ in swarms]
    bits = [np.random.PCG64(ss) for (_, seed), k in zip(swarms, sizes)
            for ss in np.random.SeedSequence(seed).spawn(k)]
    pos, coefficients = _decode(bits, m, v_count, max_iterations, sizes)
    starts, owner = np.cumsum(sizes) - sizes, np.repeat(np.arange(len(sizes)), sizes)
    first, best = _swarm_minima(fitness(discretize_population(pos, v_count)), owner, starts)
    return WoaState(pos, pos[first], best, starts, owner, 0, max_iterations, v_count, coefficients)


def _moved_positions(state: WoaState) -> np.ndarray:
    """Every agent's next position, clipped to the box: row
    state.iteration of the coefficient tables applied to the snapshot
    of the stacked agents and the incumbents, as whole-matrix
    operations. IndexError past the last row."""
    co = state.coefficients
    t = state.iteration
    spiral = co.spiral[t]
    old = state.positions

    # encircle and random search move to T - A * |C * T - X|, with T the
    # swarm's incumbent or a random agent's snapshot position; the spiral
    # moves to |T - X| * e * c + T, with T the swarm's incumbent whatever
    # the row's target. Both are
    # T + |C * T - X| * B * D, with (C, B, D) = (C, -A, 1.0) or
    # (1.0, e, c): 1.0 * x == x, -(A * x) == (-A) * x and y - x ==
    # y + (-x), so every agent gets its own formula's bits
    snapshot = np.concatenate((old, state.best_position))
    T = snapshot.take(np.where(spiral, len(old) + state.owner, co.target[t]), axis=0)
    pos = np.multiply(np.where(spiral, 1.0, co.coef_c[t])[:, None], T)
    pos -= old
    np.abs(pos, out=pos)
    pos *= np.where(spiral, co.spiral_e[t], -co.coef_a[t])[:, None]
    pos *= np.where(spiral, co.spiral_c[t], 1.0)[:, None]
    pos += T
    return np.clip(pos, 1.0, state.v_count, out=pos)


def woa_step(state: WoaState, fitness: FitnessFn) -> WoaState:
    """One synchronous update of every swarm (encircle / spiral / random
    search per agent), fitness re-evaluated on the discretized
    positions, each incumbent replaced only on strict improvement.

    All agents move relative to a snapshot of the stack and the
    incumbents taken at iteration entry, with coefficients decoded from
    each agent's own stream, so the result does not depend on evaluation
    order; the whole stack is scored in one fitness call. Mutates and
    returns state; IndexError past the last step.
    """
    state.positions = _moved_positions(state)
    values = fitness(discretize_population(state.positions, state.v_count))
    first, best = _swarm_minima(values, state.owner, state.starts)
    better = best < state.best_value
    state.best_value = np.where(better, best, state.best_value)
    state.best_position = np.where(better[:, None], state.positions[first], state.best_position)
    state.iteration += 1
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
    return dwoa_search(Evaluator(scenario, beta, cfg.penalty, cfg.upload_model), cfg)


def dwoa_search(ev: Evaluator, cfg: DwoaConfig) -> SolverRun:
    """dwoa_solve over an already-built Evaluator, which carries the
    scenario, allocation, penalty and upload model. cfg supplies the
    swarm parameters; its penalty and upload model must be the
    Evaluator's."""
    return _dwoa_runs([(ev, cfg)])[0]


def _dwoa_runs(searches: Sequence[Tuple[Evaluator, DwoaConfig]]) -> List[SolverRun]:
    """dwoa_search of each (Evaluator, config), searched in lockstep; a
    run's wall time is an even share of the search time plus its own
    result()."""
    t0 = time.perf_counter()
    found = _lockstep([(ev, cfg, cfg.seed) for ev, cfg in searches])
    share = (time.perf_counter() - t0) / len(searches)
    return [
        _run("dwoa", ev, decision_from_vector(ev.scenario, vec), time.perf_counter() - share,
             cfg.seed, trace, {**_swarm_config(cfg), "spiral_b": SPIRAL_B})
        for (ev, cfg), (vec, trace) in zip(searches, found)
    ]


def _lockstep(
    searches: Sequence[Tuple[Evaluator, DwoaConfig, int]],
) -> List[Tuple[Tuple[int, ...], List[float]]]:
    """Per whale search (over an Evaluator, with a config and a seed),
    its best decision vector and the incumbent fitness after every
    iteration, as the search run alone gives them. Searches on one
    plan, under one penalty mode and with equal max_iterations run in
    batches of at most EXHAUSTIVE_CHUNK rows, in the given order. A
    batch is one WoaState: woa_init, then max_iterations woa_steps,
    each scoring all its rows in one _Stack pass (a one-swarm batch is
    scored by its own Evaluator)."""
    batches: List[List[int]] = []
    open_batch: Dict[tuple, List[int]] = {}
    for k, (ev, cfg, _) in enumerate(searches):
        if cfg.penalty != ev.penalty or cfg.upload_model != ev.upload_model:
            raise ValueError("config penalty and upload model must match the Evaluator's")
        key = (ev._plan, ev._mode, cfg.max_iterations)
        batch = open_batch.get(key)
        if batch is None or sum(searches[j][1].agents for j in batch) + cfg.agents > EXHAUSTIVE_CHUNK:
            batch = open_batch[key] = []
            batches.append(batch)
        batch.append(k)

    found: List[Tuple[Tuple[int, ...], List[float]]] = [None] * len(searches)
    for batch in batches:
        ev, cfg, _ = searches[batch[0]]
        swarms = [(searches[k][1].agents, searches[k][2]) for k in batch]
        fitness = ev.fitness_many if len(batch) == 1 else _Stack(
            [searches[k][0] for k in batch], [agents for agents, _ in swarms]).fitness_many
        state = woa_init(fitness, ev.vector_length, len(ev.scenario.uavs), swarms, cfg.max_iterations)
        traces = [woa_step(state, fitness).best_value.tolist() for _ in range(cfg.max_iterations)]
        best = discretize_population(state.best_position, state.v_count).tolist()
        for s, k in enumerate(batch):
            found[k] = (tuple(best[s]), [values[s] for values in traces])
    return found


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
    return exhaustive_search(Evaluator(scenario, beta, None, upload_model), cap)


def exhaustive_search(ev: Evaluator, cap: int = 10**7) -> SolverRun:
    """exhaustive_solve over an already-built Evaluator. Only raw
    objectives and feasibility are compared, so the Evaluator's penalty
    does not change the result: the first strict minimum of the
    objective among feasible decisions, in itertools.product order.

    Decision k, written in base V with the last sub-task as the lowest
    digit, is the k-th of that order. The search scores blocks of
    q * V**d decisions: V**d is the largest power of V at most
    EXHAUSTIVE_CHUNK, with d <= M, and q = EXHAUSTIVE_CHUNK // V**d
    runs of V**d, fewer in the last block when V**(M - d) is not a
    multiple of q. The low d digits of every run are one table, written
    once; a block writes only the high digits of its q run numbers.
    Each block is scored objective first, and its energy totals are
    finished only when some objective in it is strictly below the best
    feasible one so far: no other row can become the winner. On a
    certified Evaluator every decision is feasible, and no energy is
    computed at all."""
    t0 = time.perf_counter()
    m = ev.vector_length
    v_count = len(ev.scenario.uavs)
    total = v_count**m
    if total > cap:
        raise StateSpaceCapError(f"{v_count}**{m} decisions exceed cap {cap}")

    d = 0
    while d < m and v_count ** (d + 1) <= EXHAUSTIVE_CHUNK:
        d += 1
    run = v_count**d
    runs = total // run
    q = min(EXHAUSTIVE_CHUNK // run, runs)
    slots = np.empty((q * run, m), dtype=np.intp)
    by_run = slots.reshape(q, run, m)
    by_run[:, :, m - d:] = np.indices((v_count,) * d, dtype=np.intp).reshape(d, run).T + 1
    high = by_run[:, :, :m - d]
    place = v_count ** np.arange(m - d - 1, -1, -1, dtype=np.int64)
    best_obj = math.inf
    best_vec: Optional[Tuple[int, ...]] = None
    certified = ev._certified
    for lo in range(0, runs, q):
        k = np.arange(lo, min(lo + q, runs), dtype=np.int64)
        high[:len(k)] = (k[:, None] // place % v_count + 1)[:, None]
        block = slots[:len(k) * run]
        obj, energy = ev._objective_first(block)
        if not (obj < best_obj).any():
            continue
        i = _first_min(obj if certified else np.where(ev._feasible(energy()), obj, math.inf))
        if i >= 0 and obj[i] < best_obj:
            best_obj = float(obj[i])
            best_vec = tuple(block[i].tolist())
    if best_vec is None:
        raise NoFeasibleDecisionError("no decision satisfies all energy budgets")
    return _run(
        "exhaustive", ev, decision_from_vector(ev.scenario, best_vec), t0,
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


def _normalized_split(
    scenario: Scenario, weight: Callable[[UserNode, UavNode, float], float]
) -> BandwidthAllocation:
    """Splits each UAV's uplink over its active users with bits to send,
    proportional to weight(user, uav, total input bits); a UAV whose
    weights sum to zero gets no entry."""
    bits = _active_bits(scenario)
    fractions = {}
    for v in scenario.uavs:
        users = [u for u in scenario.users_of_uav(v.id) if bits.get(u.id, 0.0) > 0]
        weights = [weight(u, v, bits[u.id]) for u in users]
        total = math.fsum(weights)
        if total <= 0:
            continue
        for u, w in zip(users, weights):
            fractions[(v.id, u.id)] = w / total
    return BandwidthAllocation(fractions)


def alloc_proportional(scenario: Scenario) -> BandwidthAllocation:
    """Splits each UAV's uplink over its active users proportional to
    their total task input size."""
    return _normalized_split(scenario, lambda u, v, bits: bits)


def alloc_optimal(scenario: Scenario) -> BandwidthAllocation:
    """Latency-optimal uplink split per UAV.

    Total upload time sum_u H_u / (beta_u B Gamma_u) subject to
    sum beta_u = 1 is minimized at beta_u proportional to
    sqrt(H_u / Gamma_u), with Gamma_u the user's spectral efficiency
    log2(1 + SNR). Closed form from the KKT stationarity condition;
    users with no bits to send get beta = 0. Every input crosses the
    uplink once wherever it executes, so the split does not depend on
    the offloading decision.
    """
    ph = scenario.physics

    def weight(u: UserNode, v: UavNode, bits: float) -> float:
        gamma = math.log2(1.0 + channel.user_uplink_budget(u, v, 1.0, ph).snr)
        if gamma <= 0:
            raise ValueError(f"user {u.id}: zero spectral efficiency")
        return math.sqrt(bits / gamma)

    return _normalized_split(scenario, weight)


ALLOCATORS = {
    "equal": alloc_equal,
    "proportional": alloc_proportional,
    "optimal": alloc_optimal,
}


def alternating_solve(
    scenario: Scenario, config: Optional[DwoaConfig] = None, max_outer: int = 10
) -> SolverRun:
    """alternating_search starting from the equal split."""
    cfg = config or DwoaConfig()
    ev = Evaluator(scenario, alloc_equal(scenario), cfg.penalty, cfg.upload_model)
    return alternating_search(ev, cfg, max_outer)


def alternating_search(ev: Evaluator, cfg: DwoaConfig, max_outer: int = 10) -> SolverRun:
    """Whale search under the Evaluator's split, then seeded restarts
    under the closed-form split.

    Round 0 searches ev and scores its decision under both splits;
    every later round restarts the search under alloc_optimal with the
    next seed spawned from cfg.seed. The closed-form Evaluator is built
    once, and not at all when ev already carries that split. Stops
    after max_outer rounds, or once the best penalized fitness moves by
    at most ALTERNATING_TOL (relative) between rounds, and returns the
    best (decision, allocation) pair seen; the trace holds the best
    value after each round. max_outer below 1 raises ValueError. The
    closed-form Evaluator shares ev's scenario plan.
    """
    if max_outer < 1:
        raise ValueError("max_outer must be >= 1")
    t0 = time.perf_counter()
    closed = alloc_optimal(ev.scenario)
    optimal = ev
    if closed.fractions != ev.beta.fractions:
        optimal = Evaluator(ev.scenario, closed, ev.penalty, ev.upload_model, _plan=ev._plan)

    best: Optional[Tuple[Tuple[int, ...], Evaluator]] = None
    best_pen = math.inf
    trace: List[float] = []
    prev = math.inf
    for k, round_seed in enumerate(np.random.SeedSequence(cfg.seed).spawn(max_outer)):
        seed_k = int(round_seed.generate_state(1)[0])
        vec, _ = _lockstep([(ev if k == 0 else optimal, cfg, seed_k)])[0]
        for scorer in (ev, optimal) if k == 0 else (optimal,):
            pen = scorer.fitness(vec)
            if pen < best_pen:
                best_pen = pen
                best = (vec, scorer)
        trace.append(best_pen)
        if math.isfinite(prev) and abs(prev - best_pen) <= ALTERNATING_TOL * max(1.0, abs(prev)):
            break
        prev = best_pen

    assert best is not None
    vec, scorer = best
    return _run(
        "alternating", scorer, decision_from_vector(ev.scenario, vec), t0, cfg.seed, trace,
        {**_swarm_config(cfg), "max_outer": max_outer, "tol": ALTERNATING_TOL,
         "rounds": len(trace)},
    )


def associated_baseline(ev: Evaluator) -> SolverRun:
    """The everything-local decision, scored under the Evaluator's
    allocation."""
    return _run("associated", ev, associated_decision(ev.scenario), time.perf_counter())


def solver_seed(seed: int) -> int:
    """Solver seed of a run seeded with seed: the first word of
    SeedSequence([seed, 1]). Scenario generation draws from
    SeedSequence([seed, 0]), so the two streams never correlate."""
    return int(np.random.SeedSequence([int(seed), 1]).generate_state(1)[0])


# A search over an Evaluator, which carries the scenario, allocation,
# penalty and upload model; cfg supplies the swarm parameters and seed.
SolverFn = Callable[[Evaluator, DwoaConfig], SolverRun]

SOLVERS: Dict[str, SolverFn] = {
    "dwoa": dwoa_search,
    "exhaustive": lambda ev, cfg: exhaustive_search(ev),
    "associated": lambda ev, cfg: associated_baseline(ev),
    "alternating": alternating_search,
}

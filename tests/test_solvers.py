import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from uavmec import (
    ALLOCATORS,
    BandwidthAllocation,
    DwoaConfig,
    Evaluator,
    NoFeasibleDecisionError,
    OffloadDecision,
    PenaltyConfig,
    SolverRun,
    StateSpaceCapError,
    WoaCoefficients,
    WoaState,
    alloc_equal,
    alloc_optimal,
    alloc_proportional,
    alternating_solve,
    associated_decision,
    discretize_vector,
    dwoa_solve,
    evaluate,
    exhaustive_solve,
    generate_scenario,
    user_uplink_rate,
    woa_init,
    woa_step,
)
from uavmec.solvers import SOLVERS, alternating_search, dwoa_search, exhaustive_search
from uavmec.scenario import (
    PhysicsConstants,
    Scenario,
    SubTask,
    TaskGraph,
    UavNode,
    UserNode,
)
from uavmec.evaluator import decision_from_vector, decision_to_vector
from uavmec.solvers import SPIRAL_B, _bounded, _decode, _moved_positions
from uavmec.solvers import discretize_population

from uavmec import evaluator, solvers
from uavmec.evaluator import _Plan
from uavmec.solvers import EXHAUSTIVE_CHUNK, _dwoa_runs, _lockstep

import oracles
from conftest import desk_scenario, hand_scenario, random_decision, run_digest, searched_alone


# ---------------------------------------------------------------- discretize

def _slot(x: float, v_count: int) -> int:
    """The slot discretize_vector gives one coordinate."""
    return discretize_vector((x,), v_count)[0]


def test_discretize_slot_goldens():
    assert _slot(2.4, 4) == 2
    assert _slot(0.3, 4) == 1  # clamped from below
    assert _slot(4.9, 4) == 4  # clamped from above
    assert _slot(1.5, 4) == 1  # ties round down
    assert _slot(2.5, 4) == 2
    assert _slot(3.5001, 4) == 4
    assert _slot(1.0, 4) == 1
    assert _slot(4.0, 4) == 4


def test_discretize_population_matches_slot_goldens():
    xs = np.array([[2.4, 0.3, 4.9, 1.5], [2.5, 3.5001, 1.0, 4.0]])
    assert discretize_population(xs, 4).tolist() == [[2, 1, 4, 1], [2, 4, 1, 4]]
    grid = np.linspace(0.0, 8.0, 4001).reshape(1, -1)
    for v in (2, 3, 7):
        # the rule spelled out: round half down, clamp to [1, V]
        assert discretize_population(grid, v)[0].tolist() == [
            min(max(math.ceil(float(x) - 0.5), 1), v) for x in grid[0]
        ]


def test_discretize_vector_and_decision():
    assert discretize_vector((1.2, 3.8, 2.5), 4) == (1, 4, 2)
    s = hand_scenario()
    dec = decision_from_vector(s, discretize_vector((1.6, 1.2, 2.0), len(s.uavs)))
    assert isinstance(dec, OffloadDecision)
    assert dec.x == {1: (2, 1, 2)}


def test_discretize_covers_all_slots_uniformly():
    # every integer slot owns a unit-width window of the continuous axis
    for v in (2, 3, 4, 7):
        xs = np.linspace(1.0, v, 2000)
        slots = [_slot(float(x), v) for x in xs]
        assert set(slots) == set(range(1, v + 1))
        assert slots == sorted(slots)


# ------------------------------------------------------------ woa mechanics

def _move(A, C, target=None):
    """One agent's encircle / random-search coefficients; target None
    moves it toward the incumbent."""
    return dict(coef_a=A, coef_c=C, target=target, spiral=False, spiral_e=0.0, spiral_c=0.0)


def _spiral(l):
    """One agent's bubble-net coefficients at spiral position l."""
    return dict(coef_a=0.0, coef_c=0.0, target=None, spiral=True,
                spiral_e=math.exp(l), spiral_c=math.cos(2.0 * math.pi * l))


def _lone_state(positions, best, best_value, **fields):
    """A one-swarm state of the given positions and incumbent."""
    positions = np.array(positions, dtype=float)
    return WoaState(
        positions=positions,
        best_position=np.array(best, dtype=float).reshape(1, -1),
        best_value=np.array([best_value], dtype=float),
        starts=np.zeros(1, np.intp),
        owner=np.zeros(len(positions), np.intp),
        **fields,
    )


def _state(positions, best, v_count, agents, best_value=5.0):
    """A state at iteration 0 of 10 whose coefficient tables hold one
    hand-set row, one column per agent."""
    n = len(agents)
    rows = {k: [[ag[k] for ag in agents]] for k in agents[0]}
    rows["target"] = [[n if ag["target"] is None else ag["target"] for ag in agents]]
    return _lone_state(
        positions, best, best_value,
        iteration=0,
        max_iterations=10,
        v_count=v_count,
        coefficients=WoaCoefficients(**{k: np.array(v) for k, v in rows.items()}),
    )


def test_step_encircle_with_zero_coefficient_lands_on_best():
    # A = 0 collapses the encircling move onto X*
    st = _state([[3.0, 1.0, 2.0]], [2.0, 4.0, 1.5], 4, [_move(0.0, 1.0)])
    woa_step(st, lambda P: np.full(len(P), 100.0))
    assert np.allclose(st.positions[0], [2.0, 4.0, 1.5])
    assert st.best_value.tolist() == [5.0]  # worse fitness must not replace the incumbent
    assert st.iteration == 1
    assert st.a == pytest.approx(2.0 * (1 - 1 / 10))


def test_step_spiral_from_best_stays_at_best():
    st = _state([[2.0, 3.0]], [2.0, 3.0], 4, [_spiral(0.37)])
    woa_step(st, lambda P: np.full(len(P), 100.0))
    assert np.allclose(st.positions[0], [2.0, 3.0])


def test_step_spiral_zero_angle_adds_distance():
    # l = 0 gives X* + |X* - X| elementwise, then the clamp bites
    st = _state([[1.0, 1.0]], [3.0, 2.5], 4, [_spiral(0.0)])
    woa_step(st, lambda P: np.full(len(P), 100.0))
    assert np.allclose(st.positions[0], [4.0, 4.0])  # 5.0 clamped to V, 4.0 kept


def test_step_search_branch_uses_snapshot_of_neighbor():
    # agent 0 teleports onto X*; agent 1 must still see agent 0's OLD spot
    old0 = [3.0, 1.0]
    best = [2.0, 4.0]
    agent0 = _move(0.0, 1.0)            # A=0 encircle -> moves to best
    agent1 = _move(2.0, 2.0, target=0)  # A=2, C=2 -> random search vs agent 0
    st = _state([old0, [1.5, 2.0]], best, 4, [agent0, agent1])
    woa_step(st, lambda P: np.full(len(P), 100.0))
    d = np.abs(2.0 * np.array(old0) - np.array([1.5, 2.0]))
    expected = np.clip(np.array(old0) - 2.0 * d, 1.0, 4.0)
    assert np.allclose(st.positions[1], expected)
    assert np.allclose(st.positions[0], best)


def test_step_incumbent_updates_only_on_strict_improvement():
    st = _state([[3.0, 3.0]], [2.0, 2.0], 4, [_move(0.0, 1.0)], best_value=7.0)
    woa_step(st, lambda P: np.full(len(P), 7.0))  # tie: keep the old best position
    assert st.best_value.tolist() == [7.0]
    assert np.allclose(st.best_position, [[2.0, 2.0]])

    st2 = _state([[3.0, 3.0]], [2.0, 2.0], 4, [_move(0.0, 1.0)], best_value=7.0)
    woa_step(st2, lambda P: np.full(len(P), 6.5))
    assert st2.best_value.tolist() == [6.5]


def test_step_past_hand_set_rows_without_streams_raises():
    st = _state([[3.0, 3.0]], [2.0, 2.0], 4, [_move(0.0, 1.0)])
    woa_step(st, lambda P: np.full(len(P), 100.0))
    with pytest.raises(IndexError):
        woa_step(st, lambda P: np.full(len(P), 100.0))


def _masked_moved_positions(state):
    """The swarm move written branch by branch with boolean masks: the
    reference the one-formula _moved_positions must equal bit for bit."""
    co = state.coefficients
    t = state.iteration
    coef_a, coef_c, target = co.coef_a[t], co.coef_c[t], co.target[t]
    spiral, spiral_e, spiral_c = co.spiral[t], co.spiral_e[t], co.spiral_c[t]
    old = state.positions
    best_pos = state.best_position
    move = ~spiral
    T = np.vstack((old, best_pos))[target[move]]
    pos = np.empty_like(old)
    pos[move] = T - coef_a[move, None] * np.abs(coef_c[move, None] * T - old[move])
    d = np.abs(best_pos - old[spiral])
    pos[spiral] = d * spiral_e[spiral, None] * spiral_c[spiral, None] + best_pos
    return np.clip(pos, 1.0, state.v_count, out=pos)


def _random_rows(rng, n, rows, spiral_share):
    """Coefficient tables of rows steps: A in [-2, 2], C in [0, 2],
    targets over every agent and the incumbent (n), spirals (whose
    target the move ignores) with the share given."""
    l = rng.uniform(-1.0, 1.0, (rows, n))
    spiral = rng.random((rows, n)) < spiral_share
    return WoaCoefficients(
        coef_a=rng.uniform(-2.0, 2.0, (rows, n)),
        coef_c=rng.uniform(0.0, 2.0, (rows, n)),
        target=rng.integers(0, n + 1, (rows, n)),
        spiral=spiral,
        spiral_e=np.where(spiral, np.exp(SPIRAL_B * l), 0.0),
        spiral_c=np.where(spiral, np.cos(2.0 * np.pi * l), 0.0),
    )


@pytest.mark.parametrize("n", [1, 5, 17, 100])
@pytest.mark.parametrize("spiral_share", [0.0, 0.5, 1.0], ids=["none", "mixed", "all"])
def test_moved_positions_equal_the_masked_formula(n, spiral_share):
    rng = np.random.default_rng(n)
    m, v_count, rows = 30, 5, 12
    co = _random_rows(rng, n, rows, spiral_share)
    state = _lone_state(
        rng.uniform(1.0, v_count, (n, m)), rng.uniform(1.0, v_count, m), 0.0,
        iteration=0, max_iterations=rows, v_count=v_count, coefficients=co,
    )
    assert (co.target == n).any() and (co.target < n).any()
    for t in range(rows):
        state.iteration = t
        got = _moved_positions(state)
        assert np.array_equal(got, _masked_moved_positions(state))
        # the next step starts from the moved swarm and a moved incumbent
        state.positions = got
        state.best_position = got[[t % n]]


@pytest.mark.parametrize("n", [1, 5, 17, 100])
def test_moved_positions_equal_the_masked_formula_on_decoded_rows(n):
    fit = lambda P: P.sum(axis=1).astype(float)
    state = woa_init(fit, m=40, v_count=9, swarms=[(n, n)], max_iterations=50)
    for t in range(50):
        state.iteration = t
        got = _moved_positions(state)
        assert np.array_equal(got, _masked_moved_positions(state))
        state.positions = got


def test_step_positions_stay_in_box():
    fit = lambda P: P.sum(axis=1).astype(float)
    state = woa_init(fit, m=6, v_count=4, swarms=[(12, 3)], max_iterations=8)
    for _ in range(8):
        woa_step(state, fit)
        assert np.all(state.positions >= 1.0)
        assert np.all(state.positions <= 4.0)


def test_woa_population_prefix_is_seed_stable():
    fit = lambda P: P.sum(axis=1).astype(float)
    small = woa_init(fit, m=5, v_count=4, swarms=[(10, 42)], max_iterations=5)
    large = woa_init(fit, m=5, v_count=4, swarms=[(40, 42)], max_iterations=5)
    assert np.array_equal(small.positions, large.positions[:10])
    assert large.best_value <= small.best_value


def test_woa_coefficient_prefix_is_seed_stable():
    # integers(N) depends on N, so only whether an agent drew a target
    # agent, not which one, carries over
    fit = lambda P: P.sum(axis=1).astype(float)
    small = woa_init(fit, m=5, v_count=4, swarms=[(10, 42)], max_iterations=30).coefficients
    large = woa_init(fit, m=5, v_count=4, swarms=[(40, 42)], max_iterations=30).coefficients
    for name in ("coef_a", "coef_c", "spiral", "spiral_e", "spiral_c"):
        assert np.array_equal(getattr(small, name), getattr(large, name)[:, :10]), name
    assert np.array_equal(small.target == 10, large.target[:, :10] == 40)
    assert (small.target < 10).any()


# ------------------------------------------------------- coefficient decode

def _generator_tables(agents, max_iterations, seed, m=3, v_count=4):
    """The coefficient tables the whale step drew with Generator calls,
    agent by agent: random(3) for r, p and u, then integers(N) when
    p < 0.5 and |A| >= 1, after each agent's uniform initial position;
    and those positions."""
    rngs = [np.random.Generator(np.random.PCG64(ss))
            for ss in np.random.SeedSequence(seed).spawn(agents)]
    positions = np.array([rng.uniform(1.0, v_count, m) for rng in rngs])
    rows = max_iterations
    tables = {k: np.zeros((rows, agents)) for k in ("coef_a", "coef_c", "spiral_e", "spiral_c")}
    tables["target"] = np.full((rows, agents), agents, dtype=np.intp)
    tables["spiral"] = np.zeros((rows, agents), dtype=bool)
    for t in range(rows):
        a = 2.0 * (1.0 - t / max_iterations)
        for i, rng in enumerate(rngs):
            r, p, u = rng.random(3).tolist()
            l = -1.0 + 2.0 * u
            A = 2.0 * a * r - a
            tables["coef_a"][t, i] = A
            tables["coef_c"][t, i] = 2.0 * r
            if p < 0.5:
                if abs(A) >= 1.0:
                    tables["target"][t, i] = int(rng.integers(agents))
            else:
                tables["spiral"][t, i] = True
                tables["spiral_e"][t, i] = math.exp(l)
                tables["spiral_c"][t, i] = math.cos(2.0 * math.pi * l)
    return tables, positions


def _assert_bits_equal(got, want, name):
    assert got.shape == want.shape, name
    if want.dtype == float:  # bit for bit
        got, want = got.view(np.uint64), want.view(np.uint64)
    assert np.array_equal(got, want), name


def _assert_tables_equal(co, expected):
    for name, want in expected.items():
        _assert_bits_equal(getattr(co, name), want, name)


@pytest.mark.parametrize("agents", [1, 2, 5, 100])
@pytest.mark.parametrize("iters", [0, 1, 50])
def test_decoded_coefficients_match_generator_draws(agents, iters):
    # start positions over every (m, V) too, looped like the seeds
    fit = lambda P: np.zeros(len(P))
    for seed, m, v_count in itertools.product((0, 7), (1, 3, 30), (2, 4, 9)):
        state = woa_init(fit, m=m, v_count=v_count, swarms=[(agents, seed)], max_iterations=iters)
        tables, positions = _generator_tables(agents, iters, seed, m, v_count)
        assert len(state.coefficients.coef_a) == iters
        _assert_tables_equal(state.coefficients, tables)
        _assert_bits_equal(state.positions, positions, "positions")


@pytest.mark.parametrize("agents,iters", [(1, 0), (2, 1), (5, 3), (100, 4)])
def test_step_past_max_iterations_raises(agents, iters):
    fit = lambda P: np.zeros(len(P))
    state = woa_init(fit, m=3, v_count=4, swarms=[(agents, 11)], max_iterations=iters)
    for _ in range(iters):
        woa_step(state, fit)
    _assert_tables_equal(state.coefficients, _generator_tables(agents, iters, 11)[0])
    with pytest.raises(IndexError):
        woa_step(state, fit)


@pytest.mark.parametrize("n", [1, 3, 100, 2**31 + 1, 2**32 - 1])
def test_bounded_matches_generator_integers(n):
    # interleaved random() / integers(n): the spare half of a word must
    # survive random() calls; near n = 2**31 about half the 32-bit draws
    # are rejected and redrawn
    redrawn = 0
    for seed in range(20):
        gen = np.random.Generator(np.random.PCG64(seed))
        words = np.random.PCG64(seed).random_raw(1500).tolist()
        at, spare = 0, None
        for k in np.random.default_rng(seed).integers(0, 3, 300).tolist():
            if k:
                had_spare = spare is not None
                before = at
                j, at, spare = _bounded(n, words, at, spare)
                assert j == gen.integers(n)
                redrawn += had_spare and at > before
            else:
                assert (words[at] >> 11) * 2.0**-53 == gen.random()
                at += 1
    assert (redrawn > 0) == (n == 2**31 + 1)


class _FixedThenPcg:
    """Bit-generator stand-in: the given words, then PCG64(seed)'s."""

    def __init__(self, words, seed):
        self._head = list(words)
        self._rest = np.random.PCG64(seed)

    def random_raw(self, count):
        head, self._head = self._head[:count], self._head[count:]
        return np.array(head + self._rest.random_raw(count - len(head)).tolist(), dtype=np.uint64)


def test_decode_reads_on_past_a_long_lemire_redraw():
    # with N = 3, Lemire's method rejects a zero 32-bit draw, so a run of
    # zero words after r = p = 0 keeps agent 0's first target draw going
    # well past the block drawn for two start words and two rows
    lead = np.random.PCG64(9).random_raw(2).tolist()
    head = [0] * 23
    words = head + np.random.PCG64(5).random_raw(30).tolist()
    bits = [_FixedThenPcg(lead + head, 5)] + [np.random.PCG64(seed) for seed in (1, 2)]
    pos, co = _decode(bits, 2, 4, 2, [3])
    assert pos[0].tolist() == [1.0 + 3.0 * ((w >> 11) * 2.0**-53) for w in lead]
    j, at, _ = _bounded(3, words, 3, None)
    assert at > 23
    assert co.target[0, 0] == j
    assert co.coef_c[1, 0] == 2.0 * ((words[at] >> 11) * 2.0**-53)
    assert co.spiral[1, 0] == ((words[at + 1] >> 11) * 2.0**-53 >= 0.5)
    for i, seed in ((1, 1), (2, 2)):
        gen = np.random.Generator(np.random.PCG64(seed))
        assert np.array_equal(pos[i], gen.uniform(1.0, 4.0, 2))
        r, p, _ = gen.random(3).tolist()
        assert co.coef_a[0, i] == 2.0 * 2.0 * r - 2.0
        drawn = p < 0.5 and abs(co.coef_a[0, i]) >= 1.0
        assert co.target[0, i] == (gen.integers(3) if drawn else 3)
        assert co.coef_c[1, i] == 2.0 * gen.random()


def test_stacked_decode_equals_each_swarms_lone_decode_past_a_lemire_redraw():
    # swarms of 1, 3 and 8 agents decoded in one pass; agent 0 of the
    # 3-agent swarm meets the zero-word run above, so every agent of the
    # batch reads on past its first block
    lead = np.random.PCG64(9).random_raw(2).tolist()

    def swarm_bits(k, size):
        bits = [np.random.PCG64(ss) for ss in np.random.SeedSequence(k).spawn(size)]
        if size == 3:
            bits[0] = _FixedThenPcg(lead + [0] * 23, 5)
        return bits

    sizes = [1, 3, 8]
    n, lo = sum(sizes), 0
    pos, co = _decode([b for k, size in enumerate(sizes) for b in swarm_bits(k, size)], 2, 4, 2, sizes)
    for s, size in enumerate(sizes):
        alone_pos, alone = _decode(swarm_bits(s, size), 2, 4, 2, [size])
        rows = slice(lo, lo + size)
        _assert_bits_equal(pos[rows], alone_pos, "positions")
        for name in ("coef_a", "coef_c", "spiral", "spiral_e", "spiral_c"):
            _assert_bits_equal(getattr(co, name)[:, rows], getattr(alone, name), name)
        # a drawn target is that agent's row in the stack; row n + s is swarm s's incumbent
        assert np.array_equal(co.target[:, rows], np.where(alone.target < size, alone.target + lo, n + s))
        lo += size
    assert co.target[0, 1] < n  # the redrawn agent's target


# ------------------------------------------------------------------- d-woa

def _dwoa_cfg(**kw):
    base = dict(agents=30, max_iterations=20, seed=9)
    base.update(kw)
    return DwoaConfig(**base)


def test_dwoa_trace_never_increases():
    for seed in range(5):
        s = desk_scenario(seed, uav_count=3, subtasks=5)
        run = dwoa_solve(s, alloc_equal(s), _dwoa_cfg(seed=seed))
        assert len(run.trace) == 20
        for a, b in zip(run.trace, run.trace[1:]):
            assert b <= a


def test_dwoa_same_seed_same_run():
    s = desk_scenario(4, uav_count=3, subtasks=6)
    beta = alloc_equal(s)
    r1 = dwoa_solve(s, beta, _dwoa_cfg())
    r2 = dwoa_solve(s, beta, _dwoa_cfg())
    assert r1.decision.x == r2.decision.x
    assert r1.objective_s == r2.objective_s
    assert r1.trace == r2.trace
    r3 = dwoa_solve(s, beta, _dwoa_cfg(seed=10))
    assert r3.trace != r1.trace


def test_dwoa_zero_iterations_is_best_of_initial_pool():
    s = desk_scenario(6, uav_count=3, subtasks=5)
    beta = alloc_equal(s)
    cfg = _dwoa_cfg(max_iterations=0, agents=25, seed=13)
    run = dwoa_solve(s, beta, cfg)
    assert run.trace == []

    ev = Evaluator(s, beta, cfg.penalty)
    state = woa_init(ev.fitness_many, ev.vector_length, len(s.uavs), [(25, 13)], 0)
    vec = decision_to_vector(s, run.decision)
    assert ev.fitness(vec) == pytest.approx(state.best_value[0], rel=1e-12)


def test_dwoa_beats_or_matches_initial_pool():
    s = desk_scenario(8, uav_count=3, subtasks=6)
    beta = alloc_equal(s)
    short = dwoa_solve(s, beta, _dwoa_cfg(max_iterations=0, seed=21))
    ev = Evaluator(s, beta, PenaltyConfig())
    state = woa_init(ev.fitness_many, ev.vector_length, len(s.uavs), [(30, 21)], 0)
    long = dwoa_solve(s, beta, _dwoa_cfg(max_iterations=30, seed=21))
    assert long.trace[-1] <= state.best_value[0] + 1e-12
    assert long.objective_s <= short.objective_s + 1e-12


def test_dwoa_config_validation():
    with pytest.raises(ValueError):
        DwoaConfig(agents=0)
    with pytest.raises(ValueError):
        DwoaConfig(max_iterations=-1)
    DwoaConfig(max_iterations=0)  # explicitly allowed


@pytest.mark.parametrize("kw", [
    dict(agents=2.5), dict(agents=True), dict(max_iterations=False), dict(seed=1.0),
    dict(seed=-1), dict(agents=2**32), dict(agents="4"), dict(penalty=None), dict(penalty="hard"),
])
def test_dwoa_config_rejects_bad_settings_at_construction(kw):
    with pytest.raises(ValueError):
        DwoaConfig(**kw)


@pytest.mark.parametrize("kw, problem", [
    (dict(agents=0), "agents must be >= 1, got 0"),
    (dict(agents=2**32), f"agents must be <= {2**32 - 1}, got {2**32}"),
    (dict(max_iterations=-1), "max_iterations must be >= 0, got -1"),
    (dict(seed=-1), "seed must be >= 0, got -1"),
    (dict(agents=2.5), "agents must be an integer, got 2.5"),
])
def test_swarm_counts_are_refused_with_the_spec_messages(kw, problem):
    with pytest.raises(ValueError) as info:
        DwoaConfig(**kw)
    assert str(info.value) == problem
    if "agents" in kw:
        # woa_init refuses the same agents before drawing a stream
        with pytest.raises(ValueError) as info:
            woa_init(lambda pop: np.zeros(len(pop)), 3, 2, [(kw["agents"], 0)], 1)
        assert str(info.value) == problem


def test_dwoa_config_stores_numpy_integers_as_plain_ints():
    cfg = DwoaConfig(agents=np.int64(3), max_iterations=np.int64(2), seed=np.int64(5))
    assert [type(x) for x in (cfg.agents, cfg.max_iterations, cfg.seed)] == [int, int, int]
    s = desk_scenario(2, uav_count=3, subtasks=4)
    run = dwoa_solve(s, alloc_equal(s), cfg)
    assert json.loads(run.to_json())["config"]["agents"] == 3
    plain = dwoa_solve(s, alloc_equal(s), DwoaConfig(agents=3, max_iterations=2, seed=5))
    assert (run.decision, run.trace) == (plain.decision, plain.trace)


# -------------------------------------------------------------- exhaustive

def test_exhaustive_is_true_minimum_small_space():
    s = hand_scenario()
    beta = BandwidthAllocation({(1, 1): 1.0, (2, 2): 1.0})
    run = exhaustive_solve(s, beta)
    objs = []
    for vec in itertools.product((1, 2), repeat=3):
        res = evaluate(OffloadDecision({1: vec}), beta, s)
        if res.feasible:
            objs.append(res.objective_s)
    assert run.objective_s == min(objs)
    assert run.feasible


def test_exhaustive_not_beaten_by_random_sampling():
    s = desk_scenario(12, uav_count=3, subtasks=5)
    beta = alloc_equal(s)
    run = exhaustive_solve(s, beta)
    rng = np.random.default_rng(0)
    for _ in range(100):
        res = evaluate(random_decision(s, rng), beta, s)
        if res.feasible:
            assert run.objective_s <= res.objective_s + 1e-12


def test_exhaustive_all_infeasible_raises():
    s = desk_scenario(1, uav_count=2, subtasks=3, budget_j=0.0)
    with pytest.raises(NoFeasibleDecisionError):
        exhaustive_solve(s, alloc_equal(s))


def test_exhaustive_cap_guard():
    s = desk_scenario(1, uav_count=3, subtasks=6)
    with pytest.raises(StateSpaceCapError):
        exhaustive_solve(s, alloc_equal(s), cap=100)


def _with_budget(s, budget_j):
    return dataclasses.replace(
        s, uavs=tuple(dataclasses.replace(v, energy_budget_j=budget_j) for v in s.uavs))


def _binding_budget(s):
    """A budget the unconstrained optimum misses: just under its largest
    per-UAV energy total (so that with one UAV nothing meets it)."""
    ev = Evaluator(s, alloc_equal(s))
    vec, _ = oracles.exhaustive_reference(ev)
    _, totals = ev._score_many([vec])
    return float(np.nextafter(totals.max(), 0.0))


def _agrees_with_reference(ev, cap=10**7):
    """exhaustive_search returns what oracles.exhaustive_reference does:
    the same vector, objective bits and feasibility, or the same error.
    Returns the error type, or None."""
    try:
        vec, obj = oracles.exhaustive_reference(ev, cap)
    except (NoFeasibleDecisionError, StateSpaceCapError) as e:
        with pytest.raises(type(e)):
            exhaustive_search(ev, cap)
        return type(e)
    run = exhaustive_search(ev, cap)
    assert decision_to_vector(ev.scenario, run.decision) == vec
    assert run.objective_s.hex() == obj.hex()
    assert run.feasible
    return None


# (V, M): below, equal to and above one block of the search (q * V**d
# rows), M below d, and V**(M - d) not a multiple of q
EXHAUSTIVE_SHAPES = [
    (1, 5), (2, 3), (2, 10), (2, 11), (3, 3), (3, 6), (3, 7),
    (4, 5), (4, 6), (6, 4), (9, 3), (9, 4), (33, 2),
]


@pytest.mark.parametrize("budget", ["loose", "binding", "none"])
@pytest.mark.parametrize("v_count,m", EXHAUSTIVE_SHAPES)
def test_exhaustive_search_matches_the_reference(v_count, m, budget):
    s = desk_scenario(v_count + m, uav_count=v_count, subtasks=m)
    if budget != "loose":
        s = _with_budget(s, 0.0 if budget == "none" else _binding_budget(s))
    ev = Evaluator(s, alloc_equal(s))
    # both branches of the search: loose budgets certify, the others not
    assert ev._certified is (budget == "loose")
    error = _agrees_with_reference(ev)
    none_left = budget == "none" or (budget == "binding" and v_count == 1)
    assert error is (NoFeasibleDecisionError if none_left else None)


@pytest.mark.parametrize("chunk", [2, 5, 7])
def test_exhaustive_search_matches_the_reference_at_any_block_size(monkeypatch, chunk):
    # chunk 2 < V: blocks of q runs of one decision (d = 0)
    monkeypatch.setattr(solvers, "EXHAUSTIVE_CHUNK", chunk)
    for budget in ("loose", "binding"):
        s = desk_scenario(3, uav_count=3, subtasks=5)
        if budget == "binding":
            s = _with_budget(s, _binding_budget(s))
        assert _agrees_with_reference(Evaluator(s, alloc_equal(s))) is None


def test_exhaustive_search_refuses_over_the_cap_as_the_reference_does():
    s = desk_scenario(3, uav_count=3, subtasks=5)
    ev = Evaluator(s, alloc_equal(s))
    assert _agrees_with_reference(ev, cap=3**5 - 1) is StateSpaceCapError
    assert _agrees_with_reference(ev, cap=3**5) is None


def _twin_uav_scenario(subtasks=7):
    """UAVs 2 and 3 mirror each other across the plane through UAV 1, the
    user and the base station, with equal compute: swapping them in a
    decision changes no bit of its objective or energy totals. Equal
    sub-tasks tie further decisions."""
    uavs = (
        UavNode(id=1, position_m=(0.0, 0.0, 50.0), max_compute_hz=1e9, energy_budget_j=1e9),
        UavNode(id=2, position_m=(200.0, 0.0, 50.0), max_compute_hz=3e9, energy_budget_j=1e9),
        UavNode(id=3, position_m=(-200.0, 0.0, 50.0), max_compute_hz=3e9, energy_budget_j=1e9),
    )
    users = (UserNode(id=1, position_m=(0.0, 10.0), associated_uav=1, active=True),)
    subs = [SubTask(index=0, input_size_bits=0.0, cycles_per_bit=0.0, is_dummy=True)]
    for j in range(1, subtasks + 1):
        preds = ((0, 0.0),) if j <= 2 else ((j - 2, 1e5), (j - 1, 1e5))
        subs.append(SubTask(index=j, input_size_bits=1e6, cycles_per_bit=1000.0,
                            predecessors=preds))
    return Scenario(physics=PhysicsConstants(), uavs=uavs, users=users,
                    tasks=(TaskGraph(owner_user=1, sub_tasks=tuple(subs)),),
                    bs_position_m=(0.0, 300.0, 0.0))


def test_exhaustive_search_keeps_the_first_of_tied_optima():
    s = _twin_uav_scenario()
    ev = Evaluator(s, alloc_equal(s))
    assert _agrees_with_reference(ev) is None
    scored = [(ev.objective_and_feasible(vec), vec)
              for vec in itertools.product((1, 2, 3), repeat=ev.vector_length)]
    best = min(obj for (obj, ok), _ in scored if ok)
    tied = [vec for (obj, ok), vec in scored if ok and obj == best]
    # the twins of the first winner lie in later blocks of 3**6 rows
    assert len({vec[0] for vec in tied}) > 1
    assert decision_to_vector(s, exhaustive_search(ev).decision) == tied[0]


def _counted_passes(monkeypatch):
    """Counts, per exhaustive pass, the rows scored objective first, the
    rows whose energy half ran, and the rows of each _Scratch built."""
    scored, finished, built = [], [], []
    objective_first = evaluator._Scoring._objective_first

    def counted(self, population):
        objective, energy = objective_first(self, population)
        scored.append(len(objective))

        def finish():
            finished.append(len(objective))
            return energy()
        return objective, finish

    class Scratch(evaluator._Scratch):
        def __init__(self, t, n):
            built.append(n)
            super().__init__(t, n)

    monkeypatch.setattr(evaluator._Scoring, "_objective_first", counted)
    monkeypatch.setattr(evaluator, "_Scratch", Scratch)
    return scored, finished, built


def test_exhaustive_energy_half_runs_only_on_blocks_that_can_improve(monkeypatch):
    scored, finished, built = _counted_passes(monkeypatch)
    s = desk_scenario(5, uav_count=3, subtasks=8)
    # a budget twice the optimum's largest total binds nowhere near the
    # optimum, but is too tight to certify: blocks are finished as needed
    ev = Evaluator(s, alloc_equal(s))
    _, totals = ev._score_many([oracles.exhaustive_reference(ev)[0]])
    tight = _with_budget(s, 2.0 * float(totals.max()))
    assert not Evaluator(tight, alloc_equal(tight))._certified
    del scored[:], finished[:], built[:]
    exhaustive_solve(tight, alloc_equal(tight))
    # 3**8 decisions in 9 blocks of 3**6, one scratch for all of them
    assert scored == [729] * 9
    assert built == [729]
    assert 0 < len(finished) < len(scored)
    # under the certified loose budget no energy half runs at all
    del scored[:], finished[:], built[:]
    assert Evaluator(s, alloc_equal(s))._certified
    exhaustive_solve(s, alloc_equal(s))
    assert scored == [729] * 9
    assert finished == []
    # with nothing feasible, every block may hold the first feasible row
    del scored[:], finished[:], built[:]
    with pytest.raises(NoFeasibleDecisionError):
        exhaustive_solve(_with_budget(s, 0.0), alloc_equal(s))
    assert finished == scored == [729] * 9
    # 6**4 decisions: blocks of 4 runs of 6**3, then a tail of 2
    del scored[:], finished[:], built[:]
    s = desk_scenario(5, uav_count=6, subtasks=4)
    exhaustive_solve(s, alloc_equal(s))
    assert scored == built == [864, 432]


def test_dwoa_close_to_exhaustive_on_desk_instance():
    s = desk_scenario(3, uav_count=3, subtasks=5)
    beta = alloc_equal(s)
    opt = exhaustive_solve(s, beta)
    run = dwoa_solve(s, beta, DwoaConfig(agents=50, max_iterations=40, seed=2))
    assert run.objective_s >= opt.objective_s - 1e-9
    assert run.objective_s <= 1.25 * opt.objective_s


# -------------------------------------------------------------- associated

def test_associated_decision_mapping():
    s = desk_scenario(5, uav_count=3, active=2)
    dec = associated_decision(s)
    for t in s.tasks:
        assoc = s.user_by_id(t.owner_user).associated_uav
        assert dec.x[t.owner_user] == tuple([assoc] * (len(t.sub_tasks) - 1))


def test_associated_never_beats_optimum():
    s = desk_scenario(7, uav_count=2, subtasks=4)
    beta = alloc_equal(s)
    opt = exhaustive_solve(s, beta)
    res = evaluate(associated_decision(s), beta, s)
    assert res.objective_s >= opt.objective_s - 1e-12


# -------------------------------------------------------------- allocators

def _flat_scenario(bits_by_user):
    """One UAV, co-located active users with single-subtask workloads."""
    ph = PhysicsConstants()
    uav = UavNode(id=1, position_m=(0.0, 0.0, 50.0), max_compute_hz=1e9,
                  energy_budget_j=1e9)
    users = []
    tasks = []
    for i, bits in enumerate(bits_by_user, start=1):
        users.append(UserNode(id=i, position_m=(10.0, 0.0), associated_uav=1,
                              active=True))
        sub = (
            SubTask(index=0, input_size_bits=0.0, cycles_per_bit=0.0,
                    predecessors=(), is_dummy=True),
            SubTask(index=1, input_size_bits=bits, cycles_per_bit=1000.0,
                    predecessors=((0, 0.0),)),
        )
        tasks.append(TaskGraph(owner_user=i, sub_tasks=sub))
    return Scenario(physics=ph, uavs=(uav,), users=tuple(users),
                    tasks=tuple(tasks), bs_position_m=(100.0, 100.0))


def test_alloc_equal_counts_inactive_users():
    s = desk_scenario(2, uav_count=1, active=1)
    s = dataclasses.replace(
        s,
        users=s.users + tuple(
            UserNode(id=90 + i, position_m=(5.0 * i, 3.0), associated_uav=1,
                     active=False)
            for i in range(4)
        ),
    )
    beta = alloc_equal(s)
    fracs = [beta.fraction(1, u.id) for u in s.users]
    assert all(f == pytest.approx(0.2, rel=1e-12) for f in fracs)
    assert math.fsum(fracs) == pytest.approx(1.0, rel=1e-12)


def test_alloc_proportional_golden():
    s = _flat_scenario([3e6, 1e6])
    beta = alloc_proportional(s)
    assert beta.fraction(1, 1) == pytest.approx(0.75, rel=1e-12)
    assert beta.fraction(1, 2) == pytest.approx(0.25, rel=1e-12)


def test_alloc_optimal_symmetric_split():
    s = _flat_scenario([2e6, 2e6])
    beta = alloc_optimal(s)
    assert beta.fraction(1, 1) == pytest.approx(0.5, abs=1e-12)
    assert beta.fraction(1, 2) == pytest.approx(0.5, abs=1e-12)


def test_alloc_optimal_sqrt_rule_golden():
    # co-located users with a 4:1 size ratio split 2:1 under the root rule
    s = _flat_scenario([4e6, 1e6])
    beta = alloc_optimal(s)
    assert beta.fraction(1, 1) == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert beta.fraction(1, 2) == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_alloc_optimal_matches_projected_gradient():
    for seed in range(6):
        s = generate_scenario(
            np.random.SeedSequence([seed, 5]),
            uav_count=2,
            users_per_uav=(2, 3),
            active_users=4,
            subtasks_per_task=3,
        )
        beta = alloc_optimal(s)
        for v in s.uavs:
            served = [u for u in s.users if u.associated_uav == v.id and u.active
                      and any(t.owner_user == u.id for t in s.tasks)]
            if len(served) < 2:
                continue
            weights = []
            for u in served:
                bits = math.fsum(
                    st.input_size_bits
                    for t in s.tasks if t.owner_user == u.id
                    for st in t.non_dummy()
                )
                weights.append(bits / user_uplink_rate(u, v, 1.0, s.physics))
            ref = oracles.pg_alloc(np.array(weights))
            got = np.array([beta.fraction(v.id, u.id) for u in served])
            assert np.allclose(got, ref, atol=1e-6)
            assert got.sum() <= 1.0 + 1e-9


def test_allocators_registry():
    assert set(ALLOCATORS) == {"equal", "proportional", "optimal"}
    s = _flat_scenario([1e6, 2e6])
    for fn in ALLOCATORS.values():
        beta = fn(s)
        assert beta.check(s) == []


# -------------------------------------------------------------- alternating

def test_alternating_improves_on_fixed_equal_allocation():
    s = desk_scenario(3, uav_count=3, subtasks=5, active=2)
    cfg = DwoaConfig(agents=30, max_iterations=15, seed=5)
    base = dwoa_solve(s, alloc_equal(s), cfg)
    run = alternating_solve(s, cfg)
    assert run.trace == sorted(run.trace, reverse=True)
    ev = Evaluator(s, run.beta, cfg.penalty)
    pen_alt = ev.fitness(decision_to_vector(s, run.decision))
    ev_base = Evaluator(s, base.beta, cfg.penalty)
    pen_base = ev_base.fitness(decision_to_vector(s, base.decision))
    assert pen_alt <= pen_base + 1e-12
    assert run.config["rounds"] >= 1


def test_alternating_beta_is_stationary():
    # the returned allocation is the closed-form split (which does not
    # depend on the decision) or the equal-split starting point
    s = desk_scenario(9, uav_count=2, subtasks=4, active=2)
    run = alternating_solve(s, DwoaConfig(agents=20, max_iterations=10, seed=3))
    opt = alloc_optimal(s)
    eq = alloc_equal(s)
    keys = set(run.beta.fractions) | set(opt.fractions) | set(eq.fractions)
    close_opt = all(
        abs(run.beta.fraction(*k) - opt.fraction(*k)) < 1e-9 for k in keys
    )
    close_eq = all(
        abs(run.beta.fraction(*k) - eq.fraction(*k)) < 1e-9 for k in keys
    )
    assert close_opt or close_eq


# SHA-256 of the sorted-key JSON of SolverRun.to_dict() without
# wall_time_s (decision, beta, objective, feasibility, trace, rounds),
# captured while the loop rebuilt its Evaluators and re-ran the
# closed-form allocator every round; a 1500 J budget binds on both
# scenarios (scenario 6 ends infeasible at 0 iterations and in hard mode)
ALTERNATING_GOLDENS = {
    (4, "penalty", 0, "cumulative"): "fe598ee7c98370a2e9a32f109e7a2e4bddc91b6bbcbf6e642954494fe4e7bb75",
    (4, "penalty", 0, "independent"): "c72733e0259429a78d9646db8531d984ac53c468d772b09f2a36c28f2c195d54",
    (4, "penalty", 6, "cumulative"): "6065560ff1d446b445f03c550a02c8a546c566a813454beef0aaf360f2fce3fe",
    (4, "penalty", 6, "independent"): "a3fef14fa0048abc154ff67f1fa36f751041a2d7ab290be0d891d351d37cbbc6",
    (4, "hard", 0, "cumulative"): "143eba82d1ea5969d0e050e171e0d5c20e809ae0f2f5299a0e27a524f8d04b49",
    (4, "hard", 0, "independent"): "4e61bcd66a644f4596848d7dc2ae465be8fc4d8039039e5c67726be088018910",
    (4, "hard", 6, "cumulative"): "a399865f9a5c43ebbb85a906cd8f1438e4a16a9f664acbe5f51e72940000353b",
    (4, "hard", 6, "independent"): "ca44f0f70e914779e19a760959e877d5e9bb7db119bc1a2e189179186f921f7c",
    (6, "penalty", 0, "cumulative"): "b04534b4d36f42fed596ce3631f2b8285a454b5b13cbfb4b28774daf7f13f900",
    (6, "penalty", 0, "independent"): "821ce41657d6bd89314cd9282cb7696debac3772732d2c3bcbe23987663fee74",
    (6, "penalty", 6, "cumulative"): "103e593822ce7aeb769fb00f2dd870a2b0c8ed77b518f830578b6aa0473857ea",
    (6, "penalty", 6, "independent"): "51235d57c112b3ea6c0447098b103486e0a71f7c97d2162980ecb42a8578aa1a",
    (6, "hard", 0, "cumulative"): "b27eba8b04ef8b18f8cdab9ac8434978368f9bd527b87662f3ff5d8a1b41a8cf",
    (6, "hard", 0, "independent"): "62e213dfce98d2f6e24a176d076139956210e5fa031cb63e36b42e6d7822ac3c",
    (6, "hard", 6, "cumulative"): "051a93f0cfe77d393cc398ca4b4fbb266767291042f2e0882d61afdc21b9c82d",
    (6, "hard", 6, "independent"): "5b7cc1b129f820e7e51aa13328fb159a30bcca96d6e9fdf540aa1788e2b743aa",
}


@pytest.mark.parametrize("scen_seed,mode,iters,upload", sorted(ALTERNATING_GOLDENS))
def test_alternating_fixed_seed_goldens(scen_seed, mode, iters, upload):
    s = desk_scenario(scen_seed, uav_count=3, subtasks=4, active=2, budget_j=1500.0)
    cfg = DwoaConfig(agents=8, max_iterations=iters, penalty=PenaltyConfig(mode=mode),
                     seed=7, upload_model=upload)
    run = alternating_solve(s, cfg)
    assert run_digest(run.to_dict()) == ALTERNATING_GOLDENS[(scen_seed, mode, iters, upload)]


@pytest.mark.parametrize("max_outer", [0, -1])
def test_alternating_rejects_fewer_than_one_round(max_outer):
    s = desk_scenario(3, uav_count=2, subtasks=3)
    with pytest.raises(ValueError, match="max_outer"):
        alternating_solve(s, DwoaConfig(agents=4, max_iterations=1, seed=1), max_outer=max_outer)


# ---------------------------------------------------------------- solverrun

def test_solver_run_json_round_trip():
    s = desk_scenario(2, uav_count=2, subtasks=3)
    run = dwoa_solve(s, alloc_equal(s), DwoaConfig(agents=10, max_iterations=5, seed=1))
    blob = run.to_json()
    back = SolverRun.from_dict(json.loads(blob))
    assert back.decision.x == run.decision.x
    assert back.objective_s == run.objective_s
    assert back.trace == run.trace
    assert back.beta.fractions == run.beta.fractions
    assert back.seed == run.seed
    # the schedule stays in memory only
    assert run.schedule is not None and back.schedule is None
    assert "schedule" not in run.to_dict()


@pytest.mark.parametrize("alloc", ["equal", "optimal"])
@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_every_solver_returns_its_decisions_schedule(name, alloc):
    # a 1500 J budget binds: dwoa, associated and alternating end
    # infeasible; under the equal split alternating returns the
    # closed-form split
    s = desk_scenario(6, uav_count=3, subtasks=4, active=2, budget_j=1500.0, users_per_uav=(1, 2))
    cfg = DwoaConfig(agents=6, max_iterations=3, seed=2, upload_model="independent")
    ev = Evaluator(s, ALLOCATORS[alloc](s), cfg.penalty, cfg.upload_model)
    run = SOLVERS[name](ev, cfg)
    ref = evaluate(run.decision, run.beta, s, cfg.penalty, cfg.upload_model)
    got = run.schedule
    assert (got.objective_s, got.feasible) == (ref.objective_s, ref.feasible)
    assert (run.objective_s, run.feasible) == (ref.objective_s, ref.feasible)
    assert got.energy.total_j == ref.energy.total_j
    assert got.task_upload_s == ref.task_upload_s


def test_alternating_search_round_zero_searches_the_evaluator():
    # two or three users per UAV: round 0 finds another decision under
    # some split than under the others
    s = desk_scenario(0, uav_count=3, subtasks=3, active=4, budget_j=1500.0, users_per_uav=(2, 3))
    cfg = DwoaConfig(agents=6, max_iterations=3, seed=2)
    seed_0 = int(np.random.SeedSequence(cfg.seed).spawn(1)[0].generate_state(1)[0])
    for alloc in ALLOCATORS.values():
        ev = Evaluator(s, alloc(s), cfg.penalty, cfg.upload_model)
        first = dwoa_search(ev, dataclasses.replace(cfg, seed=seed_0))
        assert alternating_search(ev, cfg, max_outer=1).decision == first.decision
    # alternating_solve is the search from the equal split
    ev = Evaluator(s, alloc_equal(s), cfg.penalty, cfg.upload_model)
    assert run_digest(alternating_search(ev, cfg).to_dict()) == run_digest(
        alternating_solve(s, cfg).to_dict()
    )
    with pytest.raises(ValueError, match="match"):
        alternating_search(Evaluator(s, alloc_equal(s), PenaltyConfig(mode="hard")), cfg)


# ------------------------------------------------------------------ goldens
# repr of (trace, decision vector, objective, feasible), captured with the
# per-agent scalar swarm loop and the one-decision-at-a-time exhaustive
# loop that the population kernel replaced; fixed seeds must keep them.

DWOA_GOLDENS = {
    (5, 5, "penalty"): "([20215.79039000688, 20215.79039000688, 20215.79039000688, 12882.403926745023, 12882.403926745023], (1, 1, 2, 2, 2, 1, 1, 2, 2, 1, 1, 2), 22.74634905002732, False)",
    (5, 5, "hard"): "([1e+18, 1e+18, 1e+18, 1e+18, 1e+18], (2, 2, 3, 2, 1, 2, 2, 2, 2, 3, 3, 1), 18.529211944282032, False)",
    (30, 20, "penalty"): "([16906.773440391808, 16906.773440391808, 17.262507390476987, 17.262507390476987, 17.262507390476987, 16.532126206781545, 16.532126206781545, 16.532126206781545, 16.532126206781545, 16.532126206781545, 16.532126206781545, 16.532126206781545, 16.532126206781545, 16.532126206781545, 16.532126206781545, 16.532126206781545, 16.532126206781545, 16.532126206781545, 16.532126206781545, 16.532126206781545], (2, 1, 2, 1, 1, 2, 3, 2, 1, 3, 2, 3), 16.532126206781545, True)",
    (30, 20, "hard"): "([1e+18, 1e+18, 1e+18, 1e+18, 1e+18, 1e+18, 17.290435159662767, 17.290435159662767, 17.290435159662767, 17.290435159662767, 17.290435159662767, 17.290435159662767, 17.290435159662767, 17.290435159662767, 17.290435159662767, 17.290435159662767, 17.290435159662767, 17.290435159662767, 17.290435159662767, 17.290435159662767], (2, 1, 3, 2, 1, 1, 1, 2, 2, 2, 3, 1), 17.290435159662767, True)",
}

EXHAUSTIVE_GOLDENS = {
    1e9: "([18.449176571644532], (3, 3, 1, 1, 3, 2, 2, 2), 18.449176571644532, True)",
    2300.0: "([19.867905795098075], (3, 3, 3, 1, 2, 1, 2, 2), 19.867905795098075, True)",
}


def _golden_repr(run, s):
    return repr((run.trace, decision_to_vector(s, run.decision), run.objective_s, run.feasible))


@pytest.mark.parametrize("agents,iters,mode", sorted(DWOA_GOLDENS))
def test_dwoa_fixed_seed_goldens(agents, iters, mode):
    # a 3000 J budget binds: the penalty is active and hard mode rejects
    s = desk_scenario(17, uav_count=3, subtasks=6, active=2, budget_j=3000.0)
    cfg = DwoaConfig(agents=agents, max_iterations=iters, seed=3,
                     penalty=PenaltyConfig(mode=mode))
    run = dwoa_solve(s, alloc_equal(s), cfg)
    assert _golden_repr(run, s) == DWOA_GOLDENS[(agents, iters, mode)]


@pytest.mark.parametrize("budget", sorted(EXHAUSTIVE_GOLDENS))
def test_exhaustive_goldens_over_3_pow_8(budget):
    s = desk_scenario(5, uav_count=3, subtasks=8, budget_j=budget)
    run = exhaustive_solve(s, alloc_equal(s))
    assert _golden_repr(run, s) == EXHAUSTIVE_GOLDENS[budget]


def test_searches_over_a_shared_evaluator_match_the_solvers():
    # one penalized Evaluator serves DWOA, the exhaustive search and the
    # result() of either, as a sweep cell group uses it
    s = desk_scenario(17, uav_count=3, subtasks=6, active=2, budget_j=3000.0)
    beta = alloc_equal(s)
    cfg = DwoaConfig(agents=10, max_iterations=5, seed=3)
    ev = Evaluator(s, beta, cfg.penalty, cfg.upload_model)
    for _ in range(2):
        run = dwoa_search(ev, cfg)
        assert _golden_repr(run, s) == _golden_repr(dwoa_solve(s, beta, cfg), s)
        assert run.config == dwoa_solve(s, beta, cfg).config
        opt = exhaustive_search(ev)
        ref = exhaustive_solve(s, beta)
        assert _golden_repr(opt, s) == _golden_repr(ref, s)
        assert opt.config == ref.config
    assert ev.result(run.decision) == evaluate(run.decision, beta, s, cfg.penalty)


def test_dwoa_search_rejects_a_config_the_evaluator_does_not_carry():
    s = desk_scenario(2, uav_count=3, subtasks=4)
    beta = alloc_equal(s)
    with pytest.raises(ValueError, match="match"):
        dwoa_search(Evaluator(s, beta, PenaltyConfig(mode="hard")), DwoaConfig())
    with pytest.raises(ValueError, match="match"):
        dwoa_search(Evaluator(s, beta, PenaltyConfig(), "independent"), DwoaConfig())


# ------------------------------------------------------------------ lockstep

def test_lockstep_batches_keep_every_search_as_it_runs_alone(monkeypatch):
    # swarms on two plans, under both penalty modes and two iteration
    # counts, with more rows than one pass takes: a batch holds the
    # swarms of one plan, mode and count, EXHAUSTIVE_CHUNK rows at most
    a = desk_scenario(5, uav_count=3, subtasks=4, active=2, budget_j=1800.0)
    b = desk_scenario(6, uav_count=2, subtasks=3, active=1, budget_j=1800.0)
    plan = _Plan(a)
    pen, strong, hard = PenaltyConfig(), PenaltyConfig(lambda_=3), PenaltyConfig(mode="hard")
    ev = {p: Evaluator(a, alloc_equal(a), p, _plan=plan) for p in (pen, strong, hard)}
    ev_b = Evaluator(b, alloc_equal(b), pen)
    searches = [
        (ev[pen], DwoaConfig(agents=600, max_iterations=2, seed=1), 11),
        (ev_b, DwoaConfig(agents=3, max_iterations=2, seed=2), 12),
        (ev[pen], DwoaConfig(agents=500, max_iterations=2, seed=3), 13),
        (ev[hard], DwoaConfig(agents=4, max_iterations=2, penalty=hard, seed=4), 14),
        (ev[pen], DwoaConfig(agents=1, max_iterations=3, seed=5), 15),
        (ev[strong], DwoaConfig(agents=2, max_iterations=2, penalty=strong, seed=6), 16),
    ]
    passes = []  # (scorer, rows) of every pass: a lone swarm's own Evaluator
    score = evaluator._Scoring.fitness_many
    monkeypatch.setattr(evaluator._Scoring, "fitness_many",
                        lambda st, P: passes.append((type(st).__name__, len(P))) or score(st, P))
    found = _lockstep(searches)
    alone = {600: "Evaluator", 3: "Evaluator", 502: "_Stack", 4: "Evaluator", 1: "Evaluator"}
    assert [n for _, n in passes] == [600] * 3 + [3] * 3 + [502] * 3 + [4] * 3 + [1] * 4
    assert all(alone[n] == scorer for scorer, n in passes)
    assert max(n for _, n in passes) <= EXHAUSTIVE_CHUNK
    assert found == [searched_alone(e, cfg, seed) for e, cfg, seed in searches]


def test_a_lockstep_batch_decodes_once_and_moves_once_per_iteration(monkeypatch):
    s = desk_scenario(5, uav_count=3, subtasks=4, active=2, budget_j=1800.0)
    plan = _Plan(s)
    evs = [Evaluator(s, alloc(s), PenaltyConfig(), _plan=plan) for alloc in (alloc_equal, alloc_optimal)]
    searches = [(ev, DwoaConfig(agents=agents, max_iterations=3), seed)
                for ev in evs for agents, seed in ((2, 1), (5, 2))]
    alone = [searched_alone(ev, cfg, seed) for ev, cfg, seed in searches]
    calls = []
    for name in ("_decode", "_moved_positions"):
        fn = getattr(solvers, name)
        monkeypatch.setattr(solvers, name, lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
    assert _lockstep(searches) == alone
    assert calls == ["_decode"] + ["_moved_positions"] * 3


def test_tell_gives_each_swarm_its_first_strict_minimum():
    # NaN never wins, ties go to the first row, an all-NaN swarm starts
    # at its first row at +inf, and a step replaces an incumbent only on
    # strict improvement
    nan, inf = math.nan, math.inf
    start = lambda P: np.array([5.0, nan, 5.0, nan, inf, 2.0, 2.0, nan, nan])
    state = woa_init(start, 2, 4, [(3, 1), (4, 2), (2, 3)], 1)
    assert state.best_value.tolist() == [5.0, 2.0, inf] and state.iteration == 0
    assert np.array_equal(state.best_position, state.positions[[0, 5, 7]])
    kept = state.best_position[1].copy()
    woa_step(state, lambda P: np.array([5.0, 4.0, 4.0, 2.0, 2.0, 2.0, nan, inf, -1.0]))
    assert state.best_value.tolist() == [4.0, 2.0, -1.0] and state.iteration == 1
    # swarms 0 and 2 take their moved rows; swarm 1's tie keeps its incumbent
    assert np.array_equal(state.best_position, [state.positions[1], kept, state.positions[8]])


def test_a_batch_incumbent_is_its_returned_decision():
    # swarms of three sizes under every allocator and penalty on one
    # plan, batched by mode: each run's trace never rises and ends at
    # the fitness of the decision it returns
    s = desk_scenario(5, uav_count=3, subtasks=4, active=2, budget_j=1800.0)
    plan = _Plan(s)
    searches = []
    for penalty in (PenaltyConfig(lambda_=0.1), PenaltyConfig(lambda_=2), PenaltyConfig(mode="hard")):
        for alloc in ALLOCATORS.values():
            ev = Evaluator(s, alloc(s), penalty, _plan=plan)
            searches += [(ev, DwoaConfig(agents=agents, max_iterations=6, penalty=penalty, seed=seed))
                         for agents in (1, 4, 9) for seed in range(6)]
    runs = _dwoa_runs(searches)
    assert len(runs) == 162
    for (ev, _), run in zip(searches, runs):
        assert all(b <= a for a, b in zip(run.trace, run.trace[1:]))
        assert run.trace[-1] == ev.fitness(decision_to_vector(s, run.decision))


def test_lockstep_hard_mode_reads_no_lambda():
    # hard mode never reads lambda, so a hard config without one is valid;
    # alone and stacked, its searches run as the public steps run them
    s = desk_scenario(5, uav_count=3, subtasks=4, active=2, budget_j=1800.0)
    hard = PenaltyConfig(lambda_=None, mode="hard")
    plan = _Plan(s)
    evs = [Evaluator(s, alloc(s), hard, _plan=plan) for alloc in (alloc_equal, alloc_optimal)]
    cfg = DwoaConfig(agents=5, max_iterations=4, penalty=hard)
    lone = dwoa_search(evs[0], cfg)
    assert (decision_to_vector(s, lone.decision), lone.trace) == searched_alone(evs[0], cfg)
    assert lone.feasible and lone.objective_s == evs[0].result(lone.decision).objective_s
    searches = [(ev, cfg, seed) for ev in evs for seed in (1, 2)]
    assert _lockstep(searches) == [searched_alone(ev, cfg, seed) for ev, cfg, seed in searches]

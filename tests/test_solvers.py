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
from uavmec.solvers import dwoa_search, exhaustive_search
from uavmec.scenario import (
    PhysicsConstants,
    Scenario,
    SubTask,
    TaskGraph,
    UavNode,
    UserNode,
)
from uavmec.evaluator import decision_to_vector
from uavmec.solvers import discretize, discretize_population, discretize_slot

import oracles
from conftest import desk_scenario, hand_scenario, random_decision


# ---------------------------------------------------------------- discretize

def test_discretize_slot_goldens():
    assert discretize_slot(2.4, 4) == 2
    assert discretize_slot(0.3, 4) == 1  # clamped from below
    assert discretize_slot(4.9, 4) == 4  # clamped from above
    assert discretize_slot(1.5, 4) == 1  # ties round down
    assert discretize_slot(2.5, 4) == 2
    assert discretize_slot(3.5001, 4) == 4
    assert discretize_slot(1.0, 4) == 1
    assert discretize_slot(4.0, 4) == 4


def test_discretize_population_matches_slot_goldens():
    xs = np.array([[2.4, 0.3, 4.9, 1.5], [2.5, 3.5001, 1.0, 4.0]])
    assert discretize_population(xs, 4).tolist() == [[2, 1, 4, 1], [2, 4, 1, 4]]
    grid = np.linspace(0.0, 8.0, 4001).reshape(1, -1)
    for v in (2, 3, 7):
        assert discretize_population(grid, v)[0].tolist() == [
            discretize_slot(float(x), v) for x in grid[0]
        ]


def test_discretize_vector_and_decision():
    assert discretize_vector((1.2, 3.8, 2.5), 4) == (1, 4, 2)
    s = hand_scenario()
    dec = discretize((1.6, 1.2, 2.0), s)
    assert isinstance(dec, OffloadDecision)
    assert dec.x == {1: (2, 1, 2)}


def test_discretize_covers_all_slots_uniformly():
    # every integer slot owns a unit-width window of the continuous axis
    for v in (2, 3, 4, 7):
        xs = np.linspace(1.0, v, 2000)
        slots = [discretize_slot(float(x), v) for x in xs]
        assert set(slots) == set(range(1, v + 1))
        assert slots == sorted(slots)


# ------------------------------------------------------------ woa mechanics

class ScriptedRng:
    """Stand-in generator yielding scripted draws for one whale step."""

    def __init__(self, r, p, l=0.0, j=0):
        self._draws = [r, p]
        self._l = l
        self._j = j

    def random(self):
        return self._draws.pop(0)

    def uniform(self, lo, hi):
        return self._l

    def integers(self, n):
        return self._j


def _state(positions, best, v_count, rngs, best_value=5.0):
    pos = np.array(positions, dtype=float)
    return WoaState(
        positions=pos,
        best_position=np.array(best, dtype=float),
        best_value=best_value,
        iteration=0,
        max_iterations=10,
        a=2.0,
        v_count=v_count,
        rngs=rngs,
    )


def test_step_encircle_with_zero_coefficient_lands_on_best():
    # r = 0.5 makes A = 0, so the encircling move collapses onto X*
    st = _state([[3.0, 1.0, 2.0]], [2.0, 4.0, 1.5], 4, [ScriptedRng(0.5, 0.4)])
    woa_step(st, lambda P: np.full(len(P), 100.0))
    assert np.allclose(st.positions[0], [2.0, 4.0, 1.5])
    assert st.best_value == 5.0  # worse fitness must not replace the incumbent
    assert st.iteration == 1
    assert st.a == pytest.approx(2.0 * (1 - 1 / 10))


def test_step_spiral_from_best_stays_at_best():
    st = _state([[2.0, 3.0]], [2.0, 3.0], 4, [ScriptedRng(0.3, 0.9, l=0.37)])
    woa_step(st, lambda P: np.full(len(P), 100.0))
    assert np.allclose(st.positions[0], [2.0, 3.0])


def test_step_spiral_zero_angle_adds_distance():
    # l = 0 gives X* + |X* - X| elementwise, then the clamp bites
    st = _state([[1.0, 1.0]], [3.0, 2.5], 4, [ScriptedRng(0.3, 0.9, l=0.0)])
    woa_step(st, lambda P: np.full(len(P), 100.0))
    assert np.allclose(st.positions[0], [4.0, 4.0])  # 5.0 clamped to V, 4.0 kept


def test_step_search_branch_uses_snapshot_of_neighbor():
    # agent 0 teleports onto X*; agent 1 must still see agent 0's OLD spot
    old0 = [3.0, 1.0]
    best = [2.0, 4.0]
    rng0 = ScriptedRng(0.5, 0.4)            # A=0 encircle -> moves to best
    rng1 = ScriptedRng(1.0, 0.4, j=0)       # A=2, C=2 -> random search vs agent 0
    st = _state([old0, [1.5, 2.0]], best, 4, [rng0, rng1])
    woa_step(st, lambda P: np.full(len(P), 100.0))
    d = np.abs(2.0 * np.array(old0) - np.array([1.5, 2.0]))
    expected = np.clip(np.array(old0) - 2.0 * d, 1.0, 4.0)
    assert np.allclose(st.positions[1], expected)
    assert np.allclose(st.positions[0], best)


def test_step_incumbent_updates_only_on_strict_improvement():
    st = _state([[3.0, 3.0]], [2.0, 2.0], 4, [ScriptedRng(0.5, 0.4)], best_value=7.0)
    woa_step(st, lambda P: np.full(len(P), 7.0))  # tie: keep the old best position
    assert st.best_value == 7.0
    assert np.allclose(st.best_position, [2.0, 2.0])

    st2 = _state([[3.0, 3.0]], [2.0, 2.0], 4, [ScriptedRng(0.5, 0.4)], best_value=7.0)
    woa_step(st2, lambda P: np.full(len(P), 6.5))
    assert st2.best_value == 6.5


def test_step_positions_stay_in_box():
    fit = lambda P: P.sum(axis=1).astype(float)
    state = woa_init(fit, m=6, v_count=4, agents=12, max_iterations=8, seed=3)
    for _ in range(8):
        woa_step(state, fit)
        assert np.all(state.positions >= 1.0)
        assert np.all(state.positions <= 4.0)


def test_woa_population_prefix_is_seed_stable():
    fit = lambda P: P.sum(axis=1).astype(float)
    small = woa_init(fit, m=5, v_count=4, agents=10, max_iterations=5, seed=42)
    large = woa_init(fit, m=5, v_count=4, agents=40, max_iterations=5, seed=42)
    assert np.array_equal(small.positions, large.positions[:10])
    assert large.best_value <= small.best_value


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
    state = woa_init(ev.fitness_many, ev.vector_length, len(s.uavs), 25, 0, 13)
    vec = decision_to_vector(s, run.decision)
    assert ev.fitness(vec) == pytest.approx(state.best_value, rel=1e-12)


def test_dwoa_beats_or_matches_initial_pool():
    s = desk_scenario(8, uav_count=3, subtasks=6)
    beta = alloc_equal(s)
    short = dwoa_solve(s, beta, _dwoa_cfg(max_iterations=0, seed=21))
    ev = Evaluator(s, beta, PenaltyConfig())
    state = woa_init(ev.fitness_many, ev.vector_length, len(s.uavs), 30, 0, 21)
    long = dwoa_solve(s, beta, _dwoa_cfg(max_iterations=30, seed=21))
    assert long.trace[-1] <= state.best_value + 1e-12
    assert long.objective_s <= short.objective_s + 1e-12


def test_dwoa_config_validation():
    with pytest.raises(ValueError):
        DwoaConfig(agents=0)
    with pytest.raises(ValueError):
        DwoaConfig(max_iterations=-1)
    DwoaConfig(max_iterations=0)  # explicitly allowed


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
    # at convergence the returned allocation is the optimal response
    # to the returned decision (or the equal-split starting point)
    s = desk_scenario(9, uav_count=2, subtasks=4, active=2)
    run = alternating_solve(s, DwoaConfig(agents=20, max_iterations=10, seed=3))
    opt = alloc_optimal(s, run.decision)
    eq = alloc_equal(s)
    keys = set(run.beta.fractions) | set(opt.fractions) | set(eq.fractions)
    close_opt = all(
        abs(run.beta.fraction(*k) - opt.fraction(*k)) < 1e-9 for k in keys
    )
    close_eq = all(
        abs(run.beta.fraction(*k) - eq.fraction(*k)) < 1e-9 for k in keys
    )
    assert close_opt or close_eq


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

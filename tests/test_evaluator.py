import math
import tracemalloc

import numpy as np
import pytest

import dataclasses

from uavmec import (
    HARD_REJECT,
    BandwidthAllocation,
    DwoaConfig,
    Evaluator,
    OffloadDecision,
    PenaltyConfig,
    SubTask,
    TaskGraph,
    alloc_equal,
    alloc_optimal,
    alloc_proportional,
    associated_decision,
    decision_latency_breakdown,
    dwoa_solve,
    evaluate,
    exhaustive_solve,
    generate_scenario,
    schedule_to_csv,
    validate_scenario,
    with_unlimited_energy,
)
from uavmec.evaluator import (
    _Plan,
    _Stack,
    decision_from_vector,
    decision_order,
    decision_to_vector,
)
from uavmec.scenario import topological_order

import oracles
from conftest import desk_scenario, hand_scenario, random_decision

ABS = 1e-9


def _instances():
    rng = np.random.default_rng(20240817)
    cases = []
    for seed in range(20):
        s = desk_scenario(
            seed,
            uav_count=2 + seed % 3,
            subtasks=3 + seed % 4,
            active=1 + seed % 2,
        )
        cases.append((s, random_decision(s, rng)))
    relabelled = _relabelled_scenario()
    cases.extend((relabelled, random_decision(relabelled, rng)) for _ in range(5))
    return cases


@pytest.mark.parametrize("upload_model", ["cumulative", "independent"])
def test_schedule_matches_event_oracle(upload_model):
    for s, dec in _instances():
        beta = alloc_equal(s)
        res = evaluate(dec, beta, s, upload_model=upload_model)
        at, rt, st, ft, obj = oracles.event_schedule(s, dec, beta, upload_model)
        for key in at:
            assert res.arrival_s[key] == pytest.approx(at[key], abs=ABS)
            assert res.ready_s[key] == pytest.approx(rt[key], abs=ABS)
            assert res.start_s[key] == pytest.approx(st[key], abs=ABS)
            assert res.finish_s[key] == pytest.approx(ft[key], abs=ABS)
        assert res.objective_s == pytest.approx(obj, abs=ABS)


ENERGY_FIELDS = ("exec_j", "forward_j", "report_j", "hover_time_s", "hover_j", "total_j")


@pytest.mark.parametrize("upload_model", ["cumulative", "independent"])
def test_energy_matches_energy_oracle(upload_model):
    rng = np.random.default_rng(31)
    # several users per UAV share a hover span and a forwarding bill
    crowded = [
        desk_scenario(seed, uav_count=3, subtasks=5, active=4, users_per_uav=(2, 3))
        for seed in range(6)
    ]
    for s in [s for s, _dec in _instances()] + crowded:
        for beta in (alloc_equal(s), alloc_optimal(s)):
            for _ in range(3):
                dec = random_decision(s, rng)
                energy = evaluate(dec, beta, s, upload_model=upload_model).energy
                ref = oracles.energy_reference(s, dec, beta)
                for v in s.uavs:
                    for name in ENERGY_FIELDS:
                        got = getattr(energy, name)[v.id]
                        assert got == pytest.approx(ref[v.id][name], rel=1e-12, abs=0.0), (v.id, name)


def test_start_equals_ready():
    for s, dec in _instances()[:5]:
        res = evaluate(dec, alloc_equal(s), s)
        for key, st_v in res.start_s.items():
            assert st_v == res.ready_s[key]


def test_decision_order_is_sorted():
    s = desk_scenario(3, uav_count=3, active=2)
    order = decision_order(s)
    users = [u for u, _j in order]
    assert users == sorted(users)
    for uid in set(users):
        subs = [j for u, j in order if u == uid]
        assert subs == sorted(subs)
        assert 0 not in subs


def test_decision_vector_round_trip():
    s = desk_scenario(5, uav_count=3, active=2)
    rng = np.random.default_rng(1)
    for _ in range(10):
        dec = random_decision(s, rng)
        vec = decision_to_vector(s, dec)
        assert len(vec) == len(decision_order(s))
        back = decision_from_vector(s, vec)
        assert back.x == dec.x
        assert decision_to_vector(s, back) == vec


def test_decision_order_follows_index_not_listing_order():
    # the same scenario with every task's sub-tasks listed in reverse
    s = generate_scenario(3, uav_count=3, active_users=2, subtasks_per_task=4)
    rev = dataclasses.replace(s, tasks=tuple(
        dataclasses.replace(t, sub_tasks=t.sub_tasks[:1] + t.sub_tasks[:0:-1]) for t in s.tasks
    ))
    assert validate_scenario(rev) == []
    assert decision_order(rev) == decision_order(s)
    ev = Evaluator(rev, alloc_equal(rev))
    rng = np.random.default_rng(0)
    for _ in range(5):
        vec = tuple(rng.integers(1, 4, ev.vector_length).tolist())
        back = decision_to_vector(rev, decision_from_vector(rev, vec))
        assert back == vec
        assert ev.fitness(back) == ev.fitness(vec)


def test_decision_vector_slot_mapping():
    # slot k maps to the k-th smallest UAV id, one-based
    s = hand_scenario()
    dec = decision_from_vector(s, (1, 2, 1))
    assert dec.x == {1: (1, 2, 1)}
    assert decision_from_vector(s, np.array([1, 2, 1])).x == {1: (1, 2, 1)}
    with pytest.raises(ValueError, match="outside"):
        decision_from_vector(s, (0, 1, 1))
    # 1.7 is not read as slot 1, nor 2.0 as slot 2
    for bad in ([1.7] * 3, (1, 2.0, 1), (1, np.float64(2.0), 1), (True, 1, 1)):
        with pytest.raises(ValueError, match="not an integer"):
            decision_from_vector(s, bad)
    with pytest.raises(ValueError, match="length"):
        decision_from_vector(s, (1, 1))


def test_fitness_matches_penalized_result():
    rng = np.random.default_rng(7)
    pen = PenaltyConfig(lambda_=0.1)
    s = desk_scenario(11, uav_count=3, subtasks=5, active=2, budget_j=20.0)
    beta = alloc_equal(s)
    ev = Evaluator(s, beta, penalty=pen)
    for _ in range(25):
        dec = random_decision(s, rng)
        vec = decision_to_vector(s, dec)
        res = evaluate(dec, beta, s, penalty=pen)
        assert ev.fitness(vec) == pytest.approx(res.penalized_s, rel=1e-12)


def test_result_scores_the_vector_a_decision_came_from():
    # entry j-1 of a decision belongs to sub-task j even when a task lists
    # its sub-tasks out of index order (validate_scenario allows that)
    s = desk_scenario(3, uav_count=3, subtasks=4, active=2)
    s = dataclasses.replace(s, tasks=tuple(
        dataclasses.replace(t, sub_tasks=t.sub_tasks[:1] + t.sub_tasks[:0:-1]) for t in s.tasks
    ))
    ev = Evaluator(s, alloc_equal(s))
    rng = np.random.default_rng(1)
    for _ in range(5):
        vec = [int(k) for k in rng.integers(1, 4, ev.vector_length)]
        assert ev.result(decision_from_vector(s, vec)).objective_s == ev.fitness(vec)


def test_penalty_arithmetic():
    s = desk_scenario(2, uav_count=2, subtasks=4, budget_j=10.0)
    dec = random_decision(s, np.random.default_rng(0))
    beta = alloc_equal(s)
    pen = PenaltyConfig(lambda_=0.25)
    res = evaluate(dec, beta, s, penalty=pen)
    budgets = {v.id: v.energy_budget_j for v in s.uavs}
    over_sq = math.fsum(
        (tot - budgets[v]) ** 2
        for v, tot in res.energy.total_j.items()
        if tot > budgets[v]
    )
    assert over_sq > 0.0  # the tight budget must actually bite
    assert not res.feasible
    assert res.penalized_s == pytest.approx(res.objective_s + 0.25 * over_sq, rel=1e-12)


def test_penalty_vanishes_when_feasible():
    s = desk_scenario(2, uav_count=2, subtasks=4, budget_j=1e9)
    dec = random_decision(s, np.random.default_rng(0))
    res = evaluate(dec, alloc_equal(s), s, penalty=PenaltyConfig(lambda_=0.5))
    assert res.feasible
    assert res.penalized_s == res.objective_s


def test_hard_mode_rejects_violations():
    s = desk_scenario(2, uav_count=2, subtasks=4, budget_j=10.0)
    dec = random_decision(s, np.random.default_rng(0))
    hard = PenaltyConfig(mode="hard")
    res = evaluate(dec, alloc_equal(s), s, penalty=hard)
    assert not res.feasible
    assert res.penalized_s == HARD_REJECT

    roomy = desk_scenario(2, uav_count=2, subtasks=4, budget_j=1e9)
    res2 = evaluate(dec, alloc_equal(roomy), roomy, penalty=hard)
    assert res2.feasible
    assert res2.penalized_s == res2.objective_s


def test_penalty_config_validation():
    with pytest.raises(ValueError, match="mode"):
        PenaltyConfig(mode="soft")
    with pytest.raises(ValueError, match="lambda"):
        PenaltyConfig(lambda_=0.0)


@pytest.mark.parametrize("lam", [0, -1.0, math.nan, math.inf, -math.inf, "0.1", 10**400],
                         ids=["zero", "negative", "nan", "inf", "minus-inf", "string", "past-float-range"])
def test_penalty_mode_takes_a_finite_positive_number_only(lam):
    # a NaN or infinite lambda would turn every over-budget fitness into
    # NaN or inf; hard mode reads no lambda
    with pytest.raises(ValueError, match=f"lambda must be a finite number > 0 in penalty mode, got {lam!r}"):
        PenaltyConfig(lambda_=lam)
    assert PenaltyConfig(lambda_=lam, mode="hard").mode == "hard"


def test_independent_uploads_arrive_no_later():
    s = desk_scenario(9, uav_count=3, subtasks=6)
    dec = random_decision(s, np.random.default_rng(3))
    beta = alloc_equal(s)
    cum = evaluate(dec, beta, s, upload_model="cumulative")
    ind = evaluate(dec, beta, s, upload_model="independent")
    later = 0
    for key, at_c in cum.arrival_s.items():
        assert ind.arrival_s[key] <= at_c + ABS
        if ind.arrival_s[key] < at_c - ABS:
            later += 1
    assert later > 0  # queueing must actually delay something
    assert ind.objective_s <= cum.objective_s + ABS


def test_unknown_upload_model_rejected():
    s = hand_scenario()
    with pytest.raises(ValueError, match="upload model"):
        evaluate(OffloadDecision({1: (1, 1, 1)}), alloc_equal(s), s, upload_model="basic")


def test_breakdown_sums_and_associated_has_no_forwarding():
    s = desk_scenario(4, uav_count=3, subtasks=5, active=2)
    dec = random_decision(s, np.random.default_rng(5))
    res = evaluate(dec, alloc_equal(s), s)
    parts = decision_latency_breakdown(res)
    assert parts["total"] == pytest.approx(res.objective_s, rel=1e-12)
    assert parts["computation"] + parts["distributed"] == pytest.approx(
        parts["total"], rel=1e-12
    )

    stay = OffloadDecision(
        {t.owner_user: tuple([s.user_by_id(t.owner_user).associated_uav] * (len(t.sub_tasks) - 1)) for t in s.tasks}
    )
    res2 = evaluate(stay, alloc_equal(s), s)
    assert decision_latency_breakdown(res2)["distributed"] == 0.0


def test_objective_averages_user_terms():
    s = desk_scenario(6, uav_count=2, subtasks=4, active=2)
    dec = random_decision(s, np.random.default_rng(8))
    res = evaluate(dec, alloc_equal(s), s)
    terms = [
        res.makespan_s[u] + res.task_upload_s[u] for u in res.makespan_s
    ]
    assert res.objective_s == pytest.approx(math.fsum(terms) / len(terms), rel=1e-12)


def test_schedule_csv_shape():
    s = hand_scenario()
    res = evaluate(OffloadDecision({1: (1, 2, 1)}), alloc_equal(s), s)
    text = schedule_to_csv(res)
    lines = text.strip().split("\n")
    assert lines[0] == "task,subtask,uav,AT,RT,ST,FT"
    assert len(lines) == 1 + len(res.start_s)
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "0"
    # float cells survive a text round trip bit-exactly
    for cell in lines[2].split(",")[3:]:
        assert float(cell) == float(repr(float(cell)))


def test_validate_flags_bad_decision():
    s = hand_scenario()
    missing = OffloadDecision({})
    assert missing.validate(s)
    wrong_uav = OffloadDecision({1: (1, 9, 1)})
    assert wrong_uav.validate(s)
    short = OffloadDecision({1: (1, 1)})
    assert short.validate(s)
    with pytest.raises(ValueError):
        evaluate(wrong_uav, alloc_equal(s), s)


def test_zero_rate_link_rejected():
    s = hand_scenario()
    with pytest.raises(ValueError, match="zero uplink rate"):
        evaluate(OffloadDecision({1: (1, 1, 1)}), BandwidthAllocation({}), s)


def test_no_active_users_rejected():
    # no task and no active user: valid, but there is nothing to score
    s = dataclasses.replace(hand_scenario(), tasks=())
    s = dataclasses.replace(s, users=tuple(dataclasses.replace(u, active=False) for u in s.users))
    assert validate_scenario(s) == []
    with pytest.raises(ValueError, match="scenario has no active users"):
        Evaluator(s, alloc_equal(s))
    # an active user left without a task is a fault of the scenario
    s = dataclasses.replace(hand_scenario(), tasks=())
    with pytest.raises(ValueError, match=r"active users without a task: \[1\]"):
        Evaluator(s, alloc_equal(s))


def _spoiled_uav(s, **changes):
    return dataclasses.replace(s, uavs=(dataclasses.replace(s.uavs[0], **changes),) + s.uavs[1:])


def _spoiled_first_task(s, **changes):
    return dataclasses.replace(s, tasks=(dataclasses.replace(s.tasks[0], **changes),) + s.tasks[1:])


def _spoiled_subtask(s, **changes):
    first = s.tasks[0]
    return _spoiled_first_task(s, sub_tasks=tuple(
        dataclasses.replace(st, **changes) if st.index == 2 else st for st in first.sub_tasks
    ))


# scenarios validate_scenario rejects, none of which a scorer may take
SPOILED = {
    "nan-uav-x": lambda s: _spoiled_uav(s, position_m=(math.nan, *s.uavs[0].position_m[1:])),
    "inf-release": lambda s: _spoiled_first_task(s, release_time_s=math.inf),
    "negative-cycles": lambda s: _spoiled_subtask(s, cycles_per_bit=-1000.0),
    "negative-payload": lambda s: _spoiled_subtask(s, predecessors=((1, -5.0),)),
    "nan-budget": lambda s: _spoiled_uav(s, energy_budget_j=math.nan),
}


@pytest.mark.parametrize("spoil", sorted(SPOILED))
def test_invalid_scenario_is_rejected_with_the_validators_message(spoil):
    s = SPOILED[spoil](desk_scenario(17, uav_count=3, subtasks=6, active=2))
    problems = validate_scenario(s)
    assert problems
    message = "invalid scenario: " + "; ".join(problems)
    beta = alloc_equal(s)
    for build in (
        lambda: Evaluator(s, beta, PenaltyConfig()),
        lambda: evaluate(associated_decision(s), beta, s),
        lambda: dwoa_solve(s, beta, DwoaConfig(agents=5, max_iterations=2)),
        lambda: exhaustive_solve(s, beta),
    ):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message


def test_evaluators_on_one_plan_score_as_if_each_built_its_own():
    s = desk_scenario(17, uav_count=3, subtasks=6, active=2, budget_j=3000.0)
    first = Evaluator(s, alloc_equal(s), PenaltyConfig())
    P = np.random.default_rng(5).integers(1, 4, size=(5, first.vector_length))
    for scen, beta, penalty, upload_model in (
        (s, alloc_optimal(s), PenaltyConfig(mode="hard"), "cumulative"),
        (with_unlimited_energy(s), alloc_equal(s), PenaltyConfig(), "independent"),
    ):
        shared = Evaluator(scen, beta, penalty, upload_model, _plan=first._plan)
        own = Evaluator(scen, beta, penalty, upload_model)
        assert shared._plan is first._plan
        for ev in (shared, own):
            assert ev._budget.tolist() == [v.energy_budget_j for v in scen.uavs]
        assert shared.fitness_many(P).tolist() == own.fitness_many(P).tolist()
        assert [shared.fitness(row) for row in P[:2].tolist()] == [
            own.fitness(row) for row in P[:2].tolist()]
        dec = decision_from_vector(s, P[0].tolist())
        assert shared.result(dec) == own.result(dec)


def test_evaluators_sharing_a_plan_never_read_each_others_scratch():
    # a sweep input's six Evaluators, 3 splits x 2 energy modes, share
    # one plan and so one scratch; called in turn as N changes, each row
    # must still score as on an Evaluator alone and as in _core
    s = desk_scenario(8, uav_count=2, subtasks=7, active=3, budget_j=2500.0,
                      users_per_uav=(2, 3))
    splits = [alloc(s) for alloc in (alloc_equal, alloc_proportional, alloc_optimal)]
    assert len({tuple(sorted(b.fractions.items())) for b in splits}) == 3
    plan = _Plan(s)
    pairs = [(Evaluator(scen, beta, PenaltyConfig(), _plan=plan), Evaluator(scen, beta, PenaltyConfig()))
             for beta in splits for scen in (s, with_unlimited_energy(s))]
    rng = np.random.default_rng(9)
    for n in (5, 1, 5, 100, 5):
        P = rng.integers(1, 3, size=(n, pairs[0][0].vector_length))
        for shared, alone in pairs:
            obj, totals = shared._score_many(P)
            assert shared.fitness_many(P).tolist() == alone.fitness_many(P).tolist()
            assert (obj.tolist(), totals.tolist()) == tuple(a.tolist() for a in alone._score_many(P))
            for i, row in enumerate(P.tolist()):
                assert (obj[i], totals[i].tolist()) == shared._core(row)[:2]
    assert plan.scratch.n == 5


@pytest.mark.parametrize("n", [1, 2, 5])
def test_populations_are_scored_by_the_array_pass_only(monkeypatch, n):
    s = desk_scenario(17, uav_count=3, subtasks=6, active=2, budget_j=3000.0)
    ev = Evaluator(s, alloc_equal(s), PenaltyConfig())
    P = np.random.default_rng(13).integers(1, 4, size=(n, ev.vector_length))
    fit = [ev.fitness(row) for row in P.tolist()]
    feas = [ev.objective_and_feasible(row) for row in P.tolist()]

    def no_scalar_kernel(*args, **kwargs):
        raise AssertionError("a population reached the scalar kernel")

    monkeypatch.setattr(Evaluator, "_core", no_scalar_kernel)
    assert ev.fitness_many(P).tolist() == fit
    obj, ok = ev.objective_and_feasible_many(P)
    assert list(zip(obj.tolist(), ok.tolist())) == feas


def test_one_decision_methods_never_lay_out_the_plan():
    s = desk_scenario(17, uav_count=3, subtasks=6, active=2, budget_j=3000.0)
    ev = Evaluator(s, alloc_equal(s), PenaltyConfig())
    row = [1, 2, 3] * (ev.vector_length // 3)
    ev.fitness(row)
    ev.objective_and_feasible(row)
    ev.result(decision_from_vector(s, row))
    assert ev._plan.layout is None and ev._plan.scratch is None


def test_per_subtask_cycles_per_bit_matches_event_oracle():
    # sub-task 3 of the first task runs at 5000 cycles/bit, the rest at 1000
    s = desk_scenario(3, uav_count=3, subtasks=6, active=2)
    first = s.tasks[0]
    slow = dataclasses.replace(first, sub_tasks=tuple(
        dataclasses.replace(st, cycles_per_bit=5000.0) if st.index == 3 else st
        for st in first.sub_tasks
    ))
    s = dataclasses.replace(s, tasks=(slow,) + s.tasks[1:])
    beta = alloc_equal(s)
    rng = np.random.default_rng(4)
    for _ in range(5):
        dec = random_decision(s, rng)
        res = evaluate(dec, beta, s)
        at, rt, st, ft, obj = oracles.event_schedule(s, dec, beta)
        for key in ft:
            assert res.finish_s[key] == pytest.approx(ft[key], abs=ABS)
        assert res.objective_s == pytest.approx(obj, abs=ABS)


# ------------------------------------------------------- population kernel

def _odd_dag_scenario():
    """hand_scenario grown to five sub-tasks: sub-task 2 has no parent at
    all (not even the dummy root), edges 1->3 and 1->4 carry no payload,
    and sub-task 4 runs at its own cycles-per-bit rate."""
    s = hand_scenario()
    task = TaskGraph(
        owner_user=1,
        sub_tasks=(
            SubTask(index=0, input_size_bits=0.0, cycles_per_bit=0.0, is_dummy=True),
            SubTask(index=1, input_size_bits=1e6, cycles_per_bit=1000.0,
                    predecessors=((0, 0.0),)),
            SubTask(index=2, input_size_bits=2e6, cycles_per_bit=1000.0),
            SubTask(index=3, input_size_bits=1e6, cycles_per_bit=1000.0,
                    predecessors=((1, 0.0), (2, 2e5))),
            SubTask(index=4, input_size_bits=5e5, cycles_per_bit=5000.0,
                    predecessors=((3, 1e5), (1, 0.0), (0, 0.0))),
        ),
    )
    return dataclasses.replace(s, tasks=(task,))


def _shaped_scenario(lengths, chain):
    """Three active users on two shared UAVs, user k holding lengths[k]
    sub-tasks: a chain with a payload on every edge when chain is set,
    else every sub-task a child of the dummy root only (one level)."""
    s = desk_scenario(8, uav_count=2, subtasks=7, active=3, users_per_uav=(2, 3))
    tasks = []
    for k, (task, n) in enumerate(zip(s.tasks, lengths)):
        subs = [SubTask(index=0, input_size_bits=0.0, cycles_per_bit=0.0, is_dummy=True)]
        for j in range(1, n + 1):
            parent = j - 1 if chain else 0
            bits = 1e5 * (j + k) if parent else 0.0
            subs.append(SubTask(index=j, input_size_bits=8e5 + 1e5 * j,
                                cycles_per_bit=1000.0 + 250.0 * (j % 3),
                                predecessors=((parent, bits),)))
        tasks.append(TaskGraph(owner_user=task.owner_user, sub_tasks=tuple(subs),
                               release_time_s=0.25 * k))
    return dataclasses.replace(s, tasks=tuple(tasks))


def _relabelled_scenario():
    """Three users on two shared UAVs, each task's sub-task j renamed
    n + 1 - j with its payloads kept: every child now has a smaller index
    than its parents, so each task's visiting order runs against its
    column order."""
    s = desk_scenario(8, uav_count=2, subtasks=7, active=3, budget_j=2500.0,
                      users_per_uav=(2, 3))
    tasks = []
    for t in s.tasks:
        n = len(t.sub_tasks) - 1
        rename = {j: n + 1 - j if j else 0 for j in range(n + 1)}
        subs = sorted((dataclasses.replace(
            st, index=rename[st.index],
            predecessors=tuple((rename[p], bits) for p, bits in st.predecessors),
        ) for st in t.sub_tasks), key=lambda st: st.index)
        tasks.append(dataclasses.replace(t, sub_tasks=tuple(subs)))
    s = dataclasses.replace(s, tasks=tuple(tasks))
    assert validate_scenario(s) == []
    assert all(topological_order(t) != list(range(len(t.sub_tasks))) for t in s.tasks)
    return s


def _kernel_cases():
    shared = dict(users_per_uav=(2, 3))
    yield "odd-dag", _odd_dag_scenario()
    yield "chain", _shaped_scenario((6, 3, 4), chain=True)
    yield "flat", _shaped_scenario((5, 2, 3), chain=False)
    yield "binding", desk_scenario(17, uav_count=3, subtasks=6, active=2, budget_j=3000.0)
    yield "shared-uav", desk_scenario(8, uav_count=2, subtasks=7, active=3,
                                      budget_j=2500.0, **shared)
    yield "unlimited", with_unlimited_energy(
        desk_scenario(8, uav_count=2, subtasks=7, active=3, budget_j=2500.0, **shared)
    )
    yield "relabelled", _relabelled_scenario()


PENALTIES = [None, PenaltyConfig(lambda_=0.1), PenaltyConfig(lambda_=1e-3),
             PenaltyConfig(mode="hard")]


@pytest.mark.parametrize("upload_model", ["cumulative", "independent"])
@pytest.mark.parametrize("allocator", [alloc_equal, alloc_optimal])
@pytest.mark.parametrize("penalty", PENALTIES, ids=["off", "lam0.1", "lam1e-3", "hard"])
def test_population_kernel_equals_scalar_kernel(upload_model, allocator, penalty):
    rng = np.random.default_rng(11)
    for _name, s in _kernel_cases():
        ev = Evaluator(s, allocator(s), penalty, upload_model)
        for n in (0, 1, 2, 5, 100):
            P = rng.integers(1, len(s.uavs) + 1, size=(n, ev.vector_length))
            fit = ev.fitness_many(P)
            obj, feas = ev.objective_and_feasible_many(P)
            assert fit.shape == obj.shape == feas.shape == (n,)
            # the per-UAV energy totals too: budgets rarely sit within
            # an ulp of them, so fitness alone would hide a reordered sum
            _obj, totals = ev._score_many(P)
            for i, row in enumerate(P.tolist()):
                assert fit[i] == ev.fitness(row)
                assert (obj[i], feas[i]) == ev.objective_and_feasible(row)
                assert totals[i].tolist() == ev._core(row)[1]


@pytest.mark.parametrize("penalty", [PenaltyConfig(lambda_=0.1), PenaltyConfig(mode="hard")],
                         ids=["penalty", "hard"])
def test_population_kernel_is_exact_past_eight_subtasks_per_user(penalty):
    # the dwoa-large shape: 40 sub-tasks per user, past numpy's
    # 8-element pairwise-summation block, which the _kernel_cases (at
    # most 7 per user) stay below; a budget near the median total makes
    # about half the rows infeasible, so hard mode rejects some
    s = desk_scenario(4, uav_count=9, subtasks=40, active=5, users_per_uav=(1, 2),
                      budget_j=1.6e5)
    ev = Evaluator(s, alloc_equal(s), penalty)
    rng = np.random.default_rng(23)
    for n in (1, 2, 8, 100):
        P = rng.integers(1, len(s.uavs) + 1, size=(n, ev.vector_length))
        obj, totals = ev._score_many(P)
        fit = ev._penalize(obj, totals)
        for i, row in enumerate(P.tolist()):
            objective, scalar_totals, _ = ev._core(row)
            assert obj[i] == objective
            assert totals[i].tolist() == scalar_totals
            assert fit[i] == ev.fitness(row)
    assert 0 < ev._feasible(totals).sum() < len(P)


@pytest.mark.parametrize("penalties", [
    (PenaltyConfig(lambda_=0.01), PenaltyConfig(lambda_=3), PenaltyConfig(lambda_=1e6)),
    (PenaltyConfig(mode="hard"),),
], ids=["penalty", "hard"])
def test_a_stack_scores_every_row_as_its_own_evaluator(penalties):
    # a sweep group's Evaluators on one plan at 40 sub-tasks per user:
    # three splits, both upload models, unequal lambdas, and budgets that
    # bind, are 0 J or are unlimited, each scoring its own block of rows
    s = desk_scenario(4, uav_count=4, subtasks=40, active=3, users_per_uav=(1, 2), budget_j=1.6e5)
    zero = dataclasses.replace(s, uavs=tuple(dataclasses.replace(v, energy_budget_j=0.0) for v in s.uavs))
    plan = _Plan(s)
    evs = [
        Evaluator(scen, alloc(s), pen, upload, _plan=plan)
        for scen in (s, zero, with_unlimited_energy(s))
        for alloc in (alloc_equal, alloc_proportional, alloc_optimal)
        for pen in penalties
        for upload in ("cumulative", "independent")
    ]
    rng = np.random.default_rng(31)
    rows = rng.integers(1, 6, size=len(evs)).tolist()
    blocks = [rng.integers(1, 5, size=(n, evs[0].vector_length)) for n in rows]
    stack = _Stack(evs, rows)
    P = np.concatenate(blocks)
    obj, feasible = stack.objective_and_feasible_many(P)
    alone = [ev.objective_and_feasible_many(block) for ev, block in zip(evs, blocks)]
    assert stack.fitness_many(P).tolist() == np.concatenate(
        [ev.fitness_many(block) for ev, block in zip(evs, blocks)]).tolist()
    assert obj.tolist() == np.concatenate([o for o, _ in alone]).tolist()
    assert feasible.tolist() == np.concatenate([f for _, f in alone]).tolist()
    binding, zero_j, unlimited = np.split(feasible, np.cumsum(rows)[[len(evs) // 3 - 1, 2 * len(evs) // 3 - 1]])
    assert 0 < binding.sum() < len(binding)
    assert not zero_j.any() and unlimited.all()


@pytest.mark.parametrize("upload_model", ["cumulative", "independent"])
@pytest.mark.parametrize("penalty", PENALTIES[:2] + PENALTIES[3:], ids=["off", "lam0.1", "hard"])
def test_population_scratch_reuse_keeps_results(upload_model, penalty):
    # the plan's scratch holds arrays for exactly the last row count and
    # is built again whenever the count changes; no returned array may
    # share its memory
    s = desk_scenario(17, uav_count=3, subtasks=6, active=2, budget_j=3000.0)
    ev = Evaluator(s, alloc_equal(s), penalty, upload_model)
    rng = np.random.default_rng(5)
    kept = []
    for i, n in enumerate((100, 8, 1024, 37, 100)):
        P = rng.integers(1, len(s.uavs) + 1, size=(n, ev.vector_length))
        if i % 2:
            obj, feas = ev.objective_and_feasible_many(P)
            fit = ev.fitness_many(P)
        else:
            fit = ev.fitness_many(P)
            obj, feas = ev.objective_and_feasible_many(P)
        for j, row in enumerate(P.tolist()):
            assert fit[j] == ev.fitness(row)
            assert (obj[j], feas[j]) == ev.objective_and_feasible(row)
        out = (fit, obj, feas)
        kept.append((out, [a.copy() for a in out]))
    for out, snapshot in kept:
        for got, was in zip(out, snapshot):
            assert np.array_equal(got, was)


@pytest.mark.parametrize("n", [1, 2, 5, 100])
@pytest.mark.parametrize("bad", [0, 4])
def test_population_rejects_out_of_range_slots(n, bad):
    s = desk_scenario(17, uav_count=3, subtasks=6, active=2)
    ev = Evaluator(s, alloc_equal(s), PenaltyConfig())
    P = np.random.default_rng(3).integers(1, 4, size=(n, ev.vector_length))
    P[n - 1, 2] = bad
    with pytest.raises(ValueError, match=r"slots in \[1, 3\]"):
        ev.fitness_many(P)
    with pytest.raises(ValueError, match=r"slots in \[1, 3\]"):
        ev.objective_and_feasible_many(P)
    with pytest.raises(ValueError, match="matrix"):
        ev.fitness_many(P[:, 1:])


def test_population_kernel_allocates_no_population_sized_temporaries():
    # dwoa-large shape: V=9, M=200, N=100; the parent kernel peaked near 2 MB
    s = desk_scenario(4, uav_count=9, subtasks=40, active=5, users_per_uav=(1, 2))
    ev = Evaluator(s, alloc_equal(s), PenaltyConfig())
    P = np.random.default_rng(0).integers(1, len(s.uavs) + 1, size=(100, ev.vector_length))
    assert P.shape == (100, 200)
    ev.fitness_many(P)  # compiles the tables and builds the scratch
    tracemalloc.start()
    try:
        ev.fitness_many(P)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * P.size * 8  # two (N, M) float64 arrays


def test_population_kernel_allocates_no_temporaries_at_exhaustive_shape():
    # exhaustive-small shape: V=3, M=8, N=1024; an (N, V) array of energy
    # totals is 3/8 of an (N, M) one here, so a few live ones near the bound
    s = desk_scenario(4, uav_count=3, subtasks=8, active=1)
    ev = Evaluator(s, alloc_equal(s), None)
    P = np.random.default_rng(0).integers(1, len(s.uavs) + 1, size=(1024, ev.vector_length))
    assert P.shape == (1024, 8)
    ev.objective_and_feasible_many(P)  # compiles the tables and builds the scratch
    tracemalloc.start()
    try:
        ev.objective_and_feasible_many(P)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * P.size * 8  # two (N, M) float64 arrays


def test_shaped_cases_reach_the_level_loop_extremes():
    # chain: each user's sub-tasks one per level, six levels deep at most;
    # flat: a single level
    for name, levels, edges in (("chain", 6, 13 - 3), ("flat", 1, 0)):
        s = dict(_kernel_cases())[name]
        ev = Evaluator(s, alloc_equal(s))
        ev.fitness_many(np.ones((5, ev.vector_length), dtype=int))
        layout = ev._plan.layout
        assert len(layout.levels) == levels
        assert len(layout.pay_bits) == edges
        assert len(set(layout.user_assoc)) < len(s.tasks)  # users share a UAV


@pytest.mark.parametrize("method", ["fitness", "objective_and_feasible"])
@pytest.mark.parametrize("bad", ["zero", "past-last", "short", "long"])
def test_scalar_path_rejects_bad_vectors(method, bad):
    s = desk_scenario(17, uav_count=3, subtasks=6, active=2, budget_j=3000.0)
    ev = Evaluator(s, alloc_equal(s), PenaltyConfig())
    row = [1] * ev.vector_length
    if bad == "zero":
        row[2] = 0
    elif bad == "past-last":
        row[2] = len(s.uavs) + 1
    elif bad == "short":
        row = row[:-1]
    else:
        row = row + [1]
    with pytest.raises(ValueError, match=r"slots in \[1, 3\]"):
        getattr(ev, method)(row)


def test_population_kernel_sees_binding_budgets():
    # the differential test above must compare both feasibility outcomes
    s = desk_scenario(17, uav_count=3, subtasks=6, active=2, budget_j=3000.0)
    ev = Evaluator(s, alloc_equal(s), PenaltyConfig(mode="hard"))
    P = np.random.default_rng(11).integers(1, 4, size=(100, ev.vector_length))
    _obj, feas = ev.objective_and_feasible_many(P)
    assert 0 < feas.sum() < len(feas)
    assert (ev.fitness_many(P) == HARD_REJECT).sum() == len(feas) - feas.sum()


def _penalized_on_every_path(ev, row):
    """row's fitness from the one-decision call, array passes of 2 and 5
    rows and result()."""
    return [
        ev.fitness(row),
        *ev.fitness_many([row] * 2).tolist(),
        *ev.fitness_many([row] * 5).tolist(),
        ev.result(decision_from_vector(ev.scenario, row)).penalized_s,
    ]


def _feasible_on_every_path(ev, row):
    return [
        ev.objective_and_feasible(row)[1],
        *ev.objective_and_feasible_many([row] * 2)[1].tolist(),
        *ev.objective_and_feasible_many([row] * 5)[1].tolist(),
        ev.result(decision_from_vector(ev.scenario, row)).feasible,
    ]


def _huge_capacitance_scenario(**kw):
    s = desk_scenario(17, uav_count=3, subtasks=6, active=2, **kw)
    return dataclasses.replace(
        s, physics=dataclasses.replace(s.physics, effective_switched_capacitance=1e300)
    )


def _nan_energy_scenario():
    # a valid scenario whose execution energies overflow to inf, with one
    # sub-task (the first task's sub-task 1) at 0 cycles/bit: inf * 0 is
    # NaN, so the energy total of the UAV that runs it is NaN, which is
    # not at most its budget: infeasible
    s = _huge_capacitance_scenario()
    s = _spoiled_first_task(s, sub_tasks=tuple(
        dataclasses.replace(st, cycles_per_bit=0.0) if st.index == 1 else st
        for st in s.tasks[0].sub_tasks
    ))
    assert validate_scenario(s) == []
    return s


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_hard_mode_rejects_a_nan_energy_total_on_every_path():
    s = _nan_energy_scenario()
    ev = Evaluator(s, alloc_equal(s), PenaltyConfig(mode="hard"))
    row = [1] * ev.vector_length
    res = ev.result(decision_from_vector(s, row))
    assert math.isnan(res.energy.total_j[res.executor[(s.tasks[0].owner_user, 1)]])
    assert set(_feasible_on_every_path(ev, row)) == {False}
    assert set(_penalized_on_every_path(ev, row)) == {HARD_REJECT}


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_penalty_mode_charges_a_nan_energy_total_hard_reject_on_every_path():
    # a NaN total has no excess to square; it must not score as free
    s = _nan_energy_scenario()
    ev = Evaluator(s, alloc_equal(s), PenaltyConfig(lambda_=0.1))
    assert set(_penalized_on_every_path(ev, [1] * ev.vector_length)) == {HARD_REJECT}


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "error:invalid:RuntimeWarning")
@pytest.mark.parametrize("penalty", [PenaltyConfig(mode="hard"), PenaltyConfig(lambda_=0.1)],
                         ids=["hard", "lam0.1"])
def test_infinite_total_under_an_unlimited_budget_is_free_on_every_path(penalty):
    # inf <= inf: feasible, so the penalty must charge nothing, and must
    # not compute inf - inf, which warns and gives a NaN excess
    s = with_unlimited_energy(_huge_capacitance_scenario())
    ev = Evaluator(s, alloc_equal(s), penalty)
    row = [1] * ev.vector_length
    res = ev.result(decision_from_vector(s, row))
    assert res.energy.total_j[1] == math.inf
    assert set(_feasible_on_every_path(ev, row)) == {True}
    assert set(_penalized_on_every_path(ev, row)) == {res.objective_s}


@pytest.mark.parametrize("n", [1, 2, 5])
def test_fractional_slots_are_rejected(n):
    # a cast to integers would score 1.7 as slot 1
    s = desk_scenario(17, uav_count=3, subtasks=6, active=2)
    ev = Evaluator(s, alloc_equal(s), PenaltyConfig())
    P = [[1.7] * ev.vector_length] * n
    for method in (ev.fitness_many, ev.objective_and_feasible_many):
        with pytest.raises(ValueError, match=r"slots in \[1, 3\]"):
            method(P)
    if n == 1:
        for method in (ev.fitness, ev.objective_and_feasible):
            with pytest.raises(ValueError, match=r"slots in \[1, 3\]"):
                method(P[0])


def test_bandwidth_split_is_checked_at_construction():
    s = desk_scenario(17, uav_count=3, subtasks=6, active=2)
    over = BandwidthAllocation({k: 5.0 for k in alloc_equal(s).fractions})
    assert over.check(s)
    with pytest.raises(ValueError, match=r"bandwidth fractions sum to .* outside \[0, 1\]"):
        Evaluator(s, over)
    with pytest.raises(ValueError, match="outside"):
        evaluate(associated_decision(s), over, s)


def _without_subtasks(task):
    return dataclasses.replace(task, sub_tasks=tuple(x for x in task.sub_tasks if x.is_dummy))


def test_task_with_no_subtask_is_scored_and_solved():
    s = desk_scenario(17, uav_count=3, subtasks=6, active=2)
    s = dataclasses.replace(s, tasks=(_without_subtasks(s.tasks[0]),) + s.tasks[1:])
    assert validate_scenario(s) == []
    empty_user = s.tasks[0].owner_user
    beta = alloc_equal(s)
    ev = Evaluator(s, beta, PenaltyConfig())
    assert ev.vector_length == 6
    P = np.random.default_rng(2).integers(1, 4, size=(5, 6))
    fit = ev.fitness_many(P)
    obj, totals = ev._score_many(P)
    for i, row in enumerate(P.tolist()):
        assert fit[i] == ev.fitness(row)
        assert (obj[i], totals[i].tolist()) == ev._core(row)[:2]
    assert decision_from_vector(s, [1] * 6).x[empty_user] == ()
    for run in (exhaustive_solve(s, beta),
                dwoa_solve(s, beta, DwoaConfig(agents=5, seed=3))):
        assert run.decision.x[empty_user] == ()
        assert run.objective_s == evaluate(run.decision, beta, s).objective_s


def test_scenario_with_no_subtask_is_rejected():
    s = desk_scenario(17, uav_count=3, subtasks=6, active=2)
    s = dataclasses.replace(s, tasks=tuple(_without_subtasks(t) for t in s.tasks))
    with pytest.raises(ValueError, match="no sub-task"):
        Evaluator(s, alloc_equal(s))


@pytest.mark.parametrize("penalty", [PenaltyConfig(mode="hard"), PenaltyConfig(lambda_=0.1)],
                         ids=["hard", "lam0.1"])
def test_total_equal_to_its_budget_is_feasible_on_every_path(penalty):
    s = desk_scenario(17, uav_count=3, subtasks=6, active=2, budget_j=3000.0)
    row = [1, 2, 3] * (len(decision_order(s)) // 3)
    totals = evaluate(decision_from_vector(s, row), alloc_equal(s), s).energy.total_j
    s = dataclasses.replace(s, uavs=tuple(
        dataclasses.replace(v, energy_budget_j=totals[v.id]) for v in s.uavs
    ))
    ev = Evaluator(s, alloc_equal(s), penalty)
    res = ev.result(decision_from_vector(s, row))
    assert res.energy.total_j == {v.id: v.energy_budget_j for v in s.uavs}
    assert set(_feasible_on_every_path(ev, row)) == {True}
    assert set(_penalized_on_every_path(ev, row)) == {res.objective_s}


def test_parentless_subtask_is_ready_at_arrival():
    s = _odd_dag_scenario()
    res = evaluate(OffloadDecision({1: (1, 2, 1, 1)}), alloc_equal(s), s)
    assert res.ready_s[(1, 2)] == res.arrival_s[(1, 2)]

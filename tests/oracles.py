"""Independent reference implementations used only by the test suite.

Nothing here shares scheduling or optimization logic with the package:
the scheduler is an event-driven simulation over an O(n^2) selection
topological order, the energy account sums the README energy model per
UAV, and the allocator is a projected-gradient descent on the simplex.
Channel rates are taken from the package because they are
inputs to the scheduling semantics under test, not part of them. The
exhaustive reference scores decisions with the package's population
kernel, which other tests check against these oracles: what it stands
for is the enumeration and the selection rule.
"""
import heapq
import math

import numpy as np

from uavmec import channel
from uavmec.solvers import NoFeasibleDecisionError, StateSpaceCapError


def selection_topo_order(task):
    """Canonical topological order by repeated smallest-index selection.

    Same sequence the package's Kahn implementation must produce, built
    by a different mechanism: scan indices ascending and place the first
    node whose predecessors are all placed.
    """
    subs = {s.index: s for s in task.sub_tasks}
    placed = set()
    order = []
    indices = sorted(subs)
    while len(order) < len(indices):
        progress = False
        for j in indices:
            if j in placed:
                continue
            if all(p in placed for p, _ in subs[j].predecessors):
                placed.add(j)
                order.append(j)
                progress = True
                break
        if not progress:
            raise ValueError("cycle")
    return order


def event_schedule(scenario, decision, beta, upload_model="cumulative"):
    """Event-driven schedule of every active task.

    Returns (at, rt, st, ft, objective) with the time dicts keyed by
    (user id, sub-task index), non-dummy entries only.
    """
    ph = scenario.physics
    uavs = {v.id: v for v in scenario.uavs}
    at, rt, st, ft = {}, {}, {}, {}

    total_bits = {vid: 0.0 for vid in uavs}
    for t in scenario.tasks:
        for s in t.non_dummy():
            total_bits[decision.uav_for(t.owner_user, s.index)] += s.input_size_bits

    per_user_terms = []
    for t in scenario.tasks:
        user = scenario.user_by_id(t.owner_user)
        uav_a = uavs[user.associated_uav]
        rate_up = channel.user_uplink_rate(
            user, uav_a, beta.fraction(uav_a.id, user.id), ph
        )
        subs = {s.index: s for s in t.sub_tasks}
        order = selection_topo_order(task=t)

        arrive = {}
        cum = t.release_time_s
        for j in order:
            if j == 0:
                continue
            s = subs[j]
            v = decision.uav_for(user.id, j)
            up = s.input_size_bits / rate_up
            if upload_model == "cumulative":
                cum += up
                base = cum
            else:
                base = t.release_time_s + up
            fwd = 0.0
            if v != uav_a.id:
                fwd = s.input_size_bits / channel.u2u_rate(uav_a, uavs[v], ph)
            arrive[j] = base + fwd

        children = {j: [] for j in subs}
        indeg = {}
        for j, s in subs.items():
            if j == 0:
                continue
            indeg[j] = len(s.predecessors)
            for p, bits in s.predecessors:
                children[p].append((j, bits))

        finish = {0: t.release_time_s}
        dep_arrival = {j: [] for j in indeg}
        heap = []

        def release(p):
            for j, bits in children[p]:
                tail = finish[p]
                if bits > 0 and p != 0:
                    vp = decision.uav_for(user.id, p)
                    vj = decision.uav_for(user.id, j)
                    if vp != vj:
                        tail += bits / channel.u2u_rate(uavs[vp], uavs[vj], ph)
                dep_arrival[j].append(tail)
                indeg[j] -= 1
                if indeg[j] == 0:
                    ready = max(arrive[j], max(dep_arrival[j]))
                    s = subs[j]
                    v = decision.uav_for(user.id, j)
                    share = (
                        s.input_size_bits
                        * uavs[v].max_compute_hz
                        / total_bits[v]
                    )
                    t_exe = s.input_size_bits * s.cycles_per_bit / share
                    heapq.heappush(heap, (ready + t_exe, ready, j))

        release(0)
        while heap:
            fin, ready, j = heapq.heappop(heap)
            finish[j] = fin
            key = (user.id, j)
            at[key] = arrive[j]
            rt[key] = ready
            st[key] = ready
            ft[key] = fin
            release(j)

        makespan = max(finish.values()) - t.release_time_s
        upload_total = sum(
            subs[j].input_size_bits for j in subs if j != 0
        ) / rate_up
        per_user_terms.append(makespan + upload_total)

    objective = sum(per_user_terms) / len(per_user_terms)
    return at, rt, st, ft, objective


def energy_reference(scenario, decision, beta):
    """Per-UAV energy account, written from the README energy model.

    Returns {uav id: {"exec_j", "forward_j", "report_j", "hover_time_s",
    "hover_j", "total_j"}}. Execution costs k * f^2 * C * H on the
    executing UAV, at the size-proportional share f = H * F / (UAV bits);
    the associated UAV pays P_u2u * H / R(assoc -> executor) for each
    sub-task it forwards; every UAV pays its status report to the base
    station; a UAV hovers for the longest span over the active users it
    serves: task upload + its report + max(local execution time,
    forwarding plus remote execution time). Dependency payloads are not
    billed. Hover power is eta^1.5 / (phi * sqrt(2 pi q r^2 rho)).
    """
    ph = scenario.physics
    uavs = {v.id: v for v in scenario.uavs}
    acct = {
        vid: dict(exec_j=0.0, forward_j=0.0, report_j=0.0, hover_time_s=0.0, hover_j=0.0)
        for vid in uavs
    }

    hosted_bits = {vid: 0.0 for vid in uavs}
    for t in scenario.tasks:
        for s in t.non_dummy():
            hosted_bits[decision.uav_for(t.owner_user, s.index)] += s.input_size_bits

    report_s = {}
    for vid, v in uavs.items():
        report_s[vid] = v.info_payload_bits / channel.u2b_rate(v, scenario.bs_position_m, ph)
        acct[vid]["report_j"] = channel.dbm_to_watts(v.tx_power_to_bs_dbm) * report_s[vid]

    for t in scenario.tasks:
        user = scenario.user_by_id(t.owner_user)
        home = uavs[user.associated_uav]
        rate_up = channel.user_uplink_rate(user, home, beta.fraction(home.id, user.id), ph)
        upload_s = 0.0
        local_s = 0.0
        remote_s = 0.0
        for s in t.non_dummy():
            vid = decision.uav_for(user.id, s.index)
            f = s.input_size_bits * uavs[vid].max_compute_hz / hosted_bits[vid]
            run_s = s.cycles_per_bit * s.input_size_bits / f
            acct[vid]["exec_j"] += (
                ph.effective_switched_capacitance * f**2 * s.cycles_per_bit * s.input_size_bits
            )
            upload_s += s.input_size_bits / rate_up
            if vid == home.id:
                local_s += run_s
            else:
                hop_s = s.input_size_bits / channel.u2u_rate(home, uavs[vid], ph)
                acct[home.id]["forward_j"] += channel.dbm_to_watts(home.tx_power_u2u_dbm) * hop_s
                remote_s += hop_s + run_s
        span = upload_s + report_s[home.id] + max(local_s, remote_s)
        acct[home.id]["hover_time_s"] = max(acct[home.id]["hover_time_s"], span)

    for vid, v in uavs.items():
        h = v.hover
        power = h.thrust_n**1.5 / (
            h.power_efficiency
            * math.sqrt(
                2 * math.pi * h.rotor_count * h.rotor_diameter_m**2 * ph.air_density_kg_m3
            )
        )
        a = acct[vid]
        a["hover_j"] = power * a["hover_time_s"]
        a["total_j"] = a["exec_j"] + a["forward_j"] + a["report_j"] + a["hover_j"]
    return acct


def project_simplex(v, total=1.0):
    """Euclidean projection onto {x >= 0, sum x = total} (sorting method)."""
    v = np.asarray(v, dtype=float)
    n = len(v)
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    rho = np.nonzero(u * np.arange(1, n + 1) > (css - total))[0][-1]
    theta = (css[rho] - total) / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def pg_alloc(weights, lower=1e-9, max_iter=200000, tol=1e-14):
    """Projected gradient minimization of sum(w_i / b_i) over the simplex
    with a small lower bound keeping the objective finite."""
    w = np.asarray(weights, dtype=float)
    n = len(w)
    free = 1.0 - n * lower
    beta = np.full(n, 1.0 / n)

    def f(b):
        return float(np.sum(w / b))

    fb = f(beta)
    step = 1.0 / np.max(w / beta**2)
    for _ in range(max_iter):
        g = -w / beta**2
        s = step
        while True:
            cand = project_simplex(beta - lower - s * g, total=free) + lower
            fc = f(cand)
            if fc <= fb or s < 1e-20:
                break
            s *= 0.5
        if np.max(np.abs(cand - beta)) < tol:
            beta, fb = cand, fc
            break
        if fc < fb:
            step = s * 2.0
        beta, fb = cand, fc
    return beta


def exhaustive_reference(ev, cap=10**7, chunk=1024):
    """The brute-force exhaustive search: every decision vector of ev,
    in itertools.product order, scored whole (objective and feasibility)
    chunk by chunk. Returns (vector, objective) of the first strict
    minimum of the objective among feasible decisions; raises
    StateSpaceCapError when V**M exceeds cap and NoFeasibleDecisionError
    when no decision is feasible.
    """
    m = ev.vector_length
    v_count = len(ev.scenario.uavs)
    total = v_count**m
    if total > cap:
        raise StateSpaceCapError(f"{v_count}**{m} decisions exceed cap {cap}")
    # decision number k, written in base V with the last sub-task as the
    # lowest digit, is the k-th decision of itertools.product order
    place = np.array([v_count**e for e in range(m - 1, -1, -1)], dtype=np.int64)
    best_obj, best_vec = math.inf, None
    for lo in range(0, total, chunk):
        k = np.arange(lo, min(lo + chunk, total), dtype=np.int64)
        slots = k[:, None] // place % v_count + 1
        obj, feasible = ev.objective_and_feasible_many(slots)
        for i in np.flatnonzero(feasible):
            if obj[i] < best_obj:
                best_obj, best_vec = float(obj[i]), tuple(slots[i].tolist())
    if best_vec is None:
        raise NoFeasibleDecisionError("no decision satisfies all energy budgets")
    return best_vec, best_obj

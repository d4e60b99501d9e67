import dataclasses
import math

import pytest

from uavmec import (
    BandwidthAllocation,
    EnergyLedger,
    OffloadDecision,
    PhysicsConstants,
    check_energy_feasible,
    compute_shares,
    dbm_to_watts,
    evaluate,
    hover_power_w,
    u2u_rate,
    user_uplink_rate,
)
from uavmec.scenario import SubTask, TaskGraph

from conftest import desk_scenario, hand_scenario

PH = PhysicsConstants()
BETA_FULL = BandwidthAllocation({(1, 1): 1.0})


def test_shares_proportional_and_saturating():
    s = hand_scenario()
    dec = OffloadDecision({1: (1, 2, 1)})
    shares = compute_shares(dec, s.tasks, s.uavs)
    # uav 1 hosts sub-tasks 1 and 3 (1e6 bits each) -> half capacity each
    assert shares.share(1, 1, 1) == pytest.approx(5e8, rel=1e-15)
    assert shares.share(1, 1, 3) == pytest.approx(5e8, rel=1e-15)
    # uav 2 hosts only sub-task 2 -> full capacity
    assert shares.share(2, 1, 2) == 5e8
    assert shares.share(1, 1, 2) == 0.0
    assert shares.uav_total(1) == 1e9
    assert shares.uav_total(2) == 5e8


def test_shares_sum_is_bit_exact_on_random_sizes():
    s = desk_scenario(3)
    uid = s.tasks[0].owner_user
    n = len(s.tasks[0].sub_tasks) - 1
    dec = OffloadDecision({uid: tuple([2] * n)})
    shares = compute_shares(dec, s.tasks, s.uavs)
    f_max = s.uav_by_id(2).max_compute_hz
    vals = [f for (v, _u, _j), f in shares.shares.items() if v == 2]
    assert len(vals) == n
    assert math.fsum(vals) == f_max  # exact, not approx


def _lone_subtask_scenario():
    """hand_scenario with one 8 Mb sub-task at 1000 cycles/bit."""
    s = hand_scenario()
    dummy = s.tasks[0].sub_tasks[0]
    st = SubTask(index=1, input_size_bits=8e6, cycles_per_bit=1000.0, predecessors=((0, 0.0),))
    return dataclasses.replace(s, tasks=(TaskGraph(owner_user=1, sub_tasks=(dummy, st)),))


def test_exec_latency_golden():
    # alone on the 1 GHz UAV the sub-task gets the whole CPU
    res = evaluate(OffloadDecision({1: (1,)}), BETA_FULL, _lone_subtask_scenario())
    assert res.exec_s[(1, 1)] == 8.0


def test_exec_latency_dummy_is_free():
    res = evaluate(OffloadDecision({1: (1,)}), BETA_FULL, _lone_subtask_scenario())
    assert res.exec_s[(1, 0)] == 0.0


def test_static_shares_equalize_exec_times_per_uav():
    # with size-proportional shares every sub-task on a UAV runs for
    # C * (total bits on that UAV) / F_max seconds, whatever its own size
    s = hand_scenario()
    dec = OffloadDecision({1: (1, 1, 1)})
    res = evaluate(dec, BETA_FULL, s)
    times = [res.exec_s[(1, st.index)] for st in s.tasks[0].non_dummy()]
    expected = 1000.0 * 4e6 / 1e9
    for t in times:
        assert t == pytest.approx(expected, rel=1e-12)


def test_transfer_latencies_components():
    s = hand_scenario()
    dec = OffloadDecision({1: (1, 2, 1)})
    tl = evaluate(dec, BETA_FULL, s, upload_model="independent")
    rate_up = user_uplink_rate(s.users[0], s.uavs[0], 1.0, PH)
    r12 = u2u_rate(s.uavs[0], s.uavs[1], PH)
    assert tl.upload_s[(1, 1)] == pytest.approx(1e6 / rate_up, rel=1e-12)
    assert tl.upload_s[(1, 2)] == pytest.approx(2e6 / rate_up, rel=1e-12)
    # forwarding charged only for the sub-task leaving the associated UAV
    assert tl.forward_s[(1, 1)] == 0.0
    assert tl.forward_s[(1, 3)] == 0.0
    assert tl.forward_s[(1, 2)] == pytest.approx(2e6 / r12, rel=1e-12)
    # dependency payloads cross the air only between distinct UAVs:
    # 1 -> 3 stays on uav 1, 2 -> 3 crosses from uav 2 (and binds)
    ready_3 = max(tl.arrival_s[(1, 3)], tl.finish_s[(1, 1)], tl.finish_s[(1, 2)] + 2e5 / r12)
    assert tl.ready_s[(1, 3)] == pytest.approx(ready_3, rel=1e-12)
    assert tl.ready_s[(1, 3)] == pytest.approx(tl.finish_s[(1, 2)] + 2e5 / r12, rel=1e-12)
    assert tl.ready_s[(1, 1)] == tl.arrival_s[(1, 1)]  # dummy payload is empty
    assert tl.arrival_s[(1, 2)] == tl.upload_s[(1, 2)] + tl.forward_s[(1, 2)]


def test_transfer_latencies_colocated_deps_are_free():
    s = hand_scenario()
    dec = OffloadDecision({1: (2, 2, 2)})
    tl = evaluate(dec, BETA_FULL, s)
    ready_3 = max(tl.arrival_s[(1, 3)], tl.finish_s[(1, 1)], tl.finish_s[(1, 2)])
    assert ready_3 > tl.arrival_s[(1, 3)]  # a parent's finish binds
    assert tl.ready_s[(1, 3)] == ready_3
    # but every sub-task pays the forward hop
    for j in (1, 2, 3):
        assert tl.forward_s[(1, j)] > 0.0


def test_transfer_latencies_zero_beta_rejected():
    s = hand_scenario()
    dec = OffloadDecision({1: (1, 1, 1)})
    with pytest.raises(ValueError, match="zero uplink rate"):
        evaluate(dec, BandwidthAllocation({}), s)


def test_hover_power_golden():
    s = hand_scenario()
    assert hover_power_w(s.uavs[0], PH) == pytest.approx(166.55671676265573, rel=1e-12)


def test_hover_power_grows_with_thrust():
    s = hand_scenario()
    v = s.uavs[0]
    heavier = dataclasses.replace(v, hover=dataclasses.replace(v.hover, thrust_n=40.0))
    assert hover_power_w(heavier, PH) > hover_power_w(v, PH)


def _ledger_for(decision):
    s = hand_scenario()
    res = evaluate(decision, BETA_FULL, s)
    return s, res, res.energy


def test_ledger_components_sum_to_total():
    _s, _res, led = _ledger_for(OffloadDecision({1: (1, 2, 1)}))
    for v in (1, 2):
        parts = (led.exec_j[v], led.forward_j[v], led.report_j[v], led.hover_j[v])
        assert led.total_j[v] == math.fsum(parts)


def test_report_energy_is_unconditional():
    # uav 2 serves no active user yet still transmits its info report
    _s, _res, led = _ledger_for(OffloadDecision({1: (1, 1, 1)}))
    assert led.report_j[2] > 0.0
    assert led.exec_j[2] == 0.0
    assert led.forward_j[2] == 0.0
    assert led.hover_time_s[2] == 0.0
    assert led.hover_j[2] == 0.0


def test_exec_energy_hand_value_all_local():
    # shares 2.5e8 / 5e8 / 2.5e8 -> k * f^2 * C * H summed = 3.125 J
    _s, _res, led = _ledger_for(OffloadDecision({1: (1, 1, 1)}))
    assert led.exec_j[1] == pytest.approx(3.125, rel=1e-12)
    assert led.exec_j[2] == 0.0


def test_forward_energy_attributed_to_associated_uav():
    s, res, led = _ledger_for(OffloadDecision({1: (2, 2, 2)}))
    r12 = u2u_rate(s.uavs[0], s.uavs[1], PH)
    p_w = dbm_to_watts(s.uavs[0].tx_power_u2u_dbm)
    assert led.forward_j[1] == pytest.approx(p_w * 4e6 / r12, rel=1e-12)
    assert led.forward_j[2] == 0.0
    # execution moved entirely to uav 2
    assert led.exec_j[1] == 0.0
    assert led.exec_j[2] > 0.0
    # only the associated UAV hovers for its user
    assert led.hover_time_s[1] > 0.0
    assert led.hover_time_s[2] == 0.0


def test_hover_span_hand_check_local():
    s, res, led = _ledger_for(OffloadDecision({1: (1, 1, 1)}))
    rate_up = user_uplink_rate(s.users[0], s.uavs[0], 1.0, PH)
    up_total = 4e6 / rate_up
    report_t = led.report_j[1] / dbm_to_watts(s.uavs[0].tx_power_to_bs_dbm)
    local_span = 3 * (1000.0 * 4e6 / 1e9)
    assert led.hover_time_s[1] == pytest.approx(up_total + report_t + local_span, rel=1e-12)
    assert led.hover_j[1] == pytest.approx(
        hover_power_w(s.uavs[0], PH) * led.hover_time_s[1], rel=1e-12
    )


def test_hover_span_hand_check_offloaded():
    s, res, led = _ledger_for(OffloadDecision({1: (2, 2, 2)}))
    rate_up = user_uplink_rate(s.users[0], s.uavs[0], 1.0, PH)
    r12 = u2u_rate(s.uavs[0], s.uavs[1], PH)
    up_total = 4e6 / rate_up
    report_t = led.report_j[1] / dbm_to_watts(s.uavs[0].tx_power_to_bs_dbm)
    remote_span = 4e6 / r12 + 3 * (1000.0 * 4e6 / 5e8)
    assert led.hover_time_s[1] == pytest.approx(up_total + report_t + remote_span, rel=1e-12)


def test_user_uplink_energy_reported():
    s, res, led = _ledger_for(OffloadDecision({1: (1, 1, 1)}))
    rate_up = user_uplink_rate(s.users[0], s.uavs[0], 1.0, PH)
    expected = dbm_to_watts(s.users[0].tx_power_dbm) * 4e6 / rate_up
    assert led.uplink_user_j[1] == pytest.approx(expected, rel=1e-12)


def test_feasibility_boundary_is_feasible():
    led = EnergyLedger(
        exec_j={1: 3.0},
        forward_j={1: 1.0},
        report_j={1: 0.5},
        hover_j={1: 0.5},
        total_j={1: 5.0},
        hover_time_s={1: 0.0},
        uplink_user_j={},
    )
    s = hand_scenario()
    exact = dataclasses.replace(s.uavs[0], energy_budget_j=5.0)
    short = dataclasses.replace(s.uavs[0], energy_budget_j=4.0)
    ok = check_energy_feasible(led, [exact])
    assert ok[1] == (True, 0.0)
    bad = check_energy_feasible(led, [short])
    assert bad[1][0] is False
    assert bad[1][1] == pytest.approx(-1.0, rel=1e-12)

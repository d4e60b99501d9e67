"""Static compute shares, the per-UAV energy ledger record, hover
power, and the energy-budget check.

Schedule times and energy are computed in one place, the Evaluator
(uavmec.evaluator): ScheduleResult carries the upload, forwarding and
execution times, and its EnergyLedger the per-UAV energy.

Compute shares are static per decision: the denominator covers every
sub-task assigned to the UAV for the whole run, so the shares of a
non-empty UAV saturate its capacity exactly. That bit-exact saturation
holds for compute_shares; the Evaluator's energy uses the raw
H * F / sum(H) share without the rounding fix-up, and routing it through
compute_shares would change the energy_j bits of every result.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Sequence, Tuple

from .scenario import PhysicsConstants, TaskGraph, UavNode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .evaluator import OffloadDecision


@dataclass(frozen=True)
class ComputeShare:
    """cycles/s granted per sub-task, keyed by (uav id, user id, sub-task)."""

    shares: Mapping[Tuple[int, int, int], float]

    def share(self, uav_id: int, user_id: int, subtask: int) -> float:
        return self.shares.get((uav_id, user_id, subtask), 0.0)

    def uav_total(self, uav_id: int) -> float:
        return math.fsum(f for (v, _u, _j), f in self.shares.items() if v == uav_id)


@dataclass(frozen=True)
class EnergyLedger:
    exec_j: Mapping[int, float]
    forward_j: Mapping[int, float]
    report_j: Mapping[int, float]
    hover_j: Mapping[int, float]
    total_j: Mapping[int, float]
    hover_time_s: Mapping[int, float]
    uplink_user_j: Mapping[int, float]  # user-device uplink energy, reported not constrained


def compute_shares(decision: "OffloadDecision", tasks: Sequence[TaskGraph], uavs: Sequence[UavNode]) -> ComputeShare:
    """Size-proportional static shares; a non-empty UAV's shares sum to
    its capacity exactly.

    The raw H_j * F / sum(H) terms are computed multiply-first, then the
    largest share absorbs the rounding defect so the saturation equality
    holds bit-exactly.
    """
    totals: Dict[int, float] = {}
    entries: Dict[int, List[Tuple[Tuple[int, int, int], float]]] = {}
    for t in tasks:
        for s in t.sub_tasks:
            if s.is_dummy:
                continue
            v = decision.x[t.owner_user][s.index - 1]
            totals[v] = totals.get(v, 0.0) + s.input_size_bits
            entries.setdefault(v, []).append(((v, t.owner_user, s.index), s.input_size_bits))

    by_id = {v.id: v for v in uavs}
    shares: Dict[Tuple[int, int, int], float] = {}
    for v_id, items in entries.items():
        f_max = by_id[v_id].max_compute_hz
        total = totals[v_id]
        vals = [bits * f_max / total for _k, bits in items]
        for _ in range(4):
            defect = f_max - math.fsum(vals)
            if defect == 0.0:
                break
            vals[max(range(len(vals)), key=vals.__getitem__)] += defect
        # a defect of ~1 ulp of f_max can oscillate under whole-defect
        # absorption; walk the finest-grained slot one float at a time
        # (the sum is monotone in the slot, so this cannot overshoot)
        s = math.fsum(vals)
        if s != f_max:
            i = min(range(len(vals)), key=vals.__getitem__)
            for _ in range(64):
                vals[i] = math.nextafter(vals[i], math.inf if s < f_max else -math.inf)
                s = math.fsum(vals)
                if s == f_max:
                    break
        for (key, _bits), f in zip(items, vals):
            shares[key] = f
    return ComputeShare(shares)


def hover_power_w(uav: UavNode, physics: PhysicsConstants) -> float:
    """Hover power eta*sqrt(eta) / (phi * sqrt(2 pi q r^2 rho)) in watts."""
    h = uav.hover
    eta = h.thrust_n
    return eta * math.sqrt(eta) / (
        h.power_efficiency
        * math.sqrt(2 * math.pi * h.rotor_count * h.rotor_diameter_m**2 * physics.air_density_kg_m3)
    )


def check_energy_feasible(
    ledger: EnergyLedger, uavs: Sequence[UavNode]
) -> Dict[int, Tuple[bool, float]]:
    """Per UAV: (total <= budget, margin = budget - total). Boundary is feasible."""
    out = {}
    for v in uavs:
        total = ledger.total_j.get(v.id, 0.0)
        out[v.id] = (total <= v.energy_budget_j, v.energy_budget_j - total)
    return out

"""Turns (decision, bandwidth allocation, scenario) into a full schedule:
dependency-respecting start/finish times, per-task makespan, objective,
penalty, and energy feasibility. This is the fitness function behind
every solver. Whatever depends on the scenario alone is planned once per
scenario, and validated then; an Evaluator adds what its bandwidth
split, upload model, energy budgets and penalty settle. The scalar
kernel scores one decision and keeps no state between calls; the
population kernel scores every population, N decisions at once,
writing its intermediates node-major, one contiguous row of N per
sub-task, into scratch arrays kept on the plan, and returns fresh
arrays. That scratch holds every split-free operand as full rows of N,
filled once per N; what a split, budget or penalty sets is read as one
Evaluator's (rows, 1) columns, or as the per-row blocks of a _Stack,
which scores several Evaluators on one plan as one population. The
kernel walks the DAG one level at a time in four numpy calls per
level: gather the ready-time candidates from the finish table, add the
payload transfers, take the max, add the execution times.

Timing rules: sub-tasks are processed in topological order; arrival time
accumulates the task's uploads over the shared uplink (so one channel
never carries two inputs at once; the "independent" upload model starts
every upload at the release time instead) plus the forwarding hop when
the executor is not the associated UAV; start time equals ready time, the
earliest instant at which the input has arrived and every predecessor
has finished and shipped its dependency payload.

The plan of a scenario (_Plan) holds each sub-task once, in visiting
order (users by ascending id, then each task's topological order): its
decision column, input bits, cycles per bit, forwarding time per
executor, and its predecessors, each marked once as carrying a
UAV-to-UAV transfer or not. An Evaluator adds each sub-task's upload
time and its arrival before the forwarding hop. The scalar kernel loops
over these plans, the population kernel reads them laid out as arrays
once per plan, and result() reads its upload times from them. Both
kernels add each UAV's input bits in decision-column order and all else
in visiting order. A child may have a lower index than its parent, so
the orders can differ, and so can the last bits of a sum taken in the
other order.
"""
from __future__ import annotations

import io
import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import channel
from .channel import BandwidthAllocation
from .scenario import Scenario, UserNode, topological_order, validate_scenario
from .timing import EnergyLedger, hover_power_w

# Sentinel fitness for decisions rejected outright in hard mode; larger
# than any realizable objective.
HARD_REJECT = 1e18

UPLOAD_MODELS = ("cumulative", "independent")
PENALTY_MODES = ("penalty", "hard")


@dataclass(frozen=True)
class OffloadDecision:
    """One executing UAV id per non-dummy sub-task.

    x maps an active user id to a tuple of UAV ids, entry j-1 belonging
    to sub-task j. The dummy root stays pinned at the user and needs no
    entry.
    """

    x: Mapping[int, Tuple[int, ...]]

    def uav_for(self, user_id: int, subtask: int) -> int:
        return self.x[user_id][subtask - 1]

    def validate(self, scenario: Scenario) -> List[str]:
        out = []
        uav_ids = {v.id for v in scenario.uavs}
        for t in scenario.tasks:
            vec = self.x.get(t.owner_user)
            n = len(t.sub_tasks) - 1
            if vec is None:
                out.append(f"decision: no vector for user {t.owner_user}")
                continue
            if len(vec) != n:
                out.append(f"decision[{t.owner_user}]: length {len(vec)} != {n}")
            for j, v in enumerate(vec, start=1):
                if v not in uav_ids:
                    out.append(f"decision[{t.owner_user}][{j}]: unknown UAV {v}")
        return out


@dataclass(frozen=True)
class PenaltyConfig:
    """Quadratic energy penalty (Eq. form: objective + lambda * G * excess^2)
    or a hard rejection of infeasible decisions."""

    lambda_: float = 0.1
    mode: str = "penalty"  # one of PENALTY_MODES

    def __post_init__(self):
        if self.mode not in PENALTY_MODES:
            raise ValueError(f"unknown penalty mode {self.mode!r}")
        lam = self.lambda_
        number = isinstance(lam, (int, float, np.integer, np.floating)) and not isinstance(lam, bool)
        # an int past the float range would only overflow when scored
        if self.mode == "penalty" and not (number and 0 < lam <= float(np.finfo(float).max)):
            raise ValueError(f"lambda must be a finite number > 0 in penalty mode, got {lam!r}")


def _penalty(mode: str, lambda_) -> PenaltyConfig:
    """A run's penalty; hard mode reads no lambda and keeps the default."""
    return PenaltyConfig(mode=mode) if mode == "hard" else PenaltyConfig(lambda_, mode)


@dataclass(frozen=True)
class ScheduleResult:
    arrival_s: Mapping[Tuple[int, int], float]
    ready_s: Mapping[Tuple[int, int], float]
    start_s: Mapping[Tuple[int, int], float]
    finish_s: Mapping[Tuple[int, int], float]
    exec_s: Mapping[Tuple[int, int], float]
    upload_s: Mapping[Tuple[int, int], float]
    forward_s: Mapping[Tuple[int, int], float]
    executor: Mapping[Tuple[int, int], int]
    makespan_s: Mapping[int, float]
    task_upload_s: Mapping[int, float]
    uplink_rate_bps: Mapping[int, float]  # per active user, under the split
    energy: EnergyLedger
    objective_s: float
    penalized_s: Optional[float]
    feasible: bool


def decision_order(scenario: Scenario) -> List[Tuple[int, int]]:
    """Flat (user, sub-task) layout of the merged decision vector:
    active users by ascending id, sub-tasks by ascending index."""
    order = []
    for t in sorted(scenario.tasks, key=lambda t: t.owner_user):
        order.extend((t.owner_user, j) for j in sorted(s.index for s in t.non_dummy()))
    return order


def decision_from_vector(scenario: Scenario, values: Sequence[int]) -> OffloadDecision:
    """Build a decision from the flat solver vector of 1-based UAV slots."""
    uav_ids = sorted(v.id for v in scenario.uavs)
    order = decision_order(scenario)
    if len(values) != len(order):
        raise ValueError(f"vector length {len(values)} != {len(order)} sub-tasks")
    # an entry per active user, also for a task with no sub-task to place
    x: Dict[int, List[int]] = {u: [] for u in sorted(t.owner_user for t in scenario.tasks)}
    for (u, j), val in zip(order, values):
        # the rule of Evaluator._slot_matrix: 1.7 is not read as slot 1
        if isinstance(val, bool) or not isinstance(val, (int, np.integer)):
            raise ValueError(f"slot value {val!r} is not an integer")
        k = int(val)
        if not 1 <= k <= len(uav_ids):
            raise ValueError(f"slot value {k} outside [1, {len(uav_ids)}]")
        x[u].append(uav_ids[k - 1])
    return OffloadDecision({u: tuple(vals) for u, vals in x.items()})


def decision_to_vector(scenario: Scenario, decision: OffloadDecision) -> Tuple[int, ...]:
    uav_slot = {v: i + 1 for i, v in enumerate(sorted(v.id for v in scenario.uavs))}
    return tuple(uav_slot[decision.x[u][j - 1]] for u, j in decision_order(scenario))


class _Node(NamedTuple):
    """The plan of one non-dummy sub-task: everything both kernels read
    about it that neither the decision nor the uplink split changes."""

    col: int                # decision column
    h: float                # input bits
    cycles: float           # cycles per bit
    fwd: List[float]        # forwarding time per executor slot
    # (position, payload) per predecessor: position 0 is the dummy root,
    # i + 1 the user's i-th node in visiting order; payload holds the
    # bits the edge carries from UAV to UAV, None when it carries none
    preds: List[Tuple[int, Optional[float]]]
    index: int              # sub-task index


class _User(NamedTuple):
    """One active user and the plans of its sub-tasks."""

    user: UserNode
    assoc: int              # slot of the associated UAV
    release: float
    nodes: Tuple[_Node, ...]  # in visiting order


class _Uplink(NamedTuple):
    """What one active user's share of the uplink sets; per node means
    per node of its plan, in visiting order."""

    arrival: List[float]    # per node: arrival before the forwarding hop
    upload: List[float]     # per node: upload time
    task_upload: float
    span_base: float        # task upload plus the status report
    rate: float             # uplink rate, bits per second


class _Plan:
    """Everything an Evaluator reads of its scenario that no bandwidth
    split, upload model, energy budget or penalty changes: the UAV ids
    in slot order (slot i + 1 is uav_ids[i]), per-UAV constants, the
    inverse inter-UAV rates and each active user's sub-task plans. It
    holds no budget, so the Evaluators of scenarios that differ only in
    energy budgets can share one. Building it validates the scenario,
    unless checked says it passed validate_scenario already (as
    load_scenario's do): ValueError lists every violation reported.

    The population kernel's state lives here too: the layout, compiled
    on the first array pass on the plan, and the scratch for the N of
    the last pass, which holds nothing a split sets. Evaluators sharing
    the plan share both, and so one thread."""

    def __init__(self, scenario: Scenario, checked: bool = False):
        problems = [] if checked else validate_scenario(scenario)
        if problems:
            raise ValueError("invalid scenario: " + "; ".join(problems))
        ph = scenario.physics
        self.kappa = ph.effective_switched_capacitance
        self.layout: Optional[_Layout] = None
        self.scratch: Optional[_Scratch] = None
        uavs = sorted(scenario.uavs, key=lambda v: v.id)
        self.uav_ids = [v.id for v in uavs]
        self.slot_of = {v.id: i + 1 for i, v in enumerate(uavs)}
        self.fmax = [v.max_compute_hz for v in uavs]
        self.p_fwd_w = [channel.dbm_to_watts(v.tx_power_u2u_dbm) for v in uavs]
        self.hover_p = [hover_power_w(v, ph) for v in uavs]
        self.report_t = [v.info_payload_bits / channel.u2b_rate(v, scenario.bs_position_m, ph)
                         for v in uavs]
        self.report_e = [channel.dbm_to_watts(v.tx_power_to_bs_dbm) * t_b
                         for v, t_b in zip(uavs, self.report_t)]

        # inverse inter-UAV rates; diagonal zero makes co-located transfers free
        self.inv_uu = [[0.0 if a == b else 1.0 / channel.u2u_rate(va, vb, ph)
                        for b, vb in enumerate(uavs)] for a, va in enumerate(uavs)]

        # per active user, a plan of its sub-tasks in visiting order
        self.users: List[_User] = []
        self.h_cols: List[float] = []  # input bits per decision column
        for t in sorted(scenario.tasks, key=lambda t: t.owner_user):
            user = scenario.user_by_id(t.owner_user)
            assoc = self.slot_of[user.associated_uav] - 1
            subs = {s.index: s for s in t.sub_tasks}
            offset = len(self.h_cols)
            self.h_cols.extend(subs[j].input_size_bits for j in range(1, len(subs)))
            inv_row = self.inv_uu[assoc]
            pos = {0: 0}
            nodes: List[_Node] = []
            # the dummy root, 0, comes first: it is the smallest index and
            # has no predecessor
            for j in topological_order(t)[1:]:
                s = subs[j]
                fwd = [s.input_size_bits * r for r in inv_row]
                fwd[assoc] = 0.0
                # positional: keywords double the cost of building a _Node;
                # the dummy root's edges carry nothing between UAVs
                nodes.append(_Node(offset + j - 1, s.input_size_bits, s.cycles_per_bit, fwd, [
                    (pos[p], bits if bits > 0.0 and p != 0 else None) for p, bits in s.predecessors
                ], j))
                pos[j] = len(nodes)
            self.users.append(_User(user, assoc, t.release_time_s, tuple(nodes)))

    def compile(self) -> _Layout:
        """Lays the plan out as the arrays of _Layout, once."""
        M = len(self.h_cols)
        nodes, user, depth, parents, user_pos = [], [], [], [], []
        for ui, u in enumerate(self.users):
            first = len(nodes)  # visit position of the user's first node
            user_pos.append(range(first, first + len(u.nodes)))
            for node in u.nodes:
                # parent visit position, or None for the dummy root; the
                # parents whose edge carries a payload first
                ins = [(first + q - 1 if q else None, pay) for q, pay in node.preds]
                ins.sort(key=lambda edge: edge[1] is None)
                depth.append(max((depth[p] + 1 for p, _ in ins if p is not None), default=0))
                parents.append(ins)
                nodes.append(node)
                user.append(ui)

        # finish table: nodes by (level, visit position), then the dummies
        order = sorted(range(M), key=lambda i: (depth[i], i))
        ft_row = {i: r for r, i in enumerate(order)}
        levels = []
        pay_src, pay_dst, pay_bits, pay_slot = [], [], [], []
        lo = g0 = 0
        for _, level in itertools.groupby(order, key=depth.__getitem__):
            level = list(level)
            n = len(level)
            hi = lo + n
            k = 1 + max(len(parents[i]) for i in level)
            # row 0 is each node's own row, holding its arrival; then per
            # parent its finish time, or the release time of the dummy
            # root; padded with the node's own row
            gather = np.tile(np.arange(lo, hi, dtype=np.intp), (k, 1))
            for r, i in enumerate(level):
                for e, (p, pay) in enumerate(parents[i], start=1):
                    gather[e, r] = M + user[i] if p is None else ft_row[p]
                    if pay is not None:
                        # transfer-block row of gathered row e * n + r
                        pay_slot.append(g0 + (e - 1) * n + r)
                        pay_src.append(p)
                        pay_dst.append(i)
                        pay_bits.append(pay)
            # payload parents come first, so the slots fill rows 1:1 + kp
            kp = max(sum(pay is not None for _, pay in parents[i]) for i in level)
            pay = (g0, g0 + kp * n) if kp else None
            levels.append((lo, hi, gather.ravel(), k, pay))
            lo = hi
            g0 += kp * n
        user_rows, user_bounds = [], []
        for ui, positions in enumerate(user_pos):
            lo = len(user_rows)
            user_rows.append(M + ui)
            user_rows.extend(ft_row[i] for i in positions)
            user_bounds.append((lo, len(user_rows)))

        assoc = [self.users[ui].assoc for ui in user]
        self.layout = _Layout(
            fmax=np.array(self.fmax, dtype=float),
            report_e=np.array(self.report_e, dtype=float),
            hover_p=np.array(self.hover_p, dtype=float),
            inv_uu=np.array(self.inv_uu, dtype=float).ravel(),
            kappa=self.kappa,
            cols=np.array([node.col for node in nodes], dtype=np.intp),
            h_visit=np.array([node.h for node in nodes], dtype=float),
            cycles=np.array([node.cycles for node in nodes], dtype=float),
            h_fmax=np.array([node.h * f for node in nodes for f in self.fmax], dtype=float),
            fwd=np.array([node.fwd for node in nodes], dtype=float).ravel(),
            user=np.array(user, dtype=np.intp),
            assoc=np.array(assoc, dtype=np.intp),
            p_fwd=np.array([self.p_fwd_w[a] for a in assoc], dtype=float),
            level_order=np.array(order, dtype=np.intp),
            pay_src=np.array(pay_src, dtype=np.intp),
            pay_dst=np.array(pay_dst, dtype=np.intp),
            pay_bits=np.array(pay_bits, dtype=float),
            pay_slot=np.array(pay_slot, dtype=np.intp),
            levels=tuple(levels),
            pay_rows=g0,
            user_rows=np.array(user_rows, dtype=np.intp),
            user_bounds=tuple(user_bounds),
            release=np.array([u.release for u in self.users], dtype=float),
            user_assoc=tuple(u.assoc for u in self.users),
        )
        return self.layout


@dataclass(frozen=True)
class _Layout:
    """A plan laid out for the population kernel, whose arrays are
    node-major: one row per node (or user, or payload edge), one column
    per decision. Node rows run over the M sub-tasks in visiting order:
    users ascending, then each task's topological order (the order the
    scalar kernel accumulates energy and spans in); slots index the
    decision column of each node. The per-node, per-edge and per-user
    values here are flat; _Scratch spreads each one a ufunc reads over
    a full row of N. No split sets any of them: the arrivals, task
    uploads and span bases are the Evaluator's (Evaluator._compile).

    Ready times live in an (M + U, N) finish-time table: the nodes
    grouped by level, then one row per user holding the release time
    of its dummy root. A node's level is one more than its deepest
    non-dummy parent's, so the ready times of one level need only the
    finish times of earlier levels. Each level gathers a (k, width)
    block of finish-table rows: its nodes' own rows, holding their
    arrival, then per node the rows of its parents, those whose edge
    carries a payload first, padded with the node's own row. A payload
    parent's finish time still lacks the transfer, which a per-call
    block adds: one row per payload slot of a level, 0.0 at the slots
    of parents that send nothing.
    """

    fmax: np.ndarray         # (V,) per slot: max compute
    report_e: np.ndarray     # (V,) status report energy
    hover_p: np.ndarray      # (V,) hover power
    inv_uu: np.ndarray       # (V*V,) inverse inter-UAV rate, row = sender
    kappa: float
    cols: np.ndarray         # (M,) decision column of each visited node
    h_visit: np.ndarray      # (M,) input bits
    cycles: np.ndarray       # (M,) cycles per bit
    h_fmax: np.ndarray       # (M*V,) h times each slot's max compute
    fwd: np.ndarray          # (M*V,) forwarding time per (node, slot)
    user: np.ndarray         # (M,) user index of each node
    assoc: np.ndarray        # (M,) associated slot of the node's user
    p_fwd: np.ndarray        # (M,) forwarding power of that slot
    level_order: np.ndarray  # (M,) visit position of each finish-table node
    pay_src: np.ndarray      # (E,) per payload edge: parent visit position
    pay_dst: np.ndarray      # (E,) child visit position
    pay_bits: np.ndarray     # (E,) dependency payload
    pay_slot: np.ndarray     # (E,) row of the edge in the transfer block
    # per level (lo, hi, gather, k, pay): its nodes are finish-table rows
    # lo:hi; gather is a (k, hi - lo) block of rows, flattened; pay is
    # None, or the transfer-block rows (g0, g1) that the gathered rows
    # from hi - lo on take, one row per payload slot
    levels: Tuple[tuple, ...]
    pay_rows: int            # rows of the transfer block
    user_rows: np.ndarray    # finish-table rows per user: dummy, nodes
    user_bounds: Tuple[Tuple[int, int], ...]  # (U,) each user's entries
                             # lo:hi in user_rows
    release: np.ndarray      # (U,) release time per user
    user_assoc: Tuple[int, ...]  # (U,) associated slot of each user


class _Scratch:
    """Work arrays of the population kernel for exactly n decisions, kept
    on a plan and shared by every Evaluator on it, each a C-contiguous
    (width, n) block of rows, one row per node, payload edge, transfer
    slot or user, so every per-node gather and every level's max moves
    whole contiguous rows. The split-free, decision-independent rows are
    filled here, once: every per-node and per-edge operand a ufunc
    reads, each repeated over a full row of n (a ufunc that broadcasts a
    column or a row runs through numpy's buffered iterator, at about
    twice the cost), the release-time rows of the finish table ft, the
    0.0 rows of the transfer block pay, and the flat cell offsets. No
    row depends on a split, so no Evaluator can read another's: the
    operands a split sets are read from the scorer's own (_Scoring).

    All of them are rows of one allocation. glibc maps a large block
    fresh and, once it has unmapped one, keeps blocks up to that size
    on its heap; so the scratch of each later plan reuses pages already
    touched, where one allocation per array faulted in several hundred
    pages per scratch, at about 2 us each on a 2-vCPU VM."""

    def __init__(self, t: _Layout, n: int):
        M, E, U, V = len(t.cols), len(t.pay_bits), len(t.release), len(t.fmax)
        G = max(len(gather) for _, _, gather, _, _ in t.levels)  # gathered rows
        floats = dict(
            exec_t=M, fwd_t=M, share=M, work=M, h=M, h_visit=M, cycles=M, p_fwd=M,
            ft=M + U, by_user=M + U, last=U, release=U,
            edge=E, pay_bits=E, pay=t.pay_rows, tp=G,
        )
        ints = dict(cells=M, cellv=M, sv=M, fwd_row=M, cell=M, fwd_cell=M, ucell=M,
                    src=E, dst=E, row_of=U)
        block = np.empty((sum(floats.values()) + sum(ints.values()), n))
        at = 0
        for name, width in [*floats.items(), *ints.items()]:
            rows = block[at:at + width]
            setattr(self, name, rows if name in floats else rows.view(np.intp))
            at += width
        self.n = n

        for name in ("h_visit", "cycles", "p_fwd", "pay_bits", "release"):
            getattr(self, name)[:] = getattr(t, name).reshape(-1, 1)
        self.h[t.cols] = self.h_visit  # decision order
        self.ft[M:] = self.release
        self.pay.fill(0.0)
        col = np.arange(n, dtype=np.intp)
        self.fwd_row[:] = np.arange(0, M * V, V).reshape(-1, 1)
        self.cell[:] = col * V
        np.add(self.cell, t.assoc.reshape(-1, 1), out=self.fwd_cell)
        np.add(col * U, t.user.reshape(-1, 1), out=self.ucell)
        self.row_of[:] = col
        # per level, every view its step reads and writes: the gathered
        # rows, those that take a transfer and the transfers, the
        # gathered rows as (k, width, n), the level's finish-table rows
        # and their execution times (level order, in share)
        self.levels = []
        for lo, hi, gather, k, pay in t.levels:
            g = self.tp[:len(gather)]
            landed = sent = None
            if pay is not None:
                g0, g1 = pay
                landed, sent = g[hi - lo:hi - lo + g1 - g0], self.pay[g0:g1]
            self.levels.append((
                gather, g, landed, sent, g.reshape(k, hi - lo, n),
                self.ft[lo:hi], self.share[lo:hi],
            ))
        # per user, its rows of by_user and of last
        self.users = [(self.by_user[lo:hi], self.last[u]) for u, (lo, hi) in enumerate(t.user_bounds)]


class _Scoring:
    """The array pass and the budget and penalty rules, over a plan and
    the operands of an Evaluator, or of a _Stack of them, each shaped to
    broadcast against the pass's arrays: _split's arrivals before the
    hop in finish-table order (M, 1 or N), task uploads (U, 1 or N) and
    span bases (U or N x U); the budgets _budget and the caps an excess
    is taken from _cap (V or N x V); the penalty lambda _lam (a number
    or an (N, 1) column) and mode _mode, None for no penalty."""

    def fitness_many(self, population) -> np.ndarray:
        """fitness of each row of an (N, M) matrix of 1-based slots, as
        an (N,) array equal bit for bit to calling fitness row by row."""
        return self._penalize(*self._score_many(population))

    def objective_and_feasible_many(self, population) -> Tuple[np.ndarray, np.ndarray]:
        """objective_and_feasible of each row of an (N, M) slot matrix:
        (N,) objectives and (N,) feasibility flags."""
        objective, totals = self._score_many(population)
        return objective, self._feasible(totals)

    def _feasible(self, totals: np.ndarray) -> np.ndarray:
        """The budget rule, over the last axis of per-UAV energy totals:
        feasible exactly when every total is at most its budget, so a
        NaN total is infeasible."""
        return (totals <= self._budget).all(axis=-1)

    def _penalize(self, objective, totals: np.ndarray):
        """The objective under the penalty: hard mode rejects exactly the
        infeasible decisions; penalty mode adds lambda * excess^2 UAV by
        UAV in slot order, and HARD_REJECT for a NaN total. An excess is
        taken only over a finite budget: an unlimited one has a NaN cap,
        so no total, infinite ones included, costs anything there.
        objective is (N,) or a scalar, totals (N, V) or (V,)."""
        if self._mode is None:
            return objective
        if self._mode == "hard":
            return np.where(self._feasible(totals), objective, HARD_REJECT)
        over = totals - self._cap
        surcharge = np.where(over > 0.0, self._lam * over * over, np.isnan(totals) * HARD_REJECT)
        for i in range(self._V):
            objective = objective + surcharge[..., i]
        return objective

    def _slot_matrix(self, population) -> np.ndarray:
        """population as an intp array; ValueError unless it is an (N, M)
        integer matrix of slots in [1, V]. Neither kernel checks its
        indices (the scalar one would read a 0 slot as the last UAV), so
        this check is what keeps a bad slot from scoring as some other
        decision."""
        pop = np.asarray(population)
        if pop.dtype.kind not in "iu" or pop.ndim != 2 or pop.shape[1] != self._m or (
            pop.size and (pop.min() < 1 or pop.max() > self._V)
        ):
            raise ValueError(
                f"decisions must be length-{self._m} vectors, or an (N, {self._m}) "
                f"matrix of them, of slots in [1, {self._V}]"
            )
        return pop.astype(np.intp, copy=False)

    def _score_many(self, population) -> Tuple[np.ndarray, np.ndarray]:
        """Population kernel over an (N, M) slot matrix, checked by
        _slot_matrix: (N,) objectives and (N, V) energy totals.

        Every float is produced by the same operations, in the same
        order, as in _core. The work runs node-major, on (width, N)
        scratch rows. Per-cell sums use np.bincount, which adds its
        weights one by one in array order; the flat weights run node by
        node in the scalar visiting order, so each cell's weights arrive
        in that order, and adding the 0.0 weights of nodes that do not
        belong to a cell leaves a sum unchanged. Ready times take a max,
        which does not depend on order. Both returned arrays are fresh.
        """
        pop = self._slot_matrix(population)
        if not len(pop):  # np.bincount of no weights returns integers
            return np.zeros(0), np.zeros((0, self._V))
        plan = self._plan
        t = plan.layout if plan.layout is not None else plan.compile()
        arrival, task_upload, span_base = self._split or self._compile(t)
        s = plan.scratch
        if s is None or s.n != len(pop):
            s = plan.scratch = _Scratch(t, len(pop))
        totals = self._energy_many(t, s, pop, span_base)
        return self._objective_many(t, s, arrival, task_upload), totals

    def _energy_many(self, t: _Layout, s: _Scratch, pop, span_base) -> np.ndarray:
        """Writes the per-node execution and forwarding times (visiting
        order) into s.exec_t and s.fwd_t and the 0-based slots into s.sv;
        returns fresh (N, V) per-UAV energy totals."""
        N = s.n
        V = self._V
        U = len(t.release)
        # _slot_matrix keeps every index in range, so no take needs the
        # default mode="raise", which would copy its output. pop is read
        # once, into sv as its transpose, 0-based (sv is rewritten below),
        # so no later ufunc reads a strided operand
        np.subtract(pop.T, 1, out=s.sv)
        np.add(s.sv, s.cell, out=s.cells)  # flat (decision, slot) cell per column
        tot = np.bincount(s.cells.ravel(), s.h.ravel(), N * V).reshape(N, V)

        s.cells.take(t.cols, axis=0, out=s.cellv, mode="clip")
        np.subtract(s.cellv, s.cell, out=s.sv)  # 0-based slots in visiting order
        (tot / t.fmax).ravel().take(s.cellv, out=s.exec_t, mode="clip")
        s.exec_t *= s.cycles
        node = s.cells  # (node, slot) entry of fwd and h_fmax; cells is spent
        np.add(s.sv, s.fwd_row, out=node)
        t.fwd.take(node, out=s.fwd_t, mode="clip")
        share, work = s.share, s.work
        t.h_fmax.take(node, out=share, mode="clip")
        tot.ravel().take(s.cellv, out=work, mode="clip")
        del tot
        share /= work
        np.multiply(t.kappa, share, out=work)  # the energy of each node
        work *= share
        work *= s.cycles
        work *= s.h_visit
        totals = np.bincount(s.cellv.ravel(), work.ravel(), N * V).reshape(N, V)
        np.multiply(s.p_fwd, s.fwd_t, out=work)
        totals += np.bincount(s.fwd_cell.ravel(), work.ravel(), N * V).reshape(N, V)
        totals += t.report_e

        # the local execution times, then the remote hop-plus-execution
        # times, each 0.0 elsewhere as np.where would give: times are
        # finite and >= 0 and a local node's forwarding time is 0.0, so
        # exec * (slot == assoc) and (fwd + exec) minus that are exact;
        # a node runs at its associated slot where its cell is fwd_cell
        local = share
        np.equal(s.cellv, s.fwd_cell, out=local)
        np.multiply(s.exec_t, local, out=work)
        span = np.bincount(s.ucell.ravel(), work.ravel(), N * U)
        remote = np.add(s.fwd_t, s.exec_t, out=share)
        remote -= work
        np.maximum(span, np.bincount(s.ucell.ravel(), remote.ravel(), N * U), out=span)
        span = span.reshape(N, U)
        span += span_base
        hover_t = np.zeros((N, V))  # the longest span among a UAV's users
        for u, a in enumerate(t.user_assoc):
            np.maximum(hover_t[:, a], span[:, u], out=hover_t[:, a])
        hover_t *= t.hover_p
        totals += hover_t
        return totals

    def _objective_many(self, t: _Layout, s: _Scratch, arrival, task_upload) -> np.ndarray:
        """Ready and finish times level by level, then the fresh (N,) mean
        of makespan plus upload time over users; arrival and task_upload
        are the scorer's (M, 1 or N) and (U, 1 or N) operands."""
        N = s.n
        M = len(t.cols)
        ft = s.ft  # rows M: hold the release times
        s.fwd_t.take(t.level_order, axis=0, out=s.work, mode="clip")
        np.add(arrival, s.work, out=ft[:M])
        # the execution times in level order, which s.levels reads
        s.exec_t.take(t.level_order, axis=0, out=s.share, mode="clip")
        # each payload edge's transfer time, into its slot of s.pay
        s.sv.take(t.pay_src, axis=0, out=s.src, mode="clip")
        s.src *= self._V
        s.sv.take(t.pay_dst, axis=0, out=s.dst, mode="clip")
        s.src += s.dst
        t.inv_uu.take(s.src, out=s.edge, mode="clip")
        s.edge *= s.pay_bits
        s.pay[t.pay_slot] = s.edge
        # the gathers go through scratch: a take whose output overlaps
        # its input copies the output
        for gather, g, landed, sent, block, fin, exec_t in s.levels:
            ft.take(gather, axis=0, out=g, mode="clip")
            if landed is not None:
                # x + 0.0 == x, so the slots of parents that send nothing
                # keep their finish times exactly
                np.add(landed, sent, out=landed)
            np.maximum.reduce(block, axis=0, out=fin)
            np.add(fin, exec_t, out=fin)
        ft.take(t.user_rows, axis=0, out=s.by_user, mode="clip")
        # one reduce per user: np.maximum.reduceat along axis 0 costs
        # about ten times as much
        f_last = s.last
        for rows, last in s.users:
            np.maximum.reduce(rows, axis=0, out=last)
        f_last -= s.release
        f_last += task_upload
        return np.bincount(s.row_of.ravel(), f_last.ravel(), N) / len(t.release)


class Evaluator(_Scoring):
    """The plan of a scenario (see the module docstring) plus what one
    bandwidth allocation, upload model, set of energy budgets and
    penalty settle; maps decision vectors to objectives.

    Construction builds the scenario's plan, which validates it, unless
    it is handed one, then applies the allocation and the upload model
    to each sub-task's upload time and arrival, so neither kernel reads
    either. The plan already applies the payload rule (an edge from a
    non-dummy parent with bits > 0 carries a UAV-to-UAV transfer).

    Two kernels read the plans and give bit-identical numbers: both add
    each UAV's input bits in decision-column order and every energy,
    span and finish time in visiting order. The scalar kernel scores one
    vector: fitness, objective_and_feasible and result use it.
    fitness_many and objective_and_feasible_many score an (N, M) matrix
    of 1-based slots, one decision per row, any N, 0 included, in one
    array pass whose numpy call count grows with DAG depth, not with N
    or M. The first such call on a plan lays it out as arrays, and the
    first on an Evaluator compiles its arrivals, task uploads and span
    bases. Every path applies one budget rule: a decision is feasible
    exactly when every energy total is at most its UAV's budget, and
    hard mode rejects exactly the infeasible decisions.

    The population kernel works node-major: its intermediates are
    (rows, N) arrays with one contiguous row of N values per sub-task,
    user or payload edge, so its gathers and per-level maxima move
    whole rows. Every method rejects a vector that is not M integer
    slots in [1, V], and a matrix whose rows are not. Construction
    rejects a scenario that validate_scenario faults, a bandwidth split
    that BandwidthAllocation.check faults and a scenario with no
    sub-task to place.

    The Evaluator holds no scratch: the array pass reuses its plan's,
    built for the N of the plan's last pass. The arrays these methods
    return are always fresh, so callers may keep them across calls. Not
    thread-safe (scratch is reused): build one Evaluator per thread, and
    keep the Evaluators that share a private _plan on one thread.
    """

    def __init__(
        self,
        scenario: Scenario,
        beta: BandwidthAllocation,
        penalty: Optional[PenaltyConfig] = None,
        upload_model: str = "cumulative",
        *,
        _plan: Optional[_Plan] = None,
    ):
        if upload_model not in UPLOAD_MODELS:
            raise ValueError(f"unknown upload model {upload_model!r}")
        # _plan: the plan of scenario, or of one differing only in budgets
        plan = self._plan = _Plan(scenario) if _plan is None else _plan
        if not plan.users:
            raise ValueError("scenario has no active users")
        problems = beta.check(scenario)
        if problems:
            raise ValueError("; ".join(problems))
        self.scenario = scenario
        self.beta = beta
        self.penalty = penalty
        self.upload_model = upload_model
        self._mode, self._lam = (None, None) if penalty is None else (penalty.mode, penalty.lambda_)
        self._V = len(plan.uav_ids)
        self._m = len(plan.h_cols)
        if self._m == 0:
            raise ValueError("scenario has no sub-task to place")
        uavs = sorted(scenario.uavs, key=lambda v: v.id)  # in slot order
        self._budget = np.array([v.energy_budget_j for v in uavs], dtype=float)
        # the budgets an excess is taken from: NaN where unlimited, so no
        # total can exceed one there and inf - inf is never computed
        self._cap = np.where(self._budget < math.inf, self._budget, math.nan)

        # per active user, what its share of the uplink sets
        self._uplinks: List[_Uplink] = []
        for user, assoc, release, nodes in plan.users:
            share = beta.fraction(user.associated_uav, user.id)
            rate_up = channel.user_uplink_rate(user, uavs[assoc], share, scenario.physics)
            if rate_up <= 0 and nodes:
                raise ValueError(f"user {user.id}: zero uplink rate on a required link")
            upload = [node.h / rate_up for node in nodes]
            if upload_model == "cumulative":
                # the inputs go up one after another in visiting order
                arrival = list(itertools.accumulate(upload, initial=release))[1:]
            else:
                arrival = [release + up for up in upload]
            task_upload = math.fsum(upload)
            self._uplinks.append(
                _Uplink(arrival, upload, task_upload, task_upload + plan.report_t[assoc], rate_up)
            )

        self._split: Optional[tuple] = None  # set by _compile

    @property
    def vector_length(self) -> int:
        return self._m

    def _core(self, vec):
        """The scalar kernel over one vector of 1-based slots, with no
        state kept between calls. Returns (objective, per-UAV energy
        totals, detail). detail, for result(), holds per node in visiting
        order its (arrival, ready, finish, execution and forwarding times,
        0-based executor slot), per user its makespan, then the per-UAV
        execution energy, forwarding energy and hover time."""
        V = self._V
        plan = self._plan
        tot = [0.0] * V  # input bits per UAV
        exec_e = [0.0] * V
        fwd_e = [0.0] * V
        hov_t = [0.0] * V

        # in column order, the order np.bincount adds them in _energy_many
        for v, h in zip(vec, plan.h_cols):
            tot[v - 1] += h
        fmax_arr = plan.fmax
        exec_unit = [tot[i] / fmax_arr[i] for i in range(V)]

        inv_uu = plan.inv_uu
        kappa = plan.kappa
        times, makespans = [], []

        obj_sum = 0.0
        for (_, assoc, trel, nodes), (arrivals, _, task_upload, span_base, _) in zip(
            plan.users, self._uplinks
        ):
            p_fwd = plan.p_fwd_w[assoc]
            # finish time and 0-based executor slot per position
            ft = [trel]
            sv = [assoc]
            f_last = trel
            loc_span = 0.0
            rem_span = 0.0
            for (col, h, cu, fwd, preds, _), arrival in zip(nodes, arrivals):
                v0 = vec[col] - 1
                fwd_t = fwd[v0]
                at = arrival + fwd_t
                rt = at
                for q, pay in preds:
                    tp = ft[q]
                    if pay is not None:
                        vp = sv[q]
                        if vp != v0:
                            tp += pay * inv_uu[vp][v0]
                    if tp > rt:
                        rt = tp
                exec_t = cu * exec_unit[v0]
                fin = rt + exec_t
                ft.append(fin)
                sv.append(v0)
                if fin > f_last:
                    f_last = fin

                f_share = h * fmax_arr[v0] / tot[v0]
                exec_e[v0] += kappa * f_share * f_share * cu * h
                if v0 == assoc:
                    loc_span += exec_t
                else:
                    fwd_e[assoc] += p_fwd * fwd_t
                    rem_span += fwd_t + exec_t
                times.append((at, rt, fin, exec_t, fwd_t, v0))
            makespan = f_last - trel
            obj_sum += makespan + task_upload
            span = span_base + (loc_span if loc_span >= rem_span else rem_span)
            if span > hov_t[assoc]:
                hov_t[assoc] = span
            makespans.append(makespan)

        objective = obj_sum / len(self._uplinks)
        totals = [
            exec_e[i] + fwd_e[i] + plan.report_e[i] + plan.hover_p[i] * hov_t[i]
            for i in range(V)
        ]
        return objective, totals, (times, makespans, exec_e, fwd_e, hov_t)

    def fitness(self, vec) -> float:
        """Penalized objective of an integer decision vector (1-based slots)."""
        return float(self._penalize(*self._score_one(vec)))

    def objective_and_feasible(self, vec) -> Tuple[float, bool]:
        objective, totals = self._score_one(vec)
        return objective, bool(self._feasible(totals))

    def _score_one(self, vec) -> Tuple[float, np.ndarray]:
        """One vector's objective and (V,) energy totals, by the scalar kernel."""
        objective, totals, _ = self._core(self._slot_matrix([vec])[0].tolist())
        return objective, np.array(totals)

    def _compile(self, t: _Layout) -> tuple:
        """The split's operands of the array pass, once: the arrivals
        before the forwarding hop in finish-table order and the task
        uploads, as (rows, 1) columns, and the (U,) span bases."""
        links = self._uplinks
        arrival = np.array([a for link in links for a in link.arrival])  # visiting order
        self._split = (arrival[t.level_order].reshape(-1, 1),
                       np.array([[link.task_upload] for link in links]),
                       np.array([link.span_base for link in links]))
        return self._split

    def result(self, decision: OffloadDecision) -> ScheduleResult:
        problems = decision.validate(self.scenario)
        if problems:
            raise ValueError("; ".join(problems))
        plan = self._plan
        slot_of = plan.slot_of
        vec = [slot_of[v] for u in plan.users for v in decision.x[u.user.id]]
        objective, totals, (times, makespans, exec_e, fwd_e, hov_t) = self._core(vec)

        uav_ids = plan.uav_ids
        arrival, ready, finish, exec_s, upload, forward, executor = ({} for _ in range(7))
        times = iter(times)
        for u, link in zip(plan.users, self._uplinks):
            for node, up in zip(u.nodes, link.upload):
                key = (u.user.id, node.index)
                arrival[key], ready[key], finish[key], exec_s[key], forward[key], v0 = next(times)
                upload[key] = up
                executor[key] = uav_ids[v0]
            key = (u.user.id, 0)  # the dummy root, at the user
            arrival[key] = ready[key] = finish[key] = u.release
            exec_s[key] = upload[key] = forward[key] = 0.0
            executor[key] = uav_ids[u.assoc]
        ledger = EnergyLedger(
            exec_j=dict(zip(uav_ids, exec_e)),
            forward_j=dict(zip(uav_ids, fwd_e)),
            report_j=dict(zip(uav_ids, plan.report_e)),
            hover_j={v: p * t for v, p, t in zip(uav_ids, plan.hover_p, hov_t)},
            total_j=dict(zip(uav_ids, totals)),
            hover_time_s=dict(zip(uav_ids, hov_t)),
            uplink_user_j={u.user.id: channel.dbm_to_watts(u.user.tx_power_dbm) * link.task_upload
                           for u, link in zip(plan.users, self._uplinks)},
        )

        totals_v = np.array(totals)
        penalized = None if self.penalty is None else float(self._penalize(objective, totals_v))
        return ScheduleResult(
            arrival_s=arrival,
            ready_s=ready,
            start_s=dict(ready),
            finish_s=finish,
            exec_s=exec_s,
            upload_s=upload,
            forward_s=forward,
            executor=executor,
            makespan_s={u.user.id: m for u, m in zip(plan.users, makespans)},
            task_upload_s={u.user.id: link.task_upload for u, link in zip(plan.users, self._uplinks)},
            uplink_rate_bps={u.user.id: link.rate for u, link in zip(plan.users, self._uplinks)},
            energy=ledger,
            objective_s=objective,
            penalized_s=penalized,
            feasible=bool(self._feasible(totals_v)),
        )


class _Stack(_Scoring):
    """Evaluators on one plan, under one penalty mode, scored as one
    population: the rows[i] rows of block i of a stacked matrix are
    scored as evaluators[i] scores them, under its split, budgets and
    lambda, laid out once per stack as per-row blocks."""

    def __init__(self, evaluators: Sequence[Evaluator], rows: Sequence[int]):
        first = evaluators[0]
        plan = self._plan = first._plan
        self._m, self._V, self._mode = first._m, first._V, first._mode
        t = plan.layout if plan.layout is not None else plan.compile()
        arrival, task_upload, span_base = zip(*(ev._split or ev._compile(t) for ev in evaluators))
        self._split = (np.repeat(np.hstack(arrival), rows, axis=1),
                       np.repeat(np.hstack(task_upload), rows, axis=1),
                       np.repeat(span_base, rows, axis=0))
        self._budget = np.repeat([ev._budget for ev in evaluators], rows, axis=0)
        self._cap = np.repeat([ev._cap for ev in evaluators], rows, axis=0)
        self._lam = None if self._mode != "penalty" else np.repeat(
            [float(ev._lam) for ev in evaluators], rows).reshape(-1, 1)


def evaluate(
    decision: OffloadDecision,
    beta: BandwidthAllocation,
    scenario: Scenario,
    penalty: Optional[PenaltyConfig] = None,
    upload_model: str = "cumulative",
) -> ScheduleResult:
    """One-shot schedule evaluation; see Evaluator for the batch path."""
    return Evaluator(scenario, beta, penalty, upload_model).result(decision)


def decision_latency_breakdown(result: ScheduleResult) -> Dict[str, float]:
    """Split the objective into forwarding (distributed) and the rest
    (computation); the parts sum to the total by construction."""
    dist = math.fsum(result.forward_s.values()) / len(result.makespan_s)
    return {
        "computation": result.objective_s - dist,
        "distributed": dist,
        "total": result.objective_s,
    }


def schedule_to_csv(result: ScheduleResult) -> str:
    """Schedule trace as CSV text (task,subtask,uav,AT,RT,ST,FT)."""
    buf = io.StringIO()
    buf.write("task,subtask,uav,AT,RT,ST,FT\n")
    for (u, j) in sorted(result.start_s):
        buf.write(
            f"{u},{j},{result.executor[(u, j)]},"
            f"{result.arrival_s[(u, j)]!r},{result.ready_s[(u, j)]!r},"
            f"{result.start_s[(u, j)]!r},{result.finish_s[(u, j)]!r}\n"
        )
    return buf.getvalue()

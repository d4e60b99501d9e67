"""Deterministic simulator and solvers for offloading dependency tasks
in a cooperative cluster of compute-carrying UAVs.

The package models users uploading DAG-structured tasks to an
associated UAV, which may farm sub-tasks out to neighbor UAVs,
schedules everything under precedence and channel constraints, prices
the UAV energy spend, and searches the offloading/bandwidth space with
a whale-style metaheuristic plus exact and baseline references.
"""

__version__ = "0.1.0"

from .scenario import (
    KB_BITS,
    MB_BITS,
    HoverParams,
    PhysicsConstants,
    Scenario,
    SubTask,
    TaskGraph,
    UavNode,
    UserNode,
    generate_scenario,
    generate_task_dag,
    load_scenario,
    save_scenario,
    topological_order,
    validate_scenario,
)
from .channel import (
    BandwidthAllocation,
    LinkBudget,
    a2g_path_loss,
    dbm_to_watts,
    los_probability,
    u2b_rate,
    u2u_path_loss,
    u2u_rate,
    user_uplink_rate,
)
from .timing import (
    ComputeShare,
    EnergyLedger,
    check_energy_feasible,
    compute_shares,
    hover_power_w,
)
from .evaluator import (
    HARD_REJECT,
    Evaluator,
    OffloadDecision,
    PenaltyConfig,
    ScheduleResult,
    decision_from_vector,
    decision_latency_breakdown,
    decision_to_vector,
    evaluate,
    schedule_to_csv,
)
from .solvers import (
    ALLOCATORS,
    DwoaConfig,
    NoFeasibleDecisionError,
    SolverRun,
    StateSpaceCapError,
    WoaCoefficients,
    WoaState,
    alloc_equal,
    alloc_optimal,
    alloc_proportional,
    alternating_solve,
    associated_decision,
    discretize,
    discretize_vector,
    dwoa_solve,
    exhaustive_solve,
    woa_init,
    woa_step,
)
from .experiments import (
    ExperimentSpec,
    ResultRow,
    emit_plot_data,
    generate_user_sweep_family,
    improvement_pct,
    rerun_from_manifest,
    rows_from_csv,
    rows_to_csv,
    run_experiment,
    summarize,
    with_unlimited_energy,
)

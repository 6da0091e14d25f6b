"""Deterministic simulator and verification harness for leader-follower
bounded-confidence opinion dynamics.

Agents hold opinions in R^d and average over epsilon-neighbors each step;
leader groups mix toward fixed targets, followers mix toward the leader
groups they can see. Every run can be checked against the model's
contraction, invariance, and convergence guarantees with measured slack.
"""

from .analysis import (
    CheckReport,
    MetricsRow,
    check_ball_invariance,
    check_consensus_bound,
    check_contraction,
    check_mixture_limit,
    check_subsystem_independence,
    check_target_envelope,
    check_target_envelope_all,
    max_target_distance,
    metrics_rows,
    opinion_diameter,
)
from .dynamics import (
    Trajectory,
    run,
    step,
)
from .errors import (
    NonFiniteState,
    ScenarioValidationError,
    ScheduleViolation,
    ValidationIssue,
)
from .model import (
    EngineOptions,
    Partition,
    Scenario,
    SystemState,
    build_scenario,
)
from .neighbors import compute_neighbors, neighbors_naive
from .scenario_io import load_scenario

__version__ = "0.1.0"

__all__ = [
    "CheckReport",
    "EngineOptions",
    "MetricsRow",
    "NonFiniteState",
    "Partition",
    "Scenario",
    "ScenarioValidationError",
    "ScheduleViolation",
    "SystemState",
    "Trajectory",
    "ValidationIssue",
    "build_scenario",
    "check_ball_invariance",
    "check_consensus_bound",
    "check_contraction",
    "check_mixture_limit",
    "check_subsystem_independence",
    "check_target_envelope",
    "check_target_envelope_all",
    "compute_neighbors",
    "load_scenario",
    "max_target_distance",
    "metrics_rows",
    "neighbors_naive",
    "opinion_diameter",
    "run",
    "step",
]

"""Exception types and validation records shared across the package."""

from __future__ import annotations

from dataclasses import dataclass

# Issue kinds emitted by scenario validation. Kept as plain strings so they
# serialize directly into CLI diagnostics.
DIMENSION_MISMATCH = "DimensionMismatch"
EPSILON_NONPOSITIVE = "EpsilonNonpositive"
PARTITION_INCOMPLETE = "PartitionIncomplete"
DEGREE_OUT_OF_RANGE = "DegreeOutOfRange"
BETA_SUM_EXCEEDS_ONE = "BetaSumExceedsOne"
NON_FINITE = "NonFinite"
MISSING_SCHEDULE = "MissingSchedule"
BAD_CONFIG = "BadConfig"


@dataclass(frozen=True)
class ValidationIssue:
    kind: str
    message: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.message}"


class ScenarioValidationError(ValueError):
    """Raised when a raw scenario config violates any model invariant.

    Carries every issue found, not just the first one.
    """

    def __init__(self, issues):
        self.issues = list(issues)
        super().__init__("; ".join(str(i) for i in self.issues))


class DimensionMismatch(ValueError):
    """Operands have incompatible dimensions."""


class ScheduleViolation(RuntimeError):
    """A degree schedule returned a value outside its contract at runtime."""


class NonFiniteState(RuntimeError):
    """A step produced an infinite or NaN opinion coordinate."""

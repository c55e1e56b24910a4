"""Exception hierarchy shared by all tagcascade modules.

The CLI maps these onto exit codes: UsageError -> 1, DataError -> 2,
anything else -> 3.
"""


class CascadeError(Exception):
    """Base class for all tagcascade errors."""


class UsageError(CascadeError):
    """Bad invocation: unknown flags, invalid parameter combinations, bad config."""


class DataError(CascadeError):
    """Input data violates a contract (malformed rows, missing ids, degenerate samples)."""


class MalformedRowError(DataError):
    def __init__(self, line_number, message):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


class UnknownIdError(DataError):
    """A user or tag label/handle does not resolve in the dataset."""


class NoAdoptionError(DataError):
    """The requested user has no first usage in the dataset."""


class UndefinedDensityError(DataError):
    """Density requested over a scope with fewer than two users."""


class UndefinedThresholdError(DataError):
    """Every adoption of the user has undefined exposure (no alters at any adoption time)."""


class DegenerateSampleError(DataError):
    """Power-law fitting requires at least two distinct sample values."""


class InsufficientTailError(DataError):
    """No cutoff leaves at least two samples in the fitted tail."""


class UndefinedCorrelationError(DataError):
    """Correlation undefined: one of the coordinates has zero variance."""


class UnsupportedModelError(DataError):
    """Recovery requested for a run whose model has no planted thresholds."""


class SnapshotFormatError(DataError):
    """Snapshot file is missing, truncated, structurally corrupt, or has the
    wrong magic/version."""

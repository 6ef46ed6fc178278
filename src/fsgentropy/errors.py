"""Exception types shared across the package.

Every error that a caller can trigger by violating an operation's
precondition gets its own class, so tests and callers can discriminate
without parsing messages.  All of them are ValueError subclasses.
"""


class FsgError(ValueError):
    """Base class for all package-specific errors."""


class AlphabetMismatch(FsgError):
    """Word alphabet does not match the declared (m, t) encoding."""


class AlphabetOverflow(FsgError):
    """Power-system alphabet m**t exceeds the supported size."""


class WordTooShort(FsgError):
    """Word has fewer symbols than the operation needs."""


class KZero(FsgError):
    """Bowen horizon k must be at least 1."""


class DepthExhausted(FsgError):
    """A truncated binary point was asked for a coordinate beyond its depth."""


class CarryOverflow(FsgError):
    """Odometer carry did not resolve within the truncated prefix."""


class InvalidEpsilon(FsgError):
    """Radius epsilon must be strictly positive."""


class CenterNotInSample(FsgError):
    """Ball center must be one of the empirical sample points."""


class WindowTooSmall(FsgError):
    """Limit extraction needs at least three rows inside the window."""


class ConfigInvalid(FsgError):
    """Experiment config failed validation; carries the offending field."""

    def __init__(self, field, reason):
        super().__init__(f"config field {field!r}: {reason}")
        self.field = field
        self.reason = reason


class SystemUnknown(FsgError):
    """Requested system name is not registered."""


class EstimatorUnknown(FsgError):
    """Requested estimator kind is not recognised."""


class IoFailure(FsgError):
    """Result emission failed at the filesystem level."""

"""Exception types shared across the package."""


class TraceError(Exception):
    """Base class for all library errors."""


class DimensionError(TraceError):
    """Vector dimensions do not agree."""


class DegenerateGeometry(TraceError):
    """A geometric operation received an input with no usable direction."""


class ConfigError(TraceError):
    """Invalid configuration value."""


class CorpusError(TraceError):
    """Reference corpus cannot be built or queried."""


class TargetError(TraceError):
    """No usable counterfactual target is available."""


class TrajectoryError(TraceError):
    """Trajectory too short or otherwise unusable."""


class ImputeError(TraceError):
    """A column cannot be imputed with the available statistics."""


class StatsError(TraceError):
    """Statistical test preconditions not met."""


class AggregateError(TraceError):
    """Score aggregation over an empty series."""

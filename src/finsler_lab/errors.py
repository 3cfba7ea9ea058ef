"""Exception hierarchy shared by every finsler_lab module."""


class FinslerError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(FinslerError):
    """Inputs with incompatible coordinate dimensions."""


class NonConvexWind(FinslerError):
    """Wind with h(W,W) >= 1 - 1e-6; the travel-time norm degenerates."""


class ZeroVector(FinslerError):
    """Tensor or norm derivative requested on the zero section."""


class SingularTensor(FinslerError):
    """Tensor not positive definite (singular or indefinite) where a solve needs it."""


class NoSpray(FinslerError):
    """Geodesic spray requested of a metric without a closed form for it."""


class NoConvergence(FinslerError):
    """Newton iteration exhausted its budget without meeting tolerance."""


class CriticalPoint(FinslerError):
    """Gradient direction requested where the differential vanishes."""


class NotCritical(FinslerError):
    """Critical-point-only operation called at a regular point."""


class LeftDomain(FinslerError):
    """Trajectory stepped outside the declared chart domain."""

    def __init__(self, message, point=None, time=None):
        super().__init__(message)
        self.point = point
        self.time = time


class NeverReached(FinslerError):
    """Level-crossing target not attained within the integration budget."""

    def __init__(self, message, march=None):
        super().__init__(message)
        self.march = march


class EmptySample(FinslerError):
    """No usable sample points after filtering."""


class IntervalContainsCriticalValue(FinslerError):
    """Distance-formula interval straddles a critical value of f."""


class NoCriticalPoint(FinslerError):
    """Critical-point search failed from every seed."""


class LevelNotFound(FinslerError):
    """Requested level value is not attained on the sampled domain."""


class ParseError(FinslerError):
    """Scenario or expression text is not well-formed."""

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}, column {column})" if column is not None else f" (line {line})"
        super().__init__(message + loc)
        self.message = message
        self.line = line
        self.column = column


class ValidationError(FinslerError):
    """Scenario parsed but violates a semantic constraint."""


class EvalError(FinslerError):
    """Expression evaluation left its real domain (sqrt/ln/division)."""

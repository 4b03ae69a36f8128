"""Exception types raised by the lagspec pipeline."""


class LagspecError(Exception):
    """Base class for all lagspec errors."""


class ParseError(LagspecError):
    """Input file is malformed (ragged rows, bad numbers, uneven sampling)."""


class NonPositiveCount(LagspecError):
    """A traffic count is <= 0, which the log rate change cannot handle."""


class TooShort(LagspecError):
    """Input has too few samples for the requested operation."""


class ZeroVariance(LagspecError):
    """A constant-rate series cannot be normalized to unit variance."""


class LagTooLarge(LagspecError):
    """Requested lag exceeds half the record length."""


class CorrelationOutOfRange(LagspecError):
    """A lagged correlation entry lies outside [-1, 1]."""


class ConvergenceFailure(LagspecError):
    """The symmetric eigensolver failed or produced an inaccurate result."""


class NotNormalized(LagspecError):
    """Vector is not unit-norm."""


class DegenerateAspect(LagspecError):
    """Record length must exceed the matrix dimension for spectral bounds."""


class IndexOutOfRange(LagspecError):
    """Spectral position outside 0..n-1."""


class UnknownSeries(LagspecError):
    """An injection targets a series id that does not exist."""


class WindowOutOfRange(LagspecError):
    """Injection window falls outside the record."""


class LengthMismatch(LagspecError):
    """Spectra being compared come from trajectories of different lengths."""


class ConfigInvalid(LagspecError):
    """A configuration object violates its invariants."""


class WriteFailed(LagspecError):
    """A run directory could not be written or moved into place."""

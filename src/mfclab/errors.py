"""Exception hierarchy shared by all mfclab modules."""


class MFCLabError(Exception):
    """Base class for all mfclab errors."""


class NotNormalized(MFCLabError):
    """A density or weight vector does not have unit total mass."""


class ResolutionTooLow(MFCLabError):
    """Grid resolution cannot represent the requested Fourier content."""


class EmptyPointSet(MFCLabError):
    """An empirical measure was requested from zero points."""


class DimensionMismatch(MFCLabError):
    """Operands disagree in dimension or cutoff."""


class DimensionUnsupported(MFCLabError):
    """The operation is only implemented for specific dimensions."""


class BudgetExceeded(MFCLabError):
    """An exact transport solve would exceed the LP budget."""


class NonConvergence(MFCLabError):
    """An iterative solver failed to reach its tolerance."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class ContractionViolated(MFCLabError):
    """Fixed-point solver requested outside its contraction regime."""


class LowerBoundViolated(MFCLabError):
    """Base measure density dips below the fixed-point threshold."""

    def __init__(self, message, threshold=None, observed_min=None):
        super().__init__(message)
        self.threshold = threshold
        self.observed_min = observed_min


class NoDerivative(MFCLabError):
    """The functional does not expose a flat derivative."""


class CFLViolation(MFCLabError):
    """Requested time step is unstable for the explicit term."""

    def __init__(self, message, stable_dt=None):
        super().__init__(message)
        self.stable_dt = stable_dt


class SamplingFailure(MFCLabError):
    """Density too rough to sample from."""


class DegeneratePoints(MFCLabError):
    """Log-log fit received points with no spread in x."""


class ConfigError(MFCLabError):
    """Experiment configuration is malformed or has unknown keys."""

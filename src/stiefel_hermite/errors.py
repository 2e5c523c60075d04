"""Exception types shared across the package.

Precondition-style failures derive from ``ValueError`` so that bad inputs
and bad configuration are distinguishable from numerical breakdowns, which
derive from ``ConvergenceError``.
"""


class ShapeError(ValueError):
    """Matrix dimensions are inconsistent with the operation."""


class DomainError(ValueError):
    """Input is outside the mathematical domain of the operation."""


class PreconditionError(ValueError):
    """A documented precondition on the input data is violated."""


class ConvergenceError(RuntimeError):
    """An iterative or finite-difference process failed numerically."""


class StiefelLogError(ConvergenceError):
    """The iterative Stiefel logarithm did not converge, or its result is not certified.

    At n > r a converged result of canonical norm at least pi / sqrt(5/4)
    is refused: past that length a geodesic may have a conjugate point.

    Carries the iteration count and the last observed residual so callers
    can report how far the algorithm got before giving up.
    """

    def __init__(self, message, iterations, residual):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class VelocityTransportError(ConvergenceError):
    """A logarithm inside the velocity-transport central difference failed.

    ``side`` is "+h" or "-h", naming the offset evaluation that broke.
    """

    def __init__(self, message, side):
        super().__init__(message)
        self.side = side


class ArcFitError(ConvergenceError):
    """Fitting a spline arc failed; identifies the offending subinterval."""

    def __init__(self, message, t0, t1):
        super().__init__(message)
        self.t0 = t0
        self.t1 = t1


class TangentMapError(ConvergenceError):
    """Mapping samples into a single tangent space failed for some samples."""

    def __init__(self, message, failed_indices):
        super().__init__(message)
        self.failed_indices = tuple(failed_indices)

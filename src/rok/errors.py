"""Exception types shared across the suite."""


class SingularMatrixError(Exception):
    """A pivot fell below the scale-relative threshold during factorization."""


class ZeroStartVectorError(Exception):
    """The Arnoldi start vector has (numerically) zero norm."""


class JvpFailureError(Exception):
    """The user-supplied linearization or its Jacobian-vector product raised or
    returned non-finite data."""


class NonFiniteError(Exception):
    """A stage produced NaN/Inf; signals the driver to shrink the step."""


class StepSizeUnderflowError(Exception):
    """The step controller pushed h below its time resolution while a step
    was still needed (see integrate.control)."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


class DimensionMismatchError(ValueError):
    """Vector/matrix sizes are inconsistent with the factorization or basis."""

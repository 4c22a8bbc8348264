"""Exception types shared across the suite, and the finiteness test behind
NonFiniteError and JvpFailureError."""

import math

import numpy as np


def all_finite(x: np.ndarray) -> bool:
    """Whether every entry of x is finite: one sum, and the elementwise test
    only when the sum is not finite, since a NaN or an infinity makes the
    sum non-finite but finite entries can overflow it."""
    return math.isfinite(x.sum()) or bool(np.isfinite(x).all())


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

"""Dense linear algebra for the reduced (Hessenberg) stage systems.

The stage systems of the integrator have the form (I - hg*H) x = rhs with H
a small upper-Hessenberg matrix.  This module provides an LU factorization
by LAPACK, an O(M^2) column-append update used when the Krylov basis grows
mid-step, and a spectral-radius helper for the stability diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack, solve_triangular

from .errors import DimensionMismatchError, NoConvergenceError, SingularMatrixError

# Pivot acceptance is relative to the max-abs of the factored matrix.
PIVOT_REL_TOL = 1e-14


@dataclass(frozen=True)
class HessenbergFactorization:
    """P(I - hg*H) = L U for upper-Hessenberg H.

    perm encodes P as a row-index array: (P A)[i] = A[perm[i]].  L is unit
    lower triangular; with adjacent-row pivoting it stays cheap to apply.
    hg is the scalar product (step size times diagonal gamma) frozen at
    factorization time; scale is the max-abs of I - hg*H used for the
    pivot threshold of subsequent column appends.
    """

    perm: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    hg: float
    scale: float

    @property
    def size(self) -> int:
        return self.upper.shape[0]


def _pivot_threshold(scale: float) -> float:
    return PIVOT_REL_TOL * max(scale, 1.0)


def lu_factor(hess: np.ndarray, hg: float) -> HessenbergFactorization:
    """Factor I - hg*H by LAPACK getrf (partial pivoting).

    For upper-Hessenberg H only the subdiagonal entry competes for the
    pivot.  Matrices with extra sub-Hessenberg entries (the extended-basis
    refactorization path) are handled by the same call.  Raises
    SingularMatrixError when a pivot falls below the scale-relative
    threshold.
    """
    hess = np.asarray(hess, dtype=float)
    m = hess.shape[0]
    if hess.shape != (m, m):
        raise DimensionMismatchError(f"H must be square, got {hess.shape}")
    if m == 0:  # getrf rejects an empty matrix
        return HessenbergFactorization(perm=np.arange(0), lower=np.eye(0), upper=np.eye(0),
                                       hg=hg, scale=0.0)
    a = hess * -hg
    a.flat[:: m + 1] += 1.0
    scale = float(np.max(np.abs(a)))
    lu, piv, _ = lapack.dgetrf(a)
    pivots = np.abs(lu.diagonal())
    thresh = _pivot_threshold(scale)
    if pivots.min() <= thresh:
        k = int(np.argmax(pivots <= thresh))
        raise SingularMatrixError(f"pivot {lu[k, k]:.3e} below threshold at column {k}")
    perm = list(range(m))
    for k, p in enumerate(piv.tolist()):  # getrf's row interchanges, in order
        perm[k], perm[p] = perm[p], perm[k]
    upper = np.triu(lu)
    lower = lu - upper  # exact: the strictly lower part, zero elsewhere
    lower.flat[:: m + 1] = 1.0
    return HessenbergFactorization(perm=np.array(perm, dtype=int), lower=lower, upper=upper,
                                   hg=hg, scale=scale)


def lu_solve(fac: HessenbergFactorization, rhs: np.ndarray) -> np.ndarray:
    """Solve (I - hg*H) x = rhs using the stored factorization."""
    rhs = np.asarray(rhs, dtype=float)
    m = fac.size
    if rhs.shape != (m,):
        raise DimensionMismatchError(f"rhs has shape {rhs.shape}, expected ({m},)")
    if m == 0:
        return rhs.copy()
    y = solve_triangular(fac.lower, rhs[fac.perm], lower=True, unit_diagonal=True)
    return solve_triangular(fac.upper, y, lower=False)


def lu_append_column(
    fac: HessenbergFactorization,
    new_column_top: np.ndarray,
    h_diag_new: float,
    new_row_left: np.ndarray | None = None,
) -> HessenbergFactorization:
    """Grow the factorization by one basis vector without refactoring.

    new_column_top holds h_{1..M,M+1} of the grown matrix, h_diag_new is
    h_{M+1,M+1}, and new_row_left (optional, defaults to zero) holds
    h_{M+1,1..M}.  The bordered update with the existing permutation kept
    frozen is

        u_{1..M,M+1} = -hg * L^{-1} P h_{1..M,M+1},
        l_{M+1,1..M}^T = (-hg * h_{M+1,1..M})^T U^{-1},
        u_{M+1,M+1}  = (1 - hg * h_{M+1,M+1}) - l_{M+1,1..M} . u_{1..M,M+1}.

    The only new pivot is the bottom diagonal entry.  Raises
    SingularMatrixError when it is below the threshold, in which case the
    caller should refactorize fully.
    """
    new_column_top = np.asarray(new_column_top, dtype=float)
    m = fac.size
    if new_column_top.shape != (m,):
        raise DimensionMismatchError(f"column has shape {new_column_top.shape}, expected ({m},)")
    a_col = -fac.hg * new_column_top
    if m:
        u_col = solve_triangular(fac.lower, a_col[fac.perm], lower=True, unit_diagonal=True)
    else:
        u_col = a_col
    if new_row_left is not None and m:
        new_row_left = np.asarray(new_row_left, dtype=float)
        if new_row_left.shape != (m,):
            raise DimensionMismatchError(f"row has shape {new_row_left.shape}, expected ({m},)")
        l_row = solve_triangular(fac.upper, -fac.hg * new_row_left, lower=False, trans="T")
    else:
        l_row = np.zeros(m)
    diag = (1.0 - fac.hg * h_diag_new) - float(l_row @ u_col)
    scale = max(fac.scale, float(np.max(np.abs(a_col))) if m else 0.0, abs(diag))
    if abs(diag) <= _pivot_threshold(scale):
        raise SingularMatrixError(f"appended pivot {diag:.3e} below threshold")

    upper = np.zeros((m + 1, m + 1))
    upper[:m, :m] = fac.upper
    upper[:m, m] = u_col
    upper[m, m] = diag
    lower = np.eye(m + 1)
    lower[:m, :m] = fac.lower
    lower[m, :m] = l_row
    perm = np.append(fac.perm, m)
    return HessenbergFactorization(perm=perm, lower=lower, upper=upper, hg=fac.hg, scale=scale)


def spectral_radius(a: np.ndarray) -> float:
    """Largest eigenvalue modulus of a square real matrix.

    Backed by LAPACK's Hessenberg-reduction QR iteration.  If that fails
    to converge, a power-iteration estimate is raised inside
    NoConvergenceError rather than returned silently.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected square matrix, got {a.shape}")
    if a.shape[0] == 0:
        return 0.0
    try:
        return float(np.max(np.abs(np.linalg.eigvals(a))))
    except np.linalg.LinAlgError:
        rng = np.random.default_rng(0)
        v = rng.standard_normal(a.shape[0])
        est = 0.0
        for _ in range(500):
            w = a @ v
            nw = np.linalg.norm(w)
            if nw == 0.0:
                est = 0.0
                break
            est = nw / np.linalg.norm(v)
            v = w / nw
        raise NoConvergenceError("QR eigenvalue iteration did not converge", estimate=est)

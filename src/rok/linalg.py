"""Dense linear algebra for the reduced (Hessenberg) stage systems.

The stage systems of the integrator have the form (I - hg*H) x = rhs with H
a small upper-Hessenberg matrix.  This module provides an LU factorization
kept in LAPACK getrf's packed form (one array and the pivot indices), solves
by laswp and two trtrs calls on it, an O(M^2) bordered column-append update
of the same packed form used when the Krylov basis grows mid-step, and a
spectral-radius helper for the stability diagnostics.  The Krylov step
factors its reduced system once per attempt with lu_factor.  The adaptive
stopping test needs no factor, only one scalar per basis size, which the
progressive elimination (ProgressiveLU) gives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import DimensionMismatchError, SingularMatrixError

# Pivot acceptance is relative to the max-abs of the factored matrix.
PIVOT_REL_TOL = 1e-14


@dataclass(frozen=True)
class HessenbergFactorization:
    """P(I - hg*H) = L U for upper-Hessenberg H, in LAPACK getrf's packed form.

    lu holds U on and above the diagonal and the multipliers of the unit
    lower triangular L below it; it is stored C-contiguous so that lu.T
    reaches the triangular solves without a copy.  piv holds getrf's
    0-based row interchanges: row k was swapped with row piv[k], in order
    k = 0, 1, ...  hg is the scalar product (step size times diagonal
    gamma) frozen at factorization time; scale is the max-abs of I - hg*H
    used for the pivot threshold of subsequent column appends.
    """

    lu: np.ndarray
    piv: np.ndarray
    hg: float
    scale: float

    @property
    def size(self) -> int:
        return self.lu.shape[0]


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
    if hess.shape != (m, m) or m == 0:
        raise DimensionMismatchError(f"H must be square and nonempty, got {hess.shape}")
    a = hess * -hg
    a.flat[:: m + 1] += 1.0
    scale = float(np.max(np.abs(a)))
    lu, piv, _ = lapack.dgetrf(a)
    pivots = np.abs(lu.diagonal())
    thresh = _pivot_threshold(scale)
    if pivots.min() <= thresh:
        k = int(np.argmax(pivots <= thresh))
        raise SingularMatrixError(f"pivot {lu[k, k]:.3e} below threshold at column {k}")
    return HessenbergFactorization(lu=np.ascontiguousarray(lu), piv=piv, hg=hg, scale=scale)


def _forward(lu: np.ndarray, piv: np.ndarray, b: np.ndarray) -> np.ndarray:
    """L^{-1} P b for the packed factor (lu, piv).

    Every triangular solve here hands trtrs lu.T (Fortran-ordered, so no
    copy for a whole C-contiguous factor), with trans=1 for L and U.  getrs on the same factor rounds most
    solves differently in the last bit, which is enough to move step-size
    sequences.
    """
    pb = lapack.dlaswp(b, piv)
    return lapack.dtrtrs(lu.T, pb, lower=0, trans=1, unitdiag=1)[0]


def lu_solve(fac: HessenbergFactorization, rhs: np.ndarray) -> np.ndarray:
    """Solve (I - hg*H) x = rhs using the stored factorization."""
    rhs = np.asarray(rhs, dtype=float)
    m = fac.size
    if rhs.shape != (m,):
        raise DimensionMismatchError(f"rhs has shape {rhs.shape}, expected ({m},)")
    return lapack.dtrtrs(fac.lu.T, _forward(fac.lu, fac.piv, rhs), lower=1, trans=1)[0]


def lu_append_column(
    fac: HessenbergFactorization,
    new_column_top: np.ndarray,
    h_diag_new: float,
    new_row_left: np.ndarray,
) -> HessenbergFactorization:
    """Grow the factorization by one basis vector without refactoring.

    new_column_top holds h_{1..M,M+1} of the grown matrix, h_diag_new is
    h_{M+1,M+1}, and new_row_left holds h_{M+1,1..M} (zero under the core
    Arnoldi block of an extended basis, nonzero under appended columns).
    The bordered update with the existing permutation kept frozen is

        u_{1..M,M+1} = -hg * L^{-1} P h_{1..M,M+1},
        l_{M+1,1..M}^T = (-hg * h_{M+1,1..M})^T U^{-1},
        u_{M+1,M+1}  = (1 - hg * h_{M+1,M+1}) - l_{M+1,1..M} . u_{1..M,M+1}.

    The only new pivot is the bottom diagonal entry, and the new row is
    not interchanged (piv gains the entry M).  Raises SingularMatrixError
    when that pivot is below the threshold, in which case the caller
    should refactorize fully.
    """
    new_column_top = np.asarray(new_column_top, dtype=float)
    new_row_left = np.asarray(new_row_left, dtype=float)
    m = fac.size
    if new_column_top.shape != (m,):
        raise DimensionMismatchError(f"column has shape {new_column_top.shape}, expected ({m},)")
    if new_row_left.shape != (m,):
        raise DimensionMismatchError(f"row has shape {new_row_left.shape}, expected ({m},)")
    a_col = -fac.hg * new_column_top
    u_col = _forward(fac.lu, fac.piv, a_col)
    l_row = lapack.dtrtrs(fac.lu.T, -fac.hg * new_row_left, lower=1)[0]
    diag = (1.0 - fac.hg * h_diag_new) - float(l_row @ u_col)
    scale = max(fac.scale, float(np.max(np.abs(a_col))), abs(diag))
    if abs(diag) <= _pivot_threshold(scale):
        raise SingularMatrixError(f"appended pivot {diag:.3e} below threshold")

    lu = np.empty((m + 1, m + 1))
    lu[:m, :m] = fac.lu
    lu[:m, m] = u_col
    lu[m, :m] = l_row
    lu[m, m] = diag
    return HessenbergFactorization(lu=lu, piv=np.append(fac.piv, m), hg=fac.hg, scale=scale)


class ProgressiveLU:
    """e_i^T x of (I - hg*H_i) x = rhs0 e_1 for the leading blocks H_i of a
    growing Hessenberg H: the one scalar per size that the adaptive Arnoldi
    stopping test reads.

    The progressive elimination of FOM/DIOM (Saad, Iterative Methods for
    Sparse Linear Systems, 2nd ed., ch. 6).  On an upper-Hessenberg matrix,
    partial pivoting compares a column's diagonal only with the
    subdiagonal entry below it, so elimination step k touches rows k and
    k+1 only.  When row and column i arrive, the pivot of column i-1 is
    settled and every earlier step is final; the bottom pivot of the block
    stays tentative until the next column.  So the elimination keeps, per
    settled column, whether rows k and k+1 were interchanged and the
    multiplier, and besides those only the last entry of L^{-1} P (rhs0
    e_1), the tentative pivot, the smallest settled pivot and the max-abs
    scale of the block.  Each column costs O(i) two-row updates, and the
    pivots and interchanges are getrf's for every block.  The step factors
    its own reduced system (lu_factor).
    """

    def __init__(self, hg: float, rhs0: float):
        self.hg = hg
        self.size = 0
        self.scale = 0.0
        self._steps: list[tuple[bool, float]] = []  # (interchange, multiplier)
        self._pivot = 0.0
        self._settled_min = np.inf
        self._y = rhs0
        self._sub = 0.0

    def append(self, column: np.ndarray) -> None:
        """Grow the block by the next column of H.

        column runs down to and including the subdiagonal entry, which
        enters the block with the column after it.
        """
        i = self.size
        a = column[: i + 1] * -self.hg
        a[i] += 1.0
        self.scale = max(self.scale, float(np.abs(a).max()))
        if i > 0:
            tentative, sub = self._pivot, self._sub
            self.scale = max(self.scale, abs(sub))
            swap = abs(sub) > abs(tentative)
            if swap:
                # Row i's right-hand side entry (zero) moves up, and the
                # tentative one moves down unchanged.
                mult = tentative / sub
            else:
                mult = sub / tentative if tentative != 0.0 else 0.0
                self._y = -mult * self._y
            self._steps.append((swap, mult))
            self._settled_min = min(self._settled_min, max(abs(sub), abs(tentative)))
        # L^{-1} P a, one two-row step per settled column; only its bottom
        # entry, the new tentative pivot, is kept.
        col = a.tolist()
        top = col[0]
        for below, (swap, mult) in zip(col[1:], self._steps):
            if swap:
                top, below = below, top
            top = below - mult * top
        self._pivot = top
        self._sub = -self.hg * float(column[i + 1])
        self.size = i + 1

    def last_entry(self) -> float | None:
        """e_i^T x for (I - hg*H_i) x = rhs0 e_1 at the current size i, or
        None where lu_factor would raise SingularMatrixError."""
        if min(self._settled_min, abs(self._pivot)) <= _pivot_threshold(self.scale):
            return None
        return self._y / self._pivot


def spectral_radius(a: np.ndarray) -> float:
    """Largest eigenvalue modulus of a square real matrix (LAPACK QR iteration).

    A matrix with NaN or Inf entries raises numpy's LinAlgError.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected square matrix, got {a.shape}")
    if a.shape[0] == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(a))))

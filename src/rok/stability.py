"""Linear stability diagnostics for approximate-Jacobian Rosenbrock steps.

On the linear test problem y' = J y a step with stage matrix A (instead of
the exact J) acts as y_{n+1} = R_eff(hJ, hA) y_n.  This module assembles
the effective transfer matrix from the s-stage block system

    K = h (I_s x J) Y + h [(alpha x J) + (gamma x A)] K,
    y_{n+1} = y_n + (b^T x I) K,

splits it as R_eff = R + S where R is the classical stability matrix
(A = J) and S the stage stability term.  The stability scan (rok
stability) takes linalg.spectral_radius of transfer_matrix_analytic with
A = J and with A = V H V^T.  Everything here is dense algebra on
(J, A): it materializes Kronecker blocks and is meant for small
diagnostic problems only.  The tests check it against one-step runs of
step.direct_step and step.rok_step on y' = J y.
"""

from __future__ import annotations

import numpy as np

from . import arnoldi as _arnoldi
from .tableau import Tableau

#: Dense block assembly guard: refuse N*s beyond this.
MAX_BLOCK_DIM = 2000


def _check_sizes(jac: np.ndarray, a: np.ndarray, tableau: Tableau) -> int:
    n = jac.shape[0]
    if jac.shape != (n, n) or a.shape != (n, n):
        raise ValueError("J and A must be square with matching sizes")
    if n * tableau.s > MAX_BLOCK_DIM:
        raise ValueError(f"N*s = {n * tableau.s} exceeds dense assembly guard {MAX_BLOCK_DIM}")
    return n


def basis_approximation(basis: _arnoldi.KrylovBasis) -> np.ndarray:
    """Dense A = V H V^T from a Krylov basis."""
    return basis.v @ basis.h @ basis.v.T


def _stage_system(jac, a, tableau, h):
    n = jac.shape[0]
    s = tableau.s
    return np.eye(n * s) - np.kron(tableau.alpha, h * jac) - np.kron(tableau.gamma_full, h * a)


def transfer_matrix_analytic(jac: np.ndarray, a: np.ndarray, tableau: Tableau, h: float) -> np.ndarray:
    """Effective transfer matrix R_eff(hJ, hA) by dense block assembly."""
    n = _check_sizes(jac, a, tableau)
    s = tableau.s
    rhs = np.kron(np.ones((s, 1)), h * jac)  # (Ns, N): columns are stage supervectors per unit state
    x = np.linalg.solve(_stage_system(jac, a, tableau, h), rhs)
    r = np.eye(n)
    for i in range(s):
        r += tableau.b[i] * x[i * n : (i + 1) * n, :]
    return r


def stage_stability_term(jac: np.ndarray, a: np.ndarray, tableau: Tableau, h: float,
                         y: np.ndarray) -> np.ndarray:
    """S(hJ, hA) y via the block formula

    -(b^T x I) [I - beta x hJ]^{-1} [gamma x (hJ - hA)] K

    with K the supervector of stage values of the linear test problem
    (K itself solves [I - alpha x hJ - gamma x hA] K = h (1_s x J) y, so
    K = [I - gamma x hA]^{-1} h F with F the supervector of stage RHS
    values).
    """
    n = _check_sizes(jac, a, tableau)
    s = tableau.s
    k = np.linalg.solve(_stage_system(jac, a, tableau, h), np.tile(h * (jac @ y), s))
    mid = np.kron(tableau.gamma_full, jac - a) @ k
    g_beta = np.eye(n * s) - np.kron(tableau.beta, h * jac)
    w = np.linalg.solve(g_beta, h * mid)
    out = np.zeros(n)
    for i in range(s):
        out -= tableau.b[i] * w[i * n : (i + 1) * n]
    return out

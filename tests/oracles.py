"""Brute-force routes the library's closed forms are checked against.

This module imports only numpy, so no oracle shares code with what it
checks.  Problems, step internals and tableaus come in as arguments and
are read only through their public attributes: a problem's jv, a step's
recorded stages, and a tableau's raw coefficients (alpha, gamma_lower,
gamma, b).  The block matrices are assembled here with np.kron, and
everything is dense, for small problems only.
"""

import numpy as np


def direct_stage_residual(problem, internals, i):
    """Stage defect r_i = k_i - h F_i - h J sum_{j<=i} gamma_ij k_j.

    Evaluated literally, with one Jacobian-vector product.
    """
    tab = internals.tableau
    h = internals.h
    gamma_full = tab.gamma_lower + tab.gamma * np.eye(tab.s)
    ksum = sum(gamma_full[i, j] * internals.k_stages[j] for j in range(i + 1))
    jk = problem.jv(internals.y, ksum)
    return internals.k_stages[i] - h * internals.f_stages[i] - h * jk


def _block_systems(jac, a, tab, h):
    """gamma_full, [I - alpha x hJ - gamma x hA] and [I - beta x hJ]."""
    gamma_full = tab.gamma_lower + tab.gamma * np.eye(tab.s)
    eye = np.eye(tab.s * jac.shape[0])
    g_full = eye - np.kron(tab.alpha, h * jac) - np.kron(gamma_full, h * a)
    g_beta = eye - np.kron(tab.alpha + gamma_full, h * jac)
    return gamma_full, g_full, g_beta


def _combine(tab, stacked):
    """(b^T x I) applied to a stage supervector (or a stack of them)."""
    n = stacked.shape[0] // tab.s
    return np.kron(tab.b, np.eye(n)) @ stacked


def transfer_matrix(jac, a, tab, h):
    """R_eff(hJ, hA) = I + (b^T x I) [I - alpha x hJ - gamma x hA]^{-1} h (1_s x J)."""
    _, g_full, _ = _block_systems(jac, a, tab, h)
    k = np.linalg.solve(g_full, np.tile(h * jac, (tab.s, 1)))
    return np.eye(jac.shape[0]) + _combine(tab, k)


def stage_stability_term_resolvent(jac, a, tab, h, y):
    """S(hJ, hA) y by the resolvent difference

    (b^T x I) ([I - alpha x hJ - gamma x hA]^{-1} - [I - beta x hJ]^{-1}) h (1_s x J) y.
    """
    _, g_full, g_beta = _block_systems(jac, a, tab, h)
    rhs = np.tile(h * (jac @ y), tab.s)
    return _combine(tab, np.linalg.solve(g_full, rhs) - np.linalg.solve(g_beta, rhs))


def check_block_identity(jac, a, tab, h):
    """Max-abs deviation between the two sides of the resolvent identity

    [I - alpha x hJ - gamma x hA]^{-1} - [I - beta x hJ]^{-1}
        = -[I - beta x hJ]^{-1} [gamma x (hJ - hA)] [I - alpha x hJ - gamma x hA]^{-1}.
    """
    gamma_full, g_full, g_beta = _block_systems(jac, a, tab, h)
    inv_full = np.linalg.inv(g_full)
    inv_beta = np.linalg.inv(g_beta)
    lhs = inv_full - inv_beta
    rhs = -inv_beta @ np.kron(gamma_full, h * (jac - a)) @ inv_full
    return float(np.max(np.abs(lhs - rhs)))


def max_stable_step(jac, a, tab, h_grid):
    """Largest h in the grid with rho(R_eff) <= 1 + 1e-12 (0.0 if none)."""
    best = 0.0
    for h in sorted(h_grid):
        rho = np.max(np.abs(np.linalg.eigvals(transfer_matrix(jac, a, tab, h))))
        if rho <= 1.0 + 1e-12:
            best = h
    return best

"""Brute-force routes the library's closed forms are checked against.

This module imports only numpy, so no oracle shares code with what it
checks.  Problems, step internals and tableaus come in as arguments and
are read only through their public attributes: a problem's f, linearize
and jv (as jv(linearize(y), v)), a step's recorded stages, and a
tableau's raw coefficients (alpha, gamma_lower, gamma, b).  The
direct stage residual takes its own linearization of the step's state
(internals.basis.state.y), not the basis's.  The block matrices are
assembled here with np.kron, the Jacobian of the dense Rosenbrock step
column by column from jv, and everything is dense, for small problems
only.
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
    jk = problem.jv(problem.linearize(internals.basis.state.y), ksum)
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


def _cholesky_solver(a):
    """b -> a^{-1} b for a symmetric positive definite a, through one block
    Cholesky factor a = L L^T, which overwrites a.

    Each block column of L updates only the rows down to its last nonzero
    one, so a banded a costs its band, and any other a the dense count.
    """
    n = a.shape[0]
    low = a
    blocks = [(s, min(s + 32, n)) for s in range(0, n, 32)]
    inverses = []  # of the diagonal blocks of L
    for s, e in blocks:
        low[s:e, s:e] = np.linalg.cholesky(low[s:e, s:e])
        low[s:e, e:] = 0.0
        inverses.append(np.linalg.inv(low[s:e, s:e]))
        rows = np.flatnonzero(low[e:, s:e].any(axis=1))
        if rows.size:
            last = e + rows[-1] + 1
            panel = low[e:last, s:e] = low[e:last, s:e] @ inverses[-1].T
            low[e:last, e:last] -= panel @ panel.T

    def solve(b):
        x = b.copy()
        for (s, e), inv in zip(blocks, inverses):  # L z = b
            x[s:e] = inv @ x[s:e]
            x[e:] -= low[e:, s:e] @ x[s:e]
        for (s, e), inv in zip(reversed(blocks), reversed(inverses)):  # L^T x = z
            x[s:e] = x[s:e] @ inv
            x[:s] -= x[s:e] @ low[s:e, :s]
        return x

    return solve


def dense_rosenbrock_step(problem, y, h, tab):
    """One classical Rosenbrock step with the exact Jacobian J = J(y).

    Stage i solves

        (I - h gamma J) k_i = h f(y + sum_{j<i} alpha_ij k_j) + h J sum_{j<i} gamma_ij k_j

    with the tableau's raw alpha, gamma_lower and gamma, through one
    Cholesky factor of the dense I - h gamma J, whose J is assembled
    column by column, J e_j from problem.jv.  So J must be symmetric and
    I - h gamma J positive definite; each stage checks its solution with
    one more jv, which a nonsymmetric J fails.  Returns y + sum_i b_i k_i.
    """
    n = y.shape[0]
    lin = problem.linearize(y)
    unit = np.zeros(n)
    lhs_t = np.empty((n, n))  # row j is J e_j, until it becomes (I - h gamma J)^T
    for j in range(n):
        unit[j] = 1.0
        lhs_t[j] = problem.jv(lin, unit)
        unit[j] = 0.0
    lhs_t *= -h * tab.gamma
    lhs_t[np.diag_indices(n)] += 1.0
    solve = _cholesky_solver(lhs_t)
    ks = []
    for i in range(tab.s):
        stage_y = y + sum((tab.alpha[i, j] * ks[j] for j in range(i)), np.zeros(n))
        coupling = sum((tab.gamma_lower[i, j] * ks[j] for j in range(i)), np.zeros(n))
        rhs = h * problem.f(stage_y) + h * problem.jv(lin, coupling)
        k = solve(rhs)
        if np.linalg.norm(k - h * tab.gamma * problem.jv(lin, k) - rhs) > 1e-10 * np.linalg.norm(rhs):
            raise ValueError(f"stage {i + 1} does not solve its system: is J symmetric?")
        ks.append(k)
    return y + sum((tab.b[i] * ks[i] for i in range(tab.s)), np.zeros(n))

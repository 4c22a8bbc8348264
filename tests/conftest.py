"""Shared fixtures and randomized-problem factories for the test suite."""

import numpy as np
import pytest

from rok.problems import OdeProblem
from rok.step import direct_step
from rok.tableau import default_tableau


@pytest.fixture(scope="session")
def tab():
    return default_tableau()


def make_random_nonlinear(n: int, rng: np.random.Generator, stiffness: float = 4.0) -> OdeProblem:
    """Random stable linear part plus a smooth elementwise nonlinearity.

    f(y) = A y + 0.5 sin(y), so J(y) = A + 0.5 diag(cos(y)) is available
    exactly for both the matrix-free product and the dense oracle.
    """
    a = rng.standard_normal((n, n)) / np.sqrt(n) - stiffness * np.eye(n)

    return OdeProblem(
        dim=n,
        rhs=lambda y: a @ y + 0.5 * np.sin(y),
        linearize=lambda y: lambda v: a @ v + 0.5 * np.cos(y) * v,
        jacobian=lambda y: a + 0.5 * np.diag(np.cos(y)),
        name=f"random-nonlinear-{n}",
        y0=rng.standard_normal(n),
        t_span=(0.0, 1.0),
    )


def random_state(n: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal(n)


def make_poisoned_problem(name: str = "poisoned") -> OdeProblem:
    """RHS finite only at the initial state: the basis builds, every step
    attempt hits a non-finite stage value, and the controller must shrink
    the step until it underflows."""
    y0 = np.ones(2)

    def rhs(y):
        if np.array_equal(y, y0):
            return -y
        return np.full(2, np.nan)

    return OdeProblem(dim=2, rhs=rhs, linearize=lambda y: lambda v: -v,
                      jacobian=lambda y: -np.eye(2), name=name,
                      y0=y0, t_span=(0.0, 1.0))


def direct_transfer_matrix(jac: np.ndarray, a: np.ndarray, tab, h: float) -> np.ndarray:
    """R_eff(hJ, hA) column by column: one direct_step on y' = J y from each
    unit state, with the problem's Jacobian callback returning A."""
    n = jac.shape[0]
    prob = OdeProblem(dim=n, rhs=lambda y: jac @ y, linearize=lambda y: lambda v: jac @ v,
                      jacobian=lambda y: a)
    return np.column_stack([direct_step(prob, e, prob.f(e), h, tab).y_new for e in np.eye(n)])

"""Matrix-free Rosenbrock-Krylov time integration.

The package implements a linearly-implicit one-step integrator whose stage
linear systems are solved in a Krylov subspace of the Jacobian.  Two
stability-oriented refinements are provided: residual-controlled adaptive
sizing of the Krylov basis, and per-stage extension of the basis with the
stage right-hand-side vectors.  Diagnostics for stage residuals and linear
transfer-matrix stability, plus a work-precision benchmark CLI, round out
the suite.
"""

from .arnoldi import KrylovBasis, build_adaptive, build_fixed, extend, first_stage_residual_norm
from .errors import (
    JvpFailureError,
    NonFiniteError,
    SingularMatrixError,
    StepSizeUnderflowError,
    ZeroStartVectorError,
)
from .integrate import (
    AdaptiveResidual,
    FixedBasis,
    IntegratorConfig,
    Solution,
    integrate,
    integrate_fixed,
)
from .problems import AllenCahnSpec, OdeProblem, get_problem, make_allen_cahn, make_linear, make_smooth_nonlinear
from .step import StepResult, rok_step, stage_residual_formula
from .tableau import Tableau, default_tableau, load_tableau

__all__ = [
    "AdaptiveResidual",
    "AllenCahnSpec",
    "FixedBasis",
    "IntegratorConfig",
    "JvpFailureError",
    "KrylovBasis",
    "NonFiniteError",
    "OdeProblem",
    "SingularMatrixError",
    "Solution",
    "StepResult",
    "StepSizeUnderflowError",
    "Tableau",
    "ZeroStartVectorError",
    "build_adaptive",
    "build_fixed",
    "default_tableau",
    "extend",
    "first_stage_residual_norm",
    "get_problem",
    "integrate",
    "integrate_fixed",
    "load_tableau",
    "make_allen_cahn",
    "make_linear",
    "make_smooth_nonlinear",
    "rok_step",
    "stage_residual_formula",
]

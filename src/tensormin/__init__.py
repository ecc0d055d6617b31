"""Adaptive third-order methods for composite convex minimization.

The package minimizes f(x) + psi(x) where f is convex with a Lipschitz third
derivative and psi is a simple convex term (the zero term ships).  Each outer
step minimizes a quartically regularized third-order Taylor model with a
Bregman-gradient inner solver whose only tuning knob, the regularization
level M, is adapted automatically by doubling on a slow-convergence
certificate and halving after accepted steps.
"""

from .accel import (
    AccelState,
    accept_test_accel,
    mix_z,
    phi_min_value,
    run_accel,
    solve_a,
    update_phi_and_v,
)
from .basic import LevelSearchError, accept_test_basic, initial_level, run_basic
from .harness import (
    RunConfig,
    bundled_dataset_path,
    emit_report,
    load_dataset,
    parse_report_csv,
    run_experiment,
)
from .inner import (
    InnerConfig,
    InnerResult,
    StopReason,
    UnsupportedCompositeError,
    bregman_step,
    run_inner,
    secular_solve,
)
from .model import (
    ConvexityError,
    ModelAnchor,
    SecularSolveError,
    bregman_div,
    d4_grad,
    d4_value,
    inner_constants,
    omega_grad,
    omega_value,
    rho_grad,
    rho_value,
    taylor3_value,
)
from .oracles import (
    CallCounter,
    CompositeTerm,
    Dataset,
    DerivativeReport,
    FdThirdOracle,
    LogisticOracle,
    OracleError,
    Point,
    QuarticOracle,
    SmoothOracle,
    ZeroComposite,
    as_point,
    check_derivatives,
    fd_third_directional,
    logistic_oracle,
    quartic_oracle,
)
from .reports import RunReport

__version__ = "0.1.0"

__all__ = [
    "AccelState", "CallCounter", "CompositeTerm", "ConvexityError", "Dataset",
    "DerivativeReport", "FdThirdOracle", "InnerConfig", "InnerResult",
    "LevelSearchError", "LogisticOracle", "ModelAnchor", "OracleError",
    "Point", "QuarticOracle", "RunConfig", "RunReport", "SecularSolveError",
    "SmoothOracle", "StopReason", "UnsupportedCompositeError", "ZeroComposite",
    "accept_test_accel", "accept_test_basic", "as_point", "bregman_div",
    "bregman_step", "bundled_dataset_path", "check_derivatives", "d4_grad",
    "d4_value", "emit_report", "fd_third_directional", "initial_level",
    "inner_constants", "load_dataset", "logistic_oracle", "mix_z",
    "omega_grad", "omega_value", "parse_report_csv", "phi_min_value",
    "quartic_oracle", "rho_grad", "rho_value", "run_accel", "run_basic",
    "run_experiment", "run_inner", "secular_solve", "solve_a", "taylor3_value",
    "update_phi_and_v",
]

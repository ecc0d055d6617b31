"""Adaptive third-order methods for composite convex minimization.

The package minimizes f(x) + psi(x) where f is convex with a Lipschitz third
derivative and psi is zero, passed as the ``ZeroComposite`` token.  Each outer
step minimizes a quartically regularized third-order Taylor model with a
Bregman-gradient inner solver whose only tuning knob, the regularization
level M, is adapted automatically by doubling on a slow-convergence
certificate and halving after accepted steps.
"""

from .accel import run_accel
from .basic import LevelSearchError, run_basic
from .harness import RunConfig, bundled_dataset_path, load_dataset, run_experiment
from .model import ConvexityError, SecularSolveError
from .oracles import (
    Dataset,
    DerivativeReport,
    FdThirdOracle,
    LogisticOracle,
    OracleError,
    QuarticOracle,
    SmoothOracle,
    ZeroComposite,
    check_derivatives,
    logistic_oracle,
    quartic_oracle,
)
from .reports import RunReport, emit_report, parse_report_csv

__version__ = "0.1.0"

# The public API; the building blocks (anchors, the inner solver, the
# estimating sequence) stay importable from their modules.
__all__ = [
    "ConvexityError", "Dataset", "DerivativeReport", "FdThirdOracle",
    "LevelSearchError", "LogisticOracle", "OracleError", "QuarticOracle",
    "RunConfig", "RunReport", "SecularSolveError", "SmoothOracle",
    "ZeroComposite", "bundled_dataset_path", "check_derivatives", "emit_report",
    "load_dataset", "logistic_oracle", "parse_report_csv", "quartic_oracle",
    "run_accel", "run_basic", "run_experiment",
]

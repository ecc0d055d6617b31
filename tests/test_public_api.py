"""The package namespace exports exactly the public API."""

import tensormin
from tensormin.oracles import SmoothOracle

PUBLIC = {
    # solvers and their report
    "run_basic", "run_accel", "RunReport",
    # experiment harness
    "RunConfig", "bundled_dataset_path", "emit_report", "load_dataset",
    "parse_report_csv", "run_experiment",
    # oracles, data and the zero composite term
    "SmoothOracle", "LogisticOracle", "QuarticOracle", "FdThirdOracle",
    "Dataset", "ZeroComposite", "logistic_oracle", "quartic_oracle",
    "check_derivatives", "DerivativeReport",
    # errors
    "ConvexityError", "LevelSearchError", "OracleError", "SecularSolveError",
}


def test_all_is_the_public_api_and_resolves():
    assert len(tensormin.__all__) == len(set(tensormin.__all__))
    assert set(tensormin.__all__) == PUBLIC
    for name in tensormin.__all__:
        assert getattr(tensormin, name) is not None, name


def test_smooth_oracle_contract_is_four_hooks():
    # The Hessian trace is derived from the Hessian hook, not a fifth hook.
    assert SmoothOracle.__abstractmethods__ == {
        "_value", "_grad", "_hessian", "_third_directional"}

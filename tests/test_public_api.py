"""The package namespace exports exactly the public API."""

import importlib
import pkgutil

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
    "SolveError", "ConvexityError", "LevelSearchError", "OracleError",
    "SecularSolveError", "WeightEquationError",
}


def test_all_is_the_public_api_and_resolves():
    assert len(tensormin.__all__) == len(set(tensormin.__all__))
    assert set(tensormin.__all__) == PUBLIC
    for name in tensormin.__all__:
        assert getattr(tensormin, name) is not None, name


def test_every_error_class_is_an_exported_solve_error():
    # level_search and the CLI catch SolveError, so an error class outside
    # that family would escape both; each one is public, from the package.
    modules = [importlib.import_module("tensormin." + m.name)
               for m in pkgutil.iter_modules(tensormin.__path__)
               if m.name != "__main__"]
    errors = {obj for mod in modules for obj in vars(mod).values()
              if isinstance(obj, type) and issubclass(obj, Exception)
              and obj.__module__.startswith("tensormin.")}
    assert {e.__name__ for e in errors} == {
        "SolveError", "OracleError", "ConvexityError", "SecularSolveError",
        "WeightEquationError", "LevelSearchError"}
    for error in errors:
        assert issubclass(error, tensormin.SolveError), error
        assert getattr(tensormin, error.__name__) is error


def test_smooth_oracle_contract_is_four_hooks():
    # The Hessian trace is derived from the Hessian hook, not a fifth hook.
    assert SmoothOracle.__abstractmethods__ == {
        "_value", "_grad", "_hessian", "_third_directional"}

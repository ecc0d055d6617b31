"""Adaptive outer loop: level escalation, sufficient-decrease acceptance,
counters, and trace consistency."""

import itertools
import threading

import numpy as np
import pytest

from conftest import (KINDS, PINNED_RUNS, QuadraticOracle, check_run, pinned,
                      quartic)
import tensormin
from tensormin.accel import WeightEquationError, _AccelStep, run_accel
from tensormin.basic import (LevelSearchError, _BasicStep, decrease_rhs,
                             run_basic)
from tensormin.inner import StopReason, run_inner
from tensormin.model import ConvexityError, SecularSolveError
from tensormin.oracles import (OracleError, Point, SmoothOracle, ZeroComposite,
                               logistic_oracle, make_logistic, quartic_oracle)


def run_quartic(n, x0, m0, epsilon, solve=run_basic, **kw):
    oracle = quartic_oracle(n)
    x, report, rows = solve(
        oracle, ZeroComposite(), np.asarray(x0, dtype=float), m0, epsilon, **kw
    )
    return oracle, x, report, rows


# -- level selection and acceptance test ------------------------------------------


def held(x, **data):
    """A ``Point`` at the scalar x whose f or grad f is already known."""
    p = Point([x])
    p.data.update(data)
    return p


@pytest.mark.parametrize("make_step, center, trial, gnorm, m_level, accepted", [
    # Basic: the decrease is f(center) - f(trial).
    (_BasicStep, held(0.0, value=5.0), held(0.0, value=5.0), 0.0, 1.0, True),
    (_BasicStep, held(0.0, value=5.0), held(0.0, value=5.0), 0.5, 1.0, False),
    # Unit decrease against unit gradient at level 1/216: the bound is
    # exactly 1, so the test passes at equality.
    (_BasicStep, held(0.0, value=1.0), held(0.0, value=0.0), 1.0, 1 / 216,
     True),
    (_BasicStep, held(0.0, value=1.0), held(0.0, value=1e-9), 1.0, 1 / 216,
     False),
    # Accel: the decrease is <grad f(trial), z - trial> with z the center.
    (_AccelStep, held(1.0), held(0.3, grad=np.array([0.0])), 0.0, 1.0, True),
    (_AccelStep, held(1.0), held(1.0, grad=np.array([2.0])), 2.0, 1.0, False),
    # Unit gradient against unit displacement at level 1/216: equality.
    (_AccelStep, held(1.0), held(0.0, grad=np.array([1.0])), 1.0, 1 / 216,
     True),
    (_AccelStep, held(1.0 - 1e-9), held(0.0, grad=np.array([1.0])), 1.0,
     1 / 216, False),
])
def test_step_decrease_against_the_bound_at_points_and_boundary(
        make_step, center, trial, gnorm, m_level, accepted):
    # The comparison level_search makes, on points whose f or grad f is held.
    oracle = quartic_oracle(1)
    step = make_step(oracle, np.zeros(1))
    assert (step.decrease(center, trial)
            >= decrease_rhs(gnorm, m_level)) is accepted
    assert oracle.calls.total() == 0


# -- whole runs ---------------------------------------------------------------------


@pytest.mark.parametrize("pin", PINNED_RUNS, ids=lambda pin: pin.id)
def test_pinned_run(pin):
    # The exact counters and per-kind oracle calls, so that a refactor of
    # either loop, or of how oracle data travels through them, cannot change
    # the work done unnoticed; and the whole trace contract on the run.
    oracle, x0 = pin.make()
    lines = []
    x, report, rows = pin.loop(oracle, ZeroComposite(), x0, **pin.run_args,
                               trace_sink=lines.append)
    check_run(lines, pin, report, oracle.calls.snapshot(), x, rows)


def test_run_basic_trace_levels_are_contiguous_doublings():
    oracle, _, report, rows = run_quartic(2, [1.0, 1.0], 1.0, 1e-6)
    assert report.BGM_E == len(rows)
    assert report.BGM_IT == sum(r["inner_iters"] for r in rows)

    m_t = 1.0
    by_t = {}
    for row in rows:
        by_t.setdefault(row["t"], []).append(row)
    for t in sorted(by_t):
        group = by_t[t]
        # The first level is the smallest m_t 2^i that is >= 2 m0 = 2.
        start = group[0]["i"]
        assert m_t * 2.0**start >= 2.0
        assert start == 0 or m_t * 2.0 ** (start - 1) < 2.0
        assert [r["i"] for r in group] == list(range(start, start + len(group)))
        for r in group:
            assert r["M_level"] == pytest.approx(m_t * 2.0 ** r["i"], rel=1e-12)
        # only the last row of a group may be accepted
        assert all(not r["accepted"] for r in group[:-1])
        if group[-1]["accepted"]:
            m_t = group[-1]["M_level"] / 2.0
        for r in group:
            if r["stop_reason"] == "SlowConvergence":
                assert r["f_trial"] is None
                assert r["grad_norm_trial"] is None
                assert "x_trial" not in r


def test_run_basic_oracle_call_conservation():
    oracle, _, report, rows = run_quartic(2, [1.0, 1.0], 1.0, 1e-6)
    snap = oracle.calls.snapshot()
    assert report.CO == oracle.calls.total() == sum(snap.values())
    evaluated = sum(1 for r in rows if r["f_trial"] is not None)
    anchors = len({r["t"] for r in rows})
    # one objective value at x_0 plus one per evaluated trial
    assert snap["value"] == 1 + evaluated
    # gradients likewise; all other gradient uses reuse anchor data
    assert snap["grad"] == 1 + evaluated
    # one Hessian per outer anchor, levels share it; the factor holds the
    # trace
    assert snap["hessian"] == anchors
    assert snap["trace"] == 0


@pytest.mark.parametrize("solve", [run_basic, run_accel])
def test_run_inner_cap_aborts_run(solve):
    oracle, x, report, rows = run_quartic(2, [1.0, 1.0], 1.0, 1e-10, solve,
                                          max_inner=1)
    assert report.converged is False
    assert report.IT == 0
    assert rows[-1]["stop_reason"] == StopReason.ITERATION_CAP.value
    assert rows[-1]["accepted"] is False
    assert rows[-1]["f_trial"] is None
    assert np.array_equal(x, np.array([1.0, 1.0]))


@pytest.mark.parametrize("solve", [run_basic, run_accel])
def test_run_basic_trace_sink_sees_both_levels_of_detail(solve):
    sink = []
    oracle = quartic_oracle(2)
    _, report, rows = solve(
        oracle, ZeroComposite(), np.array([1.0, 1.0]), 1.0, 1e-6,
        trace_sink=sink.append,
    )
    outer = [r for r in sink if r["kind"] == "outer"]
    inner = [r for r in sink if r["kind"] == "inner"]
    # The returned rows are the sink's outer lines themselves, in order.
    assert len(outer) == len(rows)
    assert all(a is b for a, b in zip(outer, rows))
    assert all(r["epsilon"] == 1e-6 for r in sink)
    assert report.BGM_E == len(rows)
    assert report.IT == sum(1 for r in rows
                            if r["accepted"] and not r.get("companion"))
    assert len(inner) == report.BGM_IT
    outer_keys = {(r["t"], r["i"]) for r in outer}
    for r in inner:
        assert (r["t"], r["i"]) in outer_keys
        assert {"k", "model_grad_norm", "step_norm", "slow_rhs"} <= set(r)


@pytest.mark.parametrize("solve", [run_basic, run_accel])
def test_run_is_deterministic_except_wall_time(solve):
    x0 = [0.8, -1.2, 0.4]
    _, x_a, rep_a, rows_a = run_quartic(3, x0, 1.0, 1e-7, solve)
    _, x_b, rep_b, rows_b = run_quartic(3, x0, 1.0, 1e-7, solve)
    assert np.array_equal(x_a, x_b)
    assert (rep_a.IT, rep_a.CO, rep_a.BGM_E, rep_a.BGM_IT) == (
        rep_b.IT, rep_b.CO, rep_b.BGM_E, rep_b.BGM_IT
    )
    assert rep_a.final_grad_norm == rep_b.final_grad_norm
    assert rep_a.final_f == rep_b.final_f
    assert len(rows_a) == len(rows_b)
    for ra, rb in zip(rows_a, rows_b):
        assert ra["t"] == rb["t"] and ra["i"] == rb["i"]
        assert ra["M_level"] == rb["M_level"]
        assert ra.get("a") == rb.get("a")  # the accel step weight
        assert ra["accepted"] == rb["accepted"]


def test_run_basic_epsilon_sweep_marginal_cost_grows():
    its = []
    inner_totals = []
    for eps in (1e-2, 1e-4, 1e-6, 1e-8):
        _, _, report, _ = run_quartic(2, [1.0, 1.0], 1.0, eps)
        assert report.converged is True
        its.append(report.IT)
        inner_totals.append(report.BGM_IT)
    assert its == sorted(its)
    assert inner_totals == sorted(inner_totals)


def test_run_basic_no_slow_certificates_above_curvature():
    # Starting the level estimate above 4 L_f means every trial level exceeds
    # the certificate threshold, so alpha can never fire.
    oracle, _, report, rows = run_quartic(2, [1.0, 1.0], 64.0, 1e-6)
    assert report.converged is True
    for row in rows:
        assert row["M_level"] >= 96.0
        assert row["stop_reason"] != "SlowConvergence"


@pytest.mark.parametrize("solve", [run_basic, run_accel])
def test_run_outer_cap_reports_honestly(solve):
    _, _, report, rows = run_quartic(2, [1.0, 1.0], 1.0, 1e-12, solve,
                                     max_outer=2)
    assert report.converged is False
    assert report.IT == 2
    assert np.isfinite(report.final_f)
    assert report.final_grad_norm > 1e-12


@pytest.mark.parametrize("solve", [run_basic, run_accel])
def test_untraced_run_passes_no_trace_to_the_inner_solver(solve, monkeypatch):
    # Without a sink no inner line is built: every inner run gets trace=None.
    traces = []

    def spy(anchor, oracle, epsilon, max_inner, trace=None):
        traces.append(trace)
        return run_inner(anchor, oracle, epsilon, max_inner, trace)

    monkeypatch.setattr(tensormin.basic, "run_inner", spy)
    _, report, _ = solve(quartic_oracle(2), ZeroComposite(),
                         np.array([1.0, 1.0]), 1.0, 1e-6)
    assert len(traces) == report.BGM_E > 0
    assert all(trace is None for trace in traces)


# -- bad runs ------------------------------------------------------------------------


class AbsComposite:
    """Stands for an ell-1 term psi = ||x||_1, which no solver supports."""


class _NoDecreaseOracle(SmoothOracle):
    """Constant value, unit gradient, Hessian 1e6 I: no trial ever decreases
    f, and every trial's gradient norm stays 1, so every level is rejected."""

    def _value(self, p):
        return 0.0

    def _grad(self, p):
        return np.full(self.n, 1.0 / np.sqrt(self.n))

    def _hessian(self, p):
        return 1e6 * np.eye(self.n)

    def _third_directional(self, p, h):
        return np.zeros(self.n)


class _HookError(tensormin.SolveError):
    """A caller's own typed failure."""


def _failing_hook(p):
    raise _HookError("the Hessian hook failed")


def hooked(hook, result, n=2, k=1):
    """A factory of ``quartic(n)`` whose ``hook`` returns ``result(p, *args)``
    from its k-th call on."""
    def make():
        oracle, x0 = quartic(n)()
        good, count = getattr(oracle, hook), itertools.count(1)
        setattr(oracle, hook,
                lambda *a: (result if next(count) >= k else good)(*a))
        return oracle, x0
    return make


def both(calls):
    """Both loops, with the same (value, grad, hessian, third) calls."""
    return {run_basic: calls, run_accel: calls}


_NO_CALLS = both((0,) * 4)
_AT_FIRST_LEVEL = "outer step t=0, level index i=1, level M = 2.000e+00: "
_NO_DOUBLING = "level doubling did not terminate at outer step t=0: levels M = "

# Every typed failure of a run: (id, problem factory returning (oracle, x0),
# overrides of the arguments composite=ZeroComposite(), x0, m0=1 and
# epsilon=1e-6 and of the level cap _MAX_LEVEL_DOUBLINGS, error type, full
# message, {loop: (value, grad, hessian, third) calls}).
BAD_RUNS = [
    # Bad arguments fail before any oracle call.
    *[("%s-%s" % (name, shown), quartic(), {name: bad}, ValueError,
       "%s must be finite and positive, got %s" % (name, shown), _NO_CALLS)
      for name in ("m0", "epsilon")
      for bad, shown in ((np.nan, "nan"), (np.inf, "inf"), (0.0, "0.0"),
                         (-1.0, "-1.0"))],
    ("x0-nan", quartic(), {"x0": np.array([np.nan, 1.0])}, ValueError,
     "x0 must be finite, got x0[0] = nan", _NO_CALLS),
    ("x0-inf", quartic(), {"x0": np.array([1.0, -np.inf])}, ValueError,
     "x0 must be finite, got x0[1] = -inf", _NO_CALLS),
    ("x0-length", quartic(), {"x0": np.ones(3)}, ValueError,
     "x0 has shape (3,), expected (2,)", _NO_CALLS),
    ("x0-2d", quartic(), {"x0": np.ones((2, 1))}, ValueError,
     "x0 has shape (2, 1), expected (2,)", _NO_CALLS),
    *[("composite-%s" % name, quartic(), {"composite": bad}, TypeError,
       "composite must be ZeroComposite (the only composite term), got "
       + name, _NO_CALLS)
      for bad, name in ((AbsComposite(), "AbsComposite"), (None, "NoneType"))],
    *[("%s-%s" % (name, shown), quartic(), {name: bad}, ValueError,
       "%s must be at least 1 and an integer, got %s" % (name, shown),
       _NO_CALLS)
      for name in ("max_outer", "max_inner")
      for bad, shown in ((0, "0"), (-1, "-1"), (2.5, "2.5"), (3.0, "3.0"))],
    # The trial at level 2^2 repeats the one at 2^1 (the first is the
    # smallest 2^i >= 2 m0) bit for bit, with zero decrease: the search
    # stops there instead of doubling on to 2^201.
    ("no-decrease", lambda: (_NoDecreaseOracle(3), np.zeros(3)), {},
     LevelSearchError, _NO_DOUBLING + "2.000e+00 .. 4.000e+00, last stop "
     "reason EpsilonSmall; last evaluated trial has gradient norm 1.000e+00 > "
     "epsilon 1.000e-06 and decrease f_x - f_trial = 0.000e+00",
     {run_basic: (3, 3, 1, 78)}),
    # The accelerated method rejects a trial without reading its value.
    ("no-decrease-capped", lambda: (_NoDecreaseOracle(3), np.ones(3)),
     {"_MAX_LEVEL_DOUBLINGS": 3}, LevelSearchError, _NO_DOUBLING
     + "2.000e+00 .. 1.600e+01, last stop reason EpsilonSmall; last evaluated "
     "trial has gradient norm 1.000e+00 > epsilon 1.000e-06 (its decrease was "
     "not evaluated)", {run_accel: (0, 5, 1, 156)}),
    # Every capped level certifies slow convergence: nothing was evaluated.
    ("m0-1e-80-capped", quartic(), {"m0": 1e-80, "_MAX_LEVEL_DOUBLINGS": 3},
     LevelSearchError, _NO_DOUBLING + "2.000e-80 .. 1.600e-79, last stop "
     "reason SlowConvergence; no trial was evaluated", both((0, 1, 1, 136))),
    # Near the ends of float range the inner solver's arithmetic overflows
    # or divides by zero, a secular solve fails, or the weight equation's
    # scale 16 / (18^3 M) underflows or overflows; each names t, i and M.
    ("m0-1e-300", quartic(), {"m0": 1e-300}, LevelSearchError,
     "outer step t=0, level index i=1, level M = 2.000e-300: OverflowError: "
     "(34, 'Numerical result out of range')", both((0, 1, 1, 0))),
    ("m0-1e-200", quartic(), {"m0": 1e-200}, SecularSolveError,
     "outer step t=0, level index i=1, level M = 2.000e-200: secular iterate "
     "sigma = 0 is not positive at M = 2e-200", both((0, 1, 1, 0))),
    ("m0-1e300", quartic(), {"m0": 1e300}, LevelSearchError,
     "outer step t=0, level index i=28, level M = inf: OverflowError: the "
     "level overflowed float range (m0 = 1.000e+300)",
     {run_basic: (2, 2, 1, 30)}),
    ("m0-1e300", quartic(), {"m0": 1e300}, WeightEquationError,
     "outer step t=0, level index i=15, level M = 3.277e+304: weight-equation "
     "scale k = 16 / (18^3 M) is 0 at M = 3.2768000000000002e+304",
     {run_accel: (0, 1, 1, 14)}),
    # The level 2 m0 is inf: refused before any oracle call, naming m0.
    ("m0-1e308", quartic(), {"m0": 1e308}, LevelSearchError,
     "outer step t=0, level index i=1, level M = inf: OverflowError: the "
     "level overflowed float range (m0 = 1.000e+308)", _NO_CALLS),
    ("m0-5e-324", quartic(), {"m0": 5e-324}, SecularSolveError,
     "outer step t=0, level index i=1, level M = 9.881e-324: secular step norm "
     "||h(sigma)|| is 0 at sigma = inf, M = 9.8813129168249309e-324",
     {run_basic: (0, 1, 1, 0)}),
    ("m0-5e-324", quartic(), {"m0": 5e-324}, WeightEquationError,
     "outer step t=0, level index i=1, level M = 9.881e-324: weight-equation "
     "scale k = 16 / (18^3 M) is inf at M = 9.8813129168249309e-324",
     {run_accel: (0,) * 4}),
    ("nonconvex", lambda: (QuadraticOracle(np.diag([1.0, -1.0]), np.ones(2)),
                           np.ones(2)), {}, ConvexityError, _AT_FIRST_LEVEL
     + "anchor Hessian has smallest eigenvalue lambda_min = -1.000e+00 < "
     "-1.000e-10", both((0, 1, 1, 0))),
    # Any SolveError, a caller's own subclass too, keeps its type.
    ("hook-error", hooked("_hessian", _failing_hook), {}, _HookError,
     _AT_FIRST_LEVEL + "the Hessian hook failed", both((0, 1, 1, 0))),
    # Oracle output is checked at its entry point, before a NumPy, f2py or
    # LAPACK routine meets it.  Unchecked, a NaN trial gradient drives 200
    # level doublings, a NaN third derivative surfaces as a root finder's
    # message, and a (2,) gradient or third derivative makes dormqr write
    # to stderr and the secular solve take the blame.
    ("overflow-1e150", quartic(x0=1e150), {}, OracleError,
     _AT_FIRST_LEVEL + "grad returned a non-finite result", both((0, 1, 0, 0))),
    ("grad-nan-from-2", hooked("_grad", lambda p: np.full(2, np.nan), k=2), {},
     OracleError, _AT_FIRST_LEVEL + "grad returned a non-finite result",
     both((0, 2, 1, 63))),
    ("third-nan", hooked("_third_directional", lambda p, h: np.full(2, np.nan)),
     {}, OracleError, _AT_FIRST_LEVEL + "third_directional returned a "
     "non-finite result", both((0, 1, 1, 1))),
    # Output that turns non-finite at a later call names a later step.
    ("value-nan-from-4", hooked("_value", lambda p: np.nan, k=4), {},
     OracleError, "outer step t=1, level index i=0, level M = 2.000e+00: "
     "value returned a non-finite result", {run_basic: (4, 4, 2, 152)}),
    ("value-nan-from-4", hooked("_value", lambda p: np.nan, k=4), {},
     OracleError, "outer step t=2, level index i=1, level M = 4.000e+00: "
     "value returned a non-finite result", {run_accel: (4, 12, 6, 293)}),
    ("hessian-inf-from-3",
     hooked("_hessian", lambda p: np.full((2, 2), np.inf), k=3), {},
     OracleError, "outer step t=2, level index i=0, level M = 2.000e+00: "
     "hessian returned a non-finite result", {run_basic: (5, 5, 3, 178)}),
    ("hessian-inf-from-3",
     hooked("_hessian", lambda p: np.full((2, 2), np.inf), k=3), {},
     OracleError, "outer step t=1, level index i=1, level M = 4.000e+00: "
     "hessian returned a non-finite result", {run_accel: (1, 6, 3, 152)}),
    ("grad-nan-from-4", hooked("_grad", lambda p: np.full(2, np.nan), k=4), {},
     OracleError, "outer step t=1, level index i=0, level M = 2.000e+00: grad "
     "returned a non-finite result",
     {run_basic: (3, 4, 2, 152), run_accel: (1, 4, 1, 89)}),
    # Wrong-shape output.
    ("grad-3x1", hooked("_grad", lambda p: (4.0 * p.x**3)[:, None], n=3), {},
     OracleError, _AT_FIRST_LEVEL + "grad returned an array of shape (3, 1), "
     "expected an array of shape (3,)", both((0, 1, 0, 0))),
    ("grad-2", hooked("_grad", lambda p: (4.0 * p.x**3)[:2], n=3), {},
     OracleError, _AT_FIRST_LEVEL + "grad returned an array of shape (2,), "
     "expected an array of shape (3,)", both((0, 1, 0, 0))),
    ("third-2", hooked("_third_directional",
                       lambda p, h: (24.0 * p.x * h * h)[:2], n=3), {},
     OracleError, _AT_FIRST_LEVEL + "third_directional returned an array of "
     "shape (2,), expected an array of shape (3,)", both((0, 1, 1, 1))),
    ("hessian-3x2", hooked("_hessian", lambda p: np.diag(12.0 * p.x**2)[:, :2],
                           n=3), {},
     OracleError, _AT_FIRST_LEVEL + "hessian returned an array of shape "
     "(3, 2), expected an array of shape (3, 3)", both((0, 1, 1, 0))),
    ("hessian-list", hooked("_hessian",
                            lambda p: np.diag(12.0 * p.x**2).tolist(), n=3), {},
     OracleError, _AT_FIRST_LEVEL + "hessian returned a list of shape (3, 3), "
     "expected an array of shape (3, 3)", both((0, 1, 1, 0))),
    ("value-2", hooked("_value", lambda p: np.full(2, np.sum(p.x**4)), n=3),
     {}, OracleError, _AT_FIRST_LEVEL + "value returned an array of shape "
     "(2,), expected an array of shape ()", {run_basic: (1, 2, 1, 59)}),
    ("value-2", hooked("_value", lambda p: np.full(2, np.sum(p.x**4)), n=3),
     {}, OracleError, "outer step t=0, level index i=2, level M = 4.000e+00: "
     "value returned an array of shape (2,), expected an array of shape ()",
     {run_accel: (1, 3, 1, 78)}),
]


@pytest.mark.parametrize("solve, make, overrides, error, message, calls", [
    pytest.param(solve, make, overrides, error, message, calls,
                 id="%s-%s" % (name, solve.__name__))
    for name, make, overrides, error, message, by_loop in BAD_RUNS
    for solve, calls in by_loop.items()])
def test_bad_run_fails_typed_named_and_counted(
        monkeypatch, capfd, solve, make, overrides, error, message, calls):
    oracle, x0 = make()
    args = {"composite": ZeroComposite(), "x0": x0, "m0": 1.0,
            "epsilon": 1e-6, **overrides}
    if "_MAX_LEVEL_DOUBLINGS" in args:
        monkeypatch.setattr(tensormin.basic, "_MAX_LEVEL_DOUBLINGS",
                            args.pop("_MAX_LEVEL_DOUBLINGS"))
    with pytest.raises(error) as info:
        solve(oracle, **args)
    assert type(info.value) is error
    assert str(info.value) == message
    assert oracle.calls.snapshot() == dict(zip(KINDS, calls), trace=0)
    assert capfd.readouterr().err == ""


def test_every_exported_solve_error_is_a_bad_run():
    # A new typed failure needs a row above.
    exported = {obj for obj in map(vars(tensormin).get, tensormin.__all__)
                if isinstance(obj, type) and issubclass(obj, tensormin.SolveError)}
    assert issubclass(tensormin.SolveError, RuntimeError)
    assert exported - {row[3] for row in BAD_RUNS} == {tensormin.SolveError}


def test_runs_sharing_an_oracle_count_their_own_calls():
    data, _ = make_logistic(2000, 49, seed=0)
    args = (ZeroComposite(), np.zeros(50), 1.0, 1e-6)
    solo = run_basic(logistic_oracle(data), *args)[1].CO
    shared = logistic_oracle(data)
    cos = []

    def solve():
        cos.append(run_basic(shared, *args)[1].CO)

    threads = [threading.Thread(target=solve) for _ in range(2)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=120)
        assert not th.is_alive()
    assert solo == pinned("logistic-2000x50", run_basic).counters[1]
    assert cos == [solo, solo]
    assert sum(cos) == shared.calls.total()

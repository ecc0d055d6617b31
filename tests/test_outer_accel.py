"""Accelerated outer loop: weight equation, mixtures and estimating sequence
(its decrease is tested with the basic step's in test_outer_basic)."""

import json
import math
from dataclasses import asdict

import numpy as np
import pytest

import tensormin.accel
from tensormin.accel import WeightEquationError, _AccelStep, run_accel, solve_a
from tensormin.basic import iterate_rows, run_basic
from tensormin.harness import bundled_dataset_path, load_dataset
from tensormin.inner import StopReason
from tensormin.oracles import (
    LowerBoundQuartic,
    ZeroComposite,
    as_point,
    logistic_oracle,
    make_logistic,
    quartic_oracle,
)

_SCALE = 18.0**3


def run_quartic(n, x0, m0, epsilon, **kw):
    oracle = quartic_oracle(n)
    x, report, rows = run_accel(
        oracle, ZeroComposite(), np.asarray(x0, dtype=float), m0, epsilon, **kw
    )
    return oracle, x, report, rows


# -- weight equation ---------------------------------------------------------------


def test_solve_a_zero_total_closed_form():
    assert solve_a(0.0, 2.0) == 16.0 / (_SCALE * 2.0)
    a = solve_a(0.0, 16.0 / _SCALE)
    assert abs(a - 1.0) <= 5e-16


def test_solve_a_against_bisection_oracle():
    # With M = 16/18^3 and A = 1 the equation reduces to a^4 = (1 + a)^3;
    # bracket its unique positive root by plain bisection.
    lo, hi = 1.0, 10.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if mid**4 - (1.0 + mid) ** 3 > 0.0:
            hi = mid
        else:
            lo = mid
    root = 0.5 * (lo + hi)
    a = solve_a(1.0, 16.0 / _SCALE)
    assert abs(a - root) <= 1e-9


def test_solve_a_residuals_random():
    rng = np.random.default_rng(40)
    for trial in range(50):
        A = 0.0 if trial % 7 == 0 else float(10 ** rng.uniform(-3, 3))
        M = float(10 ** rng.uniform(-3, 3))
        a = solve_a(A, M)
        assert a > 0.0
        s = A + a
        res = abs(_SCALE * M * a**4 - 16.0 * s**3)
        assert res <= 1e-12 * (1.0 + 16.0 * s**3)


def test_solve_a_grows_with_accumulated_weight():
    prev = 0.0
    for A in (0.0, 1.0, 2.0, 5.0, 50.0):
        a = solve_a(A, 1.0)
        assert a > prev
        prev = a


def test_solve_a_rejects_bad_inputs():
    with pytest.raises(ValueError):
        solve_a(-1e-9, 1.0)
    with pytest.raises(ValueError):
        solve_a(1.0, 0.0)


def reference_solve_a(A, M):
    """Reference weight solve: SciPy's brentq on the same bracket, then up
    to three Newton polishing steps."""
    from scipy.optimize import brentq

    coef = _SCALE * M

    def u(a):
        s = A + a
        return coef * a**4 - 16.0 * s * s * s

    hi = max(1.0, A, 32.0 / coef)
    while u(hi) <= 0.0:
        hi *= 2.0
    a = brentq(u, 0.0, hi, xtol=max(hi * 1e-16, 1e-300), rtol=1e-15, maxiter=200)
    for _ in range(3):
        s = A + a
        val = coef * a**4 - 16.0 * s**3
        if val == 0.0:
            break
        slope = 4.0 * coef * a**3 - 48.0 * s * s
        if slope <= 0.0:
            break
        a_new = a - val / slope
        if not (0.0 < a_new <= hi) or a_new == a:
            break
        a = a_new
    return a


def weight_cases(count=2000, seed=41):
    rng = np.random.default_rng(seed)
    return zip(10 ** rng.uniform(-10, 10, count), 10 ** rng.uniform(-8, 8, count))


def test_solve_a_matches_brentq_reference():
    eps = np.finfo(float).eps
    for A, M in weight_cases():
        a = solve_a(A, M)
        assert abs(a - reference_solve_a(A, M)) <= 4.0 * eps * a


def test_solve_a_residual_bound_over_wide_range():
    for A, M in weight_cases():
        a = solve_a(A, M)
        s = A + a
        res = abs(_SCALE * M * a**4 - 16.0 * s**3)
        assert res <= 1e-12 * (1.0 + 16.0 * s**3)


def test_solve_a_newton_cap_raises(monkeypatch):
    # From gamma_0 = (k / A)^(1/4) ~ 0.72 the iteration makes 5 Newton steps
    # and stops on the sixth evaluation.
    assert solve_a(1e-10, 1e8) > 0.0
    monkeypatch.setattr(tensormin.accel, "_MAX_NEWTON_STEPS", 3)
    with pytest.raises(RuntimeError, match="did not converge in 3 steps"):
        solve_a(1e-10, 1e8)


def test_solve_a_roots_where_a_to_the_fourth_overflows():
    # For A >= 1e77 the root is representable but a^4 is not, so the
    # equation is checked in logarithms: 4 log a = log k + 3 log(A + a).
    # At A = 1.7e308 the Newton derivative must not form 4 A first.
    for A, M in ((1e76, 1.0), (1e80, 1.0), (1e100, 1e8), (1e300, 1.0),
                 (1e300, 1e8), (1e300, 1e-8), (1.7e308, 1e-300)):
        a = solve_a(A, M)
        assert 0.0 < a < np.inf
        lhs = 4.0 * math.log(a)
        rhs = math.log(16.0 / (_SCALE * M)) + 3.0 * math.log(A + a)
        assert abs(lhs - rhs) <= 1e-14 * abs(lhs)


def test_solve_a_holds_over_its_stated_range_and_fails_typed_beyond(
        monkeypatch):
    # The stated range: M in [1e-300, 1e300], A <= 1e307 and A M <= 1e300,
    # checked in logarithms, 4 log a = log k + 3 log(A + a), at its corners
    # and at log-uniform samples.
    rng = np.random.default_rng(43)
    cases = [(0.0, 1e-300), (0.0, 1e300), (1e-300, 1e300), (1e307, 1e-300),
             (1e307, 1e-7)]
    for _ in range(2000):
        log_m = rng.uniform(-300.0, 300.0)
        log_a = rng.uniform(-320.0, min(307.0, 300.0 - log_m))
        cases.append((10.0**log_a, 10.0**log_m))
    for A, M in cases:
        a = solve_a(A, M)
        lhs = 4.0 * math.log(a)
        rhs = math.log(16.0 / (_SCALE * M)) + 3.0 * math.log(A + a)
        assert abs(lhs - rhs) <= 1e-13 * (1.0 + abs(lhs)), (A, M)
    # Beyond it: k overflows to inf, k underflows to 0 (it used to divide by
    # zero), gamma^4 underflows, the residual bound overflows (the root
    # a ~ 3.98e308 is not representable), and A is not finite.
    for A, M in ((0.0, 5e-324), (1e308, 1e308), (1e300, 1e300),
                 (1.7e308, 2e-311), (math.nan, 1.0), (math.inf, 1.0)):
        with pytest.raises(WeightEquationError, match="weight-equation"):
            solve_a(A, M)
    # A non-finite A fails before any Newton step.
    monkeypatch.setattr(tensormin.accel, "_MAX_NEWTON_STEPS", 0)
    with pytest.raises(WeightEquationError, match="A = nan is not finite"):
        solve_a(math.nan, 1.0)


# -- mixture ------------------------------------------------------


def fed_point(x, grad, value=0.0):
    """A ``Point`` at x that already holds its gradient and value."""
    p = as_point(np.asarray(x, dtype=float))
    p.data["grad"] = np.asarray(grad, dtype=float)
    p.data["value"] = float(value)
    return p


def test_center_mixes_the_iterate_and_v():
    oracle = quartic_oracle(2)
    x = as_point(np.array([1.0, 2.0]))
    # A = 0 gives gamma = 1: z is v exactly.
    step = _AccelStep(oracle, np.array([-3.0, 4.0]))
    z, fields = step.center(x, 1.0)
    assert fields["gamma"] == 1.0 and fields["a_total"] == 0.0
    assert np.array_equal(z.x, step.v)
    # v = x_t, as on the first step: the center is the iterate's own point.
    step = _AccelStep(oracle, x.x)
    z, _ = step.center(x, 1.0)
    assert z is x
    # Otherwise z = (1 - gamma) x_t + gamma v, bit for bit.
    step = _AccelStep(oracle, np.array([-3.0, 4.0]))
    step.update(fed_point([0.0, 0.0], [1.0, 0.0]), {"a": 1.0})
    z, fields = step.center(x, 1.0)
    g = fields["gamma"]
    assert 0.0 < g < 1.0 and g == fields["a"] / (1.0 + fields["a"])
    assert np.array_equal(z.x, (1.0 - g) * x.x + g * step.v)
    assert oracle.calls.total() == 0


# -- estimating sequence --------------------------------------------------------------


def test_accel_step_fresh_invariants():
    x0 = np.array([2.0, -1.0])
    step = _AccelStep(quartic_oracle(2), x0)
    assert step.a_total == 0.0
    assert np.array_equal(step.v, x0)
    assert np.array_equal(step.lin, np.zeros(2))
    assert step.phi_star() == 0.0
    x0[0] = 99.0  # the step must hold its own copies
    assert step.x0[0] == 2.0 and step.v[0] == 2.0


def test_accel_step_update_one_step_closed_form():
    oracle = quartic_oracle(2)
    step = _AccelStep(oracle, np.zeros(2))
    fields = step.update(fed_point([0.0, 0.0], [8.0, 0.0], 0.0), {"a": 1.0})
    assert np.array_equal(step.lin, np.array([8.0, 0.0]))
    assert np.allclose(step.v, np.array([-2.0, 0.0]), atol=1e-14)
    # v minimizes phi: the gradient ||v - x0||^2 (v - x0) + lin vanishes,
    # and the cubed distance equals the linear term's norm.
    d = step.v - step.x0
    grad_phi = float(np.dot(d, d)) * d + step.lin
    assert np.allclose(grad_phi, 0.0, atol=1e-12)
    assert np.linalg.norm(d) ** 3 == pytest.approx(np.linalg.norm(step.lin), rel=1e-12)
    assert step.phi_star() == pytest.approx(-12.0, abs=1e-12)
    assert step.a_total == 1.0
    assert fields == {"a_total_next": 1.0, "phi_star_next": step.phi_star()}
    assert oracle.calls.total() == 0


def test_accel_step_update_zero_gradient_keeps_center():
    oracle = quartic_oracle(2)
    step = _AccelStep(oracle, np.array([1.0, 1.0]))
    step.update(fed_point([0.5, 0.5], np.zeros(2), 5.0), {"a": 2.0})
    assert np.array_equal(step.v, step.x0)
    assert step.a_total == 2.0
    assert oracle.calls.total() == 0


def test_accel_step_update_chained_minimizer_identities():
    rng = np.random.default_rng(41)
    oracle = quartic_oracle(3)
    step = _AccelStep(oracle, rng.standard_normal(3))
    for _ in range(10):
        a = float(rng.uniform(0.1, 2.0))
        grad = rng.standard_normal(3)
        value = float(rng.standard_normal())
        step.update(fed_point(rng.standard_normal(3), grad, value), {"a": a})
        d = step.v - step.x0
        lin_norm = np.linalg.norm(step.lin)
        assert np.linalg.norm(d) ** 3 == pytest.approx(lin_norm, rel=1e-12)
        grad_phi = float(np.dot(d, d)) * d + step.lin
        assert np.linalg.norm(grad_phi) <= 1e-9 * (1.0 + lin_norm)
        # v is the minimizer: random competitors never do better
        for _ in range(5):
            y = step.x0 + rng.standard_normal(3)
            dy = y - step.x0
            phi_y = (
                0.25 * float(np.dot(dy, dy)) ** 2
                + float(np.dot(step.lin, y))
                + step.const
            )
            assert step.phi_star() <= phi_y + 1e-10 * (1.0 + abs(phi_y))
    assert oracle.calls.total() == 0


# -- full accelerated runs -------------------------------------------------------------


def test_run_accel_quartic_estimating_sequence_run():
    # The companion steps make the run short; this start and epsilon give
    # it 12 accepted steps that do not end it.
    oracle, x, report, rows = run_quartic(2, [10.0, 10.0], 1.0, 1e-10)
    assert report.converged is True
    assert float(np.linalg.norm(oracle.grad(x))) <= 1e-10
    assert report.BGM_E == len(rows)
    assert report.BGM_IT == sum(r["inner_iters"] for r in rows)

    # Track x_t, the point of the companion row where it won and else the
    # accepted trial's, to recompute the sandwich
    # A_t f(x_t) <= phi_t(v_t) <= A_t f(x*) + 1/4 ||x* - x0||^4 with the
    # quartic minimizer x* = 0, f* = 0 and x0 = (10,10): the upper cap is
    # 1/4 200^2.
    upper_cap = 1e4
    x_t = np.array([10.0, 10.0])
    companion = None
    a_totals = []
    for row in rows:
        assert row["gamma"] == pytest.approx(
            row["a"] / (row["a_total"] + row["a"]), rel=1e-12
        )
        assert 2.0 * (1.0 - 1e-12) <= row["M_level"] <= 192.0
        lower = row["a_total"] * oracle.value(x_t)
        assert lower <= row["phi_star"] + 1e-8 * (1.0 + abs(row["phi_star"]))
        assert row["phi_star"] <= upper_cap + 1e-8
        if row["stop_reason"] == "SlowConvergence":
            assert row["f_trial"] is None
            assert row["grad_norm_trial"] is None
            assert "x_trial" not in row
        elif row.get("companion"):
            # evaluated companions are value-evaluated, to be compared
            assert row["f_trial"] is not None
            assert "x_trial" in row
        elif not row["accepted"]:
            # rejected trials are never value-evaluated, only their gradient
            assert row["f_trial"] is None
            assert row["grad_norm_trial"] is not None
            assert "x_trial" in row
        if row.get("companion"):
            companion = row  # written just before its trial's row
            continue
        if row["accepted"]:
            assert row["M_level"] / 2.0 <= 96.0
            x_next, f_next = row["x_trial"], row["f_trial"]
            if "a_total_next" in row:  # absent on the epsilon stop
                a_next = row["a_total"] + row["a"]
                assert row["a_total_next"] == pytest.approx(a_next, rel=1e-12)
                res = abs(
                    row["a"] ** 4 * _SCALE * row["M_level"] - 16.0 * a_next**3
                )
                assert res <= 1e-9 * (1.0 + 16.0 * a_next**3)
                if companion is not None and companion["t"] == row["t"]:
                    assert companion["M_level"] == row["M_level"]
                    if companion["accepted"]:
                        assert companion["f_trial"] < row["f_trial"]
                        x_next, f_next = (companion["x_trial"],
                                          companion["f_trial"])
                    elif companion["f_trial"] is not None:
                        assert companion["f_trial"] >= row["f_trial"]
                assert row["a_total_next"] * f_next <= row[
                    "phi_star_next"
                ] + 1e-8 * (1.0 + abs(row["phi_star_next"]))
                assert row["phi_star_next"] <= upper_cap + 1e-8
                a_totals.append(row["a_total_next"])
            x_t = x_next
    assert np.array_equal(x, x_t)

    assert len(a_totals) >= 10
    assert all(b > a for a, b in zip(a_totals, a_totals[1:]))

    # Weight growth: A_t >= 2^(5/4) (t-1)^4 / (18^3 max(4 M_0, 8 L_f)).
    denom = _SCALE * max(4.0 * 1.0, 8.0 * 24.0)
    for t, A in enumerate(a_totals, start=1):
        if t >= 2:
            assert A >= 2.0**1.25 * (t - 1) ** 4 / denom


def bundled_problem():
    data = load_dataset(bundled_dataset_path())
    return logistic_oracle(data), np.ones(data.dim)


@pytest.mark.parametrize("make", [
    bundled_problem,
    lambda: (quartic_oracle(10), np.ones(10)),
    lambda: (LowerBoundQuartic(10), np.zeros(10)),
    lambda: (make_logistic(2000, 49, seed=0)[1], np.zeros(50)),
], ids=["bundled", "quartic", "lower-bound-quartic", "logistic-2000x50"])
def test_run_accel_not_slower_than_basic_and_sandwiched(make):
    # Keeping the lower of the trial and the basic companion step lets the
    # accelerated loop take no more outer steps than the basic one, while
    # every accepted step keeps the estimating-sequence sandwich
    # A_t f(x_t) <= phi*_t <= A_t f(y) + 1/4 ||y - x0||^4 for any y (phi_t
    # is built from lower linearizations of f); y is the basic answer.  On
    # the logistic problem one companion loses to its trial.
    oracle_b, x0 = make()
    x_b, rep_b, _ = run_basic(oracle_b, ZeroComposite(), x0, 1.0, 1e-6)
    oracle, _ = make()
    _, rep_a, rows = run_accel(oracle, ZeroComposite(), x0, 1.0, 1e-6)
    assert rep_b.converged and rep_a.converged
    assert rep_a.final_grad_norm <= 1e-6
    assert rep_a.IT <= rep_b.IT
    f_y = oracle.value(x_b)
    cap = 0.25 * float(np.dot(x_b - x0, x_b - x0)) ** 2
    f_next = {r["t"]: r["f_trial"] for r in iterate_rows(rows)}
    checked = 0
    for row, after in zip(rows, rows[1:]):
        if row.get("companion"):  # written just before its trial's row
            assert after["t"] == row["t"] and after["accepted"]
            assert row["accepted"] == (row["f_trial"] is not None
                                       and row["f_trial"] < after["f_trial"])
    for row in rows:
        if (not row["accepted"] or row.get("companion")
                or "a_total_next" not in row):
            continue
        a_next, phi = row["a_total_next"], row["phi_star_next"]
        tol = 1e-8 * (1.0 + abs(phi))
        assert f_next[row["t"]] <= row["f_trial"]
        assert a_next * f_next[row["t"]] <= phi + tol, row["t"]
        assert phi <= a_next * f_y + cap + tol, row["t"]
        checked += 1
    assert checked >= rep_a.IT - 1


def test_run_accel_epsilon_sweep_nondecreasing_cost():
    its = []
    inner_totals = []
    for eps in (1e-1, 1e-2, 1e-3):
        _, _, report, _ = run_quartic(2, [1.0, 1.0], 1.0, eps)
        assert report.converged is True
        its.append(report.IT)
        inner_totals.append(report.BGM_IT)
    assert its == sorted(its)
    assert inner_totals == sorted(inner_totals)


def test_run_accel_oracle_call_conservation():
    oracle, _, report, rows = run_quartic(2, [1.0, 1.0], 1.0, 1e-3)
    snap = oracle.calls.snapshot()
    assert report.CO == oracle.calls.total() == sum(snap.values())
    # One anchor per Hessian call, and no trace call.  On the first step
    # x = v = x0, so z = x0 at every level and one anchor serves them all;
    # later trial rows each anchor at their own z (grad + Hessian), and a
    # companion anchors at x_t with the gradient already held (Hessian).
    companions = sum(1 for r in rows if r.get("companion"))
    first_step_levels = sum(1 for r in rows if r["t"] == 0)
    assert first_step_levels >= 2 and companions >= 1
    trial_anchors = 1 + sum(1 for r in rows
                            if r["t"] > 0 and not r.get("companion"))
    assert snap["hessian"] == trial_anchors + companions
    assert snap["trace"] == 0
    evaluated = sum(1 for r in rows if r["grad_norm_trial"] is not None)
    accepted = sum(1 for r in rows if r["accepted"] and not r.get("companion"))
    evaluated_companions = sum(1 for r in rows if r.get("companion")
                               and r["f_trial"] is not None)
    assert snap["grad"] == trial_anchors + evaluated
    assert snap["value"] == accepted + evaluated_companions


def test_companion_inner_cap_leaves_the_trial_and_the_run_goes_on():
    # Only a trial's IterationCap ends the run: a companion that hits
    # max_inner is not evaluated, and its step's trial becomes the iterate.
    _, report, rows = run_accel(LowerBoundQuartic(10), ZeroComposite(),
                                np.zeros(10), 1.0, 1e-6, max_inner=5,
                                max_outer=40)
    capped = [k for k, r in enumerate(rows) if r.get("companion")
              and r["stop_reason"] == StopReason.ITERATION_CAP.value]
    assert [rows[k]["t"] for k in capped] == [34, 39]
    for k in capped:
        assert rows[k]["accepted"] is False and rows[k]["f_trial"] is None
    iterates = {r["t"]: r for r in iterate_rows(rows)}
    for k in capped:  # the trial's line follows its companion's
        assert iterates[rows[k]["t"]] is rows[k + 1]
    assert (report.IT, report.CO, report.BGM_E, report.BGM_IT) == (40, 610, 79,
                                                                   337)
    assert report.converged is False


@pytest.mark.parametrize("solver", [run_basic, run_accel])
def test_inner_cap_before_any_step_reports_start_values(solver):
    # An abort before the first accepted step still reports f and ||grad f||
    # at the start point, so the JSON-lines report stays valid JSON.
    oracle = quartic_oracle(2)
    x0 = np.ones(2)
    _, report, _ = solver(oracle, ZeroComposite(), x0, 1.0, 1e-10, max_inner=1)
    assert report.converged is False
    assert np.isfinite(report.final_f)
    assert report.final_f == oracle.value(x0)
    assert report.final_grad_norm == float(np.linalg.norm(oracle.grad(x0)))
    json.dumps(asdict(report), allow_nan=False)


def test_run_accel_first_anchor_is_the_start_point():
    # While z = x0 the anchor is built on the iterate's own point, so a run
    # that accepts no step reads grad f(x0) once, for the anchor and the
    # report alike.
    oracle, _, report, _ = run_quartic(3, np.ones(3), 1, 1e-10, max_inner=1)
    assert oracle.calls.snapshot() == {"value": 1, "grad": 1, "hessian": 1,
                                       "third": 1, "trace": 0}
    assert report.CO == 4

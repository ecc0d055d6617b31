"""Accelerated outer loop: weight equation, mixtures, estimating sequence,
and the directional acceptance test."""

import json
import math
from dataclasses import asdict

import numpy as np
import pytest

import tensormin.accel
from tensormin.accel import (
    AccelState,
    accept_test_accel,
    mix_z,
    phi_min_value,
    run_accel,
    solve_a,
    update_phi_and_v,
)
from conftest import LowerBoundQuartic, iterate_rows, make_logistic
from tensormin.basic import run_basic
from tensormin.harness import bundled_dataset_path, load_dataset
from tensormin.inner import StopReason
from tensormin.oracles import (
    OracleError,
    QuarticOracle,
    ZeroComposite,
    logistic_oracle,
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
    for A, M in ((1e76, 1.0), (1e80, 1.0), (1e100, 1e8), (1e300, 1.0),
                 (1e300, 1e8), (1e300, 1e-8)):
        a = solve_a(A, M)
        assert 0.0 < a < np.inf
        lhs = 4.0 * math.log(a)
        rhs = math.log(16.0 / (_SCALE * M)) + 3.0 * math.log(A + a)
        assert abs(lhs - rhs) <= 1e-14 * abs(lhs)


# -- mixture and acceptance test ------------------------------------------------------


def test_mix_z_cases():
    x = np.array([1.0, 2.0])
    v = np.array([-3.0, 4.0])
    assert np.array_equal(mix_z(x, v, 0.0, 0.7), v)
    assert np.allclose(mix_z(x, x, 2.0, 0.5), x)
    assert np.allclose(mix_z(x, v, 1.0, 1.0), 0.5 * (x + v))


def test_accept_test_accel_points_and_boundary():
    z = np.array([1.0])
    assert accept_test_accel(np.array([0.0]), z, np.array([0.3]), 1.0) is True
    assert accept_test_accel(np.array([2.0]), z, z, 1.0) is False
    # Unit gradient against unit displacement at level 1/216: equality.
    assert accept_test_accel(np.array([1.0]), z, np.array([0.0]), 1.0 / 216.0) is True
    assert (
        accept_test_accel(np.array([1.0]), z * (1.0 - 1e-9), np.array([0.0]), 1.0 / 216.0)
        is False
    )


# -- estimating sequence --------------------------------------------------------------


def test_accel_state_fresh_invariants():
    x0 = np.array([2.0, -1.0])
    state = AccelState.fresh(x0)
    assert state.a_total == 0.0
    assert np.array_equal(state.v, x0)
    assert np.array_equal(state.lin_acc, np.zeros(2))
    assert phi_min_value(state) == 0.0
    x0[0] = 99.0  # the state must hold its own copies
    assert state.x0[0] == 2.0 and state.v[0] == 2.0


def test_update_phi_one_step_closed_form():
    state = AccelState.fresh(np.zeros(2))
    nxt = update_phi_and_v(
        state, 1.0, np.array([8.0, 0.0]), 0.0, np.array([0.0, 0.0])
    )
    assert np.array_equal(nxt.lin_acc, np.array([8.0, 0.0]))
    assert np.allclose(nxt.v, np.array([-2.0, 0.0]), atol=1e-14)
    # v minimizes phi: the gradient ||v - x0||^2 (v - x0) + lin vanishes,
    # and the cubed distance equals the linear term's norm.
    d = nxt.v - nxt.x0
    grad_phi = float(np.dot(d, d)) * d + nxt.lin_acc
    assert np.allclose(grad_phi, 0.0, atol=1e-12)
    assert np.linalg.norm(d) ** 3 == pytest.approx(np.linalg.norm(nxt.lin_acc), rel=1e-12)
    assert phi_min_value(nxt) == pytest.approx(-12.0, abs=1e-12)
    assert nxt.a_total == 1.0


def test_update_phi_zero_gradient_keeps_center():
    state = AccelState.fresh(np.array([1.0, 1.0]))
    nxt = update_phi_and_v(state, 2.0, np.zeros(2), 5.0, np.array([0.5, 0.5]))
    assert np.array_equal(nxt.v, state.x0)
    assert nxt.a_total == 2.0


def test_update_phi_chained_minimizer_identities():
    rng = np.random.default_rng(41)
    state = AccelState.fresh(rng.standard_normal(3))
    for _ in range(10):
        state = update_phi_and_v(
            state,
            float(rng.uniform(0.1, 2.0)),
            rng.standard_normal(3),
            float(rng.standard_normal()),
            rng.standard_normal(3),
        )
        d = state.v - state.x0
        lin_norm = np.linalg.norm(state.lin_acc)
        assert np.linalg.norm(d) ** 3 == pytest.approx(lin_norm, rel=1e-12)
        grad_phi = float(np.dot(d, d)) * d + state.lin_acc
        assert np.linalg.norm(grad_phi) <= 1e-9 * (1.0 + lin_norm)
        # v is the minimizer: random competitors never do better
        for _ in range(5):
            y = state.x0 + rng.standard_normal(3)
            dy = y - state.x0
            phi_y = (
                0.25 * float(np.dot(dy, dy)) ** 2
                + float(np.dot(state.lin_acc, y))
                + state.phi_const
            )
            assert phi_min_value(state) <= phi_y + 1e-10 * (1.0 + abs(phi_y))


# -- full accelerated runs -------------------------------------------------------------


def test_run_accel_already_stationary_start():
    oracle, x, report, rows = run_quartic(3, np.zeros(3), 1.0, 1e-8)
    assert report.converged is True
    assert report.IT == 1
    assert len(rows) == 1
    assert rows[0]["accepted"] is True
    assert np.array_equal(x, np.zeros(3))


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


def test_run_accel_is_deterministic_except_wall_time():
    x0 = [1.0, -0.5]
    _, x_a, rep_a, rows_a = run_quartic(2, x0, 1.0, 1e-3)
    _, x_b, rep_b, rows_b = run_quartic(2, x0, 1.0, 1e-3)
    assert np.array_equal(x_a, x_b)
    assert (rep_a.IT, rep_a.CO, rep_a.BGM_E, rep_a.BGM_IT) == (
        rep_b.IT, rep_b.CO, rep_b.BGM_E, rep_b.BGM_IT
    )
    assert rep_a.final_f == rep_b.final_f
    for ra, rb in zip(rows_a, rows_b):
        assert ra["M_level"] == rb["M_level"]
        assert ra["a"] == rb["a"]
        assert ra["accepted"] == rb["accepted"]


def test_run_accel_outer_cap_reports_honestly():
    _, _, report, _ = run_quartic(2, [1.0, 1.0], 1.0, 1e-10, max_outer=3)
    assert report.converged is False
    assert report.IT == 3
    assert np.isfinite(report.final_f)
    assert report.final_grad_norm > 1e-10


def test_run_accel_inner_cap_aborts_run():
    _, x, report, rows = run_quartic(2, [1.0, 1.0], 1.0, 1e-10, max_inner=1)
    assert report.converged is False
    assert rows[-1]["stop_reason"] == StopReason.ITERATION_CAP.value
    assert rows[-1]["accepted"] is False


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


class PoisonedQuartic(QuarticOracle):
    """Quartic with NaN gradients away from ``x0`` (``entry="grad"``) or NaN
    third derivatives everywhere (``entry="third"``)."""

    def __init__(self, x0, entry):
        super().__init__(len(x0))
        self.x0 = x0
        self.entry = entry

    def _grad(self, p):
        g = super()._grad(p)
        if self.entry == "grad" and not np.array_equal(p.x, self.x0):
            g = g * np.nan
        return g

    def _third_directional(self, p, h):
        t = super()._third_directional(p, h)
        return t * np.nan if self.entry == "third" else t


@pytest.mark.parametrize("solver", [run_basic, run_accel])
@pytest.mark.parametrize("entry, name", [("grad", "grad"),
                                         ("third", "third_directional")])
def test_non_finite_oracle_output_raises_oracle_error(solver, entry, name):
    # Unchecked, a NaN trial gradient drives 200 level doublings and a NaN
    # third derivative surfaces as a root finder's message; the error must
    # stop the first trial and name the entry point, the outer step and the
    # level index.
    x0 = np.ones(2)
    oracle = PoisonedQuartic(x0, entry)
    with pytest.raises(OracleError) as info:
        solver(oracle, ZeroComposite(), x0, 1.0, 1e-6)
    message = str(info.value)
    assert "t=0" in message and "i=1" in message
    assert "%s returned a non-finite result" % name in message


def test_run_accel_rejects_bad_parameters():
    oracle = quartic_oracle(2)
    with pytest.raises(ValueError):
        run_accel(oracle, ZeroComposite(), np.ones(2), 1.0, -1e-6)
    with pytest.raises(ValueError):
        run_accel(oracle, ZeroComposite(), np.ones(2), 0.0, 1e-6)

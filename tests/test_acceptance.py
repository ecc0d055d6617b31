"""Acceptance gate: eight end-to-end checks, one per shipped guarantee.

Each test prints a single summary line with the measured numbers, then
asserts the guarantee at its stated tolerance.  Criterion 6 also fits the
accelerated loop's decay exponent over its accepted steps t >= 100; its
failure message says how many such steps the run made.
"""

import math
import time

import numpy as np

from conftest import iterate_rows, tri_factor
from tensormin.accel import run_accel
from tensormin.basic import run_basic
from tensormin.harness import RunConfig, run_experiment
from tensormin.inner import StopReason, run_inner, secular_solve
from tensormin.model import ModelAnchor, inner_constants
from tensormin.oracles import (
    Dataset,
    FdThirdOracle,
    ZeroComposite,
    check_derivatives,
    fd_third_directional,
    logistic_oracle,
    quartic_oracle,
)


def test_a1_derivative_check_logistic_and_quartic():
    """Criterion 1: analytic derivatives agree with finite differences."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    features = np.hstack([np.ones((20, 1)), rng.standard_normal((20, 3))])
    labels = rng.integers(0, 2, size=20).astype(float)
    logistic = logistic_oracle(Dataset(features=features, labels=labels))
    x_log = rng.standard_normal(4)
    rep_log = check_derivatives(logistic, x_log, tol=1e-5)

    quartic = quartic_oracle(5)
    x_q = rng.standard_normal(5)
    rep_q = check_derivatives(quartic, x_q, tol=1e-5)
    elapsed = time.perf_counter() - t0

    worst_log = max(rep_log.max_rel_err.values())
    worst_q = max(rep_q.max_rel_err.values())
    print(
        "criterion 1: logistic max rel err %.3e, quartic max rel err %.3e, %.3fs"
        % (worst_log, worst_q, elapsed)
    )
    assert rep_log.passed and rep_log.failed_orders == [], rep_log
    assert rep_q.passed and rep_q.failed_orders == [], rep_q
    assert worst_log <= 1e-5
    assert worst_q <= 1e-5
    assert elapsed < 1.0


def test_a2_secular_solver_residuals():
    """Criterion 2: 1000 random regularized linear systems solved to 1e-10."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(123)
    worst = 0.0
    for trial in range(1000):
        n = int(rng.integers(1, 21))
        if trial % 10 < 3 and n > 1:
            rows = rng.standard_normal((n - 1, n))
        else:
            rows = rng.standard_normal((n, n))
        h_mat = rows.T @ rows
        w, v = np.linalg.eigh(h_mat)
        w = np.clip(w, 0.0, None)
        m_reg = 10.0 ** rng.uniform(-3.0, 3.0)
        c = rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 3.0)
        # H = v diag(w) v^T: solve in the coordinates of v.
        h = v @ secular_solve(tri_factor(w), m_reg, v.T @ c)
        resid = np.linalg.norm(
            h_mat @ h + 0.5 * m_reg * float(h @ h) * h - c
        )
        bound = 1e-10 * (1.0 + np.linalg.norm(c))
        worst = max(worst, resid / bound)
        assert resid <= bound, (trial, n, m_reg, resid, bound)
    elapsed = time.perf_counter() - t0
    print(
        "criterion 2: 1000 systems, worst residual/bound %.3e, %.3fs"
        % (worst, elapsed)
    )
    assert elapsed < 5.0


def test_a3_inner_solver_exits_cleanly_within_iteration_ceiling():
    """Criterion 3: at a safe level the inner loop never flags slow decay."""
    rng = np.random.default_rng(11)
    eps = 1e-6
    worst_ratio = 0.0
    reasons = {}
    for trial in range(200):
        n = int(rng.integers(1, 11))
        scale = (0.1, 1.0, 3.0)[trial % 3]
        oracle = quartic_oracle(n)
        x = scale * rng.standard_normal(n)
        anchor = ModelAnchor.from_oracle(oracle, x, 96.0)
        result = run_inner(anchor, oracle, eps)
        assert result.stop_reason in (
            StopReason.EPSILON_SMALL,
            StopReason.MODEL_STATIONARITY,
        ), (trial, result.stop_reason)
        reasons[result.stop_reason.value] = (
            reasons.get(result.stop_reason.value, 0) + 1
        )
        lips, beta = inner_constants(anchor)
        ceiling = 1.0 + (
            8.0 * math.log(3.0)
            + 4.0 * math.log(7.0 * lips)
            + math.log(beta)
            - math.log(2.0 * 96.0)
            - 4.0 * math.log(eps)
        ) / math.log(1.2)
        worst_ratio = max(worst_ratio, result.iterations / ceiling)
        assert result.iterations <= ceiling, (trial, result.iterations, ceiling)
    print(
        "criterion 3: 200 runs, exits %s, worst iterations/ceiling %.4f"
        % (reasons, worst_ratio)
    )


def test_a4_basic_outer_loop_decrease_and_level_budget():
    """Criterion 4: per-step decrease, bounded levels, bounded inner budget."""
    t0 = time.perf_counter()
    summary = []
    for n in (2, 10):
        oracle = quartic_oracle(n)
        x0 = np.ones(n)
        x, report, rows = run_basic(oracle, ZeroComposite(), x0, 1.0, 1e-8)
        assert report.converged
        fresh = quartic_oracle(n)
        x_prev = x0
        worst_slack = np.inf
        max_level = 0.0
        m_t = 1.0
        for row in rows:
            max_level = max(max_level, m_t)
            if not row["accepted"]:
                continue
            f_prev = fresh.value(x_prev)
            f_tr = fresh.value(row["x_trial"])
            g_tr = float(np.linalg.norm(fresh.grad(row["x_trial"])))
            rhs = g_tr ** (4.0 / 3.0) / (6.0 * row["M_level"] ** (1.0 / 3.0))
            slack = (f_prev - f_tr) - rhs
            worst_slack = min(worst_slack, slack)
            assert slack >= -1e-12, (n, row["t"], slack)
            x_prev = row["x_trial"]
            m_t = row["M_level"] / 2.0
        assert max_level <= 96.0, (n, max_level)
        budget = 2.0 * (report.IT + 1) + math.log2(96.0) - math.log2(1.0)
        assert report.BGM_E <= budget, (n, report.BGM_E, budget)
        summary.append(
            "n=%d IT=%d BGM_E=%d budget=%.2f worst slack %+.2e max level %g"
            % (n, report.IT, report.BGM_E, budget, worst_slack, max_level)
        )
    elapsed = time.perf_counter() - t0
    print("criterion 4: %s; %s; %.3fs" % (summary[0], summary[1], elapsed))
    assert elapsed < 10.0


def test_a5_accelerated_estimating_sequence_sandwich():
    """Criterion 5: scaled function values stay sandwiched by the estimate."""
    n = 2
    oracle = quartic_oracle(n)
    x0 = 10.0 * np.ones(n)
    x, report, rows = run_accel(oracle, ZeroComposite(), x0, 1.0, 1e-10)
    assert report.converged
    fresh = quartic_oracle(n)
    f_min = fresh.value(np.zeros(n))
    # f(x_{t+1}) at each step, the companion's value where it won.
    f_next = {r["t"]: fresh.value(r["x_trial"]) for r in iterate_rows(rows)}
    worst_lower = np.inf
    worst_upper = np.inf
    worst_resid = 0.0
    checked = 0
    for row in rows:
        if (not row.get("accepted") or row.get("companion")
                or "a_total_next" not in row):
            continue
        a_next = row["a_total_next"]
        phi_next = row["phi_star_next"]
        a_t = row["a"]
        f_x = f_next[row["t"]]
        assert f_x <= fresh.value(row["x_trial"])
        lower_slack = phi_next + 1e-8 * (1.0 + abs(phi_next)) - a_next * f_x
        worst_lower = min(worst_lower, lower_slack)
        assert a_next * f_x <= phi_next + 1e-8 * (1.0 + abs(phi_next)), row["t"]
        cap = a_next * f_min + 0.25 * float(x0 @ x0) ** 2
        worst_upper = min(worst_upper, cap + 1e-8 * (1.0 + abs(cap)) - phi_next)
        assert phi_next <= cap + 1e-8 * (1.0 + abs(cap)), row["t"]
        resid = abs(
            a_t ** 4 * (18.0 ** 3) * row["M_level"] - 16.0 * a_next ** 3
        )
        rel = resid / (1.0 + 16.0 * a_next ** 3)
        worst_resid = max(worst_resid, rel)
        assert rel <= 1e-9, (row["t"], rel)
        checked += 1
    assert checked >= 10
    print(
        "criterion 5: %d accepted steps, worst lower slack %+.2e, worst upper slack %+.2e,"
        " worst coefficient residual %.2e" % (checked, worst_lower, worst_upper, worst_resid)
    )


def test_a6_accelerated_crossing_not_slower_than_basic():
    """Criterion 6: accelerated loop should cross the 1e-6 value gap first."""
    n = 10
    target_gap = 1e-6
    oracle_b = quartic_oracle(n)
    _, rep_b, rows_b = run_basic(oracle_b, ZeroComposite(), np.ones(n), 1.0, 1e-8)
    basic_gaps = [r["f_trial"] for r in iterate_rows(rows_b)]
    t_basic = next(
        (i for i, f in enumerate(basic_gaps, start=1) if f <= target_gap), None
    )

    oracle_a = quartic_oracle(n)
    _, rep_a, rows_a = run_accel(
        oracle_a, ZeroComposite(), np.ones(n), 1.0, 1e-7, max_outer=400
    )
    # f(x_t) per accepted step: the companion's value where it won.
    accel_gaps = [r["f_trial"] for r in iterate_rows(rows_a)]
    t_accel = next(
        (i for i, f in enumerate(accel_gaps, start=1) if f <= target_gap), None
    )

    tail = [
        (i, f) for i, f in enumerate(accel_gaps, start=1) if i >= 100 and f > 0.0
    ]
    exponent = math.nan
    if len(tail) >= 2:
        slope, _ = np.polyfit(
            np.log([i for i, _ in tail]), np.log([f for _, f in tail]), 1
        )
        exponent = -slope

    print(
        "criterion 6: basic crossing at accepted step %s, accelerated at %s,"
        " accelerated tail decay exponent %.2f over %d steps t >= 100 of %d"
        % (t_basic, t_accel, exponent, len(tail), len(accel_gaps))
    )
    assert t_basic is not None
    assert t_accel is not None and t_accel <= t_basic, (
        "accelerated loop reached the 1e-6 value gap at accepted step %s versus"
        " %s for the basic loop" % (t_accel, t_basic)
    )
    assert exponent >= 3.5, (
        "no tail decay exponent >= 3.5: the accelerated run made %d accepted"
        " steps, so the steps t >= 100 it is fitted over number %d"
        " (exponent %.2f)" % (len(accel_gaps), len(tail), exponent)
    )


def test_a7_logistic_sweep_budgets():
    """Criterion 7: bundled logistic run meets targets across seven decades."""
    t0 = time.perf_counter()
    epsilons = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8]
    cfg = RunConfig(
        problem="logistic", solver="basic", epsilons=epsilons, m0=1.0, x0="ones"
    )
    reports = run_experiment(cfg)
    lines = []
    for eps, rep in zip(epsilons, reports):
        assert rep.converged, eps
        assert rep.final_grad_norm <= eps, (eps, rep.final_grad_norm)
        assert 1.0 <= rep.BGM_A <= 30.0, (eps, rep.BGM_A)
        assert rep.BGM_E - rep.IT <= 0.5 * rep.IT + 10.0, (eps, rep.BGM_E, rep.IT)
        lines.append("%g:IT=%d,BGM_A=%.1f" % (eps, rep.IT, rep.BGM_A))
    elapsed = time.perf_counter() - t0
    print("criterion 7: %s; %.3fs" % (" ".join(lines), elapsed))
    assert elapsed < 60.0


def test_a8_finite_difference_third_order_fallback():
    """Criterion 8: finite-difference curvature obeys its error bound and
    drives the basic loop to a 1e-6 gradient."""
    rng = np.random.default_rng(5)
    oracle = quartic_oracle(4)
    worst = 0.0
    for tau in (1e-1, 1e-2, 1e-3):
        for _ in range(20):
            x = rng.standard_normal(4)
            h = rng.standard_normal(4)
            approx = fd_third_directional(oracle, x, h, tau)
            exact = oracle.third_directional(x, h)
            err = float(np.linalg.norm(approx - exact))
            bound = (oracle.lipschitz_third / 3.0) * tau * float(
                np.linalg.norm(h)
            ) ** 3
            worst = max(worst, err / bound if bound > 0 else 0.0)
            assert err <= bound, (tau, err, bound)

    fd_oracle = FdThirdOracle(quartic_oracle(2), 1e-4)
    x, report, rows = run_basic(
        fd_oracle, ZeroComposite(), np.ones(2), 1.0, 1e-6
    )
    assert report.converged
    assert report.final_grad_norm <= 1e-6
    print(
        "criterion 8: worst fd error/bound %.2e; fd-driven run IT=%d,"
        " final grad %.2e" % (worst, report.IT, report.final_grad_norm)
    )

"""Inner solver: secular equation, Bregman steps, stopping tests, and the
slow-convergence certificate."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from conftest import QuadraticOracle, hat, quad_anchor, tri_factor
from tensormin import model
from tensormin.inner import (
    StopReason,
    bregman_step,
    certificate_log_bound,
    inner_constants,
    run_inner,
    secular_solve,
    slow_decay_violated,
)
from tensormin.model import (
    ModelAnchor,
    SecularSolveError,
    omega_grad,
    omega_value,
    rho_grad,
    tridiagonal_factor,
)
from tensormin.oracles import make_logistic, quartic_oracle


def quartic_anchor(x, M):
    x = np.asarray(x, dtype=float)
    oracle = quartic_oracle(x.size)
    return ModelAnchor.from_oracle(oracle, x, M), oracle


@pytest.fixture(scope="module")
def high_level_runs():
    """Inner runs on the quartic problem at a level well above its
    third-derivative Lipschitz constant, across dimensions and anchor scales."""
    runs = []
    rng = np.random.default_rng(11)
    for trial in range(50):
        n = int(rng.integers(1, 11))
        scale = (0.1, 1.0, 3.0)[trial % 3]
        x = scale * rng.standard_normal(n)
        anchor, oracle = quartic_anchor(x, M=96.0)
        res = run_inner(anchor, oracle, 1e-6)
        runs.append((anchor, oracle, res))
    return runs


# -- secular equation ------------------------------------------------------------


def test_secular_zero_rhs_returns_zero():
    h = secular_solve(tri_factor([1.0, 2.0]), 3.0, np.zeros(2))
    assert np.array_equal(h, np.zeros(2))


def test_secular_rank_zero_hessian_closed_form():
    # With H = 0 the system is (M/2)||h||^2 h = c, solved by
    # h = (2/M)^(1/3) c / ||c||^(2/3).
    rng = np.random.default_rng(20)
    for _ in range(10):
        n = int(rng.integers(1, 7))
        c = rng.standard_normal(n) * float(10 ** rng.uniform(-2, 2))
        M = float(10 ** rng.uniform(-2, 2))
        h = secular_solve(tri_factor(np.zeros(n)), M, c)
        cnorm = np.linalg.norm(c)
        expected = (2.0 / M) ** (1.0 / 3.0) * c / cnorm ** (2.0 / 3.0)
        assert np.allclose(h, expected, rtol=1e-10, atol=1e-12)


def test_secular_one_dimensional_cubic_root():
    # (1 + r^2) r = 2 has the unique real root r = 1.
    h = secular_solve(tri_factor([1.0]), 2.0, np.array([2.0]))
    assert h == pytest.approx([1.0], abs=1e-12)


def test_secular_residuals_on_random_systems():
    rng = np.random.default_rng(123)
    for _ in range(100):
        n = int(rng.integers(1, 21))
        rows = max(1, n - 1) if rng.random() < 0.3 else n
        B = rng.standard_normal((rows, n))
        H = B.T @ B
        w, q = np.linalg.eigh(H)
        w = np.clip(w, 0.0, None)
        M = float(10 ** rng.uniform(-3, 3))
        c = rng.standard_normal(n) * float(10 ** rng.uniform(-3, 3))
        # H = q diag(w) q^T: solve in the coordinates of q.
        h = q @ secular_solve(tri_factor(w), M, q.T @ c)
        lhs = H @ h + 0.5 * M * float(np.dot(h, h)) * h
        assert np.linalg.norm(lhs - c) <= 1e-12 * (1.0 + np.linalg.norm(c))


def test_secular_residuals_on_random_tridiagonal_systems():
    # The same systems as above, solved through a genuine tridiagonal T and
    # the reflectors of dsytrd, checked against the dense H.
    rng = np.random.default_rng(124)
    tridiagonal = 0
    for _ in range(100):
        n = int(rng.integers(1, 21))
        rows = max(1, n - 1) if rng.random() < 0.3 else n
        B = rng.standard_normal((rows, n))
        H = B.T @ B
        H = 0.5 * (H + H.T)
        factor = tridiagonal_factor(H.copy())
        tridiagonal += bool(np.any(factor.e))
        M = float(10 ** rng.uniform(-3, 3))
        c = rng.standard_normal(n) * float(10 ** rng.uniform(-3, 3))
        h = factor.q(secular_solve(factor, M, factor.qt(c)))
        lhs = H @ h + 0.5 * M * float(np.dot(h, h)) * h
        assert np.linalg.norm(lhs - c) <= 1e-12 * (1.0 + np.linalg.norm(c))
    assert tridiagonal >= 90


def test_secular_residual_miss_raises_typed_error(monkeypatch):
    monkeypatch.setattr("tensormin.inner.SECULAR_TOL", 1e-300)
    rng = np.random.default_rng(5)
    H = rng.standard_normal((6, 6))
    H = H.T @ H
    factor = tridiagonal_factor(0.5 * (H + H.T))
    with pytest.raises(SecularSolveError, match="residual"):
        secular_solve(factor, 1.0, rng.standard_normal(6))


def test_secular_iteration_cap_raises_typed_error(monkeypatch):
    monkeypatch.setattr("tensormin.inner._SECULAR_MAXIT", 1)
    with pytest.raises(SecularSolveError, match=re.escape(
            "secular Newton iteration did not converge in 1 steps at M = 1 "
            "(bracket [")):
        secular_solve(tri_factor([1.0, 2.0, 3.0], [0.5, 0.5]), 1.0,
                      np.array([1.0, -2.0, 0.5]))


def test_secular_bracket_expansion_failure_raises_typed_error():
    # T = [[1, 1e40], [1e40, 1]] has a nonnegative diagonal but is far from
    # PSD: T + sigma I breaks down for every sigma the upper end reaches.
    with pytest.raises(SecularSolveError, match="upper bracket expansion failed"):
        secular_solve(tri_factor(np.ones(2), [1e40]), 1.0, np.ones(2))


def test_secular_lapack_failure_names_routine_and_sigma(monkeypatch):
    def failing_dpttrs(d, e, b):
        return b, -3

    monkeypatch.setattr(model.lapack, "dpttrs", failing_dpttrs)
    with pytest.raises(SecularSolveError,
                       match="dpttrs returned info = -3 at sigma = "):
        secular_solve(tri_factor([1.0, 2.0], [0.5]), 1.0, np.ones(2))


def test_secular_breakdown_at_last_iterate_is_reported_once(monkeypatch):
    # T = 0 with T + sigma I made to break down below sigma = 3 (the root is
    # 2^(1/3)): Newton and bisection close in on 3 and stop at a breakdown,
    # reported from that evaluation without factoring its sigma again.
    calls = []
    real = model.lapack.dpttrf

    def dpttrf_failing_below_3(d, e):
        calls.append(float(d[0]))
        return (d, e, 1) if d[0] < 3.0 else real(d, e)

    monkeypatch.setattr(model.lapack, "dpttrf", dpttrf_failing_below_3)
    with pytest.raises(SecularSolveError,
                       match="dpttrf returned info = 1 at sigma = 2.99999"):
        secular_solve(tri_factor(np.zeros(2)), 2.0, np.ones(2))
    assert calls.count(calls[-1]) == 1


@pytest.mark.parametrize("factor, M, c, match", [
    # At M = 2e-200 the isotropic start overflows (u v = inf 0); the solve
    # used to run all 100 Newton steps on a NaN bracket end.
    (ModelAnchor.from_oracle(quartic_oracle(2), np.ones(2), 1.0).factor,
     2e-200, np.full(2, -4.0 / 3.0), "is not positive at M = 2e-200"),
    (tri_factor([1.0, 2.0], [0.5]), 2.0, np.array([np.nan, 1.0]),
     "sigma = nan is not positive at M = 2"),
    (tri_factor([1.0, np.nan]), 2.0, np.ones(2),
     "secular function is NaN at sigma = .*, M = 2"),
])
def test_secular_non_finite_start_or_phi_fails_at_once(monkeypatch, factor,
                                                        M, c, match):
    calls = []
    real = model.lapack.dpttrf

    def counting_dpttrf(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(model.lapack, "dpttrf", counting_dpttrf)
    with pytest.raises(SecularSolveError, match=match):
        secular_solve(factor, M, c)
    assert len(calls) <= 3


def test_secular_rejects_bad_inputs():
    with pytest.raises(ValueError):
        secular_solve(tri_factor([-0.5, 1.0]), 1.0, np.ones(2))


# -- Bregman step ----------------------------------------------------------------


def test_bregman_step_stationary_anchor_stays_put():
    oracle = QuadraticOracle(np.array([[1.0]]), np.array([0.0]))
    anchor = ModelAnchor.from_oracle(oracle, np.array([0.0]), M=2.0)
    h0 = np.zeros(1)
    h1, r, _ = bregman_step(anchor, omega_grad(anchor, oracle, h0),
                            rho_grad(anchor, h0))
    assert np.array_equal(h1, np.zeros(1))
    assert np.allclose(r, 0.0, atol=1e-15)


def test_one_dimensional_anchor_through_step_and_run():
    # n = 1: dsytrd returns an empty off-diagonal.  f(x) = x^2 - x from 0 at
    # M = 6: c = 1/3, and (2 + 3 h^2) h = 1/3 has its root near 0.16.
    oracle = QuadraticOracle(np.array([[2.0]]), np.array([-1.0]))
    anchor = ModelAnchor.from_oracle(oracle, np.array([0.0]), M=6.0)
    h0 = np.zeros(1)
    h1, r, _ = bregman_step(anchor, omega_grad(anchor, oracle, h0),
                            rho_grad(anchor, h0))
    h = float(h1[0])  # n = 1: Q = 1
    assert abs((2.0 + 3.0 * h * h) * h - 1.0 / 3.0) <= 1e-15
    assert np.linalg.norm(r) <= 1e-12
    res = run_inner(anchor, oracle, 1e-8)
    assert res.stop_reason in (StopReason.EPSILON_SMALL,
                               StopReason.MODEL_STATIONARITY)

    anchor, oracle = quartic_anchor(np.array([1.5]), M=96.0)
    res = run_inner(anchor, oracle, 1e-8)
    assert res.stop_reason in (StopReason.EPSILON_SMALL,
                               StopReason.MODEL_STATIONARITY)
    assert float(res.x_plus[0]) < 1.5


def test_bregman_step_one_dimensional_point():
    # f(x) = x^2/2 - 6x at anchor 0 with M = 2: the step target is
    # c = -(1/3) grad f(0) = 2, and the secular system gives y_1 = 1.
    oracle = QuadraticOracle(np.array([[1.0]]), np.array([-6.0]))
    anchor = ModelAnchor.from_oracle(oracle, np.array([0.0]), M=2.0)
    h0 = np.zeros(1)
    h1, r, _ = bregman_step(anchor, omega_grad(anchor, oracle, h0),
                            rho_grad(anchor, h0))
    assert h1 == pytest.approx([1.0], abs=1e-10)  # x = 0 and Q = 1
    assert np.linalg.norm(r) <= 1e-9


def test_bregman_step_optimality_along_runs():
    # The step's first-order optimality condition, recomputed from scratch:
    # grad Omega(y_k) + 3 [grad rho(y_{k+1}) - grad rho(y_k)] vanishes to the
    # secular tolerance, scaled by the local gradient size.  Q^T preserves
    # norms, so the check runs in the coordinates of Q.
    cases = []
    anchor_q, oracle_q = quartic_anchor(np.array([1.0, -2.0, 0.5]), M=96.0)
    cases.append((anchor_q, oracle_q))
    _, oracle_l = make_logistic(20, 3, seed=21)
    x = np.random.default_rng(22).standard_normal(oracle_l.n)
    cases.append((ModelAnchor.from_oracle(oracle_l, x, M=5.0), oracle_l))

    for anchor, oracle in cases:
        hh = np.zeros(oracle.n)
        for _ in range(15):
            gom = omega_grad(anchor, oracle, hh)
            hh_next, r, grho_next = bregman_step(anchor, gom,
                                                 rho_grad(anchor, hh))
            resid = gom + 3.0 * (rho_grad(anchor, hh_next)
                                 - rho_grad(anchor, hh))
            bound = 1e-12 * (1.0 + np.linalg.norm(gom))
            assert np.linalg.norm(resid) <= bound
            assert np.allclose(r, -resid, atol=1e-15)
            assert np.array_equal(grho_next, rho_grad(anchor, hh_next))
            hh = hh_next


# -- run_inner: exits and certificates ---------------------------------------------


def test_run_inner_stationary_anchor_exits_immediately():
    # Zero gradient at the anchor: the first step stays put and the zero
    # model gradient passes the absolute test at once.
    anchor, oracle = quartic_anchor(np.zeros(3), M=96.0)
    res = run_inner(anchor, oracle, 1e-8)
    assert res.stop_reason is StopReason.EPSILON_SMALL
    assert res.iterations == 1
    assert res.model_grad_norm == 0.0
    assert np.array_equal(res.x_plus, anchor.x)


def test_run_inner_high_level_never_certifies_slow(high_level_runs):
    for _, _, res in high_level_runs:
        assert res.stop_reason in (
            StopReason.EPSILON_SMALL,
            StopReason.MODEL_STATIONARITY,
        )


def test_run_inner_exit_inequalities_recomputed(high_level_runs):
    # The reported stop reason's defining inequality must hold when the model
    # gradient is recomputed from scratch at the returned point.
    for anchor, oracle, res in high_level_runs:
        G = float(np.linalg.norm(omega_grad(anchor, oracle,
                                            hat(anchor, res.x_plus))))
        assert abs(G - res.model_grad_norm) <= 1e-9 * (1.0 + res.model_grad_norm)
        if res.stop_reason is StopReason.EPSILON_SMALL:
            assert G <= (1e-6 / 7.0) * (1.0 + 1e-6)
        else:
            step = np.linalg.norm(res.x_plus - anchor.x)
            assert G <= (anchor.M / 6.0) * step**3 * (1.0 + 1e-6) + 1e-15


def test_run_inner_model_stationarity_satisfies_descent_inequality(high_level_runs):
    # Consequence of stationarity relative to the cubed step: the true
    # gradient at the accepted point makes progress against the anchor,
    # <grad f(x+), x - x+> >= ||grad f(x+)||^(4/3) / (6 M^(1/3)).
    checked = 0
    for anchor, oracle, res in high_level_runs:
        if res.stop_reason is not StopReason.MODEL_STATIONARITY:
            continue
        g_plus = oracle.grad(res.x_plus)
        lhs = float(np.dot(g_plus, anchor.x - res.x_plus))
        rhs = np.linalg.norm(g_plus) ** (4.0 / 3.0) / (6.0 * anchor.M ** (1.0 / 3.0))
        assert lhs >= rhs - 1e-8
        checked += 1
    assert checked >= 30


def test_run_inner_slow_certificate_at_tiny_level():
    # A level far below the problem's curvature must trip the
    # slow-convergence certificate, and the certificate inequality must hold
    # when recomputed independently at the exit iterate.
    for M in (1e-6, 1e-4):
        anchor, oracle = quartic_anchor(3.0 * np.ones(3), M=M)
        res = run_inner(anchor, oracle, 1e-8)
        assert res.stop_reason is StopReason.SLOW_CONVERGENCE
        k_exit = res.iterations - 1
        G = float(np.linalg.norm(omega_grad(anchor, oracle,
                                            hat(anchor, res.x_plus))))
        log_env = certificate_log_bound(anchor) - k_exit * math.log(1.2)
        assert slow_decay_violated(G, log_env)


def test_run_inner_monotone_model_decrease():
    # Bregman steps never increase the model when the level dominates the
    # third-derivative Lipschitz constant.
    rng = np.random.default_rng(23)
    for _ in range(5):
        anchor, oracle = quartic_anchor(rng.uniform(-2.0, 2.0, size=4), M=96.0)
        hh = np.zeros(oracle.n)
        om = omega_value(anchor, oracle, anchor.x)
        for _ in range(20):
            hh, _, _ = bregman_step(anchor, omega_grad(anchor, oracle, hh),
                                    rho_grad(anchor, hh))
            om_next = omega_value(anchor, oracle, anchor.x + anchor.factor.q(hh))
            assert om_next <= om + 1e-10 * (1.0 + abs(om))
            om = om_next


def test_inner_constants_closed_form_point():
    # trace H = 2, M = 96, gradient norm 1: bracket (96/96)^(2/3) = 1,
    # L = 2 + 144 = 146, beta = 1 + 12 = 13.
    anchor, _ = quad_anchor(np.eye(2), [0.0, 0.0], [0.0, 0.0], 96.0)
    lips, beta = inner_constants(replace(anchor, grad_norm=1.0))
    assert lips == pytest.approx(146.0, abs=1e-12)
    assert beta == pytest.approx(13.0, abs=1e-12)


def test_inner_constants_zero_gradient():
    anchor, _ = quad_anchor([[4.0, 0.0], [0.0, 1.0]], [0.0, 0.0], [1.0, -1.0], 3.0)
    lips, beta = inner_constants(replace(anchor, grad_norm=0.0))
    assert lips == pytest.approx(anchor.factor.trace, abs=1e-15)
    assert beta == 0.0


def test_inner_constants_bracket_shrinks_as_m_grows():
    anchor, _ = quad_anchor(np.eye(3), np.zeros(3), np.zeros(3), 1.0)
    anchor = replace(anchor, grad_norm=2.5)
    prev_excess = None
    for M in (1.0, 2.0, 4.0, 8.0):
        lev = replace(anchor, M=M)
        lips, _ = inner_constants(lev)
        bracket = (lips - lev.factor.trace) / (1.5 * M)
        if prev_excess is not None:
            assert bracket < prev_excess
        prev_excess = bracket


def test_slow_decay_certificate_unit_cases():
    # Zero gradient can never certify slowness; a degenerate envelope always
    # does; and the comparison survives exponents that would overflow the
    # plain (6/5)^k evaluation.
    assert slow_decay_violated(0.0, 0.0) is False
    assert slow_decay_violated(0.0, -math.inf) is False
    assert slow_decay_violated(1e-3, -math.inf) is True
    # beta = 0 at a zero gradient: the bound is -inf, not a log error.
    anchor, _ = quad_anchor(np.eye(2), [0.0, 0.0], [1.0, -1.0], 3.0)
    assert certificate_log_bound(replace(anchor, grad_norm=0.0)) == -math.inf

    # An envelope of exactly 1 puts G = 1 on the boundary.
    assert slow_decay_violated(1.0, 0.0) is False
    assert slow_decay_violated(1.0 + 1e-9, 0.0) is True
    # After many steps the envelope has decayed below any fixed gradient.
    assert slow_decay_violated(1e-6, -2000 * math.log(1.2)) is True
    assert not slow_decay_violated(1e-6, 0.0)

    # Against a direct evaluation of G^4 > 3^8 L^4 beta / (2 M 1.2^k) at
    # L = 146, beta = 13, M = 96, on both sides of the envelope.
    anchor = replace(quad_anchor(np.eye(2), [0.0, 0.0], [0.0, 0.0], 96.0)[0],
                     grad_norm=1.0)
    lips, beta = inner_constants(anchor)
    outcomes = set()
    for k in (0, 4, 40):
        log_env = certificate_log_bound(anchor) - k * math.log(1.2)
        for G in (1.0, 500.0, 600.0, 1e4):
            direct = G**4 > 3.0**8 * lips**4 * beta / (2.0 * 96.0 * 1.2**k)
            assert slow_decay_violated(G, log_env) is direct, (k, G)
            outcomes.add(direct)
    assert outcomes == {False, True}


def test_run_inner_validation():
    anchor, oracle = quartic_anchor(np.ones(2), M=96.0)
    with pytest.raises(ValueError, match="max_inner must be at least 1"):
        run_inner(anchor, oracle, 1e-6, max_inner=0)


def test_run_inner_iteration_cap():
    anchor, oracle = quartic_anchor(np.ones(2), M=30.0)
    res = run_inner(anchor, oracle, 1e-10, max_inner=1)
    assert res.stop_reason is StopReason.ITERATION_CAP
    assert res.iterations == 1
    # The one step, retraced in the coordinates of Q from the anchor's
    # grad Omega(x) = g^ and grad rho(x) = 0; the cap exit reports the
    # tested G = ||grad Omega(y_1) + r|| like every other exit.
    h1, r, _ = bregman_step(anchor, anchor.g_hat, 0.0)
    assert np.array_equal(res.x_plus, anchor.x + anchor.factor.q(h1))
    assert res.model_grad_norm == float(
        np.linalg.norm(omega_grad(anchor, oracle, h1) + r)
    )


def test_run_inner_evaluates_the_model_gradient_once_per_step(monkeypatch):
    # The exit test's grad Omega(y_{k+1}) and the step's grad rho(y_{k+1})
    # start step k + 1, and the first step reads both at y_0 from the
    # anchor, so a run of K steps evaluates each K times.
    evaluated = {"omega_grad": 0, "rho_grad": 0}

    def counting(name, fn):
        def call(*args):
            evaluated[name] += 1
            return fn(*args)
        return call

    monkeypatch.setattr("tensormin.inner.omega_grad",
                        counting("omega_grad", omega_grad))
    monkeypatch.setattr("tensormin.inner.rho_grad",
                        counting("rho_grad", rho_grad))
    anchor, oracle = quartic_anchor(np.ones(2), M=96.0)
    res = run_inner(anchor, oracle, 1e-8)
    assert res.iterations > 1
    assert evaluated == {"omega_grad": res.iterations,
                         "rho_grad": res.iterations}


def test_run_inner_trace_records():
    anchor, oracle = quartic_anchor(np.ones(2), M=96.0)
    rows = []
    res = run_inner(anchor, oracle, 1e-6, trace=rows.append)
    assert len(rows) == res.iterations
    assert [r["k"] for r in rows] == list(range(res.iterations))
    for r in rows:
        assert set(r) == {"k", "model_grad_norm", "step_norm", "slow_rhs"}
        assert r["model_grad_norm"] >= 0.0
        assert r["step_norm"] >= 0.0
        assert 0.0 < r["slow_rhs"] < math.inf
    assert rows[-1]["model_grad_norm"] == res.model_grad_norm

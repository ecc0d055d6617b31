"""Model layer: Taylor polynomial, quartic regularizer, scaling function,
Bregman divergence, anchor caching, and the inner-solver constants."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import lapack

from conftest import (
    QuadraticOracle,
    dense_q,
    make_logistic,
    omega_grad_at,
    rho_grad_at,
)
import tensormin.model
from tensormin.inner import bregman_step
from tensormin.model import (
    EIG_FLOOR,
    ConvexityError,
    ModelAnchor,
    bregman_div,
    d4_grad,
    d4_value,
    inner_constants,
    omega_grad,
    omega_value,
    rho_grad,
    rho_value,
    taylor3_value,
    tridiagonal_factor,
)
from tensormin.oracles import quartic_oracle


def quad_anchor(P, q, x, M):
    oracle = QuadraticOracle(np.asarray(P, dtype=float), np.asarray(q, dtype=float))
    return ModelAnchor.from_oracle(oracle, np.asarray(x, dtype=float), M), oracle


# -- quartic regularizer -------------------------------------------------------


def test_d4_closed_form_points():
    assert d4_value(np.zeros(3)) == 0.0
    assert np.array_equal(d4_grad(np.zeros(3)), np.zeros(3))
    assert d4_value(np.array([1.0, 1.0])) == pytest.approx(1.0, abs=1e-15)
    assert d4_grad(np.array([2.0, 0.0])) == pytest.approx([8.0, 0.0], abs=1e-15)


def test_d4_grad_matches_finite_differences():
    rng = np.random.default_rng(0)
    for _ in range(20):
        h = rng.standard_normal(4)
        g = d4_grad(h)
        delta = 1e-6 * (1.0 + np.linalg.norm(h))
        for i in range(4):
            e = np.zeros(4)
            e[i] = delta
            fd = (d4_value(h + e) - d4_value(h - e)) / (2.0 * delta)
            assert abs(fd - g[i]) <= 1e-6 * (1.0 + abs(g[i]))


# -- third-order Taylor polynomial ---------------------------------------------


def test_taylor_exact_on_quadratics():
    rng = np.random.default_rng(1)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        B = rng.standard_normal((n, n))
        P = B.T @ B + 0.1 * np.eye(n)
        q = rng.standard_normal(n)
        oracle = QuadraticOracle(P, q)
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        anchor = ModelAnchor.from_oracle(oracle, x, M=1.0)
        assert taylor3_value(anchor, oracle, y) == pytest.approx(
            oracle.value(y), rel=1e-12, abs=1e-12
        )


def test_taylor_quartic_one_dimensional_point():
    oracle = quartic_oracle(1)
    anchor = ModelAnchor.from_oracle(oracle, np.array([1.0]), M=24.0)
    y = np.array([2.0])
    phi = taylor3_value(anchor, oracle, y)
    assert phi == pytest.approx(15.0, abs=1e-12)
    # The remainder attains the cubic-regularization bound with equality:
    # |f(y) - Phi(y)| = (24/24)|y - x|^4 = 1.
    assert abs(oracle.value(y) - phi) == pytest.approx(1.0, abs=1e-12)


def test_taylor_at_anchor_is_f_of_x():
    _, oracle = make_logistic(15, 3, seed=2)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(oracle.n)
    anchor = ModelAnchor.from_oracle(oracle, x, M=5.0)
    assert taylor3_value(anchor, oracle, x) == pytest.approx(
        oracle.value(x), rel=1e-14
    )


# -- regularized model value and gradient --------------------------------------


def test_omega_quartic_one_dimensional_point():
    oracle = quartic_oracle(1)
    anchor = ModelAnchor.from_oracle(oracle, np.array([1.0]), M=24.0)
    y = np.array([2.0])
    assert omega_value(anchor, oracle, y) == pytest.approx(18.0, abs=1e-12)
    grad = omega_grad_at(anchor, oracle, y)
    assert grad == pytest.approx([40.0], abs=1e-12)


def test_omega_at_anchor_reduces_to_f_and_grad_f():
    _, oracle = make_logistic(10, 2, seed=4)
    rng = np.random.default_rng(5)
    x = rng.standard_normal(oracle.n)
    anchor = ModelAnchor.from_oracle(oracle, x, M=3.0)
    assert omega_value(anchor, oracle, x) == pytest.approx(oracle.value(x), rel=1e-14)
    assert np.allclose(omega_grad_at(anchor, oracle, x), oracle.grad(x),
                       atol=1e-14)
    assert np.array_equal(omega_grad(anchor, oracle, np.zeros(oracle.n)),
                          anchor.g_hat)


def test_omega_is_taylor_plus_scaled_regularizer():
    # The regularizer contribution is exactly (M/2) d4(y - x); with it removed
    # the model is the bare Taylor polynomial (anchors require M > 0, so the
    # "regularizer off" case is checked through this identity).
    oracle = quartic_oracle(3)
    rng = np.random.default_rng(6)
    x = rng.standard_normal(3)
    for M in (0.5, 24.0, 96.0):
        anchor = ModelAnchor.from_oracle(oracle, x, M=M)
        for _ in range(5):
            y = x + rng.standard_normal(3)
            expected = taylor3_value(anchor, oracle, y) + 0.5 * M * d4_value(y - x)
            assert omega_value(anchor, oracle, y) == pytest.approx(expected, rel=1e-13)


def test_omega_grad_quadratic_oracle_is_exact_gradient_plus_regularizer():
    # On a quadratic the third-order term vanishes, so grad Omega differs from
    # grad f(y) exactly by the regularizer gradient.
    anchor, oracle = quad_anchor([[2.0, 0.0], [0.0, 1.0]], [1.0, -1.0], [0.3, -0.2], 4.0)
    rng = np.random.default_rng(7)
    for _ in range(5):
        y = rng.standard_normal(2)
        h = y - anchor.x
        expected = oracle.grad(y) + 2.0 * d4_grad(h)
        assert np.allclose(omega_grad_at(anchor, oracle, y), expected, atol=1e-12)


def test_model_gradients_match_finite_differences():
    # 100 random (anchor, y) pairs across both shipped oracle families; this
    # test also pins the 1/2 coefficient on the directional third-derivative
    # term of omega_grad.
    rng = np.random.default_rng(8)
    checked = 0
    for trial in range(20):
        if trial % 2 == 0:
            oracle = quartic_oracle(int(rng.integers(1, 5)))
        else:
            _, oracle = make_logistic(12, int(rng.integers(1, 4)), seed=trial)
        x = rng.standard_normal(oracle.n)
        anchor = ModelAnchor.from_oracle(oracle, x, M=float(10 ** rng.uniform(-1, 2)))
        for _ in range(5):
            y = x + rng.standard_normal(oracle.n)
            delta = 1e-5 * (1.0 + np.linalg.norm(y))
            for fn_val, fn_grad in (
                (lambda z: omega_value(anchor, oracle, z),
                 omega_grad_at(anchor, oracle, y)),
                (lambda z: rho_value(anchor, z), rho_grad_at(anchor, y)),
            ):
                u = rng.standard_normal(oracle.n)
                u /= np.linalg.norm(u)
                fd = (fn_val(y + delta * u) - fn_val(y - delta * u)) / (2.0 * delta)
                exact = float(np.dot(fn_grad, u))
                assert abs(fd - exact) <= 1e-6 * (1.0 + abs(exact))
            checked += 1
    assert checked == 100


# -- scaling function and Bregman divergence ------------------------------------


def test_rho_one_dimensional_closed_form():
    # H = I (1x1), M = 2, displacement 1:
    #   rho = 1/2 * 1 + (2/2) * (1/4) = 0.75,  grad rho = 1 + 1 = 2.
    anchor, _ = quad_anchor([[1.0]], [0.0], [0.0], 2.0)
    y = np.array([1.0])
    assert rho_value(anchor, y) == pytest.approx(0.75, abs=1e-15)
    assert rho_grad_at(anchor, y) == pytest.approx([2.0], abs=1e-15)


def test_rho_vanishes_at_anchor():
    _, oracle = make_logistic(8, 2, seed=9)
    x = np.random.default_rng(10).standard_normal(oracle.n)
    anchor = ModelAnchor.from_oracle(oracle, x, M=7.0)
    assert rho_value(anchor, x) == 0.0
    assert np.array_equal(rho_grad_at(anchor, x), np.zeros(oracle.n))


def test_bregman_divergence_nonnegative_and_zero_on_diagonal():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(1, 6))
        B = rng.standard_normal((n, n))
        anchor, _ = quad_anchor(
            B.T @ B, rng.standard_normal(n), rng.standard_normal(n), float(10 ** rng.uniform(-2, 2))
        )
        u = rng.standard_normal(n) * 3.0
        v = rng.standard_normal(n) * 3.0
        assert bregman_div(anchor, u, v) >= -1e-12
        assert bregman_div(anchor, u, u) == 0.0


def test_bregman_from_anchor_is_rho():
    anchor, _ = quad_anchor([[3.0, 1.0], [1.0, 2.0]], [0.5, -0.5], [0.1, 0.2], 5.0)
    rng = np.random.default_rng(12)
    for _ in range(10):
        v = rng.standard_normal(2) * 2.0
        assert bregman_div(anchor, anchor.x, v) == pytest.approx(
            rho_value(anchor, v), rel=1e-13, abs=1e-13
        )


# -- inner-solver constants ------------------------------------------------------


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
        lev = anchor.with_m(M)
        lips, _ = inner_constants(lev)
        bracket = (lips - lev.factor.trace) / (1.5 * M)
        if prev_excess is not None:
            assert bracket < prev_excess
        prev_excess = bracket


# -- model-vs-function inequalities ----------------------------------------------


def test_upper_model_dominates_function_on_quartic():
    # With M at least the third-derivative Lipschitz constant, the regularized
    # model upper-bounds the function everywhere sampled.
    rng = np.random.default_rng(13)
    for M in (24.0, 96.0):
        oracle = quartic_oracle(4)
        for _ in range(500):
            x = rng.uniform(-2.0, 2.0, size=4)
            y = x + rng.uniform(-2.0, 2.0, size=4)
            anchor = ModelAnchor.from_oracle(oracle, x, M=M)
            om = omega_value(anchor, oracle, y)
            assert oracle.value(y) <= om + 1e-9 * (1.0 + abs(om))


def test_relative_smoothness_second_difference_ratio():
    # Directional second differences of Omega stay within [1/2, 3/2] times
    # those of rho (5% discretization slack on each side).
    rng = np.random.default_rng(14)
    oracle = quartic_oracle(3)
    x = np.array([0.5, -0.25, 0.75])
    anchor = ModelAnchor.from_oracle(oracle, x, M=96.0)
    radius = (96.0 * anchor.grad_norm / anchor.M) ** (1.0 / 3.0)
    for _ in range(60):
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        y = x + rng.uniform(0.0, radius) * u
        delta = 1e-4 * (1.0 + np.linalg.norm(y))
        d2_omega = (
            omega_value(anchor, oracle, y + delta * u)
            - 2.0 * omega_value(anchor, oracle, y)
            + omega_value(anchor, oracle, y - delta * u)
        )
        d2_rho = (
            rho_value(anchor, y + delta * u)
            - 2.0 * rho_value(anchor, y)
            + rho_value(anchor, y - delta * u)
        )
        ratio = d2_omega / d2_rho
        assert 0.5 * 0.95 <= ratio <= 1.5 * 1.05


def test_gradient_monotonicity_quartic_growth():
    # <grad Omega(z) - grad Omega(w), z - w> >= (M/12) ||z - w||^4 for the
    # quartic oracle once M is large enough relative to its third-derivative
    # Lipschitz constant.
    rng = np.random.default_rng(15)
    oracle = quartic_oracle(3)
    x = rng.standard_normal(3)
    anchor = ModelAnchor.from_oracle(oracle, x, M=96.0)
    for _ in range(300):
        z = x + rng.uniform(-2.0, 2.0, size=3)
        w = x + rng.uniform(-2.0, 2.0, size=3)
        lhs = float(
            np.dot(
                omega_grad_at(anchor, oracle, z) - omega_grad_at(anchor, oracle, w),
                z - w,
            )
        )
        rhs = (anchor.M / 12.0) * np.linalg.norm(z - w) ** 4
        assert lhs >= rhs - 1e-10 * (1.0 + abs(rhs))


def test_sublevel_displacement_bound_during_inner_runs():
    # Whenever a Bregman iterate keeps the model value at or below f(x), its
    # displacement obeys ||y - x||^3 <= 96 ||grad f(x)|| / M.
    rng = np.random.default_rng(16)
    oracle = quartic_oracle(3)
    checks = 0
    for trial in range(20):
        x = rng.uniform(-2.0, 2.0, size=3)
        if not x.any():
            x[0] = 1.0
        anchor = ModelAnchor.from_oracle(oracle, x, M=96.0)
        cap = 96.0 * anchor.grad_norm / anchor.M
        f_x = oracle.value(x)
        hh = np.zeros(3)
        for _ in range(30):
            hh, _, _ = bregman_step(anchor, omega_grad(anchor, oracle, hh),
                                    rho_grad(anchor, hh))
            y = x + anchor.factor.q(hh)
            if omega_value(anchor, oracle, y) <= f_x:
                disp = float(np.linalg.norm(y - x)) ** 3
                assert disp <= cap * (1.0 + 1e-9)
                checks += 1
    assert checks >= 400


# -- anchor construction and caching ----------------------------------------------


def tridiag_dense(d, e):
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


def rotated(eigenvalues, seed):
    """Q diag(eigenvalues) Q^T for a random orthogonal Q, exactly symmetric."""
    n = len(eigenvalues)
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    h = (q * np.asarray(eigenvalues, dtype=float)) @ q.T
    return 0.5 * (h + h.T)


def test_anchor_rejects_nonconvex_hessian():
    oracle = QuadraticOracle(np.diag([-1.0, 1.0]), np.zeros(2))
    with pytest.raises(ConvexityError):
        ModelAnchor.from_oracle(oracle, np.zeros(2), M=1.0)


def test_anchor_rejects_rotated_nonconvex_hessian():
    # A rotated diag(-1, 1, 2) has a genuinely tridiagonal T; the error names
    # lambda_min.
    for seed in range(5):
        oracle = QuadraticOracle(rotated([-1.0, 1.0, 2.0], seed), np.zeros(3))
        with pytest.raises(ConvexityError, match="lambda_min = -1.000e\\+00"):
            ModelAnchor.from_oracle(oracle, np.zeros(3), M=1.0)


def test_anchor_shifts_rounding_noise_eigenvalues():
    oracle = QuadraticOracle(np.diag([-5e-11, 1.0]), np.zeros(2))
    anchor = ModelAnchor.from_oracle(oracle, np.zeros(2), M=1.0)
    assert anchor.factor.d.min() == 0.0
    assert np.array_equal(anchor.factor.d, [0.0, 1.0 + 5e-11])


def test_anchor_accepts_rotated_rounding_noise_hessian():
    # Rotated diag(-5e-11, 1, 2): accepted, T shifted to be PSD to rounding,
    # and a Bregman step from it meets the secular residual bound on the
    # shifted Hessian Q T Q^T (which differs from P by about 5e-11).
    rng = np.random.default_rng(31)
    for seed in range(5):
        P = rotated([-5e-11, 1.0, 2.0], seed)
        oracle = QuadraticOracle(P, rng.standard_normal(3))
        anchor = ModelAnchor.from_oracle(oracle, np.zeros(3), M=1.0)
        q = dense_q(anchor.factor)
        t = tridiag_dense(anchor.factor.d, anchor.factor.e)
        assert np.linalg.eigvalsh(t).min() >= -1e-15 * np.linalg.norm(P, 2)
        h0 = np.zeros(3)
        h1, _, _ = bregman_step(anchor, omega_grad(anchor, oracle, h0),
                                rho_grad(anchor, h0))
        h = q @ h1
        c = -oracle.grad(anchor.x) / 3.0
        shifted = q @ t @ q.T
        lhs = shifted @ h + 0.5 * anchor.M * float(h @ h) * h
        assert np.linalg.norm(lhs - c) <= 1e-12 * (1.0 + np.linalg.norm(c))


def test_rounding_noise_anchor_step_certificate_vanishes():
    # The model, the scaling function and the secular solve share the one
    # shifted Hessian Q T Q^T, so the first Bregman step's residual r
    # (zero for an exact step) vanishes to the secular tolerance even
    # where T was shifted by about 5e-11.
    rng = np.random.default_rng(31)
    for seed in range(5):
        P = rotated([-5e-11, 1.0, 2.0], seed)
        oracle = QuadraticOracle(P, rng.standard_normal(3))
        anchor = ModelAnchor.from_oracle(oracle, np.zeros(3), M=1.0)
        h0 = np.zeros(3)
        _, r, _ = bregman_step(anchor, omega_grad(anchor, oracle, h0),
                               rho_grad(anchor, h0))
        gnorm = np.linalg.norm(oracle.grad(anchor.x))
        assert np.linalg.norm(r) <= 1e-12 * (1.0 + gnorm)


def rank_deficient_psd(seed):
    """B^T B for a random r-by-n B with r < n <= 30, scaled to 2-norm 1e6..1e7."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 31))
    b = rng.standard_normal((int(rng.integers(1, n)), n))
    h = b.T @ b
    h *= 10 ** rng.uniform(6, 7) / np.linalg.norm(h, 2)
    return 0.5 * (h + h.T)


def test_anchor_accepts_rank_deficient_psd_family(monkeypatch):
    # Rounding alone pushes lambda_min of T for these PSD matrices to about
    # -n eps max|T|, which at this scale is often below -EIG_FLOOR.
    family = [rank_deficient_psd(seed) for seed in range(400)]
    for h in family:
        factor = tridiagonal_factor(h.copy())
        t = tridiag_dense(factor.d, factor.e)
        assert np.linalg.eigvalsh(t).min() >= -1e-15 * np.linalg.norm(h, 2)
    # With the absolute floor alone most of the family would be rejected.
    monkeypatch.setattr(tensormin.model, "ROUNDING_C", 0.0)
    rejected = 0
    for h in family:
        try:
            tridiagonal_factor(h.copy())
        except ConvexityError as exc:
            assert "< -%.3e" % EIG_FLOOR in str(exc)
            rejected += 1
    assert rejected >= 200


def test_anchor_rejects_nonpositive_m():
    oracle = quartic_oracle(2)
    with pytest.raises(ValueError):
        ModelAnchor.from_oracle(oracle, np.ones(2), M=0.0)
    anchor = ModelAnchor.from_oracle(oracle, np.ones(2), M=1.0)
    with pytest.raises(ValueError):
        anchor.with_m(-2.0)


def test_anchor_tridiagonal_factor_reconstructs_hessian():
    _, oracle = make_logistic(25, 4, seed=17)
    x = np.random.default_rng(18).standard_normal(oracle.n)
    anchor = ModelAnchor.from_oracle(oracle, x, M=1.0)
    q = dense_q(anchor.factor)
    rebuilt = q @ tridiag_dense(anchor.factor.d, anchor.factor.e) @ q.T
    H = oracle.hessian(x)
    scale = 1.0 + np.abs(H).max()
    assert np.abs(rebuilt - H).max() <= 1e-8 * scale
    assert np.abs(q.T @ q - np.eye(oracle.n)).max() <= 1e-12


def unshifted_reduction(H):
    """(d, Q) of the reduction tridiagonal_factor makes of H, before the
    convexity shift, with Q formed densely by LAPACK dorghr."""
    n = H.shape[0]
    lwork = int(lapack.dsytrd_lwork(n, lower=1)[0])
    c, d, _, tau, info = lapack.dsytrd(np.asfortranarray(H), lower=1,
                                       lwork=lwork)
    assert info == 0
    if n == 1:
        return d, np.ones((1, 1))
    q, info = lapack.dorghr(c, tau, lo=0, hi=n - 1)
    assert info == 0
    return d, q


@pytest.mark.parametrize("n", [1, 2, 5, 200, 501])
def test_factor_products_match_dense_q(n):
    # Q^T v and Q v applied by the reflectors agree with the dense Q that
    # dorghr forms from the same reduction; T v agrees with the dense T.
    rng = np.random.default_rng(n)
    b = rng.standard_normal((n + 3, n))
    H = b.T @ b
    H = 0.5 * (H + H.T)
    _, q = unshifted_reduction(H)
    factor = tridiagonal_factor(H.copy())
    t = tridiag_dense(factor.d, factor.e)
    for _ in range(3):
        v = rng.standard_normal(n)
        tol = 1e-14 * np.linalg.norm(v)
        assert np.linalg.norm(factor.qt(v) - q.T @ v) <= tol
        assert np.linalg.norm(factor.q(v) - q @ v) <= tol
        assert np.linalg.norm(factor.tri(v) - t @ v) <= tol * np.abs(t).max()
        # The products leave their argument alone.
        w = v.copy()
        factor.qt(v)
        factor.q(v)
        assert np.array_equal(v, w)


def test_factor_trace_matches_hessian_trace():
    # trace(T) equals trace(H) up to rounding, plus n times the convexity
    # shift; the rank-deficient family makes the shift nonzero.
    cases = [rank_deficient_psd(seed) for seed in range(40)]
    for seed in range(5):
        _, oracle = make_logistic(60, 1 + 4 * seed, seed=seed)
        x = np.random.default_rng(seed).standard_normal(oracle.n)
        cases.append(oracle.hessian(x))
    shifted = 0
    for H in cases:
        n = H.shape[0]
        tr = float(np.trace(H))
        d0, _ = unshifted_reduction(H)
        factor = tridiagonal_factor(H.copy())
        shift = float((factor.d - d0).max())
        shifted += shift > 0.0
        assert abs(factor.trace - tr) <= 1e-12 * (1.0 + abs(tr)) + n * shift
    assert shifted >= 5


def test_anchor_arrays_are_frozen():
    oracle = quartic_oracle(2)
    anchor = ModelAnchor.from_oracle(oracle, np.ones(2), M=1.0)
    f = anchor.factor
    for arr in (anchor.x, anchor.g_hat, f.d, f.e, f.reflectors, f.tau):
        with pytest.raises(ValueError):
            arr[0] = 0.0 if arr.ndim == 1 else arr[0]


def test_anchor_one_dimensional_factor():
    # At n = 1 dsytrd returns an empty off-diagonal and there is no reflector.
    oracle = QuadraticOracle(np.array([[2.0]]), np.array([-3.0]))
    anchor = ModelAnchor.from_oracle(oracle, np.array([0.5]), M=4.0)
    assert np.array_equal(anchor.factor.d, [2.0])
    assert anchor.factor.e.shape == (0,)
    assert anchor.factor.tau.shape == (0,)
    assert np.array_equal(anchor.factor.q(np.array([3.0])), [3.0])
    assert np.array_equal(anchor.factor.qt(np.array([3.0])), [3.0])


def test_with_m_shares_anchor_data_without_oracle_calls():
    oracle = quartic_oracle(3)
    anchor = ModelAnchor.from_oracle(oracle, np.ones(3), M=2.0)
    before = oracle.calls.total()
    lifted = anchor.with_m(16.0)
    assert oracle.calls.total() == before
    assert lifted.M == 16.0
    assert lifted.x is anchor.x
    assert lifted.factor is anchor.factor
    assert lifted.point is anchor.point


def test_from_oracle_skips_passed_in_value_and_gradient():
    # The anchor never queries f or the trace; a passed-in gradient is not
    # queried again, so the Hessian is the one call left.  Either way the
    # anchor keeps the gradient's norm, computed once.
    oracle = quartic_oracle(2)
    x = np.array([1.0, 2.0])
    g_x = oracle.grad(x)
    grad_norm = float(np.linalg.norm(g_x))
    oracle.calls.reset()
    passed = ModelAnchor.from_oracle(oracle, x, M=1.0, g_x=g_x)
    assert oracle.calls.snapshot() == {"value": 0, "grad": 0, "hessian": 1,
                                       "third": 0, "trace": 0}
    queried = ModelAnchor.from_oracle(oracle, x, M=1.0)
    assert oracle.calls.snapshot() == {"value": 0, "grad": 1, "hessian": 2,
                                       "third": 0, "trace": 0}
    assert passed.grad_norm == grad_norm
    assert queried.grad_norm == grad_norm


def test_third_at_zero_displacement_costs_no_call():
    oracle = quartic_oracle(2)
    anchor = ModelAnchor.from_oracle(oracle, np.ones(2), M=1.0)
    oracle.calls.reset()
    z = anchor.third_at(oracle, np.zeros(2))
    assert np.array_equal(z, np.zeros(2))
    assert oracle.calls.total() == 0
    h = np.array([0.5, -0.5])
    assert np.array_equal(anchor.third_at(oracle, h),
                          oracle.third_directional(np.ones(2), h))

"""Third-order Taylor model with quartic regularization around a frozen anchor.

Around an anchor point x with gradient g, Hessian H and directional third
derivative T(h) = D3f(x)[h]^2, the pieces are

    Phi(y)   = f(x) + <g, h> + 1/2 <H h, h> + 1/6 <T(h), h>,      h = y - x
    d4(h)    = 1/4 ||h||^4
    Omega(y) = Phi(y) + (M / 2) d4(h)
    rho(y)   = 1/2 <H h, h> + (M / 2) d4(h)

rho is the scaling function relative to which Omega is smooth and convex; its
Bregman divergence drives the inner solver.  All oracle data at the anchor is
evaluated once and frozen; only the directional third derivative is queried
per displacement, through the anchor's oracle ``Point`` so that the oracle's
intermediates at x are computed once.

The inner solver needs products with H and solves with H + sigma I, never
H's eigenvectors, so the anchor factors H by Householder tridiagonal
reduction, H = Q T Q^T (LAPACK ``dsytrd`` and ``dorghr``), at a fraction of
the cost of an eigendecomposition, and keeps H only as that factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal, lapack

from .oracles import Point, as_point

# A smallest Hessian eigenvalue below -max(EIG_FLOOR, ROUNDING_C n eps max|T|)
# is a convexity violation; one between that floor and 0 is rounding noise,
# and T is shifted by it up to 0.  The relative term is the size of the
# reduction's backward error: on 20000 seeded rank-deficient PSD matrices
# (n <= 30, norms 1e4..1e7) rounding reached at most 0.9 n eps max|T|.
EIG_FLOOR = 1e-10
ROUNDING_C = 4.0


class ConvexityError(RuntimeError):
    """The anchor Hessian's smallest eigenvalue is below the convexity floor
    -max(EIG_FLOOR, ROUNDING_C n eps max|T|), with EIG_FLOOR = 1e-10,
    ROUNDING_C = 4 and T the tridiagonal factor of the n-by-n Hessian.

    Smaller negative values are rounding noise: the anchor then shifts the
    diagonal of T by -lambda_min, which leaves T positive semidefinite.
    """


class SecularSolveError(RuntimeError):
    """The anchor factorization or a secular solve failed.

    Raised when a LAPACK routine (``dsytrd``, ``dorghr``, ``dpttrf``,
    ``dpttrs``) reports a nonzero ``info`` the solve cannot recover from,
    when a bracket end cannot be widened or the iteration does not converge,
    or when the solved step misses its residual bound.  The message names
    the cause.
    """


def lapack_check(routine, info, sigma=None):
    """Raise SecularSolveError for a nonzero LAPACK ``info``."""
    if info != 0:
        at = "" if sigma is None else " at sigma = %.17g" % sigma
        raise SecularSolveError("LAPACK %s returned info = %d%s"
                                % (routine, info, at))


class HessianFactor(NamedTuple):
    """H = Q T Q^T with T = tridiag(d, e) and Q = q orthogonal."""

    d: np.ndarray
    e: np.ndarray
    q: np.ndarray

    def tri(self, x):
        """T x, in O(n)."""
        y = self.d * x
        y[:-1] += self.e * x[1:]
        y[1:] += self.e * x[:-1]
        return y

    def apply(self, h):
        """H h = Q T Q^T h."""
        return self.q @ self.tri(self.q.T @ h)


def tridiagonal_factor(H):
    """H = Q T Q^T with T = tridiag(d, e), shifted to be positive semidefinite.

    Returns a ``HessianFactor`` whose arrays are read-only.  The smallest
    eigenvalue of T (and of H) is found by bisection on T in O(n); below the
    convexity floor (see ConvexityError) it raises ConvexityError, and
    otherwise d is shifted up by max(0, -lambda_min).  The shifted factor is
    the anchor's only Hessian.
    """
    n = H.shape[0]
    lwork, info = lapack.dsytrd_lwork(n, lower=1)
    lapack_check("dsytrd_lwork", info)
    # H is symmetric, so H.T is the same matrix.  (dsytrd reads the lower
    # triangle of H.T, i.e. the upper triangle of H.)  The logistic Hessian
    # from dsyrk is Fortran-ordered, so H.T is C-ordered and f2py copies it
    # with a transpose.  At n = 501 (one BLAS thread) dsytrd(H) and
    # dsytrd(H.T) both take 10-12 ms, so the order makes no material
    # difference.
    c, d, e, tau, info = lapack.dsytrd(H.T, lower=1, lwork=int(lwork))
    lapack_check("dsytrd", info)
    if n > 1:
        # The reflectors are stored as dgehrd stores them, and an explicit
        # workspace makes dorghr about twice as fast as its default one.
        q, info = lapack.dorghr(c, tau, lo=0, hi=n - 1, lwork=64 * n,
                                overwrite_a=1)
        lapack_check("dorghr", info)
    else:
        q = np.ones((1, 1))
    # lambda_min <= min(d) holds exactly; taking the smaller of the two keeps
    # the shifted diagonal nonnegative whatever the rounding of the bisection.
    lam_min = min(float(eigvalsh_tridiagonal(d, e, select="i",
                                             select_range=(0, 0))[0]),
                  float(d.min()))
    t_max = max(float(np.abs(d).max()), float(np.abs(e).max(initial=0.0)))
    floor = max(EIG_FLOOR, ROUNDING_C * n * np.finfo(float).eps * t_max)
    if lam_min < -floor:
        raise ConvexityError(
            "anchor Hessian has smallest eigenvalue lambda_min = %.3e < -%.3e"
            % (lam_min, floor)
        )
    factor = HessianFactor(d + max(0.0, -lam_min), e, q)
    for a in factor:  # fresh arrays: frozen in place, not copied
        a.setflags(write=False)
    return factor


def d4_value(h):
    """Quartic regularizer 1/4 ||h||^4."""
    h = np.asarray(h, dtype=float)
    nsq = float(np.dot(h, h))
    return 0.25 * nsq * nsq


def d4_grad(h):
    """Gradient ||h||^2 h of the quartic regularizer."""
    h = np.asarray(h, dtype=float)
    return float(np.dot(h, h)) * h


@dataclass(eq=False)
class ModelAnchor:
    """Frozen oracle data of f at one anchor point, plus the level M.

    All cached quantities (value, gradient, Hessian trace, and the Hessian
    itself, kept only as its ``HessianFactor`` H = Q T Q^T after the
    convexity shift) belong to the same x, and ``point`` is the oracle point
    they were queried through.  The model, the scaling function and the
    secular solves all use that one factor.  ``with_m`` re-levels the anchor
    without touching the cached data, so level escalations at a fixed anchor
    cost no oracle calls.
    """

    x: np.ndarray
    f_x: float
    g_x: np.ndarray
    factor: HessianFactor
    trace_H: float
    M: float
    point: Point = field(repr=False)

    @classmethod
    def from_oracle(cls, oracle, x, M, f_x=None, g_x=None):
        """Evaluate and freeze the anchor data of ``oracle`` at ``x``.

        ``x`` is an array or an oracle ``Point``.  ``f_x`` / ``g_x`` may be
        passed in when the caller already evaluated them at x (they are then
        not re-queried and not re-counted).
        """
        if M <= 0.0:
            raise ValueError("regularization level M must be positive")
        p = as_point(x)
        if f_x is None:
            f_x = oracle.value(p)
        if g_x is None:
            g_x = oracle.grad(p)
        g_x = np.asarray(g_x, dtype=float)
        g_x.setflags(write=False)  # frozen in place, not copied
        H = oracle.hessian(p)
        trace_h = oracle.hessian_trace(p)
        return cls(
            x=p.x,
            f_x=float(f_x),
            g_x=g_x,
            factor=tridiagonal_factor(H),
            trace_H=float(trace_h),
            M=float(M),
            point=p,
        )

    def with_m(self, M):
        """Same anchor data at a different level M (no oracle calls)."""
        if M <= 0.0:
            raise ValueError("regularization level M must be positive")
        return replace(self, M=float(M))

    def third_at(self, oracle, h):
        """D3f(x)[h]^2 at this anchor, queried through its oracle point.

        The zero displacement is exact without an oracle call.
        """
        h = np.asarray(h, dtype=float)
        if not h.any():
            return np.zeros_like(self.x)
        return oracle.third_directional(self.point, h)


def taylor3_value(anchor, oracle, y):
    """Third-order Taylor polynomial Phi(y) of f around the anchor."""
    h = np.asarray(y, dtype=float) - anchor.x
    t = anchor.third_at(oracle, h)
    return (
        anchor.f_x
        + float(np.dot(anchor.g_x, h))
        + 0.5 * float(np.dot(anchor.factor.apply(h), h))
        + float(np.dot(t, h)) / 6.0
    )


def omega_value(anchor, oracle, y):
    """Regularized model Omega(y) = Phi(y) + (M / 2) d4(y - x)."""
    h = np.asarray(y, dtype=float) - anchor.x
    return taylor3_value(anchor, oracle, y) + 0.5 * anchor.M * d4_value(h)


def omega_grad(anchor, oracle, y):
    """Gradient of the regularized model,

        grad Omega(y) = g + H h + 1/2 D3f(x)[h]^2 + (M / 2) ||h||^2 h.

    The 1/2 on the directional third derivative is what calculus gives for
    the 1/6 <T(h), h> term of Phi; a finite-difference consistency test pins
    it down.
    """
    h = np.asarray(y, dtype=float) - anchor.x
    t = anchor.third_at(oracle, h)
    return anchor.g_x + anchor.factor.apply(h) + 0.5 * t + 0.5 * anchor.M * d4_grad(h)


def rho_value(anchor, y):
    """Scaling function rho(y) = 1/2 <H h, h> + (M / 2) d4(h)."""
    h = np.asarray(y, dtype=float) - anchor.x
    return 0.5 * float(np.dot(anchor.factor.apply(h), h)) + 0.5 * anchor.M * d4_value(h)


def rho_grad(anchor, y):
    """Gradient H h + (M / 2) ||h||^2 h of the scaling function."""
    h = np.asarray(y, dtype=float) - anchor.x
    return anchor.factor.apply(h) + 0.5 * anchor.M * d4_grad(h)


def bregman_div(anchor, u, v):
    """Bregman divergence of the scaling function,

        beta(u, v) = rho(v) - rho(u) - <grad rho(u), v - u>  >=  0.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return rho_value(anchor, v) - rho_value(anchor, u) - float(
        np.dot(rho_grad(anchor, u), v - u)
    )


def inner_constants(anchor, grad_tilde_norm):
    """Smoothness and divergence constants used by the inner solver.

    With g = ||grad f at the anchor|| and
    B = (96 g / M)^(2/3):

        L    = trace(H) + (3 M / 2) B
        beta = 1/2 trace(H) B + (M / 8) B^2

    L bounds the model's curvature relative to the scaling function on the
    relevant sublevel set; beta bounds the initial Bregman divergence to the
    model minimizer.  Both are what the slow-convergence certificate compares
    against.
    """
    g = float(grad_tilde_norm)
    if g < 0.0:
        raise ValueError("gradient norm must be nonnegative")
    bracket = (96.0 * g / anchor.M) ** (2.0 / 3.0)
    lips = anchor.trace_H + 1.5 * anchor.M * bracket
    beta = 0.5 * anchor.trace_H * bracket + anchor.M / 8.0 * bracket**2
    return lips, beta

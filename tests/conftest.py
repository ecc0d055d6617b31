"""Shared test doubles: a quadratic oracle with a fixed Hessian, and helpers
that build a model anchor or read its factor in the original coordinates."""

import numpy as np

from tensormin.model import HessianFactor, ModelAnchor, omega_grad, rho_grad
from tensormin.oracles import SmoothOracle


class QuadraticOracle(SmoothOracle):
    """f(x) = 1/2 x^T P x + q^T x with a fixed symmetric P (third derivative 0).

    P is not required to be positive semidefinite, so this class doubles as
    the negative control for the convexity check at anchor construction.
    """

    def __init__(self, P, q):
        P = np.asarray(P, dtype=float)
        q = np.asarray(q, dtype=float)
        super().__init__(P.shape[0])
        self.P = P
        self.q = q

    def _value(self, p):
        return 0.5 * float(p.x @ self.P @ p.x) + float(np.dot(self.q, p.x))

    def _grad(self, p):
        return self.P @ p.x + self.q

    def _hessian(self, p):
        return self.P.copy()

    def _third_directional(self, p, h):
        return np.zeros_like(p.x)


def quad_anchor(P, q, x, M):
    """The anchor of ``QuadraticOracle(P, q)`` at x and level M, and the
    oracle."""
    oracle = QuadraticOracle(np.asarray(P, dtype=float), np.asarray(q, dtype=float))
    return ModelAnchor.from_oracle(oracle, np.asarray(x, dtype=float), M), oracle


def tri_factor(d, e=None):
    """The ``HessianFactor`` of T = tridiag(d, e) itself (Q = I: zero
    reflectors); e defaults to zeros, i.e. T = diag(d)."""
    d = np.asarray(d, dtype=float)
    n = d.size
    e = np.zeros(n - 1) if e is None else np.asarray(e, dtype=float)
    return HessianFactor(d, e, np.zeros((n, n - 1), order="F"),
                         np.zeros(n - 1))


def dense_q(factor):
    """The factor's Q as a dense matrix, one column per product Q e_j."""
    return np.column_stack([factor.q(col) for col in np.eye(factor.d.size)])


def hat(anchor, y):
    """h^ = Q^T (y - x): the point y in the inner solver's coordinates."""
    return anchor.factor.qt(np.asarray(y, dtype=float) - anchor.x)


def omega_grad_at(anchor, oracle, y):
    """grad Omega(y) in the original coordinates."""
    return anchor.factor.q(omega_grad(anchor, oracle, hat(anchor, y)))


def rho_grad_at(anchor, y):
    """grad rho(y) in the original coordinates."""
    return anchor.factor.q(rho_grad(anchor, hat(anchor, y)))

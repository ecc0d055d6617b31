"""Shared test helpers: small synthetic oracles and dataset builders."""

import numpy as np

from tensormin.model import HessianFactor, omega_grad, rho_grad
from tensormin.oracles import Dataset, SmoothOracle, logistic_oracle


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


class LowerBoundQuartic(SmoothOracle):
    """Nesterov's lower-bound quartic for tensor methods,

        f(x) = 1/4 sum_{i<n} (x_i - x_{i+1})^4 + 1/4 x_n^4 - x_1
             = 1/4 sum_i (D x)_i^4 - x_1,

    with D the upper bidiagonal matrix of ones and minus ones.  Its
    minimizer is x*_i = n - i + 1 (D x* = ones) and f* = -3n/4.  Nesterov,
    "Implementable tensor methods in unconstrained convex optimization",
    Math. Program. (2021).
    """

    def __init__(self, n):
        super().__init__(n)
        self.minimizer = np.arange(self.n, 0, -1, dtype=float)
        self.f_min = -0.75 * self.n

    @staticmethod
    def _d(x):
        d = x.copy()
        d[:-1] -= x[1:]
        return d

    @staticmethod
    def _dt(y):
        out = y.copy()
        out[1:] -= y[:-1]
        return out

    def _value(self, p):
        return 0.25 * float(np.sum(self._d(p.x) ** 4)) - p.x[0]

    def _grad(self, p):
        g = self._dt(self._d(p.x) ** 3)
        g[0] -= 1.0
        return g

    def _hessian(self, p):
        dmat = np.eye(self.n) - np.eye(self.n, k=1)
        return dmat.T @ (3.0 * self._d(p.x)[:, None] ** 2 * dmat)

    def _third_directional(self, p, h):
        return self._dt(6.0 * self._d(p.x) * self._d(h) ** 2)


def iterate_rows(rows):
    """The row of each point that became an iterate x_{t+1}, in step order:
    the first accepted row of each outer step t (an accel companion that won
    is written just before its trial's row)."""
    first = {}
    for row in rows:
        if row["accepted"]:
            first.setdefault(row["t"], row)
    return list(first.values())


def make_logistic(m, n_raw_features, seed, separable_shift=0.0):
    """Random logistic problem: m samples, intercept + n_raw_features columns.

    Labels are drawn from the model itself so the problem is realistic and
    (for moderate m) non-separable.  Returns (dataset, oracle).
    """
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((m, n_raw_features)) + separable_shift
    features = np.hstack([np.ones((m, 1)), raw])
    w = rng.standard_normal(n_raw_features + 1)
    p = 1.0 / (1.0 + np.exp(-(features @ w)))
    labels = (rng.random(m) < p).astype(float)
    data = Dataset(features=features, labels=labels)
    return data, logistic_oracle(data)


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

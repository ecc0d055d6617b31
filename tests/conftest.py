"""Shared test helpers: small synthetic oracles and dataset builders."""

import numpy as np

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

    def _hessian_trace(self, p):
        return float(np.trace(self.P))


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

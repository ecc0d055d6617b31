"""Problem oracles: smooth convex objectives with derivatives up to third order.

A smooth oracle exposes five entry points on four hooks -- function value,
gradient, Hessian, directional third derivative ``D3f(x)[h]^2`` (a vector; the
full third-derivative tensor is never materialized), and the Hessian trace,
taken from the Hessian hook.  Every entry-point invocation is counted, so
solver-level oracle-call statistics can be read off the oracle afterwards, and
every result is checked to be finite (``OracleError`` names the entry point
otherwise).  The composite term ``psi`` is zero, and ``ZeroComposite`` is the
token the solvers accept for it.

Each entry point takes either an array or a ``Point``: a read-only copy of x
plus what is known there (for the logistic loss, the margins ``A x``, the
sigmoid and its derivative weights).  Querying several entry points, or
``third_directional`` along many directions, through one ``Point`` computes
those intermediates once, and the solvers read f(x) and grad f(x) through
``value_at``/``grad_at``, which keep them in the point.  A point belongs to
one run and one oracle; the oracle keeps no state besides its call counter.
"""

from __future__ import annotations

import math
import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit


def check_cap(name, cap):
    """Raise ValueError naming ``name`` unless ``cap``, an iteration cap or
    a dimension, is an integer >= 1 (a bool is not)."""
    if (isinstance(cap, bool) or not isinstance(cap, (int, np.integer))
            or cap < 1):
        raise ValueError("%s must be at least 1 and an integer, got %r"
                         % (name, cap))


class CallCounter:
    """Thread-safe per-entry-point call counts for a smooth oracle.

    A single oracle may be shared by independent solver runs executing
    concurrently, so increments are guarded by a lock, and each thread also
    keeps its own running total (``thread_total``), from which a run counts
    its own calls.
    """

    _FIELDS = ("value", "grad", "hessian", "third", "trace")

    def __init__(self):
        self._lock = threading.Lock()
        self._thread = threading.local()
        self.value = 0
        self.grad = 0
        self.hessian = 0
        self.third = 0
        self.trace = 0

    def bump(self, name):
        with self._lock:
            setattr(self, name, getattr(self, name) + 1)
        self._thread.total = self.thread_total() + 1

    def total(self):
        """Total number of entry-point invocations across all five kinds."""
        with self._lock:
            return self.value + self.grad + self.hessian + self.third + self.trace

    def thread_total(self):
        """Invocations made so far by the calling thread; ``reset`` leaves
        it alone, so only differences of it mean anything."""
        return getattr(self._thread, "total", 0)

    def snapshot(self):
        """Dict copy of the five counters, taken atomically."""
        with self._lock:
            return {name: getattr(self, name) for name in self._FIELDS}

    def reset(self):
        with self._lock:
            for name in self._FIELDS:
                setattr(self, name, 0)

    def __repr__(self):
        return "CallCounter(%s)" % ", ".join(
            "%s=%d" % (k, v) for k, v in self.snapshot().items()
        )


class OracleError(RuntimeError):
    """An oracle entry point returned a non-finite result."""


class Point:
    """A query point x and what is known there.

    ``x`` is a read-only copy of the array the point was built from;
    ``data`` maps a name to a value at x, filled lazily through ``memo``:
    oracles' intermediates, and f and grad f under ``"value"``/``"grad"``.
    """

    __slots__ = ("x", "data")

    def __init__(self, x):
        x = np.array(x, dtype=float)
        x.setflags(write=False)
        self.x = x
        self.data = {}

    def memo(self, key, compute):
        """``data[key]``, set to ``compute()`` on first use."""
        try:
            return self.data[key]
        except KeyError:
            value = self.data[key] = compute()
            return value


def as_point(x):
    """``x`` itself when it is a ``Point``, else a new ``Point`` at ``x``."""
    return x if isinstance(x, Point) else Point(x)


def value_at(oracle, p):
    """f at the ``Point`` p; one counted call per point, on first use."""
    return p.memo("value", lambda: oracle.value(p))


def grad_at(oracle, p):
    """grad f at the ``Point`` p, read-only; one counted call per point."""
    g = p.memo("grad", lambda: oracle.grad(p))
    g.setflags(write=False)
    return g


_EPS = np.finfo(float).eps


def _finite(entry, compute):
    """``compute()``, run without NumPy floating-point warnings, checked to
    be finite (else OracleError naming ``entry``)."""
    with np.errstate(all="ignore"):
        out = compute()
    if not np.isfinite(out).all():
        raise OracleError("%s returned a non-finite result" % entry)
    return out


class SmoothOracle(ABC):
    """Smooth convex objective queried through counted entry points.

    Subclasses implement the four hooks ``_value``, ``_grad``, ``_hessian``
    and ``_third_directional``, which receive the query as a ``Point`` (and
    ``h`` as an array); the public methods validate dimensions, maintain
    ``self.calls``, run the hooks without NumPy floating-point warnings and
    check that results are finite; every call is counted and evaluated
    afresh (see ``value_at``).  ``_hessian`` must return a fresh
    array, because the anchor factors it in place (see
    ``ModelAnchor.from_oracle``).  ``lipschitz_third`` optionally reports a
    Lipschitz constant of the third derivative when one is known in closed
    form, else ``None``.

    Attributes
    ----------
    n : int
        Dimension of the variable, an integer >= 1 (else ValueError).
    calls : CallCounter
        Per-entry-point invocation counts.
    lipschitz_third : float or None
        Known Lipschitz constant of the third derivative, if any.
    """

    def __init__(self, n):
        check_cap("n", n)
        self.n = int(n)
        self.calls = CallCounter()
        self.lipschitz_third = None

    def _check_shape(self, x, name):
        if x.shape != (self.n,):
            raise ValueError(
                "%s has shape %s, expected (%d,)" % (name, x.shape, self.n)
            )
        return x

    def _as_point(self, x):
        p = as_point(x)
        self._check_shape(p.x, "x")
        return p

    # -- counted entry points -------------------------------------------------

    def value(self, x):
        """Objective value f(x)."""
        p = self._as_point(x)
        self.calls.bump("value")
        return _finite("value", lambda: float(self._value(p)))

    def grad(self, x):
        """Gradient of f at x."""
        p = self._as_point(x)
        self.calls.bump("grad")
        return _finite("grad", lambda: self._grad(p))

    def hessian(self, x):
        """Hessian of f at x as a symmetric (n, n) array."""
        p = self._as_point(x)
        self.calls.bump("hessian")
        return _finite("hessian", lambda: self._hessian(p))

    def third_directional(self, x, h):
        """The vector D3f(x)[h]^2: third derivative applied to (h, h).

        Only this directional form is ever exposed; no n**3 tensor is built.
        """
        p = self._as_point(x)
        h = self._check_shape(np.asarray(h, dtype=float), "h")
        self.calls.bump("third")
        return _finite("third_directional",
                       lambda: self._third_directional(p, h))

    def hessian_trace(self, x):
        """Trace of the Hessian at x, that of the ``_hessian`` matrix."""
        p = self._as_point(x)
        self.calls.bump("trace")
        return _finite("hessian_trace",
                       lambda: float(np.trace(self._hessian(p))))

    # -- hooks ----------------------------------------------------------------

    @abstractmethod
    def _value(self, p): ...

    @abstractmethod
    def _grad(self, p): ...

    @abstractmethod
    def _hessian(self, p): ...

    @abstractmethod
    def _third_directional(self, p, h): ...


# -- composite term -----------------------------------------------------------


class ZeroComposite:
    """The token for psi = 0, the only composite term; solvers check for it."""


# -- datasets -----------------------------------------------------------------


@dataclass
class Dataset:
    """Binary-classification data for the logistic objective.

    ``features`` is a finite (m, n+1) array with an all-ones intercept
    column first; ``labels`` is (m,) with entries in {0, 1}.
    """

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=float)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-d array")
        m = self.features.shape[0]
        if self.labels.shape != (m,):
            raise ValueError(
                "labels shape %s does not match %d rows" % (self.labels.shape, m)
            )
        if m == 0:
            raise ValueError("dataset is empty")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features must be finite")
        if not np.all(self.features[:, 0] == 1.0):
            raise ValueError("first feature column must be the all-ones intercept")
        if not np.all((self.labels == 0.0) | (self.labels == 1.0)):
            raise ValueError("labels must be 0 or 1")

    @property
    def n_samples(self):
        return self.features.shape[0]

    @property
    def dim(self):
        return self.features.shape[1]


class LogisticOracle(SmoothOracle):
    """Logistic-regression loss over a fixed dataset.

    With rows a_i and labels b_i in {0, 1}, and s_i = sigmoid(<a_i, x>):

        f(x)         = sum_i [ log(1 + exp(<a_i, x>)) - b_i <a_i, x> ]
        grad f(x)    = A^T (s - b)
        hess f(x)    = A^T diag(s * (1 - s)) A
        D3f(x)[h]^2  = A^T [ s * (1 - s) * (1 - 2 s) * (A h)^2 ]

    The value is computed in the log-sum-exp form above, which equals the
    negative log-likelihood and is stable for large |<a_i, x>|.  The Hessian
    is formed as B^T B with B = diag(sqrt(s (1 - s))) A, which NumPy runs as a
    symmetric rank-m update (BLAS syrk): m n^2 flops, half those of a general
    product.
    """

    def __init__(self, dataset):
        if not isinstance(dataset, Dataset):
            dataset = Dataset(*dataset)
        super().__init__(dataset.dim)
        self.dataset = dataset

    # Intermediates at a point, each computed once: the margins z = A x, the
    # sigmoid s, the Hessian weights s (1 - s) and the third-derivative
    # weights s (1 - s) (1 - 2 s).
    def _margins(self, p):
        return p.memo("z", lambda: self.dataset.features @ p.x)

    def _sigmoid(self, p):
        return p.memo("s", lambda: expit(self._margins(p)))

    def _weights(self, p):
        return p.memo("w", lambda: self._sigmoid(p) * (1.0 - self._sigmoid(p)))

    def _weights3(self, p):
        return p.memo("w3", lambda: self._weights(p) * (1.0 - 2.0 * self._sigmoid(p)))

    def _value(self, p):
        z = self._margins(p)
        return float(np.sum(np.logaddexp(0.0, z) - self.dataset.labels * z))

    def _grad(self, p):
        return self.dataset.features.T @ (self._sigmoid(p) - self.dataset.labels)

    def _hessian(self, p):
        # The weights s (1 - s) are nonnegative, so B is real.  NumPy runs
        # the product of an array with its own transpose as a syrk and
        # mirrors the triangle itself, so the result is exactly symmetric.
        b = np.sqrt(self._weights(p))[:, None] * self.dataset.features
        return b.T @ b

    def _third_directional(self, p, h):
        ah = self.dataset.features @ h
        return self.dataset.features.T @ (self._weights3(p) * ah * ah)


class QuarticOracle(SmoothOracle):
    """Separable quartic f(x) = sum_i x_i^4.

    The third derivative is 24 x_i on the (i, i, i) diagonal, so it is
    Lipschitz with constant 24 and the global minimizer is the origin.
    """

    def __init__(self, n):
        super().__init__(n)
        self.lipschitz_third = 24.0
        self.minimizer = np.zeros(self.n)

    def _value(self, p):
        return float(np.sum(p.x**4))

    def _grad(self, p):
        return 4.0 * p.x**3

    def _hessian(self, p):
        return np.diag(12.0 * p.x**2)

    def _third_directional(self, p, h):
        return 24.0 * p.x * h * h


def logistic_oracle(dataset):
    """Build the logistic-regression oracle for ``dataset``."""
    return LogisticOracle(dataset)


def quartic_oracle(n):
    """Build the separable quartic oracle on R^n."""
    return QuarticOracle(n)


# -- finite-difference third derivative ---------------------------------------


def fd_third_directional(oracle, x, h, tau):
    """Approximate D3f(x)[h]^2 by a second central difference of gradients.

        T_tau(h) = [grad f(x + tau h) + grad f(x - tau h) - 2 grad f(x)] / tau^2

    When the third derivative is Lipschitz with constant L, the error is at
    most (L / 3) * tau * ||h||^3.  Costs three gradient calls, queried in
    the order x + tau h, x - tau h, x; two when ``x`` is a ``Point`` that
    holds its gradient (see ``grad_at``).
    """
    if not 0.0 < tau < math.inf:
        raise ValueError("tau must be finite and positive, got %r" % (tau,))
    p = as_point(x)
    h = np.asarray(h, dtype=float)
    gp = oracle.grad(p.x + tau * h)
    gm = oracle.grad(p.x - tau * h)
    return (gp + gm - 2.0 * grad_at(oracle, p)) / tau**2


class FdThirdOracle(SmoothOracle):
    """A ``SmoothOracle`` whose third derivative is the finite-difference
    surrogate T_tau of a base oracle's gradients, with a fixed step ``tau``.

    The value, gradient and Hessian hooks are the base's, and the counter is
    the base's.  ``third_directional`` costs counted gradient calls, not a
    ``third`` call: two at x +- tau h, plus the one at x unless the query
    ``Point`` holds it (see ``grad_at``), as an anchor's does.
    """

    def __init__(self, base, tau):
        if not 0.0 < tau < math.inf:
            raise ValueError("tau must be finite and positive, got %r" % (tau,))
        super().__init__(base.n)
        self.calls = base.calls
        self.lipschitz_third = base.lipschitz_third
        self.base = base
        self.tau = float(tau)

    def third_directional(self, x, h):
        """T_tau(h) at x, in place of D3f(x)[h]^2.

        A nonzero h with tau ||h|| <= eps ||x|| (eps the machine epsilon),
        where x +- tau h round to x and T_tau would be zero, and a
        non-finite T_tau (tau^2 underflowing, say) raise an ``OracleError``
        naming tau, without NumPy warnings.
        """
        p = self._as_point(x)
        h = self._check_shape(np.asarray(h, dtype=float), "h")
        h_norm = float(np.linalg.norm(h))
        if h_norm > 0.0 and self.tau * h_norm <= _EPS * np.linalg.norm(p.x):
            raise OracleError(
                "third_directional (tau=%r): the difference step tau ||h|| = "
                "%.3e is at most eps ||x||, so x +- tau h round to x"
                % (self.tau, self.tau * h_norm))
        return _finite("third_directional (tau=%r)" % self.tau,
                       lambda: self._third_directional(p, h))

    def _value(self, p):
        return self.base._value(p)

    def _grad(self, p):
        return self.base._grad(p)

    def _hessian(self, p):
        return self.base._hessian(p)

    def _third_directional(self, p, h):
        return fd_third_directional(self, p, h, self.tau)


# -- derivative checks --------------------------------------------------------


@dataclass
class DerivativeReport:
    """Result of a finite-difference audit of an oracle's derivatives.

    ``max_rel_err`` maps derivative order (1, 2, 3) to the worst relative
    error observed over the probe directions; ``failed_orders`` lists the
    orders whose error exceeded ``tol``.
    """

    max_rel_err: dict
    tol: float
    passed: bool
    failed_orders: list = field(default_factory=list)


def check_derivatives(oracle, x, tol=1e-5, n_directions=5, seed=0):
    """Audit grad/hessian/third_directional against central differences of
    the next-lower derivative along random unit directions.

    Parameters
    ----------
    oracle : SmoothOracle
        Oracle under test.
    x : array
        Point at which derivatives are compared.
    tol : float
        Maximum allowed relative error per derivative order.
    n_directions : int
        Number of random probe directions.
    seed : int
        Seed for the probe-direction generator.

    Returns
    -------
    DerivativeReport
    """
    p = Point(x)
    x = p.x
    rng = np.random.default_rng(seed)
    scale = 1.0 + float(np.linalg.norm(x))
    d1 = scale * _EPS ** (1.0 / 3.0)  # central value difference: O(d^2) + O(eps/d)
    d3 = scale * _EPS**0.25           # second gradient difference: O(d^2) + O(eps/d^2)

    g = grad_at(oracle, p)
    hess = oracle.hessian(p)

    err = {1: 0.0, 2: 0.0, 3: 0.0}
    for _ in range(n_directions):
        h = rng.standard_normal(x.shape[0])
        h /= np.linalg.norm(h)

        fd1 = (oracle.value(x + d1 * h) - oracle.value(x - d1 * h)) / (2.0 * d1)
        ref1 = float(np.dot(g, h))
        err[1] = max(err[1], abs(fd1 - ref1) / (1.0 + abs(ref1)))

        fd2 = (oracle.grad(x + d1 * h) - oracle.grad(x - d1 * h)) / (2.0 * d1)
        ref2 = hess @ h
        err[2] = max(
            err[2],
            float(np.linalg.norm(fd2 - ref2)) / (1.0 + float(np.linalg.norm(ref2))),
        )

        fd3 = fd_third_directional(oracle, p, h, d3)
        ref3 = oracle.third_directional(p, h)
        err[3] = max(
            err[3],
            float(np.linalg.norm(fd3 - ref3)) / (1.0 + float(np.linalg.norm(ref3))),
        )

    failed = [k for k in (1, 2, 3) if err[k] > tol]
    return DerivativeReport(
        max_rel_err=err, tol=tol, passed=not failed, failed_orders=failed
    )

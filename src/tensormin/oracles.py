"""Problem oracles: smooth convex objectives with derivatives up to third order.

A smooth oracle exposes five entry points on four hooks -- function value,
gradient, Hessian, directional third derivative ``D3f(x)[h]^2`` (a vector; the
full third-derivative tensor is never materialized), and the Hessian trace,
taken from the Hessian hook.  Every entry-point invocation is counted, so
solver-level oracle-call statistics can be read off the oracle afterwards, and
every result is checked to be finite and of the entry point's shape
(``OracleError`` names the entry point otherwise).  The composite term
``psi`` is zero, and ``ZeroComposite`` is the token the solvers accept for
it.

Each entry point takes either an array or a ``Point``: a read-only copy of x
plus what is known there (for the logistic loss, the margins ``A x``, the
sigmoid and its derivative weights).  Querying several entry points, or
``third_directional`` along many directions, through one ``Point`` computes
those intermediates once.  The solvers keep there all they read at x: f,
grad f and its norm (``value_at``, ``grad_at``, ``grad_norm_at``) and the
anchor data (``ModelAnchor.from_oracle``).  A point belongs to one run and
one oracle; the oracle keeps no state besides its call counter.
"""

from __future__ import annotations

import math
import numbers
import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np
from scipy.special import expit


def check_cap(name, cap):
    """Raise ValueError naming ``name`` unless ``cap``, an iteration cap or
    a dimension, is an integer >= 1 (a bool is not)."""
    if (isinstance(cap, bool) or not isinstance(cap, (int, np.integer))
            or cap < 1):
        raise ValueError("%s must be at least 1 and an integer, got %r"
                         % (name, cap))


def check_positive(name, value):
    """``value`` as a float; raise ValueError naming ``name`` unless it is a
    finite real > 0: a ``numbers.Real``, NumPy's included, but not a bool."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not 0.0 < value < math.inf):
        raise ValueError("%s must be finite and positive, got %r"
                         % (name, value))
    return float(value)


def check_finite(name, x):
    """Raise ValueError naming ``name`` and its first bad entry unless every
    entry of the array ``x`` is finite."""
    bad = ~np.isfinite(x)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError("%s must be finite, got %s[%d] = %g"
                         % (name, name, i, x.flat[i]))


def _check_vector(name, a, n):
    """Raise ValueError naming ``name`` unless the array ``a`` has shape
    (n,)."""
    if a.shape != (n,):
        raise ValueError("%s has shape %s, expected (%d,)" % (name, a.shape, n))


def norm(v):
    """||v|| for a vector v, as a float rounded as ``np.linalg.norm`` rounds
    it, and finite whenever every entry is: a sum of squares that overflows
    is taken again with v scaled by max |v_i|.  inf or NaN entries give inf
    or NaN."""
    with np.errstate(over="ignore"):
        s = math.sqrt(np.dot(v, v))
    if s == math.inf:
        scale = float(np.max(np.abs(v)))
        if scale < math.inf:
            w = v / scale
            return scale * math.sqrt(np.dot(w, w))
    return s


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
        self.reset()

    def bump(self, name):
        with self._lock:
            setattr(self, name, getattr(self, name) + 1)
        self._thread.total = self.thread_total() + 1

    def total(self):
        """Total number of entry-point invocations across all five kinds."""
        return sum(self.snapshot().values())

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
            "%s=%d" % kv for kv in self.snapshot().items())


class SolveError(RuntimeError):
    """The base of every typed failure a run can raise."""


def with_context(exc, prefix):
    """``exc`` with ``prefix: `` before its message, for the caller to raise:
    a new exception of its type chained from ``exc``, or ``exc`` itself with
    that message as a note when its type takes other constructor arguments."""
    msg = "%s: %s" % (prefix, exc)
    try:
        annotated = type(exc)(msg)
    except TypeError:
        exc.add_note(msg)
        return exc
    annotated.__cause__ = exc
    return annotated


class OracleError(SolveError):
    """An oracle entry point returned a non-finite result, or one that is not
    an array of its shape."""


class Point:
    """A query point x and what is known there.

    ``x`` is a read-only copy of the array the point was built from;
    ``data`` maps a name to a value at x, filled lazily through ``memo``:
    oracles' intermediates, f, grad f, ||grad f|| and an anchor's data
    under ``"value"``, ``"grad"``, ``"grad_norm"`` and ``"anchor"``.
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


def grad_norm_at(oracle, p):
    """||grad f|| at the ``Point`` p, taken once from ``grad_at``."""
    return p.memo("grad_norm", lambda: norm(grad_at(oracle, p)))


_EPS = np.finfo(float).eps


class SmoothOracle(ABC):
    """Smooth convex objective queried through counted entry points.

    Subclasses implement the four hooks ``_value``, ``_grad``, ``_hessian``
    and ``_third_directional``, which receive the query as a ``Point`` (and
    ``h`` as an array).  Each public entry point is one call of ``_call``,
    the one path that checks shapes, counts the call in ``self.calls``, runs
    the hook afresh without NumPy floating-point warnings (see ``value_at``)
    and checks that its result is finite, then that it is an array of the
    entry point's shape: () for the value (a real number is also accepted),
    (n,) for the gradient and the third derivative, and (n, n) for the
    Hessian, also in ``hessian_trace``.  ``_hessian`` must return a fresh
    array, because the anchor factors it in place (see
    ``ModelAnchor.from_oracle``).

    Attributes
    ----------
    n : int
        Dimension of the variable, an integer >= 1 (else ValueError).
    calls : CallCounter
        Per-entry-point invocation counts.
    lipschitz_third : float or None
        Lipschitz constant of the third derivative when known in closed
        form, else None.
    """

    def __init__(self, n):
        check_cap("n", n)
        self.n = int(n)
        self.calls = CallCounter()
        self.lipschitz_third = None

    def _call(self, kind, entry, ndim, x, hook, *args):
        """``hook(p, *args)`` at the ``Point`` p of x: every entry point's one
        path.  x and h (the only hook argument) must have shape (n,), else
        ValueError before anything is counted; the call is counted under
        ``kind`` (unless None), run without NumPy floating-point warnings and
        checked to be finite, then to be an array of shape (n,) * ``ndim``
        (for ndim = 0 also a real number), else OracleError naming
        ``entry``."""
        p = as_point(x)
        args = [np.asarray(a, dtype=float) for a in args]
        for name, a in zip("xh", (p.x, *args)):
            _check_vector(name, a, self.n)
        if kind is not None:
            self.calls.bump(kind)
        with np.errstate(all="ignore"):
            out = hook(p, *args)
        if not np.isfinite(out).all():
            raise OracleError("%s returned a non-finite result" % entry)
        shape = (self.n,) * ndim
        types = np.ndarray if ndim else (np.ndarray, numbers.Real)
        if not isinstance(out, types) or np.shape(out) != shape:
            got = ("an array" if isinstance(out, np.ndarray)
                   else "a " + type(out).__name__)
            raise OracleError("%s returned %s of shape %s, expected an array "
                              "of shape %s" % (entry, got, np.shape(out), shape))
        return out

    # -- counted entry points -------------------------------------------------

    def value(self, x):
        """Objective value f(x)."""
        return float(self._call("value", "value", 0, x, self._value))

    def grad(self, x):
        """Gradient of f at x."""
        return self._call("grad", "grad", 1, x, self._grad)

    def hessian(self, x):
        """Hessian of f at x as a symmetric (n, n) array."""
        return self._call("hessian", "hessian", 2, x, self._hessian)

    def third_directional(self, x, h):
        """The vector D3f(x)[h]^2: third derivative applied to (h, h).

        Only this directional form is ever exposed; no n**3 tensor is built.
        """
        return self._call("third", "third_directional", 1, x,
                          self._third_directional, h)

    def hessian_trace(self, x):
        """Trace of the ``_hessian`` matrix at x, both checked as above."""
        with np.errstate(over="ignore"):
            trace = float(np.trace(self._call("trace", "hessian_trace", 2, x,
                                              self._hessian)))
        if not math.isfinite(trace):
            raise OracleError("hessian_trace returned a non-finite result")
        return trace

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
        if self.features.shape[1] == 0:
            raise ValueError("features have no columns: no intercept column")
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


def logistic_oracle(dataset):
    """Build the logistic-regression oracle for ``dataset``."""
    return LogisticOracle(dataset)


def quartic_oracle(n):
    """Build the separable quartic oracle on R^n."""
    return QuarticOracle(n)


def make_logistic(m, n_raw_features, seed):
    """Random logistic problem: m samples, intercept + n_raw_features columns.

    Labels are drawn from the model itself so the problem is realistic and
    (for moderate m) non-separable.  Returns (dataset, oracle).
    """
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((m, n_raw_features))
    features = np.hstack([np.ones((m, 1)), raw])
    w = rng.standard_normal(n_raw_features + 1)
    p = 1.0 / (1.0 + np.exp(-(features @ w)))
    labels = (rng.random(m) < p).astype(float)
    data = Dataset(features=features, labels=labels)
    return data, logistic_oracle(data)


# -- finite-difference third derivative ---------------------------------------


def fd_third_directional(oracle, x, h, tau):
    """Approximate D3f(x)[h]^2 by a second central difference of gradients.

        T_tau(h) = [grad f(x + tau h) + grad f(x - tau h) - 2 grad f(x)] / tau^2

    When the third derivative is Lipschitz with constant L, the error is at
    most (L / 3) * tau * ||h||^3.  Costs three gradient calls, queried in
    the order x + tau h, x - tau h, x; two when ``x`` is a ``Point`` that
    holds its gradient (see ``grad_at``).
    """
    check_positive("tau", tau)
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
    ``Point`` holds it (see ``grad_at``), as an anchor's does.  A nonzero h
    with tau ||h|| <= eps ||x||, where x +- tau h round to x and T_tau would
    be zero, raises OracleError naming tau.
    """

    def __init__(self, base, tau):
        super().__init__(base.n)
        self.calls = base.calls
        self.lipschitz_third = base.lipschitz_third
        self.base = base
        self.tau = check_positive("tau", tau)

    def third_directional(self, x, h):
        """T_tau(h) at x, in place of D3f(x)[h]^2, counted as its gradients."""
        return self._call(None, "third_directional (tau=%r)" % self.tau, 1,
                          x, self._third_directional, h)

    def _value(self, p):
        return self.base._value(p)

    def _grad(self, p):
        return self.base._grad(p)

    def _hessian(self, p):
        return self.base._hessian(p)

    def _third_directional(self, p, h):
        h_norm = norm(h)
        if h_norm > 0.0 and self.tau * h_norm <= _EPS * norm(p.x):
            raise OracleError(
                "third_directional (tau=%r): the difference step tau ||h|| = "
                "%.3e is at most eps ||x||, so x +- tau h round to x"
                % (self.tau, self.tau * h_norm))
        return fd_third_directional(self, p, h, self.tau)


# -- derivative checks --------------------------------------------------------


@dataclass
class DerivativeReport:
    """Result of a finite-difference audit of an oracle's derivatives.

    ``max_rel_err`` maps derivative order (1, 2, 3) to the worst relative
    error observed over the probe directions; ``failed_orders`` and
    ``passed`` are derived from it and ``tol``, not stored.
    """

    max_rel_err: dict
    tol: float

    @property
    def failed_orders(self):
        """The orders whose error exceeded ``tol``."""
        return [k for k, err in self.max_rel_err.items() if err > self.tol]

    @property
    def passed(self):
        """True when no order failed."""
        return not self.failed_orders


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
        Maximum allowed relative error per derivative order (finite,
        positive).
    n_directions : int
        Number of random probe directions, an integer >= 1.
    seed : int
        Seed for the probe-direction generator.

    Returns
    -------
    DerivativeReport
    """
    check_positive("tol", tol)
    check_cap("n_directions", n_directions)
    p = Point(x)
    x = p.x
    _check_vector("x", x, oracle.n)
    check_finite("x", x)
    rng = np.random.default_rng(seed)
    scale = 1.0 + norm(x)
    d1 = scale * _EPS ** (1.0 / 3.0)  # central value difference: O(d^2) + O(eps/d)
    d3 = scale * _EPS**0.25           # second gradient difference: O(d^2) + O(eps/d^2)

    g = grad_at(oracle, p)
    hess = oracle.hessian(p)

    err = {1: 0.0, 2: 0.0, 3: 0.0}
    for _ in range(n_directions):
        h = rng.standard_normal(x.shape[0])
        h /= norm(h)

        fd1 = (oracle.value(x + d1 * h) - oracle.value(x - d1 * h)) / (2.0 * d1)
        ref1 = float(np.dot(g, h))
        err[1] = max(err[1], abs(fd1 - ref1) / (1.0 + abs(ref1)))

        fd2 = (oracle.grad(x + d1 * h) - oracle.grad(x - d1 * h)) / (2.0 * d1)
        ref2 = hess @ h
        err[2] = max(err[2], norm(fd2 - ref2) / (1.0 + norm(ref2)))

        fd3 = fd_third_directional(oracle, p, h, d3)
        ref3 = oracle.third_directional(p, h)
        err[3] = max(err[3], norm(fd3 - ref3) / (1.0 + norm(ref3)))

    return DerivativeReport(max_rel_err=err, tol=tol)

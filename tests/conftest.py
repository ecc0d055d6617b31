"""Shared test doubles: a quadratic oracle with a fixed Hessian, helpers
that build a model anchor or read its factor in the original coordinates,
and ``PINNED_RUNS``, every loop run the suite pins, with ``check_run``, the
README's trace contract asserted on one run."""

import re
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from tensormin.accel import run_accel
from tensormin.basic import run_basic
from tensormin.harness import bundled_dataset_path, load_dataset
from tensormin.model import HessianFactor, ModelAnchor, omega_grad, rho_grad
from tensormin.oracles import (Dataset, FdThirdOracle, LowerBoundQuartic,
                               SmoothOracle, logistic_oracle, make_logistic,
                               norm, quartic_oracle)

README = Path(__file__).resolve().parent.parent / "README.md"


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


# -- pinned runs --------------------------------------------------------------


def documented_trace_keys():
    """Label -> key set of each bullet of the README's trace schema: the
    backticked names after the bullet's last colon."""
    section = README.read_text().split("## Trace schema", 1)[1].split("\n## ")[0]
    keys = {}
    for label, names in re.findall(r"^- \*\*(.+?)\*\*.*: (.*)$", section, re.M):
        keys[label] = set(re.findall(r"`(\w+)`", names))
    return keys


def quartic(n=2, x0=1.0):
    """A factory of the quartic in n variables and a start whose every entry
    is x0."""
    return lambda: (quartic_oracle(n), np.full(n, x0))


def lower_bound(n):
    return lambda: (LowerBoundQuartic(n), np.zeros(n))


def logistic(m, p, seed):
    return lambda: (make_logistic(m, p, seed=seed)[1], np.zeros(p + 1))


def bundled():
    data = load_dataset(bundled_dataset_path())
    return logistic_oracle(data), np.ones(data.dim)


def unscaled():
    """40 x 3 logistic data with features near 1e5, from ones."""
    rng = np.random.default_rng(0)
    features = rng.standard_normal((40, 3)) * 1e5
    labels = (rng.random(40) < 0.5).astype(float)
    return logistic_oracle(Dataset(np.hstack([np.ones((40, 1)), features]),
                                   labels)), np.ones(4)


def fd_quartic():
    return FdThirdOracle(quartic_oracle(2), 1e-4), np.ones(2)


class Pin(NamedTuple):
    """A pinned run: its name, the loop, a factory of a fresh (oracle, x0),
    the arguments besides m0 = 1 (epsilon, and any m0, max_outer,
    max_inner), the exact (IT, CO, BGM_E, BGM_IT) and (value, grad,
    hessian, third) calls, and ``converged``."""

    name: str
    loop: Callable
    make: Callable
    args: dict
    counters: tuple
    calls: tuple
    converged: bool = True

    @property
    def id(self):
        return "%s-%s" % (self.name, self.loop.__name__[len("run_"):])

    @property
    def run_args(self):
        return {"m0": 1.0, **self.args}


# Whoever changes a pinned value lists the old and new ones in CHANGES.md.
PINNED_RUNS = [
    # The paper's protocol on the bundled set (x0 = ones, m0 = 1), which
    # run_experiment reproduces.
    *[Pin("bundled-%.0e" % eps, loop, bundled, {"epsilon": eps}, counters, calls)
      for loop, eps, counters, calls in (
          (run_basic, 1e-2, (3, 44, 3, 33), (4, 4, 3, 33)),
          (run_basic, 1e-4, (3, 56, 3, 45), (4, 4, 3, 45)),
          (run_basic, 1e-6, (4, 75, 4, 61), (5, 5, 4, 61)),
          (run_basic, 1e-8, (4, 86, 4, 72), (5, 5, 4, 72)),
          (run_accel, 1e-2, (3, 66, 5, 48), (5, 8, 5, 48)),
          (run_accel, 1e-4, (3, 78, 5, 60), (5, 8, 5, 60)),
          (run_accel, 1e-6, (4, 111, 7, 86), (7, 11, 7, 86)),
          (run_accel, 1e-8, (4, 122, 7, 97), (7, 11, 7, 97)))],
    Pin("logistic-2000x50", run_basic, logistic(2000, 49, 0), {"epsilon": 1e-6},
        (7, 280, 11, 249), (12, 12, 7, 249)),
    Pin("logistic-2000x50", run_accel, logistic(2000, 49, 0), {"epsilon": 1e-6},
        (7, 404, 17, 346), (13, 28, 17, 346)),
    Pin("logistic-300x5", run_basic, logistic(300, 5, 3), {"epsilon": 1e-8},
        (4, 108, 4, 94), (5, 5, 4, 94)),
    Pin("logistic-300x6", run_basic, logistic(300, 6, 41), {"epsilon": 1e-6},
        (4, 193, 5, 179), (5, 5, 4, 179)),
    Pin("logistic-300x6", run_accel, logistic(300, 6, 41), {"epsilon": 1e-6},
        (4, 383, 11, 346), (7, 19, 11, 346)),
    # ||T|| near 1e11: the secular residual bound once ignored the rounding
    # of T h and failed an exact solve at t = 60.
    Pin("unscaled-logistic", run_basic, unscaled, {"epsilon": 1e-2},
        (74, 1943, 157, 1609), (130, 130, 74, 1609)),
    Pin("stationary", run_basic, quartic(3, 0.0), {"epsilon": 1e-8},
        (1, 4, 1, 1), (1, 2, 1, 0)),
    Pin("stationary", run_accel, quartic(3, 0.0), {"epsilon": 1e-8},
        (1, 4, 1, 1), (1, 2, 1, 0)),
    Pin("quartic2-1e-3", run_basic, quartic(2), {"epsilon": 1e-3},
        (4, 373, 8, 351), (9, 9, 4, 351)),
    Pin("quartic2-1e-3", run_accel, quartic(2), {"epsilon": 1e-3},
        (4, 464, 11, 429), (7, 18, 10, 429)),
    Pin("quartic2-1e-6", run_basic, quartic(2), {"epsilon": 1e-6},
        (6, 566, 12, 534), (13, 13, 6, 534)),
    Pin("quartic2-1e-6", run_accel, quartic(2), {"epsilon": 1e-6},
        (6, 719, 17, 664), (11, 28, 16, 664)),
    Pin("quartic2-1e-8", run_basic, quartic(2), {"epsilon": 1e-8},
        (8, 754, 16, 712), (17, 17, 8, 712)),
    Pin("quartic3-random", run_basic,
        quartic(3, np.random.default_rng(30).uniform(0.5, 1.5, 3)),
        {"epsilon": 1e-6}, (8, 816, 16, 780), (14, 14, 8, 780)),
    Pin("quartic3-m0-0.01", run_basic, quartic(3), {"epsilon": 1e-6, "m0": 0.01},
        (6, 790, 18, 756), (14, 14, 6, 756)),
    Pin("quartic3-m0-0.01", run_accel, quartic(3), {"epsilon": 1e-6, "m0": 0.01},
        (6, 947, 23, 891), (11, 29, 16, 891)),
    Pin("quartic10", run_basic, quartic(10), {"epsilon": 1e-7},
        (11, 200, 11, 165), (12, 12, 11, 165)),
    Pin("quartic10", run_accel, quartic(10), {"epsilon": 1e-7},
        (11, 389, 21, 315), (21, 32, 21, 315)),
    Pin("quartic-from-10", run_accel, quartic(2, 10.0), {"epsilon": 1e-10},
        (12, 1469, 35, 1354), (23, 58, 34, 1354)),
    # Gradients near 1e120 once overflowed the secular solve's c^T T c.
    Pin("quartic-from-1e40", run_basic, quartic(2, 1e40), {"epsilon": 1e-6},
        (108, 10154, 216, 9612), (217, 217, 108, 9612)),
    Pin("quartic-from-1e40", run_accel, quartic(2, 1e40), {"epsilon": 1e-6},
        (108, 13469, 323, 12394), (215, 538, 322, 12394)),
    # grad f = 4e180 is finite but ||grad f||^2 is not; the norm once
    # overflowed and ended the run in a ZeroDivisionError.
    Pin("quartic-from-1e60", run_basic, quartic(2, 1e60),
        {"epsilon": 1e-6, "max_outer": 3}, (3, 284, 6, 267), (7, 7, 3, 267),
        False),
    Pin("quartic-from-1e60", run_accel, quartic(2, 1e60),
        {"epsilon": 1e-6, "max_outer": 3}, (3, 344, 8, 319), (5, 13, 7, 319),
        False),
    Pin("lower-bound-quartic", run_basic, lower_bound(10), {"epsilon": 1e-6},
        (38, 297, 38, 181), (39, 39, 38, 181)),
    Pin("lower-bound-quartic", run_accel, lower_bound(10), {"epsilon": 1e-6},
        (38, 602, 75, 339), (75, 113, 75, 339)),
    # Only a trial's inner cap ends a run; two companions hit it here.
    Pin("lower-bound-inner-cap-5", run_accel, lower_bound(10),
        {"epsilon": 1e-6, "max_inner": 5, "max_outer": 40}, (40, 610, 79, 337),
        (77, 117, 79, 337), False),
    # A trial's inner cap before any step: f and grad f read at x0 once.
    Pin("inner-cap-1", run_basic, quartic(2), {"epsilon": 1e-10, "max_inner": 1},
        (0, 4, 1, 1), (1, 1, 1, 1), False),
    Pin("inner-cap-1", run_accel, quartic(2), {"epsilon": 1e-10, "max_inner": 1},
        (0, 4, 1, 1), (1, 1, 1, 1), False),
    # A8's run: the third derivative from gradient differences.
    Pin("fd-quartic2", run_basic, fd_quartic, {"epsilon": 1e-6},
        (6, 1100, 12, 534), (13, 1081, 6, 0)),
    Pin("fd-quartic2", run_accel, fd_quartic, {"epsilon": 1e-6},
        (6, 1383, 17, 664), (11, 1356, 16, 0)),
]


def pinned(name, loop):
    """The row of ``PINNED_RUNS`` of that name and loop."""
    return next(p for p in PINNED_RUNS if (p.name, p.loop) == (name, loop))


KINDS = ("value", "grad", "hessian", "third")
EVALUATED = ("EpsilonSmall", "ModelStationarity")


def check_run(lines, pin, report, calls=None, x=None, rows=None):
    """Assert that a run of ``pin``, with trace ``lines`` and ``report``,
    gives the row's counters and ``converged``, and the README's trace
    contract; and the row's per-kind ``calls``, the returned point ``x``
    and the returned ``rows`` where given (``rows`` is None for lines
    parsed from a JSON-lines stream, whose x_trial is then a list).  f and
    grad f are re-derived with a fresh oracle at each trial point."""
    assert (report.IT, report.CO, report.BGM_E, report.BGM_IT) == pin.counters
    assert report.converged is pin.converged
    schema = documented_trace_keys()
    accel = pin.loop is run_accel
    m0, eps = pin.run_args["m0"], pin.args["epsilon"]
    fresh, x0 = pin.make()
    l3 = fresh.lipschitz_third
    m_max = np.inf if l3 is None else max(4.0 * m0, 8.0 * l3)
    outer = [line for line in lines if line["kind"] == "outer"]
    if rows is not None:  # the returned rows are the sink's outer lines
        assert len(rows) == len(outer)
        assert all(a is b for a, b in zip(rows, outer))

    # Each line has the keys of its kinds, and the inner lines of a run, k =
    # 0 .. inner_iters - 1, come just before its outer line; a companion's
    # follow its trial's, and its outer line precedes its trial's.
    pending = []
    for n, line in enumerate(lines):
        keys = set(schema[line["kind"]])
        assert line["epsilon"] == eps
        if line["kind"] == "inner":
            assert set(line) == keys
            pending.append((line["t"], line["i"], line["k"]))
            continue
        if line["stop_reason"] in EVALUATED:
            keys |= schema["evaluated"]
        if accel:
            keys |= schema["accel"]
            if line.get("companion"):
                keys |= schema["accel companion"]
            elif line["accepted"] and line["grad_norm_trial"] > eps:
                keys |= schema["accel accepted"]
        assert set(line) == keys, line
        if line.get("companion"):
            runs = [lines[n + 1], line]
        else:
            runs = [] if n and lines[n - 1].get("companion") else [line]
        assert pending == [(r["t"], r["i"], k) for r in runs
                           for k in range(r["inner_iters"])]
        pending = []
    assert pending == []

    x_t, prev, its = x0, None, []  # the iterate, the last trial, x_1, x_2, ..
    a_total, phi, lin, v = 0.0, 0.0, np.zeros_like(x0), x0
    for n, r in enumerate(outer):
        # Only evaluated lines have a gradient norm, and f where the method
        # reads it: every basic trial, an accel companion, an accepted trial.
        evaluated = r["grad_norm_trial"] is not None
        assert evaluated == (r["stop_reason"] in EVALUATED)
        assert (r["f_trial"] is not None) == (evaluated and (
            not accel or r["accepted"] or "companion" in r))
        assert evaluated or not r["accepted"]
        if evaluated:
            point = r["x_trial"]
            assert (isinstance(point, list) if rows is None
                    else not point.flags.writeable)
            point = np.asarray(point)
            assert r["grad_norm_trial"] == norm(fresh.grad(point))
            if r["f_trial"] is not None:
                assert r["f_trial"] == fresh.value(point)
        if r.get("companion"):
            # Run at its trial's level from x_t; wins when its f is lower.
            trial = outer[n + 1]
            assert trial["accepted"] and "companion" not in trial
            assert all(r[k] == trial[k] for k in {"t", "i", "M_level"}
                       | schema["accel"])
            assert r["accepted"] == (evaluated
                                     and r["f_trial"] < trial["f_trial"])
            continue
        # Levels are contiguous doublings of M_t from the first index whose
        # level is >= 2 m0, at most max(4 m0, 8 L3) where L3 is known, and
        # only a step's last trial is accepted.
        if prev is None or prev["accepted"]:
            assert r["t"] == (0 if prev is None else prev["t"] + 1)
            m_t = m0 if prev is None else prev["M_level"] / 2.0
            i = 0 if m_t >= 2.0 * m0 else 1
        else:
            assert r["t"] == prev["t"]
        assert (r["i"], r["M_level"]) == (i, m_t * 2.0**i)
        assert r["M_level"] <= m_max
        assert r["stop_reason"] != "IterationCap" or r is outer[-1]
        i, prev = i + 1, r
        if accel:  # gamma = a / (A + a), A and phi* from the last step
            assert r["a"] > 0.0
            assert r["gamma"] == r["a"] / (a_total + r["a"])
            assert (r["a_total"], r["phi_star"]) == (a_total, phi)
            assert r["v_dist"] == norm(v - x0)
        if evaluated:  # the acceptance test, recomputed
            g = r["grad_norm_trial"]
            if accel:
                z = (1.0 - r["gamma"]) * x_t + r["gamma"] * v
                decrease = float(np.dot(fresh.grad(point), z - point))
            else:
                decrease = fresh.value(x_t) - r["f_trial"]
            rhs = g ** (4.0 / 3.0) / (6.0 * r["M_level"] ** (1.0 / 3.0))
            assert r["accepted"] == (g <= eps or decrease >= rhs)
        if not r["accepted"]:
            continue
        won = n and outer[n - 1].get("companion") and outer[n - 1]["accepted"]
        its.append(outer[n - 1] if won else r)
        x_t = np.asarray(its[-1]["x_trial"])
        if "a_total_next" in r:
            # A_{t+1} = A + a solves the weight equation, and the sandwich
            # A_{t+1} f(x_{t+1}) <= phi*_{t+1} <= A_{t+1} f(x0) holds.
            a_total, phi = r["a_total_next"], r["phi_star_next"]
            assert a_total == r["a_total"] + r["a"]
            assert abs(r["a"] ** 4 * 18.0**3 * r["M_level"]
                       - 16.0 * a_total**3) <= 1e-9 * (1.0 + 16.0 * a_total**3)
            tol = 1e-8 * (1.0 + abs(phi))
            assert a_total * its[-1]["f_trial"] <= phi + tol
            assert phi <= a_total * fresh.value(x0) + tol
            # A_{t+1} >= 2^(5/4) t^4 / (18^3 max(4 m0, 8 L3)).
            assert a_total >= 2.0**1.25 * r["t"] ** 4 / (18.0**3 * m_max)
            lin = lin + r["a"] * fresh.grad(point)
            v = x0 - lin / norm(lin) ** (2.0 / 3.0)

    # IT, BGM_E and BGM_IT are read off the rows; the run ends at its first
    # iterate with a gradient norm <= epsilon, and returns that iterate.
    assert (report.IT, report.BGM_E, report.BGM_IT) == (
        len(its), len(outer), sum(r["inner_iters"] for r in outer))
    assert not any(r["grad_norm_trial"] <= eps for r in its[:-1])
    assert report.converged == (its != [] and its[-1]["grad_norm_trial"] <= eps)
    assert (report.final_f, report.final_grad_norm) == (
        fresh.value(x_t), norm(fresh.grad(x_t)))
    if x is not None:
        assert np.array_equal(x, x_t)
    if calls is None:
        return
    # f is read at each line with f_trial, and at x0 when it stays the
    # iterate or basic tests a decrease from it.  grad f and the Hessian
    # are read at each anchor: basic anchors once per step at x_t; accel at
    # x0 for every level of step 0, at each later trial's z, and at x_t for
    # each companion (x_t holds its gradient).  grad f is also read at each
    # evaluated line, and D3f once per inner step with a nonzero
    # displacement, which a finite-difference oracle pays in two gradients.
    evaluated = sum(r["grad_norm_trial"] is not None for r in outer)
    queries = sum(line["step_norm"] > 0.0 for line in lines
                  if line["kind"] == "inner")
    fd = isinstance(fresh, FdThirdOracle)
    x0_read = not its or not accel and any(
        r["t"] == 0 and r["grad_norm_trial"] is not None
        and r["grad_norm_trial"] > eps for r in outer)
    if accel:
        companions = sum("companion" in r for r in outer)
        anchors = 1 + sum(r["t"] > 0 and "companion" not in r for r in outer)
        grad, hessian = anchors + evaluated, anchors + companions
    else:
        grad, hessian = 1 + evaluated, len({r["t"] for r in outer})
    assert tuple(calls[kind] for kind in KINDS) == pin.calls
    assert calls == {
        "value": sum(r["f_trial"] is not None for r in outer) + x0_read,
        "grad": grad + 2 * queries * fd, "hessian": hessian,
        "third": queries * (not fd), "trace": 0}
    assert report.CO == sum(calls.values())

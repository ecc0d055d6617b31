"""Adaptive outer loop: accept third-order trial steps, adapt the level M.

Each outer iteration freezes an anchor at the current iterate, runs the
Bregman-gradient inner solver at geometrically increasing levels 2^i M_t
until the slow-convergence flag clears and the trial point passes a
sufficient-decrease test, then halves the level estimate for the next
iteration.  The level therefore tracks the (unknown) third-derivative
Lipschitz constant from below without ever being told it.

``level_search`` is that level rule; the accelerated method runs it too,
with its own anchor center, acceptance test and update.
"""

from __future__ import annotations

import logging
import math
import time

import numpy as np

from .inner import MAX_INNER, StopReason, run_inner
from .model import ModelAnchor
from .oracles import (OracleError, ZeroComposite, as_point, check_cap, grad_at,
                      value_at)
from .reports import RunReport

logger = logging.getLogger(__name__)

# A level loop that doubles this many times without resolution indicates an
# oracle violating the convexity/smoothness contract.
_MAX_LEVEL_DOUBLINGS = 200
# Default cap on the outer steps of one run.
MAX_OUTER = 100000


class LevelSearchError(RuntimeError):
    """Level doubling at one outer step did not reach an accepted trial, or
    stalled on a trial that a higher level repeated bit for bit with zero
    decrease.

    The message names the outer step t, the first and last level M tried,
    the last inner stop reason and, for the last trial that was evaluated,
    its gradient norm against epsilon and its decrease f_x - f_trial (when
    the method knows both values).  An arithmetic error (overflow, division
    by zero) during a step, as at a level near the ends of float range, is
    re-raised as this error naming t, the level index i and the level M.
    """


def accept_test_basic(f_x, f_trial, grad_norm_trial, m_level):
    """Sufficient decrease:  f(x) - f(trial) >= ||grad(trial)||^(4/3) / (6 M^(1/3))."""
    rhs = grad_norm_trial ** (4.0 / 3.0) / (6.0 * m_level ** (1.0 / 3.0))
    return f_x - f_trial >= rhs


def run_basic(
    oracle,
    composite,
    x0,
    m0,
    epsilon,
    max_outer=MAX_OUTER,
    max_inner=MAX_INNER,
    trace_sink=None,
):
    """Minimize f + psi to gradient norm <= epsilon with the adaptive method.

    Parameters
    ----------
    oracle : SmoothOracle
        Smooth part (convex, third derivative Lipschitz).
    composite : ZeroComposite
        The composite term psi; zero is the only one.
    x0 : array
        Starting point (finite).
    m0 : float
        Initial level estimate (finite, positive); every trial level is kept
        >= 2 m0.
    epsilon : float
        Target gradient norm (finite, positive).
    max_outer, max_inner : int
        Iteration caps, integers >= 1; hitting either aborts the run with
        ``converged=False``.
    trace_sink : callable, optional
        Receives one dict per inner iteration and per outer trial, tagged
        with ``kind``.

    Returns
    -------
    (x, report, rows) : (ndarray, RunReport, list of dict)
        Final iterate, run counters, and the outer trial rows, one per inner
        run (a level attempt, or an accelerated step's companion): the
        README's outer trace lines without ``kind`` and ``epsilon``.  Only
        evaluated trials carry their point (read-only) as ``x_trial``; the
        others have ``f_trial = grad_norm_trial = None``.
    """
    return level_search(_BasicStep, oracle, composite, x0, m0, epsilon,
                        max_outer, max_inner, trace_sink)


class _BasicStep:
    """Anchor at the iterate, accept on sufficient decrease.

    ``p`` is the oracle point of the iterate.
    """

    def __init__(self, oracle, x0):
        self.oracle = oracle
        self.p = as_point(x0)

    def center(self, m_level):
        return self.p, {}

    def accept(self, p, m_level):
        oracle = self.oracle
        return accept_test_basic(value_at(oracle, self.p), value_at(oracle, p),
                                 float(np.linalg.norm(grad_at(oracle, p))),
                                 m_level)

    def update(self, p):
        return {}


def _doubling_message(t, m_first, m_last, stop_reason, last, f_x, eps):
    msg = ("level doubling did not terminate at outer step t=%d: levels "
           "M = %.3e .. %.3e, last stop reason %s; "
           % (t, m_first, m_last, stop_reason))
    if last is None:
        return msg + "no trial was evaluated"
    f_trial = last["f_trial"]
    msg += ("last evaluated trial has gradient norm %.3e > epsilon %.3e"
            % (last["grad_norm_trial"], eps))
    if f_x is None or f_trial is None:
        return msg + " (its decrease was not evaluated)"
    return msg + " and decrease f_x - f_trial = %.3e" % (f_x - f_trial)


def level_search(make_step, oracle, composite, x0, m0, epsilon, max_outer,
                 max_inner, trace_sink):
    """The adaptive level rule shared by the basic and accelerated methods.

    Each outer step t runs the inner solver at levels 2^i M_t, doubling
    while the solver certifies slow progress or the trial is rejected, and
    sets M_{t+1} to half the accepted level.  M_0 = m0 and every accepted
    level is >= 2 m0, so each M_t is m0 2^k (k >= 0) exactly in floating
    point, and the first index i, the smallest that keeps the trial level
    >= 2 m0, is 1 when M_t = m0 and 0 otherwise.  A trial whose gradient
    norm is <= epsilon ends the run, and so does an accepted step whose next
    iterate has one.  Arguments and return value are those of
    ``run_basic``.  Before any oracle call, a ``composite`` other than a
    ``ZeroComposite`` raises TypeError, and a non-finite ``x0``, a
    non-finite or nonpositive ``m0`` or ``epsilon``, or a ``max_outer`` or
    ``max_inner`` that is not an integer >= 1 raises ValueError naming it;
    nothing below these checks refers to psi.  An ``OracleError`` raised
    during outer step t at level index i is re-raised with t and i added to
    its message, and an ``ArithmeticError`` as ``LevelSearchError`` naming
    t, i and the level M.  A step whose 201 levels all fail raises
    ``LevelSearchError``, and so does one whose evaluated trial repeats the
    previous evaluated trial's point bit for bit with a decrease
    f_x - f_trial of exactly 0 (a method that does not evaluate rejected
    trials never meets this test).

    ``make_step(oracle, x0)`` builds the method's part of the loop.  Points
    travel as oracle ``Point``s, whose f and grad f everyone reads through
    ``value_at`` and ``grad_at``, so each is evaluated at most once.  The
    step object has

    * ``p``: the point of the iterate x_t, at first x0; only this loop
      assigns it;
    * ``center(m_level) -> (point, row fields)``, the model's anchor point;
    * ``accept(p, m_level) -> accepted``, where ``p`` is the trial's point;
    * ``update(p) -> row fields``, called on the acceptance of the trial
      ``p`` when it does not end the run; the fields join the trial's row.

    The loop keeps one anchor, re-levelled while the center repeats its x
    bit for bit.  An accepted trial whose center is not ``p`` and that does
    not end the run is followed by a companion: the basic step from ``p`` at
    the same level, one more inner run counted in BGM_E and BGM_IT, whose
    row (the trial's fields and ``companion`` true) precedes the trial's.
    The companion's point becomes the iterate when that run ended on
    EpsilonSmall or ModelStationarity with f below the trial's (the row's
    ``accepted``), and the trial otherwise.
    """
    t_start = time.perf_counter()
    calls_start = oracle.calls.thread_total()

    if not isinstance(composite, ZeroComposite):
        raise TypeError("composite must be ZeroComposite (the only composite "
                        "term), got %s" % type(composite).__name__)
    x0 = np.asarray(x0, dtype=float).copy()
    bad = ~np.isfinite(x0)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError("x0 must be finite, got x0[%d] = %g" % (i, x0.flat[i]))
    eps = float(epsilon)
    if not 0.0 < eps < math.inf:
        raise ValueError("epsilon must be finite and positive, got %r" % eps)
    m0 = float(m0)
    if not 0.0 < m0 < math.inf:
        raise ValueError("m0 must be finite and positive, got %r" % m0)
    check_cap("max_outer", max_outer)
    check_cap("max_inner", max_inner)

    step = make_step(oracle, x0)
    m_t = m0
    it = 0
    bgm_e = 0
    bgm_it = 0
    rows = []
    converged = aborted = False

    def emit(row):
        rows.append(row)
        if trace_sink is not None:
            trace_sink(dict(row, kind="outer"))

    anchor = None  # the one anchor, re-levelled while its x repeats

    def run_trial(center, m_level, t, i, fields):
        """One inner run anchored at the point ``center`` at level
        ``m_level``, counted and traced, and its row; with the trial's point,
        holding its gradient, unless the run ended on SlowConvergence or
        IterationCap (then None)."""
        nonlocal anchor, bgm_e, bgm_it
        if anchor is None or not np.array_equal(center.x, anchor.x):
            anchor = ModelAnchor.from_oracle(oracle, center, m_level)
        anchor = anchor.with_m(m_level)
        inner_trace = None
        if trace_sink is not None:
            inner_trace = lambda r: trace_sink(dict(r, kind="inner", t=t, i=i))
        res = run_inner(anchor, oracle, eps, max_inner, inner_trace)
        bgm_e += 1
        bgm_it += res.iterations
        row = {"t": t, "i": i, "M_level": anchor.M,
               "inner_iters": res.iterations, **fields, "f_trial": None,
               "grad_norm_trial": None, "accepted": False,
               "stop_reason": res.stop_reason.value}
        if res.stop_reason in (StopReason.SLOW_CONVERGENCE,
                               StopReason.ITERATION_CAP):
            return row, None
        # One point for the trial's gradient and value, and for the next
        # anchor if the trial becomes the iterate.
        p = as_point(res.x_plus)
        row.update(grad_norm_trial=float(np.linalg.norm(grad_at(oracle, p))),
                   x_trial=p.x)
        return row, p

    try:
        for t in range(max_outer):
            i = 0 if m_t >= 2.0 * m0 else 1
            m_first = m_t * 2.0**i
            last = None  # the row of the last evaluated trial
            accepted = False
            for _ in range(_MAX_LEVEL_DOUBLINGS + 1):
                m_level = m_t * 2.0**i
                center, fields = step.center(m_level)
                row, p_plus = run_trial(center, m_level, t, i, fields)

                aborted = row["stop_reason"] == StopReason.ITERATION_CAP.value
                if aborted:
                    logger.warning(
                        "inner iteration cap %d hit at outer t=%d level %g; "
                        "aborting run", max_inner, t, m_level,
                    )
                    emit(row)
                    break
                if p_plus is None:
                    # Level certified too small; never evaluate this trial.
                    emit(row)
                    i += 1
                    continue

                converged = row["grad_norm_trial"] <= eps
                accepted = converged or step.accept(p_plus, m_level)
                if accepted:
                    it += 1
                    f_trial = value_at(oracle, p_plus)
                    p_next = p_plus
                    if not converged:
                        m_t = m_level / 2.0
                        row.update(step.update(p_plus))
                        # A trial anchored away from x_t is followed by the
                        # basic companion step from x_t; the lower f wins.
                        if center is not step.p:
                            c_row, p_c = run_trial(step.p, m_level, t, i, {
                                **fields, "companion": True})
                            if p_c is not None:
                                f_c = value_at(oracle, p_c)
                                c_row.update(f_trial=f_c,
                                             accepted=f_c < f_trial)
                                if c_row["accepted"]:
                                    p_next = p_c
                            emit(c_row)
                        converged = float(np.linalg.norm(
                            grad_at(oracle, p_next))) <= eps
                    step.p = p_next
                row.update(f_trial=p_plus.data.get("value"), accepted=accepted)
                emit(row)
                if accepted:
                    break
                repeated = (row["f_trial"] is not None
                            and row["f_trial"] == step.p.data.get("value")
                            and last is not None
                            and np.array_equal(p_plus.x, last["x_trial"]))
                last = row
                if repeated:
                    # Doubling the level moved neither the trial nor f, so
                    # the doublings left would only repeat it.
                    break
                i += 1
            if not (accepted or aborted):
                raise LevelSearchError(_doubling_message(
                    t, m_first, m_level, row["stop_reason"], last,
                    step.p.data.get("value"), eps))
            if converged or aborted:
                break
        else:
            logger.warning("outer iteration cap %d hit at epsilon %g",
                           max_outer, eps)
    except OracleError as exc:
        raise OracleError("outer step t=%d, level index i=%d: %s"
                          % (t, i, exc)) from exc
    except ArithmeticError as exc:
        raise LevelSearchError(
            "outer step t=%d, level index i=%d, level M = %.3e: %s: %s"
            % (t, i, m_level, type(exc).__name__, exc)) from exc

    final_f = value_at(oracle, step.p)
    final_gnorm = float(np.linalg.norm(grad_at(oracle, step.p)))
    report = RunReport(
        epsilon=eps,
        IT=it,
        CO=oracle.calls.thread_total() - calls_start,
        BGM_E=bgm_e,
        BGM_IT=bgm_it,
        final_grad_norm=final_gnorm,
        final_f=final_f,
        wall_time_s=time.perf_counter() - t_start,
        converged=converged,
    )
    return np.array(step.p.x), report, rows

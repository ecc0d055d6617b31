"""Adaptive outer loop: accept third-order trial steps, adapt the level M.

Each outer iteration freezes an anchor at the current iterate, runs the
Bregman-gradient inner solver at geometrically increasing levels 2^i M_t
until the slow-convergence flag clears and the trial point passes a
sufficient-decrease test, then halves the level estimate for the next
iteration.  The level therefore tracks the (unknown) third-derivative
Lipschitz constant from below without ever being told it.

``level_search`` is that level rule; the accelerated method runs it too,
with its own anchor center, measure of decrease and update.
"""

from __future__ import annotations

import logging
import math
import time

import numpy as np

from .inner import MAX_INNER, StopReason, run_inner
from .model import ModelAnchor
from .oracles import (SolveError, ZeroComposite, _check_vector, as_point,
                      check_cap, check_finite, check_positive, grad_norm_at,
                      value_at, with_context)
from .reports import RunReport

logger = logging.getLogger(__name__)

# A level loop that doubles this many times without resolution indicates an
# oracle violating the convexity/smoothness contract.
_MAX_LEVEL_DOUBLINGS = 200
# Default cap on the outer steps of one run.
MAX_OUTER = 100000


class LevelSearchError(SolveError):
    """Level doubling at one outer step did not reach an accepted trial, or
    stalled on a trial that a higher level repeated bit for bit with zero
    decrease, or the step's arithmetic failed (see ``level_search``).

    A doubling failure's message names the outer step t, the first and last
    level M tried, the last inner stop reason and, for the last trial that
    was evaluated, its gradient norm against epsilon and its decrease
    f_x - f_trial (when the method knows both values).
    """


def decrease_rhs(grad_norm_trial, m_level):
    """||grad(trial)||^(4/3) / (6 M^(1/3)), the acceptance bound."""
    return grad_norm_trial ** (4.0 / 3.0) / (6.0 * m_level ** (1.0 / 3.0))


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
        Starting point (finite, of shape (oracle.n,)).
    m0 : float
        Initial level estimate (finite, positive); every trial level is kept
        >= 2 m0.
    epsilon : float
        Target gradient norm (finite, positive).
    max_outer, max_inner : int
        Iteration caps, integers >= 1.  Hitting max_outer, or max_inner in a
        trial's inner run (not a companion's), ends it: ``converged=False``.
    trace_sink : callable, optional
        Receives every line of the README's trace schema: one dict per inner
        iteration and per outer trial, tagged with ``kind`` and ``epsilon``.

    Returns
    -------
    (x, report, rows) : (ndarray, RunReport, list of dict)
        Final iterate, run counters, and the outer trace lines, one per
        inner run (a level attempt, or an accelerated step's companion): the
        very dicts ``trace_sink`` receives with ``kind`` ``"outer"``.  Only
        evaluated trials carry their point (read-only) as ``x_trial``; the
        others have ``f_trial = grad_norm_trial = None``.
    """
    return level_search(_BasicStep, oracle, composite, x0, m0, epsilon,
                        max_outer, max_inner, trace_sink)


class _BasicStep:
    """Anchor at the iterate; the decrease is f(x_t) - f(trial)."""

    def __init__(self, oracle, x0):
        self.oracle = oracle

    def center(self, x_t, m_level):
        return x_t, {}

    def decrease(self, center, p):
        return value_at(self.oracle, center) - value_at(self.oracle, p)

    def update(self, p, fields):
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


def iterate_rows(rows):
    """The row of each point that became an iterate x_{t+1}, in step order:
    the first accepted row of each outer step t (an accel companion that won
    is written just before its trial's row)."""
    first = {}
    for row in rows:
        if row["accepted"]:
            first.setdefault(row["t"], row)
    return list(first.values())


def level_search(make_step, oracle, composite, x0, m0, epsilon, max_outer,
                 max_inner, trace_sink):
    """The adaptive level rule shared by the basic and accelerated methods.

    Each outer step t runs the inner solver at levels 2^i M_t, doubling
    while the solver certifies slow progress or the trial is rejected, and
    sets M_{t+1} to half the accepted level.  A trial at level M is accepted
    when the step's ``decrease`` to it is >= ``decrease_rhs`` of its
    gradient norm and M.  M_0 = m0 and every accepted level is >= 2 m0, so
    each M_t is m0 2^k (k >= 0) exactly in floating point, and the first
    index i, the smallest that keeps the trial level >= 2 m0, is 1 when
    M_t = m0 and 0 otherwise.  A trial whose gradient norm is <= epsilon
    ends the run, and so does an accepted step whose next iterate has one.
    Arguments and return value are those of ``run_basic``.  Before any
    oracle call, a ``composite`` other than a ``ZeroComposite`` raises
    TypeError, and a wrong-shape or non-finite ``x0``, a non-finite or
    nonpositive ``m0`` or ``epsilon``, or a ``max_outer`` or ``max_inner``
    that is not an integer >= 1 raises ValueError naming it; nothing below
    these checks refers to psi.  A ``SolveError`` raised during outer step t
    at level index i is re-raised by ``with_context`` with t, i and the
    level M before its message, and an ``ArithmeticError`` as
    ``LevelSearchError`` naming the same; a level 2^i M_t that overflows to
    infinity raises one naming m0 before its inner run.  A step whose 201
    levels all fail raises ``LevelSearchError`` without that prefix, and so
    does one whose evaluated trial repeats the previous evaluated trial's
    point bit for bit with a decrease f_x - f_trial of exactly 0 (a method
    that does not evaluate rejected trials never meets this test).

    Each inner run's outer line is built once; ``emit`` keeps the outer
    lines as the rows and hands every line, unchanged, to ``trace_sink``.
    The report's IT (the steps with an accepted line, ``iterate_rows``),
    BGM_E (the lines) and BGM_IT (their ``inner_iters``) are read off the
    rows, and the repeat test and the doubling message read the last
    evaluated line.

    ``make_step(oracle, x0)`` builds the method's part of the loop, which
    keeps no iterate: this loop owns x_t, each level's center and fields,
    and the lines.  Points travel as oracle ``Point``s, which keep all that
    is known at them (see ``oracles``), so each f, grad f and anchor Hessian
    is evaluated at most once.  The step object has

    * ``center(x_t, m_level) -> (point, row fields)``, the model's anchor
      point at the iterate's point ``x_t``;
    * ``decrease(center, p) -> float``, its progress to the trial's ``p``;
    * ``update(p, fields) -> row fields``, called with ``center``'s fields on
      the acceptance of the trial ``p`` when it does not end the run; the
      returned fields join the trial's row.

    An accepted trial whose center is not x_t and that does not end the run
    is followed by a companion: the basic step from x_t at the same level,
    one more inner run whose line (the trial's fields and ``companion``
    true) precedes the trial's.  The companion's point becomes the iterate
    when that run ended on EpsilonSmall or ModelStationarity with f below
    the trial's (the row's ``accepted``), and the trial otherwise.
    """
    t_start = time.perf_counter()
    calls_start = oracle.calls.thread_total()

    if not isinstance(composite, ZeroComposite):
        raise TypeError("composite must be ZeroComposite (the only composite "
                        "term), got %s" % type(composite).__name__)
    x0 = np.asarray(x0, dtype=float).copy()
    _check_vector("x0", x0, oracle.n)
    check_finite("x0", x0)
    eps = check_positive("epsilon", epsilon)
    m0 = check_positive("m0", m0)
    check_cap("max_outer", max_outer)
    check_cap("max_inner", max_inner)

    step = make_step(oracle, x0)
    x_t = as_point(x0)
    m_t = m0
    rows = []
    converged = aborted = False

    def emit(line):
        if line["kind"] == "outer":
            rows.append(line)
        if trace_sink is not None:
            trace_sink(line)

    def run_trial(center, m_level, t, i, fields):
        """One inner run anchored at the point ``center`` at level
        ``m_level``, its inner lines emitted, and its outer line; with the
        trial's point, holding its gradient, unless the run ended on
        SlowConvergence or IterationCap (then None)."""
        anchor = ModelAnchor.from_oracle(oracle, center, m_level)
        inner_trace = None if trace_sink is None else (
            lambda r: emit(dict(r, kind="inner", t=t, i=i, epsilon=eps)))
        res = run_inner(anchor, oracle, eps, max_inner, inner_trace)
        row = {"kind": "outer", "t": t, "i": i, "M_level": anchor.M,
               "inner_iters": res.iterations, **fields, "f_trial": None,
               "grad_norm_trial": None, "accepted": False,
               "stop_reason": res.stop_reason.value, "epsilon": eps}
        if res.stop_reason in (StopReason.SLOW_CONVERGENCE,
                               StopReason.ITERATION_CAP):
            return row, None
        # One point for the trial's gradient and value, and for the next
        # anchor if the trial becomes the iterate.
        p = as_point(res.x_plus)
        row.update(grad_norm_trial=grad_norm_at(oracle, p), x_trial=p.x)
        return row, p

    try:
        for t in range(max_outer):
            i0 = 0 if m_t >= 2.0 * m0 else 1
            last = None  # the line of the last evaluated trial
            accepted = False
            for i in range(i0, i0 + _MAX_LEVEL_DOUBLINGS + 1):
                m_level = m_t * 2.0**i
                if m_level == math.inf:
                    raise OverflowError("the level overflowed float range "
                                        "(m0 = %.3e)" % m0)
                center, fields = step.center(x_t, m_level)
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
                    continue

                converged = row["grad_norm_trial"] <= eps
                accepted = converged or step.decrease(center, p_plus) >= (
                    decrease_rhs(row["grad_norm_trial"], m_level))
                if accepted:
                    f_trial = value_at(oracle, p_plus)
                    p_next = p_plus
                    if not converged:
                        m_t = m_level / 2.0
                        row.update(step.update(p_plus, fields))
                        # A trial anchored away from x_t is followed by the
                        # basic companion step from x_t; the lower f wins.
                        if center is not x_t:
                            c_row, p_c = run_trial(x_t, m_level, t, i, {
                                **fields, "companion": True})
                            if p_c is not None:
                                f_c = value_at(oracle, p_c)
                                c_row.update(f_trial=f_c,
                                             accepted=f_c < f_trial)
                                if c_row["accepted"]:
                                    p_next = p_c
                            emit(c_row)
                        converged = grad_norm_at(oracle, p_next) <= eps
                    x_t = p_next
                row.update(f_trial=p_plus.data.get("value"), accepted=accepted)
                emit(row)
                if accepted:
                    break
                repeated = (row["f_trial"] is not None
                            and row["f_trial"] == x_t.data.get("value")
                            and last is not None and np.array_equal(
                                row["x_trial"], last["x_trial"]))
                last = row
                if repeated:
                    # Doubling the level moved neither the trial nor f, so
                    # the doublings left would only repeat it.
                    break
            if converged or not accepted:  # ended, aborted or failed
                break
        else:
            logger.warning("outer iteration cap %d hit at epsilon %g",
                           max_outer, eps)
    except (SolveError, ArithmeticError) as exc:
        where = ("outer step t=%d, level index i=%d, level M = %.3e"
                 % (t, i, m_level))
        if isinstance(exc, ArithmeticError):
            raise LevelSearchError("%s: %s: %s" % (
                where, type(exc).__name__, exc)) from exc
        raise with_context(exc, where)
    if not (accepted or aborted):
        raise LevelSearchError(_doubling_message(
            t, m_t * 2.0**i0, m_level, row["stop_reason"], last,
            x_t.data.get("value"), eps))

    final_f = value_at(oracle, x_t)
    final_grad_norm = grad_norm_at(oracle, x_t)
    report = RunReport(
        epsilon=eps,
        IT=len(iterate_rows(rows)),
        CO=oracle.calls.thread_total() - calls_start,
        BGM_E=len(rows),
        BGM_IT=sum(r["inner_iters"] for r in rows),
        final_grad_norm=final_grad_norm,
        final_f=final_f,
        wall_time_s=time.perf_counter() - t_start,
        converged=converged,
    )
    return np.array(x_t.x), report, rows

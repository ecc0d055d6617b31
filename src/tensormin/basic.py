"""Adaptive outer loop: accept third-order trial steps, adapt the level M.

Each outer iteration freezes an anchor at the current iterate, runs the
Bregman-gradient inner solver at geometrically increasing levels 2^i M_t
until the slow-convergence flag clears and the trial point passes a
sufficient-decrease test, then halves the level estimate for the next
iteration.  The level therefore tracks the (unknown) third-derivative
Lipschitz constant from below without ever being told it.

``level_search`` is that level rule; the accelerated method runs it too,
with its own anchor, acceptance test and update.
"""

from __future__ import annotations

import logging
import math
import time

import numpy as np

from .inner import StopReason, run_inner
from .model import ModelAnchor
from .oracles import OracleError, ZeroComposite, as_point
from .reports import RunReport

logger = logging.getLogger(__name__)

# A level loop that doubles this many times without resolution indicates an
# oracle violating the convexity/smoothness contract.
_MAX_LEVEL_DOUBLINGS = 200


class LevelSearchError(RuntimeError):
    """Level doubling at one outer step did not reach an accepted trial, or
    stalled on a trial that a higher level repeated bit for bit with zero
    decrease.

    The message names the outer step t, the first and last level M tried,
    the last inner stop reason and, for the last trial that was evaluated,
    its gradient norm against epsilon and its decrease f_x - f_trial (when
    the method knows both values).
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
    max_outer=100000,
    max_inner=10000,
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
        Iteration caps; hitting either aborts the run with ``converged=False``.
    trace_sink : callable, optional
        Receives one dict per inner iteration and per outer trial, tagged
        with ``kind``.

    Returns
    -------
    (x, report, rows) : (ndarray, RunReport, list of dict)
        Final iterate, run counters, and the outer trial rows: one dict per
        level attempt with the level, flag, inner iteration count, trial
        objective/gradient data, and whether the trial was accepted.
        Evaluated trials also carry the trial point itself (``x_trial``) so
        tests can recompute the acceptance inequality from scratch.
        Slow-convergence trials carry ``f_trial = grad_norm_trial = None``
        and no ``x_trial`` (the algorithm never evaluates them).
    """
    return level_search(_BasicStep, oracle, composite, x0, m0, epsilon,
                        max_outer, max_inner, trace_sink)


class _BasicStep:
    """Anchor at the iterate, accept on sufficient decrease.

    ``f`` and ``g`` are the objective and the gradient at the iterate, whose
    oracle point is ``p``; one anchor per outer step is built from ``p`` and
    ``g`` and re-levelled for each trial level; ``f`` serves the decrease
    test.  ``gnorm`` is the gradient norm at the start point only.
    """

    def __init__(self, oracle, x0):
        self.oracle = oracle
        self.p = as_point(x0)
        self.f = oracle.value(self.p)
        self.g = oracle.grad(self.p)
        self.gnorm = float(np.linalg.norm(self.g))
        self._anchor = None

    def anchor(self, m_level):
        if self._anchor is None:
            self._anchor = ModelAnchor.from_oracle(self.oracle, self.p,
                                                   m_level, g_x=self.g)
        return self._anchor.with_m(m_level), {}

    def accept(self, p_plus, g_plus, gnorm_plus, m_level):
        f_plus = self.oracle.value(p_plus)
        return accept_test_basic(self.f, f_plus, gnorm_plus, m_level), f_plus

    def update(self, p_plus, f_plus, g_plus, gnorm_plus):
        self.p, self.f, self.g = p_plus, f_plus, g_plus
        self._anchor = None
        return {}


def _doubling_message(t, m_first, m_last, stop_reason, trial, f_x, eps):
    msg = ("level doubling did not terminate at outer step t=%d: levels "
           "M = %.3e .. %.3e, last stop reason %s; "
           % (t, m_first, m_last, stop_reason))
    if trial is None:
        return msg + "no trial was evaluated"
    gnorm, f_trial, _ = trial
    msg += ("last evaluated trial has gradient norm %.3e > epsilon %.3e"
            % (gnorm, eps))
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
    norm is <= epsilon ends the run.  Arguments and return value are those
    of ``run_basic``.  Before any oracle call, a ``composite`` other than a
    ``ZeroComposite`` raises TypeError, and a non-finite ``x0`` or a
    non-finite or nonpositive ``m0`` or ``epsilon`` raises ValueError;
    nothing below these checks refers to psi.  An ``OracleError`` raised
    during outer step t at level index i is re-raised with t and i added to
    its message.  A step whose 201 levels all fail raises
    ``LevelSearchError``, and so does one whose evaluated trial repeats the
    previous evaluated trial's point bit for bit with a decrease
    f_x - f_trial of exactly 0 (a method that does not evaluate rejected
    trials never meets this test).

    ``make_step(oracle, x0)`` builds the method's part of the loop, an
    object with

    * ``f``, ``gnorm``: the objective and gradient norm at x0 if the method
      evaluated them there, else None;
    * ``anchor(m_level) -> (ModelAnchor, row fields)``;
    * ``accept(p_plus, g_plus, gnorm_plus, m_level) -> (accepted, f_plus)``,
      where ``p_plus`` is the trial's oracle point and ``f_plus`` is None
      when the test did not need the trial value;
    * ``update(p_plus, f_plus, g_plus, gnorm_plus)``, called on acceptance,
      returning the row fields it adds.
    """
    t_start = time.perf_counter()
    calls_start = oracle.calls.total()

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

    step = make_step(oracle, x0)
    final = (x0, step.f, step.gnorm)
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

    try:
        for t in range(max_outer):
            i = 0 if m_t >= 2.0 * m0 else 1
            m_first = m_t * 2.0**i
            # (gradient norm, value, point) of the last evaluated trial
            trial = None
            accepted = False
            for _ in range(_MAX_LEVEL_DOUBLINGS + 1):
                m_level = m_t * 2.0**i
                anchor, fields = step.anchor(m_level)
                inner_trace = None
                if trace_sink is not None:
                    inner_trace = lambda r, _t=t, _i=i: trace_sink(
                        dict(r, kind="inner", t=_t, i=_i)
                    )
                res = run_inner(anchor, oracle, eps, max_inner, inner_trace)
                bgm_e += 1
                bgm_it += res.iterations
                alpha = res.stop_reason is StopReason.SLOW_CONVERGENCE
                row = {"t": t, "i": i, "M_level": m_level, "alpha": alpha,
                       "inner_iters": res.iterations, **fields, "f_trial": None,
                       "grad_norm_trial": None, "accepted": False,
                       "stop_reason": res.stop_reason.value}

                aborted = res.stop_reason is StopReason.ITERATION_CAP
                if aborted:
                    logger.warning(
                        "inner iteration cap %d hit at outer t=%d level %g; "
                        "aborting run", max_inner, t, m_level,
                    )
                    emit(row)
                    break
                if alpha:
                    # Level certified too small; never evaluate this trial.
                    emit(row)
                    i += 1
                    continue

                # One point for the trial's gradient and value, and for the
                # next anchor if the trial is accepted.
                x_plus = res.x_plus
                p_plus = as_point(x_plus)
                g_plus = oracle.grad(p_plus)
                gnorm_plus = float(np.linalg.norm(g_plus))
                converged = gnorm_plus <= eps
                if converged:
                    accepted, f_plus = True, None
                else:
                    accepted, f_plus = step.accept(p_plus, g_plus, gnorm_plus,
                                                   m_level)
                if accepted:
                    it += 1
                    if f_plus is None:
                        f_plus = oracle.value(p_plus)
                    final = (x_plus, f_plus, gnorm_plus)
                    if not converged:
                        m_t = m_level / 2.0
                        row.update(step.update(p_plus, f_plus, g_plus,
                                               gnorm_plus))
                row.update(f_trial=f_plus, grad_norm_trial=gnorm_plus,
                           accepted=accepted, x_trial=np.array(x_plus))
                emit(row)
                if accepted:
                    break
                repeated = (f_plus is not None and step.f - f_plus == 0.0
                            and trial is not None
                            and np.array_equal(x_plus, trial[2]))
                trial = (gnorm_plus, f_plus, x_plus)
                if repeated:
                    # Doubling the level moved neither the trial nor f, so
                    # the doublings left would only repeat it.
                    break
                i += 1
            if not (accepted or aborted):
                raise LevelSearchError(_doubling_message(
                    t, m_first, m_level, res.stop_reason.value, trial, step.f,
                    eps))
            if converged or aborted:
                break
        else:
            logger.warning("outer iteration cap %d hit at epsilon %g",
                           max_outer, eps)
    except OracleError as exc:
        raise OracleError("outer step t=%d, level index i=%d: %s"
                          % (t, i, exc)) from exc

    x, final_f, final_gnorm = final
    if final_f is None:
        final_f = oracle.value(x)
        final_gnorm = float(np.linalg.norm(oracle.grad(x)))
    report = RunReport(
        epsilon=eps,
        IT=it,
        CO=oracle.calls.total() - calls_start,
        BGM_E=bgm_e,
        BGM_IT=bgm_it,
        BGM_A=bgm_it / bgm_e if bgm_e else 0.0,
        final_grad_norm=final_gnorm,
        final_f=final_f,
        wall_time_s=time.perf_counter() - t_start,
        converged=converged,
    )
    return x, report, rows

"""Accelerated outer loop: estimating sequence with a quartic prox term.

The accelerated method keeps, besides the iterate x_t, a dual center v_t that
minimizes an estimating function

    phi_t(x) = 1/4 ||x - x_0||^4 + <lin, x> + const,

built from the linearizations of accepted steps.  Trial anchors are mixtures
z = (1 - gamma) x_t + gamma v_t with gamma = a / (A + a), where the step
weight a solves  a^4 = 4^2 (A + a)^3 / (18^3 M)  at the current level M.
Acceptance asks the trial gradient to make a quantified angle with z - x_plus
rather than a raw decrease, which is what lets the method keep the t^{-4}
estimating-sequence rate.

The rate needs only A_t f(x_t) <= min phi_t, and the step that folds the
trial T(z) into phi keeps that bound for any x_{t+1} with
f(x_{t+1}) <= f(T(z)).  So after accepting T(z) at level M the method also
takes a basic companion step T(x_t) from the iterate at the same M (an anchor
at x_t, whose gradient is already held, and one more inner run under the
same epsilon and cap) and keeps as x_{t+1} whichever of the two has the
lower f; a companion that ends on SlowConvergence or IterationCap leaves the
trial in place.  phi still takes a, f(T(z)) and grad f(T(z)).  This is the
monotone variant of Monteiro and Svaiter's A-HPE framework (SIAM J. Optim.,
2013), as in Carmon, Hausler, Jambulapati, Jin and Sidford, "Optimal and
adaptive Monteiro-Svaiter acceleration" (NeurIPS 2022).  ``level_search``
owns the iterate and runs the companion; the step object holds phi.
"""

from __future__ import annotations

import math

import numpy as np

from .basic import MAX_OUTER, level_search
from .inner import MAX_INNER, run_inner  # noqa: F401  (run_inner: perfbench/spans.py rebinds it)
from .oracles import (SolveError, as_point, check_positive, grad_at, norm,
                       value_at)

_SCALE = 18.0**3  # 5832; the weight equation's fixed scaling
_MAX_NEWTON_STEPS = 200
_STEP_RTOL = 4.0 * np.finfo(float).eps
# Residual bound of the weight equation in gamma form, relative to k + A gamma^4.
_WEIGHT_TOL = 1e-12


class WeightEquationError(SolveError):
    """``solve_a`` found no root of the weight equation it can certify."""


def solve_a(a_prev_total, m_level):
    """Positive root a of  18^3 M a^4 = 16 (A + a)^3  for A = a_prev_total.

    With k = 16 / (18^3 M) and gamma = a / (A + a) the equation reads

        p(gamma) = A gamma^4 + k gamma - k = 0,      a = k / gamma^3,

    on (0, 1].  p is increasing and convex there, p(0) = -k < 0, and
    p >= 0 at gamma_0 = min(1, (k / A)^(1/4)), so the root is unique and
    Newton's method started at gamma_0 decreases monotonically to it.  It
    stops when p(gamma) <= 0 (rounding has reached the root) or the step is
    at most 4 eps gamma.  A = 0 gives gamma = 1 and a = k exactly.

    The root satisfies |p(gamma)| <= 1e-12 (k + A gamma^4) for M in
    [1e-300, 1e300], A <= 1e307 and A M <= 1e300.  Beyond that k may be 0 or
    infinite, gamma^4 may underflow or 4 A gamma^3 overflow; a non-finite A
    or residual bound, a k of 0 or inf, 200 Newton steps without convergence
    and a residual miss each raise ``WeightEquationError``.
    """
    A = float(a_prev_total)
    if A < 0.0:
        raise ValueError("accumulated weight A must be nonnegative")
    if not A < math.inf:
        raise WeightEquationError("weight-equation A = %g is not finite" % A)
    check_positive("M", m_level)
    k = 16.0 / (_SCALE * m_level)
    if not 0.0 < k < math.inf:
        raise WeightEquationError("weight-equation scale k = 16 / (18^3 M) "
                                  "is %g at M = %.17g" % (k, m_level))

    def p(g):
        return A * g**4 - k * (1.0 - g)

    g = 1.0 if A <= k else math.sqrt(math.sqrt(k)) / math.sqrt(math.sqrt(A))
    for _ in range(_MAX_NEWTON_STEPS):
        val = p(g)
        if val <= 0.0:
            break
        step = val / (4.0 * (A * g**3) + k)
        g -= step
        if step <= _STEP_RTOL * g:
            break
    else:
        raise WeightEquationError(
            "weight-equation Newton iteration did not converge in %d steps "
            "(A = %.17g, M = %.17g)" % (_MAX_NEWTON_STEPS, A, m_level))

    res, bound = abs(p(g)), _WEIGHT_TOL * (k + A * g**4)
    if not res <= bound < math.inf:  # an infinite bound certifies nothing
        raise WeightEquationError("weight-equation residual %.3e is not "
                                  "within the finite bound %.3e" % (res, bound))
    return k / g**3


def run_accel(
    oracle,
    composite,
    x0,
    m0,
    epsilon,
    max_outer=MAX_OUTER,
    max_inner=MAX_INNER,
    trace_sink=None,
):
    """Accelerated minimization of f + psi to gradient norm <= epsilon.

    Same contract as ``run_basic``; trial anchors are the mixtures z rather
    than the iterate, and every accepted step also updates the estimating
    sequence, whose weights and minimum the trial rows add (see the README's
    trace schema).
    """
    return level_search(_AccelStep, oracle, composite, x0, m0, epsilon,
                        max_outer, max_inner, trace_sink)


class _AccelStep:
    """The estimating sequence, all the accelerated step keeps:

        phi_t(x) = 1/4 ||x - x0||^4 + <lin, x> + const

    with total weight ``a_total`` = A_t.  phi_0 has A_0 = 0, lin = 0 and
    const = 0; each accepted trial adds a times f's linearization at it, with
    the weight a of its level.  The minimizer of phi_t is closed-form,

        v = x0 - lin / ||lin||^(2/3)      (v = x0 when lin = 0),

    so ||v - x0||^3 = ||lin||.  ``center`` anchors at the mixture
    z = (1 - gamma) x_t + gamma v, gamma = a / (A + a), with a from
    ``solve_a``: the iterate's own point, and with it its anchor data,
    while z equals x_t bit for bit, as at every level of the first step,
    where x = v = x0, and a point at z otherwise.  ``decrease`` measures
    <grad f(trial), z - trial>, and ``level_search`` follows each accepted
    trial whose center is z with the basic companion step from x_t, keeping
    the lower of the two.  The objective is evaluated only at evaluated
    companions and accepted trials, never at an anchor or a rejected trial.
    """

    def __init__(self, oracle, x0):
        self.oracle = oracle
        self.x0 = np.array(x0, dtype=float)
        self.v = self.x0
        self.lin = np.zeros_like(self.x0)
        self.const = 0.0
        self.a_total = 0.0

    def phi_star(self):
        """phi_t at its minimizer v:  1/4 ||v - x0||^4 + <lin, v> + const."""
        d = self.v - self.x0
        nsq = float(np.dot(d, d))
        return 0.25 * nsq * nsq + float(np.dot(self.lin, self.v)) + self.const

    def center(self, x_t, m_level):
        a = solve_a(self.a_total, m_level)
        gamma = a / (self.a_total + a)
        z = (1.0 - gamma) * x_t.x + gamma * self.v
        fields = {"a": a, "gamma": gamma, "a_total": self.a_total,
                  "v_dist": norm(self.v - self.x0), "phi_star": self.phi_star()}
        return (x_t if np.array_equal(z, x_t.x) else as_point(z)), fields

    def decrease(self, center, p):
        return float(np.dot(grad_at(self.oracle, p), center.x - p.x))

    def update(self, p, fields):
        # A_t f(x_t) <= phi*_t needs only f(x_{t+1}) <= f(T(z_t)), so phi
        # takes the trial whichever point is kept.
        a = fields["a"]
        g = grad_at(self.oracle, p)
        self.lin = self.lin + a * g
        self.const += a * (float(value_at(self.oracle, p))
                           - float(np.dot(g, p.x)))
        lin_norm = norm(self.lin)
        self.v = (self.x0 if lin_norm == 0.0
                  else self.x0 - self.lin / lin_norm ** (2.0 / 3.0))
        self.a_total += a
        return {"a_total_next": self.a_total, "phi_star_next": self.phi_star()}

"""Accelerated outer loop: estimating sequence with a quartic prox term.

The accelerated method keeps, besides the iterate x_t, a dual center v_t that
minimizes an estimating function

    phi_t(x) = 1/4 ||x - x_0||^4 + <lin_acc, x> + phi_const,

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
adaptive Monteiro-Svaiter acceleration" (NeurIPS 2022).  The step here only
names its center, z or the iterate itself; ``level_search`` runs the
companion whenever the accepted trial's center is not the iterate, so while
x_t = z (on the first step, x = v = x0) the trial is the basic step and no
companion runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .basic import MAX_OUTER, level_search
from .inner import MAX_INNER, run_inner  # noqa: F401  (run_inner: perfbench/spans.py rebinds it)
from .oracles import as_point, grad_at, value_at

_SCALE = 18.0**3  # 5832; the weight equation's fixed scaling
_MAX_NEWTON_STEPS = 200
_STEP_RTOL = 4.0 * np.finfo(float).eps
# Residual bound of the weight equation in gamma form, relative to k + A gamma^4.
_WEIGHT_TOL = 1e-12


def solve_a(a_prev_total, m_level):
    """Positive root a of  18^3 M a^4 = 16 (A + a)^3  for A = a_prev_total.

    With k = 16 / (18^3 M) and gamma = a / (A + a) the equation reads

        p(gamma) = A gamma^4 + k gamma - k = 0,      a = k / gamma^3,

    on (0, 1].  p is increasing and convex there, p(0) = -k < 0, and
    p >= 0 at gamma_0 = min(1, (k / A)^(1/4)), so the root is unique and
    Newton's method started at gamma_0 decreases monotonically to it.  It
    stops when p(gamma) <= 0 (rounding has reached the root) or the step is
    at most 4 eps gamma, and raises RuntimeError after 200 steps.  A = 0
    gives gamma = 1 and a = k exactly.  gamma_0 is formed from fourth roots
    of k and A separately, so no A or M in float range overflows.

    The root satisfies |p(gamma)| <= 1e-12 (k + A gamma^4); a miss raises
    RuntimeError.
    """
    A = float(a_prev_total)
    if A < 0.0:
        raise ValueError("accumulated weight A must be nonnegative")
    if m_level <= 0.0:
        raise ValueError("level M must be positive")
    k = 16.0 / (_SCALE * m_level)

    def p(g):
        return A * g**4 - k * (1.0 - g)

    g = 1.0 if A <= k else math.sqrt(math.sqrt(k)) / math.sqrt(math.sqrt(A))
    for _ in range(_MAX_NEWTON_STEPS):
        val = p(g)
        if val <= 0.0:
            break
        step = val / (4.0 * A * g**3 + k)
        g -= step
        if step <= _STEP_RTOL * g:
            break
    else:
        raise RuntimeError(
            "weight-equation Newton iteration did not converge in %d steps "
            "(A = %.17g, M = %.17g)" % (_MAX_NEWTON_STEPS, A, m_level))

    res = abs(p(g))
    if res > _WEIGHT_TOL * (k + A * g**4):
        raise RuntimeError("weight-equation residual %.3e exceeds tolerance" % res)
    return k / g**3


def mix_z(x_t, v_t, a_total, a_t):
    """Anchor mixture z = (1 - gamma) x_t + gamma v_t, gamma = a_t / (A + a_t)."""
    gamma = a_t / (a_total + a_t)
    return (1.0 - gamma) * np.asarray(x_t, dtype=float) + gamma * np.asarray(
        v_t, dtype=float
    )


def accept_test_accel(grad_trial, z, x_trial, m_level):
    """Accept when <grad(trial), z - trial> >= ||grad(trial)||^(4/3) / (6 M^(1/3))."""
    g = np.asarray(grad_trial, dtype=float)
    lhs = float(np.dot(g, np.asarray(z, dtype=float) - np.asarray(x_trial, dtype=float)))
    rhs = float(np.linalg.norm(g)) ** (4.0 / 3.0) / (6.0 * m_level ** (1.0 / 3.0))
    return lhs >= rhs


@dataclass
class AccelState:
    """Estimating-sequence state of the accelerated method.

    Invariants: ``a_total`` starts at 0 with ``v = x0``; after every update
    ``v = x0 - lin_acc / ||lin_acc||^(2/3)`` (so ``||v - x0||^3 = ||lin_acc||``)
    minimizes phi_t in closed form.
    """

    x0: np.ndarray
    v: np.ndarray
    lin_acc: np.ndarray
    phi_const: float
    a_total: float

    @classmethod
    def fresh(cls, x0):
        x0 = np.asarray(x0, dtype=float).copy()
        return cls(
            x0=x0,
            v=x0.copy(),
            lin_acc=np.zeros_like(x0),
            phi_const=0.0,
            a_total=0.0,
        )


def phi_min_value(state):
    """phi_t at its minimizer v_t:  1/4 ||v - x0||^4 + <lin_acc, v> + const."""
    d = state.v - state.x0
    nsq = float(np.dot(d, d))
    return 0.25 * nsq * nsq + float(np.dot(state.lin_acc, state.v)) + state.phi_const


def update_phi_and_v(state, a_t, grad_xnext, f_xnext, x_next):
    """Fold an accepted step into the estimating sequence.

    Adds a_t times the linearization of f at x_next to phi, which shifts the
    accumulated linear term and its constant; the new minimizer of
    1/4 ||x - x0||^4 + <lin, x> is closed-form:

        v = x0 - lin / ||lin||^(2/3)      (v = x0 when lin = 0).
    """
    grad_xnext = np.asarray(grad_xnext, dtype=float)
    x_next = np.asarray(x_next, dtype=float)
    lin = state.lin_acc + a_t * grad_xnext
    const = state.phi_const + a_t * (float(f_xnext) - float(np.dot(grad_xnext, x_next)))
    lin_norm = float(np.linalg.norm(lin))
    if lin_norm == 0.0:
        v = state.x0.copy()
    else:
        v = state.x0 - lin / lin_norm ** (2.0 / 3.0)
    return replace(
        state,
        v=v,
        lin_acc=lin,
        phi_const=const,
        a_total=state.a_total + a_t,
    )


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
    """Anchor at the mixture z(a), accept on the angle test, and fold every
    accepted trial into the estimating sequence.

    The center is the iterate's own point ``p`` while z equals x_t bit for
    bit, as at every level of the first step, where x = v = x0, and a point
    at z otherwise; ``level_search`` then follows each accepted trial with
    the basic companion step from x_t and keeps the lower of the two.  The
    objective is evaluated only at evaluated companions and accepted trials,
    never at an anchor or a rejected trial.
    """

    def __init__(self, oracle, x0):
        self.oracle = oracle
        self.p = as_point(x0)
        self.state = AccelState.fresh(x0)

    def center(self, m_level):
        state = self.state
        self._a = solve_a(state.a_total, m_level)
        z = mix_z(self.p.x, state.v, state.a_total, self._a)
        self._z = self.p if np.array_equal(z, self.p.x) else as_point(z)
        fields = {
            "a": self._a, "gamma": self._a / (state.a_total + self._a),
            "a_total": state.a_total,
            "v_dist": float(np.linalg.norm(state.v - state.x0)),
            "phi_star": phi_min_value(state),
        }
        return self._z, fields

    def accept(self, p, m_level):
        return accept_test_accel(grad_at(self.oracle, p), self._z.x, p.x,
                                 m_level)

    def update(self, p):
        # A_t f(x_t) <= phi*_t needs only f(x_{t+1}) <= f(T(z_t)), so phi
        # takes the trial whichever point is kept.
        self.state = update_phi_and_v(self.state, self._a,
                                      grad_at(self.oracle, p),
                                      value_at(self.oracle, p), p.x)
        return {"a_total_next": self.state.a_total,
                "phi_star_next": phi_min_value(self.state)}

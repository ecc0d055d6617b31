"""Bregman-gradient inner solver for the quartic-regularized third-order model.

Each outer iteration hands this module a frozen anchor and a level M.  The
inner solver approximately minimizes Omega(y) by repeated Bregman steps
relative to the scaling function rho,

    y_{k+1} = argmin_y  <grad Omega(y_k), y - y_k> + 3 beta_rho(y_k, y),

each of which is one n-dimensional linear solve with a scalar secular
equation on the step norm.  It exits when the model gradient is small
in absolute terms, small relative to the cube of the step from the anchor, or
provably decaying too slowly for the current level: the certificate that M is
too small and must be doubled.  The certificate is G^4 above the envelope
3^8 L^4 beta / (2 M (6/5)^k) after k steps, with L and beta read from the
anchor (``inner_constants``); each run takes the envelope's log at k = 0
(``certificate_log_bound``) once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import SecularSolveError, omega_grad, rho_grad
from .oracles import check_cap, check_positive, norm

# Residual bound of every secular solve, relative to 1 + ||c|| + ||T|| ||h||
# (||T|| bounded by the Gershgorin bound): the last term is the rounding
# error of evaluating the residual itself.
SECULAR_TOL = 1e-12

# Default cap on the Bregman steps of one inner run.
MAX_INNER = 10000

_EPS = np.finfo(float).eps
_SECULAR_MAXIT = 100
_LOG3 = math.log(3.0)
_LOG65 = math.log(1.2)  # decay factor 6/5 of the slow-convergence certificate


class StopReason(Enum):
    """Why an inner run ended."""

    EPSILON_SMALL = "EpsilonSmall"          # model gradient <= epsilon / 7
    MODEL_STATIONARITY = "ModelStationarity"  # <= (M / 6) ||y - x||^3
    SLOW_CONVERGENCE = "SlowConvergence"    # certificate: level M too small
    ITERATION_CAP = "IterationCap"          # max_inner hit (a trial's ends the run)


@dataclass
class InnerResult:
    """Outcome of one inner run.

    ``stop_reason`` SLOW_CONVERGENCE is the slow-convergence flag: the run
    certified the level M too small rather than producing a useful trial
    point.  ``model_grad_norm`` is the final model gradient norm
    G = ||grad Omega(x_plus) + r||, with r the last step's residual.
    """

    x_plus: np.ndarray
    iterations: int
    stop_reason: StopReason
    model_grad_norm: float


def secular_solve(factor, M, c):
    """Solve (T + (M / 2) ||h||^2 I) h = c for h, in the coordinates of Q.

    ``factor`` is the anchor's ``HessianFactor`` H = Q T Q^T, with
    T = tridiag(d, e) symmetric positive semidefinite, and c = Q^T c' for the
    right-hand side c' of (H + (M / 2) ||h'||^2 I) h' = c', whose solution is
    h' = Q h.  Q is never applied here: every operation is O(n) on T.  The
    solution is h = h(sigma) = (T + sigma I)^{-1} c, where
    sigma = (M / 2) ||h||^2 is the unique positive root of the secular
    equation

        phi(sigma) := 1 / ||h(sigma)||  -  sqrt(M / (2 sigma))  =  0.

    phi is increasing and concave (Moré and Sorensen, 1983), so Newton's
    method approaches the root from below, and from above it lands below the
    root.  Each evaluation is one ``factor.shifted_solve(sigma, c)``, which
    gives h and w = (T + sigma I)^{-1} h for the derivative
    phi'(sigma) = <h, w> / ||h||^3 + (1/2) sqrt(M / 2) sigma^(-3/2).
    A sigma at which the factorization breaks down lies left of the root.
    Newton starts from the root of the isotropic model T = lambda I, with
    lambda the Rayleigh quotient of c (from the bracket's upper end when
    that root overflows, as at extreme M), and stops when phi = 0 or a step
    moves sigma by at most 4 eps sigma.  A step that leaves the bracket

        (M / 2) (||c|| / (lambda_max + sigma_hi))^2  <=  sigma  <=  sigma_hi,
        sigma_hi = (M / 2) (2 ||c|| / M)^(2/3)

    (lambda_max bounded by the factor's Gershgorin bound) is replaced by
    bisection; the bracket's ends are checked, and widened if needed, only
    then.  The returned h satisfies

        || (T + (M / 2) ||h||^2 I) h - c ||
            <=  SECULAR_TOL * (1 + ||c|| + gershgorin ||h||),

    with the factor's Gershgorin bound >= ||T||, so the bound covers the
    rounding error of evaluating T h.  Q carries it over unchanged to h' and
    c'; a miss raises SecularSolveError.  Every c with ||c|| < 1e-300,
    c = 0 among them, returns h = 0 exactly, within that bound; T = 0 (zero
    Hessian) gives the closed form h = (2 / M)^(1/3) c / ||c||^(2/3).
    """
    check_positive("M", M)

    cnorm = norm(c)
    if cnorm < 1e-300:
        return np.zeros_like(c)

    half_m = 0.5 * M
    root_half_m = math.sqrt(half_m)

    def evaluate(sigma):
        """(h, ||h||, phi, phi', breakdown) at sigma > 0.

        A breakdown of the solve (T + sigma I is not numerically positive
        definite, which a singular T allows for tiny sigma) puts sigma left
        of the root; it is returned as phi = -inf with no h and the solve's
        unraised error.  A sigma that is not positive (a bisection that
        underflowed) or a NaN phi raises SecularSolveError.
        """
        if not sigma > 0.0:
            raise SecularSolveError("secular iterate sigma = %.17g is not "
                                    "positive at M = %.17g" % (sigma, M))
        hh, w, breakdown = factor.shifted_solve(sigma, c)
        if breakdown is not None:
            return None, 0.0, -math.inf, 1.0, breakdown
        hsq = float(np.dot(hh, hh))
        hn = math.sqrt(hsq)
        phi = 1.0 / hn - root_half_m / math.sqrt(sigma)
        if math.isnan(phi):
            raise SecularSolveError("secular function is NaN at sigma = "
                                    "%.17g, M = %.17g" % (sigma, M))
        dphi = (float(np.dot(hh, w)) / (hsq * hn)
                + 0.5 * root_half_m / (sigma * math.sqrt(sigma)))
        return hh, hn, phi, dphi, None

    def phi_at(sigma):
        return evaluate(sigma)[2]

    # ||h|| <= (2 ||c|| / M)^(1/3) always, with equality exactly when H = 0;
    # a slightly inflated cube root is therefore a guaranteed upper bracket.
    r_hi = (2.0 * cnorm / M) ** (1.0 / 3.0) * (1.0 + 1e-8)
    hi = half_m * r_hi * r_hi
    # From ||h|| (lambda_max + sigma) >= ||c|| at the root, a positive lower
    # bracket in closed form.
    r_lo = cnorm / (factor.gershgorin + hi) * (1.0 - 1e-8)
    lo = half_m * r_lo * r_lo
    lo_seen = hi_seen = False  # whether an evaluation has confirmed the end

    # The isotropic model lambda r + (M / 2) r^3 = ||c||, with lambda the
    # Rayleigh quotient of c, is exact when c is an eigenvector of T.  Its
    # root, in a cancellation-free form of Cardano's formula; lambda is read
    # from c / 2^e ~ c / ||c||, exact in binary, so c^T T c cannot overflow:
    c1norm, e = math.frexp(cnorm)
    c1 = np.ldexp(c, -e)
    lam = max(float(np.dot(c1, factor.tri(c1))) / (c1norm * c1norm), 0.0)
    p3 = lam / (3.0 * half_m)
    qh = 0.5 * cnorm / half_m
    u = (qh + math.sqrt(qh * qh + p3 * p3 * p3)) ** (1.0 / 3.0)
    v = p3 / u
    r0 = 2.0 * qh / (u * u + u * v + v * v)
    sigma = half_m * r0 * r0  # NaN when u overflows: u v = inf 0
    sigma = min(max(sigma, lo), hi) if math.isfinite(sigma) else hi

    for _ in range(_SECULAR_MAXIT):
        hh, hn, phi, dphi, breakdown = evaluate(sigma)
        if phi == 0.0:
            break
        if phi < 0.0:
            lo, lo_seen = sigma, True
        else:
            hi, hi_seen = sigma, True
        new = sigma - phi / dphi
        if not lo < new < hi:
            # Bisect, once any closed-form end that no evaluation confirmed
            # is checked: rounding could have put the root outside it.
            if not hi_seen:
                hi = _confirm_end(phi_at, hi, 4.0, 60, "upper", M)
                hi_seen = True
            if not lo_seen:
                lo = _confirm_end(phi_at, lo, 0.25, 1100, "lower", M)
                lo_seen = True
            new = math.sqrt(lo * hi) if lo > 0.0 else 0.5 * hi
        if abs(new - sigma) <= 4.0 * _EPS * sigma:
            break
        sigma = new
    else:
        raise SecularSolveError(
            "secular Newton iteration did not converge in %d steps at "
            "M = %.17g (bracket [%.17g, %.17g])" % (_SECULAR_MAXIT, M, lo, hi))
    if breakdown is not None:  # stopped at a breakdown: report it
        raise breakdown

    res = norm(factor.tri(hh) + half_m * hn * hn * hh - c)
    bound = SECULAR_TOL * (1.0 + cnorm + factor.gershgorin * hn)
    if res > bound:
        raise SecularSolveError(
            "secular residual %.3e exceeds %.3e at M = %.17g"
            % (res, bound, M))
    return hh


def _confirm_end(phi_at, end, factor, limit, which, M):
    """Move a bracket end outward by ``factor`` until phi has its sign there.

    phi must be >= 0 at the upper end and < 0 at the lower one (or the lower
    end 0), with at most 60 doublings of the upper end and 1100 halvings of
    the lower one.
    """
    upper = factor > 1.0
    for _ in range(limit + 1):
        if end == 0.0 or (phi_at(end) >= 0.0) == upper:
            return end
        end *= factor
    raise SecularSolveError("secular %s bracket expansion failed at M = %.17g"
                            % (which, M))


def bregman_step(anchor, gom, grho):
    """One Bregman-gradient step of the inner solver from y = x + Q h^.

    The step's optimality condition is

        grad rho(y_next) = grad rho(y) - (1/3) grad Omega(y) =: c',

    i.e. (H + (M / 2) ||h||^2 I) h = c', with h = y_next - x; that system is
    solved exactly by ``secular_solve`` in the coordinates of Q.  Points,
    gradients and residuals are all in those coordinates: h^ is Q^T (y - x),
    and the gradients are Q^T grad.  ``gom`` and ``grho`` are
    grad Omega(y) and grad rho(y).

    Returns ``(hh_next, r, grho_next)`` where hh_next = Q^T (y_next - x), r is
    the step's optimality residual
    -grad Omega(y) + 3 [grad rho(y) - grad rho(y_next)]  (for an exact step
    it vanishes up to the secular tolerance) and grho_next is
    grad rho(y_next), which starts the next step.
    """
    c = grho - gom / 3.0
    hh_next = secular_solve(anchor.factor, anchor.M, c)
    grho_next = rho_grad(anchor, hh_next)
    r = -gom + 3.0 * (grho - grho_next)
    return hh_next, r, grho_next


def inner_constants(anchor):
    """Smoothness and divergence constants used by the inner solver.

    With g = ||grad f at the anchor|| and trace(H) read from the anchor and
    its factor, and B = (96 g / M)^(2/3):

        L    = trace(H) + (3 M / 2) B
        beta = 1/2 trace(H) B + (M / 8) B^2

    L bounds the model's curvature relative to the scaling function on the
    relevant sublevel set; beta bounds the initial Bregman divergence to the
    model minimizer.  Both are what the slow-convergence certificate compares
    against.
    """
    bracket = (96.0 * anchor.grad_norm / anchor.M) ** (2.0 / 3.0)
    trace_h = anchor.factor.trace
    lips = trace_h + 1.5 * anchor.M * bracket
    beta = 0.5 * trace_h * bracket + anchor.M / 8.0 * bracket**2
    return lips, beta


def certificate_log_bound(anchor):
    """log(3^8 L^4 beta / (2 M)), with L and beta from ``inner_constants``;
    -inf when L or beta is not positive.  The slow-convergence envelope after
    k steps has log this bound - k log(6/5)."""
    lips, beta = inner_constants(anchor)
    if beta <= 0.0 or lips <= 0.0:
        return -math.inf
    return (8.0 * _LOG3 + 4.0 * math.log(lips) + math.log(beta)
            - math.log(2.0 * anchor.M))


def slow_decay_violated(G, log_env):
    """True when 4 log G exceeds ``log_env``, the log of the envelope
    3^8 L^4 beta / (2 M (6/5)^k).

    A model-gradient norm above this envelope after k completed steps
    certifies the level M is below the curvature the convergence guarantee
    needs, so the outer loop must double it.  Compared in log space: the
    envelope underflows/overflows for large k or extreme constants.
    """
    return G > 0.0 and 4.0 * math.log(G) > log_env


def run_inner(anchor, oracle, epsilon, max_inner=MAX_INNER, trace=None):
    """Minimize the regularized model at ``anchor`` to first-order tolerance.

    Runs Bregman-gradient steps from y_0 = anchor.x, in the coordinates of Q
    (see ``bregman_step``): each step applies Q twice, to query and map back
    the directional third derivative, and the trial point x_plus = x + Q h^
    is formed at the exit from the last query's displacement Q h^.  After
    every step the model gradient norm G = ||grad Omega(y) + r||, r the
    step's residual from ``bregman_step``, is tested (grad Omega(y) and the
    step's grad rho(y) then also start the next step):

    * G <= epsilon / 7                      -> EPSILON_SMALL exit,
    * G <= (M / 6) ||y - x||^3              -> MODEL_STATIONARITY exit,
    * G^4 above the geometric decay envelope -> SLOW_CONVERGENCE exit (the
      level-doubling certificate),
    * otherwise iterate, up to ``max_inner`` steps (ITERATION_CAP; a trial's
      cap ends the run, a companion's leaves the trial as the iterate).

    Every exit reports the last tested G; G and ||y - x|| are the same in
    the coordinates of Q.  The first step starts from the anchor's
    grad Omega(y_0) = g^ and grad rho(y_0) = 0.

    Parameters
    ----------
    anchor : ModelAnchor
        Frozen oracle data and level M.
    oracle : SmoothOracle
        Queried only for directional third derivatives, through the anchor's
        oracle point.
    epsilon : float
        Target gradient norm of the outer run (finite, positive).
    max_inner : int
        Iteration cap, an integer at least 1.
    trace : callable, optional
        Called with a dict per iteration: k, model gradient norm, step norm
        from the anchor, and the certificate envelope.

    Returns
    -------
    InnerResult
    """
    check_positive("epsilon", epsilon)
    check_cap("max_inner", max_inner)
    log_bound = certificate_log_bound(anchor)
    eps_exit = epsilon / 7.0
    gom, grho = anchor.g_hat, 0.0

    def result(iterations, reason, G):
        return InnerResult(anchor.x + h, iterations, reason, G)

    for k in range(max_inner):
        hh_next, r, grho = bregman_step(anchor, gom, grho)
        h = anchor.factor.q(hh_next)
        gom = omega_grad(anchor, oracle, hh_next, h)
        G = norm(gom + r)
        step_norm = norm(hh_next)
        log_env = log_bound - k * _LOG65

        if trace is not None:
            trace({"k": k, "model_grad_norm": G, "step_norm": step_norm,
                   "slow_rhs": (math.inf if log_env > 709.0
                                else math.exp(log_env))})

        if G <= eps_exit:
            return result(k + 1, StopReason.EPSILON_SMALL, G)
        if G <= anchor.M / 6.0 * step_norm**3:
            return result(k + 1, StopReason.MODEL_STATIONARITY, G)
        if slow_decay_violated(G, log_env):
            return result(k + 1, StopReason.SLOW_CONVERGENCE, G)

    return result(max_inner, StopReason.ITERATION_CAP, G)

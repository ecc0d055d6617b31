"""Bregman-gradient inner solver for the quartic-regularized third-order model.

Each outer iteration hands this module a frozen anchor and a level M.  The
inner solver approximately minimizes Omega(y) by repeated Bregman steps
relative to the scaling function rho,

    y_{k+1} = argmin_y  <grad Omega(y_k), y - y_k> + L_k beta_rho(y_k, y),

each of which is one n-dimensional linear solve with a scalar secular
equation on the step norm.  The paper fixes L_k = 3, the constant of
Omega's smoothness relative to rho at a safe level.  Here L_k <= 3 adapts
by backtracking on the relative-smoothness descent inequality (Bauschke,
Bolte & Teboulle, Math. Oper. Res. 2017; Lu, Freund & Nesterov, SIAM J.
Optim. 2018): a step tried at L_k < 3 is kept when

    Omega(y_{k+1}) <= Omega(y_k) + <grad Omega(y_k), y_{k+1} - y_k>
                      + L_k beta_rho(y_k, y_{k+1})                      (*)

(``descent_holds``), and is otherwise refused: y stays where it was and the
step is tried again at min(2 L_k, 3).  At L_k = 3 no check is made, so the
paper's step is always the fallback.  A run tries its first step at
0.7 * 3, and after a kept step tries max(0.7 L_k, 3/64).  The check costs
no oracle call: it reads the third-derivative vector that the tried point's
model gradient already queried.

The solver exits when the model gradient is small in absolute terms, small
relative to the cube of the step from the anchor, or provably decaying too
slowly for the current level: the certificate that M is too small and must
be doubled.  The certificate is G^4 above the envelope
3^8 L^4 beta / (2 M (6/5)^k) with k counting kept steps, L and beta read
from the anchor (``inner_constants``); each run takes the envelope's log at
k = 0 (``certificate_log_bound``) once.

Why the envelope still holds with kept steps counted.  At a safe level
Omega is 3-smooth and mu-convex relative to rho, with mu = 1/2 (the rate
1 - mu / 3 = 5/6 is the envelope's (6/5)^k), and the sublevel set
{Omega <= Omega(y_0)} lies in the ball ||h||^2 <= B of ``inner_constants``.
There L bounds ||hess rho||, and D_0 = rho(y* - x) <= beta.  The
argument below uses only these premises and L_k <= 3.
Let y* minimize Omega, Omega* = Omega(y*) and D_k = beta_rho(y_k, y*).

1. Kept steps contract.  The three-point property of the Bregman step, (*)
   and relative convexity give, for every u,

       Omega(y_{k+1}) <= Omega(u) + (L_k - mu) beta_rho(y_k, u)
                         - L_k beta_rho(y_{k+1}, u).

   At u = y_k, Omega(y_{k+1}) <= Omega(y_k) - L_k beta_rho(y_{k+1}, y_k):
   kept steps descend, so every kept iterate stays in the sublevel set.
   At u = y*, where Omega(y_{k+1}) >= Omega*,

       D_{k+1} <= (1 - mu / L_k) D_k <= (1 - mu / 3) D_k,
       Omega(y_{k+1}) - Omega* <= (L_k - mu) D_k <= 3 D_k,

   since mu <= L_k <= 3 ((*) and relative convexity give
   mu beta_rho(y_k, y_{k+1}) <= L_k beta_rho(y_k, y_{k+1})).  A refused
   try does not move y.  So after j kept steps D_j <= (5/6)^j beta, and the
   next kept step reaches Omega(y_{j+1}) - Omega* <= 3 (5/6)^j beta, the
   fixed-3 step's bound.

2. G is bounded by the gap at the point tested, not by the step that
   reached it.  The step length does depend on L_k: the step's optimality
   condition gives L_k ||grad rho(y_{k+1}) - grad rho(y_k)|| =
   ||grad Omega(y_k)||, so a step at 3/64 moves grad rho 64 times as far
   as one at 3, and ||grad Omega(y_{k+1}) - grad Omega(y_k)|| can grow as
   L_k falls.  A bound on G through y_{k+1} - y_k would therefore need a
   factor in 3 / L_k.  Instead, with y = y_{j+1}, take the step z
   that the constant 3 would make from y (only in this argument, never
   computed).  Its optimality condition is
   grad Omega(y) = 3 (grad rho(y) - grad rho(z)), and 3-smoothness with the
   three-point property at u = y gives
   Omega(z) <= Omega(y) - 3 beta_rho(z, y), so z lies in the sublevel set
   and beta_rho(z, y) <= (Omega(y) - Omega*) / 3.  rho's quartic part
   (M / 8) ||h||^4 is uniformly convex of degree 4 (Nesterov, Lectures on
   Convex Optimization, 2018, Lemma 4.2.3), so
   beta_rho(z, y) >= (M / 32) ||y - z||^4.  The sublevel set is convex, so
   ||grad rho(y) - grad rho(z)|| <= L ||y - z||.  Together,

       ||grad Omega(y_{j+1})||^4 <= 3^4 L^4 ||y - z||^4
                                <= 3^4 L^4 (32 / M) (Omega(y) - Omega*) / 3
                                <= 2592 L^4 beta / (M (6/5)^j),

   below the envelope 3^8 L^4 beta / (2 M (6/5)^j) = 3280.5 L^4 beta /
   (M (6/5)^j).  L_k enters only through step 1.

In exact arithmetic G = ||grad Omega(y_{k+1}) + r|| is
||grad Omega(y_{k+1})||, since the secular solve leaves r = 0 at any L_k.
So at a safe level the envelope, with k the kept steps before the tested
one, bounds G with its constant 3^8 and its decay of 6/5 per kept step
unchanged.  The certificate is unchanged too: G^4 above the envelope still
proves the level is not safe.  Refused tries do not advance k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import (SecularSolveError, bregman_div_hat, cubic_div_hat,
                    omega_grad, rho_grad)
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

# The step constant: at most the paper's 3, shrunk by 0.7 after a kept step
# down to 3/64, doubled after a refused one.
_L_MAX = 3.0
_L_MIN = 3.0 / 64.0
_L_SHRINK = 0.7


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
    G = ||grad Omega(x_plus) + r||, with r the last step's residual, and
    ``iterations`` counts the Bregman steps tried, refused ones included.
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
        underflowed), an h of norm 0 (phi's 1 / ||h|| is undefined) or a
        NaN phi raises SecularSolveError.
        """
        if not sigma > 0.0:
            raise SecularSolveError("secular iterate sigma = %.17g is not "
                                    "positive at M = %.17g" % (sigma, M))
        hh, w, breakdown = factor.shifted_solve(sigma, c)
        if breakdown is not None:
            return None, 0.0, -math.inf, 1.0, breakdown
        hsq = float(np.dot(hh, hh))
        hn = math.sqrt(hsq)
        if hn == 0.0:
            raise SecularSolveError("secular step norm ||h(sigma)|| is 0 at "
                                    "sigma = %.17g, M = %.17g" % (sigma, M))
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


def bregman_step(anchor, gom, grho, L):
    """One Bregman-gradient step of the inner solver from y = x + Q h^,
    with step constant L.

    The step minimizes <grad Omega(y), u - y> + L beta_rho(y, u); its
    optimality condition is

        grad rho(y_next) = grad rho(y) - (1/L) grad Omega(y) =: c',

    i.e. (H + (M / 2) ||h||^2 I) h = c', with h = y_next - x; that system is
    solved exactly by ``secular_solve`` in the coordinates of Q.  Points,
    gradients and residuals are all in those coordinates: h^ is Q^T (y - x),
    and the gradients are Q^T grad.  ``gom`` and ``grho`` are
    grad Omega(y) and grad rho(y).

    Returns ``(hh_next, r, grho_next)`` where hh_next = Q^T (y_next - x), r is
    the step's optimality residual
    -grad Omega(y) + L [grad rho(y) - grad rho(y_next)]  (for an exact step
    it vanishes up to the secular tolerance) and grho_next is
    grad rho(y_next), which starts the next step.
    """
    c = grho - gom / L
    hh_next = secular_solve(anchor.factor, anchor.M, c)
    grho_next = rho_grad(anchor, hh_next)
    r = -gom + L * (grho - grho_next)
    return hh_next, r, grho_next


def descent_holds(anchor, L, hh, s, hh_next, s_next):
    """The relative-smoothness descent inequality of a step from y to
    y_next tried at constant L,

        Omega(y_next) <= Omega(y) + <grad Omega(y), y_next - y>
                         + L beta_rho(y, y_next),

    from the points' coordinates h^ in Q and their third-derivative vectors
    s = Q^T D3f(x)[h]^2 (``omega_grad``).  Omega's divergence is
    beta_rho plus the cubic term's, so the test is
    ``cubic_div_hat`` <= (L - 1) ``bregman_div_hat``, with no oracle call.
    """
    return (cubic_div_hat(hh, s, hh_next, s_next)
            <= (L - 1.0) * bregman_div_hat(anchor, hh, hh_next))


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

    Tries Bregman steps from y_0 = anchor.x, in the coordinates of Q (see
    ``bregman_step``), each at the adaptive constant L_k of the module
    docstring: each try applies Q twice, to query and map back the
    directional third derivative, and the trial point x_plus = x + Q h^ is
    formed at the exit from the last query's displacement Q h^.  A try at
    L_k < 3 is kept when ``descent_holds``, one at L_k = 3 always; a refused
    try leaves y in place.  After every kept step the model gradient norm
    G = ||grad Omega(y) + r||, r the step's residual from ``bregman_step``,
    is tested (grad Omega(y), its third-derivative vector and the step's
    grad rho(y) then also start the next try):

    * G <= epsilon / 7                      -> EPSILON_SMALL exit,
    * G <= (M / 6) ||y - x||^3              -> MODEL_STATIONARITY exit,
    * G^4 above the geometric decay envelope -> SLOW_CONVERGENCE exit (the
      level-doubling certificate; its k counts the kept steps before),
    * otherwise iterate, up to ``max_inner`` tries (ITERATION_CAP; a trial's
      cap ends the run, a companion's leaves the trial as the iterate).

    Every try, refused or kept, is one inner iteration: one Bregman step,
    one secular solve and one ``omega_grad`` and ``rho_grad`` call each.
    Every exit reports the last tested G; G and ||y - x|| are the same in
    the coordinates of Q.  The cap returns the last try, kept or refused,
    and its G, so ``max_inner`` = 1 still returns a real displacement.  The
    first step starts from the anchor's grad Omega(y_0) = g^,
    grad rho(y_0) = 0 and third-derivative vector 0.

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
        Called with a dict per try: k, the tried point's model gradient
        norm and step norm from the anchor, the certificate envelope, the
        constant L tried and whether the try was kept.

    Returns
    -------
    InnerResult
    """
    check_positive("epsilon", epsilon)
    check_cap("max_inner", max_inner)
    log_bound = certificate_log_bound(anchor)
    eps_exit = epsilon / 7.0
    hh = s = np.zeros_like(anchor.g_hat)
    gom, grho = anchor.g_hat, 0.0
    L, kept_steps = _L_SHRINK * _L_MAX, 0

    def result(iterations, reason, G):
        return InnerResult(anchor.x + h, iterations, reason, G)

    for k in range(max_inner):
        hh_next, r, grho_next = bregman_step(anchor, gom, grho, L)
        h = anchor.factor.q(hh_next)
        gom_next, s_next = omega_grad(anchor, oracle, hh_next, h)
        ok = L >= _L_MAX or descent_holds(anchor, L, hh, s, hh_next, s_next)
        G = norm(gom_next + r)
        step_norm = norm(hh_next)
        log_env = log_bound - kept_steps * _LOG65

        if trace is not None:
            trace({"k": k, "model_grad_norm": G, "step_norm": step_norm,
                   "slow_rhs": (math.inf if log_env > 709.0
                                else math.exp(log_env)),
                   "L": L, "kept": ok})

        if not ok:
            L = min(2.0 * L, _L_MAX)
            continue
        if G <= eps_exit:
            return result(k + 1, StopReason.EPSILON_SMALL, G)
        if G <= anchor.M / 6.0 * step_norm**3:
            return result(k + 1, StopReason.MODEL_STATIONARITY, G)
        if slow_decay_violated(G, log_env):
            return result(k + 1, StopReason.SLOW_CONVERGENCE, G)
        hh, s, gom, grho = hh_next, s_next, gom_next, grho_next
        L, kept_steps = max(_L_SHRINK * L, _L_MIN), kept_steps + 1

    return result(max_inner, StopReason.ITERATION_CAP, G)

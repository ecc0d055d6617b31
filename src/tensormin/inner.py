"""Bregman-gradient inner solver for the quartic-regularized third-order model.

Each outer iteration hands this module a frozen anchor and a level M.  The
inner solver approximately minimizes Omega(y) (+ psi) by repeated Bregman
steps relative to the scaling function rho,

    y_{k+1} = argmin_y  <grad Omega(y_k), y - y_k> + 3 beta_rho(y_k, y) + psi(y),

which for psi = 0 reduces to one n-dimensional linear solve with a scalar
secular equation on the step norm.  It exits when the model gradient is small
in absolute terms, small relative to the cube of the step from the anchor, or
provably decaying too slowly for the current level (the certificate that M is
too small and must be doubled).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.optimize import brentq

from .model import inner_constants, omega_grad, rho_grad

_LOG3 = math.log(3.0)
_LOG65 = math.log(1.2)  # decay factor 6/5 of the slow-convergence certificate


class UnsupportedCompositeError(NotImplementedError):
    """The composite term's kind has no shipped Bregman-step solver."""


class StopReason(Enum):
    """Why an inner run ended."""

    EPSILON_SMALL = "EpsilonSmall"          # model gradient <= epsilon / 7
    MODEL_STATIONARITY = "ModelStationarity"  # <= (M / 6) ||y - x||^3
    SLOW_CONVERGENCE = "SlowConvergence"    # certificate: level M too small
    ITERATION_CAP = "IterationCap"          # max_inner exhausted (run abort)


@dataclass
class InnerConfig:
    """Tolerances and caps for one inner run."""

    epsilon: float
    max_inner: int = 10000
    secular_tol: float = 1e-12

    def __post_init__(self):
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        if self.max_inner < 1:
            raise ValueError("max_inner must be at least 1")
        if self.secular_tol <= 0.0:
            raise ValueError("secular_tol must be positive")


@dataclass
class InnerResult:
    """Outcome of one inner run.

    ``alpha`` is the slow-convergence flag: True means the run certified the
    level M too small rather than producing a useful trial point.  ``g_psi``
    is the composite subgradient at ``x_plus`` (exactly zero for the zero
    term).  ``model_grad_norm`` is the final composite model gradient norm
    G = ||grad Omega(x_plus) + g_psi||.
    """

    x_plus: np.ndarray
    g_psi: np.ndarray
    alpha: bool
    iterations: int
    stop_reason: StopReason
    model_grad_norm: float


def secular_solve(eigvals, eigvecs, M, c, tol=1e-12):
    """Solve (H + (M / 2) ||h||^2 I) h = c for h, given H = Q diag(lam) Q^T.

    In the eigenbasis the solution is h_i = c_i / (lam_i + (M / 2) r^2) where
    r = ||h|| is the unique nonnegative root of the scalar secular equation

        phi(r) := sum_i c_i^2 / (lam_i + (M / 2) r^2)^2  =  r^2.

    phi is strictly decreasing and r^2 strictly increasing, so the root is
    bracketed and found by a safeguarded scalar search, then polished by
    Newton steps.  The returned h satisfies

        || (H + (M / 2) ||h||^2 I) h - c ||  <=  tol * (1 + ||c||).

    c = 0 returns h = 0 exactly; lam = 0 (zero Hessian) has the closed form
    h = (2 / M)^(1/3) c / ||c||^(2/3), which the scalar search reproduces.
    """
    lam = np.asarray(eigvals, dtype=float)
    q = np.asarray(eigvecs, dtype=float)
    c = np.asarray(c, dtype=float)
    if M <= 0.0:
        raise ValueError("M must be positive")
    if lam.min() < 0.0:
        raise ValueError("eigenvalues must be nonnegative (clamp upstream)")

    ct = q.T @ c
    cnorm = float(np.linalg.norm(ct))
    if cnorm == 0.0 or cnorm < 1e-300:
        return np.zeros_like(c)

    half_m = 0.5 * M

    def phi(r):
        d = lam + half_m * r * r
        u = ct / d
        return float(np.dot(u, u))

    def psi(r):
        return phi(r) - r * r

    # ||h|| <= (2 ||c|| / M)^(1/3) always, with equality exactly when H = 0;
    # a slightly inflated cube root is therefore a guaranteed upper bracket.
    hi = (2.0 * cnorm / M) ** (1.0 / 3.0) * (1.0 + 1e-8)
    guard = 0
    while psi(hi) > 0.0:
        hi *= 2.0
        guard += 1
        if guard > 60:
            raise RuntimeError("secular upper bracket expansion failed")
    # From r (lam_max + (M / 2) r^2) >= ||c|| at the root, a positive lower
    # bracket in closed form:
    lo = cnorm / (lam.max() + half_m * hi * hi) * (1.0 - 1e-8)
    guard = 0
    while psi(lo) <= 0.0:
        lo *= 0.5
        guard += 1
        if guard > 1100:
            raise RuntimeError("secular lower bracket expansion failed")

    r = brentq(psi, lo, hi, xtol=max(hi * 1e-16, 5e-324), rtol=1e-15, maxiter=200)

    # Newton polish: drives |phi(r) - r^2| to rounding level, which keeps the
    # fixed-point mismatch (the only residual source) at machine scale.
    for _ in range(3):
        d = lam + half_m * r * r
        u = ct / d
        val = float(np.dot(u, u)) - r * r
        if val == 0.0:
            break
        dphi = -2.0 * M * r * float(np.dot(u * u, 1.0 / d))
        slope = dphi - 2.0 * r
        if slope == 0.0:
            break
        step = val / slope
        r_new = r - step
        if not (lo <= r_new <= hi):
            break
        r = r_new
        if abs(step) <= 1e-17 * r:
            break

    d = lam + half_m * r * r
    h = q @ (ct / d)

    res = float(np.linalg.norm((lam * (ct / d) + half_m * float(np.dot(h, h)) * (ct / d)) - ct))
    if res > tol * (1.0 + cnorm):
        raise RuntimeError(
            "secular residual %.3e exceeds %.3e" % (res, tol * (1.0 + cnorm))
        )
    return h


def bregman_step(anchor, oracle, composite, y, tol=1e-12, gom=None, grho=None):
    """One Bregman-gradient step of the inner solver from y.

    For the zero composite term the step's optimality condition collapses to

        grad rho(y_next) = grad rho(y) - (1/3) grad Omega(y) =: c',

    i.e. (H + (M / 2) ||h||^2 I) h = c' - grad rho terms folded in, with
    h = y_next - x; that system is solved exactly by ``secular_solve``.

    Returns ``(y_next, g_psi, grho_next)`` where g_psi is the composite
    subgradient certificate  -grad Omega(y) + 3 [grad rho(y) - grad rho(y_next)]
    (for an exact step with psi = 0 it vanishes up to the secular tolerance)
    and grho_next is grad rho(y_next), which starts the next step.  ``gom``
    and ``grho`` are grad Omega(y) and grad rho(y) when the caller already
    has them.
    """
    if composite.kind != "zero":
        raise UnsupportedCompositeError(
            "no Bregman-step solver for composite kind %r" % composite.kind
        )
    if gom is None:
        gom = omega_grad(anchor, oracle, y)
    if grho is None:
        grho = rho_grad(anchor, y)
    c = grho - gom / 3.0
    h = secular_solve(anchor.eigvals, anchor.eigvecs, anchor.M, c, tol)
    y_next = anchor.x + h
    grho_next = rho_grad(anchor, y_next)
    g_psi = -gom + 3.0 * (grho - grho_next)
    return y_next, g_psi, grho_next


def slow_decay_violated(G, lips, beta, M, k):
    """True when G^4 exceeds 3^8 L^4 beta / (2 M (6/5)^k).

    A model-gradient norm above this envelope after k completed steps
    certifies the level M is below the curvature the convergence guarantee
    needs, so the outer loop must double it.  Compared in log space: the
    envelope underflows/overflows for large k or extreme constants.
    """
    if G <= 0.0:
        return False
    if beta <= 0.0 or lips <= 0.0:
        return True
    log_rhs = (
        8.0 * _LOG3
        + 4.0 * math.log(lips)
        + math.log(beta)
        - math.log(2.0 * M)
        - k * _LOG65
    )
    return 4.0 * math.log(G) > log_rhs


def _slow_rhs(lips, beta, M, k):
    """The certificate envelope itself (for traces), clamped to float range."""
    if beta <= 0.0 or lips <= 0.0:
        return 0.0
    log_rhs = (
        8.0 * _LOG3
        + 4.0 * math.log(lips)
        + math.log(beta)
        - math.log(2.0 * M)
        - k * _LOG65
    )
    if log_rhs > 709.0:
        return math.inf
    return math.exp(log_rhs)


def run_inner(anchor, oracle, composite, cfg, grad_tilde_norm, trace=None):
    """Minimize the regularized model at ``anchor`` to first-order tolerance.

    Runs Bregman-gradient steps from y_0 = anchor.x.  After every step the
    composite model gradient norm G = ||grad Omega(y) + g_psi|| is tested
    (grad Omega(y) and the step's grad rho(y) then also start the next step):

    * G <= epsilon / 7                      -> EPSILON_SMALL exit,
    * G <= (M / 6) ||y - x||^3              -> MODEL_STATIONARITY exit,
    * G^4 above the geometric decay envelope -> SLOW_CONVERGENCE exit with
      alpha = True (the level-doubling certificate),
    * otherwise iterate, up to ``cfg.max_inner`` (ITERATION_CAP, run abort).

    Parameters
    ----------
    anchor : ModelAnchor
        Frozen oracle data and level M.
    oracle : SmoothOracle
        Queried only for directional third derivatives, through the anchor's
        oracle point.
    composite : CompositeTerm
        Only the zero kind ships.
    cfg : InnerConfig
        epsilon, iteration cap, and secular tolerance.
    grad_tilde_norm : float
        Composite gradient norm at the anchor (enters the certificate
        constants).
    trace : callable, optional
        Called with a dict per iteration: k, model gradient norm, step norm
        from the anchor, and the certificate envelope.

    Returns
    -------
    InnerResult
    """
    lips, beta = inner_constants(anchor, grad_tilde_norm)
    eps_exit = cfg.epsilon / 7.0
    y = anchor.x
    zero_psi = np.zeros_like(anchor.x)
    gom = grho = None

    for k in range(cfg.max_inner):
        y_next, g_psi, grho = bregman_step(anchor, oracle, composite, y,
                                           cfg.secular_tol, gom, grho)
        gom = omega_grad(anchor, oracle, y_next)
        grad_model = gom + g_psi
        G = float(np.linalg.norm(grad_model))
        step_norm = float(np.linalg.norm(y_next - anchor.x))

        if trace is not None:
            trace(
                {
                    "k": k,
                    "model_grad_norm": G,
                    "step_norm": step_norm,
                    "slow_rhs": _slow_rhs(lips, beta, anchor.M, k),
                }
            )

        if G <= eps_exit:
            return InnerResult(y_next, zero_psi, False, k + 1,
                               StopReason.EPSILON_SMALL, G)
        if G <= anchor.M / 6.0 * step_norm**3:
            return InnerResult(y_next, zero_psi, False, k + 1,
                               StopReason.MODEL_STATIONARITY, G)
        if slow_decay_violated(G, lips, beta, anchor.M, k):
            return InnerResult(y_next, zero_psi, True, k + 1,
                               StopReason.SLOW_CONVERGENCE, G)
        y = y_next

    return InnerResult(y, zero_psi, False, cfg.max_inner,
                       StopReason.ITERATION_CAP, float(np.linalg.norm(gom)))

"""Third-order Taylor model with quartic regularization around a frozen anchor.

Around an anchor point x with gradient g, Hessian H and directional third
derivative T(h) = D3f(x)[h]^2, the pieces are

    Phi(y)   = f(x) + <g, h> + 1/2 <H h, h> + 1/6 <T(h), h>,      h = y - x
    d4(h)    = 1/4 ||h||^4
    Omega(y) = Phi(y) + (M / 2) d4(h)
    rho(y)   = 1/2 <H h, h> + (M / 2) d4(h)

rho is the scaling function relative to which Omega is smooth and convex; its
Bregman divergence drives the inner solver.  All oracle data at the anchor is
evaluated once and kept on its oracle ``Point``, for every level; only the
directional third derivative is queried per displacement, through that
``Point`` so that the oracle's intermediates at x are computed once.

The inner solver needs products with H and solves with H + sigma I, never
H's eigenvectors, so the anchor factors H by Householder tridiagonal
reduction, H = Q T Q^T (LAPACK ``dsytrd``), at a fraction of the cost of an
eigendecomposition, and keeps H only as that factor: T, and Q as the
reduction's reflectors, applied to one vector at a time (``dormqr``).  The
factor also holds trace(H) and the anchor keeps only ||g|| and g^ = Q^T g,
so the anchor asks the oracle for the gradient and the Hessian only.

The inner solver works in the coordinates of Q.  ``omega_grad``, ``rho_grad``
(and the inner module's steps) take the displacement as h^ = Q^T (y - x) and
return gradients as Q^T grad; there H is T, an O(n) product, and only the
third derivative needs Q, once each way.  ``omega_grad`` also returns
s = Q^T D3f(x)[h]^2, the one third-derivative vector the model's cubic term
reads, and the divergences of rho and of Omega's cubic term have closed
forms in h^ and s (``bregman_div_hat``, ``cubic_div_hat``).  The values
``taylor3_value``, ``omega_value``, ``rho_value`` and ``bregman_div`` take
points y and read those same pieces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal, lapack

from .oracles import (Point, SolveError, as_point, check_positive, grad_at,
                      grad_norm_at, value_at)

# A smallest Hessian eigenvalue below -max(EIG_FLOOR, ROUNDING_C n eps max|T|)
# is a convexity violation; one between that floor and 0 is rounding noise,
# and T is shifted by it up to 0.  The relative term is the size of the
# reduction's backward error: on 20000 seeded rank-deficient PSD matrices
# (n <= 30, norms 1e4..1e7) rounding reached at most 0.9 n eps max|T|.
EIG_FLOOR = 1e-10
ROUNDING_C = 4.0


class ConvexityError(SolveError):
    """The anchor Hessian's smallest eigenvalue is below the convexity floor
    -max(EIG_FLOOR, ROUNDING_C n eps max|T|), with EIG_FLOOR = 1e-10,
    ROUNDING_C = 4 and T the tridiagonal factor of the n-by-n Hessian.

    Smaller negative values are rounding noise: the anchor then shifts the
    diagonal of T by -lambda_min, which leaves T positive semidefinite.
    """


class SecularSolveError(SolveError):
    """The anchor factorization, a product with Q or a secular solve failed.

    Raised when a LAPACK routine (``dsytrd``, ``dormqr``, ``dpttrf``,
    ``dpttrs``) reports a nonzero ``info`` the solve cannot recover from,
    when a bracket end cannot be widened or the iteration does not converge,
    or when the solved step misses its residual bound.  The message names
    the cause, and the level M when a secular solve fails.
    """


def lapack_error(routine, info, sigma=None):
    """The SecularSolveError naming a LAPACK routine's nonzero ``info``."""
    at = "" if sigma is None else " at sigma = %.17g" % sigma
    return SecularSolveError("LAPACK %s returned info = %d%s"
                             % (routine, info, at))


def lapack_check(routine, info, sigma=None):
    """Raise ``lapack_error`` for a nonzero LAPACK ``info``."""
    if info != 0:
        raise lapack_error(routine, info, sigma)


class HessianFactor:
    """H = Q T Q^T with T = tridiag(d, e) and Q kept as Householder reflectors.

    Q = diag(1, Q1), where Q1 = P(1) ... P(n-1) is a product of reflectors
    stored as ``dgeqrf`` stores the Q of a QR factorization: ``reflectors``
    is an (n, n-1) Fortran-ordered array whose first n-1 rows hold the
    reflector vectors below their unit diagonal (its last row is never
    read), and ``tau`` their scalars.  Reflectors with tau = 0 are
    identities, so zero reflectors and tau give the factor of T itself.

    The diagonal d must be nonnegative (T positive semidefinite; the
    convexity shift is made upstream), else ValueError.  Besides products
    with Q^T, Q and T and solves with T + sigma I, the factor holds the
    per-anchor constants of the secular solves: ``trace`` = trace(T) =
    trace(H) and ``gershgorin`` >= lambda_max(T) by Gershgorin's theorem.
    """

    __slots__ = ("d", "e", "reflectors", "tau", "trace", "gershgorin",
                 "_e_lapack")

    def __init__(self, d, e, reflectors, tau):
        if d.min() < 0.0:
            raise ValueError("diagonal of T must be nonnegative "
                             "(shift upstream)")
        self.d = d
        self.e = e
        self.reflectors = reflectors
        self.tau = tau
        self.trace = float(d.sum())
        bound = d.copy()
        bound[:-1] += np.abs(e)
        bound[1:] += np.abs(e)
        self.gershgorin = float(bound.max())
        # e as SciPy's dpttrf wrapper wants it: length 1 at n = 1.
        self._e_lapack = e if d.size > 1 else np.zeros(1)

    def qt(self, v):
        """Q^T v, in O(n^2) without forming Q."""
        return self._reflect("T", v)

    def q(self, v):
        """Q v, in O(n^2) without forming Q."""
        return self._reflect("N", v)

    def _reflect(self, trans, v):
        out = np.array(v, dtype=float)
        if self.tau.size:  # n = 1 has no reflector: Q = 1
            # One vector: lwork = n selects the unblocked dorm2r, the
            # fastest for a single column.
            cq, _, info = lapack.dormqr("L", trans, self.reflectors, self.tau,
                                        out[1:, None], out.size,
                                        overwrite_c=1)
            lapack_check("dormqr", info)
            out[1:] = cq[:, 0]  # cq is out[1:] itself unless f2py copied
        return out

    def tri(self, x):
        """T x, in O(n)."""
        y = self.d * x
        y[:-1] += self.e * x[1:]
        y[1:] += self.e * x[:-1]
        return y

    def shifted_solve(self, sigma, c):
        """(h, w, None), h = (T + sigma I)^{-1} c and w = (T + sigma I)^{-1} h,
        or (None, None, e) with e the unraised ``lapack_error`` of a
        ``dpttrf`` breakdown (info > 0); any other nonzero info raises."""
        ld, le, info = lapack.dpttrf(self.d + sigma, self._e_lapack)
        if info > 0:
            return None, None, lapack_error("dpttrf", info, sigma)
        lapack_check("dpttrf", info, sigma)
        h, info = lapack.dpttrs(ld, le, c)
        lapack_check("dpttrs", info, sigma)
        w, info = lapack.dpttrs(ld, le, h)
        lapack_check("dpttrs", info, sigma)
        return h, w, None


def tridiagonal_factor(H):
    """H = Q T Q^T with T = tridiag(d, e), shifted to be positive semidefinite.

    Returns a ``HessianFactor`` whose arrays are read-only.  H must be
    symmetric; a C- or Fortran-ordered H is overwritten (its storage then
    holds Q's reflectors), any other layout is copied first.  The smallest
    eigenvalue of T (and of H) is found by bisection on T in O(n); below the
    convexity floor (see ConvexityError) it raises ConvexityError, and
    otherwise d is shifted up by max(0, -lambda_min), which moves the
    factor's trace by n times that shift.  The shifted factor is the anchor's
    only Hessian.
    """
    n = H.shape[0]
    lwork, info = lapack.dsytrd_lwork(n, lower=1)
    lapack_check("dsytrd_lwork", info)
    # H is symmetric, so H.T is H: whichever of the two is Fortran-ordered
    # reaches dsytrd without a copy.
    a = H if H.flags.f_contiguous else np.asfortranarray(H.T, dtype=float)
    c, d, e, tau, info = lapack.dsytrd(a, lower=1, lwork=int(lwork),
                                       overwrite_a=1)
    lapack_check("dsytrd", info)
    # The reflectors sit in c[1:, :n-1]; viewed with c's leading dimension n
    # that block is the first n-1 rows of a Fortran-ordered (n, n-1) array,
    # which dormqr takes as it is.
    reflectors = c.reshape(-1, order="F")[1:1 + n * (n - 1)].reshape(
        (n, n - 1), order="F")
    # lambda_min <= min(d) holds exactly; taking the smaller of the two keeps
    # the shifted diagonal nonnegative whatever the rounding of the bisection.
    lam_min = min(float(eigvalsh_tridiagonal(d, e, select="i",
                                             select_range=(0, 0))[0]),
                  float(d.min()))
    t_max = max(float(np.abs(d).max()), float(np.abs(e).max(initial=0.0)))
    floor = max(EIG_FLOOR, ROUNDING_C * n * np.finfo(float).eps * t_max)
    if lam_min < -floor:
        raise ConvexityError(
            "anchor Hessian has smallest eigenvalue lambda_min = %.3e < -%.3e"
            % (lam_min, floor)
        )
    d = d + max(0.0, -lam_min)
    for arr in (d, e, reflectors, tau):  # frozen in place, not copied
        arr.setflags(write=False)
    return HessianFactor(d, e, reflectors, tau)


def d4_value(h):
    """Quartic regularizer 1/4 ||h||^4."""
    h = np.asarray(h, dtype=float)
    nsq = float(np.dot(h, h))
    return 0.25 * nsq * nsq


def d4_grad(h):
    """Gradient ||h||^2 h of the quartic regularizer."""
    h = np.asarray(h, dtype=float)
    return float(np.dot(h, h)) * h


@dataclass(eq=False)
class ModelAnchor:
    """Frozen oracle data of f at one anchor point, plus the level M.

    All data belongs to the same x and is kept on its oracle ``point``: the
    gradient g only as its norm ``grad_norm`` and its image ``g_hat`` =
    Q^T g, the Hessian only as its ``HessianFactor`` H = Q T Q^T after the
    convexity shift (which holds trace(H)), used by the model, the scaling
    function and the secular solves alike.  The anchor adds only M.
    """

    x: np.ndarray
    grad_norm: float
    g_hat: np.ndarray
    factor: HessianFactor
    M: float
    point: Point = field(repr=False)

    @classmethod
    def from_oracle(cls, oracle, x, M):
        """The anchor of ``oracle`` at ``x`` and level M.

        ``x`` is an array or an oracle ``Point``.  The first anchor at a
        ``Point`` costs one Hessian call, plus one gradient call unless the
        ``Point`` holds the gradient (see ``grad_at``), and keeps the factor
        and Q^T g there; later anchors at it, at any level, cost none.
        Neither f(x) nor trace(H) is queried: no solver reads f(x) at an
        anchor, and the factor holds the trace.  The Hessian array the
        oracle returns is factored in place (see ``tridiagonal_factor``), so
        an oracle must return a fresh array, as the shipped ones do.
        """
        M = check_positive("M", M)
        p = as_point(x)

        def factor_and_g_hat():
            g = grad_at(oracle, p)
            factor = tridiagonal_factor(oracle.hessian(p))
            g_hat = factor.qt(g)
            g_hat.setflags(write=False)
            return factor, g_hat

        factor, g_hat = p.memo("anchor", factor_and_g_hat)
        return cls(x=p.x, grad_norm=grad_norm_at(oracle, p), g_hat=g_hat,
                   factor=factor, M=M, point=p)

    def third_at(self, oracle, h):
        """D3f(x)[h]^2 at this anchor, queried through its oracle point.

        The zero displacement is exact without an oracle call.
        """
        h = np.asarray(h, dtype=float)
        if not h.any():
            return np.zeros_like(self.x)
        return oracle.third_directional(self.point, h)


def taylor3_value(anchor, oracle, y):
    """Third-order Taylor polynomial Phi(y) of f around the anchor.

    Reads f at the anchor point through ``value_at`` and the cubic term
    1/6 <s, h^> from ``omega_grad``'s s = Q^T D3f(x)[h]^2.
    """
    h = np.asarray(y, dtype=float) - anchor.x
    hh = anchor.factor.qt(h)
    _, s = omega_grad(anchor, oracle, hh, h)
    return (
        value_at(oracle, anchor.point)
        + float(np.dot(anchor.g_hat, hh))
        + 0.5 * float(np.dot(anchor.factor.tri(hh), hh))
        + float(np.dot(s, hh)) / 6.0
    )


def omega_value(anchor, oracle, y):
    """Regularized model Omega(y) = Phi(y) + (M / 2) d4(y - x)."""
    h = np.asarray(y, dtype=float) - anchor.x
    return taylor3_value(anchor, oracle, y) + 0.5 * anchor.M * d4_value(h)


def omega_grad(anchor, oracle, hh, h=None):
    """Gradient of the regularized model in the coordinates of Q, and the
    third-derivative vector it reads: ``(gom, s)`` with s = Q^T D3f(x)[h]^2
    and

        gom = Q^T grad Omega(y) = g^ + T h^ + 1/2 s + (M / 2) ||h^||^2 h^

    at y = x + h with h = Q h^, T here being the factor's tridiagonal
    matrix.  A caller that also needs y passes h = Q h^ in, and the product
    is not formed again.  The 1/2 on the directional third derivative is
    what calculus gives for the 1/6 <D3f(x)[h]^2, h> term of Phi; a
    finite-difference consistency test pins it down.  s is the one query of
    the third derivative at y: Phi's cubic term is 1/6 <s, h^>, and
    ``cubic_div_hat`` reads it too.
    """
    f = anchor.factor
    if h is None:
        h = f.q(hh)
    s = f.qt(anchor.third_at(oracle, h))
    return (anchor.g_hat + f.tri(hh) + 0.5 * s
            + 0.5 * anchor.M * d4_grad(hh)), s


def rho_value(anchor, y):
    """Scaling function rho(y) = 1/2 <H h, h> + (M / 2) d4(h)."""
    hh = anchor.factor.qt(np.asarray(y, dtype=float) - anchor.x)
    return 0.5 * float(np.dot(anchor.factor.tri(hh), hh)) + 0.5 * anchor.M * d4_value(hh)


def rho_grad(anchor, hh):
    """Gradient T h^ + (M / 2) ||h^||^2 h^ of the scaling function in the
    coordinates of Q, at y = x + Q h^."""
    return anchor.factor.tri(hh) + 0.5 * anchor.M * d4_grad(hh)


def bregman_div_hat(anchor, uh, vh):
    """Bregman divergence beta_rho(u, v) of the scaling function, from the
    points' coordinates u^, v^ in Q, in closed form.

    With D = v^ - u^, p = <u^, D> and q = ||D||^2,

        beta_rho(u, v) = 1/2 <T D, D>
                         + (M / 8) (4 p^2 + 2 p q + q (||u^||^2 + ||v^||^2)),

    the quartic part being (M / 8) (||v^||^4 - ||u^||^4 - 4 ||u^||^2 p)
    with the difference of fourth powers cancelled by hand, so a short step
    far from the anchor loses no digits.
    """
    d = vh - uh
    p = float(np.dot(uh, d))
    q = float(np.dot(d, d))
    return (0.5 * float(np.dot(anchor.factor.tri(d), d))
            + 0.125 * anchor.M * (4.0 * p * p + 2.0 * p * q
                                  + q * (float(np.dot(uh, uh))
                                         + float(np.dot(vh, vh)))))


def cubic_div_hat(uh, su, vh, sv):
    """Bregman divergence of Phi's cubic term 1/6 D3f(x)[h]^3 from u to v,
    from their coordinates u^, v^ in Q and their vectors s = Q^T D3f(x)[h]^2
    (``omega_grad``):

        (<s_v, v^> - <s_u, u^>) / 6 - 1/2 <s_u, v^ - u^>.

    Omega's divergence Omega(v) - Omega(u) - <grad Omega(u), v - u> is this
    plus ``bregman_div_hat``: the rest of Omega is rho plus an affine term.
    """
    return ((float(np.dot(sv, vh)) - float(np.dot(su, uh))) / 6.0
            - 0.5 * float(np.dot(su, vh - uh)))


def bregman_div(anchor, u, v):
    """Bregman divergence of the scaling function,

        beta(u, v) = rho(v) - rho(u) - <grad rho(u), v - u>  >=  0,

    read from ``bregman_div_hat``.
    """
    qt = anchor.factor.qt
    return bregman_div_hat(anchor, qt(np.asarray(u, dtype=float) - anchor.x),
                           qt(np.asarray(v, dtype=float) - anchor.x))

"""Logarithmic double-well potential, its convex/concave split, and the
Moreau-Yosida regularization of the convex part.

The convex singular part is
    f1(s) = (theta/2) [(1+s) ln(1+s) + (1-s) ln(1-s)],   s in [-1, 1],
with the continuous extension 0*ln 0 := 0 at the endpoints, and the smooth
concave remainder f2(s) = -(theta_c/2) s^2.  The regularization replaces
f1' by the 1/lambda-Lipschitz map built from the resolvent of s + lam*f1'(s).

All evaluators are numpy-vectorized and pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .assembly import SolverFailure

_TINY_GAP = 1e-15  # bracket inset at the +-1 endpoints
# Switch to the log-gap solve once 1-|root| falls below this: closer to the
# endpoint the s-space residual cannot reach _RESOLVENT_TOL in float64.
_SATURATION = 1e-3
_RESOLVENT_TOL = 1e-12  # residual at which a resolvent entry is converged
_RESOLVENT_MAX_ITER = 100  # Newton passes of one resolvent solve


class PotentialDomainError(ValueError):
    """Argument outside the potential's domain."""


class ResolventError(SolverFailure):
    """Resolvent iteration failed to converge; carries the last bracket."""

    def __init__(self, message, bracket):
        super().__init__(message)
        self.bracket = bracket


@dataclass(frozen=True)
class PotentialSpec:
    """Temperatures and domination constants for the bulk/surface pair.

    theta = 0 disables the singular part entirely (linear test mode); then
    the resolvent is the identity and all Yosida maps vanish.
    """

    theta: float = 0.8
    theta_c: float = 1.6
    theta_surf: float | None = None
    theta_c_surf: float | None = None
    kappa1: float = 1.0
    kappa2: float = 0.0

    def __post_init__(self):
        if self.theta_surf is None:
            object.__setattr__(self, "theta_surf", self.theta)
        if self.theta_c_surf is None:
            object.__setattr__(self, "theta_c_surf", self.theta_c)
        if not (0.0 <= self.theta < self.theta_c):
            raise ValueError(f"need 0 <= theta < theta_c, got {self.theta}, {self.theta_c}")
        if not (0.0 <= self.theta_surf < self.theta_c_surf):
            raise ValueError("need 0 <= theta_surf < theta_c_surf")
        if not (self.kappa1 > 0 and self.kappa2 >= 0):  # false for NaN too
            raise ValueError("need kappa1 > 0 and kappa2 >= 0")


@dataclass(frozen=True)
class YosidaParams:
    """Regularization parameter and its ceiling.

    The default ceiling keeps lam strictly below 1, which the convexity
    floor and the quadratic growth bound need; contraction-map studies may
    raise the ceiling to 1.0 explicitly (the contraction holds for any
    positive lam).
    """

    lam: float = 1e-3
    lam_ceiling: float = 0.999

    def __post_init__(self):
        if not (0.0 < self.lam <= self.lam_ceiling <= 1.0):
            raise ValueError(f"need 0 < lam <= lam_ceiling <= 1, got lam={self.lam}")


# -- raw potential ----------------------------------------------------------


def f1(s, theta: float):
    """Convex log part; defined on [-1, 1] with f1(+-1) = theta ln 2."""
    s = np.asarray(s, dtype=float)
    if np.any(np.abs(s) > 1.0):
        raise PotentialDomainError("f1 requires |s| <= 1")
    if theta == 0.0:
        return np.zeros_like(s)
    sp = 1.0 + s
    sm = 1.0 - s
    # xlogy-style: 0*log 0 := 0 at the endpoints
    with np.errstate(divide="ignore", invalid="ignore"):
        val = np.where(sp > 0, sp * np.log(np.maximum(sp, 1e-300)), 0.0) + np.where(
            sm > 0, sm * np.log(np.maximum(sm, 1e-300)), 0.0
        )
    return (theta / 2.0) * val


def f1_prime(s, theta: float):
    s = np.asarray(s, dtype=float)
    if np.any(np.abs(s) >= 1.0):
        raise PotentialDomainError("f1_prime requires |s| < 1")
    if theta == 0.0:
        return np.zeros_like(s)
    return (theta / 2.0) * np.log((1.0 + s) / (1.0 - s))


def f2(s, theta_c: float):
    s = np.asarray(s, dtype=float)
    return -(theta_c / 2.0) * s * s


def f2_prime(s, theta_c: float):
    return -theta_c * np.asarray(s, dtype=float)


# -- the resolvent (I + lam f1')^{-1} ---------------------------------------


def yosida_resolvent(r, theta: float, yp: YosidaParams):
    """Unique root s of s + lam*f1'(s) = r, vectorized.

    Safeguarded Newton on the bracket (-1+1e-15, 1-1e-15); entries whose
    root saturates toward +-1 are re-solved for the gap t = 1 - |s| in log
    space, which stays well conditioned down to the denormal floor.  The
    result may then round to exactly +-1.0; downstream maps handle that via
    the continuous extension of f1 and the 1/lam curvature cap.  Both
    iterations go on only with the entries that have not converged yet; the
    arithmetic of an entry does not depend on the others.
    """
    r_arr = np.asarray(r, dtype=float)
    scalar = r_arr.ndim == 0
    rv = np.atleast_1d(r_arr).astype(float)
    lam = yp.lam
    if theta == 0.0:
        return float(rv[0]) if scalar else rv

    half = theta / 2.0
    sign = np.where(rv < 0, -1.0, 1.0)
    ra = np.abs(rv)

    s_hi = 1.0 - _SATURATION
    r_switch = s_hi + lam * half * np.log((2.0 - _SATURATION) / _SATURATION)
    interior = ra < r_switch  # False for NaN

    if interior.all():
        out = _interior_roots(ra.ravel(), lam, theta).reshape(ra.shape)
    else:
        out = np.empty_like(rv)
        if np.any(interior):
            out[interior] = _interior_roots(ra[interior], lam, theta)
        sat = ~interior
        out[sat] = _saturated_roots(ra[sat], lam * half)

    out *= sign
    return float(out[0]) if scalar else out


def _interior_roots(ri, lam: float, theta: float) -> np.ndarray:
    """Roots for 0 <= ri < r_switch: Newton with bisection fallback on a fixed
    bracket, each entry frozen once its residual is within _RESOLVENT_TOL.
    Frozen entries leave the arrays once they are at least half of them."""
    half = theta / 2.0
    frozen = active = None  # roots of the entries that left, and the rest's indices
    lo = np.zeros_like(ri)  # g(0) = -ri <= 0
    hi = np.full_like(ri, 1.0 - _TINY_GAP)
    s = np.minimum(ri, 1.0 - 1e-6)  # the clip to [0, 1 - 1e-6]: ri >= 0
    for _ in range(_RESOLVENT_MAX_ITER):
        g = s + lam * half * np.log((1.0 + s) / (1.0 - s)) - ri
        converged = np.abs(g) <= _RESOLVENT_TOL
        n_converged = np.count_nonzero(converged)
        if n_converged == s.size:
            if frozen is None:
                return s
            frozen[active] = s
            return frozen
        if 2 * n_converged >= s.size:
            if frozen is None:
                frozen, active = np.empty_like(s), np.arange(s.size)
            frozen[active[converged]] = s[converged]
            keep = ~converged
            active, ri, s, g, lo, hi = active[keep], ri[keep], s[keep], g[keep], lo[keep], hi[keep]
            n_converged = 0
        lo = np.where(g < 0, s, lo)
        hi = np.where(g > 0, s, hi)
        gp = 1.0 + lam * theta / (1.0 - s * s)
        s_new = s - g / gp
        outside = (s_new <= lo) | (s_new >= hi)
        s_new = np.where(outside, 0.5 * (lo + hi), s_new)
        s = np.where(converged, s, s_new) if n_converged else s_new
    k = int(np.argmin(converged)) if n_converged else 0  # first unconverged entry
    raise ResolventError(
        f"resolvent did not reach tol {_RESOLVENT_TOL:g} in {_RESOLVENT_MAX_ITER} iterations",
        bracket=(float(lo[k]), float(hi[k])),
    )


def _saturated_roots(rs, c: float) -> np.ndarray:
    """Roots for rs >= r_switch or NaN (c = lam*theta/2): safeguarded Newton
    on u = ln t, t = 1 - s, with a u-bracket, each entry frozen once its
    residual is within tol, as in :func:`_interior_roots`; an entry that never
    gets there keeps its last iterate."""
    frozen = active = None
    u_lo = np.full_like(rs, np.log(5e-324))  # h(u_lo) > 0 or t underflows
    u_hi = np.full_like(rs, np.log(_SATURATION))
    u = np.clip((1.0 - rs + c * np.log(2.0)) / c, u_lo, u_hi)
    for _ in range(_RESOLVENT_MAX_ITER):
        t = np.exp(u)
        h = (1.0 - t) + c * (np.log(2.0 - t) - u) - rs
        done = np.abs(h) <= _RESOLVENT_TOL * np.maximum(1.0, np.abs(rs))
        n_done = np.count_nonzero(done)
        if n_done == u.size:
            break
        if 2 * n_done >= u.size:
            if frozen is None:
                frozen, active = np.empty_like(u), np.arange(u.size)
            frozen[active[done]] = u[done]
            keep = ~done
            active, rs, u, t, h = active[keep], rs[keep], u[keep], t[keep], h[keep]
            u_lo, u_hi = u_lo[keep], u_hi[keep]
            n_done = 0
        u_lo = np.where(h > 0, u, u_lo)  # h decreasing in u
        u_hi = np.where(h < 0, u, u_hi)
        hp = -t - c * (t / (2.0 - t) + 1.0)
        u_new = u - h / hp
        outside = (u_new <= u_lo) | (u_new >= u_hi)
        u_new = np.where(outside, 0.5 * (u_lo + u_hi), u_new)
        u = np.where(done, u, u_new) if n_done else u_new
    if frozen is not None:
        frozen[active] = u
        u = frozen
    return 1.0 - np.exp(u)


def yosida_prime(r, theta: float, yp: YosidaParams):
    """Regularized derivative (r - resolvent(r)) / lam; 1/lam-Lipschitz."""
    r_arr = np.asarray(r, dtype=float)
    j = yosida_resolvent(r_arr, theta, yp)
    return (r_arr - j) / yp.lam


def yosida_value(r, theta: float, yp: YosidaParams, j=None):
    """Moreau envelope |r - J|^2 / (2 lam) + f1(J), J the resolvent.

    ``j``, when given, must be ``yosida_resolvent(r, theta, yp)``.
    """
    r_arr = np.asarray(r, dtype=float)
    if j is None:
        j = yosida_resolvent(r_arr, theta, yp)
    return (r_arr - j) ** 2 / (2.0 * yp.lam) + f1(np.clip(j, -1.0, 1.0), theta)


def yosida_derivatives(r, theta: float, yp: YosidaParams, j=None):
    """(yosida_prime, yosida_second) at r from a single resolvent evaluation.

    ``j``, when given, must be ``yosida_resolvent(r, theta, yp)``.
    """
    r_arr = np.asarray(r, dtype=float)
    if j is None:
        j = yosida_resolvent(r_arr, theta, yp)
    prime = (r_arr - j) / yp.lam
    j = np.atleast_1d(np.asarray(j))
    if theta == 0.0:
        second = np.zeros_like(j)
    else:
        gap = 1.0 - j * j
        second = np.empty_like(j)
        interior = gap > 0
        fpp = theta / np.maximum(gap, 1e-300)
        second[interior] = (fpp / (1.0 + yp.lam * fpp))[interior]
        second[~interior] = 1.0 / yp.lam
        second = np.minimum(second, 1.0 / yp.lam)
    if r_arr.ndim == 0:
        return prime, float(second[0])
    return prime, second.reshape(r_arr.shape)


def yosida_second(r, theta: float, yp: YosidaParams):
    """Curvature f1''(J) / (1 + lam f1''(J)), capped at its analytic bound 1/lam."""
    return yosida_derivatives(r, theta, yp)[1]


class ConvexTerms(NamedTuple):
    """The regularized convex part at one pair vector, each as (bulk, surface):
    the quadrature values r, their resolvents j and curvatures, and the
    concatenated nodal load."""

    r: tuple
    j: tuple
    curvature: tuple
    load: np.ndarray


def convex_terms(ops, full: np.ndarray, pot: PotentialSpec, yp: YosidaParams) -> ConvexTerms:
    """Evaluate the regularized convex part at a full pair vector; one
    resolvent call per field.  ``ops`` is the mesh's ``FemOperators``."""
    qb = ops.bulk_at_tri_quad(full[: ops.n_bulk])
    qs = ops.surf_at_quad(full[ops.n_bulk :])
    jb = yosida_resolvent(qb, pot.theta, yp)
    js = yosida_resolvent(qs, pot.theta_surf, yp)
    prime_b, second_b = yosida_derivatives(qb, pot.theta, yp, jb)
    prime_s, second_s = yosida_derivatives(qs, pot.theta_surf, yp, js)
    load = np.concatenate([ops.tri_quad_load(prime_b), ops.surf_quad_load(prime_s)])
    return ConvexTerms((qb, qs), (jb, js), (second_b, second_s), load)


# -- domination diagnostic ---------------------------------------------------


@dataclass(frozen=True)
class DominationReport:
    max_margin: float
    argmax_r: float
    passed: bool


def check_domination(
    pot: PotentialSpec, yp: YosidaParams, grid, alpha: float = 1.0
) -> DominationReport:
    """Max over the grid of |F'_{1,lam}(alpha r)| - kappa1 |G'_{1,lam}(r)| - kappa2.

    F is the bulk potential (theta), G the surface one (theta_surf); the
    check passes iff the margin is <= 0 everywhere on the grid.
    """
    grid = np.asarray(grid, dtype=float)
    fp = np.abs(yosida_prime(alpha * grid, pot.theta, yp))
    gp = np.abs(yosida_prime(grid, pot.theta_surf, yp))
    margin = fp - pot.kappa1 * gp - pot.kappa2
    k = int(np.argmax(margin))
    return DominationReport(
        max_margin=float(margin[k]), argmax_r=float(grid[k]), passed=bool(margin[k] <= 0.0)
    )

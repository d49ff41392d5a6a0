"""Bulk-surface elliptic solves with Yosida-regularized log nonlinearities.

Covers the contraction map for the shifted (identity-augmented) system, damped
Newton for the stationary system, continuation in the regularization parameter
toward the singular problem, the initial-data projection, and the
principal-part diagnostics.  The coupling regime must have finite K; the
decoupled K = inf case never reaches this module.

Nonlinear terms are sampled at quadrature points of the current P1 iterate
(see assembly module notes); that choice makes the contraction factor
1/sqrt(1+lam) of the fixed-point map and the strong-monotonicity constant of
the Newton system exact discrete statements rather than approximations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from .assembly import (
    BulkSurfacePair,
    CouplingParams,
    FemOperators,
    JacobianPattern,
    NewtonSystem,
    SPDLaggedFactor,
    SolverFailure,
)
from .potentials import (
    PotentialSpec,
    YosidaParams,
    convex_terms,
    f2_prime,
    yosida_prime,
    yosida_resolvent,
)


class EllipticSolveError(SolverFailure):
    """Newton or continuation failure; carries the residual history."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = list(history or [])


@dataclass(frozen=True)
class EllipticProblem:
    """Stationary bulk-surface problem with right-hand side pair (f, g)."""

    ops: FemOperators
    cp: CouplingParams
    pot: PotentialSpec
    yp: YosidaParams
    rhs: BulkSurfacePair

    def __post_init__(self):
        if math.isinf(self.cp.K):
            raise ValueError("elliptic module requires K in [0, inf); K = inf decouples")
        self.ops._check_shapes(self.rhs)
        self.cp.validate_measures(self.ops.area_bulk, self.ops.area_surf)


@dataclass
class EllipticSolution:
    uv: BulkSurfacePair
    residual_norm: float
    iterations: int
    extras: dict = field(default_factory=dict)


def _operators(ops: FemOperators, cp: CouplingParams):
    """(P, stiffness) of the (K, alpha)-form; the operator set caches both."""
    return ops.reduction(cp.K, cp.alpha), ops.form_matrix(cp.sigma_K, cp.alpha)


def _newton_pattern(ops: FemOperators, cp: CouplingParams):
    """The pattern of the Newton matrix P^T(stiff + curvature mass)P.

    Cached per operator set, so every regularization parameter shares it.
    """

    def build():
        P, stiff = _operators(ops, cp)
        lin = ops.project(stiff, P, P).tocoo()
        return JacobianPattern(ops, lin.shape[0], P, fixed=[(lin.row, lin.col, lin.data)])

    return ops.cached(("newton", cp.K, cp.alpha), build)


def _newton_system(prob: EllipticProblem, factor) -> NewtonSystem:
    """The reduced Newton system P^T stiff P x - P^T mass rhs + P^T load(P x).

    Its Newton matrices are SPD (the curvature weight is at least
    theta/(1+theta)), so the directions after the first are conjugate-gradient
    solves on the held ``factor``, which a continuation hands from solve to
    solve.
    """
    ops = prob.ops
    pattern = _newton_pattern(ops, prob.cp)
    b = ops.reduce(ops.block_mass @ ops.to_vector(prob.rhs), pattern.P)
    return NewtonSystem(
        ops, pattern, pattern.matrix(pattern.fixed), b,
        lambda u: convex_terms(ops, u, prob.pot, prob.yp), 1, factor, EllipticSolveError,
    )


def fixed_point_step(current: BulkSurfacePair, prob: EllipticProblem) -> BulkSurfacePair:
    """One application of the contraction map for the shifted system.

    Solves the linear problem
        (1+lam) u - lam Lap u (+ coupling) = lam f + resolvent(current)
    in the constrained weak form and returns the new pair.  The map contracts
    in the discrete L2 norm with factor at most 1/sqrt(1+lam).  The factor of
    the left side is cached per (K, alpha, lam) on the operator set.
    """
    ops, cp, pot, yp = prob.ops, prob.cp, prob.pot, prob.yp
    P, stiff = _operators(ops, cp)
    lam = yp.lam
    lu = ops.cached(
        ("tlam", cp.K, cp.alpha, lam),
        lambda: spla.splu(ops.project((1.0 + lam) * ops.block_mass + lam * stiff, P, P).tocsc()),
    )

    j = (yosida_resolvent(ops.bulk_at_tri_quad(current.bulk), pot.theta, yp),
         yosida_resolvent(ops.surf_at_quad(current.surf), pot.theta_surf, yp))
    load = np.concatenate([ops.tri_quad_load(j[0]), ops.surf_quad_load(j[1])])
    rhs_load = ops.block_mass @ ops.to_vector(prob.rhs)
    red = lu.solve(ops.reduce(lam * rhs_load + load, P))
    return ops.from_vector(ops.prolong(red, P))


_TOL = 1e-10  # step tolerance of the shifted solve, residual tolerance of the continuation
_MAX_FP_ITER = 100000  # contraction iterations of one shifted solve
_ANDERSON_DEPTH = 5  # residual differences the shifted solve mixes
_NEWTON_MAX_ITER = 60  # Newton iterations of one regularized solve


def solve_shifted_regularized(prob: EllipticProblem, use_newton: bool = False) -> EllipticSolution:
    """Solve u - Lap u + F'_lam(u) = f (plus the surface/coupling rows) from zero.

    Anderson-mixed contractions T = :func:`fixed_point_step` run to the
    fixed point, stopping on the step difference.  ``use_newton`` is kept
    only for the ``use_newton=False`` call of ``benchmarks/workloads.py``;
    False is its one legal value.

    With g_k = T(u_k) - u_k, the next iterate is T(u_k) - dT gamma, where
    gamma is the least-squares fit of g_k by the columns dG, the differences
    of the last _ANDERSON_DEPTH residuals, and dT = dX + dG holds the
    matching differences of the maps T(u_i) (Walker & Ni, SIAM J. Numer.
    Anal. 49, 2011).  T contracts in the L2 norm with q = 1/sqrt(1+lam).  A
    mixed iterate whose residual exceeds q times that of the last accepted
    iterate is rejected (a restart): the history is dropped and the plain
    step T of the last accepted iterate taken, whose residual the
    contraction shrinks by q.  So each accepted residual is at most q times
    the one before, as in the plain iteration, and each rejection costs one
    extra contraction: the plain iteration's Banach count bounds the
    accepted iterates, and at most twice it all contractions.  Depth 0 is
    the plain iteration.  Returns T(u_k) once max|g_k| <= _TOL, with the
    max-norm of the reduced shifted residual there.
    """
    if use_newton:
        raise ValueError("the shifted solve has no Newton path: use_newton must be False")
    ops = prob.ops
    q = 1.0 / math.sqrt(1.0 + prob.yp.lam)
    x = np.zeros(ops.n_bulk + ops.n_surf)
    d_map = np.empty((x.size, _ANDERSON_DEPTH))
    d_res = np.empty((x.size, _ANDERSON_DEPTH))
    added = restarts = 0  # columns added since the last restart, restarts
    mixed = False  # whether x is a mixed iterate, which may be rejected
    prev = None  # T(u), g and ||g|| of the last accepted iterate
    for fp_iters in range(1, _MAX_FP_ITER + 1):
        t = ops.to_vector(fixed_point_step(ops.from_vector(x), prob))
        g = t - x
        if float(np.abs(g).max()) <= _TOL:
            break
        g_norm = ops.l2_norm(ops.from_vector(g))
        if mixed and g_norm > q * prev[2]:
            x, mixed, added, restarts = prev[0], False, 0, restarts + 1
            continue
        x = t
        if prev is not None and _ANDERSON_DEPTH:
            slot, added = added % _ANDERSON_DEPTH, added + 1
            d_map[:, slot] = t - prev[0]
            d_res[:, slot] = g - prev[1]
            cols = min(added, _ANDERSON_DEPTH)
            gamma = np.linalg.lstsq(d_res[:, :cols], g, rcond=None)[0]
            x, mixed = t - d_map[:, :cols] @ gamma, True
        prev = (t, g, g_norm)
    else:
        raise EllipticSolveError(
            f"contraction iteration did not reach {_TOL:g} in {_MAX_FP_ITER} steps", []
        )
    u = ops.from_vector(t)
    P, stiff = _operators(ops, prob.cp)
    full = ops.to_vector(ops.constrain(u, P))
    load = convex_terms(ops, full, prob.pot, prob.yp).load
    out = stiff @ full + load - ops.block_mass @ ops.to_vector(prob.rhs) + ops.block_mass @ full
    return EllipticSolution(
        uv=u,
        residual_norm=float(np.abs(ops.reduce(out, P)).max()),
        iterations=fp_iters,
        extras={"fp_iterations": fp_iters, "anderson_restarts": restarts},
    )


def solve_regularized(
    prob: EllipticProblem,
    tol: float = _TOL,
    max_iter: int = _NEWTON_MAX_ITER,
    start: BulkSurfacePair | None = None,
    factor: SPDLaggedFactor | None = None,
) -> EllipticSolution:
    """Damped Newton for -Lap u + F'_lam(u) = f with the coupling rows.

    The quadrature-sampled curvature keeps the Jacobian uniformly positive
    definite (lower bound theta/(1+theta) on the weight), so no mean
    constraint is needed despite the pure-flux boundary conditions.  Its
    Newton directions run on ``factor``, a fresh held factor by default,
    which a continuation hands from solve to solve.
    """
    ops = prob.ops
    system = _newton_system(prob, factor if factor is not None else SPDLaggedFactor())
    history: list[float] = []
    red = ops.to_reduced(start if start is not None else ops.zero_pair(), system.pattern.P)
    _, _, full, its, trials = system.solve(red, tol, max_iter, history)
    return EllipticSolution(
        uv=ops.from_vector(full),
        residual_norm=history[-1],
        iterations=its,
        extras={"history": history, "line_search_trials": trials, **system.counts()},
    )


def solve_singular(
    rhs: BulkSurfacePair,
    ops: FemOperators,
    cp: CouplingParams,
    pot: PotentialSpec,
    schedule=(1e-1, 1e-2, 1e-3, 1e-4, 1e-5),
    cauchy_tol: float = 1e-3,
) -> EllipticSolution:
    """Continuation in the regularization parameter toward the singular problem.

    Solves at each value of the decreasing schedule of at least two values,
    warm-starting from the previous solution, and certifies a Cauchy tail:
    the last successive H1 difference must fall below cauchy_tol, which must
    be finite and positive.  Records the measured separation
    1 - max nodal |value| of the final solution; its iterations,
    factorizations and held-factor iterations are summed over the schedule,
    one :func:`solve_regularized` per value, all on one held factor.
    """
    if not 0 < cauchy_tol < math.inf:  # false for NaN too
        raise ValueError(f"need finite cauchy_tol > 0, got {cauchy_tol:g}")
    schedule = list(schedule)
    if len(schedule) < 2:
        raise ValueError(f"schedule needs at least two values for a Cauchy tail, got {schedule}")
    if any(b >= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be strictly decreasing")
    if schedule[-1] < 1e-6:
        raise ValueError("final regularization parameter below the 1e-6 floor")

    factor = SPDLaggedFactor()
    sols: list[EllipticSolution] = []
    for lam in schedule:
        prob = EllipticProblem(ops=ops, cp=cp, pot=pot, yp=YosidaParams(lam=lam), rhs=rhs)
        start = sols[-1].uv if sols else None
        sols.append(solve_regularized(prob, start=start, factor=factor))
    diffs = [ops.h1_norm(b.uv - a.uv) for a, b in zip(sols, sols[1:])]
    sol = sols[-1]
    separation = 1.0 - sol.uv.max_abs()
    if not diffs[-1] <= cauchy_tol:
        raise EllipticSolveError(
            f"continuation tail {diffs[-1]:.3e} above Cauchy tolerance {cauchy_tol:g}",
            diffs,
        )
    sol.iterations = sum(s.iterations for s in sols)
    sol.extras.update(
        {"h1_differences": diffs, "separation": separation, "schedule": schedule}
    )
    for key in ("factorizations", "held_solve_iterations"):
        sol.extras[key] = sum(s.extras[key] for s in sols)
    return sol


def project_initial_data(
    phi_psi0: BulkSurfacePair,
    mu_theta0: BulkSurfacePair,
    ops: FemOperators,
    cp: CouplingParams,
    pot: PotentialSpec,
    yp: YosidaParams,
    tol: float = 1e-10,
) -> BulkSurfacePair:
    """Regularization-compatible initial phase fields.

    Solves the stationary system whose right-hand side is the initial
    chemical potential minus the smooth-part derivative of admissible data.
    """
    ops.check_initial_data(phi_psi0, cp)
    rhs = BulkSurfacePair(
        mu_theta0.bulk - f2_prime(phi_psi0.bulk, pot.theta_c),
        mu_theta0.surf - f2_prime(phi_psi0.surf, pot.theta_c_surf),
    )
    prob = EllipticProblem(ops=ops, cp=cp, pot=pot, yp=yp, rhs=rhs)
    return solve_regularized(prob, tol=tol, start=phi_psi0).uv


def recovered_normal_derivative(uv: BulkSurfacePair, prob: EllipticProblem) -> np.ndarray:
    """Variational normal derivative of the bulk field on the surface nodes.

    Extracted from the bulk-equation flux functional; interior rows of that
    functional vanish at a converged solution, the boundary rows are the
    weak normal flux tested with the surface mass.
    """
    ops, pot, yp = prob.ops, prob.pot, prob.yp
    qb = ops.bulk_at_tri_quad(uv.bulk)
    flux = (
        ops.A_bulk @ uv.bulk
        + ops.tri_quad_load(yosida_prime(qb, pot.theta, yp))
        - ops.M_bulk @ prob.rhs.bulk
    )
    return spla.spsolve(ops.M_surf.tocsc(), flux[ops.mesh.surface_nodes])


def principal_part_bound_check(uv: BulkSurfacePair, prob: EllipticProblem) -> dict:
    """Report both sides of the principal-part estimate with the measured constant.

    The discrete principal part is the pair dual to the (K, alpha)-form at
    the solution; for the trace-constrained regime the minimal-mass-norm
    representative is used.
    """
    ops, cp = prob.ops, prob.cp
    P, stiff = _operators(ops, cp)
    mass = ops.project(ops.block_mass, P, P).tocsc()
    red = spla.spsolve(mass, ops.reduce(stiff @ ops.to_vector(uv), P))
    pp = ops.from_vector(ops.prolong(red, P))

    lhs = ops.l2_norm(pp) ** 2
    f, g = prob.rhs.bulk, prob.rhs.surf
    rhs_h1 = math.sqrt(
        float(f @ ((ops.M_bulk + ops.A_bulk) @ f) + g @ ((ops.M_surf + ops.A_surf) @ g))
    )
    grad_cross = math.sqrt(float(f @ (ops.A_bulk @ f) + g @ (ops.A_surf @ g))) * math.sqrt(
        max(float(uv.bulk @ (ops.A_bulk @ uv.bulk) + uv.surf @ (ops.A_surf @ uv.surf)), 0.0)
    )
    if cp.K == 0.0:
        grad_l2 = math.sqrt(max(float(uv.bulk @ (ops.A_bulk @ uv.bulk)), 0.0))
        grad_h1 = math.sqrt(grad_l2**2 + float(pp.bulk @ (ops.M_bulk @ pp.bulk)))
        base = (1.0 + rhs_h1) * math.sqrt(grad_l2) * math.sqrt(max(grad_h1, 1e-300))
    else:
        base = 1.0 + rhs_h1
    measured_c = max(0.0, (lhs - grad_cross) / base) if base > 0 else 0.0
    return {
        "lhs": lhs,
        "rhs_base_term": base,
        "rhs_gradient_term": grad_cross,
        "measured_constant": measured_c,
        "holds_with_measured_constant": lhs <= measured_c * base + grad_cross + 1e-9,
        "principal_part": pp,
    }

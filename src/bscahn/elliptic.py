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
    LaggedFactor,
    SolverFailure,
    damped_newton,
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
    lambda_used: float
    extras: dict = field(default_factory=dict)


def _operators(ops: FemOperators, cp: CouplingParams):
    """(P, stiffness) of the (K, alpha)-form; the operator set caches both."""
    return ops.reduction(cp.K, cp.alpha), ops.form_matrix(cp.sigma_K, cp.alpha)


def _newton_pattern(ops: FemOperators, cp: CouplingParams, shifted: bool):
    """The pattern of the Newton matrix P^T(stiff [+ mass] + curvature mass)P.

    Cached per operator set, so every regularization parameter shares it.
    """
    key = ("newton", cp.K, cp.alpha, shifted)
    if key not in ops._cache:
        P, stiff = _operators(ops, cp)
        lin = ops.project(stiff + ops.block_mass if shifted else stiff, P, P).tocoo()
        ops._cache[key] = JacobianPattern(
            ops, lin.shape[0], P, fixed=[(lin.row, lin.col, lin.data)]
        )
    return ops._cache[key]


class _System:
    """Reduced residual and Newton direction shared by the elliptic solvers.

    One system serves one solve, at one regularization parameter, and counts
    its factorizations.  Every Newton matrix is factored afresh: the studies
    difference solutions whose Newton solves end at the roundoff floor, and a
    lagged factor moves those differences by up to 1e-10 relative.
    """

    def __init__(self, prob: EllipticProblem, shifted: bool):
        self.prob = prob
        self.shifted = shifted
        ops = self.ops = prob.ops
        self.P, self.stiff = _operators(ops, prob.cp)
        self.rhs_load = ops.block_mass @ ops.to_vector(prob.rhs)
        self.factor = LaggedFactor()

    def evaluate(self, red: np.ndarray):
        """Reduced residual and quadrature curvature (bulk, surface) at an iterate."""
        ops = self.ops
        full = ops.prolong(red, self.P)
        convex = convex_terms(ops, full, self.prob.pot, self.prob.yp)
        out = self.stiff @ full + convex.load - self.rhs_load
        if self.shifted:
            out += ops.block_mass @ full
        return ops.reduce(out, self.P), convex.curvature

    def residual_norm(self, pair: BulkSurfacePair) -> float:
        """Max-norm of the reduced residual at a pair."""
        return float(np.abs(self.evaluate(self.ops.to_reduced(pair, self.P))[0]).max())

    def newton_direction(self, curvature, rhs: np.ndarray) -> np.ndarray:
        """Solve the SPD Newton system for the given quadrature curvature."""
        pattern = _newton_pattern(self.ops, self.prob.cp, self.shifted)
        mat = pattern.matrix(pattern.fixed + pattern.weighted_mass(self.ops, *curvature))
        direction = self.factor.solve(mat, rhs)
        self.factor.drop()
        return direction


def fixed_point_step(current: BulkSurfacePair, prob: EllipticProblem) -> BulkSurfacePair:
    """One application of the contraction map for the shifted system.

    Solves the linear problem
        (1+lam) u - lam Lap u (+ coupling) = lam f + resolvent(current)
    in the constrained weak form and returns the new pair.  The map contracts
    in the discrete L2 norm with factor at most 1/sqrt(1+lam).
    """
    ops, cp, pot, yp = prob.ops, prob.cp, prob.pot, prob.yp
    sysm = _System(prob, shifted=True)
    lam = yp.lam

    key = ("tlam", cp.K, cp.alpha, lam)
    if key not in ops._cache:
        mat = (1.0 + lam) * ops.block_mass + lam * sysm.stiff
        ops._cache[key] = spla.splu(ops.project(mat, sysm.P, sysm.P).tocsc())
    lu = ops._cache[key]

    qb = ops.bulk_at_tri_quad(current.bulk)
    qs = ops.surf_at_quad(current.surf)
    load = np.concatenate(
        [
            ops.tri_quad_load(yosida_resolvent(qb, pot.theta, yp)),
            ops.surf_quad_load(yosida_resolvent(qs, pot.theta_surf, yp)),
        ]
    )
    red = lu.solve(ops.reduce(lam * sysm.rhs_load + load, sysm.P))
    return ops.from_vector(ops.prolong(red, sysm.P))


def solve_shifted_regularized(
    prob: EllipticProblem,
    tol: float = 1e-10,
    fp_switch: float = 1e-4,
    use_newton: bool = True,
    max_fp_iter: int = 100000,
    newton_max_iter: int = 50,
    start: BulkSurfacePair | None = None,
) -> EllipticSolution:
    """Solve u - Lap u + F'_lam(u) = f (plus the surface/coupling rows).

    Contraction iterations carry the iterate into the Newton basin (or all
    the way down when use_newton is False, stopping on the step difference);
    Newton then polishes to the weak-residual tolerance.
    """
    ops = prob.ops
    sysm = _System(prob, shifted=True)
    u = start.copy() if start is not None else ops.zero_pair()
    history: list[float] = []
    fp_iters = 0
    while True:
        new = fixed_point_step(u, prob)
        fp_iters += 1
        diff = (new - u).max_abs()
        u = new
        if use_newton:
            rnorm = sysm.residual_norm(u)
            history.append(rnorm)
            if rnorm <= fp_switch or fp_iters >= max_fp_iter:
                break
        else:
            if diff <= tol:
                return EllipticSolution(
                    uv=u,
                    residual_norm=sysm.residual_norm(u),
                    iterations=fp_iters,
                    lambda_used=prob.yp.lam,
                    extras={"fp_iterations": fp_iters, "factorizations": 0},
                )
            if fp_iters >= max_fp_iter:
                raise EllipticSolveError(
                    f"contraction iteration did not reach {tol:g} in {max_fp_iter} steps",
                    history,
                )

    red, _, its, _ = damped_newton(
        sysm.evaluate, sysm.newton_direction, ops.to_reduced(u, sysm.P), tol,
        newton_max_iter, 40, EllipticSolveError, history,
    )
    return EllipticSolution(
        uv=ops.from_vector(ops.prolong(red, sysm.P)),
        residual_norm=history[-1],
        iterations=fp_iters + its,
        lambda_used=prob.yp.lam,
        extras={
            "fp_iterations": fp_iters,
            "newton_iterations": its,
            "factorizations": sysm.factor.factorizations,
        },
    )


def solve_regularized(
    prob: EllipticProblem,
    tol: float = 1e-10,
    max_iter: int = 60,
    start: BulkSurfacePair | None = None,
) -> EllipticSolution:
    """Damped Newton for -Lap u + F'_lam(u) = f with the coupling rows.

    The quadrature-sampled curvature keeps the Jacobian uniformly positive
    definite (lower bound theta/(1+theta) on the weight), so no mean
    constraint is needed despite the pure-flux boundary conditions.
    """
    ops = prob.ops
    sysm = _System(prob, shifted=False)
    history: list[float] = []
    red = ops.to_reduced(start if start is not None else ops.zero_pair(), sysm.P)
    red, _, its, trials = damped_newton(
        sysm.evaluate, sysm.newton_direction, red, tol, max_iter, 40, EllipticSolveError, history
    )
    return EllipticSolution(
        uv=ops.from_vector(ops.prolong(red, sysm.P)),
        residual_norm=history[-1],
        iterations=its,
        lambda_used=prob.yp.lam,
        extras={
            "history": history,
            "line_search_trials": trials,
            "factorizations": sysm.factor.factorizations,
        },
    )


def solve_singular(
    rhs: BulkSurfacePair,
    ops: FemOperators,
    cp: CouplingParams,
    pot: PotentialSpec,
    schedule=(1e-1, 1e-2, 1e-3, 1e-4, 1e-5),
    cauchy_tol: float = 1e-3,
    newton_tol: float = 1e-10,
) -> EllipticSolution:
    """Continuation in the regularization parameter toward the singular problem.

    Solves at each value of the decreasing schedule, warm-starting from the
    previous solution, and certifies a Cauchy tail: the last successive H1
    difference must fall below cauchy_tol.  Records the measured separation
    1 - max nodal |value| of the final solution; its iterations and
    factorizations are summed over the schedule.
    """
    schedule = list(schedule)
    if any(b >= a for a, b in zip(schedule, schedule[1:])) or not schedule:
        raise ValueError("schedule must be strictly decreasing and nonempty")
    if schedule[-1] < 1e-6:
        raise ValueError("final regularization parameter below the 1e-6 floor")

    diffs: list[float] = []
    sol = None
    total_iters = total_factors = 0
    for lam in schedule:
        prob = EllipticProblem(ops=ops, cp=cp, pot=pot, yp=YosidaParams(lam=lam), rhs=rhs)
        prev = sol.uv if sol is not None else None
        sol = solve_regularized(prob, tol=newton_tol, start=prev)
        total_iters += sol.iterations
        total_factors += sol.extras["factorizations"]
        if prev is not None:
            diffs.append(ops.h1_norm(sol.uv - prev))

    separation = 1.0 - sol.uv.max_abs()
    converged = len(diffs) == 0 or diffs[-1] <= cauchy_tol
    if not converged:
        raise EllipticSolveError(
            f"continuation tail {diffs[-1]:.3e} above Cauchy tolerance {cauchy_tol:g}",
            diffs,
        )
    sol.iterations = total_iters
    sol.extras.update(
        {"h1_differences": diffs, "separation": separation, "schedule": schedule,
         "factorizations": total_factors}
    )
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
    chemical potential minus the smooth-part derivative of the given data.
    """
    if phi_psi0.max_abs() > 1.0 + 1e-12:
        raise ValueError("initial phase fields must satisfy max |value| <= 1")
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

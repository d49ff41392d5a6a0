import inspect
import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from bscahn import elliptic, potentials
from bscahn.assembly import (
    BulkSurfacePair,
    CouplingParams,
    NewtonSystem,
    SPDLaggedFactor,
    assemble,
)
from bscahn.elliptic import (
    EllipticProblem,
    EllipticSolveError,
    _newton_pattern,
    _newton_system,
    fixed_point_step,
    principal_part_bound_check,
    project_initial_data,
    recovered_normal_derivative,
    solve_regularized,
    solve_shifted_regularized,
    solve_singular,
)
from bscahn.potentials import PotentialSpec, YosidaParams, f1_prime, f2_prime

from _oracles import resolvent_bisect, shifted_newton

POT = PotentialSpec()
CP = CouplingParams(K=1.0, L=1.0, alpha=0.5, beta=2.0)


def problem(ops, rhs=None, cp=CP, lam=1e-3, pot=POT):
    if rhs is None:
        rhs = ops.zero_pair()
    return EllipticProblem(ops=ops, cp=cp, pot=pot, yp=YosidaParams(lam=lam), rhs=rhs)


def random_pair(ops, rng, scale=1.0):
    return BulkSurfacePair(
        scale * rng.standard_normal(ops.n_bulk), scale * rng.standard_normal(ops.n_surf)
    )


class TestFixedPointMap:
    def test_origin_is_fixed(self, ops4):
        prob = problem(ops4, lam=0.2)
        out = fixed_point_step(ops4.zero_pair(), prob)
        assert out.max_abs() <= 1e-14

    @pytest.mark.parametrize("lam", [0.999, 0.1, 0.01])
    def test_contraction_factor(self, ops4, lam, rng):
        prob = problem(ops4, lam=lam)
        bound = 1.0 / math.sqrt(1.0 + lam)
        worst = 0.0
        for _ in range(50):
            a = random_pair(ops4, rng, 2.0)
            b = random_pair(ops4, rng, 2.0)
            num = ops4.l2_norm(fixed_point_step(a, prob) - fixed_point_step(b, prob))
            worst = max(worst, num / ops4.l2_norm(a - b))
        assert worst <= bound + 1e-8

    def test_measured_factor_below_a_priori_at_unit_lambda(self, ops4, rng):
        prob = problem(ops4, lam=0.999)
        worst = 0.0
        for _ in range(50):
            a = random_pair(ops4, rng)
            b = random_pair(ops4, rng)
            num = ops4.l2_norm(fixed_point_step(a, prob) - fixed_point_step(b, prob))
            worst = max(worst, num / ops4.l2_norm(a - b))
        assert worst <= 0.70711

    def test_unbounded_regime_rejected(self, ops4):
        with pytest.raises(ValueError):
            problem(ops4, cp=CouplingParams(K=math.inf, L=1.0, alpha=0.5, beta=2.0))


def coupling(K):
    return CouplingParams(K=K, L=1.0, alpha=0.5, beta=2.0)


def newton_case(ops, K, rng, scale=1.0):
    """A Newton system, its problem and a reduced iterate for one coupling K."""
    prob = problem(ops, rhs=random_pair(ops, rng, scale), cp=coupling(K))
    system = _newton_system(prob, SPDLaggedFactor())
    return system, prob, ops.to_reduced(random_pair(ops, rng, 0.6), system.pattern.P)


def assembled_newton_matrix(prob, curv_bulk, curv_surf):
    """P^T(stiff + curvature mass)P from the COO-built weighted masses."""
    ops, cp = prob.ops, prob.cp
    curv = sp.block_diag([ops.tri_weighted_mass(curv_bulk), ops.surf_weighted_mass(curv_surf)])
    mat = ops.form_matrix(cp.sigma_K, cp.alpha) + curv
    P = ops.reduction(cp.K, cp.alpha)
    return ops.project(mat, P, P).tocsc()


class TestNewtonSystem:
    @pytest.mark.parametrize("K", [0.0, 1.0])
    def test_fixed_pattern_matrix_is_the_assembled_one(self, ops4, K, rng):
        system, prob, red = newton_case(ops4, K, rng)
        curv = system.evaluate(red)[1].curvature
        mat = system.matrix(curv)
        assert mat is _newton_pattern(ops4, prob.cp).held
        ref = assembled_newton_matrix(prob, *curv)
        scale = abs(ref).max()
        assert abs(mat - ref).max() <= 1e-13 * scale
        assert abs(mat - mat.T).max() <= 1e-13 * scale

    @pytest.mark.parametrize("K", [0.0, 1.0])
    def test_newton_direction_matches_spsolve(self, ops4, K, rng):
        system, prob, red = newton_case(ops4, K, rng)
        r, terms, _ = system.evaluate(red)
        delta = system.direction(terms, -r)
        ref = spla.spsolve(assembled_newton_matrix(prob, *terms.curvature), -r)
        assert np.linalg.norm(delta - ref) <= 1e-10 * np.linalg.norm(ref)

    @pytest.mark.parametrize("K", [0.0, 1.0])
    def test_one_resolvent_evaluation_per_field_and_trial(self, ops4, K, rng, monkeypatch):
        # the starting residual and each line-search trial call the resolvent
        # once per field; the Jacobian reuses the accepted trial's curvature
        calls = []
        resolvent = potentials.yosida_resolvent

        def counting(*args, **kwargs):
            calls.append(1)
            return resolvent(*args, **kwargs)

        monkeypatch.setattr(potentials, "yosida_resolvent", counting)
        sol = solve_regularized(problem(ops4, rhs=random_pair(ops4, rng, 5.0), cp=coupling(K)))
        its, trials = sol.iterations, sol.extras["line_search_trials"]
        assert trials > its  # the line search backtracked
        assert len(calls) == 2 * (1 + trials)

    @pytest.mark.parametrize("K", [0.0, 1.0])
    def test_fixed_point_step_same_with_cold_and_warm_cache(self, mesh4, K, rng):
        ops = assemble(mesh4)
        prob = problem(ops, rhs=random_pair(ops, rng), cp=coupling(K), lam=0.1)
        start = random_pair(ops, rng, 0.5)
        cold = fixed_point_step(start, prob)
        cached = dict(ops._cache)
        warm = fixed_point_step(start, prob)
        assert all(ops._cache[key] is value for key, value in cached.items())
        assert np.array_equal(cold.bulk, warm.bulk)
        assert np.array_equal(cold.surf, warm.surf)


    def test_solve_regularized_same_on_fresh_and_used_operators(self, mesh4, rng):
        # a solve, or a continuation, keeps no factor past its own Newton
        # directions, so an earlier solve on the same operators cannot
        # change a later one
        ops = assemble(mesh4)
        rhs, other = random_pair(ops, rng, 3.0), random_pair(ops, rng, 3.0)
        bounded, bounded_other = bounded_pair(mesh4, rng), bounded_pair(mesh4, rng)
        fresh = solve_regularized(problem(ops, rhs=rhs, lam=1e-3))
        fresh_singular = solve_singular(bounded, ops, CP, POT)
        used = assemble(mesh4)
        solve_regularized(problem(used, rhs=other, lam=1e-2))
        solve_singular(bounded_other, used, CP, POT)
        again = solve_regularized(problem(used, rhs=rhs, lam=1e-3))
        again_singular = solve_singular(bounded, used, CP, POT)
        for a, b in ((fresh, again), (fresh_singular, again_singular)):
            assert np.array_equal(a.uv.bulk, b.uv.bulk)
            assert np.array_equal(a.uv.surf, b.uv.surf)
            assert a.iterations == b.iterations
            assert 1 <= a.extras["factorizations"] == b.extras["factorizations"]
            assert a.extras["held_solve_iterations"] == b.extras["held_solve_iterations"]
        assert fresh_singular.extras["h1_differences"] == again_singular.extras["h1_differences"]


def bounded_pair(mesh, rng):
    return BulkSurfacePair(
        rng.uniform(-1, 1, mesh.num_nodes), rng.uniform(-1, 1, mesh.num_surface_nodes)
    )


class TestHeldFactor:
    """Elliptic Newton directions after a solve's first are conjugate-gradient
    solves preconditioned with one held factor."""

    def test_a_continuation_factors_once_when_every_held_solve_meets_its_target(
        self, ops4, rng
    ):
        sol = solve_singular(bounded_pair(ops4.mesh, rng), ops4, CP, POT)
        assert sol.extras["factorizations"] == 1
        assert sol.iterations > len(sol.extras["schedule"])
        assert sol.extras["held_solve_iterations"] > 0

    @staticmethod
    def newton_matrix(ops, scale):
        """The Newton matrix at a curvature of the given size."""
        pattern = _newton_pattern(ops, CP)
        q_bulk = scale * (1.0 + ops.tri_qcoords[..., 0] ** 2)
        q_surf = scale * (1.0 + ops.surf_qcoords[..., 1] ** 2)
        return pattern.matrix(pattern.fixed + pattern.weighted_mass(ops, q_bulk, q_surf))

    def test_spd_matrix_of_another_curvature_is_solved_on_the_held_factor(self, ops4, rng):
        factor = SPDLaggedFactor()
        factored = self.newton_matrix(ops4, 1.0)
        factor.solve(factored, rng.standard_normal(factored.shape[0]))
        held = factor.lu
        current = self.newton_matrix(ops4, 20.0)
        b = rng.standard_normal(current.shape[0])
        x = factor.solve(current, b)
        assert factor.factorizations == 1 and factor.lu is held
        assert factor.held_iterations > 0
        assert np.linalg.norm(b - current @ x) <= 1e-10 * np.linalg.norm(b)
        ref = spla.spsolve(current, b)
        assert np.linalg.norm(x - ref) <= 1e-9 * np.linalg.norm(ref)

    def test_indefinite_matrix_on_a_held_spd_factor_is_factored(self, ops4, rng):
        factor = SPDLaggedFactor()
        factored = self.newton_matrix(ops4, 1.0)
        factor.solve(factored, rng.standard_normal(factored.shape[0]))
        current = self.newton_matrix(ops4, -20.0)
        eigenvalues = np.linalg.eigvalsh(current.toarray())
        assert eigenvalues.min() < 0.0 < eigenvalues.max()
        b = rng.standard_normal(current.shape[0])
        x = factor.solve(current, b)
        assert factor.factorizations == 2
        assert factor.held_iterations == 0  # p.Ap <= 0 stops the first iteration
        assert np.array_equal(x, factor.lu.solve(b))
        ref = spla.spsolve(current, b)
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_a_failure_on_an_inherited_factor_is_the_one_a_fresh_solve_raises(self, ops4, rng):
        prob = problem(ops4, rhs=random_pair(ops4, rng, 50.0), lam=1e-3)
        with pytest.raises(EllipticSolveError) as fresh:
            solve_regularized(prob, max_iter=1)
        factor = SPDLaggedFactor()
        solve_regularized(problem(ops4, rhs=random_pair(ops4, rng), lam=1e-2), factor=factor)
        before = factor.factorizations
        with pytest.raises(EllipticSolveError) as held:
            solve_regularized(prob, max_iter=1, factor=factor)
        assert str(held.value) == str(fresh.value)
        assert held.value.history == fresh.value.history
        assert factor.factorizations == before + 1  # the retry's own factor


class TestShiftedSolve:
    def test_zero_rhs(self, ops4):
        sol = solve_shifted_regularized(problem(ops4, lam=0.1))
        assert sol.uv.max_abs() <= 1e-12

    def test_constant_solution_from_scalar_oracle(self, ops4):
        # rhs built so the constant pair (alpha c, c) solves the system; the
        # regularized derivative values come from the bisection oracle
        c, alpha, lam = 0.3, 0.5, 0.1
        cp = CouplingParams(K=1.0, L=1.0, alpha=alpha, beta=2.0)
        j_f = resolvent_bisect(alpha * c, POT.theta, lam)
        j_g = resolvent_bisect(c, POT.theta_surf, lam)
        fl = (alpha * c - j_f) / lam
        gl = (c - j_g) / lam
        rhs = BulkSurfacePair(
            np.full(ops4.n_bulk, alpha * c + fl), np.full(ops4.n_surf, c + gl)
        )
        sol = solve_shifted_regularized(problem(ops4, rhs=rhs, cp=cp, lam=lam))
        assert np.abs(sol.uv.bulk - alpha * c).max() <= 1e-8
        assert np.abs(sol.uv.surf - c).max() <= 1e-8

    def test_pure_contraction_iteration_count(self, ops4, rng):
        lam, tol = 0.1, elliptic._TOL  # the contraction stops on a step of at most tol
        rhs = random_pair(ops4, rng, 0.5)
        prob = problem(ops4, rhs=rhs, lam=lam)
        sol = solve_shifted_regularized(prob)
        gap0 = ops4.l2_norm(fixed_point_step(ops4.zero_pair(), prob))
        bound = math.ceil(math.log(tol / gap0) / math.log(1.0 / math.sqrt(1.0 + lam)))
        assert sol.iterations <= bound

    def test_each_contraction_iterate_is_evaluated_once(self, ops8, monkeypatch):
        # each contraction evaluates its iterate, the reported residual the
        # last one; no Newton system is evaluated
        calls, evaluations = [], []
        resolvent, evaluate = potentials.yosida_resolvent, NewtonSystem.evaluate

        def counting(*args, **kwargs):
            calls.append(1)
            return resolvent(*args, **kwargs)

        def counted_evaluate(self, x):
            evaluations.append(1)
            return evaluate(self, x)

        monkeypatch.setattr(potentials, "yosida_resolvent", counting)
        monkeypatch.setattr(elliptic, "yosida_resolvent", counting)
        monkeypatch.setattr(NewtonSystem, "evaluate", counted_evaluate)
        rhs = random_pair(ops8, np.random.default_rng(0))
        sol = solve_shifted_regularized(problem(ops8, rhs=rhs, lam=0.1))
        assert not evaluations
        assert len(calls) == 2 * sol.extras["fp_iterations"] + 2

    @pytest.mark.parametrize("K, lam, tol", [(0.0, 0.1, 1e-9), (1.0, 0.1, 1e-9),
                                             (0.0, 1e-2, 1e-8), (1.0, 1e-2, 1e-8)])
    def test_mixed_contraction_agrees_with_shifted_newton(self, ops8, K, lam, tol):
        cp = CouplingParams(K=K, L=1.0, alpha=0.5, beta=2.0)
        prob = problem(ops8, rhs=random_pair(ops8, np.random.default_rng(0)), cp=cp, lam=lam)
        mixed = solve_shifted_regularized(prob)
        assert (mixed.uv - shifted_newton(prob)).max_abs() <= tol

    @pytest.mark.parametrize("K, lam", [(0.0, 0.1), (1.0, 0.1), (0.0, 1e-2), (1.0, 1e-2)])
    def test_shifted_newton_oracle_is_a_fixed_point(self, ops8, K, lam):
        # the reference of the agreement test solves the system whose
        # contraction map the package iterates
        cp = CouplingParams(K=K, L=1.0, alpha=0.5, beta=2.0)
        prob = problem(ops8, rhs=random_pair(ops8, np.random.default_rng(0)), cp=cp, lam=lam)
        u = shifted_newton(prob)
        assert (fixed_point_step(u, prob) - u).max_abs() <= 1e-12

    @pytest.mark.parametrize("K", [0.0, 1.0])
    def test_shifted_newton_oracle_recovers_the_constant_solution(self, ops4, K):
        # the rhs of test_constant_solution_from_scalar_oracle; the constant
        # pair (alpha c, c) has no gradient and no jump for either K
        c, alpha, lam = 0.3, 0.5, 0.1
        cp = CouplingParams(K=K, L=1.0, alpha=alpha, beta=2.0)
        j_f = resolvent_bisect(alpha * c, POT.theta, lam)
        j_g = resolvent_bisect(c, POT.theta_surf, lam)
        rhs = BulkSurfacePair(
            np.full(ops4.n_bulk, alpha * c + (alpha * c - j_f) / lam),
            np.full(ops4.n_surf, c + (c - j_g) / lam),
        )
        u = shifted_newton(problem(ops4, rhs=rhs, cp=cp, lam=lam))
        assert np.abs(u.bulk - alpha * c).max() <= 1e-8
        assert np.abs(u.surf - c).max() <= 1e-8

    def test_use_newton_has_one_legal_value(self, ops4, rng):
        prob = problem(ops4, rhs=random_pair(ops4, rng), lam=0.1)
        with pytest.raises(ValueError, match="use_newton must be False"):
            solve_shifted_regularized(prob, use_newton=True)
        sol = solve_shifted_regularized(prob, use_newton=False)
        assert set(sol.extras) == {"fp_iterations", "anderson_restarts"}

    def test_depth_zero_is_the_plain_iteration(self, ops8, monkeypatch):
        prob = problem(ops8, rhs=random_pair(ops8, np.random.default_rng(0)), lam=0.1)
        monkeypatch.setattr(elliptic, "_ANDERSON_DEPTH", 0)
        plain = solve_shifted_regularized(prob)
        u, fp = ops8.zero_pair(), 0
        while True:
            new = fixed_point_step(u, prob)
            fp += 1
            diff, u = (new - u).max_abs(), new
            if diff <= elliptic._TOL:
                break
        assert plain.extras["fp_iterations"] == fp
        assert plain.extras["anderson_restarts"] == 0
        assert np.array_equal(plain.uv.bulk, u.bulk) and np.array_equal(plain.uv.surf, u.surf)

    def test_mixing_takes_at_most_a_quarter_of_the_plain_contractions(self, ops8, monkeypatch):
        prob = problem(ops8, rhs=random_pair(ops8, np.random.default_rng(0)), lam=1e-2)
        mixed = solve_shifted_regularized(prob)
        monkeypatch.setattr(elliptic, "_ANDERSON_DEPTH", 0)
        plain = solve_shifted_regularized(prob)
        assert 4 * mixed.extras["fp_iterations"] <= plain.extras["fp_iterations"]

    def test_a_poor_fit_restarts_and_still_meets_the_tolerance(self, ops8, monkeypatch):
        # a large right-hand side drives the solution toward the saturated
        # branch, where the mixed residual can shrink by less than q
        calls = []

        def recorded(u, prob):
            calls.append((u, fixed_point_step(u, prob)))
            return calls[-1][1]

        monkeypatch.setattr(elliptic, "fixed_point_step", recorded)
        lam = 1e-2
        prob = problem(ops8, rhs=random_pair(ops8, np.random.default_rng(0), 20.0), lam=lam)
        sol = solve_shifted_regularized(prob)
        step = fixed_point_step(sol.uv, prob) - sol.uv
        assert step.max_abs() <= elliptic._TOL
        # each residual shrinks the last accepted one by q, or its iterate is
        # rejected and the next is the plain step of the last accepted one
        q = 1.0 / math.sqrt(1.0 + lam)
        norms = [ops8.l2_norm(t - u) for u, t in calls[:-1]]  # the last met _TOL
        accepted, restarts = 0, 0
        for k in range(1, len(norms)):
            if norms[k] <= q * norms[accepted]:
                accepted = k
                continue
            restarts += 1
            retry, plain = calls[k + 1][0], calls[accepted][1]
            assert np.array_equal(retry.bulk, plain.bulk)
            assert np.array_equal(retry.surf, plain.surf)
        assert restarts == sol.extras["anderson_restarts"] > 0


class TestPublicNamesAreTheOnesCalled:
    """The solvers call their steps through the module attributes, the names
    a wrapper of the module sees."""

    def test_a_continuation_calls_solve_regularized_once_per_value_on_one_factor(
        self, ops4, rng, monkeypatch
    ):
        factors, solve = [], elliptic.solve_regularized
        signature = inspect.signature(solve)

        def counting(*args, **kwargs):
            factors.append(signature.bind(*args, **kwargs).arguments["factor"])
            return solve(*args, **kwargs)

        monkeypatch.setattr(elliptic, "solve_regularized", counting)
        schedule = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)
        solve_singular(bounded_pair(ops4.mesh, rng), ops4, CP, POT, schedule=schedule)
        assert len(factors) == len(schedule)
        assert isinstance(factors[0], SPDLaggedFactor)
        assert all(factor is factors[0] for factor in factors)

    def test_a_shifted_solve_calls_fixed_point_step_once_per_contraction(
        self, ops4, rng, monkeypatch
    ):
        calls, step = [], elliptic.fixed_point_step

        def counting(current, prob):
            calls.append(1)
            return step(current, prob)

        monkeypatch.setattr(elliptic, "fixed_point_step", counting)
        sol = solve_shifted_regularized(problem(ops4, rhs=random_pair(ops4, rng), lam=0.1))
        assert len(calls) == sol.extras["fp_iterations"] > 0


class TestStationarySolve:
    def test_zero_rhs(self, ops4):
        sol = solve_regularized(problem(ops4, lam=1e-2))
        assert sol.uv.max_abs() <= 1e-12

    def test_unique_from_random_starts(self, ops4, rng):
        prob = problem(ops4, rhs=random_pair(ops4, rng), lam=1e-3)
        s1 = solve_regularized(prob, start=random_pair(ops4, rng, 0.4))
        s2 = solve_regularized(prob, start=random_pair(ops4, rng, 0.4))
        assert ops4.l2_norm(s1.uv - s2.uv) <= 1e-8

    def test_strong_monotonicity_constant(self, ops4, rng):
        # the nonlinear operator gap against the solution difference dominates
        # the regularized convexity floor in the L2 norm
        lam = 1e-2
        theta_star = min(POT.theta, POT.theta_surf) / (1.0 + max(POT.theta, POT.theta_surf))
        prob1 = problem(ops4, rhs=random_pair(ops4, rng), lam=lam)
        prob2 = problem(ops4, rhs=random_pair(ops4, rng), lam=lam)
        u1 = solve_regularized(prob1).uv
        u2 = solve_regularized(prob2).uv
        diff = u1 - u2
        gap = float(
            (prob1.rhs.bulk - prob2.rhs.bulk) @ (ops4.M_bulk @ diff.bulk)
            + (prob1.rhs.surf - prob2.rhs.surf) @ (ops4.M_surf @ diff.surf)
        )
        assert gap >= theta_star * ops4.l2_norm(diff) ** 2 - 1e-8

    def test_stability_ratio_bounded_under_shrink(self, ops4, rng):
        lam = 1e-3
        base = random_pair(ops4, rng)
        direction = random_pair(ops4, rng)
        u0 = solve_regularized(problem(ops4, rhs=base, lam=lam)).uv
        ratios = []
        for eps in (1e-2, 2.5e-3):
            pert = base + direction * eps
            u = solve_regularized(problem(ops4, rhs=pert, lam=lam)).uv
            num = ops4.h1_norm(u - u0)
            den = eps * ops4.l2_norm(direction)
            ratios.append(num / den)
        assert max(ratios) / min(ratios) <= 4.0

    def test_phase_trace_regime(self, ops4, rng):
        cp0 = CouplingParams(K=0.0, L=1.0, alpha=0.5, beta=2.0)
        sol = solve_regularized(problem(ops4, rhs=random_pair(ops4, rng), cp=cp0, lam=1e-2))
        err = np.abs(sol.uv.bulk[ops4.mesh.surface_nodes] - 0.5 * sol.uv.surf).max()
        assert err == 0.0

    def test_failure_carries_history(self, ops4, rng):
        prob = problem(ops4, rhs=random_pair(ops4, rng, 50.0), lam=1e-3)
        with pytest.raises(EllipticSolveError) as err:
            solve_regularized(prob, max_iter=1)
        assert len(err.value.history) >= 1


class TestContinuation:
    def test_zero_rhs_all_the_way(self, ops4):
        sol = solve_singular(ops4.zero_pair(), ops4, CP, POT)
        assert sol.uv.max_abs() <= 1e-12
        assert sol.extras["separation"] == pytest.approx(1.0)

    def test_bounded_rhs_keeps_separation(self, ops4, rng):
        rhs = BulkSurfacePair(
            rng.uniform(-1, 1, ops4.n_bulk), rng.uniform(-1, 1, ops4.n_surf)
        )
        sol = solve_singular(rhs, ops4, CP, POT)
        assert sol.extras["separation"] > 0.0
        diffs = sol.extras["h1_differences"]
        assert all(b < a for a, b in zip(diffs, diffs[1:]))

    def test_lambda_uniform_bound_ratio(self, ops4, rng):
        # the measured constant in the solution-size bound varies by less
        # than a factor 2 across the whole continuation schedule
        schedule = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)
        rhs_list = [random_pair(ops4, rng) for _ in range(10)]
        consts = []
        for lam in schedule:
            worst = 0.0
            for rhs in rhs_list:
                prob = problem(ops4, rhs=rhs, lam=lam)
                sol = solve_regularized(prob)
                qb = ops4.bulk_at_tri_quad(sol.uv.bulk)
                qs = ops4.surf_at_quad(sol.uv.surf)
                from bscahn.potentials import yosida_prime

                pot_norm = math.sqrt(
                    float(np.sum(ops4.tri_qweights * yosida_prime(qb, POT.theta, prob.yp) ** 2))
                    + float(
                        np.sum(ops4.surf_qweights * yosida_prime(qs, POT.theta_surf, prob.yp) ** 2)
                    )
                )
                size = ops4.h1_norm(sol.uv) + pot_norm
                worst = max(worst, size / (1.0 + ops4.l2_norm(rhs)))
            consts.append(worst)
        assert max(consts) / min(consts) < 2.0

    def test_increasing_schedule_rejected(self, ops4):
        with pytest.raises(ValueError):
            solve_singular(ops4.zero_pair(), ops4, CP, POT, schedule=(1e-2, 1e-1))

    def test_unmet_cauchy_tolerance_reports(self, ops4, rng):
        rhs = random_pair(ops4, rng)
        with pytest.raises(EllipticSolveError, match="Cauchy"):
            solve_singular(rhs, ops4, CP, POT, schedule=(1e-1, 5e-2), cauchy_tol=1e-12)


class TestInitialDataProjection:
    def test_zero_data(self, ops4):
        out = project_initial_data(
            ops4.zero_pair(), ops4.zero_pair(), ops4, CP, POT, YosidaParams(lam=1e-2)
        )
        assert out.max_abs() <= 1e-12

    def test_consistent_constants_exact(self, ops4):
        # alpha = 1 with identical potentials: the compatible constants are
        # shifted by lam * f1'(c) through the resolvent relation
        c, lam = 0.3, 1e-2
        cp = CouplingParams(K=1.0, L=1.0, alpha=1.0, beta=2.0)
        mu0 = float(f1_prime(c, POT.theta) + f2_prime(c, POT.theta_c))
        phi0 = ops4.constant_pair(c, c)
        mt0 = ops4.constant_pair(mu0, mu0)
        out = project_initial_data(phi0, mt0, ops4, cp, POT, YosidaParams(lam=lam))
        expected = c + lam * float(f1_prime(c, POT.theta))
        assert np.abs(out.bulk - expected).max() <= 1e-9
        assert np.abs(out.surf - expected).max() <= 1e-9

    def test_converges_to_the_data_as_lam_shrinks(self, ops4):
        c = 0.3
        cp = CouplingParams(K=1.0, L=1.0, alpha=1.0, beta=2.0)
        mu0 = float(f1_prime(c, POT.theta) + f2_prime(c, POT.theta_c))
        phi0 = ops4.constant_pair(c, c)
        mt0 = ops4.constant_pair(mu0, mu0)
        errs = []
        for lam in (1e-2, 1e-3, 1e-4):
            out = project_initial_data(phi0, mt0, ops4, cp, POT, YosidaParams(lam=lam))
            errs.append(ops4.h1_norm(out - phi0))
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_band_violation_rejected(self, ops4):
        with pytest.raises(ValueError):
            project_initial_data(
                ops4.constant_pair(1.5, 0.0),
                ops4.zero_pair(),
                ops4,
                CP,
                POT,
                YosidaParams(lam=1e-2),
            )


class TestPrincipalPartAndFlux:
    def test_zero_solution_all_zero(self, ops4):
        prob = problem(ops4, lam=1e-2)
        rep = principal_part_bound_check(ops4.zero_pair(), prob)
        assert rep["lhs"] == pytest.approx(0.0, abs=1e-20)

    def test_report_produced_for_random_rhs(self, ops4, rng):
        prob = problem(ops4, rhs=random_pair(ops4, rng), lam=1e-2)
        sol = solve_regularized(prob)
        rep = principal_part_bound_check(sol.uv, prob)
        assert rep["lhs"] >= 0.0
        assert math.isfinite(rep["measured_constant"])
        assert rep["holds_with_measured_constant"]

    def test_scaling_never_shrinks_the_left_side(self, ops4, rng):
        rhs = random_pair(ops4, rng)
        lhs_values = []
        for scale in (1.0, 2.0, 4.0, 8.0, 16.0):
            prob = problem(ops4, rhs=rhs * scale, lam=1e-2)
            sol = solve_regularized(prob)
            lhs_values.append(principal_part_bound_check(sol.uv, prob)["lhs"])
        assert all(b >= a for a, b in zip(lhs_values, lhs_values[1:]))

    def test_flux_consistency_with_robin_relation(self, ops4, rng):
        k = 2.0
        cp = CouplingParams(K=k, L=1.0, alpha=0.5, beta=2.0)
        prob = problem(ops4, rhs=random_pair(ops4, rng), cp=cp, lam=1e-2)
        sol = solve_regularized(prob, tol=1e-12)
        dn = recovered_normal_derivative(sol.uv, prob)
        proxy = (cp.alpha * sol.uv.surf - sol.uv.bulk[ops4.mesh.surface_nodes]) / k
        assert np.abs(dn - proxy).max() <= 1e-9

    def test_trace_regime_principal_part_minimal_norm(self, ops2, rng):
        cp0 = CouplingParams(K=0.0, L=1.0, alpha=1.0, beta=2.0)
        prob = problem(ops2, rhs=random_pair(ops2, rng), cp=cp0, lam=1e-2)
        sol = solve_regularized(prob)
        rep = principal_part_bound_check(sol.uv, prob)
        assert math.isfinite(rep["lhs"])

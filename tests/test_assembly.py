import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from bscahn.assembly import (
    BulkSurfacePair,
    CompatibilityError,
    CouplingParams,
    JacobianPattern,
    LaggedFactor,
    NewtonSystem,
    SolverError,
    SolverFailure,
    SPDLaggedFactor,
    assemble,
    same_bits,
    sigma,
)

from bscahn.mesh import generate_unit_square
from bscahn.potentials import PotentialSpec, YosidaParams, convex_terms

from _oracles import (
    bulk_at_tri_quad_einsum,
    dense_poincare,
    dense_solve_S,
    p1_operators_by_blocks,
    surf_at_quad_einsum,
    surf_quad_load_einsum,
    surf_weighted_mass_data_einsum,
    tri_quad_load_einsum,
    tri_weighted_mass_data_einsum,
)

CP = CouplingParams(K=1.0, L=1.0, alpha=0.5, beta=2.0)


def random_pair(ops, rng, scale=1.0):
    return BulkSurfacePair(
        scale * rng.standard_normal(ops.n_bulk), scale * rng.standard_normal(ops.n_surf)
    )


def mean_free(ops, cp, pair):
    if math.isinf(cp.L):
        mb, ms = ops.component_means(pair)
        return pair - ops.constant_pair(mb, ms)
    c = ops.bs_mean(pair, cp)
    return pair - ops.constant_pair(cp.beta * c, c)


class TestCouplingParams:
    def test_sigma_cases(self):
        assert sigma(0.0) == 0.0
        assert sigma(math.inf) == 0.0
        assert sigma(4.0) == 0.25

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            CouplingParams(K=1.0, L=1.0, alpha=1.5, beta=1.0)

    def test_degenerate_measures_rejected(self, ops2):
        cp = CouplingParams(K=1.0, L=1.0, alpha=-1.0, beta=4.0)
        with pytest.raises(ValueError, match="degenerate"):
            cp.validate_measures(ops2.area_bulk, ops2.area_surf)


class TestOperators:
    def test_measures_exact(self, ops2):
        assert ops2.area_bulk == pytest.approx(1.0, abs=1e-12)
        assert ops2.area_surf == pytest.approx(4.0, abs=1e-12)

    def test_constants_in_stiffness_kernel(self, ops2):
        one = np.ones(ops2.n_bulk)
        assert np.abs(ops2.A_bulk @ one).max() <= 1e-12
        assert np.abs(ops2.A_surf @ np.ones(ops2.n_surf)).max() <= 1e-12

    def test_constant_mass_quadratic_form(self, ops2):
        c = 3.0 * np.ones(ops2.n_bulk)
        assert c @ (ops2.M_bulk @ c) == pytest.approx(9.0, abs=1e-12)

    def test_matrices_symmetric_and_definite(self, ops4):
        for mat in (ops4.A_bulk, ops4.M_bulk, ops4.A_surf, ops4.M_surf):
            dense = mat.toarray()
            assert np.abs(dense - dense.T).max() <= 1e-14
        for mat in (ops4.M_bulk, ops4.M_surf):
            w = np.linalg.eigvalsh(mat.toarray())
            assert w.min() > 0
        for mat in (ops4.A_bulk, ops4.A_surf):
            w = np.linalg.eigvalsh(mat.toarray())
            assert w.min() >= -1e-12

    def test_quadrature_mass_identity(self, ops4, rng):
        # the 3-point rule integrates products of linear fields exactly, so
        # the quadrature norm equals the consistent-mass norm
        u = rng.standard_normal(ops4.n_bulk)
        quad = float(np.sum(ops4.tri_qweights * ops4.bulk_at_tri_quad(u) ** 2))
        assert quad == pytest.approx(float(u @ (ops4.M_bulk @ u)), rel=1e-13)
        v = rng.standard_normal(ops4.n_surf)
        quad_s = float(np.sum(ops4.surf_qweights * ops4.surf_at_quad(v) ** 2))
        assert quad_s == pytest.approx(float(v @ (ops4.M_surf @ v)), rel=1e-13)


class TestQuadratureKernels:
    """Each quadrature kernel against its einsum form in ``_oracles``, bitwise:
    the triangle basis values 1/2 and 0 make every product exact, and the
    surface sums its products term by term as einsum does."""

    def test_evaluation(self, oracle_ops, rng):
        ops = oracle_ops
        v, w = rng.standard_normal(ops.n_bulk), rng.standard_normal(ops.n_surf)
        assert np.array_equal(ops.bulk_at_tri_quad(v), bulk_at_tri_quad_einsum(ops, v))
        assert np.array_equal(ops.surf_at_quad(w), surf_at_quad_einsum(ops, w))

    def test_weighted_mass_data(self, oracle_ops, rng):
        ops = oracle_ops
        qb = rng.uniform(0.1, 2.0, ops.tri_qweights.shape)
        qs = rng.uniform(0.1, 2.0, ops.surf_qweights.shape)
        assert np.array_equal(ops.tri_weighted_mass_data(qb), tri_weighted_mass_data_einsum(ops, qb))
        assert np.array_equal(ops.surf_weighted_mass_data(qs), surf_weighted_mass_data_einsum(ops, qs))

    def test_loads(self, oracle_ops, rng):
        ops = oracle_ops
        qb = rng.standard_normal(ops.tri_qweights.shape)
        qs = rng.standard_normal(ops.surf_qweights.shape)
        assert np.array_equal(ops.tri_quad_load(qb), tri_quad_load_einsum(ops, qb))
        assert np.array_equal(ops.surf_quad_load(qs), surf_quad_load_einsum(ops, qs))


class TestElementScatter:
    @pytest.mark.parametrize("n", [2, 3, 33])
    def test_operators_equal_the_per_block_formulas_bitwise(self, n, rng):
        # every P1 operator goes through one element-matrix scatter; summing
        # at most two terms per surface entry leaves each bit where the
        # hand-built blocks put it (n = 3 and 33 catch h * (1/3) for h / 3)
        ops = assemble(generate_unit_square(n))
        w = rng.uniform(0.1, 2.0, ops.n_surf)
        ref = p1_operators_by_blocks(ops.mesh, w)
        got = {
            "A_bulk": ops.A_bulk,
            "A_surf": ops.A_surf,
            "M_surf": ops.M_surf,
            "surf_weighted_stiffness": ops.surf_weighted_stiffness(w),
        }
        for name, mat in got.items():
            for part in ("indptr", "indices", "data"):
                a, b = getattr(mat, part), getattr(ref[name], part)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (name, part)


class TestBilinearForms:
    def test_compatible_constants_vanish(self, ops4):
        a = ops4.constant_pair(3.0, 1.5)  # bulk = beta * surf
        assert ops4.inner_lb(a, a, CP) == pytest.approx(0.0, abs=1e-12)

    def test_surface_mode_against_loop_quadrature(self, ops8):
        arc = ops8.mesh.arc_lengths[:-1]
        psi = np.sin(2 * np.pi * arc / ops8.mesh.perimeter)
        pair = BulkSurfacePair(np.zeros(ops8.n_bulk), psi)
        val = ops8.inner_lb(pair, pair, CP)
        # independent piecewise integration of the linear interpolant
        h = ops8.surf_h
        grad_part = float(np.sum((np.roll(psi, -1) - psi) ** 2 / h))
        p0, p1 = psi, np.roll(psi, -1)
        mass_part = float(np.sum(h * (p0 * p0 + p0 * p1 + p1 * p1) / 3.0))
        assert val == pytest.approx(grad_part + CP.sigma_L * CP.beta**2 * mass_part, rel=1e-12)

    def test_unbounded_exchange_drops_coupling(self, ops8, rng):
        cp_inf = CouplingParams(K=1.0, L=math.inf, alpha=0.5, beta=2.0)
        a = random_pair(ops8, rng)
        expected = float(
            a.bulk @ (ops8.A_bulk @ a.bulk) + a.surf @ (ops8.A_surf @ a.surf)
        )
        assert ops8.inner_lb(a, a, cp_inf) == pytest.approx(expected, rel=1e-13)

    def test_weighted_constant_in_form_kernel(self, ops4, rng):
        # the pair (beta, 1) annihilates the exchange form against anything
        kb = ops4.constant_pair(CP.beta, 1.0)
        for _ in range(5):
            x = random_pair(ops4, rng)
            assert abs(ops4.inner_lb(x, kb, CP)) <= 1e-11

    def test_ka_form_positive_and_definite_on_mean_free(self, ops4, rng):
        for _ in range(10):
            a = mean_free(ops4, CP, random_pair(ops4, rng))
            q = ops4.inner_ka(a, a, CP)
            assert q >= 0.0
            if ops4.l2_norm(a) > 1e-8:
                assert q > 0.0

    def test_shape_mismatch_rejected(self, ops2, ops4):
        a = ops4.zero_pair()
        with pytest.raises(ValueError, match="shape"):
            ops2.inner_lb(a, a, CP)


class TestMeans:
    def test_weighted_constant_has_unit_mean(self, ops2):
        assert ops2.bs_mean(ops2.constant_pair(2.0, 1.0), CP) == pytest.approx(1.0)

    def test_zero_pair(self, ops2):
        assert ops2.bs_mean(ops2.zero_pair(), CP) == 0.0

    def test_square_arithmetic(self, ops2):
        # |bulk| = 1, |surface| = 4, weight 2: (2*1*1 + 0) / (4 + 4)
        assert ops2.bs_mean(ops2.constant_pair(1.0, 0.0), CP) == pytest.approx(0.25)

    def test_linearity(self, ops4, rng):
        a, b = random_pair(ops4, rng), random_pair(ops4, rng)
        lhs = ops4.bs_mean(a + 2.0 * b, CP)
        assert lhs == pytest.approx(ops4.bs_mean(a, CP) + 2.0 * ops4.bs_mean(b, CP), rel=1e-12)


class TestConstraintProjection:
    def test_identity_off_the_zero_regime(self, ops4, rng):
        a = random_pair(ops4, rng)
        out = ops4.constrain(a, ops4.reduction(CP.L, CP.beta))
        assert np.array_equal(out.bulk, a.bulk) and np.array_equal(out.surf, a.surf)
        out.bulk[0] += 1.0
        assert out.bulk[0] != a.bulk[0]  # a copy

    def test_overwrites_boundary_values(self, ops4):
        cp = CouplingParams(K=1.0, L=0.0, alpha=0.5, beta=2.0)
        a = BulkSurfacePair(np.zeros(ops4.n_bulk), np.ones(ops4.n_surf))
        out = ops4.constrain(a, ops4.reduction(cp.L, cp.beta))
        assert np.all(out.bulk[ops4.mesh.surface_nodes] == 2.0)
        assert np.all(out.bulk[ops4.interior_nodes] == 0.0)
        assert np.array_equal(out.surf, a.surf)

    def test_phase_trace_with_negative_weight(self, ops4, rng):
        cp = CouplingParams(K=0.0, L=1.0, alpha=-1.0, beta=2.0)
        psi = rng.standard_normal(ops4.n_surf)
        a = BulkSurfacePair(rng.standard_normal(ops4.n_bulk), psi)
        out = ops4.constrain(a, ops4.reduction(cp.K, cp.alpha))
        assert np.array_equal(out.bulk[ops4.mesh.surface_nodes], -psi)
        assert np.array_equal(out.bulk[ops4.interior_nodes], a.bulk[ops4.interior_nodes])

    def test_idempotent(self, ops4, rng):
        P = ops4.prolongator(2.0)
        a = random_pair(ops4, rng)
        once = ops4.constrain(a, P)
        twice = ops4.constrain(once, P)
        assert np.array_equal(once.bulk, twice.bulk) and np.array_equal(once.surf, twice.surf)

    @pytest.mark.parametrize("n", [4, 8])
    @pytest.mark.parametrize("weight", [1.0, 0.5, -0.5, 0.0])
    def test_reduce_is_the_transpose_product_bit_for_bit(self, n, weight, rng):
        # the row gather sums each reduced entry in the order P^T's product does
        ops = assemble(generate_unit_square(n))
        P = ops.prolongator(weight)
        for _ in range(5):
            vec = rng.standard_normal(ops.n_bulk + ops.n_surf)
            assert same_bits(ops.reduce(vec, P), P.T @ vec)


class TestInverseOperator:
    def test_zero_maps_to_zero(self, ops2):
        s = ops2.solve_S_lb(ops2.zero_pair(), CP)
        assert ops2.l2_norm(s) <= 1e-14

    def test_incompatible_rhs_reports_mean(self, ops2):
        with pytest.raises(CompatibilityError, match="integral"):
            ops2.solve_S_lb(ops2.constant_pair(1.0, 1.0), CP)

    def test_definitional_dual_identity(self, ops2, rng):
        a = mean_free(ops2, CP, random_pair(ops2, rng))
        s = ops2.solve_S_lb(a, CP)
        lhs = ops2.dual_norm(a, CP) ** 2
        rhs = -(
            float(s.bulk @ (ops2.M_bulk @ a.bulk)) + float(s.surf @ (ops2.M_surf @ a.surf))
        )
        assert lhs == pytest.approx(rhs, rel=1e-10)

    @pytest.mark.parametrize("L", [0.0, 1.0, math.inf])
    def test_dense_pseudoinverse_oracle(self, ops2, L):
        cp = CouplingParams(K=1.0, L=L, alpha=0.5, beta=2.0)
        rng = np.random.default_rng(42)
        a = mean_free(ops2, cp, random_pair(ops2, rng))
        s = ops2.solve_S_lb(a, cp)
        s_oracle = dense_solve_S(ops2, cp, a)
        gap = ops2.l2_norm(s - s_oracle)
        assert gap <= 1e-8
        if L == 0.0:
            trace_err = np.abs(
                s.bulk[ops2.mesh.surface_nodes] - cp.beta * s.surf
            ).max()
            assert trace_err <= 1e-12

    def test_solution_is_mean_free(self, ops4, rng):
        a = mean_free(ops4, CP, random_pair(ops4, rng))
        s = ops4.solve_S_lb(a, CP)
        assert abs(ops4.bs_mean(s, CP)) <= 1e-12

    def test_variational_identity_against_full_basis(self, ops4, rng):
        # at the solution the constraint multiplier vanishes, so the weak
        # identity holds for every test pair, not only mean-free ones
        a = mean_free(ops4, CP, random_pair(ops4, rng))
        s = ops4.solve_S_lb(a, CP)
        for _ in range(5):
            t = random_pair(ops4, rng)
            lhs = ops4.inner_lb(s, t, CP)
            rhs = -(
                float(t.bulk @ (ops4.M_bulk @ a.bulk))
                + float(t.surf @ (ops4.M_surf @ a.surf))
            )
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-10)

    def test_self_adjoint(self, ops4, rng):
        a = mean_free(ops4, CP, random_pair(ops4, rng))
        b = mean_free(ops4, CP, random_pair(ops4, rng))
        sa, sb = ops4.solve_S_lb(a, CP), ops4.solve_S_lb(b, CP)

        def pairing(x, y):
            return float(x.bulk @ (ops4.M_bulk @ y.bulk) + x.surf @ (ops4.M_surf @ y.surf))

        assert pairing(a, sb) == pytest.approx(pairing(b, sa), rel=1e-10, abs=1e-12)


class TestDualNorm:
    def test_zero(self, ops2):
        assert ops2.dual_norm(ops2.zero_pair(), CP) == 0.0

    def test_absolute_homogeneity(self, ops4, rng):
        a = mean_free(ops4, CP, random_pair(ops4, rng))
        assert ops4.dual_norm(-3.0 * a, CP) == pytest.approx(
            3.0 * ops4.dual_norm(a, CP), rel=1e-10
        )

    def test_against_dense_oracle(self, ops2):
        rng = np.random.default_rng(7)
        a = mean_free(ops2, CP, random_pair(ops2, rng))
        s_oracle = dense_solve_S(ops2, CP, a)
        val_oracle = math.sqrt(ops2.inner_lb(s_oracle, s_oracle, CP))
        assert ops2.dual_norm(a, CP) == pytest.approx(val_oracle, rel=1e-8)


class TestPoincare:
    def test_positive_and_finite(self, ops4):
        c = ops4.poincare_constant(CP)
        assert 0.0 < c < math.inf

    def test_monotone_in_exchange_strength(self, ops2):
        c1 = ops2.poincare_constant(CouplingParams(K=1.0, L=1.0, alpha=1.0, beta=2.0))
        c2 = ops2.poincare_constant(CouplingParams(K=0.5, L=1.0, alpha=1.0, beta=2.0))
        assert c2 <= c1 + 1e-12

    @pytest.mark.parametrize("K,L,alpha,beta", [
        (1.0, 1.0, 1.0, 2.0), (0.0, 1.0, 1.0, 2.0), (1.0, 1.0, 0.5, 2.0), (0.0, 1.0, -0.5, 2.0),
        (1.0, math.inf, 0.5, 2.0), (1.0, 1.0, 0.5, 0.0),
    ])
    def test_dense_eigensolver_oracle(self, ops2, K, L, alpha, beta):
        cp = CouplingParams(K=K, L=L, alpha=alpha, beta=beta)
        assert ops2.poincare_constant(cp) == pytest.approx(
            dense_poincare(ops2, cp), abs=1e-8
        )

    def test_eigensolver_failure_is_a_solver_error(self, ops2, monkeypatch):
        def unconverged(*args, **kwargs):
            raise spla.ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

        monkeypatch.setattr(spla, "eigsh", unconverged)
        with pytest.raises(SolverError, match="Poincare eigenvalue: .*no convergence"):
            ops2.poincare_constant(CP)

    def test_unbounded_regime_rejected(self, ops2):
        with pytest.raises(ValueError):
            ops2.poincare_constant(CouplingParams(K=math.inf, L=1.0, alpha=0.5, beta=2.0))

    def test_bounds_l2_by_coupled_form(self, ops4, rng):
        c = ops4.poincare_constant(CP)
        for _ in range(10):
            a = mean_free(ops4, CP, random_pair(ops4, rng))
            assert ops4.l2_norm(a) <= c * math.sqrt(ops4.inner_ka(a, a, CP)) * (1 + 1e-10)


def curvature_matrix(ops, pattern, scale):
    """stiffness + mass + (scale * a smooth positive weight) mass on the pattern."""
    q_bulk = scale * (1.0 + ops.tri_qcoords[..., 0] ** 2)
    q_surf = scale * (1.0 + ops.surf_qcoords[..., 1] ** 2)
    return pattern.matrix(pattern.fixed + pattern.weighted_mass(ops, q_bulk, q_surf))


class TestLaggedFactor:
    @pytest.fixture
    def pattern(self, ops4):
        lin = (ops4.form_matrix(1.0, 0.5) + ops4.block_mass).tocoo()
        return JacobianPattern(ops4, lin.shape[0], None, fixed=[(lin.row, lin.col, lin.data)])

    def test_nearby_matrix_is_refined_on_the_held_factor(self, ops4, pattern, rng):
        factor = LaggedFactor()
        b = rng.standard_normal(pattern.n)
        factor.solve(curvature_matrix(ops4, pattern, 1.0), b)
        held = factor.lu
        current = curvature_matrix(ops4, pattern, 1.05)
        x = factor.solve(current, b)
        assert factor.factorizations == 1
        assert factor.lu is held
        assert np.linalg.norm(b - current @ x) <= 1e-10 * np.linalg.norm(b)

    @pytest.mark.parametrize("kind", [LaggedFactor, SPDLaggedFactor])
    def test_held_solve_stops_at_the_looser_of_its_targets(self, ops4, pattern, kind, rng):
        b = rng.standard_normal(pattern.n)
        current = curvature_matrix(ops4, pattern, 1.05)
        solved = {}
        for atol in (None, 0.0, 1e-12 * np.linalg.norm(b), 1e-6 * np.linalg.norm(b)):
            factor = kind()
            factor.solve(curvature_matrix(ops4, pattern, 1.0), b)
            x = factor.solve(current, b) if atol is None else factor.solve(current, b, atol)
            assert factor.factorizations == 1
            target = max(1e-10 * np.linalg.norm(b), atol or 0.0)
            assert np.linalg.norm(b - current @ x) <= target
            solved[atol] = (x, factor.held_iterations)
        (default, sweeps), *rest, (_, loose) = solved.values()
        # an atol below the relative target changes nothing, bit for bit
        assert all(same_bits(x, default) and n == sweeps for x, n in rest)
        assert loose < sweeps

    def test_very_different_matrix_is_refactored(self, ops4, pattern, rng):
        factor = LaggedFactor()
        b = rng.standard_normal(pattern.n)
        factor.solve(curvature_matrix(ops4, pattern, 1.0), b)
        current = curvature_matrix(ops4, pattern, 1e4)
        x = factor.solve(current, b)
        ref = spla.spsolve(current, b)
        assert factor.factorizations == 2
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_drop_frees_the_factor_and_keeps_the_count(self, ops4, pattern, rng):
        factor = LaggedFactor()
        factor.solve(curvature_matrix(ops4, pattern, 1.0), rng.standard_normal(pattern.n))
        factor.drop()
        assert factor.lu is None
        assert factor.factorizations == 1


class NewtonFailure(SolverFailure):
    def __init__(self, message, history):
        super().__init__(message)
        self.history = list(history)


class TestNewtonSystem:
    """sign * (the shifted elliptic system): B = sign (S + M), b = sign M f,
    whose Newton matrices are SPD for sign +1 and negative definite for -1."""

    @pytest.fixture
    def pattern(self, ops4):
        lin = (ops4.form_matrix(1.0, 0.5) + ops4.block_mass).tocoo()
        return JacobianPattern(ops4, lin.shape[0], None, fixed=[(lin.row, lin.col, lin.data)])

    @staticmethod
    def system(ops, pattern, sign, factor, rhs):
        b = sign * (ops.block_mass @ ops.to_vector(rhs))
        yp = YosidaParams(lam=1e-3)
        return NewtonSystem(
            ops, pattern, pattern.matrix(sign * pattern.fixed), b,
            lambda u: convex_terms(ops, u, PotentialSpec(), yp), sign, factor, NewtonFailure,
        )

    @pytest.mark.parametrize("sign,kind", [(1, SPDLaggedFactor), (-1, LaggedFactor)])
    def test_a_failure_on_an_inherited_factor_is_the_one_a_fresh_factor_raises(
        self, ops4, pattern, sign, kind, rng
    ):
        rhs, start = random_pair(ops4, rng, 50.0), np.zeros(pattern.n)
        with pytest.raises(NewtonFailure) as fresh:
            self.system(ops4, pattern, sign, kind(), rhs).solve(start, 1e-10, 1, [])
        # a factor held from a solve near, not at, the failing solve's start:
        # refined on it, the first direction differs from the fresh one in
        # its last bits, and so does the failure's history
        factor, near = kind(), rng.uniform(-0.05, 0.05, pattern.n)
        self.system(ops4, pattern, sign, factor, random_pair(ops4, rng, 0.01)).solve(
            near, 1e-10, 60, []
        )
        before = factor.factorizations
        history = [1.0]
        with pytest.raises(NewtonFailure) as held:
            self.system(ops4, pattern, sign, factor, rhs).solve(start, 1e-10, 1, history)
        assert str(held.value) == str(fresh.value)
        assert held.value.history == [1.0] + fresh.value.history
        assert factor.factorizations == before + 1  # the retry's own factor

    @pytest.mark.parametrize("sign", [1, -1])
    def test_the_two_signs_take_the_same_newton_steps(self, ops4, pattern, sign, rng):
        rhs = random_pair(ops4, rng, 5.0)
        x, _, u, its, trials = self.system(ops4, pattern, sign, LaggedFactor(), rhs).solve(
            np.zeros(pattern.n), 1e-10, 60, []
        )
        ref = self.system(ops4, pattern, 1, LaggedFactor(), rhs).solve(
            np.zeros(pattern.n), 1e-10, 60, []
        )
        assert (its, trials) == ref[3:]
        assert np.linalg.norm(x - ref[0]) <= 1e-12 * np.linalg.norm(ref[0])
        assert np.array_equal(u, x)  # no prolongator: the phase vector is the unknown

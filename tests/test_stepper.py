import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from bscahn import potentials, stepper
from bscahn.assembly import BulkSurfacePair, CouplingParams, JacobianPattern, assemble, same_bits
from bscahn.config import ConfigError, build_initial, parse_config_text
from bscahn.mesh import generate_unit_square
from bscahn.potentials import (
    PotentialSpec,
    YosidaParams,
    convex_terms,
    f1_prime,
    f2_prime,
    yosida_second,
)
from bscahn.stepper import (
    ConstantMobility,
    QuadraticMobility,
    State,
    StepError,
    StepperConfig,
    TimeStepper,
    Trajectory,
)
from bscahn.velocity import (
    SineEnvelope,
    StreamFunctionVelocity,
    SurfaceSlipVelocity,
    ZeroVelocity,
)

from _oracles import (
    concave_load_by_quadrature,
    convection_load_by_quadrature,
    energy_by_loops,
    per_field_initial_mu_theta,
)

POT = PotentialSpec()
REGIMES = list(itertools.product([0.0, 1.0, math.inf], repeat=2))


def make_config(K=1.0, L=1.0, alpha=0.5, beta=2.0, dt=1e-3, lam=1e-3, mobility=None):
    return StepperConfig(
        dt=dt,
        cp=CouplingParams(K=K, L=L, alpha=alpha, beta=beta),
        pot=POT,
        yp=YosidaParams(lam=lam),
        mobility=mobility or ConstantMobility(),
    )


def cap_newton_at_one_unreachable_update(mp):
    """Make every step's Newton fail: one update to a tolerance it cannot meet."""
    mp.setattr(stepper, "_NEWTON_MAX_ITER", 1)
    mp.setattr(stepper, "_NEWTON_TOL", 1e-15)


def admissible_random(ops, cp, rng, mean=0.05, amp=0.3):
    pair = BulkSurfacePair(
        mean + amp * rng.uniform(-1, 1, ops.n_bulk),
        mean + amp * rng.uniform(-1, 1, ops.n_surf),
    )
    if cp.K == 0.0:
        pair.bulk[ops.mesh.surface_nodes] = cp.alpha * pair.surf
    return pair


class TestEnergyAndMass:
    def test_zero_state_zero_energy(self, ops4):
        st = TimeStepper(ops4, make_config())
        assert st.energy(ops4.zero_pair()).total == pytest.approx(0.0, abs=1e-15)

    def test_compatible_constants_closed_form(self, ops4):
        # bulk = c, surface = c / alpha kills the exchange term; the rest is
        # measure times pointwise potential values
        from bscahn.potentials import f2, yosida_value

        c, alpha = 0.2, 0.5
        cfg = make_config(alpha=alpha)
        st = TimeStepper(ops4, cfg)
        pair = ops4.constant_pair(c, c / alpha)
        e = st.energy(pair)
        assert e.coupling == pytest.approx(0.0, abs=1e-14)
        expected = (
            float(yosida_value(c, POT.theta, cfg.yp)) + float(f2(c, POT.theta_c))
        ) * ops4.area_bulk + (
            float(yosida_value(c / alpha, POT.theta_surf, cfg.yp))
            + float(f2(c / alpha, POT.theta_c_surf))
        ) * ops4.area_surf
        assert e.total == pytest.approx(expected, rel=1e-12)

    def test_energy_against_loop_quadrature_oracle(self, ops2, rng):
        cfg = make_config()
        st = TimeStepper(ops2, cfg)
        pair = BulkSurfacePair(
            rng.uniform(-0.8, 0.8, ops2.n_bulk), rng.uniform(-0.8, 0.8, ops2.n_surf)
        )
        oracle = energy_by_loops(ops2.mesh, pair, cfg.cp, POT, cfg.yp)
        assert st.energy(pair).total == pytest.approx(oracle, rel=1e-12)

    def test_breakdown_sums_to_total(self, ops4, rng):
        st = TimeStepper(ops4, make_config())
        pair = admissible_random(ops4, st.cfg.cp, rng)
        e = st.energy(pair)
        assert e.total == pytest.approx(
            e.grad_bulk + e.grad_surf + e.pot_bulk + e.pot_surf + e.coupling
        )

    def test_coupling_absent_in_limit_regimes(self, ops4, rng):
        for K in (0.0, math.inf):
            st = TimeStepper(ops4, make_config(K=K, alpha=1.0))
            pair = admissible_random(ops4, st.cfg.cp, rng)
            assert st.energy(pair).coupling == 0.0

    def test_mass_examples(self, ops2):
        st = TimeStepper(ops2, make_config(beta=2.0))
        assert st.mass_of(ops2.zero_pair()) == (0.0, 0.0, 0.0)
        weighted, mb, ms = st.mass_of(ops2.constant_pair(1.0, 1.0))
        assert (weighted, mb, ms) == pytest.approx((6.0, 1.0, 4.0))

    def test_weighted_total_definitional(self, ops4, rng):
        st = TimeStepper(ops4, make_config(beta=2.0))
        pair = admissible_random(ops4, st.cfg.cp, rng)
        weighted, mb, ms = st.mass_of(pair)
        assert weighted == 2.0 * mb + ms


class TestSingleStep:
    @pytest.mark.parametrize("K,L", REGIMES)
    def test_constant_state_is_a_fixed_point(self, ops4, K, L):
        # alpha = beta = 1 with identical potentials makes the constant
        # chemical potentials compatible across the boundary in every regime
        c = 0.3
        cfg = make_config(K=K, L=L, alpha=1.0, beta=1.0, dt=1e-2, lam=1e-2)
        st = TimeStepper(ops4, cfg)
        init = ops4.constant_pair(c, c)
        traj = st.run(init, ZeroVelocity(), t_end=3e-2)
        assert traj.failure is None
        assert ops4.l2_norm(traj.final.phi_psi - init) <= 1e-10
        assert np.ptp(traj.final.mu_theta.bulk) <= 1e-10

    @pytest.mark.parametrize("K,L", REGIMES)
    def test_energy_dissipates_without_transport(self, ops8, K, L, rng):
        cfg = make_config(K=K, L=L)
        st = TimeStepper(ops8, cfg)
        traj = st.run(admissible_random(ops8, cfg.cp, rng), ZeroVelocity(), t_end=0.01)
        assert traj.failure is None
        energies = [r["energy_total"] for r in traj.rows]
        for a, b in zip(energies, energies[1:]):
            assert b <= a + 1e-10 * (1.0 + abs(a))

    @pytest.mark.parametrize("K,L", REGIMES)
    def test_mass_identity_under_transport(self, ops8, K, L, rng):
        cfg = make_config(K=K, L=L)
        st = TimeStepper(ops8, cfg)
        field = StreamFunctionVelocity(amplitude=1.0, profile="sine2")
        traj = st.run(admissible_random(ops8, cfg.cp, rng), field, t_end=0.01)
        assert traj.failure is None
        rows = traj.rows
        w0 = rows[0]["mass_weighted"]
        for r in rows[1:]:
            assert abs(r["mass_weighted"] - w0) <= 1e-10 * (1.0 + abs(w0))
        if math.isinf(L):
            b0, s0 = rows[0]["mass_bulk"], rows[0]["mass_surf"]
            for r in rows[1:]:
                assert abs(r["mass_bulk"] - b0) <= 1e-10 * (1.0 + abs(b0))
                assert abs(r["mass_surf"] - s0) <= 1e-10 * (1.0 + abs(s0))

    def test_trace_constraints_hold_identically(self, ops4, rng):
        cfg = make_config(K=0.0, L=0.0)
        st = TimeStepper(ops4, cfg)
        init = admissible_random(ops4, cfg.cp, rng)
        traj = st.run(init, ZeroVelocity(), t_end=5e-3)
        loop = ops4.mesh.surface_nodes
        for state in traj.states:
            assert np.array_equal(
                state.phi_psi.bulk[loop], cfg.cp.alpha * state.phi_psi.surf
            )
            assert np.array_equal(
                state.mu_theta.bulk[loop], cfg.cp.beta * state.mu_theta.surf
            )

    def test_surface_slip_transport(self, ops8, rng):
        cfg = make_config(K=1.0, L=1.0)
        st = TimeStepper(ops8, cfg)
        traj = st.run(
            admissible_random(ops8, cfg.cp, rng), SurfaceSlipVelocity(speed=1.0), t_end=0.01
        )
        assert traj.failure is None
        rows = traj.rows
        w0 = rows[0]["mass_weighted"]
        assert max(abs(r["mass_weighted"] - w0) for r in rows) <= 1e-10 * (1 + abs(w0))

    def test_variable_mobility_keeps_the_structure(self, ops8, rng):
        cfg = make_config(mobility=QuadraticMobility())
        st = TimeStepper(ops8, cfg)
        traj = st.run(admissible_random(ops8, cfg.cp, rng), ZeroVelocity(), t_end=0.01)
        energies = [r["energy_total"] for r in traj.rows]
        for a, b in zip(energies, energies[1:]):
            assert b <= a + 1e-10 * (1.0 + abs(a))
        w = [r["mass_weighted"] for r in traj.rows]
        assert max(abs(x - w[0]) for x in w) <= 1e-10 * (1 + abs(w[0]))

    def test_nonconvergence_advises_halving(self, ops4, rng, monkeypatch):
        cfg = make_config(dt=1e-3)
        st = TimeStepper(ops4, cfg)
        st_bad = TimeStepper(ops4, cfg)
        init = admissible_random(ops4, cfg.cp, rng)
        state = st.run(init, ZeroVelocity(), t_end=1e-3).states[0]
        cap_newton_at_one_unreachable_update(monkeypatch)
        with pytest.raises(StepError, match="halve dt"):
            st_bad.step(state, StreamFunctionVelocity(amplitude=1.0), cfg.dt)

    def test_convergence_on_the_last_allowed_update_is_accepted(self, ops4, monkeypatch):
        # this step needs three Newton updates; with _NEWTON_MAX_ITER = 3 the
        # iterate after the third one must be checked, not rejected
        cfg = make_config()
        field = StreamFunctionVelocity(amplitude=1.0, profile="sine2")
        init = admissible_random(ops4, cfg.cp, np.random.default_rng(0))
        free = TimeStepper(ops4, cfg).run(init, field, t_end=1e-3)
        assert free.rows[1]["newton_iters"] == 3
        monkeypatch.setattr(stepper, "_NEWTON_MAX_ITER", 3)
        capped = TimeStepper(ops4, cfg).run(init, field, 1e-3)
        assert capped.failure is None
        assert capped.rows[1]["newton_iters"] == 3
        assert np.array_equal(capped.final.phi_psi.bulk, free.final.phi_psi.bulk)


class TestLinearLoads:
    """The per-run transport operator and the concave load, which skip the
    quadrature, against the loads summed at quadrature points in
    ``_oracles``: to 1e-15 of the reference's max-norm."""

    @pytest.mark.parametrize(
        "field",
        [
            StreamFunctionVelocity(amplitude=3.0, profile="sine2", envelope=SineEnvelope(5.0)),
            StreamFunctionVelocity(modes=((1, 2, 1.0), (2, 1, -0.5))),
            SurfaceSlipVelocity(speed=1.0),
        ],
    )
    def test_convection_load(self, oracle_ops, field, rng):
        ops = oracle_ops
        st = TimeStepper(ops, make_config())
        pair = admissible_random(ops, st.cfg.cp, rng)
        ref = convection_load_by_quadrature(ops, field, pair, 0.3)
        nb = ops.n_bulk
        for _ in range(2):  # the second call reuses the field's bulk transport
            out = st.convection_load(pair, field, 0.3)
            assert np.any(out)
            assert np.abs(out[:nb] - ref[:nb]).max() <= 1e-15 * np.abs(ref[:nb]).max()
            assert np.array_equal(out[nb:], ref[nb:])

    def test_concave_load(self, oracle_ops, rng):
        st = TimeStepper(oracle_ops, make_config())
        pair = admissible_random(oracle_ops, st.cfg.cp, rng)
        ref = concave_load_by_quadrature(oracle_ops, pair, POT)
        out = st._concave_load(st.mass @ oracle_ops.to_vector(pair))
        assert np.abs(out - ref).max() <= 1e-15 * np.abs(ref).max()


class TestRun:
    def test_constant_trajectory(self, ops4):
        cfg = make_config(alpha=1.0, beta=1.0, dt=1e-2, lam=1e-2)
        st = TimeStepper(ops4, cfg)
        init = ops4.constant_pair(0.25, 0.25)
        traj = st.run(init, ZeroVelocity(), t_end=0.05)
        for state in traj.states:
            assert ops4.l2_norm(state.phi_psi - init) <= 1e-10

    def test_long_run_mass_and_energy(self, ops8, rng):
        cfg = make_config()
        st = TimeStepper(ops8, cfg)
        traj = st.run(admissible_random(ops8, cfg.cp, rng, mean=0.1), ZeroVelocity(), 0.2)
        assert traj.failure is None
        assert len(traj.states) == 201
        energies = [r["energy_total"] for r in traj.rows]
        assert all(b <= a + 1e-10 * (1 + abs(a)) for a, b in zip(energies, energies[1:]))
        w = [r["mass_weighted"] for r in traj.rows]
        assert max(abs(x - w[0]) for x in w) <= 1e-9 * (1 + abs(w[0]))

    def test_initial_band_validated(self, ops4):
        st = TimeStepper(ops4, make_config())
        with pytest.raises(ValueError, match="<= 1"):
            st.run(ops4.constant_pair(1.2, 0.0), ZeroVelocity(), 1e-3)

    @pytest.mark.parametrize("K", [0.0, 1.0])
    def test_nan_initial_data_fails_the_band_check(self, ops4, K):
        st = TimeStepper(ops4, make_config(K=K, alpha=1.0))
        bad = ops4.constant_pair(0.2, 0.2)
        bad.bulk[ops4.interior_nodes[0]] = math.nan
        assert math.isnan(bad.max_abs())
        with pytest.raises(ValueError, match=r"max \|value\| <= 1"):
            st.run(bad, ZeroVelocity(), 1e-3)

    def test_mean_condition_validated(self, ops4):
        st = TimeStepper(ops4, make_config(beta=2.0))
        # generalized mean fine but weighted mean beta*m exceeds 1
        bad = ops4.constant_pair(0.9, 0.9)
        with pytest.raises(ValueError, match="mean"):
            st.run(bad, ZeroVelocity(), 1e-3)

    def test_component_means_validated_in_unbounded_regime(self, ops4):
        st = TimeStepper(ops4, make_config(L=math.inf))
        with pytest.raises(ValueError, match="means"):
            st.run(ops4.constant_pair(1.0, 0.0), ZeroVelocity(), 1e-3)

    @pytest.mark.parametrize(
        "coupling,bulk,surf,match",
        [
            ("K = 1\nL = 1\nalpha = 0.5\nbeta = 2", 1.2, 0.0, "<= 1"),
            ("K = 0\nL = 1\nalpha = 1\nbeta = 1", 0.2, 0.3, "trace constraint"),
            ("K = 1\nL = 1\nalpha = 0.5\nbeta = 2", 0.9, 0.9, "mean"),
            ("K = 1\nL = inf\nalpha = 0.5\nbeta = 2", 1.0, 0.0, "means"),
        ],
        ids=["band", "trace", "mean", "component_means"],
    )
    def test_config_and_run_reject_the_same_data_alike(
        self, ops4, coupling, bulk, surf, match
    ):
        data = parse_config_text(
            f"[coupling]\n{coupling}\n"
            f"[initial]\nkind = constant\nvalue_bulk = {bulk}\nvalue_surf = {surf}\n"
        )
        cp = CouplingParams(**{k: float(v) for k, v in data["coupling"].items()})
        with pytest.raises(ConfigError, match=match) as from_config:
            build_initial(data, ops4, cp, seed=0)
        st = TimeStepper(ops4, make_config(**{k: getattr(cp, k) for k in data["coupling"]}))
        with pytest.raises(ValueError, match=match) as from_run:
            st.run(ops4.constant_pair(bulk, surf), ZeroVelocity(), 1e-3)
        assert str(from_config.value) == str(from_run.value)

    @pytest.mark.parametrize("dt", [math.nan, math.inf, 0.0, -1e-3])
    def test_config_refuses_a_dt_not_positive_and_finite(self, dt):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            make_config(dt=dt)

    @pytest.mark.parametrize("dt", [math.nan, math.inf, 0.0, -1e-3])
    def test_step_refuses_a_dt_not_positive_and_finite(self, ops4, dt):
        st = TimeStepper(ops4, make_config())
        init = ops4.constant_pair(0.1, 0.1)
        state = State(init, st.initial_mu_theta(init), 0.0)
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            st.step(state, ZeroVelocity(), dt)

    @pytest.mark.parametrize("t_end", [math.nan, math.inf, -1.0])
    def test_run_refuses_a_t_end_not_non_negative_and_finite(self, ops4, t_end):
        st = TimeStepper(ops4, make_config())
        with pytest.raises(ValueError, match="t_end must be non-negative and finite"):
            st.run(ops4.constant_pair(0.1, 0.1), ZeroVelocity(), t_end)

    def test_observer_called_per_step(self, ops4, rng):
        cfg = make_config()
        st = TimeStepper(ops4, cfg)
        seen = []
        st.run(
            admissible_random(ops4, cfg.cp, rng),
            ZeroVelocity(),
            5e-3,
            observers=[lambda s, info: seen.append(s.t)],
        )
        assert len(seen) == 5

    def test_initial_potential_projection_consistency(self, ops4, rng):
        # the potential equation holds at t = 0 against the projection's own
        # test basis (the trace-reduced one whenever a trace is eliminated)
        for K, L in ((1.0, 1.0), (0.0, 1.0), (1.0, 0.0), (0.0, 0.0), (math.inf, math.inf)):
            cfg = make_config(K=K, L=L)
            st = TimeStepper(ops4, cfg)
            pair = admissible_random(ops4, cfg.cp, rng)
            w = st.initial_mu_theta(pair)
            g = (
                st.stiff_K @ ops4.to_vector(pair)
                + convex_terms(ops4, ops4.to_vector(pair), POT, cfg.yp).load
                + st._concave_load(st.mass @ ops4.to_vector(pair))
            )
            resid = st.mass @ ops4.to_vector(w) - g
            test_basis = st.P_K if st.P_K is not None else st.P_L
            if test_basis is not None:
                resid = test_basis.T @ resid
            assert np.abs(resid).max() <= 1e-10
            if L == 0.0:
                assert np.allclose(
                    w.bulk[ops4.mesh.surface_nodes], cfg.cp.beta * w.surf, atol=1e-12
                )

    @pytest.mark.parametrize("K, L", [(1.0, 1.0), (math.inf, math.inf), (1.0, math.inf)])
    def test_unreduced_initial_potential_is_the_per_field_mass_solves(self, ops8, rng, K, L):
        # with no trace eliminated, the one block-mass solve gives the bulk
        # and surface mass solves' potentials to the last bit
        st = TimeStepper(ops8, make_config(K=K, L=L))
        pair = admissible_random(ops8, st.cfg.cp, rng)
        w, ref = st.initial_mu_theta(pair), per_field_initial_mu_theta(st, pair)
        assert np.array_equal(w.bulk, ref.bulk) and np.array_equal(w.surf, ref.surf)

    def test_newton_stalling_at_its_roundoff_floor_fails_the_step(self, ops8):
        """A near-singular potential (lambda = 1e-6), a long step and a strong
        flow: the step Newton reaches its roundoff floor, a few 1e-12, and
        stagnates there just above the absolute tolerance 1e-12 until it runs
        out of iterations.

        This pins today's failure.  When the stopping rule learns the floor
        (stop at a tolerance scaled to the residual's terms, or on stagnation
        there), invert it: the run must then reach t = 0.6.
        """
        cfg = make_config(dt=0.2, lam=1e-6)
        assert (POT.theta, POT.theta_c) == (0.8, 1.6)
        rng = np.random.default_rng(1)
        init = BulkSurfacePair(
            rng.uniform(-0.3, 0.3, ops8.n_bulk), rng.uniform(-0.3, 0.3, ops8.n_surf)
        )
        flow = StreamFunctionVelocity(profile="sine2").scaled(200)
        traj = TimeStepper(ops8, cfg).run(init, flow, 0.6)
        assert traj.failure is not None
        assert traj.failure["step"] == 2
        assert "did not reach tol 1e-12 in 30 iterations" in traj.failure["error"]
        history = traj.failure["history"]
        assert len(history) == 31
        assert all(1e-12 < r < 1e-10 for r in history[-4:]), history[-4:]


class TestEnergyBalance:
    def test_steady_state_residual_zero(self, ops4):
        cfg = make_config(alpha=1.0, beta=1.0, dt=1e-2, lam=1e-2)
        st = TimeStepper(ops4, cfg)
        traj = st.run(ops4.constant_pair(0.3, 0.3), ZeroVelocity(), 0.05)
        resid = st.energy_balance_residuals(traj, ZeroVelocity())
        assert np.abs(resid).max() <= 1e-12

    def test_dissipative_runs_have_nonpositive_residual(self, ops8, rng):
        cfg = make_config()
        st = TimeStepper(ops8, cfg)
        traj = st.run(admissible_random(ops8, cfg.cp, rng), ZeroVelocity(), 0.02)
        resid = st.energy_balance_residuals(traj, ZeroVelocity())
        assert resid.max() <= 1e-9

    def test_first_order_decay_under_dt_refinement(self, ops8, rng):
        # nodal-noise data dissipates in an initial layer whose residual
        # scales like 1/dt; relax it away first so the study sees the smooth
        # regime the first-order statement is about
        field = StreamFunctionVelocity(amplitude=1.0, profile="sine2")
        raw = admissible_random(ops8, CouplingParams(K=1.0, L=1.0, alpha=0.5, beta=2.0), rng)
        init = TimeStepper(ops8, make_config()).run(raw, field, t_end=0.05).final.phi_psi
        maxima = []
        for dt in (2e-3, 1e-3):
            cfg = make_config(dt=dt)
            st = TimeStepper(ops8, cfg)
            traj = st.run(init, field, t_end=0.02)
            maxima.append(float(np.abs(st.energy_balance_residuals(traj, field)).max()))
        assert maxima[0] / maxima[1] >= 1.7

    def test_row_balance_matches_recomputation(self, ops4, rng):
        cfg = make_config()
        st = TimeStepper(ops4, cfg)
        field = StreamFunctionVelocity(amplitude=0.5, profile="sine2")
        traj = st.run(admissible_random(ops4, cfg.cp, rng), field, 5e-3)
        recomputed = st.energy_balance_residuals(traj, field)
        stored = [r["balance_residual"] for r in traj.rows[1:]]
        assert np.allclose(stored, recomputed, atol=1e-12)

    def test_recomputation_evaluates_each_state_energy_once(self, ops4, rng, monkeypatch):
        # five steps have six states, so one resolvent call per field and
        # state; the carried energy gives the two-sided formula's residuals
        cfg = make_config()
        st = TimeStepper(ops4, cfg)
        field = StreamFunctionVelocity(amplitude=0.5, profile="sine2")
        traj = st.run(admissible_random(ops4, cfg.cp, rng), field, 5 * cfg.dt)
        assert len(traj.states) == 6
        expected = []
        for old, new in zip(traj.states, traj.states[1:]):
            diss = st.dissipation_matrix(old.phi_psi)
            conv = st.convection_load(old.phi_psi, field, old.t + 0.5 * cfg.dt)
            w = ops4.to_vector(new.mu_theta)
            expected.append(
                (st.energy(new.phi_psi).total - st.energy(old.phi_psi).total) / cfg.dt
                + float(w @ (diss @ w))
                - float(conv @ w)
            )
        calls = []
        resolvent = potentials.yosida_resolvent

        def counting(*args, **kwargs):
            calls.append(1)
            return resolvent(*args, **kwargs)

        monkeypatch.setattr(potentials, "yosida_resolvent", counting)
        resid = st.energy_balance_residuals(traj, field)
        assert len(calls) == 12
        assert np.array_equal(resid, np.array(expected))


class TestUnusualCouplingWeights:
    @pytest.mark.parametrize(
        "K,L,alpha,beta",
        [
            (1.0, 1.0, 0.0, 2.0),
            (1.0, 1.0, -0.5, 1.0),
            (1.0, 1.0, 0.5, 0.0),
            (0.0, 0.0, -1.0, 1.0),
            (1.0, 0.0, 0.5, 0.0),
        ],
    )
    def test_structure_survives_edge_weights(self, ops4, K, L, alpha, beta, rng):
        cfg = make_config(K=K, L=L, alpha=alpha, beta=beta)
        st = TimeStepper(ops4, cfg)
        init = admissible_random(ops4, cfg.cp, rng)
        traj = st.run(init, StreamFunctionVelocity(amplitude=1.0, profile="sine2"), 5e-3)
        assert traj.failure is None
        rows = traj.rows
        w0 = rows[0]["mass_weighted"]
        assert max(abs(r["mass_weighted"] - w0) for r in rows) <= 1e-10 * (1 + abs(w0))

    def test_finest_desk_scale_resolution(self, rng):
        from bscahn.assembly import assemble
        from bscahn.mesh import generate_unit_square

        ops16 = assemble(generate_unit_square(16))
        cfg = make_config()
        st = TimeStepper(ops16, cfg)
        init = admissible_random(ops16, cfg.cp, rng)
        traj = st.run(init, StreamFunctionVelocity(amplitude=1.0, profile="sine2"), 5e-3)
        assert traj.failure is None
        rows = traj.rows
        w0 = rows[0]["mass_weighted"]
        assert max(abs(r["mass_weighted"] - w0) for r in rows) <= 1e-10 * (1 + abs(w0))
        energies = [r["energy_total"] for r in rows]
        assert energies[-1] <= energies[0]


class TestRegimeAndRegularizationLimits:
    def test_finite_coupling_approaches_both_limits(self, ops8, rng):
        from dataclasses import replace

        base_cfg = make_config(dt=1e-3)
        init_full = admissible_random(ops8, base_cfg.cp, rng)

        def run_k(K):
            cp = replace(base_cfg.cp, K=K)
            cfg = replace(base_cfg, cp=cp)
            init = init_full.copy()
            init.bulk[ops8.mesh.surface_nodes] = cp.alpha * init.surf
            return TimeStepper(ops8, cfg).run(init, ZeroVelocity(), 0.02).final.phi_psi

        lim0 = run_k(0.0)
        gaps0 = [ops8.l2_norm(run_k(k) - lim0) for k in (1.0, 0.1, 0.01)]
        assert gaps0[0] >= gaps0[1] >= gaps0[2]
        liminf = run_k(math.inf)
        gapsi = [ops8.l2_norm(run_k(k) - liminf) for k in (1.0, 10.0, 100.0)]
        assert gapsi[0] >= gapsi[1] >= gapsi[2]

    def test_trajectories_cauchy_in_regularization(self, ops8, rng):
        from dataclasses import replace

        base_cfg = make_config(dt=1e-3)
        init = admissible_random(ops8, base_cfg.cp, rng)
        finals = []
        for lam in (1e-2, 1e-3, 1e-4):
            cfg = replace(base_cfg, yp=YosidaParams(lam=lam))
            finals.append(TimeStepper(ops8, cfg).run(init, ZeroVelocity(), 0.05).final.phi_psi)
        d1 = ops8.l2_norm(finals[1] - finals[0])
        d2 = ops8.l2_norm(finals[2] - finals[1])
        assert d2 < d1

    def test_separation_stays_positive_in_spinodal_run(self, ops8, rng):
        cfg = make_config(lam=1e-4, dt=1e-3)
        st = TimeStepper(ops8, cfg)
        init = admissible_random(ops8, cfg.cp, rng, mean=0.0, amp=0.4)
        traj = st.run(init, ZeroVelocity(), 0.05)
        assert traj.failure is None
        worst = max(max(r["max_abs_phi"], r["max_abs_psi"]) for r in traj.rows)
        assert worst < 1.0


JACOBIAN_CASES = [(K, L, None) for K, L in REGIMES] + [(1.0, 1.0, QuadraticMobility())]


def jacobian_case(ops, K, L, mobility, rng):
    """A stepper, an old state and a Newton iterate for one Jacobian case."""
    cfg = make_config(K=K, L=L, mobility=mobility)
    st = TimeStepper(ops, cfg)
    old = admissible_random(ops, cfg.cp, rng)
    iterate = admissible_random(ops, cfg.cp, rng, mean=-0.1, amp=0.6)
    return st, old, iterate


def bmat_jacobian(st, diss, curv_bulk, curv_surf):
    """The step Jacobian as a nonsymmetric block matrix in the order (du, dw)."""
    ops, dt = st.ops, st.cfg.dt
    curv = sp.block_diag([ops.tri_weighted_mass(curv_bulk), ops.surf_weighted_mass(curv_surf)])
    h_mat = ops.project(st.stiff_K + curv, st.P_K, st.P_K)
    mass_WU = ops.project(st.mass, st.P_K, st.P_L)
    dt_diss = ops.project(dt * diss, st.P_L, st.P_L)
    return sp.bmat([[st.mass_UW, dt_diss], [-h_mat, mass_WU]], format="csc")


def curvatures(st, pair):
    ops, yp = st.ops, st.cfg.yp
    return (
        yosida_second(ops.bulk_at_tri_quad(pair.bulk), POT.theta, yp),
        yosida_second(ops.surf_at_quad(pair.surf), POT.theta_surf, yp),
    )


class TestStepJacobian:
    @pytest.mark.parametrize("K,L,mobility", JACOBIAN_CASES)
    def test_symmetric_matrix_is_the_block_matrix_with_swapped_columns(
        self, ops4, K, L, mobility, rng
    ):
        st, old, iterate = jacobian_case(ops4, K, L, mobility, rng)
        diss = st.dissipation_matrix(old)
        curv = curvatures(st, iterate)
        ref = bmat_jacobian(st, diss, *curv)
        nu = st.mass_UW.shape[1]
        swapped = sp.hstack([ref[:, nu:], ref[:, :nu]]).tocsc()
        explicit_A = st.mass @ st.ops.to_vector(old)
        concave = st._concave_load(explicit_A)
        mat = st._newton_system(st.cfg.dt, diss, explicit_A, concave).matrix(curv)
        assert mat is st._pattern.held
        scale = abs(swapped).max()
        assert abs(mat - swapped).max() <= 1e-13 * scale
        assert abs(mat - mat.T).max() <= 1e-13 * scale

    @pytest.mark.parametrize("K,L,mobility", JACOBIAN_CASES)
    def test_newton_step_matches_spsolve_on_the_block_matrix(self, ops4, K, L, mobility, rng):
        st, old, iterate = jacobian_case(ops4, K, L, mobility, rng)
        ops = st.ops
        diss = st.dissipation_matrix(old)
        explicit_A = st.mass @ ops.to_vector(old)
        concave = st._concave_load(explicit_A)
        u_red = ops.to_reduced(iterate, st.P_K)
        w_red = ops.to_reduced(st.initial_mu_theta(old), st.P_L)
        system = st._newton_system(st.cfg.dt, diss, explicit_A, concave)
        r, convex, _ = system.evaluate(np.concatenate([w_red, u_red]))
        rhs = -r
        delta = system.direction(convex, rhs)
        ref = spla.spsolve(bmat_jacobian(st, diss, *convex.curvature), rhs)
        nu, nw = len(u_red), len(w_red)
        ref_swapped = np.concatenate([ref[nu:], ref[:nu]])
        assert len(delta) == nu + nw
        assert np.linalg.norm(delta - ref_swapped) <= 1e-10 * np.linalg.norm(ref_swapped)

    @pytest.mark.parametrize("mobility", [None, QuadraticMobility()])
    def test_pattern_built_at_the_first_solve_and_kept(self, ops4, mobility, rng):
        cfg = make_config(mobility=mobility)
        st = TimeStepper(ops4, cfg)
        assert st._pattern is None
        seen = []

        def observe(state, info):
            pattern = st._pattern
            seen.append((pattern, pattern.indices, pattern.indptr, pattern.held))

        st.run(
            admissible_random(ops4, cfg.cp, rng),
            StreamFunctionVelocity(amplitude=1.0, profile="sine2"),
            5e-3,
            observers=[observe],
        )
        assert len(seen) == 5
        for entry in seen[1:]:
            assert all(a is b for a, b in zip(entry, seen[0]))

    def test_one_resolvent_evaluation_per_trial_and_energy(self, ops8, rng, monkeypatch):
        # from the second step on, one call per field for each line-search
        # trial and none else: the starting residual reuses the convex terms
        # of the previous step's accepted iterate, and the new energy those of
        # this step's
        calls, trials = [], []
        resolvent = potentials.yosida_resolvent

        def counting(*args, **kwargs):
            calls.append(1)
            return resolvent(*args, **kwargs)

        monkeypatch.setattr(potentials, "yosida_resolvent", counting)
        cfg = make_config()
        st = TimeStepper(ops8, cfg)
        per_step, iters = [], []

        def observe(state, info):
            per_step.append(len(calls))
            iters.append(info["newton_iters"])
            trials.append(info["line_search_trials"])
            calls.clear()

        st.run(
            admissible_random(ops8, cfg.cp, rng),
            StreamFunctionVelocity(amplitude=1.0, profile="sine2"),
            1e-2,
            observers=[observe],
        )
        assert len(trials) == len(per_step) == 10
        assert all(t >= it > 0 for t, it in zip(trials, iters))
        assert per_step[1:] == [2 * t for t in trials[1:]]

    def test_a_zero_step_run_evaluates_the_initial_data_once(self, ops8, rng, monkeypatch):
        # the initial potential and the initial energy share one resolvent
        # call per field
        calls = []
        resolvent = potentials.yosida_resolvent

        def counting(*args, **kwargs):
            calls.append(1)
            return resolvent(*args, **kwargs)

        monkeypatch.setattr(potentials, "yosida_resolvent", counting)
        cfg = make_config()
        traj = TimeStepper(ops8, cfg).run(
            admissible_random(ops8, cfg.cp, rng), StreamFunctionVelocity(profile="sine2"), 0.0
        )
        assert len(traj.states) == 1
        assert len(calls) == 2

    def test_one_factorization_per_trajectory(self, ops8, rng):
        cfg = make_config()
        st = TimeStepper(ops8, cfg)
        factors, iters = [], []

        def observe(state, info):
            factors.append(info["factorizations"])
            iters.append(info["newton_iters"])

        traj = st.run(
            admissible_random(ops8, cfg.cp, rng),
            StreamFunctionVelocity(amplitude=1.0, profile="sine2"),
            1e-2,
            observers=[observe],
        )
        assert traj.failure is None
        assert sum(iters) > len(iters) == 10
        assert factors == [1] + [0] * 9

    def test_newton_directions_are_solved_to_the_newton_tolerance(self):
        # each direction stops at max(1e-10 ||b||, _NEWTON_TOL / 10): the same
        # Newton iterations per step as at the 1e-10 relative target, with
        # 39 refinement sweeps where that target made 49
        ops = assemble(generate_unit_square(16))
        cfg = make_config()
        iters, held = [], []

        def observe(state, info):
            iters.append(info["newton_iters"])
            held.append(info["held_solve_iterations"])

        traj = TimeStepper(ops, cfg).run(
            admissible_random(ops, cfg.cp, np.random.default_rng(0)),
            StreamFunctionVelocity(amplitude=1.0, profile="sine2"),
            10 * cfg.dt,
            observers=[observe],
        )
        assert traj.failure is None
        assert iters == [3] + [2] * 9
        assert sum(held) <= 39

    @pytest.mark.parametrize("K,L", REGIMES)
    def test_jacobian_pattern_keys_are_the_unique_keys(self, ops8, K, L, monkeypatch):
        made = []
        key = JacobianPattern._key

        def recording(pattern, rows, cols):
            made.append(key(pattern, rows, cols))
            return made[-1]

        monkeypatch.setattr(JacobianPattern, "_key", recording)
        pattern = TimeStepper(ops8, make_config(K=K, L=L))._jacobian_pattern()
        # the keys of every block it was built from; scattering the fixed
        # blocks afterwards adds only keys already among them
        assert same_bits(pattern._keys, np.unique(np.concatenate(made)))

    def test_no_factor_held_after_run(self, ops4, rng, monkeypatch):
        cfg = make_config()
        field = StreamFunctionVelocity(amplitude=1.0, profile="sine2")
        init = admissible_random(ops4, cfg.cp, rng)
        st = TimeStepper(ops4, cfg)
        st.run(init, field, 3e-3)
        assert st.factor.lu is None
        # a StepError ends the run with a failure record
        failing = TimeStepper(ops4, cfg)
        with monkeypatch.context() as mp:
            cap_newton_at_one_unreachable_update(mp)
            traj = failing.run(init, field, 3e-3)
        assert traj.failure is not None
        assert failing.factor.lu is None

        # any other exception propagates out of run
        def stop(state, info):
            raise RuntimeError("observer stop")

        with pytest.raises(RuntimeError, match="observer stop"):
            st.run(init, field, 3e-3, observers=[stop])
        assert st.factor.factorizations == 2
        assert st.factor.lu is None

    def test_failing_step_rebuilds_on_a_fresh_stepper(self, ops4, rng, monkeypatch):
        # a step that fails on a factor kept from an earlier step raises the
        # StepError a fresh stepper raises from the same state, bit for bit
        cfg = make_config()
        field = StreamFunctionVelocity(amplitude=1.0, profile="sine2")
        st = TimeStepper(ops4, cfg)
        state = st.run(admissible_random(ops4, cfg.cp, rng), ZeroVelocity(), 1e-3).states[0]
        state, _ = st.step(state, field, cfg.dt)
        assert st.factor.lu is not None
        before = st.factor.factorizations
        cap_newton_at_one_unreachable_update(monkeypatch)
        lagging = TimeStepper(ops4, cfg)
        lagging.factor = st.factor
        with pytest.raises(StepError) as lagged:
            lagging.step(state, field, cfg.dt)
        with pytest.raises(StepError) as direct:
            TimeStepper(ops4, cfg).step(state, field, cfg.dt)
        assert str(lagged.value) == str(direct.value)
        assert lagged.value.history == direct.value.history
        assert st.factor.factorizations == before + 1

    def test_a_new_dt_rebuilds_the_step_jacobian(self, ops4, rng):
        # the curvature-free Jacobian holds dt D; after a dt change the next
        # step solves the new system, on the factor kept from the old one
        cfg = make_config(dt=1e-3)
        field = StreamFunctionVelocity(amplitude=1.0, profile="sine2")
        st = TimeStepper(ops4, cfg)
        init = admissible_random(ops4, cfg.cp, rng)
        state, _ = st.step(State(init, st.initial_mu_theta(init), 0.0), field, cfg.dt)
        lagged, _ = st.step(state, field, 5e-4)
        fresh, _ = TimeStepper(ops4, replace(cfg, dt=5e-4)).step(state, field, 5e-4)
        for a, b in ((lagged.phi_psi, fresh.phi_psi), (lagged.mu_theta, fresh.mu_theta)):
            assert (a - b).max_abs() <= 1e-10

    def test_coupling_and_mobility_are_fixed_at_construction(self, ops4):
        # the operators are built from the whole configuration, which cannot
        # be replaced; a step takes its dt as an argument
        cfg = make_config()
        st = TimeStepper(ops4, cfg)
        for new in (replace(cfg, mobility=ConstantMobility(m_bulk=5.0)), replace(cfg, dt=5e-4)):
            with pytest.raises(AttributeError):
                st.cfg = new
        assert st.cfg is cfg

    def test_row_energies_are_the_stored_states_energies(self, ops4, rng):
        cfg = make_config()
        st = TimeStepper(ops4, cfg)
        field = StreamFunctionVelocity(amplitude=1.0, profile="sine2")
        traj = st.run(admissible_random(ops4, cfg.cp, rng), field, 5e-3)
        for state, row in zip(traj.states, traj.rows):
            e = st.energy(state.phi_psi)
            assert row["energy_total"] == e.total
            assert row["energy_pot_bulk"] == e.pot_bulk
            assert row["energy_coupling"] == e.coupling

    def test_row_maxima_are_of_magnitudes(self, ops4):
        # both fields are largest in magnitude where they are negative
        bulk = np.linspace(-0.9, 0.3, ops4.n_bulk)
        surf = np.linspace(-0.8, 0.2, ops4.n_surf)
        state = State(BulkSurfacePair(bulk, surf), ops4.zero_pair(), 0.0)
        st = TimeStepper(ops4, make_config())
        row = st._row(0, state, st.energy(state.phi_psi), {})
        assert row["max_abs_phi"] == 0.9
        assert row["max_abs_psi"] == 0.8


def state_bits(state):
    return (state.phi_psi.bulk.tobytes(), state.phi_psi.surf.tobytes(),
            state.mu_theta.bulk.tobytes(), state.mu_theta.surf.tobytes(), state.t)


def same_trajectory(a, b) -> bool:
    return (a.failure == b.failure and a.rows == b.rows
            and [state_bits(s) for s in a.states] == [state_bits(s) for s in b.states])


class TestStepRecord:
    """What one step evaluates last is reused by the next, and only at the
    same phase vector and configuration."""

    # time-dependent, so that the run's velocity samples are rescaled per step
    FIELD = StreamFunctionVelocity(amplitude=3.0, envelope=SineEnvelope(omega=300.0))

    @pytest.mark.parametrize("mobility", [None, QuadraticMobility()])
    def test_standalone_steps_reproduce_the_run_bitwise(self, ops4, rng, mobility):
        # each standalone step evaluates everything afresh; on a fresh stepper
        # a chain of them makes the run's factorizations, so it must give the
        # run's states and diagnostics to the bit
        cfg = make_config(mobility=mobility)
        traj = TimeStepper(ops4, cfg).run(admissible_random(ops4, cfg.cp, rng), self.FIELD, 5e-3)
        assert traj.failure is None
        st = TimeStepper(ops4, cfg)
        state = traj.states[0]
        for expected, row in zip(traj.states[1:], traj.rows[1:]):
            state, info = st.step(state, self.FIELD, cfg.dt)
            assert state_bits(state) == state_bits(expected)
            assert info["energy"].total == row["energy_total"]
            assert info["balance_residual"] == row["balance_residual"]

    def test_one_stepper_steps_with_each_dt(self, ops4, rng):
        # a step of any dt on a stepper that made steps of other dt values,
        # its factor dropped, is a fresh stepper's step of that dt, bitwise;
        # the states carry their dt, so the recomputed balance is the steps'
        cfg = make_config()
        st = TimeStepper(ops4, cfg)
        init = admissible_random(ops4, cfg.cp, rng)
        states, infos = [State(init, st.initial_mu_theta(init), 0.0)], []
        for dt in (1e-3, 5e-4, 2e-3):
            fresh, _ = TimeStepper(ops4, replace(cfg, dt=dt)).step(states[-1], self.FIELD, dt)
            state, info = st.step(states[-1], self.FIELD, dt)
            st.factor.drop()
            assert state_bits(state) == state_bits(fresh)
            assert state.dt == dt
            states.append(state)
            infos.append(info)
        resid = st.energy_balance_residuals(Trajectory(states, []), self.FIELD)
        assert resid.tolist() == [info["balance_residual"] for info in infos]

    def test_first_step_takes_the_initial_terms_only_at_its_own_iterate(self, ops4, rng):
        # with K = 0 the first iterate sets the boundary bulk values from the
        # surface, so data off the trace constraint by less than the validator
        # allows must not lend the first step their convex terms
        cfg = make_config(K=0.0)
        init = admissible_random(ops4, cfg.cp, rng)
        init.bulk[ops4.mesh.surface_nodes] += 1e-11
        traj = TimeStepper(ops4, cfg).run(init, self.FIELD, 1e-3)
        state, _ = TimeStepper(ops4, cfg).step(traj.states[0], self.FIELD, cfg.dt)
        assert state_bits(state) == state_bits(traj.final)

    def test_a_second_run_matches_a_fresh_stepper(self, ops4, rng):
        cfg = make_config()
        init = admissible_random(ops4, cfg.cp, rng)
        st = TimeStepper(ops4, cfg)
        first = st.run(init, self.FIELD, 5e-3)
        second = st.run(init, self.FIELD, 5e-3)
        fresh = TimeStepper(ops4, cfg).run(init, self.FIELD, 5e-3)
        assert same_trajectory(first, fresh)
        assert same_trajectory(second, fresh)

    def test_each_run_samples_its_own_field(self, ops4, rng):
        cfg = make_config()
        init = admissible_random(ops4, cfg.cp, rng)
        other = StreamFunctionVelocity(amplitude=2.0, profile="sine2", modes=((1, 2, 1.0),))
        st = TimeStepper(ops4, cfg)
        st.run(init, self.FIELD, 5e-3)
        after = st.run(init, other, 5e-3)
        assert same_trajectory(after, TimeStepper(ops4, cfg).run(init, other, 5e-3))
        assert not same_trajectory(after, TimeStepper(ops4, cfg).run(init, self.FIELD, 5e-3))

    def test_the_kept_evaluation_follows_its_inputs(self, ops4, rng):
        # a state changed in place after its evaluation must give a fresh
        # stepper's energy and step bitwise
        cfg = make_config()
        st = TimeStepper(ops4, cfg)
        state = st.run(admissible_random(ops4, cfg.cp, rng), self.FIELD, 1e-3).final
        st.energy(state.phi_psi)
        state.phi_psi.bulk[3] += 0.01
        state.phi_psi.surf[1] -= 0.01
        fresh = TimeStepper(ops4, cfg)
        assert st.energy(state.phi_psi) == fresh.energy(state.phi_psi)
        assert state_bits(st.step(state, self.FIELD, cfg.dt)[0]) == state_bits(
            fresh.step(state, self.FIELD, cfg.dt)[0]
        )

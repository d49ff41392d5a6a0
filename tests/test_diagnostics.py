import math

import numpy as np
import pytest

from bscahn.assembly import BulkSurfacePair, CouplingParams
from bscahn.config import ConfigError
from bscahn.diagnostics import (
    continuous_dependence_experiment,
    mean_compatible_direction,
    regime_interpolation_study,
    scaling_exponent,
    separation_report,
    strong_estimate_monitor,
    trace_interpolation_report,
    velocity_norms,
    yosida_convergence_study,
)
from bscahn.potentials import PotentialSpec, YosidaParams
from bscahn.stepper import ConstantMobility, QuadraticMobility, StepperConfig, TimeStepper
from bscahn.velocity import StreamFunctionVelocity, ZeroVelocity

CP = CouplingParams(K=1.0, L=1.0, alpha=0.5, beta=2.0)


def make_config(cp=CP, dt=1e-3, lam=1e-3, mobility=None):
    return StepperConfig(
        dt=dt, cp=cp, pot=PotentialSpec(), yp=YosidaParams(lam=lam),
        mobility=mobility or ConstantMobility(),
    )


def admissible_random(ops, cp, rng, mean=0.05, amp=0.3):
    pair = BulkSurfacePair(
        mean + amp * rng.uniform(-1, 1, ops.n_bulk),
        mean + amp * rng.uniform(-1, 1, ops.n_surf),
    )
    if cp.K == 0.0:
        pair.bulk[ops.mesh.surface_nodes] = cp.alpha * pair.surf
    return pair


class TestVelocityNorms:
    def test_zero_field(self, ops4):
        assert velocity_norms(ops4, ZeroVelocity(), 0.0)[0] == 0.0
        assert velocity_norms(ops4, ZeroVelocity(), 0.0)[2] == 0.0

    def test_l2_scales_linearly(self, ops4):
        f = StreamFunctionVelocity(amplitude=1.0, profile="sine")
        assert velocity_norms(ops4, f.scaled(3.0), 0.0)[0] == pytest.approx(
            3.0 * velocity_norms(ops4, f, 0.0)[0], rel=1e-12
        )

    def test_norm_ordering(self, ops8):
        f = StreamFunctionVelocity(amplitude=1.0, profile="sine")
        l2 = velocity_norms(ops8, f, 0.0)[0]
        h1 = velocity_norms(ops8, f, 0.0)[2]
        assert 0 < l2 < h1
        assert velocity_norms(ops8, f, 0.0)[1] > 0


class TestMeanCompatibleDirection:
    @pytest.mark.parametrize(
        "cp",
        [
            CP,
            CouplingParams(K=0.0, L=1.0, alpha=0.5, beta=2.0),
            CouplingParams(K=1.0, L=math.inf, alpha=0.5, beta=2.0),
            CouplingParams(K=0.0, L=math.inf, alpha=-0.5, beta=2.0),
        ],
    )
    def test_direction_mean_free_and_admissible(self, ops4, cp, rng):
        d = mean_compatible_direction(ops4, cp, rng)
        assert ops4.l2_norm(d) == pytest.approx(1.0, rel=1e-12)
        if math.isinf(cp.L):
            mb, ms = ops4.component_means(d)
            assert abs(mb) <= 1e-12 and abs(ms) <= 1e-12
        else:
            assert abs(ops4.bs_mean(d, cp)) <= 1e-12
        if cp.K == 0.0:
            assert np.allclose(
                d.bulk[ops4.mesh.surface_nodes], cp.alpha * d.surf, atol=1e-13
            )


class TestContinuousDependence:
    def test_zero_perturbation_gives_zero(self, ops4, rng):
        cfg = make_config()
        init = admissible_random(ops4, CP, rng)
        res = continuous_dependence_experiment(
            ops4, cfg, ZeroVelocity(), init, 5e-3, [(2e-3, 0.0), (1e-3, 0.0), (0.0, 0.0)]
        )
        assert res.extras["lhs_values"][2] == 0.0

    def test_quadratic_scaling(self, ops8, rng):
        cfg = make_config()
        init = admissible_random(ops8, CP, rng)
        field = StreamFunctionVelocity(amplitude=0.5, profile="sine2")
        res = continuous_dependence_experiment(
            ops8, cfg, field, init, 0.1, [(2e-3, 0.0), (1e-3, 0.0)], seed=5
        )
        lhs = res.extras["lhs_values"]
        expo = scaling_exponent(lhs[0], lhs[1])
        assert 1.8 <= expo <= 2.2
        assert res.extras["scaling_exponent"] == expo
        assert res.passed

    def test_scaling_exponent_outside_its_band_fails_the_study(self, ops4, rng, monkeypatch):
        monkeypatch.setattr("bscahn.diagnostics.scaling_exponent", lambda big, small, factor: 2.5)
        res = continuous_dependence_experiment(
            ops4, make_config(), ZeroVelocity(), admissible_random(ops4, CP, rng), 5e-3,
            [(2e-3, 0.0), (1e-3, 0.0)],
        )
        assert res.extras["scaling_exponent"] == 2.5
        assert not res.passed
        assert res.reason == "scaling exponent 2.500 outside [1.8, 2.2]"

    def test_scaling_exponent_reads_only_data_perturbations(self, ops4, rng):
        # the velocity perturbation and the zero perturbation ahead of the
        # two data-only ones take no part in the exponent
        res = continuous_dependence_experiment(
            ops4, make_config(), ZeroVelocity(), admissible_random(ops4, CP, rng), 5e-3,
            [(2e-3, 0.5), (0.0, 0.0), (2e-3, 0.0), (1e-3, 0.0)],
        )
        lhs = res.extras["lhs_values"]
        assert res.extras["scaling_exponent"] == scaling_exponent(lhs[2], lhs[3], factor=2.0)

    def test_one_data_only_perturbation_is_too_few(self, ops4, rng):
        # a velocity perturbation and the zero perturbation leave one
        # data-only perturbation, too few for an exponent: no run is made
        with pytest.raises(ConfigError, match="at least 2 data-only perturbations, got 1"):
            continuous_dependence_experiment(
                ops4, make_config(), ZeroVelocity(), admissible_random(ops4, CP, rng), 5e-3,
                [(2e-3, 0.5), (0.0, 0.0), (1e-3, 0.0)],
            )

    def test_velocity_perturbation_contributes(self, ops4, rng):
        cfg = make_config()
        init = admissible_random(ops4, CP, rng)
        field = StreamFunctionVelocity(amplitude=0.5, profile="sine2")
        res = continuous_dependence_experiment(
            ops4, cfg, field, init, 5e-3, [(2e-3, 0.0), (1e-3, 0.0), (0.0, 0.5)]
        )
        assert res.extras["lhs_values"][2] > 0
        assert res.rows[2]["velocity_term"] > 0

    def test_variable_mobility_rejected(self, ops4, rng):
        cfg = make_config(mobility=QuadraticMobility())
        with pytest.raises(ValueError, match="constant"):
            continuous_dependence_experiment(
                ops4, cfg, ZeroVelocity(), admissible_random(ops4, CP, rng), 1e-3, [(0.0, 0.0)]
            )

    def test_reruns_bit_identical(self, ops4, rng):
        cfg = make_config()
        init = admissible_random(ops4, CP, rng)
        st = TimeStepper(ops4, cfg)
        t1 = st.run(init, ZeroVelocity(), 5e-3)
        t2 = st.run(init, ZeroVelocity(), 5e-3)
        for a, b in zip(t1.states, t2.states):
            assert np.array_equal(a.phi_psi.bulk, b.phi_psi.bulk)
            assert np.array_equal(a.phi_psi.surf, b.phi_psi.surf)
            assert np.array_equal(a.mu_theta.bulk, b.mu_theta.bulk)


class TestYosidaStudies:
    def test_unknown_kind_rejected_before_any_solve(self, ops4):
        with pytest.raises(ValueError, match="unknown study kind 'elliptc'"):
            yosida_convergence_study("elliptc", ops4, make_config(), [])

    def test_linear_mode_is_parameter_free(self, ops4, rng):
        # with the singular part disabled the trajectories cannot depend on
        # the regularization parameter at all
        pot = PotentialSpec(theta=0.0, theta_c=1.0, theta_surf=0.0, theta_c_surf=1.0)
        cfg = StepperConfig(dt=1e-3, cp=CP, pot=pot, yp=YosidaParams(lam=1e-2))
        init = admissible_random(ops4, CP, rng)
        res = yosida_convergence_study(
            "time", ops4, cfg, [1e-2, 1e-3, 1e-4], field_=ZeroVelocity(),
            initial=init, t_end=5e-3,
        )
        assert all(d == 0.0 for d in res.extras["distances"])

    def test_elliptic_distances_decrease(self, ops4, rng):
        cfg = make_config()
        rhs = BulkSurfacePair(
            rng.standard_normal(ops4.n_bulk), rng.standard_normal(ops4.n_surf)
        )
        res = yosida_convergence_study(
            "elliptic", ops4, cfg, [1e-1, 1e-2, 1e-3, 1e-4, 1e-5], rhs=rhs
        )
        assert res.passed

    def test_time_distances_decrease(self, ops8, rng):
        cfg = make_config()
        init = admissible_random(ops8, CP, rng)
        res = yosida_convergence_study(
            "time", ops8, cfg, [1e-2, 1e-3, 1e-4], field_=ZeroVelocity(),
            initial=init, t_end=0.05,
        )
        assert res.passed

    def test_bad_schedule_rejected(self, ops4):
        cfg = make_config()
        with pytest.raises(ValueError, match="strictly decreasing"):
            yosida_convergence_study(
                "elliptic", ops4, cfg, [1e-3, 1e-2, 1e-1], rhs=ops4.zero_pair()
            )


class TestStrongEstimateMonitor:
    def test_steady_state_ratio_is_tight(self, ops4):
        cfg = make_config(cp=CouplingParams(K=1.0, L=1.0, alpha=1.0, beta=1.0), dt=1e-2, lam=1e-2)
        init = ops4.constant_pair(0.3, 0.3)
        res = strong_estimate_monitor(
            ops4, cfg, ZeroVelocity(), init, 3e-2, amplitudes=(0.0, 1.0)
        )
        st = TimeStepper(ops4, cfg)
        w0 = st.initial_mu_theta(init)
        for row in res.rows:  # a zero flow at any amplitude
            assert row["sup_potential_norm_sq"] == pytest.approx(
                ops4.norm_lb(w0, cfg.cp) ** 2, abs=1e-12
            )
            assert row["time_derivative_sum"] <= 1e-12

    def test_amplitude_family_bounded(self, ops8, rng):
        cfg = make_config()
        init = admissible_random(ops8, CP, rng)
        field = StreamFunctionVelocity(amplitude=1.0, profile="sine2")
        res = strong_estimate_monitor(ops8, cfg, field, init, 0.02)
        assert res.passed
        assert res.extras["spread"] <= 10.0

    def test_initial_potential_scaling_stays_bounded(self, ops4, rng):
        cfg = make_config()
        field = StreamFunctionVelocity(amplitude=1.0, profile="sine2")
        ratios = []
        for amp in (0.15, 0.3):
            init = admissible_random(ops4, CP, rng, mean=0.05, amp=amp)
            res = strong_estimate_monitor(ops4, cfg, field, init, 0.01, amplitudes=(0.0, 1.0))
            ratios.append(res.rows[1]["ratio"])
        assert max(ratios) / min(ratios) <= 10.0

    def test_preconditions(self, ops4, rng):
        init = admissible_random(ops4, CP, rng)
        with pytest.raises(ValueError, match="L in"):
            strong_estimate_monitor(
                ops4,
                make_config(cp=CouplingParams(K=1.0, L=0.0, alpha=0.5, beta=2.0)),
                ZeroVelocity(), init, 1e-3,
            )
        cp0 = CouplingParams(K=0.0, L=1.0, alpha=0.5, beta=2.0)
        with pytest.raises(ValueError, match="trace"):
            strong_estimate_monitor(
                ops4, make_config(cp=cp0),
                StreamFunctionVelocity(profile="sine"),
                admissible_random(ops4, cp0, rng), 1e-3,
            )


class TestSeparationReport:
    def test_zero_trajectory(self, ops4):
        cfg = make_config()
        st = TimeStepper(ops4, cfg)
        traj = st.run(ops4.zero_pair(), ZeroVelocity(), 2e-3)
        rep = separation_report(traj)
        assert rep.delta_bulk == pytest.approx(1.0)
        assert rep.delta_surf == pytest.approx(1.0)
        assert rep.warning is None

    def test_constant_trajectory(self, ops4):
        cfg = make_config(cp=CouplingParams(K=1.0, L=1.0, alpha=1.0, beta=1.0), dt=1e-2, lam=1e-2)
        st = TimeStepper(ops4, cfg)
        traj = st.run(ops4.constant_pair(0.3, 0.3), ZeroVelocity(), 2e-2)
        rep = separation_report(traj)
        assert rep.delta_bulk == pytest.approx(0.7, abs=1e-9)
        assert rep.passed

    def test_spinodal_run_reports_positive_margin(self, ops8, rng):
        cfg = make_config(lam=1e-4)
        st = TimeStepper(ops8, cfg)
        init = admissible_random(ops8, CP, rng, mean=0.0, amp=0.4)
        traj = st.run(init, ZeroVelocity(), 0.05)
        rep = separation_report(traj)
        assert rep.passed
        step, node = rep.argmax_bulk
        assert 0 <= step < len(traj.states)
        assert 0 <= node < ops8.n_bulk


class TestRegimeInterpolation:
    def test_gaps_shrink_toward_both_limits(self, ops8):
        base = np.random.default_rng(3)
        bulk = 0.05 + 0.3 * base.uniform(-1, 1, ops8.n_bulk)
        surf = 0.05 + 0.3 * base.uniform(-1, 1, ops8.n_surf)
        initial = BulkSurfacePair(bulk.copy(), surf.copy())
        res = regime_interpolation_study(ops8, make_config(dt=1e-3), ZeroVelocity(), initial, 0.02)
        assert res.passed, res.reason
        assert [(r["which"], r["direction"]) for r in res.rows] == [
            (which, direction)
            for which in "KL" for direction in ("zero", "inf") for _ in range(3)
        ]
        # the study slaves the trace of its own copy of the data
        assert np.array_equal(initial.bulk, bulk) and np.array_equal(initial.surf, surf)

    def test_non_monotone_gaps_name_their_axis(self, ops4):
        # toward zero from 0.01 up to 1: the gaps grow in both sweeps
        res = regime_interpolation_study(
            ops4, make_config(), ZeroVelocity(), ops4.constant_pair(0.1, 0.2), 2e-3,
            toward_zero=(0.01, 1.0), toward_inf=(10.0, 100.0),
        )
        assert not res.passed
        assert res.reason.startswith("K: gaps not monotone (zero: [")
        assert "; L: gaps not monotone (zero: [" in res.reason
        assert set(res.extras) == {"K", "L"}


class TestTraceInterpolation:
    def test_measured_constants_finite_and_stable(self):
        report = trace_interpolation_report(resolutions=(4, 8))
        values = [row["measured_constant"] for row in report]
        assert all(0 < v < 10 for v in values)
        # refinement does not blow the measured constant up
        assert values[1] <= 4.0 * values[0]

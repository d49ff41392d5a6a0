import math
from dataclasses import replace

import numpy as np
import pytest

from bscahn import velocity
from bscahn.assembly import BulkSurfacePair, assemble
from bscahn.mesh import generate_unit_square
from bscahn.stepper import StepperConfig, TimeStepper
from bscahn.assembly import CouplingParams
from bscahn.velocity import (
    ConstantEnvelope,
    MollifiedEnvelope,
    SineEnvelope,
    StepEnvelope,
    StreamFunctionVelocity,
    SurfaceSlipVelocity,
    ZeroVelocity,
    bump_kernel,
    discrete_admissibility,
    mollify_in_time,
)

# the single mode (1, 1), and modes with j != k, which tell the x and y
# derivative formulas apart
DERIVATIVE_CASES = [
    pytest.param(profile, modes, id=profile + suffix)
    for suffix, modes in (("", ((1, 1, 1.0),)), ("-jk", ((1, 2, 1.0), (3, 1, -0.5))))
    for profile in ("sine", "sine2")
]


class TestSampling:
    def test_zero_field(self):
        f = ZeroVelocity()
        assert np.all(f.sample_bulk(0.3, 0.7, 1.0) == 0.0)
        assert np.all(f.sample_surface(np.array([0.0, 1.0]), 0.5) == 0.0)
        assert f.is_zero

    def test_stream_center_is_stagnation_point(self):
        f = StreamFunctionVelocity(profile="sine")
        assert np.abs(f.sample_bulk(0.5, 0.5, 0.0)).max() <= 1e-15

    def test_stream_closed_form_point(self):
        f = StreamFunctionVelocity(profile="sine")
        v = f.sample_bulk(0.25, 0.5, 0.0)
        assert v[0] == pytest.approx(0.0, abs=1e-15)
        assert v[1] == pytest.approx(-math.pi / math.sqrt(2.0), rel=1e-14)

    @pytest.mark.parametrize("profile, modes", DERIVATIVE_CASES)
    def test_velocity_matches_central_differences(self, profile, modes):
        f = StreamFunctionVelocity(profile=profile, amplitude=0.7, modes=modes)
        h = 1e-6
        for x, y in [(0.3, 0.7), (0.6, 0.2), (0.45, 0.55)]:
            fd = np.array(
                [
                    (f.stream(x, y + h, 0.0) - f.stream(x, y - h, 0.0)) / (2 * h),
                    -(f.stream(x + h, y, 0.0) - f.stream(x - h, y, 0.0)) / (2 * h),
                ]
            )
            assert np.abs(fd - f.sample_bulk(x, y, 0.0)).max() <= 1e-8

    @pytest.mark.parametrize("profile, modes", DERIVATIVE_CASES)
    def test_gradient_matches_central_differences(self, profile, modes):
        f = StreamFunctionVelocity(profile=profile, modes=modes)
        h = 1e-6
        x, y = 0.3, 0.7
        g = f.bulk_gradient(x, y, 0.0)
        fd = np.stack(
            [
                (f.sample_bulk(x + h, y, 0.0) - f.sample_bulk(x - h, y, 0.0)) / (2 * h),
                (f.sample_bulk(x, y + h, 0.0) - f.sample_bulk(x, y - h, 0.0)) / (2 * h),
            ],
            axis=-1,
        )
        assert np.abs(g - fd).max() <= 1e-7

    def test_out_of_domain_rejected(self):
        f = StreamFunctionVelocity()
        with pytest.raises(ValueError):
            f.sample_bulk(1.5, 0.5, 0.0)

    def test_slip_speed_constant_in_arc(self):
        f = SurfaceSlipVelocity(speed=2.0, envelope=SineEnvelope(omega=2.0))
        s = np.linspace(0, 4, 17)
        vals = f.sample_surface(s, 0.3)
        assert np.ptp(vals) == 0.0
        assert vals[0] == pytest.approx(2.0 * math.sin(0.6))

    def test_scaling(self):
        f = StreamFunctionVelocity(amplitude=1.0)
        assert np.allclose(
            f.scaled(2.0).sample_bulk(0.3, 0.4, 0.0), 2.0 * f.sample_bulk(0.3, 0.4, 0.0)
        )


class TestAdmissibility:
    def test_zero_field_all_zero(self, mesh4, ops4):
        rep = discrete_admissibility(ZeroVelocity(), mesh4, ops4)
        assert rep.weak_divergence_max == 0.0
        assert rep.boundary_normal_max == 0.0
        assert rep.surface_divergence_max == 0.0
        assert rep.passed

    @pytest.mark.parametrize("profile", ["sine", "sine2"])
    def test_stream_fields_pass_default_threshold(self, mesh8, ops8, profile):
        rep = discrete_admissibility(
            StreamFunctionVelocity(profile=profile), mesh8, ops8
        )
        assert rep.passed
        assert rep.weak_divergence_max <= 1e-12
        assert rep.boundary_normal_max <= 1e-12

    @pytest.mark.parametrize("profile", ["sine", "sine2"])
    def test_stream_fields_pass_on_a_jittered_reordered_mesh(self, profile):
        # interior nodes moved, triangles in reverse order and each rotated,
        # so every local edge k of the edge table is exercised; the boundary
        # loop does not change
        mesh = generate_unit_square(6)
        nodes = mesh.nodes.copy()
        interior = np.setdiff1d(np.arange(mesh.num_nodes), mesh.surface_nodes)
        nodes[interior] += np.random.default_rng(5).uniform(-0.03, 0.03, (len(interior), 2))
        tris = np.array([np.roll(tri, k % 3) for k, tri in enumerate(mesh.triangles[::-1])])
        moved = replace(mesh, nodes=nodes, triangles=tris)
        rep = discrete_admissibility(
            StreamFunctionVelocity(profile=profile), moved, assemble(moved)
        )
        assert rep.passed
        assert rep.weak_divergence_max <= 1e-12

    def test_slip_field_divergence_free(self, mesh4, ops4):
        rep = discrete_admissibility(SurfaceSlipVelocity(speed=1.0), mesh4, ops4)
        assert rep.surface_divergence_max == 0.0
        assert rep.passed

    def test_field_of_another_class_is_refused(self, mesh4, ops4):
        class Uniform(velocity.VelocityField):
            envelope = ConstantEnvelope()

            def sample_bulk(self, x, y, t):
                return np.ones(np.broadcast_shapes(np.shape(x), np.shape(y)) + (2,))

            def sample_surface(self, s, t):
                return np.zeros_like(np.asarray(s, dtype=float))

        with pytest.raises(TypeError, match="Uniform"):
            discrete_admissibility(Uniform(), mesh4, ops4)

    def test_trace_compatibility_flags(self):
        assert ZeroVelocity().trace_matches_surface
        assert StreamFunctionVelocity(profile="sine2").trace_matches_surface
        assert not StreamFunctionVelocity(profile="sine").trace_matches_surface
        assert SurfaceSlipVelocity(speed=0.0).trace_matches_surface
        assert not SurfaceSlipVelocity(speed=1.0).trace_matches_surface


class TestTransportNeutrality:
    @pytest.mark.parametrize(
        "field_",
        [
            StreamFunctionVelocity(profile="sine"),
            StreamFunctionVelocity(profile="sine2", amplitude=2.0),
            SurfaceSlipVelocity(speed=1.5),
        ],
    )
    def test_convection_load_annihilates_constants(self, ops8, field_, rng):
        cfg = StepperConfig(dt=1e-3, cp=CouplingParams(K=1.0, L=1.0, alpha=0.5, beta=2.0))
        stepper = TimeStepper(ops8, cfg)
        pair = BulkSurfacePair(
            rng.uniform(-0.5, 0.5, ops8.n_bulk), rng.uniform(-0.5, 0.5, ops8.n_surf)
        )
        load = stepper.convection_load(pair, field_, t=0.2)
        const = np.concatenate([np.full(ops8.n_bulk, 2.0), np.ones(ops8.n_surf)])
        assert abs(load @ const) <= 1e-12


class TestMollification:
    def test_kernel_unit_mass(self):
        t = np.linspace(-1, 1, 40001)
        mass = np.trapezoid(bump_kernel(t), t)
        assert mass == pytest.approx(1.0, abs=1e-9)

    def test_constant_envelope_fixed(self):
        f = mollify_in_time(SurfaceSlipVelocity(speed=1.0), 0.1)
        assert abs(f.envelope(0.37) - 1.0) <= 1e-10

    def test_step_smoothed_to_half_at_the_jump(self):
        f = mollify_in_time(
            SurfaceSlipVelocity(speed=1.0, envelope=StepEnvelope(t0=0.5)), 0.1
        )
        assert f.envelope(0.5) == pytest.approx(0.5, abs=2e-3)
        assert f.envelope(0.2) == pytest.approx(0.0, abs=1e-12)
        assert f.envelope(0.8) == pytest.approx(1.0, abs=1e-10)

    def test_sup_never_grows(self):
        base = SurfaceSlipVelocity(speed=1.0, envelope=SineEnvelope(omega=9.0))
        mol = mollify_in_time(base, 0.2)
        ts = np.linspace(0.0, 2.0, 81)
        sup_base = max(abs(base.envelope(t)) for t in ts)
        sup_mol = max(abs(mol.envelope(t)) for t in ts)
        assert sup_mol <= sup_base + 1e-10

    def test_linear_and_zero_preserving(self):
        z = mollify_in_time(ZeroVelocity(), 0.1)
        assert z.is_zero
        assert np.all(z.sample_bulk(0.3, 0.4, 0.7) == 0.0)
        assert np.all(z.sample_surface(np.array([0.0, 2.0]), 0.7) == 0.0)
        e1 = mollify_in_time(SurfaceSlipVelocity(speed=1.0, envelope=SineEnvelope()), 0.1)
        e2 = mollify_in_time(SurfaceSlipVelocity(speed=1.0, envelope=SineEnvelope(amplitude=2.0)), 0.1)
        assert e2.envelope(0.7) == pytest.approx(2.0 * e1.envelope(0.7), rel=1e-12)

    def test_spatial_structure_untouched(self, mesh4, ops4):
        f = mollify_in_time(StreamFunctionVelocity(profile="sine"), 0.05)
        rep = discrete_admissibility(f, mesh4, ops4, t=0.3)
        assert rep.passed

    @pytest.mark.parametrize(
        "inner",
        [ConstantEnvelope(0.7), StepEnvelope(t0=0.3), SineEnvelope(omega=3.0, amplitude=2.0)],
    )
    def test_vectorized_quadrature_matches_the_pointwise_loop(self, inner):
        mol = MollifiedEnvelope(inner, 0.1)
        n = velocity._MOLLIFIER_PANELS
        tau = np.linspace(-1.0, 1.0, n + 1)
        w = np.ones(n + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        ts = np.array([0.05, 0.25, 0.3, 0.31, 0.5, 1.0])
        loop = [
            (2.0 / n) / 3.0 * np.sum(w * bump_kernel(tau) * np.array([inner(t - 0.1 * x) for x in tau]))
            for t in ts
        ]
        for t, expected in zip(ts, loop):
            assert mol(t) == pytest.approx(expected, rel=1e-15, abs=1e-300)
        assert mol(ts) == pytest.approx(loop, rel=1e-15, abs=1e-300)

    def test_envelopes_accept_arrays(self):
        ts = np.array([0.1, 0.5, 0.9])
        for env in (ConstantEnvelope(2.0), StepEnvelope(t0=0.5), SineEnvelope(omega=2.0)):
            assert env(ts) == pytest.approx([env(float(t)) for t in ts], rel=1e-15, abs=1e-300)

    def test_positive_width_required(self):
        with pytest.raises(ValueError):
            mollify_in_time(ZeroVelocity(), 0.0)

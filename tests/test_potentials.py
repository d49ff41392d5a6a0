import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bscahn.potentials import (
    _SATURATION,
    DominationReport,
    PotentialDomainError,
    PotentialSpec,
    ResolventError,
    YosidaParams,
    check_domination,
    f1,
    f1_prime,
    f2,
    f2_prime,
    yosida_prime,
    yosida_resolvent,
    yosida_second,
    yosida_value,
)

from _oracles import f1_second, resolvent_bisect, yosida_resolvent_reference


class TestLogPotential:
    def test_normalization(self):
        assert f1(0.0, 0.8) == 0.0
        assert f1_prime(0.0, 0.8) == 0.0

    def test_endpoint_value(self):
        assert f1(1.0, 0.8) == pytest.approx(0.8 * math.log(2.0), abs=1e-15)
        assert f1(-1.0, 1.3) == pytest.approx(1.3 * math.log(2.0), abs=1e-15)

    def test_prime_closed_form(self):
        # frozen from a high-precision evaluation of (1/2) ln 3
        assert f1_prime(0.5, 1.0) == pytest.approx(0.5493061443340549, abs=1e-15)

    def test_convex_even_with_curvature_floor(self):
        grid = np.linspace(-0.99, 0.99, 397)
        assert np.allclose(f1(grid, 0.8), f1(-grid, 0.8))
        assert np.all(f1_second(grid, 0.8) >= 0.8)

    def test_domain_errors(self):
        with pytest.raises(PotentialDomainError):
            f1_prime(1.0, 0.8)
        with pytest.raises(PotentialDomainError):
            f1_second(-1.0, 0.8)
        with pytest.raises(PotentialDomainError):
            f1(1.5, 0.8)

    def test_concave_part(self):
        assert f2(2.0, 1.6) == pytest.approx(-3.2)
        assert f2_prime(0.25, 1.6) == pytest.approx(-0.4)


class TestSpecValidation:
    def test_defaults_admissible(self):
        spec = PotentialSpec()
        assert spec.theta_surf == spec.theta

    def test_temperature_ordering_enforced(self):
        with pytest.raises(ValueError):
            PotentialSpec(theta=1.6, theta_c=0.8)

    @pytest.mark.parametrize("kappa", [{"kappa1": math.nan}, {"kappa2": math.nan}],
                             ids=["kappa1", "kappa2"])
    def test_nan_domination_constant_rejected(self, kappa):
        with pytest.raises(ValueError, match="kappa1 > 0 and kappa2 >= 0"):
            PotentialSpec(**kappa)

    def test_zero_theta_is_the_linear_mode(self):
        spec = PotentialSpec(theta=0.0, theta_c=1.0)
        yp = YosidaParams(lam=0.1)
        assert yosida_resolvent(0.7, spec.theta, yp) == 0.7
        assert yosida_prime(0.7, spec.theta, yp) == 0.0

    def test_yosida_params_ceiling(self):
        with pytest.raises(ValueError):
            YosidaParams(lam=1.5)
        with pytest.raises(ValueError):
            YosidaParams(lam=0.0)


class TestResolvent:
    def test_zero_fixed_point(self):
        yp = YosidaParams(lam=0.3)
        assert yosida_resolvent(0.0, 0.8, yp) == 0.0

    def test_frozen_bisection_value(self):
        # oracle: bisection of s + 0.05 ln((1+s)/(1-s)) = 0.5 to 1e-14
        yp = YosidaParams(lam=0.1)
        assert yosida_resolvent(0.5, 1.0, yp) == pytest.approx(
            0.45135938529058495, abs=1e-12
        )

    def test_large_input_stays_inside_band(self):
        yp = YosidaParams(lam=0.5)
        s = yosida_resolvent(10.0, 1.0, yp)
        assert 0.0 < s < 1.0
        oracle = resolvent_bisect(10.0, 1.0, 0.5)
        assert abs(s - oracle) <= 1e-12

    def test_matches_bisection_on_a_grid(self):
        # the grid stays where the root keeps a float-representable distance
        # from the band endpoints, which is where plain bisection is valid
        yp = YosidaParams(lam=0.2)
        for r in np.linspace(-3.0, 3.0, 41):
            assert yosida_resolvent(float(r), 0.8, yp) == pytest.approx(
                resolvent_bisect(float(r), 0.8, 0.2), abs=1e-11
            )

    def test_root_equation_residual(self):
        yp = YosidaParams(lam=0.2)
        grid = np.linspace(-2.0, 2.0, 201)
        s = yosida_resolvent(grid, 0.8, yp)
        resid = s + 0.2 * f1_prime(s, 0.8) - grid
        assert np.abs(resid).max() <= 1e-11

    def test_nonexpansive(self, rng):
        yp = YosidaParams(lam=0.1)
        a = rng.uniform(-4, 4, 500)
        b = rng.uniform(-4, 4, 500)
        ja = yosida_resolvent(a, 0.8, yp)
        jb = yosida_resolvent(b, 0.8, yp)
        assert np.all(np.abs(ja - jb) <= np.abs(a - b) + 1e-13)

    def test_odd_symmetry(self):
        yp = YosidaParams(lam=0.07)
        grid = np.linspace(0.0, 5.0, 100)
        assert np.allclose(
            yosida_resolvent(grid, 0.8, yp), -yosida_resolvent(-grid, 0.8, yp), atol=1e-14
        )

    def test_iteration_cap_raises(self):
        yp = YosidaParams(lam=0.1, resolvent_max_iter=1, resolvent_tol=1e-15)
        with pytest.raises(ResolventError) as err:
            yosida_resolvent(0.5, 0.8, yp)
        lo, hi = err.value.bracket
        assert lo <= hi


class TestYosidaMaps:
    def test_prime_normalization_and_frozen_value(self):
        yp = YosidaParams(lam=0.1)
        assert yosida_prime(0.0, 1.0, yp) == 0.0
        # (0.5 - s*) / 0.1 with s* from the bisection oracle
        assert yosida_prime(0.5, 1.0, yp) == pytest.approx(0.48640614709415053, abs=1e-11)

    def test_prime_monotone_on_grid(self):
        yp = YosidaParams(lam=0.05)
        grid = np.linspace(-6, 6, 1001)
        assert np.all(np.diff(yosida_prime(grid, 0.8, yp)) >= -1e-12)

    def test_value_normalization(self):
        yp = YosidaParams(lam=0.25)
        assert yosida_value(0.0, 0.8, yp) == 0.0

    def test_value_monotone_toward_the_potential(self):
        vals = [
            float(yosida_value(0.9, 0.8, YosidaParams(lam=lam)))
            for lam in (0.1, 0.01, 0.001)
        ]
        limit = float(f1(0.9, 0.8))
        assert vals[0] < vals[1] < vals[2] <= limit
        assert limit - vals[2] < limit - vals[0]

    def test_value_below_potential_on_band(self):
        yp = YosidaParams(lam=0.05)
        grid = np.linspace(-1.0, 1.0, 401)
        assert np.all(yosida_value(grid, 0.8, yp) <= f1(grid, 0.8) + 1e-14)
        assert np.all(yosida_value(grid, 0.8, yp) >= 0.0)

    def test_curvature_floor_and_cap(self):
        theta = 0.8
        for lam in (0.5, 0.05, 0.005):
            yp = YosidaParams(lam=lam)
            grid = np.linspace(-8, 8, 801)
            sec = yosida_second(grid, theta, yp)
            assert np.all(sec >= theta / (1.0 + theta) - 1e-12)
            assert np.all(sec <= 1.0 / lam + 1e-9)

    def test_second_difference_floor(self):
        theta, lam = 0.8, 0.1
        yp = YosidaParams(lam=lam)
        grid = np.linspace(-3, 3, 6001)
        h = grid[1] - grid[0]
        v = yosida_value(grid, theta, yp)
        second = (v[2:] - 2 * v[1:-1] + v[:-2]) / h**2
        assert np.all(second >= theta / (1.0 + theta) - 1e-4)

    def test_lipschitz_bound(self, rng):
        for lam in (0.5, 0.05):
            yp = YosidaParams(lam=lam)
            a = rng.uniform(-5, 5, 400)
            b = rng.uniform(-5, 5, 400)
            lhs = np.abs(yosida_prime(a, 0.8, yp) - yosida_prime(b, 0.8, yp))
            assert np.all(lhs <= np.abs(a - b) / lam + 1e-10)

    def test_prime_converges_pointwise(self):
        grid = np.linspace(-0.95, 0.95, 39)
        errs = []
        for lam in (1e-1, 1e-2, 1e-3, 1e-4):
            yp = YosidaParams(lam=lam)
            errs.append(np.abs(yosida_prime(grid, 0.8, yp) - f1_prime(grid, 0.8)).max())
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_growth_with_measured_pair(self):
        # measure (lam_bar, C) at the worst schedule point, then verify the
        # bound for all smaller regularization parameters on a fresh grid
        theta = 0.8
        lam_bar = 0.5
        grid = np.linspace(-8.0, 8.0, 1601)
        ypb = YosidaParams(lam=lam_bar)
        C = float(np.max(grid**2 / (4 * lam_bar) - yosida_value(grid, theta, ypb)))
        assert math.isfinite(C)
        check = np.linspace(-11.7, 11.7, 877)
        for lam in (0.5, 0.1, 0.01, 0.001):
            yp = YosidaParams(lam=lam)
            vals = yosida_value(check, theta, yp)
            assert np.all(vals >= check**2 / (4 * lam_bar) - C - 1e-9)


class TestDomination:
    def test_zero_alpha_always_passes(self):
        rep = check_domination(
            PotentialSpec(kappa2=0.0), YosidaParams(lam=0.1), np.linspace(-5, 5, 1001), alpha=0.0
        )
        assert rep.passed
        assert rep.max_margin <= 0.0

    def test_identical_potentials_margin_zero(self):
        rep = check_domination(
            PotentialSpec(kappa1=1.0, kappa2=0.0),
            YosidaParams(lam=0.05),
            np.linspace(-5, 5, 2001),
            alpha=1.0,
        )
        assert isinstance(rep, DominationReport)
        assert rep.passed
        assert rep.max_margin == pytest.approx(0.0, abs=1e-12)

    def test_identical_potentials_with_fractional_alpha(self):
        rep = check_domination(
            PotentialSpec(), YosidaParams(lam=1e-3), np.linspace(-6, 6, 4001), alpha=0.5
        )
        assert rep.passed

    def test_scaled_pair_raw_derivatives(self):
        # the weaker bulk potential is exactly half of the stronger surface
        # one, so the raw margins vanish with kappa1 = 1/2 on the open band
        spec = PotentialSpec(theta=1.0, theta_c=2.0, theta_surf=2.0, theta_c_surf=3.0, kappa1=0.5)
        grid = np.linspace(-0.999, 0.999, 10001)
        margin = (
            np.abs(f1_prime(grid, spec.theta))
            - spec.kappa1 * np.abs(f1_prime(grid, spec.theta_surf))
            - spec.kappa2
        )
        assert margin.max() <= 0.0
        assert margin.max() <= 1e-12

    def test_scaled_pair_regularized_transfer(self):
        # after regularization the same-constant inequality is provably lost
        # (the maps flatten at different rates); the transferred constant
        # kappa1 + |alpha| restores it on the whole line
        spec = PotentialSpec(theta=1.0, theta_c=2.0, theta_surf=2.0, theta_c_surf=3.0, kappa1=0.5)
        yp = YosidaParams(lam=0.5)
        grid = np.linspace(-6, 6, 10001)
        same = check_domination(spec, yp, grid, alpha=1.0)
        assert not same.passed  # counterexample to the naive transfer
        transferred = check_domination(
            PotentialSpec(
                theta=1.0, theta_c=2.0, theta_surf=2.0, theta_c_surf=3.0, kappa1=0.5 + 1.0
            ),
            yp,
            grid,
            alpha=1.0,
        )
        assert transferred.passed


# -- the kernel against its whole-array reference ------------------------------

KERNEL_SETTINGS = settings(max_examples=300, deadline=None, database=None, derandomize=True)


@st.composite
def resolvent_inputs(draw, max_iter=st.just(100)):
    """(r, theta, YosidaParams): r a scalar or an array of any shape up to 3-d,
    empty included, mixing signed zeros, NaN, +-inf, |r| up to 1e3 and values
    a few ulps either side of the interior/saturated switch."""
    lam = draw(st.floats(1e-6, 0.999))
    theta = draw(st.one_of(st.just(0.0), st.floats(1e-3, 2.0)))
    yp = YosidaParams(lam=lam, resolvent_max_iter=draw(max_iter))
    r_switch = (1.0 - _SATURATION) + lam * (theta / 2.0) * np.log(
        (2.0 - _SATURATION) / _SATURATION
    )
    near_switch = st.tuples(st.integers(-4, 4), st.sampled_from([-1.0, 1.0])).map(
        lambda ks: ks[1] * float(r_switch + ks[0] * np.spacing(r_switch))
    )
    elements = st.one_of(
        st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf]),
        st.floats(-1e3, 1e3),
        st.floats(-2.0, 2.0),
        near_switch,
    )
    # mostly saturated or NaN: entries that never converge keep the others
    # from leaving the arrays, so converged ones must stay frozen in place
    saturated = st.one_of(st.just(np.nan), st.floats(0.9, 3.0), st.floats(-3.0, -0.9))
    r = draw(st.one_of(
        elements,
        hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=7),
                   elements=elements),
        hnp.arrays(np.float64, st.integers(3, 9), elements=saturated),
    ))
    return r, theta, yp


def _outcome(kernel, r, theta, yp):
    try:
        out = kernel(r, theta, yp)
    except ResolventError as exc:
        return "error", str(exc), exc.bracket
    return type(out), np.shape(out), np.asarray(out).tobytes()


class TestResolventKernel:
    @KERNEL_SETTINGS
    @given(resolvent_inputs())
    def test_bitwise_equal_to_the_whole_array_kernel(self, case):
        r, theta, yp = case
        assert _outcome(yosida_resolvent, r, theta, yp) == _outcome(
            yosida_resolvent_reference, r, theta, yp
        )

    @KERNEL_SETTINGS
    @given(resolvent_inputs(max_iter=st.integers(1, 4)))
    def test_iteration_cap_raises_as_the_whole_array_kernel(self, case):
        # same message and the bracket of the first unconverged entry in
        # array order, or the same values when the cap is not reached
        r, theta, yp = case
        assert _outcome(yosida_resolvent, r, theta, yp) == _outcome(
            yosida_resolvent_reference, r, theta, yp
        )

    @pytest.mark.parametrize("r", [[0.0, 0.9, 0.5, 0.0], [0.0, 0.9, 0.5]])
    def test_iteration_cap_reports_the_first_unconverged_entry(self, r):
        # the zeros converge at once, 0.9 and 0.5 do not; the bracket is 0.9's
        yp = YosidaParams(lam=0.1, resolvent_max_iter=2, resolvent_tol=1e-15)
        r = np.array(r)
        with pytest.raises(ResolventError) as err:
            yosida_resolvent(r, 0.8, yp)
        with pytest.raises(ResolventError) as ref:
            yosida_resolvent_reference(r, 0.8, yp)
        assert str(err.value) == str(ref.value)
        assert err.value.bracket == ref.value.bracket

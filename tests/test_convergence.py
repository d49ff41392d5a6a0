"""Convergence of the discrete operators to the PDE terms they approximate.

The acceptance criteria check identities of the discrete scheme; these tests
check that the scheme approximates the paper's equations at the expected
order, so that a discretization of a different PDE cannot pass.
"""

import math

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from bscahn.assembly import BulkSurfacePair, CouplingParams, assemble
from bscahn.elliptic import EllipticProblem, solve_regularized
from bscahn.mesh import generate_unit_square
from bscahn.potentials import PotentialSpec, YosidaParams, yosida_prime
from bscahn.stepper import StepperConfig, TimeStepper
from bscahn.velocity import StreamFunctionVelocity


def test_transport_load_converges_to_minus_v_dot_grad_phi():
    # For a divergence-free v tangential on the boundary, integration by
    # parts gives int phi v . grad(test) = -int (v . grad phi) test, so the
    # mass-matrix solve of the transport load approximates -v . grad phi.
    # With phi = 0.2 (x - 1/2), v . grad phi = 0.2 v_x; at interior nodes of
    # the structured mesh the P1 mass-matrix projection is second order
    # (max errors about 5.1e-2, 1.2e-2 and 3.0e-3 at n = 8, 16, 32), while
    # a transport term of the wrong sign leaves an O(1) error.
    field = StreamFunctionVelocity(profile="sine2")
    errors = []
    for n in (8, 16, 32):
        ops = assemble(generate_unit_square(n))
        st = TimeStepper(ops, StepperConfig(dt=1e-3, cp=CouplingParams(1.0, 1.0, 0.5, 2.0)))
        x, y = ops.mesh.nodes.T
        pair = BulkSurfacePair(0.2 * (x - 0.5), np.zeros(ops.n_surf))
        load = st.convection_load(pair, field, 0.0)[: ops.n_bulk]
        approx = spla.spsolve(ops.M_bulk.tocsc(), load)
        exact = -0.2 * field.sample_bulk(x, y, 0.0)[:, 0]
        interior = ops.interior_nodes
        errors.append(float(np.abs(approx - exact)[interior].max()))
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    assert all(r >= 3.5 for r in ratios), (errors, ratios)


def test_regularized_elliptic_solve_converges_at_second_order():
    """Manufactured solution of the regularized bulk-surface elliptic system.

    The discrete problem is the weak form of
        -Lap u + F'_lam(u) = f in the unit square,
        K d_n u = alpha psi - u on its boundary loop,
        -Lap_G psi + (alpha / K)(alpha psi - u) + G'_lam(psi) = g on the loop,
    with F'_lam, G'_lam the Yosida-regularized derivatives of the log part.
    Take K = L = 1, alpha = beta = 1, theta = 0.8, lam = 1e-2 and
        u = 0.6 cos(pi x) cos(pi y),    psi = u|_G / alpha.
    Then -Lap u = 2 pi^2 u, and d_n u = 0 on every side, because sin(pi x)
    and sin(pi y) vanish at 0 and 1; the deficit alpha psi - u vanishes, so
    the coupling rows drop out.  Along each side psi is 0.6/alpha times
    cos(pi s) or -cos(pi s) in the side's arclength s, so -Lap_G psi = pi^2
    psi, and its tangential derivative vanishes at both ends, which makes
    psi C^1 through the corners.  Hence
        f = 2 pi^2 u + F'_lam(u),    g = pi^2 psi + G'_lam(psi),
    passed as nodal interpolants.  |u| <= 0.6 keeps the solution well inside
    (-1, 1).  P1 bulk-surface elements converge at O(h^2) in L2 (Elliott and
    Ranner, IMA J. Numer. Anal. 33, 2013); the errors against the nodal
    interpolant are about 1.40e-1, 3.49e-2, 8.72e-3, 2.18e-3 and 5.45e-4 at
    n = 4, ..., 64, a rate of 2.00 at every refinement.
    """
    cp = CouplingParams(K=1.0, L=1.0, alpha=1.0, beta=1.0)
    pot, yp = PotentialSpec(theta=0.8), YosidaParams(lam=1e-2)
    errors = []
    for n in (4, 8, 16, 32, 64):
        ops = assemble(generate_unit_square(n))
        x, y = ops.mesh.nodes.T
        u = 0.6 * np.cos(np.pi * x) * np.cos(np.pi * y)
        psi = u[ops.mesh.surface_nodes] / cp.alpha
        rhs = BulkSurfacePair(
            2.0 * np.pi**2 * u + yosida_prime(u, pot.theta, yp),
            np.pi**2 * psi + yosida_prime(psi, pot.theta_surf, yp),
        )
        sol = solve_regularized(EllipticProblem(ops=ops, cp=cp, pot=pot, yp=yp, rhs=rhs))
        errors.append(ops.l2_norm(sol.uv - BulkSurfacePair(u, psi)))
    rates = [np.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert all(1.9 <= r <= 2.1 for r in rates), (errors, rates)


@pytest.mark.parametrize("K", [1.0, 0.0])
def test_elliptic_solve_with_a_coupling_flux_converges_at_second_order(K):
    """Manufactured solution with a nonzero normal derivative and alpha != 1.

    The system is the one above, at theta = 0.8, lam = 1e-2, L = beta = 1
    and alpha = 0.7; K = 0 replaces the coupling rows by the trace
    constraint u = alpha psi, and the bulk flux enters the surface equation
    as alpha d_n u.  Take
        u = 0.4 cos(pi x) cos(pi y) + 0.1 sin^4(pi x) (y - 1/2).
    On x = 0 and x = 1 both sin(pi x) and its derivative vanish, so
    d_n u = 0 there; on y = 0 and y = 1 the first term is flat in y, so
    d_n u = -+0.1 sin^4(pi x).  One formula covers the loop:
    d_n u = 0.1 sin^4(pi x) (2y - 1).  The coupling law K d_n u = alpha psi - u
    gives psi = (u + K d_n u) / alpha, which is C^1 through the corners,
    since every term's tangential derivative vanishes there, and
        f = -Lap u + F'_lam(u),    g = -psi_ss + G'_lam(psi) + alpha d_n u.
    With (sin^4)'' = 4 pi^2 (3 sin^2 cos^2 - sin^4) in pi x, psi_ss is
    (u_xx + K (d_n u)_xx) / alpha on the horizontal sides and u_yy / alpha on
    the vertical ones.  The L2 errors against the nodal interpolants are
    about 8.41e-2 ... 3.50e-4 (K = 1) and 7.50e-2 ... 3.02e-4 (K = 0) at
    n = 4, ..., 64, rates 1.95 to 2.00.  Unlike the test above, the deficit
    alpha psi - u and the flux alpha d_n u are nonzero, so a wrong alpha or
    1/K in the coupling rows stalls the error.
    """
    cp = CouplingParams(K=K, L=1.0, alpha=0.7, beta=1.0)
    pot, yp = PotentialSpec(theta=0.8), YosidaParams(lam=1e-2)
    errors = []
    for n in (4, 8, 16, 32, 64):
        ops = assemble(generate_unit_square(n))
        x, y = ops.mesh.nodes.T
        cx, cy, sx = np.cos(np.pi * x), np.cos(np.pi * y), np.sin(np.pi * x)
        sin4_xx = 4.0 * np.pi**2 * (3.0 * sx**2 * cx**2 - sx**4)
        u = 0.4 * cx * cy + 0.1 * sx**4 * (y - 0.5)
        u_xx = -0.4 * np.pi**2 * cx * cy + 0.1 * sin4_xx * (y - 0.5)
        u_yy = -0.4 * np.pi**2 * cx * cy
        dn = 0.1 * sx**4 * (2.0 * y - 1.0)
        horizontal = (y == 0.0) | (y == 1.0)
        psi_ss = np.where(horizontal, u_xx + K * 0.1 * sin4_xx * (2.0 * y - 1.0), u_yy) / cp.alpha
        b = ops.mesh.surface_nodes
        psi = (u[b] + K * dn[b]) / cp.alpha
        rhs = BulkSurfacePair(
            -(u_xx + u_yy) + yosida_prime(u, pot.theta, yp),
            -psi_ss[b] + yosida_prime(psi, pot.theta_surf, yp) + cp.alpha * dn[b],
        )
        sol = solve_regularized(EllipticProblem(ops=ops, cp=cp, pot=pot, yp=yp, rhs=rhs))
        errors.append(ops.l2_norm(sol.uv - BulkSurfacePair(u, psi)))
    rates = [np.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert all(1.9 <= r <= 2.1 for r in rates), (errors, rates)


@pytest.mark.parametrize(
    "K,L", [(0.0, 0.0), (1.0, 0.0), (math.inf, 1.0), (math.inf, math.inf), (math.inf, 0.0)]
)
def test_time_step_converges_at_first_order(K, L):
    """Self-convergence of the final fields in time.

    The convex-splitting step is first order in dt (Eyre, MRS Proc. 529,
    1998).  From smooth data, phi = 0.1 + 0.4 cos(pi x) cos(pi y) and psi its
    trace (so alpha = beta = 1 makes the data and the initial potentials
    compatible with every regime, K = 0 and L = 0 included), in the sine2
    stream, the fields at t = 0.02 for dt = 5e-4, 2.5e-4 and 1.25e-4 on the
    n = 8 mesh differ in L2 by about 2.6e-3 and 1.3e-3: an order of 0.99 to
    1.00 on the finest pair in each regime.
    """
    ops = assemble(generate_unit_square(8))
    x, y = ops.mesh.nodes.T
    bulk = 0.1 + 0.4 * np.cos(np.pi * x) * np.cos(np.pi * y)
    init = BulkSurfacePair(bulk, bulk[ops.mesh.surface_nodes].copy())
    field = StreamFunctionVelocity(profile="sine2")
    finals = []
    for dt in (5e-4, 2.5e-4, 1.25e-4):
        cfg = StepperConfig(dt=dt, cp=CouplingParams(K, L, 1.0, 1.0), yp=YosidaParams(lam=1e-3))
        traj = TimeStepper(ops, cfg).run(init, field, 0.02)
        assert traj.failure is None
        finals.append(traj.final.phi_psi)
    coarse, fine = ops.l2_norm(finals[0] - finals[1]), ops.l2_norm(finals[1] - finals[2])
    assert 0.9 <= math.log2(coarse / fine) <= 1.1, (coarse, fine)

"""Convergence of the discrete operators to the PDE terms they approximate.

The acceptance criteria check identities of the discrete scheme; these tests
check that the scheme approximates the paper's equations at the expected
order, so that a discretization of a different PDE cannot pass.
"""

import numpy as np
import scipy.sparse.linalg as spla

from bscahn.assembly import BulkSurfacePair, CouplingParams, assemble
from bscahn.mesh import generate_unit_square
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

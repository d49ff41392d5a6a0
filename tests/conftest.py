import numpy as np
import pytest

from bscahn.assembly import assemble
from bscahn.mesh import _build, generate_unit_square


@pytest.fixture(scope="session")
def mesh2():
    return generate_unit_square(2)


@pytest.fixture(scope="session")
def ops2(mesh2):
    return assemble(mesh2)


@pytest.fixture(scope="session")
def mesh4():
    return generate_unit_square(4)


@pytest.fixture(scope="session")
def ops4(mesh4):
    return assemble(mesh4)


@pytest.fixture(scope="session")
def mesh8():
    return generate_unit_square(8)


@pytest.fixture(scope="session")
def ops8(mesh8):
    return assemble(mesh8)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def jittered_mesh():
    """n = 6 with interior nodes moved, boundary nodes slid along their
    sides (so the surface elements differ in length), and the triangles in
    reverse order, each rotated."""
    mesh = generate_unit_square(6)
    rng = np.random.default_rng(5)
    nodes = mesh.nodes.copy()
    interior = np.setdiff1d(np.arange(mesh.num_nodes), mesh.surface_nodes)
    nodes[interior] += rng.uniform(-0.03, 0.03, (len(interior), 2))
    for axis in (0, 1):
        # nodes on a side x = 0 or 1 (axis 0) slide in y, and vice versa
        on_side = np.isin(nodes[:, axis], (0.0, 1.0))
        inner = (nodes[:, 1 - axis] > 0.0) & (nodes[:, 1 - axis] < 1.0)
        slide = np.nonzero(on_side & inner)[0]
        nodes[slide, 1 - axis] += rng.uniform(-0.04, 0.04, len(slide))
    tris = np.array([np.roll(tri, k % 3) for k, tri in enumerate(mesh.triangles[::-1])])
    return _build(nodes, tris)


@pytest.fixture(scope="session", params=["2", "3", "33", "jittered"])
def oracle_ops(request):
    """Operators on the meshes the kernels are checked against their oracles:
    n = 3 and 33 have element sizes with no exact binary form."""
    if request.param == "jittered":
        return assemble(jittered_mesh())
    return assemble(generate_unit_square(int(request.param)))

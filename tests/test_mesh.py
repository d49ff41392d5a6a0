import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bscahn.assembly import BulkSurfacePair
from bscahn.mesh import (
    Mesh,
    MeshError,
    MeshFormatError,
    generate_unit_square,
    load_mesh,
    save_mesh,
    triangle_edges,
)
from bscahn.output import read_field_snapshot, write_field_snapshot

from _oracles import edges_by_dict


def write_mesh(path, nodes, tris):
    lines = ["bsmesh 1", f"{len(nodes)} {len(tris)}"]
    lines += [f"{float(x)!r} {float(y)!r}" for x, y in nodes]
    lines += [f"{a} {b} {c}" for a, b, c in tris]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_counts_on_coarsest_grid(mesh2):
    assert mesh2.num_nodes == 9
    assert mesh2.num_triangles == 8
    assert mesh2.num_surface_nodes == 8
    assert mesh2.perimeter == pytest.approx(4.0, abs=1e-14)


def test_triangle_areas_tile_the_square(mesh2):
    areas = mesh2.triangle_areas()
    assert np.all(areas > 0)
    assert areas.sum() == pytest.approx(1.0, abs=1e-15)


def test_arc_lengths_by_direct_edge_summation(mesh4):
    assert mesh4.num_surface_nodes == 16
    # independent oracle: walk the loop summing Euclidean edge lengths
    loop = mesh4.surface_nodes
    total = 0.0
    sums = [0.0]
    for i in range(len(loop)):
        j = (i + 1) % len(loop)
        total += float(np.linalg.norm(mesh4.nodes[loop[j]] - mesh4.nodes[loop[i]]))
        sums.append(total)
    assert abs(mesh4.arc_lengths[-1] - 4.0) <= 1e-14
    assert np.allclose(mesh4.arc_lengths, sums, atol=1e-14)
    assert np.all(np.diff(mesh4.arc_lengths) > 0)


def test_boundary_loop_starts_at_origin_and_runs_ccw(mesh4):
    loop = mesh4.surface_nodes
    assert np.allclose(mesh4.nodes[loop[0]], [0.0, 0.0])
    # counterclockwise: the signed area of the boundary polygon is positive
    pts = mesh4.nodes[loop]
    shoelace = 0.5 * np.sum(
        pts[:, 0] * np.roll(pts[:, 1], -1) - pts[:, 1] * np.roll(pts[:, 0], -1)
    )
    assert shoelace > 0


def test_surface_nodes_injective_onto_boundary(mesh4):
    loop = mesh4.surface_nodes
    assert len(set(loop.tolist())) == len(loop)
    on_boundary = np.where(
        (np.abs(mesh4.nodes[:, 0]) < 1e-14)
        | (np.abs(mesh4.nodes[:, 0] - 1) < 1e-14)
        | (np.abs(mesh4.nodes[:, 1]) < 1e-14)
        | (np.abs(mesh4.nodes[:, 1] - 1) < 1e-14)
    )[0]
    assert set(loop.tolist()) == set(on_boundary.tolist())


def test_invalid_resolution_rejected():
    with pytest.raises(MeshError):
        generate_unit_square(1)
    with pytest.raises(MeshError):
        generate_unit_square(0)


def test_euler_characteristic(mesh4):
    edges = set()
    for tri in mesh4.triangles:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            edges.add((min(a, b), max(a, b)))
    v, e, t = mesh4.num_nodes, len(edges), mesh4.num_triangles
    assert v - e + t == 1


def test_shoelace_area_matches_triangle_sum(mesh8):
    pts = mesh8.nodes[mesh8.surface_nodes]
    shoelace = 0.5 * np.sum(
        pts[:, 0] * np.roll(pts[:, 1], -1) - pts[:, 1] * np.roll(pts[:, 0], -1)
    )
    total = mesh8.triangle_areas().sum()
    assert abs(total - shoelace) <= 1e-12 * abs(shoelace)


def test_boundary_edges_belong_to_one_triangle(mesh4):
    count = {}
    for tri in mesh4.triangles:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (min(a, b), max(a, b))
            count[key] = count.get(key, 0) + 1
    loop = mesh4.surface_nodes.tolist()
    for a, b in zip(loop, loop[1:] + loop[:1]):
        assert count[(min(a, b), max(a, b))] == 1


def test_save_load_roundtrip(tmp_path, mesh2):
    path = tmp_path / "mesh.txt"
    save_mesh(mesh2, str(path))
    back = load_mesh(str(path))
    assert np.allclose(back.nodes, mesh2.nodes)
    assert np.array_equal(back.triangles, mesh2.triangles)
    assert np.array_equal(back.surface_nodes, mesh2.surface_nodes)


def test_save_line_counts(tmp_path):
    mesh = generate_unit_square(3)
    path = tmp_path / "m3.txt"
    save_mesh(mesh, str(path))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "bsmesh 1"
    assert lines[1] == "16 18"
    assert len(lines) == 2 + 16 + 18


def test_save_empty_path_raises(mesh2):
    with pytest.raises(OSError):
        save_mesh(mesh2, "")


def test_load_reports_line_and_column(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("bsmesh 1\n3 junk\n0 0\n1 0\n0 1\n0 1 2\n")
    with pytest.raises(MeshFormatError) as err:
        load_mesh(str(path))
    assert err.value.line == 2
    assert err.value.column == 3


def test_load_rejects_clockwise_triangle(tmp_path):
    path = tmp_path / "cw.txt"
    path.write_text("bsmesh 1\n3 1\n0 0\n1 0\n0 1\n0 2 1\n")
    with pytest.raises(MeshError, match="signed area"):
        load_mesh(str(path))


def test_load_rejects_multi_loop_boundary(tmp_path):
    # square ring: outer square with a square hole, valid triangles but two
    # boundary loops
    outer = [(0, 0), (3, 0), (3, 3), (0, 3)]
    inner = [(1, 1), (2, 1), (2, 2), (1, 2)]
    nodes = outer + inner
    tris = [
        (0, 1, 5), (0, 5, 4), (1, 2, 6), (1, 6, 5),
        (2, 3, 7), (2, 7, 6), (3, 0, 4), (3, 4, 7),
    ]
    lines = ["bsmesh 1", f"{len(nodes)} {len(tris)}"]
    lines += [f"{x} {y}" for x, y in nodes]
    lines += [f"{a} {b} {c}" for a, b, c in tris]
    path = tmp_path / "ring.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MeshError, match="loop"):
        load_mesh(str(path))


def test_load_ignores_comments(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text(
        "# header comment\nbsmesh 1\n3 1  # counts\n0 0\n1 0\n0 1\n0 1 2\n"
    )
    mesh = load_mesh(str(path))
    assert mesh.num_triangles == 1


def test_mesh_arrays_are_immutable(mesh2):
    with pytest.raises(ValueError):
        mesh2.nodes[0, 0] = 5.0


def shuffled_unit_square(tmp_path, n):
    """generate_unit_square(n) saved with its triangles in reverse order, each
    rotated by its index mod 3, and loaded back."""
    mesh = generate_unit_square(n)
    tris = [np.roll(tri, k % 3) for k, tri in enumerate(mesh.triangles[::-1])]
    return load_mesh(write_mesh(tmp_path / "shuffled.txt", mesh.nodes, tris))


@pytest.mark.parametrize("which", ["generated", "shuffled"])
def test_triangle_edges_match_a_dict_loop(which, tmp_path):
    mesh = generate_unit_square(4) if which == "generated" else shuffled_unit_square(tmp_path, 4)
    edges, tri_edges, counts = triangle_edges(mesh.triangles)
    ref_edges, ref_tri_edges, ref_counts = edges_by_dict(mesh.triangles)
    assert np.array_equal(edges, ref_edges)
    assert np.array_equal(tri_edges, ref_tri_edges)
    assert np.array_equal(counts, ref_counts)
    assert mesh.num_nodes - len(edges) + mesh.num_triangles == 1
    # boundary edges are the ones in a single triangle
    assert int(np.sum(counts == 1)) == mesh.num_surface_nodes


def test_shuffled_triangles_keep_the_boundary_loop(tmp_path):
    mesh = shuffled_unit_square(tmp_path, 4)
    ref = generate_unit_square(4)
    assert np.array_equal(mesh.surface_nodes, ref.surface_nodes)
    assert np.array_equal(mesh.arc_lengths, ref.arc_lengths)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_unit_square_triangles_by_nested_loops(n):
    tris = []
    for j in range(n):
        for i in range(n):
            a, b = j * (n + 1) + i, j * (n + 1) + i + 1
            c, d = (j + 1) * (n + 1) + i + 1, (j + 1) * (n + 1) + i
            tris += [(a, b, c), (a, c, d)]
    mesh = generate_unit_square(n)
    assert mesh.triangles.dtype == np.int64
    assert np.array_equal(mesh.triangles, np.array(tris))


def test_bow_tie_is_non_manifold(tmp_path):
    # two triangles touching only at node 0
    nodes = [(0, 0), (1, 0), (1, 1), (-1, 0), (-1, -1)]
    path = write_mesh(tmp_path / "bowtie.txt", nodes, [(0, 1, 2), (0, 3, 4)])
    with pytest.raises(MeshError, match="non-manifold boundary at node 0$"):
        load_mesh(path)


def test_edge_in_three_triangles_is_rejected(tmp_path):
    nodes = [(0, 0), (1, 0), (0.5, 1), (0.5, -1), (0.5, 2)]
    path = write_mesh(tmp_path / "fan.txt", nodes, [(0, 1, 2), (1, 0, 3), (0, 1, 4)])
    with pytest.raises(MeshError) as err:
        load_mesh(path)
    assert str(err.value) == f"{path}: edge (0, 1) shared by 3 triangles"


def test_load_checks_counts_before_allocating(tmp_path):
    # a trillion nodes announced, three given: a format error, not an
    # attempt to allocate the announced arrays
    path = tmp_path / "huge.txt"
    path.write_text("bsmesh 1\n1000000000000 1\n0 0\n1 0\n0 1\n0 1 2\n")
    with pytest.raises(MeshFormatError, match="unexpected end of file"):
        load_mesh(str(path))


def test_node_index_past_int64_is_a_format_error(tmp_path):
    path = tmp_path / "big.txt"
    path.write_text("bsmesh 1\n3 1\n0 0\n1 0\n0 1\n0 1 100000000000000000000\n")
    with pytest.raises(MeshFormatError, match="bad node index") as err:
        load_mesh(str(path))
    assert (err.value.line, err.value.column) == (6, 5)


def test_count_past_float_range_is_a_format_error(tmp_path):
    path = tmp_path / "huge.txt"
    path.write_text(f"bsmesh 1\n{'9' * 25} 1\n0 0\n1 0\n0 1\n0 1 2\n")
    with pytest.raises(MeshFormatError, match="bad node count") as err:
        load_mesh(str(path))
    assert (err.value.line, err.value.column) == (2, 1)


@pytest.mark.parametrize("counts, column", [("-5 1", 1), ("3 0", 3)])
def test_mesh_too_small_points_at_the_count(counts, column, tmp_path):
    path = tmp_path / "small.txt"
    path.write_text(f"bsmesh 1\n{counts}\n0 0\n1 0\n0 1\n0 1 2\n")
    with pytest.raises(MeshFormatError, match="mesh too small") as err:
        load_mesh(str(path))
    assert (err.value.line, err.value.column) == (2, column)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN", "1e999"])
def test_non_finite_coordinate_is_a_format_error(token, tmp_path):
    path = tmp_path / "nonfinite.txt"
    path.write_text(f"bsmesh 1\n3 1\n0 0\n1 0\n{token} 1\n0 1 2\n")
    with pytest.raises(MeshFormatError, match="bad coordinate") as err:
        load_mesh(str(path))
    assert (err.value.line, err.value.column) == (5, 1)


# -- fuzzing the text readers ---------------------------------------------------------
#
# Each case edits the tokens of a valid file: a token is replaced by, or
# preceded by, one from a vocabulary of format words, counts, edge-case
# numbers and comment marks, or dropped; line breaks are placed at random.
# Whatever the result, a reader may raise only MeshError or ValueError.

_FUZZ = settings(max_examples=100, deadline=None, database=None, derandomize=True)
_VOCABULARY = [
    "bsmesh", "bsfield", "bulk", "surf", "0", "1", "2", "3", "8", "9", "-1", "0.5", "1e308",
    "-1e308", "1e999", "nan", "inf", "1.5", "x", "#", "#1", "9" * 25, "1_0", "0x10",
]
_EDITS = st.lists(
    st.tuples(st.integers(0, 10**6), st.sampled_from(["replace", "insert", "drop"]),
              st.sampled_from(_VOCABULARY)),
    max_size=4,
)


def _edited(text, edits, breaks):
    tokens = text.split()
    for index, op, word in edits:
        i = index % (len(tokens) + 1)
        if op == "insert":
            tokens.insert(i, word)
        elif i < len(tokens):
            if op == "replace":
                tokens[i] = word
            else:
                del tokens[i]
    return "".join(tok + ("\n" if b else " ") for tok, b in zip(tokens, breaks * len(tokens)))


def _read_allowing_value_errors(read, path, text):
    path.write_text(text)
    try:
        read(str(path))
    except ValueError:  # MeshError included
        pass


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def valid_texts(fuzz_dir, mesh2):
    """A valid bsmesh file of mesh2 and a valid bsfield file on it."""
    save_mesh(mesh2, str(fuzz_dir / "mesh.txt"))
    pair = BulkSurfacePair(np.linspace(-1, 1, mesh2.num_nodes), np.zeros(mesh2.num_surface_nodes))
    write_field_snapshot(str(fuzz_dir / "field.txt"), mesh2, pair)
    return {name: (fuzz_dir / f"{name}.txt").read_text() for name in ("mesh", "field")}


@_FUZZ
@given(edits=_EDITS, breaks=st.lists(st.booleans(), min_size=1, max_size=7))
def test_mesh_reader_raises_only_mesh_or_value_errors(fuzz_dir, valid_texts, edits, breaks):
    text = _edited(valid_texts["mesh"], edits, breaks)
    _read_allowing_value_errors(load_mesh, fuzz_dir / "edited.txt", text)


@_FUZZ
@given(edits=_EDITS, breaks=st.lists(st.booleans(), min_size=1, max_size=7))
def test_snapshot_reader_raises_only_mesh_or_value_errors(
    fuzz_dir, valid_texts, mesh2, edits, breaks
):
    text = _edited(valid_texts["field"], edits, breaks)
    _read_allowing_value_errors(
        lambda path: read_field_snapshot(path, mesh2), fuzz_dir / "edited.txt", text
    )

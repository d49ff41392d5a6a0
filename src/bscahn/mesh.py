"""Triangulated unit-square meshes with an arc-length parametrized boundary loop.

The bulk domain is a 2D triangulation; its boundary is extracted as a single
closed polygonal curve and carried as a 1D periodic surface mesh.  Surface
node ``i`` is the bulk node ``surface_nodes[i]``; that index array is the
trace map used by all bulk-surface coupling terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class MeshError(ValueError):
    """Invalid mesh topology or geometry."""


class MeshFormatError(MeshError):
    """Mesh file could not be parsed; carries the offending line/column."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _signed_areas(nodes: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    p = nodes[triangles]
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


@dataclass(frozen=True)
class Mesh:
    """Immutable triangulation plus boundary loop.

    Attributes
    ----------
    nodes : (N, 2) float array
        Bulk node coordinates.
    triangles : (T, 3) int array
        Counterclockwise node-index triples.
    surface_nodes : (M,) int array
        Bulk node indices tracing the boundary once, counterclockwise,
        starting at the boundary node nearest the origin.
    arc_lengths : (M+1,) float array
        Cumulative arc length; entry i is the parameter of surface node i,
        the final entry closes the loop and equals the polygon perimeter.
    """

    nodes: np.ndarray
    triangles: np.ndarray
    surface_nodes: np.ndarray
    arc_lengths: np.ndarray

    def __post_init__(self):
        for arr in (self.nodes, self.triangles, self.surface_nodes, self.arc_lengths):
            arr.setflags(write=False)

    @property
    def num_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def num_surface_nodes(self) -> int:
        return self.surface_nodes.shape[0]

    @property
    def perimeter(self) -> float:
        return float(self.arc_lengths[-1])

    def triangle_areas(self) -> np.ndarray:
        return _signed_areas(self.nodes, self.triangles)

    def surface_edge_lengths(self) -> np.ndarray:
        """Length of the M boundary edges (edge i joins surface nodes i, i+1 mod M)."""
        return np.diff(self.arc_lengths)


def _boundary_loop(nodes: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Extract the boundary as one CCW loop from triangle adjacency.

    Boundary edges are those appearing in exactly one triangle; with CCW
    triangles their in-triangle orientation traverses an outer boundary
    counterclockwise.  Raises MeshError on non-manifold edges or if the
    boundary has more than one loop.
    """
    count: dict[tuple[int, int], int] = {}
    directed: dict[int, int] = {}
    for tri in triangles:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (min(a, b), max(a, b))
            count[key] = count.get(key, 0) + 1
            if count[key] == 1:
                directed[int(a)] = int(b)

    boundary_dir: dict[int, int] = {}
    for tri in triangles:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (min(a, b), max(a, b))
            if count[key] == 1:
                if int(a) in boundary_dir:
                    raise MeshError(f"non-manifold boundary at node {int(a)}")
                boundary_dir[int(a)] = int(b)
            elif count[key] > 2:
                raise MeshError(f"edge {key} shared by {count[key]} triangles")

    if not boundary_dir:
        raise MeshError("mesh has no boundary")

    boundary_nodes = np.array(sorted(boundary_dir.keys()))
    coords = nodes[boundary_nodes]
    start = int(boundary_nodes[np.argmin(np.einsum("ij,ij->i", coords, coords))])

    loop = [start]
    nxt = boundary_dir[start]
    while nxt != start:
        loop.append(nxt)
        nxt = boundary_dir[nxt]
        if len(loop) > len(boundary_dir):
            raise MeshError("boundary walk does not close")
    if len(loop) != len(boundary_dir):
        raise MeshError(
            f"boundary has multiple loops ({len(boundary_dir) - len(loop)} nodes unreached)"
        )
    return np.array(loop, dtype=np.int64)


def _build(nodes: np.ndarray, triangles: np.ndarray) -> Mesh:
    nodes = np.ascontiguousarray(np.asarray(nodes, dtype=float))
    triangles = np.ascontiguousarray(np.asarray(triangles, dtype=np.int64))
    if triangles.min(initial=0) < 0 or triangles.max(initial=-1) >= len(nodes):
        raise MeshError("triangle refers to a nonexistent node")
    areas = _signed_areas(nodes, triangles)
    bad = np.nonzero(areas <= 0)[0]
    if bad.size:
        raise MeshError(f"triangle {int(bad[0])} has non-positive signed area {areas[bad[0]]:g}")

    loop = _boundary_loop(nodes, triangles)
    pts = nodes[loop]
    seg = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
    arc = np.concatenate([[0.0], np.cumsum(seg)])
    return Mesh(nodes=nodes, triangles=triangles, surface_nodes=loop, arc_lengths=arc)


def generate_unit_square(n: int) -> Mesh:
    """Structured triangulation of [0,1]^2 with an n-by-n cell grid.

    Each cell is split along its bottom-left to top-right diagonal, giving
    (n+1)^2 nodes, 2 n^2 triangles and 4n boundary nodes.
    """
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise MeshError(f"grid resolution must be an integer >= 2, got {n!r}")
    xs = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(xs, xs, indexing="xy")
    nodes = np.column_stack([xx.ravel(), yy.ravel()])

    def idx(i, j):
        return j * (n + 1) + i

    tris = []
    for j in range(n):
        for i in range(n):
            a, b = idx(i, j), idx(i + 1, j)
            c, d = idx(i + 1, j + 1), idx(i, j + 1)
            tris.append((a, b, c))
            tris.append((a, c, d))
    return _build(nodes, np.array(tris))


def load_mesh(path: str) -> Mesh:
    """Read the plain-text mesh format; see save_mesh for the layout.

    The boundary loop is recomputed from triangle adjacency, never trusted
    from the file.
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw_lines = fh.read().split("\n")

    tokens: list[tuple[str, int, int]] = []  # (token, line, column), 1-based
    for lineno, line in enumerate(raw_lines, start=1):
        body = line.split("#", 1)[0]
        col = 0
        for tok in body.split():
            col = body.index(tok, col) + 1
            tokens.append((tok, lineno, col))
            col += len(tok) - 1

    pos = 0

    def take(expect: str | None = None) -> tuple[str, int, int]:
        nonlocal pos
        if pos >= len(tokens):
            raise MeshFormatError("unexpected end of file", len(raw_lines), 1)
        tok = tokens[pos]
        pos += 1
        if expect is not None and tok[0] != expect:
            raise MeshFormatError(f"expected {expect!r}, got {tok[0]!r}", tok[1], tok[2])
        return tok

    def take_number(kind, what: str):
        tok, ln, col = take()
        try:
            return kind(tok)
        except ValueError:
            raise MeshFormatError(f"bad {what} {tok!r}", ln, col) from None

    take("bsmesh")
    version, ln, col = take()
    if version != "1":
        raise MeshFormatError(f"unsupported format version {version!r}", ln, col)
    n_nodes = take_number(int, "node count")
    n_tris = take_number(int, "triangle count")
    if n_nodes < 3 or n_tris < 1:
        raise MeshFormatError("mesh too small", ln, col)

    nodes = np.empty((n_nodes, 2))
    for k in range(n_nodes):
        nodes[k, 0] = take_number(float, "coordinate")
        nodes[k, 1] = take_number(float, "coordinate")
    tris = np.empty((n_tris, 3), dtype=np.int64)
    for k in range(n_tris):
        for c in range(3):
            tris[k, c] = take_number(int, "node index")
    if pos != len(tokens):
        tok, ln, col = tokens[pos]
        raise MeshFormatError(f"trailing data {tok!r}", ln, col)

    try:
        return _build(nodes, tris)
    except MeshFormatError:
        raise
    except MeshError as exc:
        raise MeshError(f"{path}: {exc}") from exc


def save_mesh(mesh: Mesh, path: str) -> None:
    """Write the plain-text format: header, counts, node lines, triangle lines."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("bsmesh 1\n")
        fh.write(f"{mesh.num_nodes} {mesh.num_triangles}\n")
        for x, y in mesh.nodes:
            fh.write(f"{x:.17g} {y:.17g}\n")
        for a, b, c in mesh.triangles:
            fh.write(f"{a} {b} {c}\n")

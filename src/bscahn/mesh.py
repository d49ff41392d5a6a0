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
    """A mesh or field file could not be parsed; carries the offending line/column
    and, once known, the file's path."""

    def __init__(self, message: str, line: int, column: int = 1, path: str | None = None):
        where = f"line {line}, column {column}: {message}"
        super().__init__(where if path is None else f"{path}: {where}")
        self.message, self.line, self.column = message, line, column


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


def triangle_edges(triangles: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The undirected edges of a triangulation.

    Returns the unique edges as ascending (low, high) node pairs, the (T, 3)
    index of the edge joining local nodes k and k+1 mod 3 of each triangle,
    and how many triangles share each edge.
    """
    heads = np.roll(triangles, -1, axis=1)
    low, high = np.minimum(triangles, heads), np.maximum(triangles, heads)
    n = int(triangles.max(initial=-1)) + 1
    keys, index, counts = np.unique(
        (low * n + high).ravel(), return_inverse=True, return_counts=True
    )
    return np.column_stack([keys // n, keys % n]), index.reshape(triangles.shape), counts


def _boundary_loop(nodes: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Extract the boundary as one CCW loop from triangle adjacency.

    Boundary edges are those appearing in exactly one triangle; with CCW
    triangles their in-triangle orientation traverses an outer boundary
    counterclockwise.  Raises MeshError on non-manifold edges or if the
    boundary has more than one loop; where a mesh has several faults, the
    one met first in triangle order is reported.
    """
    edges, tri_edges, counts = triangle_edges(triangles)
    shared = counts[tri_edges].ravel()  # per directed edge, triangle-major
    tails = triangles.ravel()
    heads = np.roll(triangles, -1, axis=1).ravel()

    on_boundary = np.flatnonzero(shared == 1)
    _, first = np.unique(tails[on_boundary], return_index=True)
    repeated = np.delete(on_boundary, first)  # a second boundary edge leaving a node
    over = np.flatnonzero(shared > 2)
    if repeated.size and (not over.size or repeated[0] < over[0]):
        raise MeshError(f"non-manifold boundary at node {int(tails[repeated[0]])}")
    if over.size:
        low, high = edges[tri_edges.ravel()[over[0]]]
        raise MeshError(f"edge ({low}, {high}) shared by {shared[over[0]]} triangles")
    if not on_boundary.size:
        raise MeshError("mesh has no boundary")

    boundary_nodes = np.sort(tails[on_boundary])
    coords = nodes[boundary_nodes]
    start = int(boundary_nodes[np.argmin(np.einsum("ij,ij->i", coords, coords))])
    successor = np.full(len(nodes), -1, dtype=np.int64)
    successor[tails[on_boundary]] = heads[on_boundary]

    loop = [start]
    while (nxt := int(successor[loop[-1]])) != start:
        if nxt < 0 or len(loop) == len(boundary_nodes):
            raise MeshError("boundary walk does not close")
        loop.append(nxt)
    if len(loop) != len(boundary_nodes):
        raise MeshError(
            f"boundary has multiple loops ({len(boundary_nodes) - len(loop)} nodes unreached)"
        )
    return np.array(loop, dtype=np.int64)


def _build(nodes: np.ndarray, triangles: np.ndarray) -> Mesh:
    nodes = np.ascontiguousarray(np.asarray(nodes, dtype=float))
    triangles = np.ascontiguousarray(np.asarray(triangles, dtype=np.int64))
    if triangles.min(initial=0) < 0 or triangles.max(initial=-1) >= len(nodes):
        raise MeshError("triangle refers to a nonexistent node")
    with np.errstate(over="ignore", invalid="ignore"):  # finite coordinates may overflow
        areas = _signed_areas(nodes, triangles)
    bad = np.nonzero(~(np.isfinite(areas) & (areas > 0)))[0]
    if bad.size:
        area = areas[bad[0]]
        kind = "non-positive" if np.isfinite(area) else "non-finite"
        raise MeshError(f"triangle {int(bad[0])} has {kind} signed area {area:g}")

    loop = _boundary_loop(nodes, triangles)
    pts = nodes[loop]
    with np.errstate(over="ignore"):  # finite coordinates may overflow
        seg = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
    bad = np.nonzero(~np.isfinite(seg))[0]
    if bad.size:
        k = int(bad[0])
        edge = (int(loop[k]), int(loop[(k + 1) % len(loop)]))
        raise MeshError(f"boundary edge {edge} has non-finite length {seg[k]:g}")
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
    nodes = np.column_stack([np.tile(xs, n + 1), np.repeat(xs, n + 1)])  # x fastest

    # cell (i, j), j-major, is split into (a, b, c) and (a, c, d) with a its
    # bottom-left corner, counterclockwise
    j, i = np.divmod(np.arange(n * n), n)
    a = j * (n + 1) + i
    b, c, d = a + 1, a + n + 2, a + n + 1
    tris = np.stack([a, b, c, a, c, d], axis=1).reshape(-1, 3)
    return _build(nodes, tris)


class TokenReader:
    """The whitespace-separated tokens of a text file, read in order, each
    with its 1-based line and column; `#` starts a comment that runs to the
    end of its line.  Every complaint is a MeshFormatError at its token."""

    def __init__(self, text: str):
        lines = text.split("\n")
        self.last_line = len(lines)
        self.tokens: list[tuple[str, int, int]] = []  # (token, line, column)
        for lineno, line in enumerate(lines, start=1):
            body = line.split("#", 1)[0]
            col = 0
            for tok in body.split():
                col = body.index(tok, col) + 1
                self.tokens.append((tok, lineno, col))
                col += len(tok) - 1
        self.pos = 0

    def need(self, count: int) -> None:
        """Raise unless at least count tokens are left."""
        if count > len(self.tokens) - self.pos:
            raise MeshFormatError("unexpected end of file", self.last_line, 1)

    def take(self, expect: str | None = None) -> tuple[str, int, int]:
        self.need(1)
        tok = self.tokens[self.pos]
        self.pos += 1
        if expect is not None and tok[0] != expect:
            raise MeshFormatError(f"expected {expect!r}, got {tok[0]!r}", tok[1], tok[2])
        return tok

    def number(self, kind, what: str):
        """The next token as a finite number of the given type."""
        tok, ln, col = self.take()
        try:
            value = kind(tok)
            finite = np.isfinite(value)  # float() also reads nan and inf
        except (ValueError, OverflowError, TypeError):  # TypeError: int past float range
            finite = False
        if not finite:
            raise MeshFormatError(f"bad {what} {tok!r}", ln, col)
        return value

    def finish(self) -> None:
        """Raise if any token is left."""
        if self.pos != len(self.tokens):
            tok, ln, col = self.tokens[self.pos]
            raise MeshFormatError(f"trailing data {tok!r}", ln, col)


def load_mesh(path: str) -> Mesh:
    """Read the plain-text mesh format; see save_mesh for the layout.

    The boundary loop is recomputed from triangle adjacency, never trusted
    from the file.
    """
    with open(path, "r", encoding="utf-8") as fh:
        tokens = TokenReader(fh.read())
    try:
        return _parse_mesh(tokens)
    except MeshFormatError as exc:
        raise MeshFormatError(exc.message, exc.line, exc.column, path) from exc
    except MeshError as exc:
        raise MeshError(f"{path}: {exc}") from exc


def _parse_mesh(tokens: TokenReader) -> Mesh:
    tokens.take("bsmesh")
    version, ln, col = tokens.take()
    if version != "1":
        raise MeshFormatError(f"unsupported format version {version!r}", ln, col)
    n_nodes = tokens.number(int, "node count")
    n_tris = tokens.number(int, "triangle count")
    for count, low, (_, ln, col) in zip((n_nodes, n_tris), (3, 1), tokens.tokens[2:4]):
        if count < low:
            raise MeshFormatError("mesh too small", ln, col)
    # the file must hold every number it announces; checked before allocating
    tokens.need(2 * n_nodes + 3 * n_tris)

    nodes = np.array([tokens.number(float, "coordinate") for _ in range(2 * n_nodes)])
    tris = np.array([tokens.number(np.int64, "node index") for _ in range(3 * n_tris)])
    tokens.finish()
    return _build(nodes.reshape(n_nodes, 2), tris.reshape(n_tris, 3))


def save_mesh(mesh: Mesh, path: str) -> None:
    """Write the plain-text format: header, counts, node lines, triangle lines."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("bsmesh 1\n")
        fh.write(f"{mesh.num_nodes} {mesh.num_triangles}\n")
        for x, y in mesh.nodes:
            fh.write(f"{x:.17g} {y:.17g}\n")
        for a, b, c in mesh.triangles:
            fh.write(f"{a} {b} {c}\n")

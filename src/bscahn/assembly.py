"""P1 finite-element operators for the coupled bulk-surface problem.

Assembles consistent mass and stiffness matrices on the triangulated bulk and
on the 1D periodic boundary loop, the coupling-weighted bilinear forms, the
generalized bulk-surface mean, constrained subspaces (trace elimination for
the zero-coupling regimes), the inverse elliptic solution operator with its
dual norm, and the discrete Poincare constant.  Also holds what the two
Newton solvers (elliptic and time step) share: one Newton system with its
fixed-pattern matrix, damped line search and lagged factorization.

Quadrature convention: nonlinear integrands are evaluated with the 3-point
edge-midpoint rule on triangles and 2-point Gauss on boundary segments.  Both
rules integrate products of two P1 functions exactly, so the quadrature norm
of a P1 field coincides with its consistent-mass norm; the contraction and
dissipation identities downstream rely on that exactness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import Mesh


class SolverFailure(RuntimeError):
    """Base of every solver failure; the command line exits 2 on it."""


class SolverError(SolverFailure):
    """Linear or eigen-iteration failure."""


class CompatibilityError(SolverFailure):
    """Right-hand side violates the mean-compatibility of the inverse operator."""


def sigma(value: float) -> float:
    """1/K for finite positive K, 0 for K in {0, inf}."""
    if value == 0.0 or math.isinf(value):
        return 0.0
    return 1.0 / value


@dataclass(frozen=True)
class CouplingParams:
    """Coupling constants K, L (each 0, finite positive, or inf) and alpha, beta."""

    K: float
    L: float
    alpha: float
    beta: float

    def __post_init__(self):
        for name in ("K", "L"):
            v = getattr(self, name)
            if not (v >= 0.0):  # also rejects NaN
                raise ValueError(f"{name} must be in [0, inf], got {v!r}")
        if not (-1.0 <= self.alpha <= 1.0):
            raise ValueError(f"alpha must lie in [-1, 1], got {self.alpha}")

    @property
    def sigma_K(self) -> float:
        return sigma(self.K)

    @property
    def sigma_L(self) -> float:
        return sigma(self.L)

    @property
    def gamma_K(self) -> float:
        return 1.0 if self.K == 0.0 else 0.0

    def validate_measures(self, area_bulk: float, area_surf: float) -> None:
        if abs(self.alpha * self.beta * area_bulk + area_surf) < 1e-12:
            raise ValueError(
                f"degenerate coupling: alpha*beta*|Omega| + |Gamma| = "
                f"{self.alpha * self.beta * area_bulk + area_surf:g}"
            )


@dataclass
class BulkSurfacePair:
    """A bulk nodal coefficient vector paired with a surface one."""

    bulk: np.ndarray
    surf: np.ndarray

    def __post_init__(self):
        self.bulk = np.asarray(self.bulk, dtype=float)
        self.surf = np.asarray(self.surf, dtype=float)

    def copy(self) -> "BulkSurfacePair":
        return BulkSurfacePair(self.bulk.copy(), self.surf.copy())

    def __add__(self, other):
        return BulkSurfacePair(self.bulk + other.bulk, self.surf + other.surf)

    def __sub__(self, other):
        return BulkSurfacePair(self.bulk - other.bulk, self.surf - other.surf)

    def __mul__(self, c: float):
        return BulkSurfacePair(c * self.bulk, c * self.surf)

    __rmul__ = __mul__

    def max_abs(self) -> float:
        """The largest |value| of both vectors (0 when empty, NaN on a NaN)."""
        return float(np.abs(np.concatenate([self.bulk, self.surf])).max(initial=0.0))


def _element_entries(elems: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, col) node indices of every element-matrix entry, element-major:
    entry (e, a, b) couples nodes elems[e, a] and elems[e, b]."""
    k = elems.shape[1]
    return np.repeat(elems, k, axis=1).ravel(), np.tile(elems, (1, k)).ravel()


def _scatter(data: np.ndarray, entries: tuple[np.ndarray, np.ndarray], n: int) -> sp.csr_matrix:
    """The n-by-n matrix summing element-matrix data, element-major as in
    :func:`_element_entries`, into its (row, col) entries."""
    return sp.coo_matrix((data.ravel(), entries), shape=(n, n)).tocsr()


_TRI_QPOINTS = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
_TRI_QPAIRS = (_TRI_QPOINTS[:, :, None] * _TRI_QPOINTS[:, None, :]).reshape(3, 9)  # (q, ab)
_GAUSS2 = np.array([0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0)])


_COMPAT_TOL = 1e-8  # compatibility tolerance of S_{L,beta}'s right-hand side
_POINCARE_TOL = 1e-12  # relative eigenvalue change that ends the Poincare iteration
_POINCARE_SWEEPS = 200  # its sweeps before it fails
_POINCARE_BLOCK = 4  # its block size


class FemOperators:
    """Assembled sparse operators plus quadrature tables for one mesh.

    Use :func:`assemble`; instances are immutable by convention and cache
    derived operators, Newton patterns and factorizations internally.
    """

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        nodes, tris = mesh.nodes, mesh.triangles
        self.n_bulk = mesh.num_nodes
        self.n_surf = mesh.num_surface_nodes

        # triangle geometry
        p = nodes[tris]
        areas = mesh.triangle_areas()
        if np.any(areas <= 0):
            raise ValueError("degenerate or inverted triangle in assembly")
        self.tri_areas = areas

        # P1 gradients, shape (T, 3, 2): grad lambda_a is the opposite edge,
        # node a+1 to a+2, turned a quarter counterclockwise, over twice the area
        edge = np.roll(p, -2, axis=1) - np.roll(p, -1, axis=1)
        self.tri_grads = np.stack([-edge[..., 1], edge[..., 0]], -1) / (2.0 * areas)[:, None, None]

        # bulk stiffness and consistent mass
        self.tri_entries = _element_entries(tris)
        self.A_bulk = self.bulk_weighted_stiffness(np.ones(len(tris)))
        me = (areas[:, None, None] / 12.0) * (np.ones((3, 3)) + np.eye(3))
        self.M_bulk = _scatter(me, self.tri_entries, self.n_bulk)

        # surface loop: element i joins surface nodes (i, i+1 mod M)
        M = self.n_surf
        self.surf_elems = np.column_stack([np.arange(M), (np.arange(M) + 1) % M])
        self.surf_entries = _element_entries(self.surf_elems)
        h = mesh.surface_edge_lengths()
        self.surf_h = h
        self.A_surf = self.surf_weighted_stiffness(np.ones(M))
        me_surf = np.stack([h / 3.0, h / 6.0, h / 6.0, h / 3.0], axis=1)
        self.M_surf = _scatter(me_surf, self.surf_entries, M)

        # trace operator: surface index -> bulk node
        self.trace = sp.coo_matrix(
            (np.ones(M), (np.arange(M), mesh.surface_nodes)), shape=(M, self.n_bulk)
        ).tocsr()

        self.mass_vec_bulk = np.asarray(self.M_bulk.sum(axis=1)).ravel()
        self.mass_vec_surf = np.asarray(self.M_surf.sum(axis=1)).ravel()
        self.area_bulk = float(self.mass_vec_bulk.sum())
        self.area_surf = float(self.mass_vec_surf.sum())

        # quadrature tables
        self.tri_qbasis = _TRI_QPOINTS  # (q, a) barycentric values
        self.tri_qweights = np.repeat(areas[:, None] / 3.0, 3, axis=1)  # (T, q)
        self.tri_qcoords = np.einsum("qa,tad->tqd", _TRI_QPOINTS, p)  # (T, q, 2)

        xi = _GAUSS2
        self.surf_qbasis = np.column_stack([1.0 - xi, xi])  # (q, a)
        self.surf_qweights = np.repeat(h[:, None] / 2.0, 2, axis=1)  # (M, q)
        self.surf_qarcs = mesh.arc_lengths[:-1, None] + xi[None, :] * h[:, None]  # (M, q)
        pts = nodes[mesh.surface_nodes]
        d = np.roll(pts, -1, axis=0) - pts
        self.surf_qcoords = pts[:, None, :] + xi[None, :, None] * d[:, None, :]
        self.surf_normals = np.column_stack([d[:, 1], -d[:, 0]]) / h[:, None]

        self.interior_nodes = np.setdiff1d(np.arange(self.n_bulk), mesh.surface_nodes)
        self._cache: dict = {}

    # -- pair/vector plumbing -------------------------------------------------

    def zero_pair(self) -> BulkSurfacePair:
        return BulkSurfacePair(np.zeros(self.n_bulk), np.zeros(self.n_surf))

    def constant_pair(self, cb: float, cs: float) -> BulkSurfacePair:
        return BulkSurfacePair(np.full(self.n_bulk, float(cb)), np.full(self.n_surf, float(cs)))

    def to_vector(self, a: BulkSurfacePair) -> np.ndarray:
        return np.concatenate([a.bulk, a.surf])

    def from_vector(self, x: np.ndarray) -> BulkSurfacePair:
        return BulkSurfacePair(x[: self.n_bulk].copy(), x[self.n_bulk :].copy())

    def _check_shapes(self, *pairs: BulkSurfacePair) -> None:
        for a in pairs:
            if a.bulk.shape != (self.n_bulk,) or a.surf.shape != (self.n_surf,):
                raise ValueError(
                    f"pair shape {(a.bulk.shape, a.surf.shape)} does not match "
                    f"operators ({self.n_bulk}, {self.n_surf})"
                )

    # -- quadrature evaluation -------------------------------------------------
    #
    # The triangle rule's basis values are 1/2 and 0, so each product is exact
    # and a matmul rounds every entry as the term-by-term sum does.  The Gauss
    # basis is not exact and a matmul may fuse multiply-adds, so the surface
    # adds its two products per entry (point or node 0, then 1) explicitly.

    def bulk_at_tri_quad(self, v: np.ndarray) -> np.ndarray:
        """Values of the P1 field at the triangle quadrature points, (T, q)."""
        return v[self.mesh.triangles] @ self.tri_qbasis.T

    def surf_at_quad(self, v: np.ndarray) -> np.ndarray:
        g, b = v[self.surf_elems], self.surf_qbasis
        return g[:, :1] * b[:, 0] + g[:, 1:] * b[:, 1]

    def tri_quad_integral(self, qvals: np.ndarray) -> float:
        return float(np.sum(self.tri_qweights * qvals))

    def surf_quad_integral(self, qvals: np.ndarray) -> float:
        return float(np.sum(self.surf_qweights * qvals))

    @staticmethod
    def to_nodes(index: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
        """Sum element values into n nodes, in the flattened order of index."""
        return np.bincount(index.ravel(), weights=values.ravel(), minlength=n)

    def tri_quad_load(self, qvals: np.ndarray) -> np.ndarray:
        """Nodal load of a quadrature-sampled integrand against P1 test functions."""
        contrib = (self.tri_qweights * qvals) @ self.tri_qbasis
        return self.to_nodes(self.mesh.triangles, contrib, self.n_bulk)

    def surf_quad_load(self, qvals: np.ndarray) -> np.ndarray:
        wq, b = self.surf_qweights * qvals, self.surf_qbasis
        contrib = wq[:, :1] * b[0] + wq[:, 1:] * b[1]
        return self.to_nodes(self.surf_elems, contrib, self.n_surf)

    def tri_weighted_mass_data(self, qweights: np.ndarray) -> np.ndarray:
        """Element matrices (T, 3, 3) of :meth:`tri_weighted_mass`, in the
        order of ``tri_entries``."""
        return ((self.tri_qweights * qweights) @ _TRI_QPAIRS).reshape(-1, 3, 3)

    def surf_weighted_mass_data(self, qweights: np.ndarray) -> np.ndarray:
        """Element matrices (M, 2, 2) of :meth:`surf_weighted_mass`, in the
        order of ``surf_entries``."""
        b = self.surf_qbasis
        wb = (self.surf_qweights * qweights)[:, :, None, None] * b[:, :, None]  # (M, q, a, 1)
        return wb[:, 0] * b[0] + wb[:, 1] * b[1]

    def tri_weighted_mass(self, qweights: np.ndarray) -> sp.csr_matrix:
        """Mass matrix with an extra quadrature-sampled nonnegative weight (T, q)."""
        return _scatter(self.tri_weighted_mass_data(qweights), self.tri_entries, self.n_bulk)

    def surf_weighted_mass(self, qweights: np.ndarray) -> sp.csr_matrix:
        return _scatter(self.surf_weighted_mass_data(qweights), self.surf_entries, self.n_surf)

    def bulk_weighted_stiffness(self, elem_weights: np.ndarray) -> sp.csr_matrix:
        """Stiffness with a per-element scalar weight (mobility averaged per element)."""
        ke = np.einsum("tad,tbd,t->tab", self.tri_grads, self.tri_grads, self.tri_areas * elem_weights)
        return _scatter(ke, self.tri_entries, self.n_bulk)

    def surf_weighted_stiffness(self, elem_weights: np.ndarray) -> sp.csr_matrix:
        w = elem_weights / self.surf_h
        return _scatter(np.stack([w, -w, -w, w], axis=1), self.surf_entries, self.n_surf)

    def transport_matrix(self, v: np.ndarray) -> sp.csr_matrix:
        """Bulk matrix C[a, b] = sum_q w_q (v_q . grad l_a) l_b(x_q) for samples v (T, q, 2)
        at the triangle quadrature points: C @ field is the load of field * v . grad(test)."""
        g = self.tri_grads
        vg = v[..., 0:1] * g[:, None, :, 0] + v[..., 1:2] * g[:, None, :, 1]  # (T, q, a)
        flux = (self.tri_qweights[..., None] * vg).transpose(0, 2, 1).reshape(-1, 3)
        return _scatter(flux @ self.tri_qbasis, self.tri_entries, self.n_bulk)

    # -- coupled bilinear forms -------------------------------------------------

    def coupling_matrix(self, sig: float, weight: float) -> sp.csr_matrix:
        """sig * E^T M_surf E with E x = weight * x_surf - trace(x_bulk);
        built once per (sig, weight), and shared, so never to be modified."""
        key = ("coupling_matrix", sig, weight)
        if key not in self._cache:
            nb, ns = self.n_bulk, self.n_surf
            if sig == 0.0:
                Q = sp.csr_matrix((nb + ns, nb + ns))
            else:
                R, Ms = self.trace, self.M_surf
                Qbb = R.T @ Ms @ R
                Qbs = -weight * (R.T @ Ms)
                Qss = weight * weight * Ms
                Q = sig * sp.bmat([[Qbb, Qbs], [Qbs.T, Qss]], format="csr")
            self._cache[key] = Q
        return self._cache[key]

    def form_matrix(self, sig: float, weight: float) -> sp.csr_matrix:
        """diag(A_bulk, A_surf) plus :meth:`coupling_matrix`; built once per
        (sig, weight), and shared, so never to be modified."""
        key = ("form_matrix", sig, weight)
        if key not in self._cache:
            base = sp.block_diag([self.A_bulk, self.A_surf], format="csr")
            if sig != 0.0:
                base = (base + self.coupling_matrix(sig, weight)).tocsr()
            self._cache[key] = base
        return self._cache[key]

    def _coupling_deficit(self, a: BulkSurfacePair, weight: float) -> np.ndarray:
        return weight * a.surf - self.trace @ a.bulk

    def _form_inner(self, a: BulkSurfacePair, b: BulkSurfacePair, sig, weight) -> float:
        """The bilinear form of :meth:`form_matrix` (sig, weight) of two pairs."""
        self._check_shapes(a, b)
        val = float(a.bulk @ (self.A_bulk @ b.bulk) + a.surf @ (self.A_surf @ b.surf))
        if sig != 0.0:
            da = self._coupling_deficit(a, weight)
            db = self._coupling_deficit(b, weight)
            val += sig * float(da @ (self.M_surf @ db))
        return val

    def inner_lb(self, a: BulkSurfacePair, b: BulkSurfacePair, cp: CouplingParams) -> float:
        """The (L, beta)-weighted bilinear form of two pairs."""
        return self._form_inner(a, b, cp.sigma_L, cp.beta)

    def inner_ka(self, a: BulkSurfacePair, b: BulkSurfacePair, cp: CouplingParams) -> float:
        """The (K, alpha)-weighted bilinear form of two pairs."""
        return self._form_inner(a, b, cp.sigma_K, cp.alpha)

    def norm_lb(self, a: BulkSurfacePair, cp: CouplingParams) -> float:
        return math.sqrt(max(self.inner_lb(a, a, cp), 0.0))

    def l2_norm(self, a: BulkSurfacePair) -> float:
        self._check_shapes(a)
        return math.sqrt(
            max(float(a.bulk @ (self.M_bulk @ a.bulk) + a.surf @ (self.M_surf @ a.surf)), 0.0)
        )

    def h1_norm(self, a: BulkSurfacePair) -> float:
        self._check_shapes(a)
        val = float(
            a.bulk @ ((self.M_bulk + self.A_bulk) @ a.bulk)
            + a.surf @ ((self.M_surf + self.A_surf) @ a.surf)
        )
        return math.sqrt(max(val, 0.0))

    # -- means and constraints ----------------------------------------------------

    def integrals(self, a: BulkSurfacePair) -> tuple[float, float]:
        self._check_shapes(a)
        return float(self.mass_vec_bulk @ a.bulk), float(self.mass_vec_surf @ a.surf)

    def component_means(self, a: BulkSurfacePair) -> tuple[float, float]:
        ib, isurf = self.integrals(a)
        return ib / self.area_bulk, isurf / self.area_surf

    def bs_mean(self, a: BulkSurfacePair, cp: CouplingParams) -> float:
        """Generalized bulk-surface mean, beta-weighted."""
        w = cp.beta
        ib, isurf = self.integrals(a)
        return (w * ib + isurf) / (w * w * self.area_bulk + self.area_surf)

    def check_initial_data(self, pair: BulkSurfacePair, cp: CouplingParams) -> None:
        """Raise ValueError unless the pair is admissible initial data for cp:
        within the [-1, 1] band, on the trace constraint when K = 0, and with
        its generalized mean (component means when L = inf) inside (-1, 1)."""
        if not pair.max_abs() <= 1.0 + 1e-12:  # also catches NaN
            raise ValueError("initial phase fields must satisfy max |value| <= 1")
        if cp.K == 0.0:
            err = (pair - self.constrain(pair, self.prolongator(cp.alpha))).max_abs()
            if err > 1e-10:
                raise ValueError(f"initial data violates the phase trace constraint by {err:g}")
        if math.isinf(cp.L):
            mb, ms = self.component_means(pair)
            if not (-1.0 < mb < 1.0 and -1.0 < ms < 1.0):
                raise ValueError(f"component means ({mb:g}, {ms:g}) must lie in (-1, 1)")
        else:
            mean = self.bs_mean(pair, cp)
            if not (-1.0 < mean < 1.0 and -1.0 < cp.beta * mean < 1.0):
                raise ValueError(
                    f"generalized mean {mean:g} (weighted {cp.beta * mean:g}) must lie in (-1, 1)"
                )

    def prolongator(self, weight: float) -> sp.csr_matrix:
        """Map reduced dofs [interior bulk, surface] to the full pair vector,
        slaving boundary bulk dofs to weight * surface."""
        key = ("prol", float(weight))
        if key not in self._cache:
            nb, ns = self.n_bulk, self.n_surf
            ni = len(self.interior_nodes)
            rows = np.concatenate([self.interior_nodes, self.mesh.surface_nodes, np.arange(nb, nb + ns)])
            cols = np.concatenate([np.arange(ni), ni + np.arange(ns), ni + np.arange(ns)])
            data = np.concatenate([np.ones(ni), np.full(ns, float(weight)), np.ones(ns)])
            P = sp.coo_matrix((data, (rows, cols)), shape=(nb + ns, ni + ns)).tocsr()
            self._cache[key] = P
            # for reduce; the identity of a cached P is stable while it is cached
            self._cache[("prol.T", id(P))] = P.T
        return self._cache[key]

    def reduction(self, value: float, weight: float) -> sp.csr_matrix | None:
        """Prolongator for the given coupling value, or None when unconstrained."""
        return self.prolongator(weight) if value == 0.0 else None

    # -- reduced coordinates under a prolongator P (None: no reduction) -------------

    @property
    def block_mass(self) -> sp.csr_matrix:
        """diag(M_bulk, M_surf) on the full pair vector, built once."""
        if "mass" not in self._cache:
            self._cache["mass"] = sp.block_diag([self.M_bulk, self.M_surf], format="csr")
        return self._cache["mass"]

    def reduce(self, vec: np.ndarray, P) -> np.ndarray:
        """Test a full load vector against the reduced basis: P^T vec."""
        if P is None:
            return vec
        PT = self._cache.get(("prol.T", id(P)))
        return (P.T if PT is None else PT) @ vec

    @staticmethod
    def prolong(red: np.ndarray, P) -> np.ndarray:
        return red if P is None else P @ red

    @staticmethod
    def project(mat, left, right) -> sp.csr_matrix:
        """left^T mat right, each side skipped when its prolongator is None."""
        if left is not None:
            mat = left.T @ mat
        if right is not None:
            mat = mat @ right
        return sp.csr_matrix(mat)

    def to_reduced(self, pair: BulkSurfacePair, P) -> np.ndarray:
        """Reduced coordinates [interior bulk, surface] of a constrained pair."""
        if P is None:
            return self.to_vector(pair)
        return np.concatenate([pair.bulk[self.interior_nodes], pair.surf])

    def constrain(self, pair: BulkSurfacePair, P) -> BulkSurfacePair:
        """The pair on the trace constraint of P: boundary bulk values set to
        the prolongation weight times the surface values, the rest kept; a
        copy when P is None.  The one map onto a constraint; idempotent."""
        return self.from_vector(self.prolong(self.to_reduced(pair, P), P))

    def reduced_element_entries(self, P):
        """Reduced (row, col) of every bulk then surface element-matrix entry.

        Also returns the product of the two prolongation weights of each
        entry, or None without a reduction.  Each row of a prolongator holds
        exactly one entry, so its CSR column indices and data, taken per row,
        are the reduced index and the weight of every full dof.
        """
        rows = np.concatenate([self.tri_entries[0], self.n_bulk + self.surf_entries[0]])
        cols = np.concatenate([self.tri_entries[1], self.n_bulk + self.surf_entries[1]])
        if P is None:
            return rows, cols, None
        index, weight = P.indices, P.data
        return index[rows], index[cols], weight[rows] * weight[cols]

    # -- the inverse operator and dual norm ----------------------------------------

    def _slb_factorization(self, cp: CouplingParams):
        key = ("slb", cp.L, cp.beta)
        if key in self._cache:
            return self._cache[key]
        P = self.reduction(cp.L, cp.beta)
        C = self.project(self.form_matrix(cp.sigma_L, cp.beta), P, P)
        if math.isinf(cp.L):
            g1 = np.concatenate([self.mass_vec_bulk, np.zeros(self.n_surf)])
            g2 = np.concatenate([np.zeros(self.n_bulk), self.mass_vec_surf])
            G = np.column_stack([g1, g2])
        else:
            g_mean = np.concatenate([cp.beta * self.mass_vec_bulk, self.mass_vec_surf])
            G = self.reduce(g_mean[:, None], P)
        ncon = G.shape[1]
        saddle = sp.bmat([[C, sp.csr_matrix(G)], [sp.csr_matrix(G.T), None]], format="csc")
        lu = spla.splu(saddle)
        self._cache[key] = (lu, P, ncon)
        return self._cache[key]

    def solve_S_lb(self, a: BulkSurfacePair, cp: CouplingParams) -> BulkSurfacePair:
        """Mean-free solution S of (S, test)_{L,beta} = -<a, test> for all tests.

        The right-hand side must be compatible: weighted integral zero for
        finite L, both component integrals zero for L = inf, to 1e-8 of
        1 + its L2 norm.
        """
        self._check_shapes(a)
        ib, isurf = self.integrals(a)
        scale = 1.0 + self.l2_norm(a)
        if math.isinf(cp.L):
            if abs(ib) > _COMPAT_TOL * scale or abs(isurf) > _COMPAT_TOL * scale:
                raise CompatibilityError(
                    f"rhs means not zero: bulk integral {ib:.3e}, surface integral {isurf:.3e}"
                )
        else:
            if abs(cp.beta * ib + isurf) > _COMPAT_TOL * scale:
                raise CompatibilityError(
                    f"rhs weighted integral {cp.beta * ib + isurf:.3e} not zero"
                )
        lu, P, ncon = self._slb_factorization(cp)
        b = self.reduce(-(self.block_mass @ self.to_vector(a)), P)
        x = lu.solve(np.concatenate([b, np.zeros(ncon)]))[: len(b)]
        return self.from_vector(self.prolong(x, P))

    def dual_norm(self, a: BulkSurfacePair, cp: CouplingParams) -> float:
        s = self.solve_S_lb(a, cp)
        return math.sqrt(max(self.inner_lb(s, s, cp), 0.0))

    # -- the discrete Poincare constant ----------------------------------------------

    def poincare_constant(self, cp: CouplingParams) -> float:
        """Optimal constant in ||pair||_{L2} <= C_P ||pair||_{K,alpha} on mean-free pairs.

        Blocked inverse power iteration (with a Rayleigh-Ritz rotation per
        sweep) on the (K, alpha)-form against the mass form, restricted to
        zero generalized (beta-weighted) mean.  The block of 4 is needed
        because the square's x/y symmetry makes the two smallest eigenvalues
        nearly degenerate.  It stops once two successive sweeps move the
        eigenvalue by at most 1e-12 relative, and fails after 200 sweeps.
        """
        if math.isinf(cp.K):
            raise ValueError("Poincare constant requires K in [0, inf)")
        cp.validate_measures(self.area_bulk, self.area_surf)
        P = self.reduction(cp.K, cp.alpha)
        C = self.project(self.form_matrix(cp.sigma_K, cp.alpha), P, P)
        B = self.project(self.block_mass, P, P)
        g = self.reduce(np.concatenate([cp.beta * self.mass_vec_bulk, self.mass_vec_surf]), P)
        nred = C.shape[0]
        block = min(_POINCARE_BLOCK, nred - 1)
        saddle = sp.bmat(
            [[C, sp.csr_matrix(g[:, None])], [sp.csr_matrix(g[None, :]), None]], format="csc"
        )
        lu = spla.splu(saddle)

        rng = np.random.default_rng(20240517)
        X = rng.standard_normal((nred, block))
        X -= np.outer(g, g @ X) / (g @ g)
        lam_old = math.inf
        hits = 0
        for _ in range(_POINCARE_SWEEPS):
            Y = np.empty_like(X)
            for j in range(block):
                Y[:, j] = lu.solve(np.concatenate([B @ X[:, j], [0.0]]))[:nred]
            # B-orthonormalize, dropping directions lost to roundoff
            S = Y.T @ (B @ Y)
            w, U = np.linalg.eigh(S)
            keep = w > w[-1] * 1e-13
            Y = Y @ (U[:, keep] / np.sqrt(w[keep]))
            # Rayleigh-Ritz rotation inside the subspace
            A_small = Y.T @ (C @ Y)
            wr, V = np.linalg.eigh(0.5 * (A_small + A_small.T))
            X = Y @ V
            lam = float(wr[0])
            if abs(lam - lam_old) <= _POINCARE_TOL * max(abs(lam), 1e-30):
                hits += 1
                if hits >= 2:
                    return 1.0 / math.sqrt(lam)
            else:
                hits = 0
            lam_old = lam
        raise SolverError(
            f"Poincare inverse iteration did not settle in {_POINCARE_SWEEPS} sweeps "
            f"(last eigenvalue {lam_old:g})"
        )


class JacobianPattern:
    """A Newton matrix with a reduced quadrature-weighted mass, on one CSC pattern.

    The pattern is the union of the fixed (rows, cols, data) blocks, of the
    (rows, cols) blocks, and of every element-matrix entry reduced by the
    prolongator P and shifted by offset on both axes.  A matrix on it is a
    data vector: ``fixed`` holds the fixed blocks, :meth:`weighted_mass` is
    P^T diag(M_w(bulk), M_w(surf)) P as a bincount of the element matrices
    through precomputed positions.  ``held`` is the one matrix a
    :class:`NewtonSystem` refills in place.  No reference to the operators
    is kept, so their ``_cache`` can hold a pattern without a reference cycle.
    """

    def __init__(self, ops: FemOperators, n: int, P, offset=0, fixed=(), blocks=()):
        self.n, self.P, self.offset = n, P, offset
        rows, cols, self._mass_weight = ops.reduced_element_entries(P)
        mass_keys = self._key(offset + rows, offset + cols)
        keys = [mass_keys] + [self._key(b[0], b[1]) for b in [*fixed, *blocks]]
        # np.unique's result from one sort, keeping the first of equal
        # (non-negative) keys: numpy 2.4's np.unique hashes instead, about
        # 10x slower on the keys of the n = 64 step pattern
        keys = np.sort(np.concatenate(keys))
        self._keys = keys[np.diff(keys, prepend=-1) != 0]
        self.indices = (self._keys % n).astype(np.intc)
        self.indptr = np.zeros(n + 1, dtype=np.intc)
        np.cumsum(np.bincount(self._keys // n, minlength=n), out=self.indptr[1:])
        self._mass_pos = np.searchsorted(self._keys, mass_keys)
        self.fixed = sum(self.scatter(*block) for block in fixed)
        self.held = self.matrix(np.zeros(len(self._keys)))

    def _key(self, rows, cols) -> np.ndarray:
        """Column-major linear index, so that sorted keys follow the CSC order."""
        return np.asarray(cols, dtype=np.int64) * self.n + rows

    def scatter(self, rows, cols, data) -> np.ndarray:
        """Data vector of the entries (rows, cols, data); they must lie on the pattern."""
        pos = np.searchsorted(self._keys, self._key(rows, cols))
        return np.bincount(pos, weights=data, minlength=len(self._keys))

    def weighted_mass(self, ops: FemOperators, q_bulk, q_surf) -> np.ndarray:
        """Data vector of the reduced mass weighted by quadrature values (bulk, surface)."""
        elem = np.concatenate([
            ops.tri_weighted_mass_data(q_bulk).ravel(),
            ops.surf_weighted_mass_data(q_surf).ravel(),
        ])
        if self._mass_weight is not None:
            elem *= self._mass_weight
        return np.bincount(self._mass_pos, weights=elem, minlength=len(self._keys))

    def matrix(self, data: np.ndarray) -> sp.csc_matrix:
        return sp.csc_matrix((data, self.indices, self.indptr), shape=(self.n, self.n))


_REFINE_TOL = 1e-10  # relative 2-norm residual a held solve must reach
_REFINE_SWEEPS = 8  # refinement sweeps before the current matrix is factored
_PCG_ITERATIONS = 30  # conjugate-gradient iterations before it is factored


class LaggedFactor:
    """A held SuperLU factor of an earlier Newton matrix, refined on the current one.

    The first solve factors its matrix in symmetric mode (minimum degree on
    A + A^T, diagonal pivots preferred), which suits both symmetric Newton
    matrices.  A later solve starts from x = LU^{-1} b with the held factor
    and refines x += LU^{-1}(b - A x) with the exact current matrix A until
    ||b - A x||_2 <= max(1e-10 ||b||_2, atol).  A caller that stops on a
    residual it can see only to some accuracy passes that as ``atol``; the
    default 0 keeps the relative target.  When the refinement residual stops
    falling, or 8 sweeps do not reach the target, A is factored and solved
    directly.  The rule counts sweeps only, so solves are deterministic.
    ``factorizations`` counts the factors made, ``held_iterations`` the
    sweeps on held ones; :meth:`drop` frees the held factor.
    """

    def __init__(self):
        self.lu = None
        self.factorizations = 0
        self.held_iterations = 0

    def solve(self, A: sp.csc_matrix, b: np.ndarray, atol: float = 0.0) -> np.ndarray:
        if self.lu is not None:
            x = self._held_solve(A, b, max(_REFINE_TOL * float(np.linalg.norm(b)), atol))
            if x is not None:
                return x
        self.lu = spla.splu(
            A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.01, options={"SymmetricMode": True}
        )
        self.factorizations += 1
        return self.lu.solve(b)

    def _held_solve(self, A: sp.csc_matrix, b: np.ndarray, target: float) -> np.ndarray | None:
        """The solution refined with the held factor until ||b - A x||_2 <= target,
        or None where it stalls."""
        x = self.lu.solve(b)
        r = b - A @ x
        rnorm = float(np.linalg.norm(r))
        for _ in range(_REFINE_SWEEPS):
            if rnorm <= target:
                return x
            x = x + self.lu.solve(r)
            self.held_iterations += 1
            r = b - A @ x
            previous, rnorm = rnorm, float(np.linalg.norm(r))
            if not rnorm < previous:  # also catches NaN
                return None
        return x if rnorm <= target else None

    def drop(self) -> None:
        self.lu = None


class SPDLaggedFactor(LaggedFactor):
    """A held factor for symmetric positive definite Newton matrices.

    A later solve runs conjugate gradients on the current matrix A,
    preconditioned with the held factor and started from x = LU^{-1} b, and
    accepts x once the recomputed ||b - A x||_2 is at most the target,
    max(1e-10 ||b||_2, atol), as in :class:`LaggedFactor`.  A
    non-positive r.z or p.Ap (A or the held factor is not SPD), a non-finite
    value, or 30 iterations without the target factor A instead.  Stationary
    refinement stalls on these systems as the curvature moves between
    Newton iterates; the Krylov iteration does not.  ``held_iterations``
    counts the conjugate-gradient iterations.
    """

    def _held_solve(self, A: sp.csc_matrix, b: np.ndarray, target: float) -> np.ndarray | None:
        """The conjugate-gradient solution on the held factor, or None on a breakdown.

        Written out rather than ``spla.cg``, which has no r.z or p.Ap
        breakdown test: on a matrix that is not SPD it would run all 30
        iterations before the matrix is factored.
        """
        x = self.lu.solve(b)
        r = b - A @ x
        if float(np.linalg.norm(r)) <= target:
            return x
        z = self.lu.solve(r)
        p, rz = z, float(r @ z)
        for _ in range(_PCG_ITERATIONS):
            if not 0.0 < rz < math.inf:  # also catches NaN
                return None
            Ap = A @ p
            pAp = float(p @ Ap)
            if not 0.0 < pAp < math.inf:
                return None
            alpha = rz / pAp
            x = x + alpha * p
            r = r - alpha * Ap
            self.held_iterations += 1
            if float(np.linalg.norm(r)) <= target:
                # accept on the true residual; on a miss, go on from it
                r = b - A @ x
                if float(np.linalg.norm(r)) <= target:
                    return x
            z = self.lu.solve(r)
            rz, previous = float(r @ z), rz
            p = z + (rz / previous) * p
        return None


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two arrays of one dtype hold the same values bit for bit."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class NewtonSystem:
    """Damped Newton on the residual B x - b + sign P^T load(P x[offset:]).

    B is a matrix on ``pattern``, whose prolongator P and offset the load
    term takes, and sign is +1 or -1.  ``convex(u)`` gives the convex terms
    at a full phase vector u: their nodal ``load`` and quadrature
    ``curvature``.  The Newton matrix B + sign P^T M_c P, with M_c the
    curvature-weighted mass, is written into the pattern's held matrix and
    solved through the caller's ``factor``, a :class:`LaggedFactor` or
    :class:`SPDLaggedFactor`.  Failures raise ``error(message, history)``
    with a message that starts with ``name``.
    """

    def __init__(self, ops, pattern, B, b, convex, sign, factor, error, name="Newton",
                 max_trials=40):
        self.ops, self.pattern, self.B, self.b, self.convex = ops, pattern, B, b, convex
        self._apply = np.add if sign > 0 else np.subtract
        self.factor, self.error, self.name, self.max_trials = factor, error, name, max_trials
        self._counted = (factor.factorizations, factor.held_iterations)

    def evaluate(self, x: np.ndarray):
        """(residual, convex terms, full phase vector) at x."""
        P, k = self.pattern.P, self.pattern.offset
        u = self.ops.prolong(x[k:], P)
        terms = self.convex(u)
        r = self.B @ x - self.b
        tail = r[k:]
        self._apply(tail, self.ops.reduce(terms.load, P), out=tail)
        return r, terms, u

    def matrix(self, curvature) -> sp.csc_matrix:
        """The Newton matrix at quadrature curvature values (bulk, surface)."""
        weighted = self.pattern.weighted_mass(self.ops, *curvature)
        held = self.pattern.held
        self._apply(self.B.data, weighted, out=held.data)
        return held

    def direction(self, terms, rhs: np.ndarray, atol: float = 0.0) -> np.ndarray:
        """The Newton step for ``rhs`` at the iterate the convex terms belong
        to, solved on the factor to ``max(1e-10 ||rhs||_2, atol)``."""
        return self.factor.solve(self.matrix(terms.curvature), rhs, atol)

    def counts(self) -> dict:
        """Factorizations and held-factor iterations since the system was built."""
        f, (factored, held) = self.factor, self._counted
        return {"factorizations": f.factorizations - factored,
                "held_solve_iterations": f.held_iterations - held}

    def solve(self, x: np.ndarray, tol: float, max_iter: int, history: list):
        """Damped Newton from x; returns (x, terms, u, iterations, trials).

        It stops once the residual max-norm, appended to history per iterate,
        is at most tol.  Each direction is solved on the factor with
        ``atol = tol / 10``: a linear residual the stop on tol cannot see is
        not refined further.  Each update halves its step at most
        ``max_trials`` times; a trial is accepted when it lowers the 2-norm or
        meets tol, and becomes the next iterate with its convex terms and full
        phase vector u.  A stalled line search or a miss after max_iter updates raises
        ``error``.  A failure on a factor held from an earlier solve is
        retried once from x on a fresh factor, with the history cut back to
        its entries before the first attempt, so the error raised is the one
        a fresh factor gives.
        """
        start = self.evaluate(x)
        kept, inherited = len(history), self.factor.lu is not None
        try:
            return self._damped(x, start, tol, max_iter, history)
        except self.error:
            if not inherited:
                raise
            self.factor.drop()
            del history[kept:]
            return self._damped(x, start, tol, max_iter, history)

    def _damped(self, x, start, tol, max_iter, history):
        (r, terms, u), trials = start, 0
        for it in range(max_iter + 1):
            rnorm = float(np.abs(r).max(initial=0.0))
            history.append(rnorm)
            if rnorm <= tol:
                return x, terms, u, it, trials
            if it == max_iter:
                break
            # a linear residual below tol/10 in the 2-norm, hence in the
            # max-norm, is below anything the stop on tol can see
            delta = self.direction(terms, -r, tol / 10)
            base = float(np.linalg.norm(r))
            step = 1.0
            for _ in range(self.max_trials):
                trials += 1
                trial = x + step * delta
                state = self.evaluate(trial)
                r_trial = state[0]
                if float(np.linalg.norm(r_trial)) < base or float(np.abs(r_trial).max()) <= tol:
                    x, (r, terms, u) = trial, state
                    break
                step *= 0.5
            else:
                message = f"{self.name} line search stalled at residual {rnorm:.3e}"
                raise self.error(message, history)
        raise self.error(
            f"{self.name} did not reach tol {tol:g} in {max_iter} iterations "
            f"(residual {rnorm:.3e})",
            history,
        )


def assemble(mesh: Mesh) -> FemOperators:
    """Assemble all sparse operators for a mesh."""
    return FemOperators(mesh)

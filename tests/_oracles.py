"""Brute-force reference implementations the tests check the package against.

Everything here is deliberately simple and independent of the package's fast
paths: scalar bisection instead of vectorized Newton, dense pseudoinverse
instead of sparse saddle factorizations, dense eigensolves instead of inverse
iteration, and plain per-element Python loops instead of vectorized assembly.
The exceptions are kernels the package replaced, kept as references: the
resolvent kernel in its earlier whole-array form, the einsum quadrature
kernels, the transport and concave loads summed at quadrature points, a
damped Newton on the shifted elliptic system, which the package solves by
Anderson-mixed contraction, and per-field mass solves of the initial chemical
potential, which the package makes as one block-mass solve.
"""

import math

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from bscahn.assembly import BulkSurfacePair, JacobianPattern, NewtonSystem, SPDLaggedFactor
from bscahn.elliptic import EllipticSolveError
from bscahn.potentials import (
    _SATURATION,
    _TINY_GAP,
    PotentialDomainError,
    ResolventError,
    convex_terms,
    f1,
    f2,
    f2_prime,
)


def log_prime(s: float, theta: float) -> float:
    return 0.5 * theta * math.log((1.0 + s) / (1.0 - s))


def f1_second(s, theta: float):
    """f1''(s) = theta / (1 - s^2) on |s| < 1."""
    s = np.asarray(s, dtype=float)
    if np.any(np.abs(s) >= 1.0):
        raise PotentialDomainError("f1_second requires |s| < 1")
    if theta == 0.0:
        return np.zeros_like(s)
    return theta / (1.0 - s * s)


def resolvent_bisect(r: float, theta: float, lam: float, iters: int = 200) -> float:
    """Root of s + lam * log_prime(s) = r by plain bisection on (-1, 1)."""
    if theta == 0.0:
        return r
    lo, hi = -1.0 + 1e-16, 1.0 - 1e-16

    def g(s):
        return s + lam * log_prime(s, theta) - r

    glo = g(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if gm == 0.0:
            return mid
        if (glo < 0) == (gm < 0):
            lo, glo = mid, gm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def yosida_resolvent_reference(r, theta: float, yp):
    """The resolvent kernel as it stood before it iterated on active sets:
    every entry of each branch is updated in every iteration, converged ones
    frozen in place.  The package kernel must agree with it bit for bit."""
    r_arr = np.asarray(r, dtype=float)
    scalar = r_arr.ndim == 0
    rv = np.atleast_1d(r_arr).astype(float).copy()
    lam = yp.lam
    if theta == 0.0:
        out = rv.copy()
        return float(out[0]) if scalar else out

    half = theta / 2.0
    sign = np.where(rv < 0, -1.0, 1.0)
    ra = np.abs(rv)

    s_hi = 1.0 - _SATURATION
    r_switch = s_hi + lam * half * np.log((2.0 - _SATURATION) / _SATURATION)
    interior = ra < r_switch

    out = np.empty_like(rv)

    # interior entries: Newton with bisection fallback on a fixed bracket
    if np.any(interior):
        ri = ra[interior]
        lo = np.zeros_like(ri)  # g(0) = -ri <= 0
        hi = np.full_like(ri, 1.0 - _TINY_GAP)
        s = np.clip(ri, 0.0, 1.0 - 1e-6)
        converged = np.zeros(ri.shape, dtype=bool)
        for _ in range(yp.resolvent_max_iter):
            g = s + lam * half * np.log((1.0 + s) / (1.0 - s)) - ri
            converged = np.abs(g) <= yp.resolvent_tol
            if np.all(converged):
                break
            lo = np.where(g < 0, s, lo)
            hi = np.where(g > 0, s, hi)
            gp = 1.0 + lam * theta / (1.0 - s * s)
            s_new = s - g / gp
            outside = (s_new <= lo) | (s_new >= hi)
            s_new = np.where(outside, 0.5 * (lo + hi), s_new)
            s = np.where(converged, s, s_new)
        else:
            if not np.all(converged):
                k = int(np.argmin(converged.ravel()))
                raise ResolventError(
                    f"resolvent did not reach tol {yp.resolvent_tol:g} in "
                    f"{yp.resolvent_max_iter} iterations",
                    bracket=(float(lo.ravel()[k]), float(hi.ravel()[k])),
                )
        out[interior] = s

    # saturated entries: solve for u = ln t, t = 1 - s, with a u-bracket
    sat = ~interior
    if np.any(sat):
        rs = ra[sat]
        c = lam * half
        u_lo = np.full_like(rs, np.log(5e-324))  # h(u_lo) > 0 or t underflows
        u_hi = np.full_like(rs, np.log(_SATURATION))
        u = np.clip((1.0 - rs + c * np.log(2.0)) / c, u_lo, u_hi)
        for _ in range(yp.resolvent_max_iter):
            t = np.exp(u)
            h = (1.0 - t) + c * (np.log(2.0 - t) - u) - rs
            done = np.abs(h) <= yp.resolvent_tol * np.maximum(1.0, np.abs(rs))
            if np.all(done):
                break
            u_lo = np.where(h > 0, u, u_lo)  # h decreasing in u
            u_hi = np.where(h < 0, u, u_hi)
            hp = -t - c * (t / (2.0 - t) + 1.0)
            u_new = u - h / hp
            outside = (u_new <= u_lo) | (u_new >= u_hi)
            u_new = np.where(outside, 0.5 * (u_lo + u_hi), u_new)
            u = np.where(done, u, u_new)
        out[sat] = 1.0 - np.exp(u)

    out *= sign
    return float(out[0]) if scalar else out


def dense_solve_S(ops, cp, a: BulkSurfacePair) -> BulkSurfacePair:
    """Pseudoinverse solve of the constrained inverse operator."""
    C = ops.form_matrix(cp.sigma_L, cp.beta)
    b = -np.concatenate([ops.M_bulk @ a.bulk, ops.M_surf @ a.surf])
    P = ops.reduction(cp.L, cp.beta)
    if P is not None:
        C = P.T @ C @ P
        b = P.T @ b
    x = np.linalg.pinv(C.toarray()) @ b
    if P is not None:
        x = P @ x
    pair = ops.from_vector(x)
    if math.isinf(cp.L):
        mb, ms = ops.component_means(pair)
        pair = pair - ops.constant_pair(mb, ms)
    else:
        c = ops.bs_mean(pair, cp)
        pair = pair - ops.constant_pair(cp.beta * c, c)
    return pair


def shifted_newton(prob, tol: float = 1e-12, max_iter: int = 60) -> BulkSurfacePair:
    """The shifted elliptic solve by damped Newton from zero: residual
    P^T(S + M)P x - P^T M f + P^T load(P x) on a pattern of its own, with
    the Newton directions on an SPD held factor.  The default tol is the
    1e-12 fixed-point defect the tests check: ``NewtonSystem`` solves each
    direction only to tol/10, so a looser tol need not reach that defect."""
    ops, cp = prob.ops, prob.cp
    P = ops.reduction(cp.K, cp.alpha)
    lin = ops.project(ops.form_matrix(cp.sigma_K, cp.alpha) + ops.block_mass, P, P).tocoo()
    pattern = JacobianPattern(ops, lin.shape[0], P, fixed=[(lin.row, lin.col, lin.data)])
    system = NewtonSystem(
        ops, pattern, pattern.matrix(pattern.fixed),
        ops.reduce(ops.block_mass @ ops.to_vector(prob.rhs), P),
        lambda u: convex_terms(ops, u, prob.pot, prob.yp), 1, SPDLaggedFactor(),
        EllipticSolveError,
    )
    return ops.from_vector(system.solve(np.zeros(lin.shape[0]), tol, max_iter, [])[2])


def dense_poincare(ops, cp) -> float:
    """Smallest constrained generalized eigenvalue by a dense solver."""
    C = ops.form_matrix(cp.sigma_K, cp.alpha)
    B = sp.block_diag([ops.M_bulk, ops.M_surf])
    g = np.concatenate([cp.beta * ops.mass_vec_bulk, ops.mass_vec_surf])
    P = ops.reduction(cp.K, cp.alpha)
    if P is not None:
        C, B, g = P.T @ C @ P, P.T @ B @ P, P.T @ g
    C, B = C.toarray(), B.toarray()
    n = len(g)
    basis = np.column_stack([g / np.linalg.norm(g), np.eye(n)[:, : n - 1]])
    Q, _ = np.linalg.qr(basis)
    Z = Q[:, 1:]
    w = sla.eigh(Z.T @ C @ Z, Z.T @ B @ Z, eigvals_only=True)
    return 1.0 / math.sqrt(w[0])


_TRI_Q = [(0.5, 0.5, 0.0), (0.0, 0.5, 0.5), (0.5, 0.0, 0.5)]
_GAUSS2 = (0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0))


def energy_by_loops(mesh, pair: BulkSurfacePair, cp, pot, yp) -> float:
    """Per-element loop evaluation of the discrete free energy."""
    from bscahn.potentials import yosida_value

    total = 0.0
    nodes, tris = mesh.nodes, mesh.triangles
    for tri in tris:
        p = nodes[tri]
        area = 0.5 * abs(
            (p[1, 0] - p[0, 0]) * (p[2, 1] - p[0, 1])
            - (p[1, 1] - p[0, 1]) * (p[2, 0] - p[0, 0])
        )
        vals = pair.bulk[tri]
        # gradient of the linear interpolant
        mat = np.column_stack([p[1] - p[0], p[2] - p[0]])
        grad = np.linalg.solve(mat.T, vals[1:] - vals[0])
        total += 0.5 * area * float(grad @ grad)
        for lam_bary in _TRI_Q:
            v = sum(w * vals[k] for k, w in enumerate(lam_bary))
            total += (
                area
                / 3.0
                * (float(yosida_value(v, pot.theta, yp)) + float(f2(v, pot.theta_c)))
            )
    loop = mesh.surface_nodes
    arc = mesh.arc_lengths
    for i in range(len(loop)):
        j = (i + 1) % len(loop)
        h = arc[i + 1] - arc[i]
        a, b = pair.surf[i], pair.surf[j]
        total += 0.5 * (b - a) ** 2 / h
        for xi in _GAUSS2:
            v = (1 - xi) * a + xi * b
            total += (
                0.5
                * h
                * (float(yosida_value(v, pot.theta_surf, yp)) + float(f2(v, pot.theta_c_surf)))
            )
    if cp.sigma_K != 0.0:
        for i in range(len(loop)):
            j = (i + 1) % len(loop)
            h = arc[i + 1] - arc[i]
            da = cp.alpha * pair.surf[i] - pair.bulk[loop[i]]
            db = cp.alpha * pair.surf[j] - pair.bulk[loop[j]]
            total += 0.5 * cp.sigma_K * h * (da * da + da * db + db * db) / 3.0
    return total


def edges_by_dict(triangles):
    """Unique (low, high) edges in ascending order, the (T, 3) index of the
    edge from local node k to k+1 mod 3, and the triangles sharing each edge,
    by a dict loop over the triangles."""

    def key(tri, k):
        a, b = int(tri[k]), int(tri[(k + 1) % 3])
        return (min(a, b), max(a, b))

    count = {}
    for tri in triangles:
        for k in range(3):
            count[key(tri, k)] = count.get(key(tri, k), 0) + 1
    edges = sorted(count)
    number = {e: i for i, e in enumerate(edges)}
    tri_edges = [[number[key(tri, k)] for k in range(3)] for tri in triangles]
    return np.array(edges), np.array(tri_edges), np.array([count[e] for e in edges])


def p1_operators_by_blocks(mesh, w_surf):
    """A_bulk, A_surf, M_surf and the surface stiffness weighted per element
    by w_surf, each summed from its own COO triplets: the bulk stiffness from
    per-triangle gradients, the surface matrices from the four (i, i), (i, j),
    (j, i), (j, j) blocks of the loop segments i -> j = i + 1 mod M."""
    nodes, tris = mesh.nodes, mesh.triangles
    p = nodes[tris]
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    areas = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    g = np.empty((len(tris), 3, 2))
    for a in range(3):
        edge = p[:, (a + 2) % 3] - p[:, (a + 1) % 3]
        g[:, a, 0] = -edge[:, 1]
        g[:, a, 1] = edge[:, 0]
    g /= (2.0 * areas)[:, None, None]
    ke = np.einsum("tad,tbd,t->tab", g, g, areas)
    rows, cols = np.repeat(tris, 3, axis=1).ravel(), np.tile(tris, (1, 3)).ravel()
    nb = mesh.num_nodes
    A_bulk = sp.coo_matrix((ke.ravel(), (rows, cols)), shape=(nb, nb)).tocsr()

    M = mesh.num_surface_nodes
    h = mesh.surface_edge_lengths()
    i = np.arange(M)
    j = (i + 1) % M
    rows, cols = np.concatenate([i, i, j, j]), np.concatenate([i, j, i, j])

    def surface(diag, off):
        data = np.concatenate([diag, off, off, diag])
        return sp.coo_matrix((data, (rows, cols)), shape=(M, M)).tocsr()

    w = w_surf / h
    return {
        "A_bulk": A_bulk,
        "A_surf": surface(1.0 / h, -1.0 / h),
        "M_surf": surface(h / 3.0, h / 6.0),
        "surf_weighted_stiffness": surface(w, -w),
    }


# -- the einsum quadrature kernels and the loads summed at quadrature points --


def bulk_at_tri_quad_einsum(ops, v):
    return np.einsum("qa,ta->tq", ops.tri_qbasis, v[ops.mesh.triangles])


def surf_at_quad_einsum(ops, v):
    return np.einsum("qa,ea->eq", ops.surf_qbasis, v[ops.surf_elems])


def tri_quad_load_einsum(ops, qvals):
    contrib = np.einsum("tq,qa->ta", ops.tri_qweights * qvals, ops.tri_qbasis)
    return ops.to_nodes(ops.mesh.triangles, contrib, ops.n_bulk)


def surf_quad_load_einsum(ops, qvals):
    contrib = np.einsum("eq,qa->ea", ops.surf_qweights * qvals, ops.surf_qbasis)
    return ops.to_nodes(ops.surf_elems, contrib, ops.n_surf)


def tri_weighted_mass_data_einsum(ops, qweights):
    return np.einsum("tq,qa,qb->tab", ops.tri_qweights * qweights, ops.tri_qbasis, ops.tri_qbasis)


def surf_weighted_mass_data_einsum(ops, qweights):
    return np.einsum(
        "eq,qa,qb->eab", ops.surf_qweights * qweights, ops.surf_qbasis, ops.surf_qbasis
    )


def convection_load_by_quadrature(ops, field_, pair, t):
    """Transport load pair of pair * v . grad(test) at time t: the bulk part
    summed at the triangle quadrature points with v sampled there, the
    surface part per segment, both scattered by np.add.at."""
    qc = ops.tri_qcoords
    v = field_.sample_bulk(qc[..., 0], qc[..., 1], t)
    phi_q = bulk_at_tri_quad_einsum(ops, pair.bulk)
    flux = np.einsum("tq,tqd,tad->ta", ops.tri_qweights * phi_q, v, ops.tri_grads)
    bulk = np.zeros(ops.n_bulk)
    np.add.at(bulk, ops.mesh.triangles, flux)
    speeds = np.asarray(field_.sample_surface(ops.surf_qarcs[:, 0], t))
    i, j = ops.surf_elems[:, 0], ops.surf_elems[:, 1]
    seg = 0.5 * (pair.surf[i] + pair.surf[j]) * speeds
    surf = np.zeros(ops.n_surf)
    np.add.at(surf, i, -seg)
    np.add.at(surf, j, seg)
    return np.concatenate([bulk, surf])


def concave_load_by_quadrature(ops, pair, pot):
    """Load of f2' summed at the quadrature points of both fields."""
    return np.concatenate([
        tri_quad_load_einsum(ops, f2_prime(bulk_at_tri_quad_einsum(ops, pair.bulk), pot.theta_c)),
        surf_quad_load_einsum(ops, f2_prime(surf_at_quad_einsum(ops, pair.surf), pot.theta_c_surf)),
    ])


def per_field_initial_mu_theta(st, pair: BulkSurfacePair) -> BulkSurfacePair:
    """The initial chemical potential of a stepper that eliminates no trace,
    from one bulk and one surface mass solve of the potential equation's load."""
    ops = st.ops
    full = ops.to_vector(pair)
    g = st.stiff_K @ full + convex_terms(ops, full, st.cfg.pot, st.cfg.yp).load
    g += st._concave_load(pair)
    return BulkSurfacePair(
        spla.spsolve(ops.M_bulk.tocsc(), g[: ops.n_bulk]),
        spla.spsolve(ops.M_surf.tocsc(), g[ops.n_bulk :]),
    )

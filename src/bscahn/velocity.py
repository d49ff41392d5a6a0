"""Prescribed divergence-free, boundary-tangential velocity fields.

Bulk fields come from stream functions built of sine modes that vanish on the
unit-square boundary, so incompressibility and tangency hold analytically;
surface fields slip along the boundary loop at an arc-length-constant speed,
which is exactly surface-divergence-free.  Time dependence enters through a
scalar envelope which can be mollified by convolution with a smooth bump.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .assembly import FemOperators
from .mesh import Mesh, triangle_edges

_GAUSS_SPREAD = 1.0 / math.sqrt(3.0)  # spacing of the 2-point Gauss nodes
_MOLLIFIER_PANELS = 4000  # Simpson panels of the time mollification
_ADMISSIBILITY_THRESHOLD = 1e-10  # worst residual a discretely admissible field may show


# -- time envelopes -----------------------------------------------------------


@dataclass(frozen=True)
class ConstantEnvelope:
    value: float = 1.0

    def __call__(self, t):
        if np.ndim(t) == 0:
            return self.value
        return np.full(np.shape(t), float(self.value))


@dataclass(frozen=True)
class StepEnvelope:
    """0 before t0, 1 from t0 on."""

    t0: float = 0.0

    def __call__(self, t):
        if np.ndim(t) == 0:
            return 1.0 if t >= self.t0 else 0.0
        return np.where(np.asarray(t) >= self.t0, 1.0, 0.0)


@dataclass(frozen=True)
class SineEnvelope:
    omega: float = 1.0
    amplitude: float = 1.0

    def __call__(self, t):
        if np.ndim(t) == 0:
            return self.amplitude * math.sin(self.omega * t)
        return self.amplitude * np.sin(self.omega * np.asarray(t, dtype=float))


def _simpson_weights(n: int) -> np.ndarray:
    """Composite-Simpson weights (1, 4, 2, ..., 4, 1) on n panels."""
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w


def _bump_mass() -> float:
    # integral of exp(-1/(1-t^2)) over (-1, 1), composite Simpson; the
    # integrand vanishes to all orders at the endpoints so Simpson converges
    # far past the 1e-12 requirement at this resolution
    n = 20000
    t = np.linspace(-1.0, 1.0, n + 1)
    vals = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    vals[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
    return float((2.0 / n) / 3.0 * np.sum(_simpson_weights(n) * vals))


_BUMP_MASS = _bump_mass()


def bump_kernel(t):
    """Unit-mass smooth bump supported on (-1, 1)."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2)) / _BUMP_MASS
    return out


@functools.lru_cache(maxsize=None)
def _simpson_bump(panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes on [-1, 1] and composite-Simpson weights times the bump kernel
    (read-only: every envelope with this panel count shares them)."""
    tau = np.linspace(-1.0, 1.0, panels + 1)
    weights = _simpson_weights(panels) * bump_kernel(tau)
    tau.flags.writeable = False
    weights.flags.writeable = False
    return tau, weights


@dataclass(frozen=True)
class MollifiedEnvelope:
    """Envelope convolved in time against the scaled bump kernel.

    The inner envelope must accept an array of times; the whole quadrature
    is one call of it.
    """

    inner: object
    half_width: float

    def __call__(self, t):
        tau, weights = _simpson_bump(_MOLLIFIER_PANELS)
        vals = self.inner(np.asarray(t, dtype=float)[..., None] - self.half_width * tau)
        out = (2.0 / _MOLLIFIER_PANELS) / 3.0 * np.sum(weights * vals, axis=-1)
        return float(out) if np.ndim(t) == 0 else out


# -- the fields ---------------------------------------------------------------


class VelocityField:
    """Common interface: bulk samples, bulk gradients, surface slip speed."""

    envelope: object

    def sample_bulk(self, x, y, t: float) -> np.ndarray:
        raise NotImplementedError

    def bulk_gradient(self, x, y, t: float) -> np.ndarray:
        """Velocity Jacobian d v_i / d x_j, shape (..., 2, 2)."""
        raise NotImplementedError

    def bulk_separation(self, x, y):
        """(unit, scale) at fixed points (x, y): sample_bulk(x, y, t) = scale(t) * unit."""
        raise NotImplementedError

    def sample_surface(self, s, t: float):
        """Tangential slip speed at arc-length position(s) s."""
        raise NotImplementedError

    def scaled(self, factor: float) -> "VelocityField":
        raise NotImplementedError

    @property
    def is_zero(self) -> bool:
        return False

    @property
    def trace_matches_surface(self) -> bool:
        """Whether the bulk trace equals the surface field identically on the boundary."""
        raise NotImplementedError


def _check_in_domain(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(x < -1e-12) or np.any(x > 1 + 1e-12) or np.any(y < -1e-12) or np.any(y > 1 + 1e-12):
        raise ValueError("sample point outside the closed unit square")
    return x, y


def _axis_factors(profile: str, a: float, t):
    """A mode's factor along one axis at a = k pi, its first derivative over a
    and its second over a**2: sin(a t) for "sine", sin(a t)**2 for "sine2"."""
    s = np.sin(a * t)
    if profile == "sine":
        return s, np.cos(a * t), -s
    return s**2, np.sin(2 * a * t), 2 * np.cos(2 * a * t)


@dataclass(frozen=True)
class StreamFunctionVelocity(VelocityField):
    """v = (d_y psi, -d_x psi) for psi a sum of unit-square sine modes.

    profile "sine": psi = amplitude * prod sin(j pi x) sin(k pi y) summed over
    modes; vanishes on the boundary, so v is tangential there.
    profile "sine2": the squared modes sin^2(j pi x) sin^2(k pi y); then the
    full gradient of psi vanishes on the boundary and the bulk trace is zero,
    which is what a zero-Robin-parameter run requires of v|_Gamma.
    """

    amplitude: float = 1.0
    profile: str = "sine"
    modes: tuple[tuple[int, int, float], ...] = ((1, 1, 1.0),)
    envelope: object = field(default_factory=ConstantEnvelope)

    def __post_init__(self):
        if self.profile not in ("sine", "sine2"):
            raise ValueError(f"unknown stream profile {self.profile!r}")

    def _envelope_amp(self, t: float) -> float:
        return self.amplitude * self.envelope(t)

    def _factor_tables(self, x, y):
        """Zeros of the broadcast shape of (x, y), and per mode (c, a, b, the
        x table at a, the y table at b) of :func:`_axis_factors`."""
        x, y = _check_in_domain(x, y)
        tables = []
        for j, k, c in self.modes:
            a, b = j * np.pi, k * np.pi
            fx, fy = _axis_factors(self.profile, a, x), _axis_factors(self.profile, b, y)
            tables.append((c, a, b, fx, fy))
        return np.zeros(np.broadcast_shapes(x.shape, y.shape)), tables

    def stream(self, x, y, t: float):
        out, tables = self._factor_tables(x, y)
        for c, _, _, (fx, _, _), (fy, _, _) in tables:
            out += c * (fx * fy)
        return self._envelope_amp(t) * out

    def sample_bulk(self, x, y, t: float) -> np.ndarray:
        px, tables = self._factor_tables(x, y)
        py = px.copy()
        for c, a, b, (fx, dfx, _), (fy, dfy, _) in tables:
            px += c * a * dfx * fy
            py += c * b * fx * dfy
        amp = self._envelope_amp(t)
        return np.stack([amp * py, -amp * px], axis=-1)

    def bulk_separation(self, x, y):
        """The unit-amplitude, constant field at (x, y), and amplitude * envelope(t)."""
        unit = replace(self, amplitude=1.0, envelope=ConstantEnvelope())
        return unit.sample_bulk(x, y, 0.0), self._envelope_amp

    def bulk_gradient(self, x, y, t: float) -> np.ndarray:
        pxx, tables = self._factor_tables(x, y)
        pxy, pyy = pxx.copy(), pxx.copy()
        for c, a, b, (fx, dfx, d2fx), (fy, dfy, d2fy) in tables:
            pxx += c * a * a * d2fx * fy
            pyy += c * b * b * fx * d2fy
            pxy += c * a * b * dfx * dfy
        amp = self._envelope_amp(t)
        row1 = np.stack([amp * pxy, amp * pyy], axis=-1)
        row2 = np.stack([-amp * pxx, -amp * pxy], axis=-1)
        return np.stack([row1, row2], axis=-2)

    def sample_surface(self, s, t: float):
        return np.zeros_like(np.asarray(s, dtype=float))

    def scaled(self, factor: float) -> "StreamFunctionVelocity":
        return replace(self, amplitude=self.amplitude * factor)

    @property
    def is_zero(self) -> bool:
        return self.amplitude == 0.0 or not self.modes

    @property
    def trace_matches_surface(self) -> bool:
        # the surface field is zero; the bulk trace vanishes only for the
        # squared profile (zero boundary gradient) or a zero amplitude
        return self.profile == "sine2" or self.is_zero


@dataclass(frozen=True)
class SurfaceSlipVelocity(VelocityField):
    """Zero bulk velocity; tangential slip w = g(t) tau at constant speed in s."""

    speed: float = 1.0
    envelope: object = field(default_factory=ConstantEnvelope)

    def sample_bulk(self, x, y, t: float) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.zeros(np.broadcast_shapes(x.shape, np.shape(y)) + (2,))

    def bulk_gradient(self, x, y, t: float) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.zeros(np.broadcast_shapes(x.shape, np.shape(y)) + (2, 2))

    def bulk_separation(self, x, y):
        return self.sample_bulk(x, y, 0.0), self.envelope

    def sample_surface(self, s, t: float):
        s = np.asarray(s, dtype=float)
        return np.full_like(s, self.speed * self.envelope(t))

    def scaled(self, factor: float) -> "SurfaceSlipVelocity":
        return replace(self, speed=self.speed * factor)

    @property
    def is_zero(self) -> bool:
        return self.speed == 0.0

    @property
    def trace_matches_surface(self) -> bool:
        return self.speed == 0.0


@dataclass(frozen=True)
class ZeroVelocity(SurfaceSlipVelocity):
    """The zero field: a slip at speed 0."""

    speed: float = field(default=0.0, init=False)

    def scaled(self, factor: float) -> "ZeroVelocity":
        # replace() cannot set the init=False speed
        return self


def mollify_in_time(field_: VelocityField, half_width: float) -> VelocityField:
    """Convolve the time envelope with the scaled unit-mass bump.

    The spatial structure is untouched, so incompressibility and tangency are
    preserved exactly.
    """
    if half_width <= 0:
        raise ValueError("half_width must be positive")
    return replace(field_, envelope=MollifiedEnvelope(field_.envelope, half_width))


# -- discrete admissibility ----------------------------------------------------


@dataclass(frozen=True)
class AdmissibilityReport:
    weak_divergence_max: float
    boundary_normal_max: float
    surface_divergence_max: float
    mode: str
    passed: bool


def _stream_edge_integrals(field_: StreamFunctionVelocity, mesh: Mesh, t: float):
    """Gauss-4 line integrals of psi over every undirected mesh edge, and the
    edge lengths, looked up per triangle: column k of each (T, 3) result is
    the edge joining local nodes k and k+1 mod 3."""
    xi = np.array(
        [0.5 - 0.43056815579702629, 0.5 - 0.16999052179242816,
         0.5 + 0.16999052179242816, 0.5 + 0.43056815579702629]
    )
    wq = np.array([0.17392742256872693, 0.32607257743127305,
                   0.32607257743127305, 0.17392742256872693])
    edges, tri_edges, _ = triangle_edges(mesh.triangles)
    p0, p1 = mesh.nodes[edges.T]
    pts = p0[:, None, :] + xi[None, :, None] * (p1 - p0)[:, None, :]
    lengths = np.linalg.norm(p1 - p0, axis=1)
    psi = field_.stream(pts[..., 0], pts[..., 1], t)
    return (lengths * (psi @ wq))[tri_edges], lengths[tri_edges]


def discrete_admissibility(
    field_: VelocityField,
    mesh: Mesh,
    ops: FemOperators,
    t: float = 0.0,
) -> AdmissibilityReport:
    """Measure how far the field is from discretely admissible.

    Reports the max weak-divergence residual over interior test functions,
    the max normal velocity at boundary quadrature points, and the max
    arc-length derivative of the tangential surface speed.  For exact
    stream-function fields the weak divergence is evaluated through the
    boundary-line-integral identity int_T rot(psi) . grad(zeta) = closed line
    integral of psi d zeta/d tau, whose interior-edge contributions cancel
    exactly; the pass threshold of 1e-10 is then pure roundoff headroom.
    Slip fields (the zero field among them) have no bulk flow; any other
    class raises TypeError.
    """
    interior = ops.interior_nodes
    div_residual = np.zeros(ops.n_bulk)
    mode = type(field_).__name__
    if not isinstance(field_, (StreamFunctionVelocity, SurfaceSlipVelocity)):
        raise TypeError(f"no discrete admissibility check for a {mode}")

    if isinstance(field_, StreamFunctionVelocity) and not field_.is_zero:
        # d zeta/d tau along a directed triangle edge is +1/len for the head
        # basis, -1/len for the tail, 0 for the opposite node; the edge
        # integral itself is direction-free, so the two adjacent triangles
        # contribute with opposite signs and cancel exactly
        integrals, lengths = _stream_edge_integrals(field_, mesh, t)
        vals = (integrals / lengths).T  # (3, T)
        tails = mesh.triangles.T
        heads = np.roll(tails, -1, axis=0)
        # summed local edge by local edge, heads before tails
        index, values = np.stack([heads, tails], axis=1), np.stack([vals, -vals], axis=1)
        div_residual = ops.to_nodes(index, values, ops.n_bulk)

    div_max = float(np.abs(div_residual[interior]).max()) if len(interior) else 0.0

    qc = ops.surf_qcoords
    vb = field_.sample_bulk(qc[..., 0], qc[..., 1], t)
    vn = np.einsum("eqd,ed->eq", vb, ops.surf_normals)
    vn_max = float(np.abs(vn).max())

    speeds = field_.sample_surface(ops.surf_qarcs, t)
    dspeed = np.abs(np.diff(np.asarray(speeds), axis=1)) / (
        ops.surf_h[:, None] * (_GAUSS_SPREAD)
    )
    surf_div_max = float(dspeed.max()) if np.asarray(speeds).size else 0.0

    worst = max(div_max, vn_max, surf_div_max)
    return AdmissibilityReport(
        weak_divergence_max=div_max,
        boundary_normal_max=vn_max,
        surface_divergence_max=surf_div_max,
        mode=mode,
        passed=bool(worst <= _ADMISSIBILITY_THRESHOLD),
    )

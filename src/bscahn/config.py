"""Flat key = value run configuration: parsing, validation, and object building.

The format is `[section]` headers over `key = value` lines, UTF-8, with `#`
starting comments.  Unknown sections or keys are hard errors, so a typo can
never silently fall back to a default.  Every module precondition the
configuration can check is checked at parse/build time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import BulkSurfacePair, CouplingParams, FemOperators, assemble
from .mesh import Mesh, generate_unit_square, load_mesh
from .potentials import PotentialSpec, YosidaParams
from .stepper import ConstantMobility, QuadraticMobility, StepperConfig
from .velocity import (
    ConstantEnvelope,
    SineEnvelope,
    StepEnvelope,
    StreamFunctionVelocity,
    SurfaceSlipVelocity,
    VelocityField,
    ZeroVelocity,
    mollify_in_time,
)
from . import output


class ConfigError(ValueError):
    """Bad configuration file or inadmissible parameter combination."""


_KNOWN_KEYS = {
    "mesh": {"n", "path"},
    "potentials": {"theta", "theta_c", "theta_surf", "theta_c_surf", "kappa1", "kappa2"},
    "coupling": {"K", "L", "alpha", "beta"},
    "time": {"lambda", "dt", "t_end"},
    "mobility": {"kind", "m_bulk", "m_surf", "bulk_lo", "bulk_hi", "surf_lo", "surf_hi"},
    "velocity": {"kind", "amplitude", "profile", "envelope", "step_t0", "omega", "mollify"},
    "initial": {
        "kind",
        "value_bulk",
        "value_surf",
        "mean",
        "amplitude",
        "center_x",
        "center_y",
        "radius",
        "sharpness",
        "path",
    },
    "elliptic": {"schedule", "rhs_kind", "rhs_value", "rhs_scale", "rhs_path", "cauchy_tol"},
    "study": {
        "yosida_kind",
        "yosida_schedule",
        "contdep_eps",
        "strong_amplitudes",
        "regime_zero",
        "regime_inf",
    },
    "output": {"dir"},
    "run": {"seed"},
}


def parse_config_text(text: str) -> dict:
    """Parse into {section: {key: value-string}} with strict key checking."""
    data: dict[str, dict[str, str]] = {}
    section = None
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _KNOWN_KEYS:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            data.setdefault(section, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KNOWN_KEYS[section]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{section}]")
        if key in data[section]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in [{section}]")
        data[section][key] = value
    return data


def parse_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def _extended(raw: str) -> float:
    value = float(raw)  # also parses inf and infinity
    if value < 0:
        raise ValueError(raw)
    return value


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(raw)
    return value


def _get(data, section, key, default=None, cast=_finite):
    raw = data.get(section, {}).get(key)
    if raw is None:
        if default is None:
            raise ConfigError(f"missing required key {key!r} in [{section}]")
        return default
    try:
        return cast(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"bad value {raw!r} for [{section}] {key}") from None


def _float_list(raw: str) -> list[float]:
    return [_finite(tok) for tok in raw.replace(",", " ").split()]


@dataclass
class RunSetup:
    """Everything one simulation needs, built from a parsed configuration."""

    mesh: Mesh
    ops: FemOperators
    cfg: StepperConfig
    field: VelocityField
    initial: BulkSurfacePair
    t_end: float
    seed: int
    out_dir: str


def build_mesh(data: dict) -> Mesh:
    sec = data.get("mesh", {})
    if "path" in sec:
        return load_mesh(sec["path"])
    n = _get(data, "mesh", "n", default=8, cast=int)
    if n < 2:
        raise ConfigError(f"mesh resolution must be >= 2, got {n}")
    return generate_unit_square(n)


def build_potentials(data: dict) -> PotentialSpec:
    sec = data.get("potentials", {})
    try:
        return PotentialSpec(
            theta=_get(data, "potentials", "theta", 0.8),
            theta_c=_get(data, "potentials", "theta_c", 1.6),
            theta_surf=_get(data, "potentials", "theta_surf") if "theta_surf" in sec else None,
            theta_c_surf=(
                _get(data, "potentials", "theta_c_surf") if "theta_c_surf" in sec else None
            ),
            kappa1=_get(data, "potentials", "kappa1", 1.0),
            kappa2=_get(data, "potentials", "kappa2", 0.0),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def build_coupling(data: dict, ops: FemOperators) -> CouplingParams:
    try:
        cp = CouplingParams(
            K=_get(data, "coupling", "K", 1.0, cast=_extended),
            L=_get(data, "coupling", "L", 1.0, cast=_extended),
            alpha=_get(data, "coupling", "alpha", 1.0),
            beta=_get(data, "coupling", "beta", 1.0),
        )
        cp.validate_measures(ops.area_bulk, ops.area_surf)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return cp


def build_mobility(data: dict):
    kind = data.get("mobility", {}).get("kind", "constant")
    try:
        if kind == "constant":
            return ConstantMobility(
                m_bulk=_get(data, "mobility", "m_bulk", 1.0),
                m_surf=_get(data, "mobility", "m_surf", 1.0),
            )
        if kind == "quadratic":
            return QuadraticMobility(
                bulk_lo=_get(data, "mobility", "bulk_lo", 0.1),
                bulk_hi=_get(data, "mobility", "bulk_hi", 1.0),
                surf_lo=_get(data, "mobility", "surf_lo", 0.1),
                surf_hi=_get(data, "mobility", "surf_hi", 1.0),
            )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    raise ConfigError(f"unknown mobility kind {kind!r}")


def build_velocity(data: dict, cp: CouplingParams) -> VelocityField:
    sec = data.get("velocity", {})
    kind = sec.get("kind", "zero")
    envelope_kind = sec.get("envelope", "constant")
    if envelope_kind == "constant":
        envelope = ConstantEnvelope()
    elif envelope_kind == "step":
        envelope = StepEnvelope(t0=_get(data, "velocity", "step_t0", 0.0))
    elif envelope_kind == "sine":
        envelope = SineEnvelope(omega=_get(data, "velocity", "omega", 1.0))
    else:
        raise ConfigError(f"unknown envelope {envelope_kind!r}")
    amplitude = _get(data, "velocity", "amplitude", 1.0)
    if kind == "zero":
        field_ = ZeroVelocity()
    elif kind == "stream":
        profile = sec.get("profile", "sine")
        if profile not in ("sine", "sine2"):
            raise ConfigError(f"unknown stream profile {profile!r}")
        field_ = StreamFunctionVelocity(amplitude=amplitude, profile=profile, envelope=envelope)
    elif kind == "slip":
        field_ = SurfaceSlipVelocity(speed=amplitude, envelope=envelope)
    else:
        raise ConfigError(f"unknown velocity kind {kind!r}")
    mollify = _get(data, "velocity", "mollify", 0.0)
    if mollify > 0:
        field_ = mollify_in_time(field_, mollify)
    if cp.K == 0.0 and not field_.trace_matches_surface:
        raise ConfigError(
            "K = 0 requires the bulk velocity trace to equal the surface field; "
            "use kind = zero, a zero-amplitude slip, or the sine2 stream profile"
        )
    return field_


def build_initial(
    data: dict, mesh: Mesh, ops: FemOperators, cp: CouplingParams, seed: int
) -> BulkSurfacePair:
    sec = data.get("initial", {})
    kind = sec.get("kind", "constant")
    if kind == "constant":
        vb = _get(data, "initial", "value_bulk", 0.0)
        vs = _get(data, "initial", "value_surf", 0.0) if "value_surf" in sec else vb
        pair = ops.constant_pair(vb, vs)
    elif kind == "random":
        mean = _get(data, "initial", "mean", 0.0)
        amp = _get(data, "initial", "amplitude", 0.1)
        if abs(mean) + abs(amp) > 1.0:
            raise ConfigError(f"|mean| + |amplitude| = {abs(mean) + abs(amp):g} exceeds 1")
        rng = np.random.default_rng(seed)
        pair = BulkSurfacePair(
            mean + amp * rng.uniform(-1.0, 1.0, ops.n_bulk),
            mean + amp * rng.uniform(-1.0, 1.0, ops.n_surf),
        )
        pair = ops.constrain(pair, ops.reduction(cp.K, cp.alpha))
    elif kind == "bubble":
        cx = _get(data, "initial", "center_x", 0.5)
        cy = _get(data, "initial", "center_y", 0.5)
        radius = _get(data, "initial", "radius", 0.25)
        sharp = _get(data, "initial", "sharpness", 0.05)
        if sharp <= 0 or radius <= 0:
            raise ConfigError("bubble radius and sharpness must be positive")
        d_bulk = np.linalg.norm(mesh.nodes - np.array([cx, cy]), axis=1)
        bulk = np.tanh((radius - d_bulk) / sharp)
        surf = bulk[mesh.surface_nodes].copy()
        pair = BulkSurfacePair(bulk, surf)
        if cp.K == 0.0 and cp.alpha != 1.0:
            raise ConfigError("bubble initial data with K = 0 needs alpha = 1")
    elif kind == "file":
        path = sec.get("path")
        if not path:
            raise ConfigError("initial kind = file needs a path")
        pair = output.read_field_snapshot(path, mesh)
    else:
        raise ConfigError(f"unknown initial kind {kind!r}")

    try:
        ops.check_initial_data(pair, cp)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return pair


def build_setup(data: dict, out_dir: str | None = None, seed: int | None = None) -> RunSetup:
    mesh = build_mesh(data)
    ops = assemble(mesh)
    pot = build_potentials(data)
    cp = build_coupling(data, ops)
    mobility = build_mobility(data)
    if seed is None:
        seed = _get(data, "run", "seed", 0, cast=int)
    lam = _get(data, "time", "lambda", 1e-3)
    dt = _get(data, "time", "dt", 1e-3, cast=float)
    t_end = _get(data, "time", "t_end", 0.05, cast=float)
    if not 0 < dt <= t_end < math.inf:  # false for NaN too
        raise ConfigError(f"need finite 0 < dt <= t_end, got dt={dt:g}, t_end={t_end:g}")
    if abs(round(t_end / dt) * dt - t_end) > 1e-9 * t_end:  # a run takes round(t_end/dt) steps
        raise ConfigError(f"t_end={t_end:g} is not a whole number of steps of dt={dt:g}")
    try:
        yp = YosidaParams(lam=lam)
        cfg = StepperConfig(dt=dt, cp=cp, pot=pot, yp=yp, mobility=mobility)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    field_ = build_velocity(data, cp)
    initial = build_initial(data, mesh, ops, cp, seed)
    return RunSetup(
        mesh=mesh,
        ops=ops,
        cfg=cfg,
        field=field_,
        initial=initial,
        t_end=t_end,
        seed=seed,
        out_dir=out_dir or data.get("output", {}).get("dir", "."),
    )

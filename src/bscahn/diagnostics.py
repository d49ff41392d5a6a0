"""Cross-run experiments: continuous dependence, regularization convergence,
a-priori-estimate monitors, separation, and regime interpolation.

Every experiment returns a structured result carrying per-run rows (ready for
CSV emission), a pass flag, and a human-readable reason.  Assertions are
ratio-stability or boundedness statements; none of the underlying existential
constants is asserted numerically.  A study given less evidence than its
verdict needs raises ``ConfigError`` before any run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .assembly import BulkSurfacePair, FemOperators, SolverFailure, assemble
from .config import ConfigError
from .mesh import generate_unit_square
from .stepper import StepperConfig, TimeStepper, Trajectory
from .velocity import VelocityField
from . import elliptic
from .potentials import YosidaParams


class StudyRunError(SolverFailure):
    """A run inside an experiment failed (``failure`` holds its record), or
    its data functional overflowed (``failure`` is None)."""

    def __init__(self, message: str, failure: dict | None = None):
        super().__init__(message)
        self.failure = failure


def _require(count: int, least: int, study: str, evidence: str) -> None:
    """Reject a study given less evidence than its verdict needs, before any run."""
    if count < least:
        raise ConfigError(f"{study} needs at least {least} {evidence}, got {count}")


def _completed(traj: Trajectory, what: str) -> Trajectory:
    if traj.failure:
        raise StudyRunError(
            f"{what} failed at step {traj.failure['step']}: {traj.failure['error']}",
            traj.failure,
        )
    return traj


def _gronwall_weight(exponent: float, what: str) -> float:
    """exp(exponent) of a Gronwall weight; a study error where it overflows."""
    try:
        return math.exp(exponent)
    except OverflowError:
        raise StudyRunError(
            f"{what}: Gronwall weight exp({exponent:.6g}) overflows a float"
        ) from None


@dataclass
class ExperimentResult:
    name: str
    rows: list
    passed: bool
    reason: str
    extras: dict

    @property
    def columns(self) -> list:
        """The CSV header: the keys of the first row (every study has two or more)."""
        return list(self.rows[0])


# -- velocity norms ------------------------------------------------------------


def velocity_norms(
    ops: FemOperators, field_: VelocityField, t: float
) -> tuple[float, float, float]:
    """L2, L3 and H1 norms of the bulk-surface velocity at time t, from one
    sample of v, grad v and the slip speed at the quadrature points."""
    qc = ops.tri_qcoords
    v = field_.sample_bulk(qc[..., 0], qc[..., 1], t)
    g = field_.bulk_gradient(qc[..., 0], qc[..., 1], t)
    w = np.asarray(field_.sample_surface(ops.surf_qarcs, t))
    v2 = np.sum(v * v, axis=-1)
    w2 = ops.surf_quad_integral(w * w)
    l2 = math.sqrt(ops.tri_quad_integral(v2) + w2)
    l3 = (ops.tri_quad_integral(v2**1.5) + ops.surf_quad_integral(np.abs(w) ** 3)) ** (1.0 / 3.0)
    # the slip speed is constant in arc length, so its tangential derivative
    # vanishes and only the mass part contributes on the surface
    h1 = math.sqrt(ops.tri_quad_integral(v2 + np.sum(g * g, axis=(-1, -2))) + w2)
    return l2, l3, h1


# -- continuous dependence -------------------------------------------------------


def mean_compatible_direction(
    ops: FemOperators, cp, rng: np.random.Generator
) -> BulkSurfacePair:
    """Random unit pair whose generalized mean (or both means) vanishes.

    Mean corrections use shift fields that respect the eliminated phase
    trace whenever it is active: the interior bulk indicator and the
    constant pair (alpha, 1).
    """
    d = BulkSurfacePair(rng.standard_normal(ops.n_bulk), rng.standard_normal(ops.n_surf))
    d = ops.constrain(d, ops.reduction(cp.K, cp.alpha))

    indicator = np.zeros(ops.n_bulk)
    indicator[ops.interior_nodes] = 1.0
    z1 = BulkSurfacePair(indicator, np.zeros(ops.n_surf))
    z2 = ops.constant_pair(cp.alpha, 1.0) if cp.K == 0.0 else ops.constant_pair(cp.beta, 1.0)

    if math.isinf(cp.L):
        mb, ms = ops.component_means(d)
        m1b, _ = ops.component_means(z1)
        m2b, m2s = ops.component_means(z2)
        b = ms / m2s
        a = (mb - b * m2b) / m1b
        d = d - z1 * a - z2 * b
    else:
        c = ops.bs_mean(d, cp)
        z = z1 if cp.beta != 0.0 else z2
        d = d - z * (c / ops.bs_mean(z, cp))
    return d * (1.0 / ops.l2_norm(d))


def _mean_gap(ops, cp, a: BulkSurfacePair, b: BulkSurfacePair) -> float:
    if math.isinf(cp.L):
        ma, mb_ = ops.component_means(a), ops.component_means(b)
        return max(abs(ma[0] - mb_[0]), abs(ma[1] - mb_[1]))
    return abs(ops.bs_mean(a, cp) - ops.bs_mean(b, cp))


def continuous_dependence_experiment(
    ops: FemOperators,
    cfg: StepperConfig,
    field_: VelocityField,
    initial: BulkSurfacePair,
    t_end: float,
    perturbations,
    seed: int = 0,
) -> ExperimentResult:
    """Perturbation study for the stability estimate of the flow map.

    Each perturbation is a pair (data_eps, vel_eps): the initial data is
    shifted by data_eps times a fixed mean-compatible unit direction and the
    velocity amplitude scaled by (1 + vel_eps).  Reports the ratio of the
    measured left-hand side (final dual norm squared plus the time-integrated
    coupled-gradient norm) against the data functional, and checks that the
    ratio is stable (within a factor 4) when the perturbation shrinks by 4,
    and that the first two data-only perturbations scale the left-hand side
    with an exponent in [1.8, 2.2].
    """
    if not cfg.mobility.is_constant:
        raise ValueError("continuous dependence requires constant mobilities")
    perturbations = list(perturbations)
    # the indices of the data-only perturbations; the first two give the exponent
    data_only = [i for i, (d, v) in enumerate(perturbations) if d > 0 and v == 0]
    _require(len(data_only), 2, "continuous dependence", "data-only perturbations")
    cp = cfg.cp
    stepper = TimeStepper(ops, cfg)
    rng = np.random.default_rng(seed)
    direction = mean_compatible_direction(ops, cp, rng)

    base_traj = _completed(stepper.run(initial, field_, t_end), "base run")
    dt = cfg.dt
    n_steps = len(base_traj.states) - 1
    # the base velocity's L2 and L3 norms, sampled once per step
    l2, l3 = zip(*(velocity_norms(ops, field_, k * dt)[:2] for k in range(n_steps + 1)))
    # exponential weight accumulates the base velocity integrability in time;
    # the velocity part of the denominator takes the tail window from each step
    w_rate = np.array([1.0 + v**2 for v in l3])
    tail = np.concatenate([np.cumsum((dt * w_rate)[::-1])[::-1], [0.0]])
    # tail[0] is the largest exponent, so the weights below it are finite
    weight = _gronwall_weight(float(tail[0]), "base velocity")

    rows = []
    lhs_values = []
    for data_eps, vel_eps in perturbations:
        pert_initial = initial + direction * data_eps
        if _mean_gap(ops, cp, pert_initial, initial) > 1e-10:
            raise ValueError("perturbed initial data does not share the base mean")
        pert_field = field_.scaled(1.0 + vel_eps)
        traj = _completed(stepper.run(pert_initial, pert_field, t_end), "perturbed run")

        diff_final = traj.final.phi_psi - base_traj.final.phi_psi
        lhs = ops.dual_norm(diff_final, cp) ** 2
        lhs += sum(
            dt * ops.inner_ka(d, d, cp)
            for d in (
                a.phi_psi - b.phi_psi for a, b in zip(traj.states[1:], base_traj.states[1:])
            )
        )
        init_dual_sq = ops.dual_norm(direction * data_eps, cp) ** 2
        vel_sq = (vel_eps * np.array(l2[:n_steps])) ** 2
        denom = init_dual_sq * weight + float(
            np.sum(dt * vel_sq * np.exp(tail[1 : n_steps + 1]))
        )
        ratio = lhs / denom if denom > 0 else 0.0
        lhs_values.append(lhs)
        rows.append(
            {
                "data_eps": data_eps,
                "vel_eps": vel_eps,
                "lhs": lhs,
                "initial_dual_sq": init_dual_sq,
                "velocity_term": denom - init_dual_sq * weight,
                "ratio": ratio,
            }
        )

    ratios = [r["ratio"] for r in rows if r["ratio"] > 0]
    passed = True
    reason = "ok"
    if ratios:
        spread = max(ratios) / min(ratios)
        if spread > 4.0:
            passed = False
            reason = f"ratio spread {spread:.2f} exceeds 4"
    else:
        spread = 1.0
    extras = {"lhs_values": lhs_values, "ratio_spread": spread}
    big, small = (rows[i] for i in data_only[:2])
    if small["lhs"] > 0:
        expo = scaling_exponent(
            big["lhs"], small["lhs"], factor=big["data_eps"] / small["data_eps"]
        )
        extras["scaling_exponent"] = expo
        if not 1.8 <= expo <= 2.2:
            passed = False
            reason = f"scaling exponent {expo:.3f} outside [1.8, 2.2]"
    return ExperimentResult(
        name="continuous_dependence",
        rows=rows,
        passed=passed,
        reason=reason,
        extras=extras,
    )


def scaling_exponent(lhs_big: float, lhs_small: float, factor: float = 2.0) -> float:
    """log-slope of the measured left-hand side under perturbation shrink."""
    return math.log(lhs_big / lhs_small) / math.log(factor**2) * 2.0


# -- regularization convergence ----------------------------------------------------


def yosida_convergence_study(
    kind: str,
    ops: FemOperators,
    cfg: StepperConfig,
    schedule,
    rhs: BulkSurfacePair | None = None,
    field_: VelocityField | None = None,
    initial: BulkSurfacePair | None = None,
    t_end: float = 0.0,
) -> ExperimentResult:
    """Successive L2 distances between solutions along a decreasing schedule.

    kind "elliptic" compares stationary solves with the given right-hand
    side; kind "time" compares trajectories at the final time.  Passes iff
    the distances decrease monotonically after the first entry.
    """
    if kind not in ("elliptic", "time"):
        raise ValueError(f"unknown study kind {kind!r}")
    schedule = list(schedule)
    _require(len(schedule), 3, "yosida convergence", "regularization parameters")
    if any(b >= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be strictly decreasing")
    sols = []
    for lam in schedule:
        yp = YosidaParams(lam=lam)
        if kind == "elliptic":
            prob = elliptic.EllipticProblem(ops=ops, cp=cfg.cp, pot=cfg.pot, yp=yp, rhs=rhs)
            sols.append(elliptic.solve_regularized(prob).uv)
        else:
            stepper = TimeStepper(ops, replace(cfg, yp=yp))
            traj = _completed(stepper.run(initial, field_, t_end), f"run at lam={lam}")
            sols.append(traj.final.phi_psi)
    dists = [ops.l2_norm(b - a) for a, b in zip(sols, sols[1:])]
    monotone = all(b <= a + 1e-14 for a, b in zip(dists, dists[1:]))
    rows = [
        {"lam_coarse": schedule[i], "lam_fine": schedule[i + 1], "distance": dists[i]}
        for i in range(len(dists))
    ]
    return ExperimentResult(
        name=f"yosida_convergence_{kind}",
        rows=rows,
        passed=monotone,
        reason="ok" if monotone else f"distances not monotone: {dists}",
        extras={"distances": dists},
    )


# -- strong-solution estimate monitor -------------------------------------------------


_ENVELOPE_FACTOR = 10.0  # ratio spread the strong-estimate family may show


def strong_estimate_monitor(
    ops: FemOperators,
    cfg: StepperConfig,
    field_: VelocityField,
    initial: BulkSurfacePair,
    t_end: float,
    amplitudes=(0.0, 0.5, 1.0, 2.0),
) -> ExperimentResult:
    """Boundedness of the potential-norm estimate across velocity amplitudes.

    For each amplitude the run's sup-in-time (L, beta)-seminorm of the
    chemical potentials squared is compared against the data functional
    (initial potential norm plus time-integrated velocity H1 norms, with the
    exponential weight).  Passes iff the ratio family stays within a
    multiplicative envelope of 10.
    """
    cp = cfg.cp
    if not (cp.L > 0.0):
        raise ValueError("strong-estimate monitor requires L in (0, inf]")
    if not cfg.mobility.is_constant:
        raise ValueError("strong-estimate monitor requires constant mobilities")
    if cp.K == 0.0 and not field_.trace_matches_surface:
        raise ValueError("K = 0 runs require the bulk trace to equal the surface field")
    _require(len(amplitudes), 2, "strong estimate", "velocity amplitudes")

    dt = cfg.dt
    rows = []
    for amp in amplitudes:
        f_amp = field_.scaled(amp)
        stepper = TimeStepper(ops, cfg)
        traj = _completed(stepper.run(initial, f_amp, t_end), f"run at amplitude {amp}")
        sup_sq = max(ops.norm_lb(s.mu_theta, cp) ** 2 for s in traj.states)
        dtime = sum(
            ops.inner_ka(b.phi_psi - a.phi_psi, b.phi_psi - a.phi_psi, cp) / dt
            for a, b in zip(traj.states, traj.states[1:])
        )
        h1s = np.array(
            [velocity_norms(ops, f_amp, k * dt)[2] for k in range(len(traj.states))]
        )
        data = (
            1.0
            + ops.norm_lb(traj.states[0].mu_theta, cp) ** 2
            + float(np.sum(dt * h1s**2))
        ) * _gronwall_weight(float(np.sum(dt * h1s)), f"run at amplitude {amp}")
        rows.append(
            {
                "amplitude": amp,
                "sup_potential_norm_sq": sup_sq,
                "time_derivative_sum": dtime,
                "data_functional": data,
                "ratio": sup_sq / data,
            }
        )
    ratios = [r["ratio"] for r in rows]
    spread = max(ratios) / min(ratios) if min(ratios) > 0 else math.inf
    passed = spread <= _ENVELOPE_FACTOR
    return ExperimentResult(
        name="strong_estimate",
        rows=rows,
        passed=passed,
        reason="ok" if passed else f"ratio spread {spread:.2f} exceeds {_ENVELOPE_FACTOR}",
        extras={"spread": spread},
    )


# -- separation ------------------------------------------------------------------------


@dataclass
class SeparationReport:
    delta_bulk: float
    delta_surf: float
    argmax_bulk: tuple
    argmax_surf: tuple
    warning: str | None

    @property
    def passed(self) -> bool:
        return self.delta_bulk > 0 and self.delta_surf > 0


def separation_report(traj: Trajectory) -> SeparationReport:
    """Distance of the trajectory from the potential's singular endpoints.

    A nonpositive value flags regularization overshoot: the run left the
    physical band and the regularization parameter should be reduced.
    """
    best_b, arg_b = -math.inf, (0, 0)
    best_s, arg_s = -math.inf, (0, 0)
    for k, state in enumerate(traj.states):
        ib = int(np.argmax(np.abs(state.phi_psi.bulk)))
        vs = float(np.abs(state.phi_psi.bulk[ib]))
        if vs > best_b:
            best_b, arg_b = vs, (k, ib)
        js = int(np.argmax(np.abs(state.phi_psi.surf)))
        ws = float(np.abs(state.phi_psi.surf[js]))
        if ws > best_s:
            best_s, arg_s = ws, (k, js)
    db, ds = 1.0 - best_b, 1.0 - best_s
    warning = None
    if db <= 0 or ds <= 0:
        warning = "separation lost: reduce the regularization parameter"
    return SeparationReport(
        delta_bulk=db, delta_surf=ds, argmax_bulk=arg_b, argmax_surf=arg_s, warning=warning
    )


# -- regime interpolation -----------------------------------------------------------------


def regime_interpolation_study(
    ops: FemOperators,
    cfg: StepperConfig,
    field_: VelocityField,
    initial: BulkSurfacePair,
    t_end: float,
    toward_zero=(1.0, 0.1, 0.01),
    toward_inf=(1.0, 10.0, 100.0),
) -> ExperimentResult:
    """Monotone approach of finite-coupling runs to the limit regimes, in K
    and then in L, the other coupling held at its cfg value.

    Every run starts from `initial` with its boundary bulk values set to
    alpha times the surface values: data admissible for the zero-coupling
    limit, shared by all runs, so the gaps carry no fixed initial-data
    floor.  Each distinct coupling runs once.  Gaps are final-time L2
    distances.
    """
    for direction, values in (("zero", toward_zero), ("inf", toward_inf)):
        _require(len(values), 2, "regime interpolation", f"coupling values toward {direction}")
    start = ops.constrain(initial, ops.prolongator(cfg.cp.alpha))
    finals = {}

    def final(which, value):
        cp = replace(cfg.cp, **{which: value})
        if cp not in finals:
            traj = TimeStepper(ops, replace(cfg, cp=cp)).run(start, field_, t_end)
            finals[cp] = _completed(traj, f"run at {which}={value}").final.phi_psi
        return finals[cp]

    rows, reasons, extras = [], {}, {}
    for which in ("K", "L"):
        limits = {"zero": final(which, 0.0), "inf": final(which, math.inf)}
        gaps = {}
        for direction, values in (("zero", toward_zero), ("inf", toward_inf)):
            gaps[direction] = [ops.l2_norm(final(which, v) - limits[direction]) for v in values]
            rows += [
                {"which": which, "direction": direction, "value": v, "gap": g}
                for v, g in zip(values, gaps[direction])
            ]
        extras[which] = {"gaps_zero": gaps["zero"], "gaps_inf": gaps["inf"]}
        monotone = all(b <= a + 1e-14 for g in gaps.values() for a, b in zip(g, g[1:]))
        reasons[which] = (
            "ok" if monotone else f"gaps not monotone (zero: {gaps['zero']}, inf: {gaps['inf']})"
        )
    passed = all(r == "ok" for r in reasons.values())
    return ExperimentResult(
        name="regime_interpolation",
        rows=rows,
        passed=passed,
        reason="ok" if passed else "; ".join(f"{w}: {r}" for w, r in reasons.items()),
        extras=extras,
    )


# -- trace interpolation constant ------------------------------------------------------------


_TRACE_SAMPLES = 100  # random fields per resolution of the trace report


def trace_interpolation_report(resolutions=(4, 8), seed: int = 0):
    """Measured constants of the boundary-trace interpolation inequality.

    Maximum over 100 random nodal fields of
    ||u||_{L2(boundary)} / (||u||_{L2}^{1/2} ||u||_{H1}^{1/2}), per resolution.
    Reported, not asserted against a fixed value.
    """
    rng = np.random.default_rng(seed)
    out = []
    for n in resolutions:
        ops = assemble(generate_unit_square(n))
        worst = 0.0
        for _ in range(_TRACE_SAMPLES):
            u = rng.standard_normal(ops.n_bulk)
            tr = u[ops.mesh.surface_nodes]
            num = math.sqrt(float(tr @ (ops.M_surf @ tr)))
            l2 = math.sqrt(float(u @ (ops.M_bulk @ u)))
            h1 = math.sqrt(float(u @ ((ops.M_bulk + ops.A_bulk) @ u)))
            worst = max(worst, num / math.sqrt(l2 * h1))
        out.append({"n": n, "measured_constant": worst})
    return out

"""Energy-stable implicit time integration of the coupled bulk-surface system.

One step advances the phase fields and chemical potentials monolithically:
the convex (regularized singular) potential parts, all Laplacians and both
coupling exchange terms are implicit, the concave smooth parts and the
convection loads are explicit at the old state, and the mobilities are frozen
at the old state per step.  Trace constraints of the zero-coupling regimes
are eliminated, so they hold identically.

Tested with the discrete weighted-constant pair, the transport and exchange
terms vanish exactly, which is what makes the mass law a per-step identity;
testing the potential equation with the increment and the flux equation with
the new potentials gives the per-step energy dissipation inequality, exact up
to the Newton residual because every nonlinear term is sampled at quadrature
points (see assembly module notes).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import (
    BulkSurfacePair,
    CouplingParams,
    FemOperators,
    JacobianPattern,
    LaggedFactor,
    NewtonSystem,
    SolverFailure,
    same_bits,
)
from .potentials import (
    ConvexTerms,
    PotentialSpec,
    YosidaParams,
    convex_terms,
    f2,
    yosida_value,
)
from .velocity import VelocityField


class StepError(SolverFailure):
    """Nonlinear solve failed for one step; suggests halving the time step."""

    def __init__(self, message, history=None):
        super().__init__(message + " (advice: halve dt and retry)")
        self.history = list(history or [])


@dataclass(frozen=True)
class ConstantMobility:
    m_bulk: float = 1.0
    m_surf: float = 1.0

    def __post_init__(self):
        if self.m_bulk <= 0 or self.m_surf <= 0:
            raise ValueError("mobilities must be positive")

    is_constant = True


@dataclass(frozen=True)
class QuadraticMobility:
    """m(s) = lo + (hi - lo)(1 - clip(s)^2); bounded between lo and hi."""

    bulk_lo: float = 0.1
    bulk_hi: float = 1.0
    surf_lo: float = 0.1
    surf_hi: float = 1.0

    def __post_init__(self):
        if min(self.bulk_lo, self.surf_lo) <= 0:
            raise ValueError("mobility lower bounds must be positive")
        if self.bulk_hi < self.bulk_lo or self.surf_hi < self.surf_lo:
            raise ValueError("mobility upper bounds below lower bounds")

    is_constant = False

    def bulk(self, s):
        c = np.clip(np.asarray(s, dtype=float), -1.0, 1.0)
        return self.bulk_lo + (self.bulk_hi - self.bulk_lo) * (1.0 - c * c)

    def surf(self, s):
        c = np.clip(np.asarray(s, dtype=float), -1.0, 1.0)
        return self.surf_lo + (self.surf_hi - self.surf_lo) * (1.0 - c * c)


@dataclass(frozen=True)
class StepperConfig:
    dt: float
    cp: CouplingParams
    pot: PotentialSpec = field(default_factory=PotentialSpec)
    yp: YosidaParams = field(default_factory=YosidaParams)
    mobility: object = field(default_factory=ConstantMobility)
    newton_tol: float = 1e-12
    newton_max_iter: int = 30

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")


@dataclass
class State:
    phi_psi: BulkSurfacePair
    mu_theta: BulkSurfacePair
    t: float


@dataclass(frozen=True)
class EnergyBreakdown:
    grad_bulk: float
    grad_surf: float
    pot_bulk: float
    pot_surf: float
    coupling: float

    @property
    def total(self) -> float:
        return self.grad_bulk + self.grad_surf + self.pot_bulk + self.pot_surf + self.coupling


@dataclass
class _Evaluated:
    """A full phase vector u as evaluated under ``cfg``: its convex terms
    and, once asked, its energy."""

    u: np.ndarray
    cfg: StepperConfig
    convex: ConvexTerms
    energy: EnergyBreakdown | None = None


@dataclass
class Trajectory:
    states: list
    rows: list
    failure: dict | None = None

    @property
    def final(self) -> State:
        return self.states[-1]


DIAGNOSTIC_COLUMNS = (
    "step,t,mass_bulk,mass_surf,mass_weighted,energy_total,energy_grad_bulk,"
    "energy_grad_surf,energy_pot_bulk,energy_pot_surf,energy_coupling,"
    "dissipation,balance_residual,max_abs_phi,max_abs_psi,newton_iters"
).split(",")


class TimeStepper:
    """Owns the assembled operators plus one coupling/potential configuration."""

    def __init__(self, ops: FemOperators, cfg: StepperConfig):
        cfg.cp.validate_measures(ops.area_bulk, ops.area_surf)
        self.ops = ops
        self._cfg = cfg
        cp = cfg.cp
        self.P_K = ops.reduction(cp.K, cp.alpha)
        self.P_L = ops.reduction(cp.L, cp.beta)
        self.mass = ops.block_mass
        self.stiff_K = ops.form_matrix(cp.sigma_K, cp.alpha)
        self.Q_L = ops.coupling_matrix(cp.sigma_L, cp.beta)
        self.mass_UW = ops.project(self.mass, self.P_L, self.P_K)
        if cfg.mobility.is_constant:
            self._diss_const = self._dissipation_matrix(None)
        # the step Jacobian's lagged factor, kept across the steps of a run,
        # and its fixed pattern and, for constant mobility, curvature-free
        # part with the dt it holds, both built at the first step
        self.factor = LaggedFactor()
        self._pattern = None
        self._jac_base = (None, None)
        # the last phase vector evaluated, and the last field with its bulk
        # transport; both are compared with what a caller passes
        self._evaluated = None
        self._transport = (None, None, None)

    @property
    def cfg(self) -> StepperConfig:
        return self._cfg

    @cfg.setter
    def cfg(self, cfg: StepperConfig) -> None:
        # the operators are built from cp and the mobility; dt, the potentials,
        # lambda and the Newton limits may be replaced between steps
        if cfg.cp != self._cfg.cp or cfg.mobility != self._cfg.mobility:
            raise ValueError("a stepper's coupling and mobility are fixed; build a new TimeStepper")
        self._cfg = cfg

    # -- element mobility weights and the dissipation operator -----------------

    def _dissipation_matrix(self, state_pair: BulkSurfacePair | None) -> sp.csr_matrix:
        """Mobility-weighted stiffness plus the potential exchange coupling."""
        ops, cfg = self.ops, self.cfg
        mob = cfg.mobility
        if mob.is_constant:
            wb = np.full(len(ops.tri_areas), mob.m_bulk)
            ws = np.full(ops.n_surf, mob.m_surf)
        else:
            wb = mob.bulk(state_pair.bulk[ops.mesh.triangles]).mean(axis=1)
            ws = mob.surf(state_pair.surf[ops.surf_elems]).mean(axis=1)
        out = sp.block_diag(
            [ops.bulk_weighted_stiffness(wb), ops.surf_weighted_stiffness(ws)],
            format="csr",
        )
        if cfg.cp.sigma_L != 0.0:
            out = out + self.Q_L
        return sp.csr_matrix(out)

    def dissipation_matrix(self, state_pair: BulkSurfacePair) -> sp.csr_matrix:
        if self.cfg.mobility.is_constant:
            return self._diss_const
        return self._dissipation_matrix(state_pair)

    # -- loads -------------------------------------------------------------------

    def convection_load(self, pair: BulkSurfacePair, field_: VelocityField, t: float) -> np.ndarray:
        """Transport load pair: integrals of (old field) * velocity . grad(test).

        The bulk load at time t is scale(t) * (unit @ field), from one
        velocity sample at the triangle quadrature points (unit None when no
        bulk moves); the last field's unit and scale are kept, so a run
        samples its field once.
        """
        ops = self.ops
        out = np.zeros(ops.n_bulk + ops.n_surf)
        if field_.is_zero:
            return out
        if self._transport[0] is not field_:
            qc = ops.tri_qcoords
            unit, scale = field_.bulk_separation(qc[..., 0], qc[..., 1])
            self._transport = (field_, ops.transport_matrix(unit) if np.any(unit) else None, scale)
        _, unit, scale = self._transport
        if unit is not None:
            out[: ops.n_bulk] = scale(t) * (unit @ pair.bulk)
        speeds = np.asarray(field_.sample_surface(ops.surf_qarcs[:, 0], t))
        if np.any(speeds):
            # per element: speed * int psi * d(test)/ds, the integral of the
            # P1 interpolant over the element is exact
            iS, jS = ops.surf_elems[:, 0], ops.surf_elems[:, 1]
            seg = 0.5 * (pair.surf[iS] + pair.surf[jS]) * speeds
            out[ops.n_bulk :] = ops.to_nodes(ops.surf_elems.T, np.stack([-seg, seg]), ops.n_surf)
        return out

    def _concave_load(self, pair: BulkSurfacePair) -> np.ndarray:
        """Load of f2'(s) = -theta_c s; the quadrature integrates it exactly,
        so it is -theta_c times the mass matrix times each field."""
        ops, pot = self.ops, self.cfg.pot
        return np.concatenate(
            [-pot.theta_c * (ops.M_bulk @ pair.bulk), -pot.theta_c_surf * (ops.M_surf @ pair.surf)]
        )

    # -- observables ---------------------------------------------------------------

    def _convex(self, u: np.ndarray) -> ConvexTerms:
        """Convex terms at a full phase vector; the last vector's are kept."""
        kept, cfg = self._evaluated, self.cfg
        if kept is None or kept.cfg is not cfg or not same_bits(u, kept.u):
            terms = convex_terms(self.ops, u, cfg.pot, cfg.yp)
            kept = self._evaluated = _Evaluated(u.copy(), cfg, terms)
        return kept.convex

    def energy(self, pair: BulkSurfacePair) -> EnergyBreakdown:
        """Free energy with the regularized potential; quadrature-exact gradients.

        The quadrature values and resolvents are the convex terms' at the
        pair, and the last phase vector's energy is kept.
        """
        ops, pot, yp, cp = self.ops, self.cfg.pot, self.cfg.yp, self.cfg.cp
        convex, kept = self._convex(ops.to_vector(pair)), self._evaluated
        if kept.energy is not None:
            return kept.energy
        (qb, qs), (jb, js) = convex.r, convex.j
        pot_b = ops.tri_quad_integral(yosida_value(qb, pot.theta, yp, jb) + f2(qb, pot.theta_c))
        pot_s = ops.surf_quad_integral(
            yosida_value(qs, pot.theta_surf, yp, js) + f2(qs, pot.theta_c_surf)
        )
        coupling = 0.0
        if cp.sigma_K != 0.0:
            d = cp.alpha * pair.surf - ops.trace @ pair.bulk
            coupling = 0.5 * cp.sigma_K * float(d @ (ops.M_surf @ d))
        kept.energy = EnergyBreakdown(
            grad_bulk=0.5 * float(pair.bulk @ (ops.A_bulk @ pair.bulk)),
            grad_surf=0.5 * float(pair.surf @ (ops.A_surf @ pair.surf)),
            pot_bulk=pot_b,
            pot_surf=pot_s,
            coupling=coupling,
        )
        return kept.energy

    def mass_of(self, pair: BulkSurfacePair) -> tuple[float, float, float]:
        """(weighted total, bulk integral, surface integral)."""
        ib, isurf = self.ops.integrals(pair)
        return self.cfg.cp.beta * ib + isurf, ib, isurf

    # -- one implicit step -----------------------------------------------------------

    def initial_mu_theta(self, pair: BulkSurfacePair) -> BulkSurfacePair:
        """Compatibility projection of the potential equation at the initial data.

        Uses the full (unsplit) potential derivative.  With an eliminated
        phase-field trace the tested equation under-determines the result;
        the minimal-mass-norm representative is returned then.
        """
        ops = self.ops
        full = ops.to_vector(pair)
        g = self.stiff_K @ full + self._convex(full).load + self._concave_load(pair)
        # the tested equation lives against the phase-trace-constrained basis
        # when that is reduced, else the potential-trace (or full) one; the
        # solution sits in the potential-constrained space when L = 0, else
        # the minimal-mass-norm representative is taken
        test_p = self.P_K if self.P_K is not None else self.P_L
        sol_p = self.P_L if self.P_L is not None else self.P_K
        mat = ops.project(self.mass, test_p, sol_p).tocsc()
        red = spla.spsolve(mat, ops.reduce(g, test_p))
        return ops.from_vector(ops.prolong(red, sol_p))

    def _jacobian_pattern(self) -> JacobianPattern:
        """The pattern of the step Jacobian [[dt D, M_UW], [M_WU, -H(u)]].

        Unknowns are ordered (dw, du); D is reduced by the potential
        prolongator, H(u) = stiffness + curvature mass by the phase one.  The
        pattern is the union of the mass and stiffness blocks, every element
        pair of the mesh in both diagonal blocks, and the potential exchange
        coupling, so a new mobility or curvature only rewrites the data vector.
        """
        ops = self.ops
        nw, nu = self.mass_UW.shape
        mass = self.mass_UW.tocoo()
        stiff = ops.project(self.stiff_K, self.P_K, self.P_K).tocoo()
        # (rows, cols, data) of the blocks that never change; M_WU is written
        # as the transpose of M_UW, so the matrix is symmetric to the last bit
        # in the mass blocks
        fixed = [
            (mass.row, nw + mass.col, mass.data),
            (nw + mass.col, mass.row, mass.data),
            (nw + stiff.row, nw + stiff.col, -stiff.data),
        ]
        blocks = [ops.reduced_element_entries(self.P_L)[:2]]
        if self.cfg.cp.sigma_L != 0.0:
            q = self.Q_L.tocoo()
            blocks.append((q.row, q.col))
        return JacobianPattern(ops, nw + nu, self.P_K, nw, fixed, blocks)

    def _newton_system(
        self, diss: sp.csr_matrix, explicit_A: np.ndarray, concave: np.ndarray
    ) -> NewtonSystem:
        """The step's Newton system in x = [w_red, u_red], the Jacobian's (dw, du) order.

        Its residual is B x - [P_L^T explicit_A, P_K^T (concave + convex
        load)], B the step Jacobian without the curvature term: fixed for
        constant mobility; otherwise its dissipation block follows the
        mobility frozen at each step's old state.
        """
        ops, cfg = self.ops, self.cfg
        if self._pattern is None:
            self._pattern = self._jacobian_pattern()
        pattern, (dt, base) = self._pattern, self._jac_base
        if base is None or dt != cfg.dt:
            d = ops.project(cfg.dt * diss, self.P_L, self.P_L).tocoo()
            base = pattern.matrix(pattern.fixed + pattern.scatter(d.row, d.col, d.data))
            if cfg.mobility.is_constant:
                self._jac_base = (cfg.dt, base)
        rhs = np.concatenate([ops.reduce(explicit_A, self.P_L), ops.reduce(concave, self.P_K)])
        return NewtonSystem(
            ops, pattern, base, rhs, self._convex, -1, self.factor, StepError, "step Newton",
            max_trials=20,
        )

    def step(self, state: State, field_: VelocityField) -> tuple[State, dict]:
        """Advance one implicit step; returns the new state and per-step data.

        The per-step data carries the new state's energy breakdown under
        "energy", under "factorizations" and "held_solve_iterations" the step
        Jacobian factorizations and refinement sweeps it made, and under
        "line_search_trials" its line-search trials; the lagged factor is kept
        for the next step until :meth:`run` ends.  A step that fails on a
        factor kept from an earlier step is retried once on a fresh factor,
        from the same starting residual, so a raised StepError is the one a
        fresh stepper raises from the same state; a successful step matches it
        to the Newton tolerance, not bitwise.  The accepted line-search trial
        is the next Newton iterate, residual and convex terms included.
        """
        ops, cfg = self.ops, self.cfg
        dt = cfg.dt
        # before the solve, whose line-search trials replace the kept vector
        energy_old = self.energy(state.phi_psi)
        u_old = ops.to_vector(state.phi_psi)

        diss = self.dissipation_matrix(state.phi_psi)
        conv = self.convection_load(state.phi_psi, field_, state.t + 0.5 * dt)
        system = self._newton_system(
            diss, self.mass @ u_old + dt * conv, self._concave_load(state.phi_psi)
        )
        w_red = ops.to_reduced(state.mu_theta, self.P_L)
        x = np.concatenate([w_red, ops.to_reduced(state.phi_psi, self.P_K)])
        history = []
        x_new, _, u_full, iters, trials = system.solve(
            x, cfg.newton_tol, cfg.newton_max_iter, history
        )
        w_full = ops.prolong(x_new[: len(w_red)], self.P_L)
        new_state = State(
            phi_psi=ops.from_vector(u_full), mu_theta=ops.from_vector(w_full), t=state.t + dt
        )
        energy = self.energy(new_state.phi_psi)
        dissipation = float(w_full @ (diss @ w_full))
        conv_work = float(conv @ w_full)
        info = {
            "newton_iters": iters,
            "residual": history[-1],
            "dissipation": dissipation,
            "convection_work": conv_work,
            "balance_residual": (energy.total - energy_old.total) / dt + dissipation - conv_work,
            "energy": energy,
            "line_search_trials": trials,
            **system.counts(),
        }
        return new_state, info

    # -- trajectories ------------------------------------------------------------------

    def run(
        self,
        initial: BulkSurfacePair,
        field_: VelocityField,
        t_end: float,
        observers=(),
    ) -> Trajectory:
        """March from t = 0 to t_end, collecting states and diagnostics rows.

        Each step starts from the phase vector the previous one evaluated
        last, so its energy and convex terms are not evaluated again; the
        initial data's serve its potential, its energy and, when its phase
        trace is not cut by the reduction, the first step's starting residual.
        """
        ops, cfg = self.ops, self.cfg
        ops.check_initial_data(initial, cfg.cp)
        n_steps = int(round(t_end / cfg.dt))
        state = State(initial.copy(), self.initial_mu_theta(initial), t=0.0)
        states = [state]
        rows = [self._row(0, state, self.energy(state.phi_psi),
                          {"newton_iters": 0, "dissipation": 0.0, "balance_residual": 0.0})]
        try:
            for k in range(1, n_steps + 1):
                try:
                    state, info = self.step(state, field_)
                except StepError as exc:
                    return Trajectory(
                        states=states,
                        rows=rows,
                        failure={"step": k, "error": str(exc), "history": exc.history},
                    )
                states.append(state)
                rows.append(self._row(k, state, info["energy"], info))
                for obs in observers:
                    obs(state, info)
            return Trajectory(states=states, rows=rows)
        finally:
            # the factor is worth keeping across steps, not across runs
            self.factor.drop()

    def _row(self, k: int, state: State, e: EnergyBreakdown, info: dict) -> dict:
        weighted, mb, ms = self.mass_of(state.phi_psi)
        return {
            "step": k,
            "t": state.t,
            "mass_bulk": mb,
            "mass_surf": ms,
            "mass_weighted": weighted,
            "energy_total": e.total,
            "energy_grad_bulk": e.grad_bulk,
            "energy_grad_surf": e.grad_surf,
            "energy_pot_bulk": e.pot_bulk,
            "energy_pot_surf": e.pot_surf,
            "energy_coupling": e.coupling,
            "dissipation": info.get("dissipation", 0.0),
            "balance_residual": info.get("balance_residual", 0.0),
            "max_abs_phi": float(np.abs(state.phi_psi.bulk).max()),
            "max_abs_psi": float(np.abs(state.phi_psi.surf).max()),
            "newton_iters": info.get("newton_iters", 0),
        }

    def energy_balance_residuals(self, traj: Trajectory, field_: VelocityField) -> np.ndarray:
        """Recompute the per-step energy-balance residuals from stored states.

        Each state's energy is evaluated once: the kept one is the next
        step's old energy.
        """
        out = []
        for old, new in zip(traj.states, traj.states[1:]):
            energy_old = self.energy(old.phi_psi).total
            diss = self.dissipation_matrix(old.phi_psi)
            conv = self.convection_load(old.phi_psi, field_, old.t + 0.5 * self.cfg.dt)
            w = self.ops.to_vector(new.mu_theta)
            out.append(
                (self.energy(new.phi_psi).total - energy_old) / self.cfg.dt
                + float(w @ (diss @ w))
                - float(conv @ w)
            )
        return np.array(out)

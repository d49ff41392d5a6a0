"""The benchmark's four workloads.

Each workload generates its inputs from the benchmark seed, builds its
set-up (``setup``) and runs one pass of its unit of work (``run_pass``).  A
pass times only the calls into bscahn, checks every output against the
correctness gates, and returns deterministic counters that must repeat
exactly in every pass, traced or not.

The four workloads stress different layers, so that an optimisation of one
layer has a workload that shows it and one that should not move:

* ``sweep_n8``: Python overhead, COO/bmat rebuilds and the resolvent;
* ``fine_n64``: the sparse factor and solve of the step Jacobian;
* ``elliptic_n32``: the stationary solvers (SPD Newton, cached contraction
  factorization, lambda down to 1e-5) with no time loop;
* ``cli_runs``: the CLI, config, output, diagnostics and mollified-velocity
  paths and the ``--jobs`` thread pool.
"""

from __future__ import annotations

import contextlib
import io
import math
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import bscahn  # noqa: E402
from bscahn import assembly, cli, config, elliptic, mesh, output, stepper, velocity  # noqa: E402
from bscahn.assembly import BulkSurfacePair, CouplingParams  # noqa: E402
from bscahn.potentials import PotentialSpec, YosidaParams  # noqa: E402

if Path(bscahn.__file__).resolve().parent != SRC / "bscahn":
    raise ImportError(f"bscahn was imported from {bscahn.__file__}, not from {SRC}")

MASS_TOL = 1e-9  # relative weighted-mass drift allowed over a trajectory
DT = 1e-3
LAMBDA = 1e-3
ALPHA, BETA = 0.5, 2.0
DATA_MEAN, DATA_AMPLITUDE = 0.05, 0.3
REGIMES = tuple(product((0.0, 1.0, math.inf), repeat=2))
STREAM = velocity.StreamFunctionVelocity(amplitude=1.0, profile="sine2")


@dataclass
class PassResult:
    """Timings, gate outcomes and deterministic counters of one pass."""

    seconds: float = 0.0
    step_samples: list = field(default_factory=list)
    newton_iters: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)

    def check(self, ok: bool, message: str) -> None:
        """Count one checked operation; record it as failed unless ok."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(message)


def _coupling(K: float, L: float) -> CouplingParams:
    return CouplingParams(K=K, L=L, alpha=ALPHA, beta=BETA)


def _stepper_config(K: float, L: float) -> stepper.StepperConfig:
    return stepper.StepperConfig(
        dt=DT,
        cp=_coupling(K, L),
        pot=PotentialSpec(),
        yp=YosidaParams(lam=LAMBDA),
        mobility=stepper.ConstantMobility(),
    )


def _admissible_random(grid, cp: CouplingParams, rng) -> BulkSurfacePair:
    pair = BulkSurfacePair(
        DATA_MEAN + DATA_AMPLITUDE * rng.uniform(-1.0, 1.0, grid.num_nodes),
        DATA_MEAN + DATA_AMPLITUDE * rng.uniform(-1.0, 1.0, grid.num_surface_nodes),
    )
    if cp.K == 0.0:
        pair.bulk[grid.surface_nodes] = cp.alpha * pair.surf
    return pair


def _mass_drift(rows, infinite_L: bool) -> list[str]:
    """Columns whose relative drift from the first row exceeds MASS_TOL."""
    columns = ["mass_weighted"] + (["mass_bulk", "mass_surf"] if infinite_L else [])
    out = []
    for col in columns:
        first = float(rows[0][col])
        drift = max(abs(float(r[col]) - first) for r in rows)
        if drift > MASS_TOL * (1.0 + abs(first)):
            out.append(f"{col} drift {drift:.3e}")
    return out


def _failure(label: str, exc: BaseException) -> str:
    return f"{label}: {type(exc).__name__}: {exc}"


def _trajectory(result: PassResult, label: str, ts, initial, steps: int) -> None:
    """One TimeStepper.run; each step is timed between observer callbacks.

    The first step shares its interval with the initial projection inside
    run(), so it gives no step sample.
    """
    stamps: list[float] = []
    start = time.perf_counter()
    try:
        traj = ts.run(initial, STREAM, steps * ts.cfg.dt,
                      observers=(lambda state, info: stamps.append(time.perf_counter()),))
    except Exception as exc:  # any raise is a failed operation, not a crash
        result.seconds += time.perf_counter() - start
        result.check(False, _failure(label, exc))
        return
    result.seconds += time.perf_counter() - start
    result.step_samples.extend(np.diff(stamps).tolist())
    done = len(traj.rows) - 1
    result.attempted += done
    if traj.failure is not None:
        result.check(False, f"{label}: StepError at step {traj.failure['step']}: "
                            f"{traj.failure['error']}")
    iters = sum(int(r["newton_iters"]) for r in traj.rows)
    result.newton_iters += iters
    result.counters[f"{label}.newton_iters"] = iters
    drift = _mass_drift(traj.rows, math.isinf(ts.cfg.cp.L))
    result.check(not drift, f"{label}: " + "; ".join(drift))


class Workload:
    """Base class: inputs from a seed, a set-up, and a repeatable pass."""

    name = ""
    why = ""

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def close(self) -> None:
        """Remove anything the workload wrote."""


class SweepN8(Workload):
    """All nine (K, L) regimes at n = 8, each with its own TimeStepper."""

    name = "sweep_n8"
    why = ("9 (K,L) regimes at n=8: Python overhead, COO/bmat rebuilds and the "
           "resolvent dominate; shows quad_*, weighted_mass, resolvent, stepper.step, "
           "convection_load, energy")
    n = 8

    def __init__(self, seed: int, steps: int = 20):
        self.steps = steps
        grid = mesh.generate_unit_square(self.n)
        rng = np.random.default_rng(seed)
        self.initial = {kl: _admissible_random(grid, _coupling(*kl), rng) for kl in REGIMES}

    def setup(self) -> None:
        ops = assembly.assemble(mesh.generate_unit_square(self.n))
        self.steppers = {kl: stepper.TimeStepper(ops, _stepper_config(*kl)) for kl in REGIMES}

    def run_pass(self) -> PassResult:
        result = PassResult()
        for (K, L), ts in self.steppers.items():
            _trajectory(result, f"K={K:g},L={L:g}", ts, self.initial[(K, L)], self.steps)
        return result


class FineN64(Workload):
    """One K = L = 1 convective trajectory at n = 64 (8962 unknowns)."""

    name = "fine_n64"
    why = ("one K=L=1 trajectory at n=64, 8962 unknowns: the sparse factor and solve "
           "dominate; shows stepper.linear_solve, mesh and assemble; control for "
           "per-call overhead")
    n = 64
    steps = 25

    def __init__(self, seed: int):
        grid = mesh.generate_unit_square(self.n)
        self.initial = _admissible_random(grid, _coupling(1.0, 1.0), np.random.default_rng(seed))

    def setup(self) -> None:
        ops = assembly.assemble(mesh.generate_unit_square(self.n))
        self.stepper = stepper.TimeStepper(ops, _stepper_config(1.0, 1.0))

    def run_pass(self) -> PassResult:
        result = PassResult()
        _trajectory(result, "K=1,L=1", self.stepper, self.initial, self.steps)
        return result


class EllipticN32(Workload):
    """Continuation to the singular problem plus a contraction solve, n = 32.

    The right-hand side is a smooth cos(pi x) cos(pi y) bump scaled so the
    continuation nearly separates (separation about 1e-2, with resolvent
    points on the saturated branch in about one draw in four) while its
    Cauchy tail still certifies with margin, plus seeded Gaussian noise.  An
    i.i.d. Gaussian right-hand side would make the work per seed vary
    twofold, because near-separation is then a rare-tail event.  Each pass
    solves several draws, each from freshly assembled operators, so the
    contraction factorization is paid per draw as every bscahn invocation
    pays it.
    """

    name = "elliptic_n32"
    why = ("solve_singular 1e-1..1e-5 plus a contraction solve at n=32, no time loop: "
           "SPD Newton, cached factorization, near-saturated resolvent; shows "
           "elliptic.*, resolvent")
    n = 32
    draws = 6
    bump, noise = 10.75, 0.5
    shifted_lam = 0.1
    cp = _coupling(1.0, 1.0)
    pot = PotentialSpec()

    def __init__(self, seed: int, draws: int | None = None):
        grid = mesh.generate_unit_square(self.n)
        x, y = grid.nodes[:, 0], grid.nodes[:, 1]
        shape = np.cos(np.pi * x) * np.cos(np.pi * y)
        rng = np.random.default_rng(seed)
        self.rhs = [
            BulkSurfacePair(
                self.bump * shape + self.noise * rng.standard_normal(grid.num_nodes),
                self.bump * shape[grid.surface_nodes]
                + self.noise * rng.standard_normal(grid.num_surface_nodes),
            )
            for _ in range(draws or self.draws)
        ]

    def setup(self) -> None:
        self.mesh = mesh.generate_unit_square(self.n)

    def run_pass(self) -> PassResult:
        result = PassResult()
        for i, rhs in enumerate(self.rhs):
            label = f"draw{i}"
            start = time.perf_counter()
            ops = assembly.assemble(self.mesh)
            solve_start = time.perf_counter()
            try:
                sol = elliptic.solve_singular(rhs, ops, self.cp, self.pot)
            except Exception as exc:
                result.seconds += time.perf_counter() - start
                result.check(False, _failure(f"{label} solve_singular", exc))
                continue
            continuation_s = time.perf_counter() - solve_start
            try:
                prob = elliptic.EllipticProblem(
                    ops=ops, cp=self.cp, pot=self.pot,
                    yp=YosidaParams(lam=self.shifted_lam), rhs=rhs,
                )
                shifted = elliptic.solve_shifted_regularized(prob, use_newton=False)
            except Exception as exc:
                result.seconds += time.perf_counter() - start
                result.check(False, _failure(f"{label} solve_shifted_regularized", exc))
                continue
            result.seconds += time.perf_counter() - start
            tail = sol.extras["h1_differences"][-1]
            result.check(tail <= 1e-3, f"{label}: continuation tail {tail:.3e} not certified")
            result.check(math.isfinite(shifted.residual_norm),
                         f"{label}: contraction residual {shifted.residual_norm}")
            result.newton_iters += sol.iterations
            result.step_samples.append(continuation_s / max(sol.iterations, 1))
            result.counters[f"{label}.newton_iters"] = sol.iterations
            result.counters[f"{label}.fp_iterations"] = shifted.extras["fp_iterations"]
            result.counters[f"{label}.separation"] = repr(sol.extras["separation"])
        return result


SIMULATE_CONFIG = """\
# cli_runs: quadratic mobility, sine2 stream with a mollified sine envelope
[mesh]
n = 16

[coupling]
K = 1
L = 1
alpha = 0.5
beta = 2

[time]
lambda = 1e-3
dt = 1e-3
t_end = 0.03

[mobility]
kind = quadratic

[initial]
kind = random
mean = 0.05
amplitude = 0.3

[velocity]
kind = stream
profile = sine2
amplitude = 1
envelope = sine
omega = 50
mollify = 0.01
"""


class CliRuns(Workload):
    """``bscahn simulate`` and ``bscahn study regimes`` through cli.main."""

    name = "cli_runs"
    why = ("cli.main simulate (n=16, quadratic mobility, mollified envelope) and study "
           "regimes at default --jobs: the only reach of config, output, diagnostics, "
           "envelope, weighted_stiffness")
    outputs = ("simulate/diagnostics.csv", "simulate/field_final.txt",
               "study/study_regimes.csv")

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        workdir.mkdir(parents=True, exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="cli_runs-", dir=workdir))
        self.config_path = self.workdir / "simulate.cfg"
        self.config_path.write_text(SIMULATE_CONFIG, encoding="utf-8")
        self.regimes_config = ROOT / "configs" / "regimes.cfg"
        self.reference: dict[str, bytes] | None = None

    def setup(self) -> None:
        data = config.parse_config(str(self.config_path))
        config.build_setup(data, out_dir=str(self.workdir / "setup"), seed=self.seed)

    def _main(self, result: PassResult, argv: list[str]) -> tuple[int | None, float, str]:
        captured = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                code = cli.main(argv)
        except Exception as exc:
            code = None
            captured.write(_failure(argv[0], exc))
        elapsed = time.perf_counter() - start
        result.seconds += elapsed
        text = captured.getvalue().strip()
        result.check(code == 0, f"{' '.join(argv[:2])}: exit {code}: {text}")
        return code, elapsed, text

    def run_pass(self) -> PassResult:
        result = PassResult()
        out = Path(tempfile.mkdtemp(prefix="pass-", dir=self.workdir))
        try:
            seed = str(self.seed)
            _, sim_s, _ = self._main(result, [
                "simulate", "--config", str(self.config_path),
                "--out", str(out / "simulate"), "--seed", seed,
            ])
            self._main(result, [
                "study", "regimes", "--config", str(self.regimes_config),
                "--out", str(out / "study"), "--seed", seed,
            ])
            produced = {}
            for rel in self.outputs:
                path = out / rel
                produced[rel] = path.read_bytes() if path.exists() else b""
                result.counters[f"{rel}.bytes"] = len(produced[rel])
            if self.reference is None:
                self.reference = produced
            for rel in self.outputs:
                result.check(produced[rel] != b"" and produced[rel] == self.reference[rel],
                             f"{rel} missing or not byte-identical to the first pass")
            csv_path = out / "simulate" / "diagnostics.csv"
            if csv_path.exists():
                _, rows = output.read_csv(str(csv_path))
                drift = _mass_drift(rows, infinite_L=False)
                result.check(not drift, "simulate: " + "; ".join(drift))
                iters = sum(int(r["newton_iters"]) for r in rows)
                result.newton_iters = iters
                result.counters["simulate.newton_iters"] = iters
                if len(rows) > 1:
                    result.step_samples.append(sim_s / (len(rows) - 1))
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return result

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (SweepN8, FineN64, EllipticN32, CliRuns)}


def make(name: str, seed: int, workdir: Path) -> Workload:
    """Build the named workload's inputs from the seed."""
    if name == CliRuns.name:
        return CliRuns(seed, workdir)
    return WORKLOADS[name](seed)

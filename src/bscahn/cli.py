"""Command-line front end: mesh building, simulation runs, elliptic solves,
verification studies, and SVG plotting.

Exit codes: 0 success/PASS, 1 configuration or validation error, 2 solver
failure, 3 study FAIL.  Errors print a single machine-parsable line
`error: <code>: <message>` on stderr.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import diagnostics as dg
from . import output
from .assembly import BulkSurfacePair, SolverFailure
from .config import ConfigError, build_setup, parse_config, _float_list, _get
from .elliptic import solve_singular
from .mesh import save_mesh
from .stepper import DIAGNOSTIC_COLUMNS, TimeStepper

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_STUDY_FAIL = 3

_SCHEDULE = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)  # default regularization continuation


def _fail(code: int, message: str) -> int:
    label = {EXIT_CONFIG: "config", EXIT_SOLVER: "solver", EXIT_STUDY_FAIL: "study"}[code]
    print(f"error: {label}: {message}", file=sys.stderr)
    return code


def _ensure_outdir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _list(data, section, key, default):
    return _get(data, section, key, default, cast=_float_list)


# -- commands --------------------------------------------------------------------


def cmd_mesh(args) -> int:
    data = parse_config(args.config)
    setup = build_setup(data, out_dir=args.out, seed=args.seed)
    out = _ensure_outdir(setup.out_dir)
    path = os.path.join(out, "mesh.txt")
    save_mesh(setup.mesh, path)
    areas = setup.mesh.triangle_areas()
    print(
        f"mesh: {setup.mesh.num_nodes} nodes, {setup.mesh.num_triangles} triangles, "
        f"{setup.mesh.num_surface_nodes} surface nodes, perimeter {setup.mesh.perimeter:g}, "
        f"area {areas.sum():.12g} -> {path}"
    )
    return EXIT_OK


def cmd_simulate(args) -> int:
    data = parse_config(args.config)
    setup = build_setup(data, out_dir=args.out, seed=args.seed)
    out = _ensure_outdir(setup.out_dir)
    stepper = TimeStepper(setup.ops, setup.cfg)
    traj = stepper.run(setup.initial, setup.field, setup.t_end)
    csv_path = os.path.join(out, "diagnostics.csv")
    output.write_csv(csv_path, DIAGNOSTIC_COLUMNS, traj.rows)
    output.write_field_snapshot(
        os.path.join(out, "field_final.txt"), setup.mesh, traj.final.phi_psi
    )
    output.write_meta(
        os.path.join(out, "run_meta.txt"),
        {"command": "simulate", "config": args.config, "seed": setup.seed,
         "steps": len(traj.states) - 1},
    )
    if traj.failure:
        return _fail(EXIT_SOLVER, f"step {traj.failure['step']}: {traj.failure['error']}")
    sep = dg.separation_report(traj)
    flag = "" if sep.warning is None else f" WARNING {sep.warning}"
    print(
        f"simulate: {len(traj.states) - 1} steps to t = {traj.final.t:g}, "
        f"separation ({sep.delta_bulk:.3g}, {sep.delta_surf:.3g}){flag} -> {csv_path}"
    )
    return EXIT_OK


def _elliptic_rhs(data, setup) -> BulkSurfacePair:
    kind = data.get("elliptic", {}).get("rhs_kind", "random")
    scale = _get(data, "elliptic", "rhs_scale", 1.0)
    if kind == "random":
        rng = np.random.default_rng(setup.seed)
        return BulkSurfacePair(
            scale * rng.standard_normal(setup.ops.n_bulk),
            scale * rng.standard_normal(setup.ops.n_surf),
        )
    if kind == "constant":
        value = _get(data, "elliptic", "rhs_value", 0.0)
        return setup.ops.constant_pair(value, value)
    if kind == "file":
        path = data.get("elliptic", {}).get("rhs_path")
        if not path:
            raise ConfigError("elliptic rhs_kind = file needs rhs_path")
        return output.read_field_snapshot(path, setup.mesh) * scale
    raise ConfigError(f"unknown elliptic rhs kind {kind!r}")


def cmd_elliptic(args) -> int:
    data = parse_config(args.config)
    setup = build_setup(data, out_dir=args.out, seed=args.seed)
    if math.isinf(setup.cfg.cp.K):
        return _fail(EXIT_CONFIG, "elliptic solves require K in [0, inf)")
    out = _ensure_outdir(setup.out_dir)
    schedule = _list(data, "elliptic", "schedule", _SCHEDULE)
    cauchy_tol = _get(data, "elliptic", "cauchy_tol", 1e-3)
    rhs = _elliptic_rhs(data, setup)
    sol = solve_singular(
        rhs, setup.ops, setup.cfg.cp, setup.cfg.pot, schedule=schedule, cauchy_tol=cauchy_tol
    )
    rows = [
        {"lam": schedule[i + 1], "h1_difference": d}
        for i, d in enumerate(sol.extras["h1_differences"])
    ]
    csv_path = os.path.join(out, "elliptic.csv")
    output.write_csv(csv_path, ["lam", "h1_difference"], rows)
    output.write_field_snapshot(os.path.join(out, "elliptic_solution.txt"), setup.mesh, sol.uv)
    output.write_meta(
        os.path.join(out, "run_meta.txt"),
        {"command": "elliptic", "config": args.config, "seed": setup.seed},
    )
    print(
        f"elliptic: residual {sol.residual_norm:.3e}, separation "
        f"{sol.extras['separation']:.4g}, tail {sol.extras['h1_differences'][-1]:.3e} "
        f"-> {csv_path}"
    )
    return EXIT_OK


def _study_yosida(data, setup):
    kind = data.get("study", {}).get("yosida_kind", "elliptic")
    default = _list(data, "elliptic", "schedule", _SCHEDULE)
    schedule = _list(data, "study", "yosida_schedule", default)
    rhs = _elliptic_rhs(data, setup) if kind == "elliptic" else None
    return dg.yosida_convergence_study(
        kind, setup.ops, setup.cfg, schedule, rhs=rhs,
        field_=setup.field, initial=setup.initial, t_end=setup.t_end,
    )


def _study_contdep(data, setup):
    eps = _list(data, "study", "contdep_eps", (2e-3, 1e-3, 0.0))
    return dg.continuous_dependence_experiment(
        setup.ops, setup.cfg, setup.field, setup.initial, setup.t_end,
        [(e, 0.0) for e in eps], seed=setup.seed,
    )


def _study_strong(data, setup):
    return dg.strong_estimate_monitor(
        setup.ops, setup.cfg, setup.field, setup.initial, setup.t_end,
        amplitudes=_list(data, "study", "strong_amplitudes", (0.0, 0.5, 1.0, 2.0)),
    )


def _study_regimes(data, setup):
    return dg.regime_interpolation_study(
        setup.ops, setup.cfg, setup.field, setup.initial, setup.t_end,
        toward_zero=_list(data, "study", "regime_zero", (1.0, 0.1, 0.01)),
        toward_inf=_list(data, "study", "regime_inf", (1.0, 10.0, 100.0)),
    )


_STUDIES = {
    "yosida": _study_yosida,
    "contdep": _study_contdep,
    "strong": _study_strong,
    "regimes": _study_regimes,
}


def cmd_study(args) -> int:
    data = parse_config(args.config)
    setup = build_setup(data, out_dir=args.out, seed=args.seed)
    res = _STUDIES[args.kind](data, setup)
    out = _ensure_outdir(setup.out_dir)
    csv_path = os.path.join(out, f"study_{args.kind}.csv")
    output.write_csv(csv_path, res.columns, res.rows)
    output.write_meta(
        os.path.join(out, "run_meta.txt"),
        {"command": f"study {args.kind}", "config": args.config, "seed": setup.seed},
    )
    if res.passed:
        print(f"PASS {res.name} -> {csv_path}")
        return EXIT_OK
    print(f"FAIL {res.name}: {res.reason} -> {csv_path}")
    return EXIT_STUDY_FAIL


def cmd_plot(args) -> int:
    columns, rows = output.read_csv(args.csv)
    wanted = [c.strip() for c in args.columns.split(",") if c.strip()]
    output.write_svg_plot(args.out_svg, columns, rows, wanted)
    print(f"plot: {len(rows)} rows, columns {wanted} -> {args.out_svg}")
    return EXIT_OK


# -- argument parsing ----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bscahn",
        description="Bulk-surface Cahn-Hilliard simulator and verification studies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="path to the run configuration")
        p.add_argument("--out", default=None, help="output directory (overrides [output] dir)")
        p.add_argument("--seed", type=int, default=None, help="overrides [run] seed")

    common(sub.add_parser("mesh", help="build and save the mesh"))
    common(sub.add_parser("simulate", help="run the time stepper, emit diagnostics CSV"))
    common(sub.add_parser("elliptic", help="continuation solve of the stationary system"))
    p_study = sub.add_parser("study", help="run a verification study")
    p_study.add_argument("kind", choices=sorted(_STUDIES))
    common(p_study)
    p_plot = sub.add_parser("plot", help="render CSV columns as an SVG line plot")
    p_plot.add_argument("csv", help="input CSV path")
    p_plot.add_argument("columns", help="comma-separated columns, x first")
    p_plot.add_argument("out_svg", help="output SVG path")
    return parser


_COMMANDS = {
    "mesh": cmd_mesh,
    "simulate": cmd_simulate,
    "elliptic": cmd_elliptic,
    "study": cmd_study,
    "plot": cmd_plot,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except SolverFailure as exc:
        return _fail(EXIT_SOLVER, str(exc))
    except (ValueError, FileNotFoundError) as exc:  # ConfigError and MeshError too
        return _fail(EXIT_CONFIG, str(exc))


if __name__ == "__main__":
    sys.exit(main())

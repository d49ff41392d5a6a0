import os
import re
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from bscahn import cli
from bscahn.assembly import SolverError, SolverFailure, assemble
from bscahn.diagnostics import StudyRunError
from bscahn.elliptic import EllipticSolveError
from bscahn.potentials import ResolventError
from bscahn.stepper import StepError
from bscahn.config import ConfigError, build_setup, parse_config_text
from bscahn.output import read_csv, read_field_snapshot, write_csv, write_field_snapshot

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def run_cli(*argv):
    return cli.main(list(argv))


def cfg_path(name):
    return os.path.join(CONFIG_DIR, name)


def edited_config(name, edits):
    """Text of configs/<name> with the {(section, key): value} edits applied."""
    section, out = None, []
    with open(cfg_path(name)) as fh:
        for line in fh.read().splitlines():
            stripped = line.strip()
            if stripped.startswith("["):
                section = stripped[1:-1]
            elif "=" in stripped and not stripped.startswith("#"):
                key = stripped.split("=", 1)[0].strip()
                if (section, key) in edits:
                    line = f"{key} = {edits[(section, key)]}"
            out.append(line)
    return "\n".join(out) + "\n"


class TestConfigParsing:
    def test_unknown_key_is_a_hard_error(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("[mesh]\nn = 4\nbogus = 1\n")

    def test_unknown_section_is_a_hard_error(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config_text("[nonsense]\nx = 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("[mesh]\nn = 4\nn = 8\n")

    def test_comments_and_blank_lines_ignored(self):
        data = parse_config_text("# top\n\n[mesh]\nn = 4  # inline\n")
        assert data["mesh"]["n"] == "4"

    def test_key_outside_section_rejected(self):
        with pytest.raises(ConfigError, match="outside"):
            parse_config_text("n = 4\n")

    def test_extended_coupling_values(self):
        data = parse_config_text(
            "[mesh]\nn = 2\n[coupling]\nK = inf\nL = 0\nalpha = 0.5\nbeta = 2\n"
            "[initial]\nkind = constant\nvalue_bulk = 0\n"
        )
        setup = build_setup(data)
        assert setup.cfg.cp.K == float("inf")
        assert setup.cfg.cp.L == 0.0

    def test_inadmissible_random_band_rejected(self):
        data = parse_config_text(
            "[mesh]\nn = 2\n[initial]\nkind = random\nmean = 0.8\namplitude = 0.4\n"
        )
        with pytest.raises(ConfigError, match="exceeds 1"):
            build_setup(data)

    def test_trace_incompatible_velocity_rejected(self):
        data = parse_config_text(
            "[mesh]\nn = 2\n[coupling]\nK = 0\nL = 1\nalpha = 1\nbeta = 1\n"
            "[velocity]\nkind = stream\nprofile = sine\n"
            "[initial]\nkind = constant\nvalue_bulk = 0\n"
        )
        with pytest.raises(ConfigError, match="trace"):
            build_setup(data)

    def test_trace_compatible_profile_accepted(self):
        data = parse_config_text(
            "[mesh]\nn = 2\n[coupling]\nK = 0\nL = 1\nalpha = 1\nbeta = 1\n"
            "[velocity]\nkind = stream\nprofile = sine2\n"
            "[initial]\nkind = constant\nvalue_bulk = 0\n"
        )
        setup = build_setup(data)
        assert setup.field.trace_matches_surface

    def test_distinct_surface_potential_parameters(self):
        data = parse_config_text(
            "[mesh]\nn = 2\n[potentials]\ntheta = 0.8\ntheta_c = 1.6\n"
            "theta_surf = 0.4\ntheta_c_surf = 1.2\n"
            "[initial]\nkind = constant\nvalue_bulk = 0\n"
        )
        setup = build_setup(data)
        assert setup.cfg.pot.theta_surf == 0.4
        assert setup.cfg.pot.theta_c_surf == 1.2

    def test_zero_surface_temperature_is_explicit(self):
        data = parse_config_text(
            "[mesh]\nn = 2\n[potentials]\ntheta = 0.8\ntheta_c = 1.6\n"
            "theta_surf = 0\ntheta_c_surf = 1.2\n"
            "[initial]\nkind = constant\nvalue_bulk = 0\n"
        )
        setup = build_setup(data)
        assert setup.cfg.pot.theta_surf == 0.0

    def test_bubble_initial_respects_band(self):
        data = parse_config_text(
            "[mesh]\nn = 4\n[initial]\nkind = bubble\nradius = 0.3\nsharpness = 0.1\n"
        )
        setup = build_setup(data)
        assert setup.initial.max_abs() <= 1.0


class TestCommands:
    def test_mesh_command(self, tmp_path):
        out = tmp_path / "m"
        assert run_cli("mesh", "--config", cfg_path("steady.cfg"), "--out", str(out)) == 0
        assert (out / "mesh.txt").exists()

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_mesh_coordinate_is_one_config_error(self, token, tmp_path, capsys):
        mesh = tmp_path / "square.txt"
        mesh.write_text(f"bsmesh 1\n4 2\n0 0\n1 0\n{token} 1\n0 1\n0 1 2\n0 2 3\n")
        cfg = tmp_path / "square.cfg"
        cfg.write_text(f"[mesh]\npath = {mesh}\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli("mesh", "--config", str(cfg), "--out", str(tmp_path / "m"))
        assert code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: config:")
        assert "line 5, column 1: bad coordinate" in lines[0]
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("corner,area", [("1e308 0", "inf"), ("-1e308 0", "-inf")])
    def test_overflowing_triangle_area_is_one_config_error(self, corner, area, tmp_path, capsys):
        # finite coordinates whose signed area overflows
        mesh = tmp_path / "square.txt"
        mesh.write_text(f"bsmesh 1\n4 2\n0 0\n{corner}\n1e308 1e308\n0 1e308\n0 1 2\n0 2 3\n")
        cfg = tmp_path / "square.cfg"
        cfg.write_text(f"[mesh]\npath = {mesh}\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli("mesh", "--config", str(cfg), "--out", str(tmp_path / "m"))
        assert code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: config:")
        assert lines[0].endswith(f"triangle 0 has non-finite signed area {area}")
        assert [str(w.message) for w in caught] == []

    def test_overflowing_edge_length_is_one_config_error(self, tmp_path, capsys):
        # a 1e200 by 1e-200 rectangle: finite areas of 0.5, overflowing edge norms
        mesh = tmp_path / "rectangle.txt"
        mesh.write_text("bsmesh 1\n4 2\n0 0\n1e200 0\n1e200 1e-200\n0 1e-200\n0 1 2\n0 2 3\n")
        cfg = tmp_path / "rectangle.cfg"
        cfg.write_text(f"[mesh]\npath = {mesh}\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli("mesh", "--config", str(cfg), "--out", str(tmp_path / "m"))
        assert code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: config:")
        assert lines[0].endswith("boundary edge (0, 1) has non-finite length inf")
        assert [str(w.message) for w in caught] == []

    def test_regimes_study_leaves_the_shared_operators_as_built(self, tmp_path, monkeypatch):
        # the (sig, weight) form and coupling matrices and the prolongators
        # are built once per operator set and shared by every stepper of the
        # study; none of them may be changed in place
        setups = []

        def recording(*args, **kwargs):
            setups.append(build_setup(*args, **kwargs))
            return setups[-1]

        monkeypatch.setattr(cli, "build_setup", recording)
        assert run_cli("study", "regimes", "--config", cfg_path("regimes.cfg"),
                       "--out", str(tmp_path / "r")) == 0
        ops = setups[0].ops
        fresh = assemble(ops.mesh)
        shared = [key for key in ops._cache
                  if key[0] in ("form_matrix", "coupling_matrix", "prol")]
        assert {key[0] for key in shared} == {"form_matrix", "coupling_matrix", "prol"}
        for name, *args in shared:
            if name == "prol":
                name = "prolongator"
            a, b = getattr(ops, name)(*args), getattr(fresh, name)(*args)
            assert a.format == b.format
            for attr in ("data", "indices", "indptr"):
                assert getattr(a, attr).tobytes() == getattr(b, attr).tobytes(), (name, attr)

    def test_steady_simulation_energy_constant(self, tmp_path, capsys):
        out = tmp_path / "s"
        code = run_cli("simulate", "--config", cfg_path("steady.cfg"), "--out", str(out))
        assert code == 0
        _, rows = read_csv(str(out / "diagnostics.csv"))
        energies = [float(r["energy_total"]) for r in rows]
        assert max(energies) - min(energies) <= 1e-12 * (1 + abs(energies[0]))

    def test_diagnostics_csv_schema(self, tmp_path):
        out = tmp_path / "s2"
        run_cli("simulate", "--config", cfg_path("steady.cfg"), "--out", str(out))
        header = (out / "diagnostics.csv").read_text().split("\n", 1)[0]
        assert header == (
            "step,t,mass_bulk,mass_surf,mass_weighted,energy_total,energy_grad_bulk,"
            "energy_grad_surf,energy_pot_bulk,energy_pot_surf,energy_coupling,"
            "dissipation,balance_residual,max_abs_phi,max_abs_psi,newton_iters"
        )

    def test_elliptic_command(self, tmp_path):
        out = tmp_path / "e"
        assert run_cli("elliptic", "--config", cfg_path("elliptic.cfg"), "--out", str(out)) == 0
        _, rows = read_csv(str(out / "elliptic.csv"))
        diffs = [float(r["h1_difference"]) for r in rows]
        assert all(b < a for a, b in zip(diffs, diffs[1:]))

    def test_study_yosida_passes(self, tmp_path, capsys):
        out = tmp_path / "y"
        code = run_cli("study", "yosida", "--config", cfg_path("elliptic.cfg"), "--out", str(out))
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_study_regimes_passes(self, tmp_path):
        out = tmp_path / "r"
        code = run_cli(
            "study", "regimes", "--config", cfg_path("regimes.cfg"), "--out", str(out),
        )
        assert code == 0

    def test_study_regimes_runs_each_distinct_coupling_once(self, tmp_path, monkeypatch):
        # K in {0, inf, 1, 0.1, 0.01, 10, 100} at L = 1, then L in
        # {0, inf, 0.1, 0.01, 10, 100} at K = 1: (1, 1) is shared
        from bscahn.stepper import TimeStepper

        runs = []
        run = TimeStepper.run

        def counting(self, *args, **kwargs):
            runs.append((self.cfg.cp.K, self.cfg.cp.L))
            return run(self, *args, **kwargs)

        monkeypatch.setattr(TimeStepper, "run", counting)
        assert run_cli("study", "regimes", "--config", cfg_path("regimes.cfg"),
                       "--out", str(tmp_path / "r")) == 0
        assert len(runs) == 13
        assert len(set(runs)) == 13

    def test_misspelled_yosida_kind_is_one_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "typo.cfg"
        with open(cfg_path("elliptic.cfg")) as fh:
            cfg.write_text(fh.read() + "[study]\nyosida_kind = elliptc\n")
        code = run_cli("study", "yosida", "--config", str(cfg), "--out", str(tmp_path / "y"))
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["error: config: unknown study kind 'elliptc'"]
        assert "PASS" not in captured.out

    def test_one_value_elliptic_schedule_is_one_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "one.cfg"
        with open(cfg_path("steady.cfg")) as fh:
            cfg.write_text(fh.read() + "[elliptic]\nschedule = 0.1\n")
        code = run_cli("elliptic", "--config", str(cfg), "--out", str(tmp_path / "e"))
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: config: schedule needs at least two values for a Cauchy tail, got [0.1]"
        ]

    @pytest.mark.parametrize("kind, config, edits, message", [
        ("yosida", "elliptic.cfg", {("elliptic", "schedule"): "0.1"},
         "yosida convergence needs at least 3 regularization parameters, got 1"),
        ("yosida", "elliptic.cfg", {("elliptic", "schedule"): "1e-1 1e-2"},
         "yosida convergence needs at least 3 regularization parameters, got 2"),
        ("contdep", "contdep.cfg", {("study", "contdep_eps"): "1e-3 0"},
         "continuous dependence needs at least 2 data-only perturbations, got 1"),
        ("regimes", "regimes.cfg", {("study", "regime_zero"): ""},
         "regime interpolation needs at least 2 coupling values toward zero, got 0"),
        ("regimes", "regimes.cfg", {("study", "regime_zero"): "0.01"},
         "regime interpolation needs at least 2 coupling values toward zero, got 1"),
        ("regimes", "regimes.cfg", {("study", "regime_inf"): ""},
         "regime interpolation needs at least 2 coupling values toward inf, got 0"),
        ("regimes", "regimes.cfg", {("study", "regime_inf"): "100"},
         "regime interpolation needs at least 2 coupling values toward inf, got 1"),
        ("strong", "strong.cfg", {("study", "strong_amplitudes"): "1"},
         "strong estimate needs at least 2 velocity amplitudes, got 1"),
    ], ids=["yosida", "yosida-two", "contdep", "regimes-zero", "regimes-zero-one",
            "regimes-inf", "regimes-inf-one", "strong"])
    def test_study_without_evidence_for_its_verdict_is_one_config_error(
        self, kind, config, edits, message, tmp_path, capsys, monkeypatch
    ):
        from bscahn import elliptic
        from bscahn.stepper import TimeStepper

        def no_solve(*args, **kwargs):
            raise AssertionError("a study without evidence made a solve")

        monkeypatch.setattr(TimeStepper, "run", no_solve)
        monkeypatch.setattr(elliptic, "solve_regularized", no_solve)
        text = edited_config(config, edits)
        for (section, key), value in edits.items():
            if f"[{section}]" not in text:
                text += f"[{section}]\n{key} = {value}\n"
        cfg = tmp_path / config
        cfg.write_text(text)
        code = run_cli("study", kind, "--config", str(cfg), "--out", str(tmp_path / kind))
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: config: {message}"]
        assert "PASS" not in captured.out

    @pytest.mark.parametrize("key", ["dt", "t_end"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_time_setting_is_one_config_error(self, key, value, tmp_path, capsys):
        cfg = tmp_path / "time.cfg"
        cfg.write_text(edited_config("simulate.cfg", {("time", key): value}))
        code = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "s"))
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: config: need finite 0 < dt <= t_end")
        assert "dt=" in lines[0] and "t_end=" in lines[0]

    def test_end_time_off_the_step_grid_is_one_config_error(self, tmp_path, capsys):
        # a run takes round(t_end / dt) steps, so 1.4 steps would end at 1e-3
        cfg = tmp_path / "time.cfg"
        cfg.write_text(edited_config("simulate.cfg", {("time", "dt"): "1e-3",
                                                      ("time", "t_end"): "1.4e-3"}))
        code = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "s"))
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: config: t_end=0.0014 is not a whole number of steps of dt=0.001"
        ]
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("edits", [
        {("velocity", "amplitude"): "nan"},
        {("velocity", "amplitude"): "inf"},
        {("velocity", "mollify"): "inf"},
        {("velocity", "envelope"): "sine", ("velocity", "omega"): "inf"},
        {("potentials", "kappa1"): "nan"},
        {("potentials", "theta_c_surf"): "inf"},
    ], ids=["amplitude-nan", "amplitude-inf", "mollify-inf", "omega-inf", "kappa1-nan",
            "theta_c_surf-inf"])
    def test_non_finite_float_setting_is_one_config_error(self, edits, tmp_path, capsys):
        text = edited_config("simulate.cfg", edits)
        for (section, key), value in edits.items():
            if f"{key} = {value}" not in text:
                text += f"[{section}]\n{key} = {value}\n"
        cfg = tmp_path / "finite.cfg"
        cfg.write_text(text)
        code = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "s"))
        assert code == 1
        (section, key), value = list(edits.items())[-1]
        assert capsys.readouterr().err.splitlines() == [
            f"error: config: bad value {value!r} for [{section}] {key}"
        ]

    @pytest.mark.parametrize("command, config, section, key, value", [
        (("study", "strong"), "strong.cfg", "study", "strong_amplitudes", "1 inf"),
        (("study", "contdep"), "contdep.cfg", "study", "contdep_eps", "1e-3 5e-4 nan"),
        (("elliptic",), "elliptic.cfg", "elliptic", "schedule", "1e-1 nan"),
    ], ids=["strong_amplitudes", "contdep_eps", "schedule"])
    def test_non_finite_list_value_is_one_config_error(
        self, command, config, section, key, value, tmp_path, capsys
    ):
        cfg = tmp_path / config
        cfg.write_text(edited_config(config, {(section, key): value}))
        code = run_cli(*command, "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: config: bad value {value!r} for [{section}] {key}"
        ]

    @pytest.mark.parametrize("value, message", [
        ("-1", "need finite cauchy_tol > 0, got -1"),
        ("0", "need finite cauchy_tol > 0, got 0"),
        ("nan", "bad value 'nan' for [elliptic] cauchy_tol"),
        ("inf", "bad value 'inf' for [elliptic] cauchy_tol"),
    ], ids=["negative", "zero", "nan", "inf"])
    def test_cauchy_tolerance_outside_its_range_is_one_config_error(
        self, value, message, tmp_path, capsys, monkeypatch
    ):
        from bscahn import elliptic

        def no_solve(*args, **kwargs):
            raise AssertionError("an unusable Cauchy tolerance reached a solve")

        monkeypatch.setattr(elliptic, "solve_regularized", no_solve)
        cfg = tmp_path / "cauchy.cfg"
        with open(cfg_path("elliptic.cfg")) as fh:
            cfg.write_text(fh.read().replace("[elliptic]", f"[elliptic]\ncauchy_tol = {value}"))
        code = run_cli("elliptic", "--config", str(cfg), "--out", str(tmp_path / "e"))
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [f"error: config: {message}"]

    def test_plot_structure(self, tmp_path):
        out = tmp_path / "p"
        run_cli("simulate", "--config", cfg_path("steady.cfg"), "--out", str(out))
        svg = out / "plot.svg"
        code = run_cli("plot", str(out / "diagnostics.csv"), "t,energy_total", str(svg))
        assert code == 0
        root = ET.parse(str(svg)).getroot()
        assert root.attrib["width"] == "800" and root.attrib["height"] == "500"
        polys = [e for e in root.iter() if e.tag.endswith("polyline")]
        assert len(polys) == 1
        _, rows = read_csv(str(out / "diagnostics.csv"))
        assert len(polys[0].attrib["points"].split()) == len(rows)

    def test_plot_unknown_column_fails(self, tmp_path):
        out = tmp_path / "pu"
        run_cli("simulate", "--config", cfg_path("steady.cfg"), "--out", str(out))
        code = run_cli("plot", str(out / "diagnostics.csv"), "t,nope", str(out / "x.svg"))
        assert code == 1

    def test_reruns_byte_identical_outside_sidecar(self, tmp_path):
        out1, out2 = tmp_path / "d1", tmp_path / "d2"
        run_cli("simulate", "--config", cfg_path("simulate.cfg"), "--out", str(out1))
        run_cli("simulate", "--config", cfg_path("simulate.cfg"), "--out", str(out2))
        assert (out1 / "diagnostics.csv").read_bytes() == (out2 / "diagnostics.csv").read_bytes()
        assert (out1 / "field_final.txt").read_bytes() == (out2 / "field_final.txt").read_bytes()

    def test_seed_flag_changes_the_run(self, tmp_path):
        out1, out2 = tmp_path / "a1", tmp_path / "a2"
        run_cli("simulate", "--config", cfg_path("simulate.cfg"), "--out", str(out1), "--seed", "1")
        run_cli("simulate", "--config", cfg_path("simulate.cfg"), "--out", str(out2), "--seed", "2")
        assert (out1 / "diagnostics.csv").read_bytes() != (out2 / "diagnostics.csv").read_bytes()

    def test_validation_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[mesh]\nn = 1\n")
        code = run_cli("simulate", "--config", str(bad), "--out", str(tmp_path / "b"))
        assert code == 1
        assert "error: config:" in capsys.readouterr().err

    def test_mesh_file_with_huge_counts_is_one_config_error(self, tmp_path, capsys):
        mesh_file = tmp_path / "huge.txt"
        mesh_file.write_text("bsmesh 1\n1000000000000 1\n0 0\n1 0\n0 1\n0 1 2\n")
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(f"[mesh]\npath = {mesh_file}\n")
        code = run_cli("mesh", "--config", str(cfg), "--out", str(tmp_path / "m"))
        assert code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert lines == [f"error: config: {mesh_file}: line 7, column 1: unexpected end of file"]

    def test_mesh_file_format_error_names_the_file(self, tmp_path, capsys):
        mesh_file = tmp_path / "bad.txt"
        mesh_file.write_text("bsmesh 1\n3 x\n0 0\n1 0\n0 1\n0 1 2\n")
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"[mesh]\npath = {mesh_file}\n")
        code = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "s"))
        assert code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert lines == [f"error: config: {mesh_file}: line 2, column 3: bad triangle count 'x'"]

    def test_missing_config_exit_code(self, tmp_path):
        assert run_cli("simulate", "--config", str(tmp_path / "nope.cfg")) == 1

    def test_solver_failure_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "tight.cfg"
        cfg.write_text(
            "[mesh]\nn = 2\n[coupling]\nK = 1\nL = 1\nalpha = 0.5\nbeta = 2\n"
            "[elliptic]\nschedule = 1e-1 5e-2\ncauchy_tol = 1e-15\nrhs_kind = random\n"
            "[run]\nseed = 3\n"
        )
        code = run_cli("elliptic", "--config", str(cfg), "--out", str(tmp_path / "s"))
        assert code == 2
        assert "error: solver:" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["strong", "regimes"])
    def test_study_step_failure_exit_code(self, kind, tmp_path, capsys, monkeypatch):
        # a failed step inside a study reaches the user as one solver error
        # line, not as a traceback
        from bscahn.stepper import TimeStepper

        def failing_step(self, state, field_, dt):
            raise StepError("forced step failure", [1.0])

        monkeypatch.setattr(TimeStepper, "step", failing_step)
        code = run_cli("study", kind, "--config", cfg_path(f"{kind}.cfg"),
                       "--out", str(tmp_path / kind))
        assert code == 2
        err = capsys.readouterr().err
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: solver:")
        assert "forced step failure" in lines[0]

    @pytest.mark.parametrize("error", [
        lambda: StepError("step failed", [1.0]),
        lambda: EllipticSolveError("elliptic failed", [1.0]),
        lambda: ResolventError("resolvent failed", (0.0, 1.0)),
        lambda: SolverError("linear solve failed"),
        lambda: StudyRunError("study run failed"),
    ])
    def test_every_solver_failure_is_one_solver_error(self, error, tmp_path, capsys,
                                                       monkeypatch):
        exc = error()
        assert isinstance(exc, SolverFailure) and isinstance(exc, RuntimeError)

        def failing(args):
            raise exc

        monkeypatch.setitem(cli._COMMANDS, "simulate", failing)
        code = run_cli("simulate", "--config", cfg_path("simulate.cfg"),
                       "--out", str(tmp_path / "s"))
        assert code == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert lines == [f"error: solver: {exc}"]

    def test_incompatible_right_hand_side_is_one_solver_error(self, tmp_path, capsys,
                                                             monkeypatch):
        from bscahn.assembly import CompatibilityError, FemOperators

        def incompatible(self, a, cp):
            raise CompatibilityError("right-hand side integral 1 is not zero")

        monkeypatch.setattr(FemOperators, "solve_S_lb", incompatible)
        cfg = tmp_path / "contdep.cfg"
        cfg.write_text(edited_config("contdep.cfg", {("time", "t_end"): "2e-3"}))
        code = run_cli("study", "contdep", "--config", str(cfg), "--out", str(tmp_path / "c"))
        assert code == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert lines == ["error: solver: right-hand side integral 1 is not zero"]

    @pytest.mark.parametrize("kind", ["strong", "contdep"])
    def test_gronwall_overflow_is_one_solver_error(self, kind, tmp_path, capsys):
        # a fast, strong flow makes the Gronwall weight exp(...) of the
        # study's data functional overflow a float
        cfg = tmp_path / f"{kind}.cfg"
        cfg.write_text(edited_config(f"{kind}.cfg", {
            ("time", "lambda"): "1e-6", ("time", "dt"): "0.2", ("time", "t_end"): "0.2",
            ("velocity", "amplitude"): "200",
        }))
        code = run_cli("study", kind, "--config", str(cfg), "--out", str(tmp_path / kind))
        assert code == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: solver:")
        assert "Gronwall weight exp(" in lines[0]

    def test_damped_newton_running_out_of_iterations_is_one_solver_error(self, tmp_path,
                                                                          capsys):
        # a near-singular potential, a long step and a strong flow: the step
        # Newton ends at its roundoff floor, above the absolute tolerance
        cfg = tmp_path / "strong.cfg"
        cfg.write_text(edited_config("strong.cfg", {
            ("time", "lambda"): "1e-6", ("time", "dt"): "0.2", ("time", "t_end"): "0.4",
            ("velocity", "amplitude"): "200",
        }))
        code = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "s"))
        assert code == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert re.fullmatch(
            r"error: solver: step 2: step Newton did not reach tol 1e-12 in 30 iterations "
            r"\(residual [0-9.e+-]+\) \(advice: halve dt and retry\)",
            lines[0],
        ), lines[0]

    def test_python_dash_m_runs_the_cli(self):
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "bscahn", "--help"], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: bscahn")

    def test_elliptic_rhs_from_field_file(self, tmp_path, ops2, rng):
        from bscahn.assembly import BulkSurfacePair

        rhs = BulkSurfacePair(
            rng.standard_normal(ops2.n_bulk), rng.standard_normal(ops2.n_surf)
        )
        field_file = tmp_path / "rhs.txt"
        write_field_snapshot(str(field_file), ops2.mesh, rhs)
        cfg = tmp_path / "file_rhs.cfg"
        cfg.write_text(
            "[mesh]\nn = 2\n[coupling]\nK = 1\nL = 1\nalpha = 0.5\nbeta = 2\n"
            f"[elliptic]\nrhs_kind = file\nrhs_path = {field_file}\n"
        )
        assert run_cli("elliptic", "--config", str(cfg), "--out", str(tmp_path / "o")) == 0

    def test_study_contdep_passes(self, tmp_path, capsys):
        out = tmp_path / "cd"
        code = run_cli("study", "contdep", "--config", cfg_path("contdep.cfg"), "--out", str(out))
        assert code == 0
        assert "PASS" in capsys.readouterr().out
        _, rows = read_csv(str(out / "study_contdep.csv"))
        assert float(rows[-1]["lhs"]) == 0.0  # the zero-perturbation row

    def test_study_fail_exit_code_mapping(self, tmp_path, capsys, monkeypatch):
        # force a failing study result through the real command path
        from bscahn.diagnostics import ExperimentResult

        def fake_study(data, setup):
            return ExperimentResult(
                name="forced", rows=[{"x": 1.0}],
                passed=False, reason="forced failure", extras={},
            )

        monkeypatch.setitem(cli._STUDIES, "yosida", fake_study)
        code = run_cli("study", "yosida", "--config", cfg_path("elliptic.cfg"),
                       "--out", str(tmp_path / "f"))
        assert code == 3
        assert "FAIL" in capsys.readouterr().out


_SNAPSHOT_CONFIG = "[mesh]\nn = 2\n[coupling]\nK = 1\nL = 1\nalpha = 0.5\nbeta = 2\n"


def run_on_snapshot(tmp_path, text, use):
    """Run `elliptic` with the snapshot text as right-hand side (use "rhs"),
    or one `simulate` step from it as initial data (use "initial")."""
    tmp_path.mkdir(exist_ok=True)
    field = tmp_path / "field.txt"
    field.write_text(text)
    if use == "rhs":
        command, extra = "elliptic", f"[elliptic]\nrhs_kind = file\nrhs_path = {field}\n"
    else:
        command = "simulate"
        extra = f"[time]\ndt = 1e-3\nt_end = 1e-3\n[initial]\nkind = file\npath = {field}\n"
    cfg = tmp_path / "snapshot.cfg"
    cfg.write_text(_SNAPSHOT_CONFIG + extra)
    return run_cli(command, "--config", str(cfg), "--out", str(tmp_path / "out")), str(field)


class TestSnapshotInput:
    """A `bsfield 1` file given as elliptic right-hand side or initial data."""

    @pytest.fixture
    def text(self, ops2, tmp_path):
        path = tmp_path / "written.txt"
        write_field_snapshot(str(path), ops2.mesh, ops2.constant_pair(0.1, 0.2))
        return path.read_text()

    def test_comment_lines_are_skipped(self, text, tmp_path):
        assert run_on_snapshot(tmp_path / "plain", text, "rhs")[0] == 0
        lines = text.splitlines()
        lines.insert(0, "# a right-hand side written by hand")
        lines[2] += "  # bulk block"
        commented = "\n".join(lines) + "\n# end\n"
        assert run_on_snapshot(tmp_path / "commented", commented, "rhs")[0] == 0
        solution = "out/elliptic_solution.txt"
        plain = (tmp_path / "plain" / solution).read_bytes()
        assert (tmp_path / "commented" / solution).read_bytes() == plain

    @pytest.mark.parametrize("defect, message", [
        ("nan", "line 3, column 5: bad bulk value 'nan'"),
        ("count", "line 2, column 6: bad bulk node count '9x'"),
        ("trailing", "line 21, column 1: trailing data '0.5'"),
    ])
    @pytest.mark.parametrize("use", ["rhs", "initial"])
    def test_malformed_snapshot_is_one_config_error_naming_the_file(
        self, text, defect, message, use, tmp_path, capsys
    ):
        lines = text.splitlines()
        if defect == "nan":
            lines[2] = " ".join(lines[2].split()[:2] + ["nan"])
        elif defect == "count":
            lines[1] = "bulk 9x"
        else:
            lines.append("0.5")
        code, path = run_on_snapshot(tmp_path, "\n".join(lines) + "\n", use)
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [f"error: config: {path}: {message}"]


class TestFieldSnapshots:
    def test_roundtrip(self, tmp_path, ops4, rng):
        from bscahn.assembly import BulkSurfacePair

        pair = BulkSurfacePair(
            rng.standard_normal(ops4.n_bulk), rng.standard_normal(ops4.n_surf)
        )
        path = tmp_path / "field.txt"
        write_field_snapshot(str(path), ops4.mesh, pair)
        back = read_field_snapshot(str(path), ops4.mesh)
        assert np.array_equal(back.bulk, pair.bulk)
        assert np.array_equal(back.surf, pair.surf)

    def test_mesh_mismatch_rejected(self, tmp_path, ops2, ops4, rng):
        from bscahn.assembly import BulkSurfacePair

        pair = BulkSurfacePair(np.zeros(ops2.n_bulk), np.zeros(ops2.n_surf))
        path = tmp_path / "field.txt"
        write_field_snapshot(str(path), ops2.mesh, pair)
        with pytest.raises(ValueError, match="nodes"):
            read_field_snapshot(str(path), ops4.mesh)

    def test_csv_roundtrip_17_digits(self, tmp_path):
        path = tmp_path / "t.csv"
        value = 0.1234567890123456789
        write_csv(str(path), ["a"], [{"a": value}])
        _, rows = read_csv(str(path))
        assert float(rows[0]["a"]) == value

"""Tests of the benchmark's own tracing, gates and metric names.

Run from the repository root:  python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
import scipy.sparse.linalg as spla

import run  # noqa: F401  (pins BLAS threads before numpy is used)
import tracing
import workloads
from bscahn import assembly, elliptic, potentials, stepper, velocity

ROOT = Path(__file__).resolve().parent.parent


def _bindings() -> dict:
    """A sample of the names the tracer rebinds, by identity."""
    return {
        "potentials.yosida_resolvent": potentials.yosida_resolvent,
        "elliptic.yosida_resolvent": elliptic.yosida_resolvent,
        "elliptic.solve_regularized": elliptic.solve_regularized,
        "stepper.spla": stepper.spla,
        "elliptic.spla": elliptic.spla,
        "TimeStepper.step": stepper.TimeStepper.__dict__["step"],
        "FemOperators.bulk_at_tri_quad": assembly.FemOperators.__dict__["bulk_at_tri_quad"],
        "MollifiedEnvelope.__call__": velocity.MollifiedEnvelope.__dict__["__call__"],
    }


def _traced_pass(wl) -> tuple[workloads.PassResult, dict]:
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wl.setup()
        result = wl.run_pass()
    finally:
        tracer.restore()
    return result, tracer.collect()


def test_one_traced_sweep_step_reaches_every_rebound_layer():
    before = _bindings()
    result, stats = _traced_pass(workloads.SweepN8(seed=3, steps=1))
    assert result.failed == 0, result.failures
    # a binding the tracer missed would show up here as a zero
    assert stats["potentials.resolvent.calls"] > 0
    assert stats["stepper.linear_solve.calls"] > 0
    assert stats["stepper.step.calls"] == len(workloads.REGIMES)
    assert stats["stepper.linear_solve.unknowns"] > 0
    assert stats["velocity.sample_bulk.calls"] == len(workloads.REGIMES)
    assert stats["elliptic.linear_solve.calls"] == 0
    assert _bindings() == before
    assert stepper.spla is spla and elliptic.spla is spla


def test_traced_elliptic_pass_reaches_its_solver_layers():
    result, stats = _traced_pass(workloads.EllipticN32(seed=2, draws=1))
    assert result.failed == 0, result.failures
    for layer in ("elliptic.solve_singular", "elliptic.solve_regularized",
                  "elliptic.fixed_point_step", "elliptic.factorize", "elliptic.linear_solve",
                  "potentials.resolvent", "assembly.weighted_mass"):
        assert stats[f"{layer}.calls"] > 0, layer
    assert stats["elliptic.factorize.calls"] == 1  # cached by the contraction map
    assert stats["stepper.step.calls"] == 0


def test_untraced_measurement_installs_no_wrappers_and_traced_restores_them():
    original = _bindings()
    seen = []

    class Probe(workloads.Workload):
        def setup(self):
            pass

        def run_pass(self):
            seen.append(_bindings() == original)
            return workloads.PassResult(seconds=1e-3, step_samples=[1e-3, 2e-3])

    run._untraced(Probe(), seconds=0.0)
    assert seen == [True]
    seen.clear()
    record = run._traced(Probe(), seconds=0.0)
    assert seen == [False, True]  # one traced unit, then one untraced
    assert _bindings() == original
    assert set(record["metrics"]) == set(run.PER_LAYER)


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        ("a", 0.0, 10.0, 1, None),
        ("b", 1.0, 4.0, 2, 1),
        ("c", 3.0, 6.0, 3, 1),  # overlaps b, as thread-pool children do
        ("d", 2.0, 3.0, 4, 2),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[1] == pytest.approx(5.0)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(3.0)


def test_thread_pool_work_belongs_to_the_submitting_span():
    tracer = tracing.Tracer()
    inner = tracer.traced("inner", lambda _: time.sleep(0.02))

    def outer():
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(inner, range(2)))

    start = time.perf_counter()
    tracer.traced("outer", outer)()
    wall = time.perf_counter() - start
    stats = tracer.collect()
    assert stats["inner.calls"] == 2
    # the two sleeps overlap, so outer keeps at most wall - 0.02 for itself
    assert stats["outer.self_s"] <= wall - 0.019


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for w in spec["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_without_the_sources_the_benchmark_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "sweep_n8", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

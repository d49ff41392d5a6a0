"""Benchmark of the bscahn solver: four workloads, end-to-end and per-layer.

Run from the repository root:

    python3 benchmarks/run.py --workload all --seed 1 --seconds 28 --trace 0

``--workload`` is one of sweep_n8, fine_n64, elliptic_n32, cli_runs or
``all`` (every workload in turn, in this one process).  Each workload runs
passes of its unit of work, each after three fresh set-ups, until
``--seconds`` have passed, checking every pass against the correctness
gates.  The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones and no wrapper is
installed.  With ``--trace 1`` the run alternates traced units (set-up plus
one pass, with every bscahn layer wrapped by ``tracing.Tracer``) and
untraced ones, and reports per-layer metrics per unit (median over units)
plus ``trace.overhead_s``, traced minus untraced ``run_s``.

BLAS is pinned to one thread, so the only extra threads are the CLI's own
``--jobs`` pool.  Full results, the run context and the layer table go to
``benchmarks/out/``; deterministic counters are also kept there per source
version, workload and seed, and a later run that disagrees with them is
marked incorrect.

End-to-end metrics (``step`` means: an implicit time step of
``TimeStepper.run`` on sweep_n8 and fine_n64, every step but each
trajectory's first; one Newton iteration of ``solve_singular``, averaged
per right-hand side, on elliptic_n32; one step of ``bscahn simulate``
including its set-up and output, averaged per pass, on cli_runs):

* setup_s: mesh, assemble and solver construction (elliptic_n32: the
  mesh; cli_runs: parse_config plus build_setup), median over set-ups;
* run_s: mean wall time of one pass (total time over passes), counting
  only calls into bscahn; a mean, because on a host whose speed switches
  between states the median of a few passes jumps between them;
* step_ms_p50, step_ms_p90: step time percentiles, sample count printed;
* newton_iters: Newton iterations per pass (cli_runs: the simulate part),
  identical in every pass;
* peak_rss_mb: peak resident memory of the process so far.

``fail_rate`` is ``failed / attempted`` of the JSON line and is printed too.
"""

from __future__ import annotations

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:  # before numpy is imported
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import workloads  # noqa: E402  (fails without the bscahn sources in ../src)
import tracing  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

ROOT = workloads.ROOT
OUT_DIR = ROOT / "benchmarks" / "out"

SETUPS_PER_PASS = 3

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "newton_iters": "count",
    "peak_rss_mb": "MB",
}

# Self times only for layers every workload reaches; the others carry their
# self time as a share of the traced unit, which is 0 where they do not run.
EVERY_WORKLOAD = (
    "mesh.generate_unit_square",
    "assembly.assemble",
    "assembly.quad_eval",
    "assembly.quad_load",
    "assembly.weighted_mass",
    "potentials.resolvent",
)
PER_LAYER: dict[str, str] = {}
for _layer in tracing.LAYERS:
    PER_LAYER[f"{_layer}.calls"] = "count"
    if _layer in EVERY_WORKLOAD:
        PER_LAYER[f"{_layer}.self_s"] = "s"
    PER_LAYER[f"{_layer}.self_share"] = "share"
PER_LAYER.update({
    "potentials.resolvent.points": "count",
    "potentials.resolvent.ns_per_point": "ns",
    "potentials.resolvent.saturated_share": "share",
    "stepper.linear_solve.unknowns": "count",
    "elliptic.linear_solve.unknowns": "count",
    "output.write_csv.bytes": "B",
    "output.write_field_snapshot.bytes": "B",
    "trace.overhead_s": "s",
})
DETERMINISTIC_STATS = ("calls", "points", "saturated", "unknowns", "bytes", "saturated_share")


def _is_deterministic(key: str) -> bool:
    return key.rsplit(".", 1)[-1] in DETERMINISTIC_STATS


def run_context() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def _percentile_90(samples: list[float]) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10)[8]


def _counter_mismatch(reference: dict, other: dict, what: str) -> str | None:
    """One check: do the counters both records hold agree exactly?"""
    wrong = [
        f"{key} is {other[key]!r}, expected {reference[key]!r}"
        for key in sorted(reference.keys() & other.keys())
        if reference[key] != other[key]
    ]
    return f"{what}: " + "; ".join(wrong) if wrong else None


def _gate_summary(passes, mismatches: list) -> dict:
    """Gate counts of the passes plus one check per counter comparison."""
    wrong = [m for m in mismatches if m is not None]
    return {
        "attempted": sum(p.attempted for p in passes) + len(mismatches),
        "failed": sum(p.failed for p in passes) + len(wrong),
        "failures": [f for p in passes for f in p.failures] + wrong,
    }


def _run_until(seconds: float, unit) -> list:
    """Call unit() until `seconds` have passed; the last call may run over."""
    results = []
    start = time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        results.append(unit())
    return results


def _untraced(wl: workloads.Workload, seconds: float) -> dict:
    setup_times: list[float] = []

    def unit():
        # set-ups are spread over the run, not done in one burst, so that
        # setup_s sees the same host conditions as the passes
        for _ in range(SETUPS_PER_PASS):
            start = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - start)
        return wl.run_pass()

    passes = _run_until(seconds, unit)
    mismatches = [_counter_mismatch(passes[0].counters, p.counters, f"pass {i}")
                  for i, p in enumerate(passes[1:], start=2)]
    samples = [s for p in passes for s in p.step_samples]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "run_s": statistics.fmean(p.seconds for p in passes),
        "step_ms_p50": 1e3 * statistics.median(samples),
        "step_ms_p90": 1e3 * _percentile_90(samples),
        "newton_iters": passes[0].newton_iters,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {
        "metrics": metrics,
        **_gate_summary(passes, mismatches),
        "counters": {"newton_iters": passes[0].newton_iters, **passes[0].counters},
        "detail": {
            "setups": len(setup_times),
            "passes": len(passes),
            "pass_s": [round(p.seconds, 4) for p in passes],
            "step_samples": len(samples),
            "beyond_p90": sum(1 for s in samples if 1e3 * s > metrics["step_ms_p90"]),
        },
    }


def _traced(wl: workloads.Workload, seconds: float) -> dict:
    tracer = tracing.Tracer()

    def unit(traced: bool):
        if traced:
            tracer.install()
        try:
            start = time.perf_counter()
            wl.setup()
            result = wl.run_pass()
            wall = time.perf_counter() - start
        finally:
            if traced:
                tracer.restore()
        stats = tracer.collect() if traced else None
        return result, wall, stats

    rounds = _run_until(seconds, lambda: (unit(True), unit(False)))
    traced = [r[0] for r in rounds]
    untraced = [r[1][0] for r in rounds]
    all_passes = [t[0] for t in traced] + untraced

    reference = traced[0][0].counters
    mismatches = [_counter_mismatch(reference, p.counters, f"unit {i}")
                  for i, p in enumerate(all_passes[1:], start=2)]

    per_unit = []
    for result, wall, stats in traced:
        values = dict(stats)
        for layer in tracing.LAYERS:
            values[f"{layer}.self_share"] = stats[f"{layer}.self_s"] / wall
        per_unit.append(values)
    layer_table = {}
    for key in sorted(per_unit[0]):
        column = [u[key] for u in per_unit]
        layer_table[key] = column[0] if _is_deterministic(key) else statistics.median(column)
    counts = {k: v for k, v in layer_table.items() if _is_deterministic(k)}
    mismatches += [
        _counter_mismatch(counts, {k: u[k] for k in counts}, f"traced unit {i}")
        for i, u in enumerate(per_unit[1:], start=2)
    ]
    traced_run_s = statistics.fmean(t[0].seconds for t in traced)
    untraced_run_s = statistics.fmean(p.seconds for p in untraced)
    layer_table["trace.overhead_s"] = traced_run_s - untraced_run_s
    metrics = {name: layer_table[name] for name in PER_LAYER}

    return {
        "metrics": metrics,
        **_gate_summary(all_passes, mismatches),
        "counters": {"newton_iters": traced[0][0].newton_iters, **reference, **counts},
        "layers": layer_table,
        "detail": {
            "traced_units": len(traced),
            "untraced_units": len(untraced),
            "traced_run_s": traced_run_s,
            "untraced_run_s": untraced_run_s,
        },
    }


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload for about `seconds` and return its result record."""
    wl = workloads.make(name, seed, OUT_DIR / "work")
    try:
        return _traced(wl, seconds) if trace else _untraced(wl, seconds)
    finally:
        wl.close()


# -- deterministic counters across runs ---------------------------------------------


def source_digest() -> str:
    """Digest of everything that decides the counters: program, configs, benchmark."""
    h = hashlib.sha256()
    files = sorted(
        list((ROOT / "src").rglob("*.py"))
        + list((ROOT / "configs").glob("*.cfg"))
        + list((ROOT / "benchmarks").glob("*.py"))
    )
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_against_earlier_runs(name: str, seed: int, counters: dict) -> str | None:
    """Compare with the counters an earlier run of this source and seed stored."""
    path = OUT_DIR / "counters" / f"{source_digest()}-{name}-seed{seed}.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    problem = _counter_mismatch(known, counters, f"earlier run ({path.name})")
    if problem is None:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps({**known, **counters}, indent=1, sort_keys=True))
        os.replace(tmp, path)
    return problem


# -- reporting -------------------------------------------------------------------------


def _print_result(name: str, seed: int, trace: bool, record: dict) -> None:
    attempted, failed = record["attempted"], record["failed"]
    print(f"== {name} seed {seed} trace {int(trace)}: {json.dumps(record['detail'])}")
    if trace:
        layers = record["layers"]
        print(f"  {'layer':40s} {'calls':>9s} {'self_s':>10s} {'share':>7s}  moves")
        for layer in tracing.LAYERS:
            calls = layers[f"{layer}.calls"]
            if calls:
                print(f"  {layer:40s} {calls:9d} {layers[f'{layer}.self_s']:10.4f} "
                      f"{layers[f'{layer}.self_share']:7.1%}  {tracing.LAYER_MOVES[layer]}")
        extras = {k: v for k, v in layers.items()
                  if k.rsplit(".", 1)[-1] not in ("calls", "self_s", "self_share")}
        for key, value in extras.items():
            print(f"  {key:40s} {value:.6g}")
    else:
        for key, unit in END_TO_END.items():
            print(f"  {key:14s} {record['metrics'][key]:.6g} {unit}")
    print(f"  {'fail_rate':14s} {failed / attempted:.6g} ({failed} of {attempted})")
    for line in record["failures"][:20]:
        print(f"  FAILED: {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]

    context = run_context()
    print("context: " + json.dumps(context, sort_keys=True))
    records = {}
    for name in names:
        record = measure(name, args.seed, args.seconds, trace)
        problem = check_against_earlier_runs(name, args.seed, record["counters"])
        record["attempted"] += 1
        if problem is not None:
            record["failures"].append(problem)
            record["failed"] += 1
        record["context"] = context
        _print_result(name, args.seed, trace, record)
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        (OUT_DIR / f"{name}-seed{args.seed}-trace{int(trace)}.json").write_text(
            json.dumps(record, indent=1, sort_keys=True, default=str)
        )
        records[name] = record

    units = PER_LAYER if trace else END_TO_END
    if len(names) == 1:
        metrics = {k: {"value": records[names[0]]["metrics"][k], "unit": u}
                   for k, u in units.items()}
    else:
        metrics = {f"{n}.{k}": {"value": records[n]["metrics"][k], "unit": u}
                   for n in names for k, u in units.items()}
    attempted = sum(r["attempted"] for r in records.values())
    failed = sum(r["failed"] for r in records.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

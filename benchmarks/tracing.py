"""Span tracing for the benchmark, kept entirely outside ``src/``.

A :class:`Tracer` replaces each layer function of ``bscahn`` by a wrapper at
every name its callers look it up under: the module global a
``from .x import f`` created, the class attribute a method call goes
through, and, for the sparse direct solver, the ``spla`` module object that
``stepper`` and ``elliptic`` each reach ``spsolve``/``splu`` through.  Every
call records one span (layer, start, end, parent).  A span opened on a
worker thread with nothing open on that thread belongs to the span open on
the installing thread, because that span submitted the work.

A layer's self time is its span's duration minus the part of that interval
covered by its child spans (the union, since children on a thread pool
overlap).  ``restore`` puts every original object back; nothing is wrapped
outside ``install``/``restore``.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import threading
import time
from collections import defaultdict

import numpy as np
import scipy.sparse.linalg as spla

from bscahn import (
    assembly,
    cli,
    config,
    diagnostics,
    elliptic,
    mesh,
    output,
    potentials,
    stepper,
    velocity,
)

# Layers, each one module's public function (or a named group of them).
LAYERS = (
    "mesh.generate_unit_square",
    "assembly.assemble",
    "assembly.quad_eval",
    "assembly.quad_load",
    "assembly.weighted_mass",
    "assembly.weighted_stiffness",
    "potentials.resolvent",
    "velocity.sample_bulk",
    "velocity.envelope",
    "stepper.step",
    "stepper.linear_solve",
    "stepper.convection_load",
    "stepper.energy",
    "stepper.initial_mu_theta",
    "elliptic.solve_singular",
    "elliptic.solve_shifted_regularized",
    "elliptic.solve_regularized",
    "elliptic.fixed_point_step",
    "elliptic.factorize",
    "elliptic.linear_solve",
    "config.build_setup",
    "output.write_csv",
    "output.write_field_snapshot",
    "diagnostics.regime_interpolation_study",
    "cli.main",
)

# Which end-to-end metric, on which workload, each layer should move.
LAYER_MOVES = {
    "mesh.generate_unit_square": "setup_s, most on fine_n64",
    "assembly.assemble": "setup_s, most on fine_n64",
    "assembly.quad_eval": "step_ms_p50 on sweep_n8, run_s on elliptic_n32",
    "assembly.quad_load": "step_ms_p50 on sweep_n8, run_s on elliptic_n32",
    "assembly.weighted_mass": "step_ms_p50 on sweep_n8, run_s on elliptic_n32",
    "assembly.weighted_stiffness": "step_ms_p50 on cli_runs only",
    "potentials.resolvent": "step_ms_p50 on sweep_n8, run_s on elliptic_n32",
    "velocity.sample_bulk": "step_ms_p50 on sweep_n8 and fine_n64",
    "velocity.envelope": "step_ms_p50 on cli_runs only",
    "stepper.step": "step_ms_p50 on sweep_n8",
    "stepper.linear_solve": "step_ms_p50 on fine_n64",
    "stepper.convection_load": "step_ms_p50 on sweep_n8",
    "stepper.energy": "step_ms_p50 on sweep_n8",
    "stepper.initial_mu_theta": "run_s on the stepper workloads (run() projects first)",
    "elliptic.solve_singular": "run_s on elliptic_n32",
    "elliptic.solve_shifted_regularized": "run_s on elliptic_n32",
    "elliptic.solve_regularized": "run_s on elliptic_n32",
    "elliptic.fixed_point_step": "run_s on elliptic_n32",
    "elliptic.factorize": "run_s on elliptic_n32",
    "elliptic.linear_solve": "run_s on elliptic_n32",
    "config.build_setup": "run_s and setup_s on cli_runs",
    "output.write_csv": "run_s on cli_runs",
    "output.write_field_snapshot": "run_s on cli_runs",
    "diagnostics.regime_interpolation_study": "run_s on cli_runs",
    "cli.main": "run_s on cli_runs",
}


def _bscahn_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "bscahn" or name.startswith("bscahn."))]


def _union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Self time of each span: duration minus the union of its children."""
    children = defaultdict(list)
    for _, start, end, _, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {
        ident: (end - start) - _union_length(children.get(ident, ()), start, end)
        for _, start, end, ident, _ in spans
    }


# -- counters recorded at the layer boundary --------------------------------------


def _resolvent_points(args, kwargs, result):
    r, theta = args[0], args[1]
    out = np.abs(np.atleast_1d(result))
    saturated = 0
    if theta != 0.0:
        # the saturated (log-gap) branch returns exactly the roots with
        # |s| >= 1 - _SATURATION, up to rounding at the switch point
        threshold = 1.0 - getattr(potentials, "_SATURATION", 1e-3)
        saturated = int(np.count_nonzero(out >= threshold))
    return {"points": int(np.size(r)), "saturated": saturated}


def _solution_unknowns(args, kwargs, result):
    return {"unknowns": int(np.shape(result)[0])}


def _written_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


class _LinalgProxy:
    """Stands in for ``scipy.sparse.linalg`` inside one bscahn module."""

    def __init__(self, **overrides):
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(spla, name)


class _TracedLU:
    """A SuperLU factorization whose ``solve`` is traced."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """Records spans of bscahn layer calls between install() and restore()."""

    def __init__(self):
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[int]] = {}
        self._owner = threading.get_ident()
        self._spans: list[tuple] = []
        self._counts: dict[tuple[str, str], int] = defaultdict(int)
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------------

    def _parent(self, stack):
        if stack:
            return stack[-1]
        owner = self._stacks.get(self._owner)
        try:
            return owner[-1] if owner else None
        except IndexError:  # the owner thread closed its span meanwhile
            return None

    def traced(self, layer: str, fn, count=None):
        """Wrap fn so each call records one span of the given layer."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stacks.setdefault(threading.get_ident(), [])
            parent = tracer._parent(stack)
            ident = next(tracer._ids)
            stack.append(ident)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer._spans.append((layer, start, end, ident, parent))
            if count is not None:
                increments = count(args, kwargs, result)
                with tracer._lock:
                    for stat, n in increments.items():
                        tracer._counts[(layer, stat)] += n
            return result

        return wrapper

    # -- installing wrappers where callers look the functions up -----------------

    def _patch(self, owner, name: str, replacement) -> None:
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._patches.append((owner, name, original))
        setattr(owner, name, replacement)

    def _wrap_function(self, layer: str, fn, count=None) -> None:
        wrapper = self.traced(layer, fn, count)
        bound = 0
        for module in _bscahn_modules():
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attr, wrapper)
                    bound += 1
        if not bound:
            raise RuntimeError(f"{layer}: {fn.__qualname__} is bound nowhere in bscahn")

    def _wrap_method(self, layer: str, cls: type, name: str, count=None) -> None:
        self._patch(cls, name, self.traced(layer, cls.__dict__[name], count))

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        fem = assembly.FemOperators
        self._wrap_function("mesh.generate_unit_square", mesh.generate_unit_square)
        self._wrap_function("assembly.assemble", assembly.assemble)
        for name in ("bulk_at_tri_quad", "surf_at_quad"):
            self._wrap_method("assembly.quad_eval", fem, name)
        for name in ("tri_quad_load", "surf_quad_load"):
            self._wrap_method("assembly.quad_load", fem, name)
        for name in ("tri_weighted_mass", "surf_weighted_mass"):
            self._wrap_method("assembly.weighted_mass", fem, name)
        for name in ("bulk_weighted_stiffness", "surf_weighted_stiffness"):
            self._wrap_method("assembly.weighted_stiffness", fem, name)
        self._wrap_function(
            "potentials.resolvent", potentials.yosida_resolvent, _resolvent_points
        )
        for cls in vars(velocity).values():
            if (isinstance(cls, type) and issubclass(cls, velocity.VelocityField)
                    and "sample_bulk" in cls.__dict__):
                self._wrap_method("velocity.sample_bulk", cls, "sample_bulk")
        self._wrap_method("velocity.envelope", velocity.MollifiedEnvelope, "__call__")

        ts = stepper.TimeStepper
        for name in ("step", "convection_load", "energy", "initial_mu_theta"):
            self._wrap_method(f"stepper.{name}", ts, name)
        self._patch(stepper, "spla", _LinalgProxy(
            spsolve=self.traced("stepper.linear_solve", spla.spsolve, _solution_unknowns)
        ))

        for name in ("solve_singular", "solve_shifted_regularized",
                     "solve_regularized", "fixed_point_step"):
            self._wrap_function(f"elliptic.{name}", getattr(elliptic, name))
        tracer = self

        def splu(*args, **kwargs):
            lu = spla.splu(*args, **kwargs)
            return _TracedLU(
                lu, tracer.traced("elliptic.linear_solve", lu.solve, _solution_unknowns)
            )

        self._patch(elliptic, "spla", _LinalgProxy(
            spsolve=self.traced("elliptic.linear_solve", spla.spsolve, _solution_unknowns),
            splu=self.traced("elliptic.factorize", splu),
        ))

        self._wrap_function("config.build_setup", config.build_setup)
        self._wrap_function("output.write_csv", output.write_csv, _written_bytes)
        self._wrap_function(
            "output.write_field_snapshot", output.write_field_snapshot, _written_bytes
        )
        self._wrap_function(
            "diagnostics.regime_interpolation_study", diagnostics.regime_interpolation_study
        )
        self._wrap_function("cli.main", cli.main)

    def restore(self) -> None:
        """Put back every original object, newest patch first, and check it."""
        patches, self._patches = self._patches, []
        for owner, name, original in reversed(patches):
            setattr(owner, name, original)
        for owner, name, original in patches:
            now = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
            if now is not original:
                raise RuntimeError(f"{owner!r}.{name} was not restored")

    # -- statistics -----------------------------------------------------------------

    def collect(self) -> dict[str, float]:
        """Per-layer stats of the spans recorded since the last collect().

        Keys are ``<layer>.calls``, ``<layer>.self_s`` and the layer's own
        counters; resolvent also gets ``ns_per_point`` and ``saturated_share``.
        """
        spans, self._spans = self._spans, []
        counts, self._counts = self._counts, defaultdict(int)
        stats: dict[str, float] = {}
        for layer in LAYERS:
            stats[f"{layer}.calls"] = 0
            stats[f"{layer}.self_s"] = 0.0
        selfs = self_times(spans)
        for layer, _, _, ident, _ in spans:
            stats[f"{layer}.calls"] = stats.get(f"{layer}.calls", 0) + 1
            stats[f"{layer}.self_s"] = stats.get(f"{layer}.self_s", 0.0) + selfs[ident]
        for (layer, stat), n in counts.items():
            stats[f"{layer}.{stat}"] = n
        for key in ("potentials.resolvent.points", "potentials.resolvent.saturated",
                    "stepper.linear_solve.unknowns", "elliptic.linear_solve.unknowns",
                    "output.write_csv.bytes", "output.write_field_snapshot.bytes"):
            stats.setdefault(key, 0)
        points = stats["potentials.resolvent.points"]
        stats["potentials.resolvent.ns_per_point"] = (
            1e9 * stats["potentials.resolvent.self_s"] / points if points else 0.0
        )
        stats["potentials.resolvent.saturated_share"] = (
            stats["potentials.resolvent.saturated"] / points if points else 0.0
        )
        return stats

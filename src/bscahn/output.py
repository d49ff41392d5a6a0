"""Deterministic file emission: diagnostics CSV, field snapshots, SVG plots.

All numeric output uses 17 significant digits and LF line endings, so a rerun
with the same seed is byte-identical.  Wall-clock information never enters
these files; it is confined to the metadata sidecar.
"""

from __future__ import annotations

import time

import numpy as np

from .assembly import BulkSurfacePair
from .mesh import Mesh, TokenReader


def fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def write_csv(path: str, columns, rows) -> None:
    """Rows are dicts keyed by column name."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(fmt(row[c]) for c in columns) + "\n")


def read_csv(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().split("\n") if ln]
    columns = lines[0].split(",")
    rows = [dict(zip(columns, ln.split(","))) for ln in lines[1:]]
    return columns, rows


def write_meta(path: str, entries: dict) -> None:
    """Sidecar for non-reproducible run details (timestamps live here only)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"written_unix = {time.time():.3f}\n")
        for k, v in entries.items():
            fh.write(f"{k} = {v}\n")


# -- field snapshots -------------------------------------------------------------


def write_field_snapshot(path: str, mesh: Mesh, pair: BulkSurfacePair) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("bsfield 1\n")
        fh.write(f"bulk {mesh.num_nodes}\n")
        for (x, y), v in zip(mesh.nodes, pair.bulk):
            fh.write(f"{fmt(x)} {fmt(y)} {fmt(v)}\n")
        fh.write(f"surf {mesh.num_surface_nodes}\n")
        for s, v in zip(mesh.arc_lengths[:-1], pair.surf):
            fh.write(f"{fmt(s)} {fmt(v)}\n")


def read_field_snapshot(path: str, mesh: Mesh) -> BulkSurfacePair:
    """Read a snapshot written for the same mesh (node order and coordinates
    must match); every value must be a finite number, and nothing may follow
    the last one.  Errors name the file."""
    with open(path, "r", encoding="utf-8") as fh:
        tokens = TokenReader(fh.read())
    try:
        tokens.take("bsfield")
        tokens.take("1")
        tokens.take("bulk")
        nb = tokens.number(int, "bulk node count")
        if nb != mesh.num_nodes:
            raise ValueError(f"{nb} bulk nodes, mesh has {mesh.num_nodes}")
        bulk = np.empty(nb)
        for i in range(nb):
            x, y = tokens.number(float, "coordinate"), tokens.number(float, "coordinate")
            if abs(x - mesh.nodes[i, 0]) > 1e-9 or abs(y - mesh.nodes[i, 1]) > 1e-9:
                raise ValueError(f"node {i} coordinates do not match the mesh")
            bulk[i] = tokens.number(float, "bulk value")
        tokens.take("surf")
        ns = tokens.number(int, "surface node count")
        if ns != mesh.num_surface_nodes:
            raise ValueError(f"{ns} surface nodes, mesh has {mesh.num_surface_nodes}")
        surf = np.empty(ns)
        for i in range(ns):
            tokens.number(float, "arc position")  # informational
            surf[i] = tokens.number(float, "surface value")
        tokens.finish()
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return BulkSurfacePair(bulk, surf)


# -- SVG line plots ---------------------------------------------------------------

_CANVAS_W, _CANVAS_H = 800, 500
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 20, 20, 45
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _scale(vals, lo_px, hi_px):
    v = np.asarray(vals, dtype=float)
    vmin, vmax = float(v.min()), float(v.max())
    if vmax - vmin < 1e-300:
        vmax = vmin + 1.0
    span = vmax - vmin
    vmin -= 0.02 * span
    vmax += 0.02 * span
    return vmin, vmax, lambda x: lo_px + (np.asarray(x) - vmin) / (vmax - vmin) * (hi_px - lo_px)


def write_svg_plot(path: str, columns, rows, out_columns) -> None:
    """Fixed 800x500 canvas; the first requested column is the abscissa, each
    further one becomes a polyline with one point per CSV row."""
    for c in out_columns:
        if c not in columns:
            raise ValueError(f"column {c!r} not in CSV header {columns}")
    if len(out_columns) < 2:
        raise ValueError("need one x column and at least one y column")
    data = {c: np.array([float(r[c]) for r in rows]) for c in out_columns}
    xcol, ycols = out_columns[0], out_columns[1:]

    xmin, xmax, xmap = _scale(data[xcol], _MARGIN_L, _CANVAS_W - _MARGIN_R)
    yall = np.concatenate([data[c] for c in ycols])
    ymin, ymax, ymap_raw = _scale(yall, _CANVAS_H - _MARGIN_B, _MARGIN_T)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_CANVAS_W}" height="{_CANVAS_H}" '
        f'viewBox="0 0 {_CANVAS_W} {_CANVAS_H}">',
        f'<rect width="{_CANVAS_W}" height="{_CANVAS_H}" fill="white"/>',
        f'<line x1="{_MARGIN_L}" y1="{_CANVAS_H - _MARGIN_B}" x2="{_CANVAS_W - _MARGIN_R}" '
        f'y2="{_CANVAS_H - _MARGIN_B}" stroke="black"/>',
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" '
        f'y2="{_CANVAS_H - _MARGIN_B}" stroke="black"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = xmin + frac * (xmax - xmin)
        yv = ymin + frac * (ymax - ymin)
        xp = float(xmap(xv))
        yp = float(ymap_raw(yv))
        parts.append(
            f'<text x="{xp:.1f}" y="{_CANVAS_H - _MARGIN_B + 16}" font-size="11" '
            f'text-anchor="middle">{xv:.4g}</text>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 6}" y="{yp:.1f}" font-size="11" '
            f'text-anchor="end">{yv:.4g}</text>'
        )
    parts.append(
        f'<text x="{(_MARGIN_L + _CANVAS_W - _MARGIN_R) / 2}" y="{_CANVAS_H - 8}" '
        f'font-size="13" text-anchor="middle">{xcol}</text>'
    )
    for i, c in enumerate(ycols):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(
            f"{float(px):.2f},{float(py):.2f}"
            for px, py in zip(xmap(data[xcol]), ymap_raw(data[c]))
        )
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>')
        parts.append(
            f'<text x="{_CANVAS_W - _MARGIN_R - 6}" y="{_MARGIN_T + 14 + 14 * i}" '
            f'font-size="12" text-anchor="end" fill="{color}">{c}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")

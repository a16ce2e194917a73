"""Deterministic artifact writers.

All numeric output flows through one float formatter (%.17g: 17
significant digits, which round-trip every float64; -0.0 normalized to 0),
and JSON keys are emitted sorted, so re-running a computation with the
same inputs produces byte-identical files regardless of worker count or
dict construction order.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

__all__ = [
    "format_float",
    "canonical_json",
    "write_json",
    "write_csv",
    "write_pgm",
    "write_hull_svg",
]


def format_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    if x == 0.0:
        return "0"
    return format(x, ".17g")


def _emit(value) -> str:
    if isinstance(value, dict):
        items = []
        for k in sorted(value):
            if not isinstance(k, str):
                raise TypeError(f"JSON keys must be strings, got {type(k).__name__}")
            items.append(f"{json.dumps(k)}:{_emit(value[k])}")
        return "{" + ",".join(items) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_emit(v) for v in value) + "]"
    if isinstance(value, np.ndarray):
        return _emit(value.tolist())
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_float(float(value))
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    raise TypeError(f"cannot serialize value of type {type(value).__name__}")


def canonical_json(value) -> str:
    """Compact JSON with sorted keys and fixed float formatting."""
    return _emit(value)


def write_json(path, value) -> Path:
    path = Path(path)
    path.write_text(canonical_json(value) + "\n")
    return path


def write_csv(path, header, rows) -> Path:
    """CSV whose cells are formatted as JSON artifact values; strings go in
    as given."""
    path = Path(path)
    lines = [",".join(header)]
    lines.extend(",".join(v if isinstance(v, str) else _emit(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")
    return path


def write_pgm(path, grid) -> Path:
    """ASCII PGM, one pixel per cell, 255 = visited; row 0 at the top."""
    g = np.asarray(grid)
    if g.ndim != 2:
        raise ValueError("grid must be 2-D")
    vals = np.where(g.astype(bool), 255, 0)
    path = Path(path)
    lines = [f"P2", f"{g.shape[1]} {g.shape[0]}", "255"]
    lines.extend(" ".join(str(v) for v in row) for row in vals)
    path.write_text("\n".join(lines) + "\n")
    return path


def write_hull_svg(path, hull_vertices, samples=None, per_horizon=None, size=640) -> Path:
    """Minimal SVG: sample cloud, optional per-horizon hull outlines, hull.

    Coordinates are mapped from the data bounding box (padded 5%) to a
    fixed-size viewport; no external dependencies, fully deterministic.
    """
    hv = np.asarray(hull_vertices, dtype=float).reshape(-1, 2)
    clouds = [hv]
    if samples is not None and len(samples):
        clouds.append(np.asarray(samples, dtype=float).reshape(-1, 2))
    allpts = np.vstack(clouds)
    lo = allpts.min(axis=0)
    hi = allpts.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    pad = 0.05 * float(max(span))
    lo = lo - pad
    span = span + 2 * pad
    scale = size / float(max(span))

    def sx(x):
        return format_float((x - lo[0]) * scale)

    def sy(y):
        # flip so larger y is up
        return format_float(size - (y - lo[1]) * scale)

    def path_of(verts, stroke, width, fill="none"):
        pts = " ".join(f"{sx(v[0])},{sy(v[1])}" for v in verts)
        return (
            f'<polygon points="{pts}" fill="{fill}" stroke="{stroke}" '
            f'stroke-width="{width}"/>'
        )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    if samples is not None and len(samples):
        pts = np.asarray(samples, dtype=float).reshape(-1, 2)
        dots = "".join(
            f'<circle cx="{sx(p[0])}" cy="{sy(p[1])}" r="1.2"/>' for p in pts
        )
        parts.append(f'<g fill="#4060c0" fill-opacity="0.35">{dots}</g>')
    if per_horizon:
        for verts in per_horizon:
            if len(verts) >= 2:
                parts.append(path_of(np.asarray(verts), "#b0b0b0", 1))
    if len(hv) >= 2:
        parts.append(path_of(hv, "#c03030", 2))
    else:
        parts.append(
            f'<circle cx="{sx(hv[0][0])}" cy="{sy(hv[0][1])}" r="4" fill="#c03030"/>'
        )
    parts.append("</svg>")
    path = Path(path)
    path.write_text("\n".join(parts) + "\n")
    return path

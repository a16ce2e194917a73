"""Finite-horizon rotation-set estimation for torus lifts.

Displacement averages (Fⁿ(x) − x)/n are computed over a grid of starts via
the torus-step engine: the orbit state is a torus point in [0,1)² plus an
exact integer winding vector, so the average is (uₙ − u₀ + wₙ)/n with the
integer part carried exactly. This keeps the algebraic identities (integer
translates shift averages exactly, iterates scale them exactly) intact to
float precision even for chaotic maps, where naive planar iteration
decorrelates after a few dozen steps.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .geometry import (
    ConvexPolygon,
    affine_image,
    convex_hull,
    hausdorff_distance,
    polygon_area,
)
from .maps import Iterate, IntegerTranslate, IterationError, TorusLift, map_label, torus_step

__all__ = [
    "RotationSample",
    "RotationSetEstimate",
    "rotation_vector",
    "estimate_rotation_set",
    "check_iterate_scaling",
    "check_translation_equivariance",
    "interior_nonempty",
    "DEFAULT_GRID",
    "DEFAULT_HORIZONS",
]

DEFAULT_GRID = (128, 128)
DEFAULT_HORIZONS = (100, 500, 2000)

# Row-block size for worker tasks; fixed so task boundaries never depend on
# the worker count. All per-sample arithmetic is elementwise, so results are
# bit-identical for any partition; this just keeps the schedule canonical.
_CHUNK_ROWS = 16


@dataclass(frozen=True)
class RotationSample:
    start: tuple[float, float]
    horizon: int
    displacement_average: tuple[float, float]


@dataclass(frozen=True)
class RotationSetEstimate:
    map_id: str
    grid: tuple[int, int]
    horizons: tuple[int, ...]
    samples: tuple[RotationSample, ...]  # at the final horizon
    hull: ConvexPolygon
    per_horizon_hulls: tuple[ConvexPolygon, ...]
    hull_distances: tuple[float, ...]  # consecutive Hausdorff distances
    stability: float  # distance between the last two per-horizon hulls

    def to_json_dict(self, include_samples: bool = False) -> dict:
        out = {
            "map": self.map_id,
            "grid": list(self.grid),
            "horizons": list(self.horizons),
            "hull": {"vertices": [list(v) for v in self.hull.vertices]},
            "per_horizon_hulls": [
                {"vertices": [list(v) for v in h.vertices]} for h in self.per_horizon_hulls
            ],
            "hull_distances": list(self.hull_distances),
            "area": polygon_area(self.hull),
            "stability": self.stability,
        }
        if include_samples:
            out["samples"] = [
                [s.start[0], s.start[1], s.displacement_average[0], s.displacement_average[1]]
                for s in self.samples
            ]
        return out


def rotation_vector(lift: TorusLift, p, n: int) -> np.ndarray:
    """(Fⁿ(p) − p)/n through the winding engine.

    The integer part of the displacement is exact; the fractional part
    carries at most a few ulp of rounding per step.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    pts = np.asarray(p, dtype=float)
    if pts.shape[-1] != 2 or not np.all(np.isfinite(pts)):
        raise ValueError("need a finite planar point")
    u0 = pts - np.floor(pts)
    u = u0
    w = np.zeros(u.shape[:-1] + (2,), dtype=np.int64)
    for step in range(n):
        u, dw = torus_step(lift, u)
        w += dw
        if not np.all(np.isfinite(u)):
            raise IterationError(f"orbit escaped at step {step + 1}", step=step + 1, start=p)
    return (u - u0 + w) / n


def _orbit_averages(lift: TorusLift, u0: np.ndarray, horizons) -> list[np.ndarray]:
    """Displacement averages of a batch of starts at each horizon checkpoint."""
    u = u0
    w = np.zeros(u0.shape, dtype=np.int64)
    out = []
    targets = set(horizons)
    last = max(horizons)
    for step in range(1, last + 1):
        u, dw = torus_step(lift, u)
        w += dw
        if not np.all(np.isfinite(u)):
            raise IterationError.escaped(u0, u, step)
        if step in targets:
            out.append((u - u0 + w) / step)
    return out


def estimate_rotation_set(
    lift: TorusLift,
    grid=DEFAULT_GRID,
    horizons=DEFAULT_HORIZONS,
    offset: float = 0.0,
    workers: int = 1,
    map_id: str | None = None,
) -> RotationSetEstimate:
    """Hulls of displacement averages over a grid of starts.

    Starts are ((i+offset)/rows, (j+offset)/cols). The default offset 0
    places starts on the integer lattice fractions, which contains the
    low-period points that realize extreme displacements of the built-in
    tent-shear maps; offset=0.5 probes only cell-center (generic) orbits
    and typically yields a strictly smaller hull at any finite horizon.

    Deterministic for fixed inputs and independent of `workers` (samples
    are indexed by grid position; all per-sample arithmetic is
    elementwise, so partitioning cannot change bits).
    """
    rows, cols = int(grid[0]), int(grid[1])
    if rows < 1 or cols < 1:
        raise ValueError("grid must be nonempty")
    horizons = tuple(int(h) for h in horizons)
    if not horizons or list(horizons) != sorted(horizons) or len(set(horizons)) != len(horizons):
        raise ValueError("horizons must be strictly ascending")
    if horizons[0] < 1:
        raise ValueError("horizons must be positive")

    ii, jj = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    u0 = np.stack(
        [(ii + offset) / rows, (jj + offset) / cols], axis=-1
    ).reshape(-1, 2)

    if workers <= 1 or rows <= _CHUNK_ROWS:
        avgs = _orbit_averages(lift, u0, horizons)
    else:
        blocks = [
            u0[r * cols : min(r + _CHUNK_ROWS, rows) * cols]
            for r in range(0, rows, _CHUNK_ROWS)
        ]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(lambda b: _orbit_averages(lift, b, horizons), blocks))
        avgs = [np.concatenate([p[h] for p in parts]) for h in range(len(horizons))]

    per_hulls = tuple(convex_hull(a) for a in avgs)
    dists = tuple(
        hausdorff_distance(per_hulls[i], per_hulls[i + 1]) for i in range(len(per_hulls) - 1)
    )
    stability = dists[-1] if dists else 0.0
    final = avgs[-1]
    samples = tuple(
        RotationSample(
            start=(float(u0[i, 0]), float(u0[i, 1])),
            horizon=horizons[-1],
            displacement_average=(float(final[i, 0]), float(final[i, 1])),
        )
        for i in range(len(u0))
    )
    return RotationSetEstimate(
        map_id=map_id if map_id is not None else map_label(lift),
        grid=(rows, cols),
        horizons=horizons,
        samples=samples,
        hull=per_hulls[-1],
        per_horizon_hulls=per_hulls,
        hull_distances=dists,
        stability=float(stability),
    )


def check_iterate_scaling(lift: TorusLift, k: int, grid=DEFAULT_GRID, horizons=DEFAULT_HORIZONS) -> float:
    """Discrepancy of the k-th iterate's hull against k·(base hull).

    The iterated map is estimated at horizons scaled down by k so both
    sides see the same total orbit length.
    """
    if k < 2:
        raise ValueError("k must be ≥ 2")
    scaled = tuple(dict.fromkeys(max(1, h // k) for h in horizons))
    est_base = estimate_rotation_set(lift, grid, horizons)
    est_iter = estimate_rotation_set(Iterate(lift, k), grid, scaled)
    return hausdorff_distance(est_iter.hull, affine_image(est_base.hull, k, (0.0, 0.0)))


def check_translation_equivariance(lift: TorusLift, v, grid=DEFAULT_GRID, horizons=DEFAULT_HORIZONS) -> float:
    """Discrepancy of (lift + v)'s hull against (base hull) + v, v ∈ Z².

    The translated map's torus dynamics is identical to the base map's, and
    the winding bookkeeping adds v exactly per step, so the two hulls agree
    to float-subtraction precision.
    """
    v = (int(v[0]), int(v[1]))
    est_base = estimate_rotation_set(lift, grid, horizons)
    est_shift = estimate_rotation_set(IntegerTranslate(lift, v), grid, horizons)
    return hausdorff_distance(est_shift.hull, affine_image(est_base.hull, 1.0, v))


def interior_nonempty(est: RotationSetEstimate, area_threshold: float) -> bool:
    """True iff the hull area clears the threshold on a stabilized estimate."""
    if area_threshold <= 0:
        raise ValueError("area threshold must be positive")
    return polygon_area(est.hull) > area_threshold and est.stability < area_threshold / 10.0

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

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    ConvexPolygon,
    affine_image,
    convex_hull,
    hausdorff_distance,
    polygon_area,
)
from .maps import Iterate, IntegerTranslate, TorusLift, map_label, run_in_blocks, torus_orbit
from .maps import torus_step  # noqa: F401  (perfbench/tracing.py wraps this name)

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
    for _, us, ws in torus_orbit(lift, u0, n, starts=pts):
        pass  # only the last step is wanted
    return (us[-1] - u0 + ws[-1]) / n


def _orbit_averages(lift: TorusLift, u0: np.ndarray, horizons) -> list[np.ndarray]:
    """Displacement averages of a batch of starts at each horizon checkpoint."""
    out = []
    targets = set(horizons)
    for steps, us, ws in torus_orbit(lift, u0, max(horizons)):
        out += [(u - u0 + w) / k for k, u, w in zip(steps, us, ws) if k in targets]
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

    The starts advance in blocks of whole grid rows (`run_in_blocks`), one
    after another at one worker and on `workers` threads otherwise. The
    result is deterministic for fixed inputs and independent of the blocks
    and of `workers`: samples are indexed by grid position and all
    per-sample arithmetic is elementwise, so partitioning cannot change
    bits. A non-finite `offset` raises ValueError before any step.
    """
    rows, cols = int(grid[0]), int(grid[1])
    if rows < 1 or cols < 1:
        raise ValueError("grid must be nonempty")
    if not math.isfinite(offset):
        raise ValueError(f"offset must be finite, got {offset}")
    horizons = tuple(int(h) for h in horizons)
    if not horizons or list(horizons) != sorted(horizons) or len(set(horizons)) != len(horizons):
        raise ValueError("horizons must be strictly ascending")
    if horizons[0] < 1:
        raise ValueError("horizons must be positive")

    ii, jj = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    u0 = np.stack(
        [(ii + offset) / rows, (jj + offset) / cols], axis=-1
    ).reshape(-1, 2)

    parts = run_in_blocks(lambda b: _orbit_averages(lift, b, horizons), u0, cols, workers)
    avgs = [np.concatenate(per_block) for per_block in zip(*parts)]

    per_hulls = tuple(convex_hull(a) for a in avgs)
    dists = tuple(
        hausdorff_distance(per_hulls[i], per_hulls[i + 1]) for i in range(len(per_hulls) - 1)
    )
    stability = dists[-1] if dists else 0.0
    final = avgs[-1]
    samples = tuple(
        RotationSample(start=(x, y), horizon=horizons[-1], displacement_average=(ax, ay))
        for (x, y), (ax, ay) in zip(u0.tolist(), final.tolist())
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


def check_area_threshold(area_threshold: float) -> None:
    """ValueError unless the area threshold is positive and finite."""
    if not 0 < area_threshold < math.inf:
        raise ValueError(f"area threshold must be positive and finite, got {area_threshold}")


def interior_nonempty(est: RotationSetEstimate, area_threshold: float) -> bool:
    """True iff the hull area clears the threshold on a stabilized estimate."""
    check_area_threshold(area_threshold)
    return polygon_area(est.hull) > area_threshold and est.stability < area_threshold / 10.0

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
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .geometry import (
    ConvexPolygon,
    affine_image,
    convex_hull,
    hausdorff_distance,
    polygon_area,
)
from .maps import (
    Iterate,
    IntegerTranslate,
    TorusLift,
    grid_starts,
    map_label,
    run_in_blocks,
    torus_orbit,
    walk_closed_grid,
)
from .maps import torus_step  # noqa: F401  (perfbench/tracing.py wraps this name)

__all__ = [
    "RotationSample",
    "RotationSamples",
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


class RotationSamples(Sequence):
    """An estimate's samples at its final `horizon`, read from the arrays
    `starts` and `averages` (shape (n, 2), read-only): a sample object is
    built only when it is read, and a slice is a tuple of them. Two are
    equal when their horizons and all their floats are."""

    def __init__(self, starts: np.ndarray, averages: np.ndarray, horizon: int):
        self.starts, self.averages, self.horizon = starts, averages, horizon
        starts.flags.writeable = averages.flags.writeable = False

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(len(self))))
        return self._sample(self.starts[i].tolist(), self.averages[i].tolist())

    def __iter__(self):
        return map(self._sample, self.starts.tolist(), self.averages.tolist())

    def _sample(self, start, average) -> RotationSample:
        return RotationSample(start=tuple(start), horizon=self.horizon, displacement_average=tuple(average))

    def rows(self) -> list:
        """[start x, start y, average x, average y] per sample."""
        return np.hstack((self.starts, self.averages)).tolist()

    def __eq__(self, other):
        if not isinstance(other, RotationSamples):
            return NotImplemented
        return (
            self.horizon == other.horizon
            and np.array_equal(self.starts, other.starts)
            and np.array_equal(self.averages, other.averages)
        )

    def __hash__(self):
        return hash(tuple(self))


@dataclass(frozen=True)
class RotationSetEstimate:
    map_id: str
    grid: tuple[int, int]
    horizons: tuple[int, ...]
    samples: RotationSamples  # at the final horizon
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
            out["samples"] = self.samples.rows()
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
    [(_, us, ws)] = torus_orbit(lift, u0, n, starts=pts, at=(n,))
    return (us[-1] - u0 + ws[-1]) / n


def _orbit_averages(chunks, u0: np.ndarray) -> list[np.ndarray]:
    """Displacement averages of a batch of starts at each step count of
    the orbit chunks (steps, us, ws) of `torus_orbit` or `walk_closed_grid`."""
    return [(u - u0 + w) / k for steps, us, ws in chunks for k, u, w in zip(steps, us, ws)]


def estimate_rotation_set(
    lift: TorusLift,
    grid=DEFAULT_GRID,
    horizons=DEFAULT_HORIZONS,
    offset: float = 0.0,
) -> RotationSetEstimate:
    """Hulls of displacement averages over a grid of starts.

    Starts are ((i+offset)/rows, (j+offset)/cols). The default offset 0
    places starts on the integer lattice fractions, which contains the
    low-period points that realize extreme displacements of the built-in
    tent-shear maps; offset=0.5 probes only cell-center (generic) orbits
    and typically yields a strictly smaller hull at any finite horizon.

    When one step maps the grid bit for bit onto itself, as `lm` and the
    other tent shears of integer amplitude map the offset-0 grid of a power
    of two, the orbits are walked on grid indices by doubling
    (`walk_closed_grid`): a step is a pure function of a point's bits and
    the int64 windings add associatively, so the walk gives the stepped
    bits in O(log horizon) array passes. Any other grid advances in blocks
    of whole grid rows, one after another (`run_in_blocks`), and the orbit
    engine builds each block's points only at the horizons. The result is
    deterministic for fixed inputs and independent of the blocks: samples
    are indexed by grid position and all per-sample arithmetic is
    elementwise, so partitioning cannot change bits. A non-finite `offset`
    raises ValueError before any step.
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

    u0 = grid_starts(rows, cols, offset)
    walk = walk_closed_grid(lift, rows, cols, offset, horizons)
    if walk is not None:
        avgs = _orbit_averages([walk], u0)
    else:
        parts = run_in_blocks(lambda b: _orbit_averages(torus_orbit(lift, b, horizons[-1], at=horizons), b), u0, cols)
        avgs = [np.concatenate(per_block) for per_block in zip(*parts)]

    per_hulls = tuple(convex_hull(a) for a in avgs)
    dists = tuple(
        hausdorff_distance(per_hulls[i], per_hulls[i + 1]) for i in range(len(per_hulls) - 1)
    )
    stability = dists[-1] if dists else 0.0
    return RotationSetEstimate(
        map_id=map_label(lift),
        grid=(rows, cols),
        horizons=horizons,
        samples=RotationSamples(u0, avgs[-1], horizons[-1]),
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

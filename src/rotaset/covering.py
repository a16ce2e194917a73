"""Dynamics on finite coverings of the torus and empirical transitivity.

A covering torus R²/(mZ×nZ) with m, n ∈ {1, 2} carries the lifted
dynamics of any base torus map. Covering points are represented in
decomposed form — a base torus point u ∈ [0,1)² plus an integer offset
w ∈ {0..m-1}×{0..n-1} — so projecting a covering orbit to the base torus
reproduces the base orbit bitwise, and deck translations act by exact
integer arithmetic.

Transitivity on a cover is probed, never decided: forward orbits are
binned into cells and the visited fraction reported as a score.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .maps import TorusLift, torus_orbit, torus_step

__all__ = [
    "CoveringTorus",
    "CoveringDynamics",
    "TransitivityReport",
    "lift_to_covering",
    "deck_translations",
    "transitivity_score",
    "classify_occupancy",
    "BASE_TORUS",
    "HORIZONTAL_DOUBLE",
    "VERTICAL_DOUBLE",
    "FOUR_FOLD",
]

TRANSITIVE_THRESHOLD = 0.98
OBSTRUCTED_THRESHOLD = 0.5


@dataclass(frozen=True)
class CoveringTorus:
    """Factors (m, n): fundamental domain [0,m)×[0,n)."""

    factors: tuple[int, int]

    def __post_init__(self):
        f = (int(self.factors[0]), int(self.factors[1]))
        if f[0] not in (1, 2) or f[1] not in (1, 2):
            raise ValueError("covering factors must each be 1 or 2")
        object.__setattr__(self, "factors", f)

    @property
    def label(self) -> str:
        return f"{self.factors[0]}x{self.factors[1]}"


BASE_TORUS = CoveringTorus((1, 1))
HORIZONTAL_DOUBLE = CoveringTorus((2, 1))  # width 2
VERTICAL_DOUBLE = CoveringTorus((1, 2))  # height 2
FOUR_FOLD = CoveringTorus((2, 2))


def deck_translations(cover: CoveringTorus) -> list[tuple[int, int]]:
    """Integer vectors acting on the cover over a fixed base point."""
    m, n = cover.factors
    return [(a, b) for b in range(n) for a in range(m)]


@dataclass(frozen=True)
class CoveringDynamics:
    """One covering step: evaluate the lift, reduce offsets mod (m, n).

    State is decomposed (u, w): u a base torus point in [0,1)², w an int64
    offset in {0..m-1}×{0..n-1}. The materialized covering point is u + w.
    """

    lift: TorusLift
    cover: CoveringTorus

    def split(self, z) -> tuple[np.ndarray, np.ndarray]:
        """Decompose covering points z in [0,m)×[0,n) into (u, w)."""
        z = np.asarray(z, dtype=float)
        w = np.floor(z)
        return z - w, w.astype(np.int64)

    def step_state(self, u: np.ndarray, w: np.ndarray):
        mod = np.asarray(self.cover.factors, dtype=np.int64)
        u2, k = torus_step(self.lift, u)
        return u2, (w + k) % mod

    def step(self, z) -> np.ndarray:
        """Convenience planar form of one covering step."""
        u, w = self.split(z)
        u2, w2 = self.step_state(u, w)
        return u2 + w2

    def project(self, z) -> np.ndarray:
        """Covering-to-base projection: reduce mod 1."""
        z = np.asarray(z, dtype=float)
        return z - np.floor(z)

    def orbit_chunks(self, starts, n: int):
        """Covering points of the orbits of `starts` (shape (..., 2)) after
        steps 1..n, in chunks of shape (steps, ..., 2). Reducing start
        offset plus cumulative winding mod (m, n) gives the same integers
        as reducing after every step."""
        starts = np.asarray(starts, dtype=float)
        u, w = self.split(starts)
        mod = np.asarray(self.cover.factors, dtype=np.int64)
        for _, us, ws in torus_orbit(self.lift, u, n, starts=starts):
            yield us + (w + ws) % mod

    def orbit(self, start, n: int) -> np.ndarray:
        """(n+1, 2) covering orbit including the start point."""
        u, w = self.split(start)
        return np.concatenate([(u + w)[None], *self.orbit_chunks(start, n)])


def lift_to_covering(lift: TorusLift, cover: CoveringTorus) -> CoveringDynamics:
    return CoveringDynamics(lift=lift, cover=cover)


@dataclass(frozen=True, eq=False)
class TransitivityReport:
    covering: CoveringTorus
    starts: tuple[tuple[float, float], ...]
    iterations: int
    cell_resolution: int  # cells per unit length
    occupancy: float  # fraction of cells hit by the union of orbits
    per_start_occupancy: tuple[float, ...]
    grid: np.ndarray  # bool, shape (n·res, m·res), [iy, ix]

    def to_json_dict(self) -> dict:
        return {
            "covering": list(self.covering.factors),
            "starts": [list(s) for s in self.starts],
            "iterations": self.iterations,
            "cell_resolution": self.cell_resolution,
            "occupancy": self.occupancy,
            "per_start_occupancy": list(self.per_start_occupancy),
            "classification": classify_occupancy(self.occupancy),
        }


def classify_occupancy(occupancy: float) -> str:
    """Score convention: a verdict label, never a proof of transitivity."""
    if occupancy >= TRANSITIVE_THRESHOLD:
        return "transitive-like"
    if occupancy <= OBSTRUCTED_THRESHOLD:
        return "obstructed"
    return "inconclusive"


def transitivity_score(
    lift: TorusLift,
    cover: CoveringTorus,
    starts=((0.2, 0.3),),
    iterations: int = 1_000_000,
    cell_resolution: int = 32,
) -> TransitivityReport:
    """Bin forward orbits (start included) into cells of side 1/resolution.

    Requires iterations ≥ cell count so full occupancy is reachable.
    Orbits from all starts advance in lockstep; the union grid and the
    per-start grids are filled in deterministic chunks.
    """
    m, n = cover.factors
    res = int(cell_resolution)
    if res < 1:
        raise ValueError(f"cell resolution must be a positive integer, got {res}")
    nx, ny = m * res, n * res
    cells = nx * ny
    if iterations < cells:
        raise ValueError(f"need iterations ≥ cell count ({cells})")
    starts = tuple((float(s[0]), float(s[1])) for s in starts)
    if not starts:
        raise ValueError("need at least one start")
    dyn = lift_to_covering(lift, cover)

    s_arr = np.asarray(starts, dtype=float)
    if not np.all((s_arr >= 0) & (s_arr < np.asarray([m, n], dtype=float))):  # NaN fails both
        raise ValueError("starts must be finite and lie in the fundamental domain [0,m)×[0,n)")
    u, w = dyn.split(s_arr)
    S = len(starts)
    grids = np.zeros((S, ny, nx), dtype=bool)

    def mark(positions):
        # positions: (T, S, 2) covering points
        ix = np.minimum((positions[..., 0] * res).astype(np.int64), nx - 1)
        iy = np.minimum((positions[..., 1] * res).astype(np.int64), ny - 1)
        for s in range(S):
            grids[s, iy[:, s], ix[:, s]] = True

    mark((u + w)[None, :, :])
    for chunk in dyn.orbit_chunks(s_arr, iterations):
        mark(chunk)

    union = grids.any(axis=0)
    return TransitivityReport(
        covering=cover,
        starts=starts,
        iterations=int(iterations),
        cell_resolution=res,
        occupancy=float(union.sum() / cells),
        per_start_occupancy=tuple(float(g.sum() / cells) for g in grids),
        grid=union,
    )

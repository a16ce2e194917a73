"""Periodic orbits of torus maps and their exact rational rotation vectors.

Roots of G(x) = F^q(x) − x − p are found by damped Newton iteration run in
parallel from a seed grid. Each seed chooses its own integer target p on
every iteration, the nearest integer to F^q(x) − x, and a converged root is
kept when its p lies in the displacement box. A small search, whose
(target, seed) pairs fit in `_PER_TARGET_ROWS`, runs every seed once per
target p instead, which reaches more roots from few seeds. The displacement
of a kept orbit is that exact integer p, so rotation vectors are exact
rationals p/q with no float contact.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .geometry import ConvexPolygon, convex_hull
from .maps import TorusLift, grid_starts, iterate, project_to_torus

__all__ = [
    "PeriodicOrbit",
    "PeriodicSearch",
    "ParityCertificate",
    "find_periodic",
    "parity_certificate",
    "realized_vectors",
]

_NEWTON_TOL = 1e-12
_RESIDUAL_TOL = 1e-9
_DEDUP_TOL = 1e-6
_FD_STEP = 1e-6
_MAX_NEWTON_ITERS = 50
_MAX_STEP = 0.5  # damping: per-component Newton step clamp
# The continuum flag: distinct roots against converged Newton runs. A run of
# one seed per target converges for one to four targets on lm (1.6-3.8 runs
# per seed at 5² to 40² seeds), a re-targeted run once; 2/3 gives the
# per-target verdicts of lm at q = 1..3, box 1 and 2, 5² to 32² seeds.
_CONTINUUM_FRACTION = 0.25  # of converged (target, seed) runs
_CONTINUUM_FRACTION_RETARGETED = 2 / 3  # of converged seeds
_CONTINUUM_SAMPLE = 16
# Most rows per Newton batch: seeds, each picking its own targets, or the
# (target, seed) pairs of a small search. Newton's one call per iteration
# iterates five points per row, and peak RSS grows with the cap: 2048 rows
# cost about 0.4 MB more than 1024 in the benchmark's cover-periodic run.
_BATCH_ROWS = 1024
# Most (target, seed) pairs that run once per pair, fixed target each: from
# few seeds, re-targeting reaches fewer roots (lm q=3 at 5×5 seeds: 12 of
# its 32 orbits, against 28 once per target). Larger searches run each seed
# once, re-targeted; this many rows cost about what the default 64² grid does.
_PER_TARGET_ROWS = 4096


@dataclass(frozen=True)
class PeriodicOrbit:
    point: tuple[float, float]  # orbit representative in [0,1)²
    period: int
    displacement: tuple[int, int]  # exact integer p with F^q(x) = x + p
    residual: float  # ‖F^q(point) − point − p‖∞

    @property
    def rotation_vector(self) -> tuple[Fraction, Fraction]:
        return (
            Fraction(self.displacement[0], self.period),
            Fraction(self.displacement[1], self.period),
        )

    def to_json_dict(self) -> dict:
        return {
            "point": [self.point[0], self.point[1]],
            "period": self.period,
            "displacement": [self.displacement[0], self.displacement[1]],
            "rotation_vector": {
                "num": [self.displacement[0], self.displacement[1]],
                "den": self.period,
            },
            "residual": self.residual,
        }


@dataclass(frozen=True)
class PeriodicSearch:
    """Search outcome: isolated orbits, or a flag that roots form a continuum.

    When a large share of converged Newton runs land on mutually distinct
    roots (a quarter of the per-target runs, two thirds of the re-targeted
    ones), Newton is telling us the fixed-point set is not isolated (every
    point of some region is a root); `orbits` then holds a small
    representative sample instead of one entry per seed.
    """

    orbits: tuple[PeriodicOrbit, ...]
    period: int
    non_isolated: bool
    seeds_total: int
    seeds_converged: int
    seeds_singular: int

    def __iter__(self):
        return iter(self.orbits)

    def __len__(self):
        return len(self.orbits)


class ParityCertificate(NamedTuple):
    determinant: int
    independent: bool


def _torus_dist_inf(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    d = np.abs(a - b) % 1.0
    d = np.minimum(d, 1.0 - d)
    return np.maximum(d[..., 0], d[..., 1])  # a reduce over axis -1 is slower


def _residual(lift: TorusLift, u: np.ndarray, q: int, p: np.ndarray) -> np.ndarray:
    """‖F^q(u) − u − p‖∞ per point."""
    return np.max(np.abs(iterate(lift, u, q) - u - p), axis=-1)


def _newton_batch(lift: TorusLift, seeds: np.ndarray, q: int, targets=None):
    """Damped Newton on G(x) = F^q(x) − x − p from every seed at once. With
    `targets` (the shape of seeds, (N, 2)), seed i solves for its own fixed
    p = targets[i]; without, each seed is retargeted on every iteration:
    p = round(F^q(x) − x), taken from the G call itself, so a seed runs
    once whatever its root's displacement.

    Returns (roots, targets, converged mask, singular mask); rows that did
    not converge hold their seed. The Jacobian is a central difference,
    solved as an explicit 2×2 system; seeds where it degenerates are
    dropped and marked singular (constant-displacement maps have DF^q = I
    everywhere, so G is affine-degenerate and Newton is moot — such seeds
    either start converged or are unsolvable). Each iteration makes one
    `iterate` call on the active seeds x and their four probes
    x ± h·e₀, x ± h·e₁, as one (5, n, 2) batch; converged and singular
    seeds then leave together, a converged seed never counted singular.
    """
    retarget = targets is None
    x = seeds.copy()
    p = np.zeros_like(seeds) if retarget else targets
    converged = np.zeros(len(x), dtype=bool)
    singular = np.zeros(len(x), dtype=bool)
    xa, ta, idx = seeds, p, np.arange(len(x))
    e0, e1 = np.array([_FD_STEP, 0.0]), np.array([0.0, _FD_STEP])

    for _ in range(_MAX_NEWTON_ITERS):
        if len(idx) == 0:
            break
        f = iterate(lift, np.stack([xa, xa + e0, xa - e0, xa + e1, xa - e1]), q)
        g = f[0] - xa
        pa = np.round(g) if retarget else ta
        g -= pa
        done = np.max(np.abs(g), axis=-1) <= _NEWTON_TOL
        jac = (f[1::2] - f[2::2]) / (2 * _FD_STEP)  # columns ∂F/∂x₀, ∂F/∂x₁
        a = jac[0, :, 0] - 1.0
        c = jac[0, :, 1]
        b = jac[1, :, 0]
        d = jac[1, :, 1] - 1.0
        det = a * d - b * c
        bad = ((np.abs(det) < 1e-12) | ~np.isfinite(det)) & ~done
        converged[idx[done]] = True
        x[idx[done]] = xa[done]
        if retarget:
            p[idx[done]] = pa[done]
        singular[idx[bad]] = True
        keep = ~(done | bad)
        if not keep.all():
            xa, ta, g, idx = xa[keep], ta[keep], g[keep], idx[keep]
            a, b, c, d, det = a[keep], b[keep], c[keep], d[keep], det[keep]
        dx0 = (-g[:, 0] * d + g[:, 1] * b) / det
        dx1 = (-g[:, 1] * a + g[:, 0] * c) / det
        step = np.clip(np.stack([dx0, dx1], axis=-1), -_MAX_STEP, _MAX_STEP)
        xa = xa + step
        finite = np.all(np.isfinite(xa), axis=-1)
        if not finite.all():
            xa, ta, idx = xa[finite], ta[finite], idx[finite]

    return x, p, converged, singular


def _greedy_distinct(disp: np.ndarray, reps: np.ndarray, orbits: np.ndarray) -> np.ndarray:
    """Indices of the roots kept by a greedy pass in array order: keep root
    i, then mask out every later root with the same displacement whose
    orbit `orbits[:, later]` ((k, roots, 2), k points per root) comes within
    1e-6 of reps[i]."""
    label = np.unique(disp, axis=0, return_inverse=True)[1].reshape(-1)
    alive = np.ones(len(disp), dtype=bool)
    kept = []
    for i in range(len(disp)):
        if not alive[i]:
            continue
        kept.append(i)
        later = i + 1 + np.flatnonzero(alive[i + 1 :] & (label[i + 1 :] == label[i]))
        near = np.min(_torus_dist_inf(orbits[:, later], reps[i]), axis=0) <= _DEDUP_TOL
        alive[later[near]] = False
    return np.asarray(kept, dtype=np.intp)


def check_search(q: int, displacement_box: int, seed_grid) -> None:
    """ValueError unless the period is positive, the box nonnegative and the
    seed grid nonempty."""
    if q < 1:
        raise ValueError("period must be a positive integer")
    if displacement_box < 0:
        raise ValueError("displacement box must be ≥ 0")
    if int(seed_grid[0]) < 1 or int(seed_grid[1]) < 1:
        raise ValueError("seed grid must be nonempty")


def find_periodic(
    lift: TorusLift,
    q: int,
    displacement_box: int = 2,
    seed_grid=(64, 64),
) -> PeriodicSearch:
    """All period-q orbits reachable by Newton from a seed grid.

    Solves F^q(x) = x + p for integer p with |p|∞ ≤ displacement_box·q.
    Seeds, row-major, run as Newton batches of at most `_BATCH_ROWS` rows;
    each seed picks its own target p, the nearest integer to F^q(x) − x, on
    every iteration, and a converged seed is kept when its p lies in the
    box. When the (p, seed) pairs, p₁ outer, p₂ inner and seeds row-major,
    number at most `_PER_TARGET_ROWS`, each pair runs instead, with p fixed.
    `seeds_converged` counts the seeds with a kept root, `seeds_singular`
    the other seeds that were dropped at a degenerate Jacobian. Kept roots
    are reduced to the torus, deduplicated at distance 1e-6, filtered
    against lower divisor periods, and collapsed to one representative per
    orbit (the lexicographically smallest orbit point). Dedup and collapse
    are greedy in lexicographic root order: keep a root, then mask out
    every later root with the same p within 1e-6 of it (of its orbit, for
    the collapse). Results are sorted by point.
    """
    check_search(q, displacement_box, seed_grid)
    rows, cols = int(seed_grid[0]), int(seed_grid[1])
    seeds = grid_starts(rows, cols, 0.5)

    bound = displacement_box * q
    pairs = (2 * bound + 1) ** 2 * len(seeds)
    if pairs <= _PER_TARGET_ROWS:
        span = np.arange(-bound, bound + 1, dtype=float)
        targets = np.stack(np.meshgrid(span, span, indexing="ij"), axis=-1).reshape(-1, 2)
        t, seed_of = np.divmod(np.arange(pairs), len(seeds))
        fixed, fraction = targets[t], _CONTINUUM_FRACTION
    else:
        fixed, seed_of, fraction = None, np.arange(len(seeds)), _CONTINUUM_FRACTION_RETARGETED
    found_u, found_p = [np.empty((0, 2))], [np.empty((0, 2))]  # roots in [0,1)², their p
    seed_converged = np.zeros(len(seeds), dtype=bool)
    seed_singular = np.zeros(len(seeds), dtype=bool)
    runs_converged = 0
    for first in range(0, len(seed_of), _BATCH_ROWS):
        batch = slice(first, first + _BATCH_ROWS)
        roots, p, conv, sing = _newton_batch(
            lift, seeds[seed_of[batch]], q, None if fixed is None else fixed[batch]
        )
        seed_singular[seed_of[batch][sing]] = True
        conv &= np.max(np.abs(p), axis=-1) <= bound
        if not conv.any():
            continue
        runs_converged += int(conv.sum())
        seed_converged[seed_of[batch][conv]] = True
        u, p = project_to_torus(roots[conv]), p[conv]
        ok = _residual(lift, u, q, p) <= _RESIDUAL_TOL
        found_u.append(u[ok])
        found_p.append(p[ok])
    u, p = np.concatenate(found_u), np.concatenate(found_p)

    # point-level dedup (flag statistics count distinct roots, not orbits)
    order = np.lexsort((u[:, 1], u[:, 0]))
    u, p = u[order], p[order]
    distinct = _greedy_distinct(p, u, u[None])
    u, p = u[distinct], p[distinct]

    non_isolated = runs_converged > 0 and len(u) > fraction * runs_converged

    # q = 1: no lower period, each root is its own orbit, and dedup left them apart and sorted
    if q > 1:
        orbit = [u]
        z = u
        for _ in range(q - 1):
            z = iterate(lift, z, 1)
            orbit.append(project_to_torus(z))
        orbit = np.stack(orbit)  # (q, roots, 2)

        # drop roots whose true period divides q properly
        lower = np.zeros(len(u), dtype=bool)
        for d in range(1, q):
            if q % d == 0:
                lower |= _torus_dist_inf(orbit[d], u) <= _DEDUP_TOL
        u, p, orbit = u[~lower], p[~lower], orbit[:, ~lower]

        # collapse orbit mates to the lexicographically smallest orbit point;
        # membership is tested against the whole orbit, not the representative
        # alone — near the 0/1 wrap the lexicographic minimum of an orbit is
        # not stable under the float noise of iterating from different roots
        best = np.lexsort((orbit[..., 1], orbit[..., 0]), axis=0)[0]
        reps = orbit[best, np.arange(len(u))]
        mates = _greedy_distinct(p, reps, orbit)
        u, p = reps[mates], p[mates]

        order = np.lexsort((u[:, 1], u[:, 0]))
        u, p = u[order], p[order]
    orbits = [
        PeriodicOrbit((float(pt[0]), float(pt[1])), q, (int(pv[0]), int(pv[1])), float(r))
        for pt, pv, r in zip(u, p, _residual(lift, u, q, p))
        if r <= _RESIDUAL_TOL  # else a mate drifted past tolerance; its root is reported
    ]
    if non_isolated:
        orbits = orbits[:_CONTINUUM_SAMPLE]
    return PeriodicSearch(
        tuple(orbits),
        q,
        bool(non_isolated),
        rows * cols,
        int(seed_converged.sum()),
        int((seed_singular & ~seed_converged).sum()),
    )


def parity_certificate(k2, k3, n2: int = 1, n3: int = 1) -> ParityCertificate:
    """Determinant of the matrix with columns k2+(1,0), k3+(0,1), exactly.

    k2 and k3 must have even integer components. Writing k2 = (2p₂, 2q₂)
    and k3 = (2p₃, 2q₃), the determinant (2p₂+1)(2q₃+1) − 2p₃·2q₂ is odd,
    hence nonzero: the two columns are always linearly independent. Python
    integers make the arithmetic exact at any magnitude.
    """
    k2 = (int(k2[0]), int(k2[1]))
    k3 = (int(k3[0]), int(k3[1]))
    if any(c % 2 != 0 for c in (*k2, *k3)):
        raise ValueError("k2 and k3 must have even components")
    if n2 < 1 or n3 < 1:
        raise ValueError("n2 and n3 must be positive integers")
    det = (k2[0] + 1) * (k3[1] + 1) - k3[0] * k2[1]
    assert det % 2 != 0, "even determinant contradicts the parity argument"
    return ParityCertificate(determinant=det, independent=det != 0)


def realized_vectors(orbits) -> ConvexPolygon:
    """Convex hull of the orbits' rational rotation vectors."""
    orbits = list(orbits)
    if not orbits:
        raise ValueError("need at least one orbit")
    pts = [
        (o.displacement[0] / o.period, o.displacement[1] / o.period)
        for o in orbits
    ]
    return convex_hull(pts)

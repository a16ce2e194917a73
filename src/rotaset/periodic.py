"""Periodic orbits of torus maps and their exact rational rotation vectors.

Roots of G(x) = F^q(x) − x − p are found by damped Newton iteration run in
parallel from a seed grid, for every integer displacement p in a box. The
displacement of a converged orbit is the exact integer p it was solved
for, so rotation vectors are exact rationals p/q with no float contact.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .geometry import ConvexPolygon, convex_hull
from .maps import TorusLift, iterate

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
_CONTINUUM_FRACTION = 0.25
_CONTINUUM_SAMPLE = 16


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

    When more than 25% of converged seeds land on mutually distinct roots,
    Newton is telling us the fixed-point set is not isolated (every point of
    some region is a root); `orbits` then holds a small representative
    sample instead of one entry per seed.
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
    return np.max(d, axis=-1)


def _newton_batch(lift: TorusLift, seeds: np.ndarray, q: int, p: np.ndarray):
    """Damped Newton on G(x) = F^q(x) − x − p from every seed at once.

    Returns (roots, converged mask, singular-seed count). The Jacobian is a
    central difference, solved as an explicit 2×2 system; seeds where it
    degenerates are dropped and counted (constant-displacement maps have
    DF^q = I everywhere, so G is affine-degenerate and Newton is moot —
    such seeds either start converged or are unsolvable).
    """
    x = seeds.copy()
    n = len(x)
    active = np.ones(n, dtype=bool)
    converged = np.zeros(n, dtype=bool)
    singular = np.zeros(n, dtype=bool)

    for _ in range(_MAX_NEWTON_ITERS):
        if not active.any():
            break
        xa = x[active]
        g = iterate(lift, xa, q) - xa - p
        res = np.max(np.abs(g), axis=-1)
        done = res <= _NEWTON_TOL

        idx = np.flatnonzero(active)
        converged[idx[done]] = True
        active[idx[done]] = False
        if not (~done).any():
            break
        xa = xa[~done]
        g = g[~done]
        idx = idx[~done]

        e0 = np.array([_FD_STEP, 0.0])
        e1 = np.array([0.0, _FD_STEP])
        j00_10 = (iterate(lift, xa + e0, q) - iterate(lift, xa - e0, q)) / (2 * _FD_STEP)
        j01_11 = (iterate(lift, xa + e1, q) - iterate(lift, xa - e1, q)) / (2 * _FD_STEP)
        a = j00_10[:, 0] - 1.0
        c = j00_10[:, 1]
        b = j01_11[:, 0]
        d = j01_11[:, 1] - 1.0
        det = a * d - b * c
        bad = (np.abs(det) < 1e-12) | ~np.isfinite(det)
        if bad.any():
            singular[idx[bad]] = True
            active[idx[bad]] = False
            keep = ~bad
            xa, g, idx = xa[keep], g[keep], idx[keep]
            a, b, c, d, det = a[keep], b[keep], c[keep], d[keep], det[keep]
        if len(idx) == 0:
            continue
        dx0 = (-g[:, 0] * d + g[:, 1] * b) / det
        dx1 = (-g[:, 1] * a + g[:, 0] * c) / det
        step = np.clip(np.stack([dx0, dx1], axis=-1), -_MAX_STEP, _MAX_STEP)
        xa = xa + step
        finite = np.all(np.isfinite(xa), axis=-1)
        if not finite.all():
            active[idx[~finite]] = False
            xa, idx = xa[finite], idx[finite]
        x[idx] = xa

    return x, converged, int(singular.sum())


def _proper_divisors(q: int):
    return [d for d in range(1, q) if q % d == 0]


def _orbit_points(lift: TorusLift, u: np.ndarray, q: int) -> np.ndarray:
    pts = [u]
    z = u
    for _ in range(q - 1):
        z = iterate(lift, z, 1)
        pts.append(z - np.floor(z))
    return np.asarray(pts)


def find_periodic(
    lift: TorusLift,
    q: int,
    displacement_box: int = 2,
    seed_grid=(64, 64),
) -> PeriodicSearch:
    """All period-q orbits reachable by Newton from a seed grid.

    For each integer p with |p|∞ ≤ displacement_box·q, solves
    F^q(x) = x + p. Converged roots are reduced to the torus, deduplicated
    at distance 1e-6, filtered against lower divisor periods, and collapsed
    to one representative per orbit (the lexicographically smallest orbit
    point). Results are sorted by point.
    """
    if q < 1:
        raise ValueError("period must be a positive integer")
    if displacement_box < 0:
        raise ValueError("displacement box must be ≥ 0")
    rows, cols = int(seed_grid[0]), int(seed_grid[1])
    ii, jj = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    seeds = np.stack([(ii + 0.5) / rows, (jj + 0.5) / cols], axis=-1).reshape(-1, 2)

    bound = displacement_box * q
    raw_roots = []  # (u in [0,1)², p)
    total_converged = 0
    total_singular = 0
    for p1 in range(-bound, bound + 1):
        for p2 in range(-bound, bound + 1):
            p = np.array([p1, p2], dtype=float)
            roots, conv, nsing = _newton_batch(lift, seeds, q, p)
            total_singular += nsing
            if not conv.any():
                continue
            total_converged += int(conv.sum())
            good = roots[conv]
            u = good - np.floor(good)
            res = np.max(np.abs(iterate(lift, u, q) - u - p), axis=-1)
            ok = res <= _RESIDUAL_TOL
            for point in u[ok]:
                raw_roots.append((point, (p1, p2)))

    if not raw_roots:
        return PeriodicSearch((), q, False, rows * cols, total_converged, total_singular)

    # point-level dedup (flag statistics count distinct roots, not orbits)
    points = np.asarray([r[0] for r in raw_roots])
    order = np.lexsort((points[:, 1], points[:, 0]))
    distinct: list[tuple[np.ndarray, tuple[int, int]]] = []
    for i in order:
        u, p = points[i], raw_roots[i][1]
        if any(_torus_dist_inf(u, v) <= _DEDUP_TOL and p == pv for v, pv in distinct):
            continue
        distinct.append((u, p))

    non_isolated = total_converged > 0 and len(distinct) > _CONTINUUM_FRACTION * total_converged

    # drop roots whose true period divides q properly
    filtered = []
    for u, p in distinct:
        is_lower = False
        for d in _proper_divisors(q):
            z = iterate(lift, u, d)
            k = np.round(z - u)
            if (
                np.max(np.abs(z - u - k)) <= _DEDUP_TOL
                and _torus_dist_inf(z - np.floor(z), u) <= _DEDUP_TOL
            ):
                is_lower = True
                break
        if not is_lower:
            filtered.append((u, p))

    # collapse orbit mates to the lexicographically smallest orbit point;
    # membership is tested against the whole orbit, not the representative
    # alone — near the 0/1 wrap the lexicographic minimum of an orbit is not
    # stable under the float noise of iterating from different roots
    collapsed: list[tuple[np.ndarray, tuple[int, int]]] = []
    for u, p in filtered:
        orbit = _orbit_points(lift, u, q)
        if any(
            p == pv and float(np.min(_torus_dist_inf(orbit, v))) <= _DEDUP_TOL
            for v, pv in collapsed
        ):
            continue
        best = min(range(q), key=lambda j: (orbit[j][0], orbit[j][1]))
        collapsed.append((orbit[best], p))

    orbits = []
    for u, p in sorted(collapsed, key=lambda t: (t[0][0], t[0][1])):
        pv = np.asarray(p, dtype=float)
        residual = float(np.max(np.abs(iterate(lift, u, q) - u - pv)))
        if residual > _RESIDUAL_TOL:
            continue  # mate drifted past tolerance; original root already reported
        orbits.append(
            PeriodicOrbit(
                point=(float(u[0]), float(u[1])),
                period=q,
                displacement=(int(p[0]), int(p[1])),
                residual=residual,
            )
        )

    if non_isolated:
        orbits = orbits[:_CONTINUUM_SAMPLE]

    return PeriodicSearch(
        orbits=tuple(orbits),
        period=q,
        non_isolated=bool(non_isolated),
        seeds_total=rows * cols,
        seeds_converged=total_converged,
        seeds_singular=total_singular,
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

"""Planar convex geometry for rotation-set estimates.

Hulls are stored in a canonical form (counterclockwise, starting at the
lexicographically smallest vertex) so that equal sets serialize to equal
bytes. Degenerate hulls — a single point or a segment — are first-class:
every operation here accepts them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConvexPolygon",
    "convex_hull",
    "polygon_area",
    "polygon_diameter",
    "hausdorff_distance",
    "affine_image",
    "contains_point",
    "point_to_polygon_distance",
]

# A vertex within this fraction of the bounding-box diagonal of the chord
# joining its neighbours is treated as collinear and dropped; keeps hulls
# of float point clouds stable without discarding genuinely distant points.
_COLLINEAR_REL_TOL = 1e-12


@dataclass(frozen=True)
class ConvexPolygon:
    """Vertices in CCW order, first vertex lexicographically smallest.

    1 vertex = point, 2 vertices = segment.
    """

    vertices: tuple[tuple[float, float], ...]

    def __post_init__(self):
        verts = tuple((float(x), float(y)) for x, y in self.vertices)
        if not verts:
            raise ValueError("polygon needs at least one vertex")
        object.__setattr__(self, "vertices", verts)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.vertices, dtype=float)

    @property
    def is_point(self) -> bool:
        return len(self.vertices) == 1

    @property
    def is_segment(self) -> bool:
        return len(self.vertices) == 2


def _canonical(verts: np.ndarray) -> ConvexPolygon:
    """Rotate a CCW vertex loop so the lexicographic minimum comes first."""
    keys = [(v[0], v[1]) for v in verts]
    start = min(range(len(keys)), key=keys.__getitem__)
    ordered = np.roll(verts, -start, axis=0)
    return ConvexPolygon(tuple(map(tuple, ordered)))


def convex_hull(points) -> ConvexPolygon:
    """Monotone-chain hull with a relative collinearity tolerance.

    Accepts any iterable of (x, y); duplicates are fine. Returns a point or
    segment when the input is degenerate at tolerance.
    """
    pts = np.asarray(list(points) if not isinstance(points, np.ndarray) else points, dtype=float)
    if pts.size == 0:
        raise ValueError("need at least one point")
    pts = pts.reshape(-1, 2)
    if not np.all(np.isfinite(pts)):
        raise ValueError("non-finite input point")
    pts = np.unique(pts, axis=0)  # sorts lexicographically
    if len(pts) == 1:
        return ConvexPolygon((tuple(pts[0]),))

    span = pts.max(axis=0) - pts.min(axis=0)
    dist_tol = _COLLINEAR_REL_TOL * max(math.hypot(float(span[0]), float(span[1])), 1e-300)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def chord_dist(o, a, p):
        # distance from a to the segment [o, p]; the segment (not the line),
        # so a near-collinear vertex overhanging an endpoint is never dropped
        dx, dy = p[0] - o[0], p[1] - o[1]
        denom = dx * dx + dy * dy
        if denom == 0.0:
            return math.hypot(a[0] - o[0], a[1] - o[1])
        t = ((a[0] - o[0]) * dx + (a[1] - o[1]) * dy) / denom
        t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
        return math.hypot(a[0] - (o[0] + t * dx), a[1] - (o[1] + t * dy))

    def half(seq):
        chain = []
        for p in seq:
            while len(chain) >= 2:
                o, a = chain[-2], chain[-1]
                if cross(o, a, p) <= 0.0 or chord_dist(o, a, p) <= dist_tol:
                    chain.pop()
                else:
                    break
            chain.append(p)
        return chain

    # the chains run on Python floats: the same IEEE operations in the same
    # order as on numpy scalars, so the same bits, at a fraction of the cost
    rows = pts.tolist()
    lower = half(rows)
    upper = half(rows[::-1])
    verts = lower[:-1] + upper[:-1]
    if len(verts) < 2:
        # all points collinear at tolerance: keep the two lexicographic extremes
        verts = [rows[0], rows[-1]]
    return _canonical(np.asarray(verts))


def polygon_area(poly: ConvexPolygon) -> float:
    """Shoelace area; 0 for points and segments."""
    v = poly.as_array()
    if len(v) < 3:
        return 0.0
    x, y = v[:, 0], v[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def polygon_diameter(poly: ConvexPolygon) -> float:
    v = poly.as_array()
    if len(v) == 1:
        return 0.0
    d = v[:, None, :] - v[None, :, :]
    return float(np.sqrt(np.max(np.sum(d * d, axis=-1))))


def _segment_distance(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distances from points p (...,2) to segment [a, b]."""
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        diff = p - a
        return np.sqrt(np.sum(diff * diff, axis=-1))
    t = np.clip(((p - a) @ ab) / denom, 0.0, 1.0)
    proj = a + t[..., None] * ab
    diff = p - proj
    return np.sqrt(np.sum(diff * diff, axis=-1))


def point_to_polygon_distance(p, poly: ConvexPolygon) -> float:
    """Euclidean distance from p to the (filled) polygon; 0 inside."""
    pt = np.asarray(p, dtype=float)
    v = poly.as_array()
    if len(v) == 1:
        return float(np.hypot(*(pt - v[0])))
    if len(v) == 2:
        return float(_segment_distance(pt[None, :], v[0], v[1])[0])
    edges = list(zip(v, np.roll(v, -1, axis=0)))
    # exact half-plane test: vertices and exactly-collinear edge points give a
    # cross product of exactly 0.0, and an absolute slack would swallow the
    # true (tiny) distances of points just outside a micro-scale polygon
    inside = all(
        (b[0] - a[0]) * (pt[1] - a[1]) - (b[1] - a[1]) * (pt[0] - a[0]) >= 0.0
        for a, b in edges
    )
    if inside:
        return 0.0
    return float(min(_segment_distance(pt[None, :], a, b)[0] for a, b in edges))


def hausdorff_distance(a: ConvexPolygon, b: ConvexPolygon) -> float:
    """Hausdorff distance between filled convex polygons.

    For convex bodies the one-sided supremum is attained at a vertex, so
    max over vertex-to-body distances in both directions is exact.
    """
    d_ab = max(point_to_polygon_distance(v, b) for v in a.vertices)
    d_ba = max(point_to_polygon_distance(v, a) for v in b.vertices)
    return max(d_ab, d_ba)


def affine_image(poly: ConvexPolygon, scale: float, offset=(0.0, 0.0)) -> ConvexPolygon:
    """Image under p -> scale·p + offset, re-canonicalized.

    Scalar scaling has Jacobian determinant scale² > 0, so orientation is
    preserved even for negative scale (a point reflection); the loop stays
    CCW and only the starting vertex needs recomputing. Scale 0 collapses
    to a point.
    """
    off = np.asarray(offset, dtype=float)
    v = poly.as_array() * float(scale) + off
    if scale == 0.0 or len(v) == 1:
        return ConvexPolygon((tuple(v[0]),))
    return _canonical(v)


def contains_point(poly: ConvexPolygon, p, tol: float = 0.0) -> bool:
    """True if p lies within distance tol of the filled polygon."""
    return point_to_polygon_distance(p, poly) <= tol

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

# The hull drops, before its chain, the points that lie deeper than a margin
# inside every edge of the polygon of the input's extreme points in 8
# directions: this fraction of the bounding-box diagonal, 1000 times the
# collinearity tolerance, so that no dropped point decides a step of the
# chain; plus this fraction of the largest coordinate magnitude, for clouds
# far from the origin, where the chain's rounding exceeds its tolerance (with
# the diagonal term alone, micro-scale clouds at base 1e3 and 1e6 in
# tests/test_geometry.py gave other vertices).
_PREFILTER_REL_MARGIN = 1e-9
_PREFILTER_ABS_MARGIN = 1e-12

# Vertex-edge pairs `hausdorff_distance` takes at once, so that each of its
# (pairs, 2) temporaries stays near 1 MB.
_PAIR_BLOCK = 1 << 16


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


def _drop_deep_interior(pts: np.ndarray) -> np.ndarray:
    """pts without the points that lie more than the prefilter margin inside
    every edge of the octagon of its extreme points in the directions of x,
    y, x + y and x − y (both signs), in input order."""
    x, y = pts[:, 0], pts[:, 1]
    s, d = x + y, x - y
    # one extreme per direction, counterclockwise from -x: a convex loop
    octagon = pts[
        [x.argmin(), s.argmin(), y.argmin(), d.argmax(), x.argmax(), s.argmax(), y.argmax(), d.argmin()]
    ]
    # the octagon holds the extremes of x and y: pts' bounding box and magnitude
    span = octagon.max(axis=0) - octagon.min(axis=0)
    if not span.any():
        return pts  # one point, repeated
    margin = _PREFILTER_REL_MARGIN * math.hypot(float(span[0]), float(span[1]))
    margin += _PREFILTER_ABS_MARGIN * float(np.abs(octagon).max())
    deep = np.ones(len(pts), dtype=bool)
    for a, b in zip(octagon, np.roll(octagon, -1, axis=0)):
        ex, ey = b - a
        if ex or ey:  # not one point extreme in two directions
            deep &= ex * (y - a[1]) - ey * (x - a[0]) > margin * math.hypot(ex, ey)
    return pts[~deep]


def convex_hull(points) -> ConvexPolygon:
    """Monotone-chain hull with a relative collinearity tolerance.

    Accepts any iterable of (x, y); duplicates are fine. Returns a point or
    segment when the input is degenerate at tolerance.

    A prefilter first drops every point that lies deeper than a margin inside
    each edge of the polygon of the input's extreme points in 8 directions
    (min and max of x, y, x + y and x − y). The margin is
    `_PREFILTER_REL_MARGIN` times the bounding-box diagonal plus
    `_PREFILTER_ABS_MARGIN` times the largest coordinate magnitude. Such a
    point is never a vertex, and at that depth it decides no step of the
    chain: the hull is the whole input's, bit for bit, which the tests check
    against the unfiltered chain on clouds built to break it. A cloud of
    16384 rotation-set averages keeps a few dozen points.
    """
    pts = np.asarray(list(points) if not isinstance(points, np.ndarray) else points, dtype=float)
    if pts.size == 0:
        raise ValueError("need at least one point")
    pts = pts.reshape(-1, 2)
    if not np.all(np.isfinite(pts)):
        raise ValueError("non-finite input point")
    pts = _drop_deep_interior(pts)
    bits = pts.view(np.uint64)
    if (bits == bits[0]).all():  # one point repeated bit for bit, as -0.0 is not 0.0
        return ConvexPolygon((tuple(pts[0]),))
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


def _dot(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """p · q along the last axis. Each pair is one `@` of a row by a column,
    which numpy hands to its dot routine: the rounding of ``u @ v`` on two
    2-vectors, which a BLAS may fuse into a multiply-add, whatever the batch.
    A matrix-vector `@` or explicit products and sums round differently."""
    return (p[..., None, :] @ q[..., :, None])[..., 0, 0]


def _segment_distances(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distances from points p (n, 2) to the segments [a[j], b[j]] (m, 2),
    shape (n, m); a segment of zero length is its point a[j]."""
    ab = b - a
    denom = _dot(ab, ab)
    pa = p[:, None, :] - a
    t = np.divide(_dot(pa, ab), denom, out=np.zeros(pa.shape[:2]), where=denom != 0.0)
    diff = p[:, None, :] - (a + np.clip(t, 0.0, 1.0)[..., None] * ab)
    return np.sqrt(diff[..., 0] * diff[..., 0] + diff[..., 1] * diff[..., 1])


def _distances_to_polygon(p: np.ndarray, poly: ConvexPolygon) -> np.ndarray:
    """Euclidean distances from points p (n, 2) to the filled polygon; 0
    inside. Every vertex-edge pair is one array element."""
    v = poly.as_array()
    if len(v) == 1:
        d = p - v[0]
        return np.hypot(d[:, 0], d[:, 1])
    if len(v) == 2:
        return _segment_distances(p, v[:1], v[1:])[:, 0]
    a, b = v, np.roll(v, -1, axis=0)
    # exact half-plane test: vertices and exactly-collinear edge points give a
    # cross product of exactly 0.0, and an absolute slack would swallow the
    # true (tiny) distances of points just outside a micro-scale polygon
    cross = (b[:, 0] - a[:, 0]) * (p[:, None, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (p[:, None, 0] - a[:, 0])
    inside = (cross >= 0.0).all(axis=1)
    return np.where(inside, 0.0, _segment_distances(p, a, b).min(axis=1))


def point_to_polygon_distance(p, poly: ConvexPolygon) -> float:
    """Euclidean distance from p to the (filled) polygon; 0 inside."""
    return float(_distances_to_polygon(np.asarray(p, dtype=float).reshape(1, 2), poly)[0])


def _farthest_vertex_distance(a: ConvexPolygon, b: ConvexPolygon) -> float:
    """The largest distance from a vertex of a to the filled polygon b, from
    blocks of a's vertices of at most `_PAIR_BLOCK` vertex-edge pairs."""
    v = a.as_array()
    rows = max(1, _PAIR_BLOCK // len(b.vertices))
    return max(float(_distances_to_polygon(v[i : i + rows], b).max()) for i in range(0, len(v), rows))


def hausdorff_distance(a: ConvexPolygon, b: ConvexPolygon) -> float:
    """Hausdorff distance between filled convex polygons.

    For convex bodies the one-sided supremum is attained at a vertex, so
    max over vertex-to-body distances in both directions is exact.
    """
    return max(_farthest_vertex_distance(a, b), _farthest_vertex_distance(b, a))


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

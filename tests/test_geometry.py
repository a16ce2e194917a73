import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotaset import (
    ConvexPolygon,
    IntegerTranslate,
    affine_image,
    contains_point,
    convex_hull,
    estimate_rotation_set,
    hausdorff_distance,
    point_to_polygon_distance,
    polygon_area,
    polygon_diameter,
)
from rotaset import geometry
from rotaset.geometry import (
    _COLLINEAR_REL_TOL,
    _PREFILTER_ABS_MARGIN,
    _PREFILTER_REL_MARGIN,
    _canonical,
    _drop_deep_interior,
)
from rotaset.rotation import DEFAULT_HORIZONS

from .conftest import UNIT_SQUARE

coords = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)
points = st.tuples(coords, coords)
point_lists = st.lists(points, min_size=1, max_size=40)


def test_hull_square_with_interior_point():
    hull = convex_hull([(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5), (0.2, 0.7)])
    assert hull.vertices == UNIT_SQUARE.vertices


def test_hull_canonical_start_and_orientation():
    hull = convex_hull([(1, 1), (0, 1), (1, 0), (0, 0)])
    assert hull.vertices[0] == (0.0, 0.0)  # lexicographic minimum first
    v = hull.as_array()
    a, b = v[1] - v[0], v[2] - v[1]
    assert a[0] * b[1] - a[1] * b[0] > 0  # counterclockwise


def test_hull_degenerate_point_and_segment():
    pt = convex_hull([(0.3, 0.4), (0.3, 0.4)])
    assert pt.is_point and pt.vertices == ((0.3, 0.4),)
    seg = convex_hull([(0, 0), (0.5, 0.5), (1, 1), (0.25, 0.25)])
    assert seg.is_segment
    assert seg.vertices == ((0.0, 0.0), (1.0, 1.0))


@pytest.mark.parametrize(
    "cloud",
    [[(0.0, 0.5), (-0.0, 0.5), (0.0, 0.5)], [(-0.0, 0.5), (0.0, 0.5)], [(0.25, -0.0), (0.25, 0.0)]],
    ids=["zero-first", "minus-zero-first", "minus-zero-y"],
)
def test_hull_of_a_cloud_mixing_zero_and_minus_zero_is_uniques_point(cloud):
    # 0.0 and -0.0 rows are not one point bit for bit: np.unique picks the vertex
    hull = convex_hull(np.tile(cloud, (5000, 1)))
    assert np.asarray(hull.vertices).view(np.uint64).tolist() == np.unique(cloud, axis=0).view(np.uint64).tolist()


@pytest.mark.parametrize("point", [(-0.0, 0.5), (0.3, -0.0), (-0.0, -0.0), (1e300, -1e-300)])
def test_hull_of_one_repeated_point_keeps_its_bits(point):
    hull = convex_hull(np.tile(point, (16384, 1)))
    assert np.asarray(hull.vertices).view(np.uint64).tolist() == np.asarray([point]).view(np.uint64).tolist()


def test_hull_collinear_tolerance():
    # a midpoint nudged by far less than the relative tolerance collapses
    hull = convex_hull([(0, 0), (0.5, 1e-15), (1, 0)])
    assert seg_or_fewer(hull)


def seg_or_fewer(poly):
    return len(poly.vertices) <= 2


@given(point_lists)
@settings(max_examples=200)
def test_hull_contains_all_inputs_and_uses_only_inputs(pts):
    hull = convex_hull(pts)
    for p in pts:
        assert contains_point(hull, p, tol=1e-9)
    inputs = {(float(x), float(y)) for x, y in pts}
    for v in hull.vertices:
        assert v in inputs


@given(point_lists)
@settings(max_examples=100)
def test_hull_idempotent(pts):
    hull = convex_hull(pts)
    again = convex_hull(hull.vertices)
    assert hausdorff_distance(hull, again) <= 1e-12


@given(point_lists, point_lists)
@settings(max_examples=100)
def test_hull_monotone_under_union(pts_a, pts_b):
    """hull(A) sits inside hull(A ∪ B)."""
    big = convex_hull(list(pts_a) + list(pts_b))
    small = convex_hull(pts_a)
    for v in small.vertices:
        assert contains_point(big, v, tol=1e-9)


def test_area_examples():
    assert polygon_area(UNIT_SQUARE) == 1.0
    assert polygon_area(convex_hull([(0, 0), (2, 0), (0, 2)])) == pytest.approx(2.0)
    assert polygon_area(ConvexPolygon(((0.0, 0.0),))) == 0.0
    assert polygon_area(ConvexPolygon(((0.0, 0.0), (1.0, 1.0)))) == 0.0


def test_diameter_examples():
    assert polygon_diameter(UNIT_SQUARE) == pytest.approx(np.sqrt(2.0))
    assert polygon_diameter(ConvexPolygon(((0.25, 0.5),))) == 0.0


def test_hausdorff_examples():
    assert hausdorff_distance(UNIT_SQUARE, UNIT_SQUARE) == 0.0
    shifted = affine_image(UNIT_SQUARE, 1.0, (0.1, 0.0))
    assert hausdorff_distance(UNIT_SQUARE, shifted) == pytest.approx(0.1)
    pt = ConvexPolygon(((2.0, 1.0),))
    # farthest square point from (2,1) is the corner (0,0)
    assert hausdorff_distance(pt, UNIT_SQUARE) == pytest.approx(np.sqrt(5.0))


def test_hausdorff_point_inside_region():
    pt = ConvexPolygon(((0.5, 0.5),))
    # the point is inside, but the region reaches out to the corners
    assert hausdorff_distance(pt, UNIT_SQUARE) == pytest.approx(np.sqrt(0.5))


def test_hausdorff_dense_sampling_oracle(rng):
    """Vertex-based distance agrees with brute-force boundary sampling."""
    a = convex_hull(rng.random((12, 2)))
    b = convex_hull(rng.random((12, 2)) + np.asarray([0.4, 0.1]))

    def boundary(poly, k=400):
        v = poly.as_array()
        out = []
        for i in range(len(v)):
            p, q = v[i], v[(i + 1) % len(v)]
            t = np.linspace(0, 1, k, endpoint=False)[:, None]
            out.append(p + t * (q - p))
        return np.vstack(out)

    got = hausdorff_distance(a, b)
    brute = max(
        max(point_to_polygon_distance(p, b) for p in boundary(a)),
        max(point_to_polygon_distance(p, a) for p in boundary(b)),
    )
    assert got == pytest.approx(brute, abs=1e-6)
    assert got >= brute - 1e-12  # vertex form attains the supremum


@given(point_lists, point_lists, point_lists)
@settings(max_examples=50)
def test_hausdorff_triangle_inequality(pa, pb, pc):
    a, b, c = convex_hull(pa), convex_hull(pb), convex_hull(pc)
    assert hausdorff_distance(a, c) <= hausdorff_distance(a, b) + hausdorff_distance(b, c) + 1e-9


def test_affine_examples():
    scaled = affine_image(UNIT_SQUARE, 2.0, (1.0, -1.0))
    assert scaled.vertices == ((1.0, -1.0), (3.0, -1.0), (3.0, 1.0), (1.0, 1.0))
    assert polygon_area(scaled) == 4.0
    collapsed = affine_image(UNIT_SQUARE, 0.0, (0.3, 0.3))
    assert collapsed.is_point and collapsed.vertices == ((0.3, 0.3),)


def test_affine_negative_scale_stays_ccw():
    flipped = affine_image(UNIT_SQUARE, -1.0)
    v = flipped.as_array()
    a, b = v[1] - v[0], v[2] - v[1]
    assert a[0] * b[1] - a[1] * b[0] > 0
    assert polygon_area(flipped) == 1.0
    assert flipped.vertices[0] == (-1.0, -1.0)


@given(point_lists, st.floats(-3, 3, allow_nan=False), points)
@settings(max_examples=100)
def test_affine_scales_area_and_distance(pts, s, t):
    hull = convex_hull(pts)
    img = affine_image(hull, s, t)
    assert polygon_area(img) == pytest.approx(s * s * polygon_area(hull), abs=1e-9)
    other = affine_image(hull, 1.0, (0.25, 0.0))
    d = hausdorff_distance(hull, other)
    d_img = hausdorff_distance(img, affine_image(other, s, t))
    assert d_img == pytest.approx(abs(s) * d, abs=1e-9)


def test_point_distance_inside_and_outside():
    assert point_to_polygon_distance((0.5, 0.5), UNIT_SQUARE) == 0.0
    assert point_to_polygon_distance((2.0, 0.5), UNIT_SQUARE) == pytest.approx(1.0)
    assert point_to_polygon_distance((-1.0, -1.0), UNIT_SQUARE) == pytest.approx(np.sqrt(2.0))
    seg = ConvexPolygon(((0.0, 0.0), (1.0, 0.0)))
    assert point_to_polygon_distance((0.5, 0.5), seg) == pytest.approx(0.5)


def test_hull_rejects_bad_input():
    with pytest.raises(ValueError):
        convex_hull([])
    with pytest.raises(ValueError):
        convex_hull([(np.nan, 0.0)])


# --- convex_hull against the numpy-scalar monotone chain ---------------------


def _convex_hull_reference(points) -> ConvexPolygon:
    """The monotone chain on numpy rows and scalars, kept verbatim as the
    reference: convex_hull runs the same operations on Python floats."""
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

    lower = half(pts)
    upper = half(pts[::-1])
    verts = lower[:-1] + upper[:-1]
    if len(verts) < 2:
        # all points collinear at tolerance: keep the two lexicographic extremes
        verts = [pts[0], pts[-1]]
    return _canonical(np.asarray(verts))


def _clouds():
    rng = np.random.default_rng(20261018)
    lattice = np.stack(np.meshgrid(np.arange(7) / 7, np.arange(5) / 5), axis=-1).reshape(-1, 2)
    line = np.linspace(0.0, 1.0, 64)
    tol = _COLLINEAR_REL_TOL * math.hypot(3.0, 1.0)  # the tolerance on the line below
    on_line = np.stack([3.0 * line, line], axis=-1)
    normal = np.stack([-line, 3.0 * line], axis=-1) / math.hypot(3.0, 1.0)
    yield "point", [(0.3, -0.7)]
    yield "point-duplicated", [(0.3, -0.7)] * 5
    for seed, n in enumerate((3, 10, 100, 2000)):
        yield f"uniform-{n}", rng.uniform(-1.0, 1.0, (n, 2))
        yield f"normal-{n}", rng.normal(0.5, 1e-3 * (seed + 1), (n, 2))
        yield f"disk-{n}", _on_circle(rng.uniform(0.0, 2.0 * math.pi, n))
    yield "lattice", lattice
    yield "lattice-duplicated", np.concatenate([lattice, lattice[::3], lattice[::-2]])
    yield "uniform-duplicated", np.repeat(rng.uniform(0.0, 1.0, (50, 2)), 3, axis=0)
    yield "collinear", on_line
    yield "collinear-shuffled", rng.permutation(on_line)
    yield "collinear-vertical", np.stack([np.zeros(64), line], axis=-1)
    yield "two-points", [(1.0, 2.0), (-1.0, 0.5)]
    for scale in (0.1, 0.5, 0.99, 1.01, 10.0):
        bumps = scale * tol * rng.uniform(-1.0, 1.0, (64, 1))
        yield f"near-collinear-{scale}", on_line + bumps * normal


def _on_circle(angles):
    return np.stack([np.cos(angles), np.sin(angles)], axis=-1)


@pytest.mark.parametrize("name, pts", list(_clouds()), ids=[name for name, _ in _clouds()])
def test_hull_equals_the_numpy_scalar_chain(name, pts):
    assert convex_hull(pts) == _convex_hull_reference(pts)


@given(point_lists)
@settings(max_examples=200)
def test_hull_equals_the_numpy_scalar_chain_on_any_points(pts):
    assert convex_hull(pts) == _convex_hull_reference(pts)


@pytest.mark.parametrize("offset", [0.0, 0.37])
def test_hull_equals_the_numpy_scalar_chain_on_lm_averages(lm, offset):
    est = estimate_rotation_set(lm, (64, 64), (100, 500), offset=offset)
    averages = np.asarray([s.displacement_average for s in est.samples])
    hull = _convex_hull_reference(averages)
    assert hull == convex_hull(averages) == est.hull
    assert len(hull.vertices) >= (4 if offset == 0.0 else 3)


# --- the hull's prefilter on clouds built to trip it --------------------------


def _octagon_margin_cloud(rng):
    """A regular octagon whose vertices are the extremes in its 8 directions,
    with points spread along each edge just inside and just outside the
    prefilter margin, on the edge and within the collinearity tolerance of
    it; the margin as convex_hull computes it."""
    verts = _on_circle(np.arange(8) * math.pi / 4)
    margin = _PREFILTER_REL_MARGIN * math.hypot(2.0, 2.0) + _PREFILTER_ABS_MARGIN * 1.0
    tol = _COLLINEAR_REL_TOL * math.hypot(2.0, 2.0)
    depths = [margin * (1 + r) for r in (-1e-3, -1e-6, 0.0, 1e-6, 1e-3)] + [0.0, tol, -tol, 2 * margin]
    out = [verts]
    for a, b in zip(verts, np.roll(verts, -1, axis=0)):
        t = rng.uniform(0.0, 1.0, (len(depths), 8, 1))
        inward = np.array([-(b - a)[1], (b - a)[0]]) / math.hypot(*(b - a))
        out.append((a + t * (b - a) + np.asarray(depths)[:, None, None] * inward).reshape(-1, 2))
    return np.concatenate(out)


def _near_collinear_edge_cloud(rng):
    """A triangle whose long edge carries vertices bumped off it by about the
    collinearity tolerance, with interior points spread along that edge just
    inside and just outside the prefilter margin."""
    line = np.linspace(0.0, 1.0, 64)[:, None]
    a, b = np.array([0.0, 0.0]), np.array([3.0, 1.0])
    normal = np.array([-1.0, 3.0]) / math.hypot(3.0, 1.0)  # points into the triangle
    span = math.hypot(3.0, 2.0)
    tol = _COLLINEAR_REL_TOL * span
    margin = _PREFILTER_REL_MARGIN * span + _PREFILTER_ABS_MARGIN * 3.0
    edge = a + line * (b - a) + tol * rng.uniform(-1.0, 1.0, (64, 1)) * normal
    depths = margin * rng.choice([0.999, 1.001, 2.0, 1e3], (256, 1))
    inner = a + rng.uniform(0.0, 1.0, (256, 1)) * (b - a) + depths * normal
    return np.concatenate([edge, inner, [(0.0, 2.0)]])


def _micro_clouds(rng, base, span, shape):
    """Ten clouds each of 30, 200 and 1000 points of one shape and span, far
    from the origin: at base 1e6 and span 1e-9 the coordinates take about 17
    values per axis, and the chain's rounding is far above its tolerance."""
    for n in (30, 200, 1000):
        for _ in range(10):
            if shape == "uniform":
                yield base + span * rng.uniform(-1.0, 1.0, (n, 2))
            else:
                yield base + span * _on_circle(rng.uniform(0.0, 2 * math.pi, n))


MICRO = [
    (base, span, shape)
    for base in (1e3, 1e6, 1e9)
    for span in (1e-12, 1e-9, 1e-6)
    for shape in ("uniform", "circle")
]


@pytest.mark.parametrize("base, span, shape", MICRO, ids=[f"{b:g}+{s:g}-{c}" for b, s, c in MICRO])
def test_hull_equals_the_numpy_scalar_chain_on_micro_clouds_far_out(base, span, shape):
    rng = np.random.default_rng(MICRO.index((base, span, shape)))
    for pts in _micro_clouds(rng, base, span, shape):
        assert convex_hull(pts) == _convex_hull_reference(pts)


@pytest.mark.parametrize("cloud", [_octagon_margin_cloud, _near_collinear_edge_cloud])
def test_hull_equals_the_numpy_scalar_chain_at_the_prefilter_margin(cloud):
    pts = cloud(np.random.default_rng(20261019))
    assert len(_drop_deep_interior(pts)) < len(pts)  # the prefilter took part
    assert convex_hull(pts) == _convex_hull_reference(pts)


@pytest.mark.parametrize("offset", [0.0, 0.37, 0.5])
def test_hull_equals_the_numpy_scalar_chain_on_translated_lm_averages(lm, offset):
    lift = IntegerTranslate(lm, (2, -1))
    for horizon in DEFAULT_HORIZONS:
        est = estimate_rotation_set(lift, horizons=(horizon,), offset=offset)
        averages = np.asarray([s.displacement_average for s in est.samples])
        assert len(_drop_deep_interior(averages)) < len(averages) // 100
        assert convex_hull(averages) == _convex_hull_reference(averages) == est.hull


def _segment_distance_reference(p, a, b):
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        diff = p - a
        return np.sqrt(np.sum(diff * diff, axis=-1))
    t = np.clip(((p - a) @ ab) / denom, 0.0, 1.0)
    proj = a + t[..., None] * ab
    diff = p - proj
    return np.sqrt(np.sum(diff * diff, axis=-1))


def _point_to_polygon_reference(p, poly):
    pt = np.asarray(p, dtype=float)
    v = poly.as_array()
    if len(v) == 1:
        return float(np.hypot(*(pt - v[0])))
    if len(v) == 2:
        return float(_segment_distance_reference(pt[None, :], v[0], v[1])[0])
    edges = list(zip(v, np.roll(v, -1, axis=0)))
    inside = all((b[0] - a[0]) * (pt[1] - a[1]) - (b[1] - a[1]) * (pt[0] - a[0]) >= 0.0 for a, b in edges)
    if inside:
        return 0.0
    return float(min(_segment_distance_reference(pt[None, :], a, b)[0] for a, b in edges))


def _hausdorff_reference(a, b):
    """The Python loop over every (vertex, edge) pair, one numpy call each."""
    d_ab = max(_point_to_polygon_reference(v, b) for v in a.vertices)
    d_ba = max(_point_to_polygon_reference(v, a) for v in b.vertices)
    return max(d_ab, d_ba)


def _distance_hulls(rng):
    """Hulls of random clouds and of points on a circle (as many vertices as
    points) at scales 1e-6 to 1e6, segments, points, a segment whose two
    ends are one point, and a polygon with a repeated vertex (a zero-length
    edge)."""
    for n in (3, 5, 24, 64):
        for scale in (1e-6, 1.0, 1e6):
            shift = scale * rng.standard_normal(2)
            yield convex_hull(scale * rng.standard_normal((n, 2)) + shift)
            yield convex_hull(scale * _on_circle(rng.random(n) * 2 * math.pi) + shift)
    for _ in range(6):
        yield convex_hull(rng.standard_normal(2) + np.outer(rng.standard_normal(4), rng.standard_normal(2)))
        yield ConvexPolygon((tuple(rng.standard_normal(2)),))
    yield ConvexPolygon(((0.25, 0.5), (0.25, 0.5)))
    yield ConvexPolygon(((0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (0.0, 1.0)))


def test_hausdorff_equals_the_per_pair_loop():
    """Every distance, and the Hausdorff distance of every pair of hulls,
    has the bits of the per-pair loop."""
    rng = np.random.default_rng(20261020)
    hulls = list(_distance_hulls(rng))
    assert max(len(h.vertices) for h in hulls) == 64
    for i, a in enumerate(hulls):
        for b in hulls[i % 3 :: 3]:  # a third of the pairs, each kind of hull against each
            assert hausdorff_distance(a, b) == _hausdorff_reference(a, b)
        probes = np.concatenate([a.as_array(), a.as_array().mean(axis=0) + rng.standard_normal((20, 2))])
        for p in probes:
            assert point_to_polygon_distance(p, a) == _point_to_polygon_reference(p, a)


def test_hausdorff_blocks_give_the_same_distance(monkeypatch):
    rng = np.random.default_rng(7)
    a = convex_hull(_on_circle(rng.random(150) * 2 * math.pi))
    b = convex_hull(_on_circle(rng.random(120) * 2 * math.pi) + 0.01)
    whole = hausdorff_distance(a, b)
    monkeypatch.setattr(geometry, "_PAIR_BLOCK", 7)
    assert hausdorff_distance(a, b) == whole == _hausdorff_reference(a, b)

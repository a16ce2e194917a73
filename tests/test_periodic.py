import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotaset import (
    Identity,
    IterationError,
    PeriodicOrbit,
    PeriodicSearch,
    TorusLift,
    Translation,
    contains_point,
    estimate_rotation_set,
    find_periodic,
    horseshoe_disk,
    iterate,
    lm_map,
    parity_certificate,
    polygon_area,
    realized_vectors,
)
from rotaset import periodic
from rotaset.periodic import (
    _CONTINUUM_FRACTION,
    _CONTINUUM_SAMPLE,
    _DEDUP_TOL,
    _FD_STEP,
    _MAX_NEWTON_ITERS,
    _MAX_STEP,
    _NEWTON_TOL,
    _RESIDUAL_TOL,
)

from .conftest import UNIT_SQUARE, EscapesRightHalf

even = st.integers(-500_000, 500_000).map(lambda k: 2 * k)
even_pair = st.tuples(even, even)


@pytest.fixture(scope="module")
def lm_fixed_points(lm):
    return find_periodic(lm, 1, displacement_box=2, seed_grid=(32, 32))


@pytest.fixture(scope="module")
def lm_period_two(lm):
    return find_periodic(lm, 2, displacement_box=1, seed_grid=(12, 12))


def test_lm_has_exactly_four_fixed_orbits(lm_fixed_points):
    r = lm_fixed_points
    assert not r.non_isolated
    assert len(r.orbits) == 4
    vectors = {o.rotation_vector for o in r.orbits}
    assert vectors == {
        (Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
        (Fraction(1), Fraction(1)),
    }
    for o in r.orbits:
        assert o.residual <= 1e-9
        assert o.period == 1


def test_lm_fixed_points_sit_at_half_lattice(lm_fixed_points):
    got = sorted(tuple(np.round(np.asarray(o.point) * 2).astype(int)) for o in lm_fixed_points.orbits)
    assert got == [(0, 0), (0, 1), (1, 0), (1, 1)]
    for o in lm_fixed_points.orbits:
        assert np.max(np.abs(np.asarray(o.point) * 2 - np.round(np.asarray(o.point) * 2))) <= 1e-6


def test_reported_orbits_reiterate(lm, lm_fixed_points):
    for o in lm_fixed_points.orbits:
        end = iterate(lm, o.point, o.period)
        want = np.asarray(o.point) + np.asarray(o.displacement, dtype=float)
        assert np.max(np.abs(end - want)) <= 1e-8


def test_identity_reports_continuum_not_point_list(identity):
    r = find_periodic(identity, 1, displacement_box=1, seed_grid=(16, 16))
    assert r.non_isolated
    assert 0 < len(r.orbits) <= 16  # representative sample, not 256 entries
    assert all(o.rotation_vector == (Fraction(0), Fraction(0)) for o in r.orbits)
    assert r.seeds_converged == 256


def test_half_translation_has_period_two_only():
    f = Translation((0.5, 0.0))
    r2 = find_periodic(f, 2, displacement_box=1, seed_grid=(8, 8))
    assert r2.non_isolated  # every point is periodic
    assert len(r2.orbits) > 0
    assert all(o.rotation_vector == (Fraction(1, 2), Fraction(0)) for o in r2.orbits)
    r1 = find_periodic(f, 1, displacement_box=1, seed_grid=(8, 8))
    assert len(r1.orbits) == 0
    assert not r1.non_isolated


def test_fixed_points_not_rereported_at_period_two(lm_period_two):
    r2 = lm_period_two
    fixed = {(0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (0.5, 0.5)}
    for o in r2.orbits:
        assert o.period == 2
        for fp in fixed:
            d = np.abs(np.asarray(o.point) - np.asarray(fp)) % 1.0
            d = np.minimum(d, 1.0 - d)
            assert np.max(d) > 1e-6


def test_orbit_mates_collapse(lm, lm_period_two):
    # period-2 orbits are listed once, via their smaller point, never twice
    r2 = lm_period_two
    pts = [o.point for o in r2.orbits]
    for i, a in enumerate(pts):
        mate = iterate(lm, a, 1)
        mate = tuple(mate - np.floor(mate))
        for j, b in enumerate(pts):
            if i == j:
                continue
            d = np.abs(np.asarray(mate) - np.asarray(b)) % 1.0
            d = np.minimum(d, 1.0 - d)
            assert np.max(d) > 1e-6, "orbit reported twice through a mate"


def test_find_periodic_validates(lm):
    with pytest.raises(ValueError):
        find_periodic(lm, 0)
    with pytest.raises(ValueError):
        find_periodic(lm, 1, displacement_box=-1)
    for grid in ((0, 0), (0, 4), (4, 0)):
        with pytest.raises(ValueError, match="seed grid"):
            find_periodic(lm, 1, seed_grid=grid)


def _torus_dist_inf(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    d = np.abs(a - b) % 1.0
    d = np.minimum(d, 1.0 - d)
    return np.max(d, axis=-1)


def _newton_batch_reference(lift: TorusLift, seeds: np.ndarray, q: int, p: np.ndarray):
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


def _find_periodic_reference(
    lift: TorusLift,
    q: int,
    displacement_box: int = 2,
    seed_grid=(64, 64),
) -> PeriodicSearch:
    """The per-target, per-root `find_periodic` that the batched array
    passes replace, kept verbatim as their reference.

    All period-q orbits reachable by Newton from a seed grid.

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
            roots, conv, nsing = _newton_batch_reference(lift, seeds, q, p)
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


def _assert_finds_reference(lift, got: PeriodicSearch, want: PeriodicSearch):
    """`got` is flagged as `want` is, and each of the reference's orbits has
    a reported orbit with the same displacement, one of whose points lies
    within 1e-6 of it on the torus. Seed counts and any extra orbits may
    differ: the reference counts (target, seed) runs and, above
    `_PER_TARGET_ROWS` pairs, the search runs Newton once per seed."""
    assert got.non_isolated == want.non_isolated
    assert got.seeds_converged <= got.seeds_total
    for o in want.orbits:
        assert any(
            n.displacement == o.displacement
            and np.min(_torus_dist_inf(_orbit_points(lift, np.asarray(n.point), q=o.period), o.point)) <= 1e-6
            for n in got.orbits
        ), f"reference orbit {o} not found"


@pytest.mark.parametrize(
    "lift, q, box, grid",
    [
        (lm_map(), 1, 2, (8, 8)),
        (lm_map(), 2, 1, (6, 9)),
        (lm_map(), 3, 1, (5, 5)),
        (Identity(), 1, 2, (12, 12)),
        (Identity(), 2, 1, (8, 8)),
        (Translation((0.5, 0.0)), 1, 1, (8, 8)),
        (Translation((0.5, 0.0)), 2, 2, (8, 8)),
        (horseshoe_disk(), 1, 1, (8, 8)),
        (horseshoe_disk(), 2, 1, (6, 6)),
    ],
    ids=["lm-q1", "lm-q2", "lm-q3", "identity-q1", "identity-q2",
         "half-translation-q1", "half-translation-q2", "horseshoe-q1", "horseshoe-q2"],
)
def test_find_periodic_matches_per_root_reference(lift, q, box, grid):
    want = _find_periodic_reference(lift, q, box, grid)
    _assert_finds_reference(lift, find_periodic(lift, q, box, grid), want)


def test_find_periodic_matches_reference_above_batch_cap(lm):
    side = math.isqrt(periodic._BATCH_ROWS) + 8  # the seeds span two batches
    want = _find_periodic_reference(lm, 1, 1, (side, side))
    _assert_finds_reference(lm, find_periodic(lm, 1, 1, (side, side)), want)


@pytest.mark.parametrize(
    "side, flagged", [(5, True), (8, True), (10, True), (12, False), (16, False), (24, False)]
)
def test_lm_period_three_flag_follows_per_target_verdicts(lm, side, flagged):
    # the verdicts of the per-target search at every side; from 10² seeds
    # the search runs once per seed. lm has 32 period-3 orbits, all isolated:
    # once unflagged the search lists them all
    r = find_periodic(lm, 3, 1, (side, side))
    assert r.non_isolated == flagged
    assert r.seeds_converged <= r.seeds_total
    if not flagged:
        assert len(r.orbits) == 32


def test_few_seeds_reach_more_orbits_once_per_target(lm, monkeypatch):
    # at 5×5 seeds the per-target runs reach 28 of lm's 32 period-3 orbits,
    # re-targeted runs 12; both flag the roots as a continuum
    monkeypatch.setattr(periodic, "_CONTINUUM_SAMPLE", 64)  # list every orbit found
    r = find_periodic(lm, 3, 1, (5, 5))
    assert (len(r.orbits), r.non_isolated) == (28, True)
    monkeypatch.setattr(periodic, "_PER_TARGET_ROWS", 0)
    r = find_periodic(lm, 3, 1, (5, 5))
    assert (len(r.orbits), r.non_isolated) == (12, True)


@pytest.mark.parametrize("grid", [4, 10, 34])
def test_orbit_points_lie_in_the_unit_square(lm, grid):
    # roots a hair below an integer used to reduce to 1.0, e.g. (0.5, 1.0) at 4²
    for o in find_periodic(lm, 1, 1, (grid, grid)).orbits:
        assert all(0.0 <= c < 1.0 for c in o.point), o.point


@pytest.mark.parametrize("cap", [5, 64])
def test_batch_boundaries_do_not_change_results(monkeypatch, lm, cap):
    want = find_periodic(lm, 2, 1, (3, 4))
    monkeypatch.setattr(periodic, "_BATCH_ROWS", cap)
    assert find_periodic(lm, 2, 1, (3, 4)) == want


@pytest.mark.parametrize("cap", [5, 64])
def test_batch_boundaries_do_not_change_retargeted_results(monkeypatch, lm, cap):
    monkeypatch.setattr(periodic, "_PER_TARGET_ROWS", 0)
    want = find_periodic(lm, 2, 1, (9, 10))
    monkeypatch.setattr(periodic, "_BATCH_ROWS", cap)
    assert find_periodic(lm, 2, 1, (9, 10)) == want


@pytest.mark.parametrize("side", [4, 24], ids=["per-target", "retargeted"])
@pytest.mark.parametrize(
    "lift, converged", [(Identity(), True), (Translation((0.5, 0.0)), False)], ids=["identity", "half-translation"]
)
def test_newton_seed_counters(lift, converged, side):
    # identity: every seed converges, none singular; a half translation has
    # DF = I and no fixed point, so every seed is singular
    r = find_periodic(lift, 1, 1, (side, side))
    n = side * side
    assert (r.seeds_total, r.seeds_converged, r.seeds_singular) == (n, n * converged, n * (not converged))
    _, _, conv, sing = periodic._newton_batch(lift, np.full((n, 2), 0.25), 1)
    assert conv.all() == converged and not (conv & sing).any()


def test_retargeted_search_builds_no_target_grid():
    # (2·400 + 1)² targets × 4 seeds are 2.6 million pairs: past the
    # per-target cap, so the grid of targets is never built
    tracemalloc.start()
    try:
        find_periodic(Identity(), 200, 2, (2, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak


def test_escape_names_first_start_of_first_batch():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IterationError) as err:
            find_periodic(EscapesRightHalf(), 1, 1, (4, 4))
    assert err.value.step == 1
    assert err.value.start == (0.625, 0.125)


def test_parity_certificate_examples():
    assert parity_certificate((0, 0), (0, 0)) == (1, True)
    assert parity_certificate((2, 4), (6, 2)) == (-15, True)
    assert parity_certificate((-2, 0), (0, -2)) == (1, True)


def test_parity_certificate_rejects_odd_components():
    with pytest.raises(ValueError):
        parity_certificate((1, 0), (0, 0))
    with pytest.raises(ValueError):
        parity_certificate((0, 0), (0, 3))
    with pytest.raises(ValueError):
        parity_certificate((2, 2), (2, 2), n2=0)


@given(even_pair, even_pair)
@settings(max_examples=500)
def test_parity_determinant_always_odd(k2, k3):
    det, independent = parity_certificate(k2, k3)
    assert det % 2 != 0
    assert independent


def test_parity_certificate_large_values_exact():
    # exact integer arithmetic far beyond float precision
    k = 2 * 10**18
    det, independent = parity_certificate((k, k), (k, k))
    assert det == (k + 1) * (k + 1) - k * k
    assert det % 2 == 1 and independent


def test_realized_vectors_examples(lm_fixed_points):
    hull = realized_vectors(lm_fixed_points.orbits)
    assert hull.vertices == UNIT_SQUARE.vertices

    single = realized_vectors(lm_fixed_points.orbits[:1])
    assert single.is_point and single.vertices == ((0.0, 0.0),)

    tri = realized_vectors(
        [o for o in lm_fixed_points.orbits if o.rotation_vector != (Fraction(1), Fraction(1))]
    )
    assert polygon_area(tri) == pytest.approx(0.5)

    with pytest.raises(ValueError):
        realized_vectors([])


def test_realized_vectors_inside_estimated_hull(lm, irrational_translation):
    est = estimate_rotation_set(lm, (32, 32), (100, 300))
    hull = realized_vectors(find_periodic(lm, 1, displacement_box=2, seed_grid=(32, 32)).orbits)
    slack = est.stability + 1e-6
    for v in hull.vertices:
        assert contains_point(est.hull, v, tol=slack)

from dataclasses import dataclass

import numpy as np
import pytest

from rotaset import (
    Identity,
    IntegerTranslate,
    Iterate,
    IterationError,
    RotationSample,
    TorusLift,
    Translation,
    check_iterate_scaling,
    check_translation_equivariance,
    convex_hull,
    estimate_rotation_set,
    hausdorff_distance,
    horseshoe_disk,
    interior_nonempty,
    iterate,
    lm_map,
    maps,
    polygon_area,
    polygon_diameter,
    rotation,
    rotation_vector,
)
from rotaset.serialize import canonical_json

from .conftest import IRRATIONAL, UNIT_SQUARE, EscapesRightHalf, _plain_orbit


def test_rotation_vector_translation():
    f = Translation(IRRATIONAL)
    rv = rotation_vector(f, (0.3, 0.9), 1000)
    assert np.max(np.abs(rv - np.asarray(IRRATIONAL))) <= 1e-12


def test_rotation_vector_lm_fixed_point(lm):
    rv = rotation_vector(lm, (0.5, 0.0), 100)
    assert tuple(rv) == (0.0, 1.0)
    assert tuple(rotation_vector(lm, (0.0, 0.5), 77)) == (1.0, 0.0)
    assert tuple(rotation_vector(lm, (0.5, 0.5), 12)) == (1.0, 1.0)


def test_rotation_vector_identity(identity):
    for n in (1, 10, 313):
        assert tuple(rotation_vector(identity, (0.123, 0.456), n)) == (0.0, 0.0)


def test_rotation_vector_validates():
    with pytest.raises(ValueError):
        rotation_vector(Identity(), (0.1, 0.2), 0)
    with pytest.raises(ValueError):
        rotation_vector(Identity(), (np.nan, 0.2), 5)


def test_estimate_lm_small_grid_hits_unit_square(lm):
    # the lattice grid contains the four displacement-realizing points,
    # whose float orbits are exact, so the hull is the unit square exactly
    est = estimate_rotation_set(lm, (32, 32), (100, 200))
    assert est.hull.vertices == UNIT_SQUARE.vertices
    assert hausdorff_distance(est.hull, UNIT_SQUARE) == 0.0


def test_estimate_offset_grid_sees_only_generic_orbits(lm):
    # cell-center starts avoid the low-period lattice points; at finite
    # horizon the hull stays strictly inside the unit square by a margin
    est = estimate_rotation_set(lm, (32, 32), (100, 200), offset=0.5)
    assert polygon_area(est.hull) < 1.0
    assert hausdorff_distance(est.hull, UNIT_SQUARE) > 0.05
    for s in est.samples:
        x, y = s.displacement_average
        assert 0.0 < x < 1.0 and 0.0 < y < 1.0


def test_estimate_translation_degenerate(irrational_translation):
    est = estimate_rotation_set(irrational_translation, (16, 16), (100, 1000))
    assert polygon_diameter(est.hull) <= 1e-12
    assert np.max(np.abs(np.asarray(est.hull.vertices[0]) - np.asarray(IRRATIONAL))) <= 1e-12


def test_estimate_identity_point_at_origin(identity):
    est = estimate_rotation_set(identity, (8, 8), (100, 250))
    assert est.hull.is_point
    assert est.hull.vertices == ((0.0, 0.0),)
    assert est.stability == 0.0


def test_estimate_fields_are_consistent(lm):
    est = estimate_rotation_set(lm, (16, 16), (100, 200, 400))
    assert len(est.per_horizon_hulls) == len(est.horizons)
    assert est.per_horizon_hulls[-1] == est.hull
    assert len(est.hull_distances) == 2
    assert est.stability == est.hull_distances[-1]
    assert len(est.samples) == 256
    assert all(s.horizon == 400 for s in est.samples)


def test_samples_recompute(lm):
    est = estimate_rotation_set(lm, (8, 8), (50, 120))
    for s in est.samples[::7]:
        rv = rotation_vector(lm, s.start, s.horizon)
        assert np.max(np.abs(rv - np.asarray(s.displacement_average))) <= 1e-12


def test_samples_inside_hull(lm):
    from rotaset import contains_point

    est = estimate_rotation_set(lm, (24, 24), (100, 300), offset=0.5)
    for s in est.samples:
        assert contains_point(est.hull, s.displacement_average, tol=1e-9)


def test_estimate_validates_inputs(lm):
    with pytest.raises(ValueError):
        estimate_rotation_set(lm, (0, 8), (100,))
    with pytest.raises(ValueError):
        estimate_rotation_set(lm, (8, 8), (200, 100))
    with pytest.raises(ValueError):
        estimate_rotation_set(lm, (8, 8), (100, 100))
    with pytest.raises(ValueError):
        estimate_rotation_set(lm, (8, 8), ())


def test_worker_partition_independence(lm, monkeypatch):
    # the default block holds the whole grid; then blocks of 1 and 3 rows
    ja = canonical_json(estimate_rotation_set(lm, (48, 16), (60, 120)).to_json_dict(include_samples=True))
    for rows in (1, 3):
        monkeypatch.setattr(maps, "_BLOCK_POINTS", rows * 16)
        est = estimate_rotation_set(lm, (48, 16), (60, 120))
        assert canonical_json(est.to_json_dict(include_samples=True)) == ja


def test_translation_equivariance_discrepancies(lm, irrational_translation):
    assert check_translation_equivariance(lm, (0, 0), (16, 16), (100, 200)) == 0.0
    assert check_translation_equivariance(lm, (1, 0), (16, 16), (100, 200)) <= 1e-9
    assert (
        check_translation_equivariance(irrational_translation, (2, -1), (8, 8), (100, 200))
        <= 1e-12
    )


def test_iterate_scaling_discrepancies(lm, identity, irrational_translation):
    assert check_iterate_scaling(identity, 2, (8, 8), (100, 200)) == 0.0
    assert check_iterate_scaling(irrational_translation, 3, (8, 8), (120, 300)) <= 1e-9
    assert check_iterate_scaling(lm, 2, (64, 64), (100, 500, 2000)) <= 0.1
    with pytest.raises(ValueError):
        check_iterate_scaling(lm, 1, (8, 8), (100,))


def test_interior_flags(lm, irrational_translation, horseshoe):
    est_lm = estimate_rotation_set(lm, (32, 32), (100, 500))
    assert interior_nonempty(est_lm, 0.1)
    est_rot = estimate_rotation_set(irrational_translation, (8, 8), (100, 500))
    assert not interior_nonempty(est_rot, 0.1)
    est_hs = estimate_rotation_set(horseshoe, (16, 16), (100, 200))
    assert not interior_nonempty(est_hs, 0.1)
    with pytest.raises(ValueError):
        interior_nonempty(est_lm, 0.0)


def test_stabilization_tightens(lm):
    est = estimate_rotation_set(lm, (32, 32), (50, 200, 800))
    assert est.stability <= est.hull_distances[0] + 1e-15


def test_iterate_and_translate_estimates_share_orbits(lm):
    # the combinators' torus streams coincide with the base map's, so the
    # estimates relate by exact affine maps, not merely approximately
    base = estimate_rotation_set(lm, (16, 16), (80, 160))
    doubled = estimate_rotation_set(Iterate(lm, 2), (16, 16), (40, 80))
    shifted = estimate_rotation_set(IntegerTranslate(lm, (3, 2)), (16, 16), (80, 160))
    b = np.asarray([s.displacement_average for s in base.samples])
    d = np.asarray([s.displacement_average for s in doubled.samples])
    s = np.asarray([s.displacement_average for s in shifted.samples])
    assert np.max(np.abs(d - 2.0 * b)) <= 1e-12
    assert np.max(np.abs(s - b - np.asarray([3.0, 2.0]))) <= 1e-12


@pytest.mark.filterwarnings("error")
def test_escape_names_step_and_plain_float_start():
    with pytest.raises(IterationError) as exc:
        estimate_rotation_set(EscapesRightHalf(), (8, 8), (5, 10))
    assert exc.value.step == 1
    assert exc.value.start == (0.5, 0.0)
    assert str(exc.value) == "orbit from start (0.5, 0.0) escaped at step 1"


@pytest.mark.parametrize("offset", [float("nan"), float("inf"), float("-inf")])
def test_nonfinite_offset_is_a_value_error_before_any_step(offset):
    # every start of this map escapes at step 1, so a step would raise
    # IterationError instead
    with pytest.raises(ValueError, match="offset must be finite"):
        estimate_rotation_set(EscapesRightHalf(), (8, 8), (5, 10), offset=offset)


def test_nan_area_threshold_is_a_value_error(irrational_translation):
    est = estimate_rotation_set(irrational_translation, (4, 4), (10, 20))
    with pytest.raises(ValueError, match="area threshold must be positive"):
        interior_nonempty(est, float("nan"))


def test_infinite_area_threshold_is_a_value_error(irrational_translation):
    # the CLI checks its --threshold with the same rule before the run
    est = estimate_rotation_set(irrational_translation, (4, 4), (10, 20))
    with pytest.raises(ValueError, match="area threshold must be positive and finite"):
        interior_nonempty(est, float("inf"))


def test_samples_read_as_a_sequence(lm):
    est = estimate_rotation_set(lm, (4, 8), (10, 20), offset=0.37)
    samples = tuple(est.samples)
    assert len(est.samples) == len(samples) == 32
    assert est.samples[-1] == samples[-1] and est.samples[3] == samples[3]
    assert est.samples[2:9:3] == samples[2:9:3]
    assert samples[5] == RotationSample(
        start=tuple(est.samples.starts[5].tolist()),
        horizon=20,
        displacement_average=tuple(est.samples.averages[5].tolist()),
    )
    with pytest.raises(IndexError):
        est.samples[32]
    assert est.to_json_dict(include_samples=True)["samples"] == [[*s.start, *s.displacement_average] for s in samples]
    assert hash(est) == hash(estimate_rotation_set(lm, (4, 8), (10, 20), offset=0.37))
    assert est.samples != estimate_rotation_set(lm, (4, 8), (10, 30), offset=0.37).samples
    assert est.samples != estimate_rotation_set(lm, (4, 8), (10, 20), offset=0.38).samples


# --- closed grids: walked by index doubling, the stepped bits ---------------

@dataclass(frozen=True)
class ShiftsAllButOne(TorusLift):
    """Shift by (1/16, 0), which maps the 16² grid onto itself, except at
    the start (0.5, 0.25), which lands 2⁻²⁰ off the grid."""

    def _apply(self, x, y, op):
        off = (x == 0.5) & (y == 0.25)
        return x + op.select(off, 1 / 16 + 2**-20, 1 / 16), y


WALK_HORIZONS = (1, 7, 100, 777, 2000)
CLOSED_LIFTS = {
    "lm": lm_map(),
    "integer-translate": IntegerTranslate(lm_map(), (2, -1)),
    "iterate": Iterate(lm_map(), 2),
    "identity": Identity(),
}


def _walks(monkeypatch):
    """Replace the walk that estimate_rotation_set calls by one that also
    records whether each grid was walked."""
    walked = []

    def recorded(*args):
        walk = maps.walk_closed_grid(*args)
        walked.append(walk is not None)
        return walk

    monkeypatch.setattr(rotation, "walk_closed_grid", recorded)
    return walked


def _stepped(monkeypatch, *args, **kwargs):
    """estimate_rotation_set with the walk turned off."""
    with monkeypatch.context() as mp:
        mp.setattr(rotation, "walk_closed_grid", lambda *a: None)
        return estimate_rotation_set(*args, **kwargs)


def _same_bits(a, b):
    assert a == b
    assert a.samples.averages.tobytes() == b.samples.averages.tobytes()
    assert canonical_json(a.to_json_dict(include_samples=True)) == canonical_json(b.to_json_dict(include_samples=True))


@pytest.mark.parametrize("n", [8, 32, 128])
@pytest.mark.parametrize("name", list(CLOSED_LIFTS))
def test_closed_grid_walk_gives_the_stepped_bits(monkeypatch, name, n):
    lift = CLOSED_LIFTS[name]
    walked = _walks(monkeypatch)
    est = estimate_rotation_set(lift, (n, n), WALK_HORIZONS)
    assert walked == [True]
    _same_bits(est, _stepped(monkeypatch, lift, (n, n), WALK_HORIZONS))


def test_closed_grid_walk_wraps_windings_as_the_steps_do():
    # each step adds about 2⁶² to the x winding: by step 2 it wraps past
    # int64, as the stepped cumulative sums do
    lift = IntegerTranslate(lm_map(), (2**62, -(2**62) + 1))
    steps = (1, 2, 3, 100, 513)
    walk_steps, us, ws = maps.walk_closed_grid(lift, 16, 8, 0.0, steps)
    assert walk_steps == steps
    chunks = list(maps.torus_orbit(lift, maps.grid_starts(16, 8, 0.0), max(steps)))
    stepped = {k: (u, w) for ks, su, sw in chunks for k, u, w in zip(ks, su, sw)}
    for k, u, w in zip(steps, us, ws):
        assert u.tobytes() == np.ascontiguousarray(stepped[k][0]).tobytes()
        assert w.dtype == np.int64 and np.array_equal(w, stepped[k][1])
    assert (ws[1][:, 0] < 0).any()  # wrapped
    with pytest.MonkeyPatch.context() as mp:
        _same_bits(estimate_rotation_set(lift, (16, 8), steps), _stepped(mp, lift, (16, 8), steps))


@pytest.mark.parametrize(
    "lift, grid, offset, steps",
    [
        pytest.param(lm_map(), (32, 32), 0.37, [1024], id="lm-offset"),
        pytest.param(lm_map(), (31, 31), 0.0, [961], id="lm-grid-31"),
        pytest.param(horseshoe_disk(), (8, 8), 0.0, [64], id="horseshoe-disk"),
        pytest.param(ShiftsAllButOne(), (16, 16), 0.0, [256], id="all-but-one"),
    ],
)
def test_grids_that_are_not_closed_are_stepped(monkeypatch, lift, grid, offset, steps):
    # `steps`: the points of each torus_step call of the walk's check, one
    # step of the whole grid
    calls = []
    step = maps.torus_step
    monkeypatch.setattr(maps, "torus_step", lambda lift, u: calls.append(len(u)) or step(lift, u))
    assert maps.walk_closed_grid(lift, *grid, offset, (2, 3)) is None
    assert calls == steps
    monkeypatch.undo()
    monkeypatch.setattr(rotation, "map_label", lambda lift: type(lift).__name__)  # ShiftsAllButOne has no spec
    walked = _walks(monkeypatch)
    est = estimate_rotation_set(lift, grid, (2, 3), offset=offset)
    assert walked == [False]
    _same_bits(est, _stepped(monkeypatch, lift, grid, (2, 3), offset=offset))


# Stepped grids of one-start rows, one start either side of the default
# block: the largest runs as a full block and a block of one start. The
# horizons are step 1, an interior step and the last. `horseshoe-disk`
# takes about 27 ms per step; its grid line y = 0.26 crosses the disk near
# its edge, where the hulls keep about 200 vertices (hausdorff_distance is
# quadratic in them: at y = 0.37 one estimate takes 9 s).
STEPPED_ROWS = [maps._BLOCK_POINTS - 1, maps._BLOCK_POINTS, maps._BLOCK_POINTS + 1]
STEPPED = {  # lift, horizons, offset
    "lm": (lm_map(), (1, 17, 40), 0.37),
    "wrapping-windings": (IntegerTranslate(lm_map(), (2**62, -(2**62) + 1)), (1, 17, 40), 0.37),
    "iterate": (Iterate(lm_map(), 2), (1, 17, 40), 0.37),
    "horseshoe-disk": (horseshoe_disk(), (1, 2, 3), 0.26),
}


@pytest.mark.parametrize("rows", STEPPED_ROWS)
@pytest.mark.parametrize("name", list(STEPPED))
def test_stepped_estimate_matches_a_plain_step_loop(monkeypatch, name, rows):
    lift, horizons, offset = STEPPED[name]
    walked = _walks(monkeypatch)
    est = estimate_rotation_set(lift, (rows, 1), horizons, offset=offset)
    assert walked == [False]
    u0 = maps.grid_starts(rows, 1, offset)
    us, ws = _plain_orbit(lift, u0, horizons[-1])
    averages = [(us[k - 1] - u0 + ws[k - 1]) / k for k in horizons]
    assert est.samples.starts.tobytes() == u0.tobytes()
    assert est.samples.averages.tobytes() == averages[-1].tobytes()
    assert est.per_horizon_hulls == tuple(convex_hull(a) for a in averages)


@pytest.mark.parametrize("name", list(STEPPED))
def test_last_step_of_rotation_vector_and_iterate_matches_a_plain_step_loop(name):
    lift, horizons, offset = STEPPED[name]
    n = horizons[-1]
    for points in (1, maps._FLOAT_STARTS + 1, 300):
        u0 = maps.grid_starts(points, 1, offset)
        us, ws = _plain_orbit(lift, u0, n)
        assert rotation_vector(lift, u0, n).tobytes() == ((us[-1] - u0 + ws[-1]) / n).tobytes()
        assert iterate(lift, u0, n).tobytes() == (us[-1] + ws[-1]).tobytes()

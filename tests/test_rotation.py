import numpy as np
import pytest

from rotaset import (
    Identity,
    IntegerTranslate,
    Iterate,
    IterationError,
    Translation,
    check_iterate_scaling,
    check_translation_equivariance,
    estimate_rotation_set,
    hausdorff_distance,
    interior_nonempty,
    polygon_area,
    polygon_diameter,
    rotation_vector,
)
from rotaset.serialize import canonical_json

from .conftest import IRRATIONAL, UNIT_SQUARE, EscapesRightHalf


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


def test_worker_partition_independence(lm):
    a = estimate_rotation_set(lm, (48, 16), (60, 120), workers=1)
    b = estimate_rotation_set(lm, (48, 16), (60, 120), workers=4)
    c = estimate_rotation_set(lm, (48, 16), (60, 120), workers=8)
    ja = canonical_json(a.to_json_dict(include_samples=True))
    assert ja == canonical_json(b.to_json_dict(include_samples=True))
    assert ja == canonical_json(c.to_json_dict(include_samples=True))


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

import numpy as np
import pytest

from rotaset import (
    BASE_TORUS,
    FOUR_FOLD,
    HORIZONTAL_DOUBLE,
    VERTICAL_DOUBLE,
    CoveringTorus,
    Translation,
    classify_occupancy,
    deck_translations,
    lift_to_covering,
    torus_step,
    transitivity_score,
)

from .conftest import IRRATIONAL

ALL_COVERS = [BASE_TORUS, HORIZONTAL_DOUBLE, VERTICAL_DOUBLE, FOUR_FOLD]


def test_cover_validation():
    assert CoveringTorus((2, 2)).factors == (2, 2)
    with pytest.raises(ValueError):
        CoveringTorus((3, 1))
    with pytest.raises(ValueError):
        CoveringTorus((0, 2))


def test_cover_labels():
    assert BASE_TORUS.label == "1x1"
    assert HORIZONTAL_DOUBLE.label == "2x1"
    assert VERTICAL_DOUBLE.label == "1x2"
    assert FOUR_FOLD.label == "2x2"


def test_deck_translations():
    assert deck_translations(FOUR_FOLD) == [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert deck_translations(BASE_TORUS) == [(0, 0)]
    assert deck_translations(HORIZONTAL_DOUBLE) == [(0, 0), (1, 0)]
    assert deck_translations(VERTICAL_DOUBLE) == [(0, 0), (0, 1)]


def test_deck_translations_project_to_same_base_point():
    dyn = lift_to_covering(Translation(IRRATIONAL), FOUR_FOLD)
    z = np.asarray([0.3, 0.8])
    base = dyn.project(z)
    for g in deck_translations(FOUR_FOLD):
        # materialized add-then-floor costs at most 1 ulp on non-dyadic coords
        shifted = dyn.project(z + np.asarray(g, dtype=float))
        assert np.max(np.abs(shifted - base)) <= 1e-15


@pytest.mark.parametrize("cover", ALL_COVERS, ids=lambda c: c.label)
def test_semi_conjugacy_along_orbits(cover, lm, irrational_translation, identity, rng):
    """Projecting a covering orbit reproduces the base orbit, step by step."""
    for f in (identity, irrational_translation, lm):
        dyn = lift_to_covering(f, cover)
        start = rng.random(2) * np.asarray(cover.factors, dtype=float)
        orb = dyn.orbit(start, 200)
        u = dyn.project(orb[0])
        for k in range(1, 201):
            u, _ = torus_step(f, u)
            assert np.max(np.abs(dyn.project(orb[k]) - u)) <= 1e-9


def test_semi_conjugacy_horseshoe_four_fold(horseshoe, rng):
    dyn = lift_to_covering(horseshoe, FOUR_FOLD)
    start = rng.random(2) * 2.0
    orb = dyn.orbit(start, 100)
    u = dyn.project(orb[0])
    for k in range(1, 101):
        u, _ = torus_step(horseshoe, u)
        assert np.max(np.abs(dyn.project(orb[k]) - u)) <= 1e-9


@pytest.mark.parametrize("cover", ALL_COVERS, ids=lambda c: c.label)
def test_deck_equivariance(cover, lm, rng):
    """Stepping commutes with every deck translation, in exact integers."""
    dyn = lift_to_covering(lm, cover)
    mod = np.asarray(cover.factors, dtype=np.int64)
    u = rng.random((16, 2))
    w = rng.integers(0, 4, size=(16, 2)) % mod
    for g in deck_translations(cover):
        g = np.asarray(g, dtype=np.int64)
        u_a, w_a = dyn.step_state(u, (w + g) % mod)
        u_b, w_b = dyn.step_state(u, w)
        assert np.array_equal(u_a, u_b)
        assert np.array_equal(w_a, (w_b + g) % mod)


def test_covering_points_stay_in_fundamental_domain(lm):
    dyn = lift_to_covering(lm, FOUR_FOLD)
    orb = dyn.orbit((1.9, 1.9), 500)
    assert np.all(orb >= 0.0)
    assert np.all(orb < 2.0)


def test_step_matches_orbit(lm):
    dyn = lift_to_covering(lm, VERTICAL_DOUBLE)
    orb = dyn.orbit((0.3, 1.4), 5)
    z = np.asarray([0.3, 1.4])
    for k in range(1, 6):
        z = dyn.step(z)
        assert np.max(np.abs(z - orb[k])) <= 1e-12


def test_transitivity_translation_four_fold(irrational_translation):
    rep = transitivity_score(
        irrational_translation, FOUR_FOLD, starts=((0.2, 0.3),), iterations=120_000, cell_resolution=16
    )
    assert rep.occupancy >= 0.99
    assert classify_occupancy(rep.occupancy) == "transitive-like"
    assert rep.occupancy >= max(rep.per_start_occupancy)
    assert rep.grid.shape == (32, 32)


def test_transitivity_banded_translation():
    f = Translation((IRRATIONAL[0], 0.0))
    rep = transitivity_score(f, BASE_TORUS, starts=((0.2, 0.3),), iterations=2000, cell_resolution=32)
    assert rep.occupancy <= 2 / 32
    assert classify_occupancy(rep.occupancy) == "obstructed"


def test_transitivity_identity_single_cells(identity):
    rep = transitivity_score(
        identity, FOUR_FOLD, starts=((0.2, 0.3), (1.5, 1.5)), iterations=5000, cell_resolution=8
    )
    cells = (2 * 8) * (2 * 8)
    assert rep.per_start_occupancy == (1 / cells, 1 / cells)
    assert rep.occupancy == 2 / cells


def test_transitivity_occupancy_monotone_in_iterations(irrational_translation):
    small = transitivity_score(
        irrational_translation, BASE_TORUS, starts=((0.2, 0.3),), iterations=1200, cell_resolution=16
    )
    big = transitivity_score(
        irrational_translation, BASE_TORUS, starts=((0.2, 0.3),), iterations=6000, cell_resolution=16
    )
    assert big.occupancy >= small.occupancy


def test_transitivity_requires_enough_iterations(identity):
    with pytest.raises(ValueError):
        transitivity_score(identity, FOUR_FOLD, starts=((0.1, 0.1),), iterations=100, cell_resolution=32)
    with pytest.raises(ValueError):
        transitivity_score(identity, BASE_TORUS, starts=(), iterations=5000, cell_resolution=8)
    with pytest.raises(ValueError):
        transitivity_score(identity, FOUR_FOLD, starts=((2.5, 0.1),), iterations=5000, cell_resolution=8)


@pytest.mark.parametrize("start", [(float("nan"), 0.2), (0.1, float("inf"))], ids=["nan", "inf"])
def test_transitivity_rejects_nonfinite_start(identity, start):
    with pytest.raises(ValueError, match="finite"):
        transitivity_score(identity, BASE_TORUS, starts=(start,), iterations=5000, cell_resolution=8)


def test_classification_thresholds():
    assert classify_occupancy(0.98) == "transitive-like"
    assert classify_occupancy(0.979) == "inconclusive"
    assert classify_occupancy(0.5) == "obstructed"
    assert classify_occupancy(0.51) == "inconclusive"

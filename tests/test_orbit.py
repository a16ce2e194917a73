"""Escaped orbits: every orbit loop raises the same error, naming the
earliest escaped step and the first start escaped there, at any worker
count and without a warning on the way. Grid runs give the same results
and errors at any block size and worker count."""
import warnings

import numpy as np
import pytest

from rotaset import (
    BASE_TORUS,
    IterationError,
    dynamical_distance,
    estimate_rotation_set,
    iterate,
    lift_to_covering,
    maps,
    rotation_vector,
    transitivity_score,
)
from rotaset.entropy import orbit_table

from .conftest import EscapesAfterShift, EscapesInALaterBlockFirst, EscapesRightHalf

ESCAPES = EscapesRightHalf()

# Each runs one orbit loop on a batch whose first start escaping at step 1
# is (0.5, 0.0); the others never escape or escape only later.
ENTRY_POINTS = {
    "iterate": lambda: iterate(ESCAPES, (0.5, 0.0), 3),
    "rotation_vector": lambda: rotation_vector(ESCAPES, (0.5, 0.0), 3),
    "estimate_rotation_set": lambda: estimate_rotation_set(ESCAPES, (8, 8), (2, 3)),
    "orbit_table": lambda: orbit_table(ESCAPES, 32, 3),
    "dynamical_distance": lambda: dynamical_distance(ESCAPES, (0.5, 0.0), (0.25, 0.25), 3),
    "covering_orbit": lambda: lift_to_covering(ESCAPES, BASE_TORUS).orbit((0.5, 0.0), 3),
    "transitivity_score": lambda: transitivity_score(
        ESCAPES, BASE_TORUS, starts=((0.25, 0.25), (0.5, 0.0)), iterations=4, cell_resolution=2
    ),
}


def _escape(run):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IterationError) as exc:
            run()
    return exc.value


@pytest.mark.parametrize("name", list(ENTRY_POINTS))
def test_escape_names_step_and_start(name):
    err = _escape(ENTRY_POINTS[name])
    assert err.step == 1
    assert err.start == (0.5, 0.0)
    assert str(err) == "orbit from start (0.5, 0.0) escaped at step 1"


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "run",
    [
        lambda workers: orbit_table(EscapesAfterShift(), 32, 3, workers=workers),
        lambda workers: estimate_rotation_set(EscapesAfterShift(), (32, 32), (2, 3), workers=workers),
    ],
    ids=["orbit_table", "estimate_rotation_set"],
)
def test_escape_is_the_earliest_at_any_worker_count(run, workers):
    err = _escape(lambda: run(workers))
    assert err.step == 1
    assert err.start == (0.5, 0.0)
    assert str(err) == "orbit from start (0.5, 0.0) escaped at step 1"


# Grids larger than one default block: estimate_rotation_set runs rows of
# 64 starts, orbit_table rows of 80.
ROTSET_GRID = (80, 64)
TABLE_RES = 80
# Grid rows per block; None keeps the default _BLOCK_POINTS.
BLOCK_ROWS = [1, 3, None]


def _set_block_rows(monkeypatch, rows, row_len):
    if rows is not None:
        monkeypatch.setattr(maps, "_BLOCK_POINTS", rows * row_len)


def test_block_grids_span_several_default_blocks():
    assert ROTSET_GRID[0] * ROTSET_GRID[1] > 1.2 * maps._BLOCK_POINTS
    assert TABLE_RES**2 > 1.5 * maps._BLOCK_POINTS


@pytest.fixture(scope="module")
def one_block(lm):
    """The results of one block holding the whole grid."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(maps, "_BLOCK_POINTS", 10**9)
        return (
            estimate_rotation_set(lm, ROTSET_GRID, (10, 30), offset=0.37),
            orbit_table(lm, TABLE_RES, 6),
        )


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("rows", BLOCK_ROWS)
def test_estimate_is_independent_of_blocks_and_workers(lm, one_block, monkeypatch, rows, workers):
    _set_block_rows(monkeypatch, rows, ROTSET_GRID[1])
    est = estimate_rotation_set(lm, ROTSET_GRID, (10, 30), offset=0.37, workers=workers)
    assert est == one_block[0]  # samples included, exact floats


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("rows", BLOCK_ROWS)
def test_orbit_table_is_independent_of_blocks_and_workers(lm, one_block, monkeypatch, rows, workers):
    _set_block_rows(monkeypatch, rows, TABLE_RES)
    assert np.array_equal(orbit_table(lm, TABLE_RES, 6, workers=workers), one_block[1])


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("rows", BLOCK_ROWS)
@pytest.mark.parametrize(
    "run, row_len",
    [
        (lambda workers: orbit_table(EscapesInALaterBlockFirst(), TABLE_RES, 3, workers=workers), TABLE_RES),
        (
            lambda workers: estimate_rotation_set(EscapesInALaterBlockFirst(), ROTSET_GRID, (2, 3), workers=workers),
            ROTSET_GRID[1],
        ),
    ],
    ids=["orbit_table", "estimate_rotation_set"],
)
def test_escape_in_a_later_block_is_the_earliest(monkeypatch, run, row_len, rows, workers):
    _set_block_rows(monkeypatch, rows, row_len)
    err = _escape(lambda: run(workers))
    assert err.step == 1
    assert err.start == (0.8, 0.0)
    assert str(err) == "orbit from start (0.8, 0.0) escaped at step 1"

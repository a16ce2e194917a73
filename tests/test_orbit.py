"""Escaped orbits: every orbit loop raises the same error, naming the
earliest escaped step and the first start escaped there, at any worker
count and without a warning on the way."""
import warnings

import pytest

from rotaset import (
    BASE_TORUS,
    IterationError,
    dynamical_distance,
    estimate_rotation_set,
    iterate,
    lift_to_covering,
    rotation_vector,
    transitivity_score,
)
from rotaset.entropy import orbit_table

from .conftest import EscapesAfterShift, EscapesRightHalf

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

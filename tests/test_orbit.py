"""The orbit engine gives the bytes of a plain step loop at every chunk
shape, on Python floats as on arrays. Escaped orbits: every orbit loop
raises the same error, naming the earliest escaped step and the first start
escaped there, without a warning on the way. Grid runs give the same
results and errors at any block size."""
import copy
import functools
import math
import pickle
import warnings
from dataclasses import dataclass

import numpy as np
import pytest

from rotaset import (
    BASE_TORUS,
    FOUR_FOLD,
    IntegerTranslate,
    IterationError,
    TorusLift,
    Translation,
    dynamical_distance,
    estimate_rotation_set,
    from_map_spec,
    iterate,
    lift_to_covering,
    lm_map,
    maps,
    rotation_vector,
    transitivity_score,
)
from rotaset.entropy import orbit_table

from .conftest import IRRATIONAL, EscapesAfterShift, EscapesInALaterBlockFirst, EscapesRightHalf

ESCAPES = EscapesRightHalf()


@dataclass(frozen=True)
class EscapesAtThreeQuarters(TorusLift):
    """Shift by (1/2048, 0), exact in floats, and `value` (NaN or an
    infinity) once x reaches 3/4: a start (x, y) with x a multiple of 1/2048
    escapes at step 2048·(3/4 − x)."""

    value: float = math.nan

    def _apply(self, x, y, op):
        x = x + 1 / 2048
        escaped = x >= 0.75
        return op.select(escaped, self.value, x), op.select(escaped, self.value, y)


def _plain_orbit(lift, u0, n):
    """Points and cumulative windings after steps 1..n, one torus_step and
    one winding sum per step: the loop the engine's chunks must match."""
    u, w = u0, np.zeros(u0.shape, dtype=np.int64)
    us, ws = [], []
    for _ in range(n):
        u, dw = maps.torus_step(lift, u)
        w = w + dw
        us.append(u)
        ws.append(w)
    return np.stack(us), np.stack(ws)


# (points, steps): one-step chunks from 513 points up; the others take
# 1024 // points steps per chunk, and no n here is a multiple of that.
ENGINE_SIZES = [(1, 2500), (2, 1100), (3, 1000), (1023, 3), (1024, 3), (1025, 3)]
ENGINE_LIFTS = {
    "lm": lm_map(),
    "translation": Translation((0.41421356, 0.73205081)),
    "integer-translate": IntegerTranslate(lm_map(), (3, -2)),
}

# Batches of at most maps._FLOAT_STARTS starts step on Python floats, and
# torus_step, the plain loop's step, on arrays: every built-in spec and
# nested combinators, at batches 1, 2 and the first batch on arrays. The
# windings of `near-int64` wrap past 2**63, and each step of `nested` adds
# windings past it, so its float chunks fall back to arrays.
NEAR_INT64 = [2**62, -(2**62) + 1]
VSHEAR = {"map": "vertical_tent_shear", "params": {"amplitude": -2}}
HSHEAR = {"map": "horizontal_tent_shear", "params": {"amplitude": 0.75}}
TRANSLATION = {"map": "translation", "params": {"v": list(IRRATIONAL)}}
TWO_PATH_SPECS = {
    "lm": {"map": "lm"},
    "translation": TRANSLATION,
    "integer-translate": {"map": "integer_translate", "params": {"base": {"map": "lm"}, "v": [3, -2]}},
    "identity": {"map": "identity"},
    "rotation": {"map": "rotation", "params": {"alpha": 0.1, "beta": -0.7}},
    "vertical-tent-shear": VSHEAR,
    "horizontal-tent-shear": HSHEAR,
    "compose": {"map": "compose", "params": {"maps": [VSHEAR, TRANSLATION, HSHEAR]}},
    "iterate": {"map": "iterate", "params": {"base": {"map": "lm"}, "k": 3}},
    "near-int64": {"map": "integer_translate", "params": {"base": {"map": "lm"}, "v": NEAR_INT64}},
    "nested": {"map": "compose", "params": {"maps": [
        {"map": "iterate", "params": {"base": {"map": "compose", "params": {"maps": [HSHEAR, TRANSLATION]}}, "k": 2}},
        {"map": "integer_translate", "params": {
            "base": {"map": "integer_translate", "params": {"base": VSHEAR, "v": NEAR_INT64}}, "v": NEAR_INT64,
        }},
    ]}},
    # up to about 1 ms per array step (`horseshoe_disk`): fewer steps, from
    # starts inside the disk, where every substep moves the point
    "localized-shear": {"map": "localized_shear", "params": {"amplitude": 2.5, "axis": "horizontal"}},
    "horseshoe-disk": {"map": "horseshoe_disk"},
}
DISK_STEPS = 2000
_ARRAY_STEP = maps.torus_step


def _engine_cases():
    """(lift, points, steps, starts box, reference batch, whether the
    engine steps on floats) per case."""
    for name, lift in ENGINE_LIFTS.items():
        for points, n in ENGINE_SIZES:
            on_floats = points <= maps._FLOAT_STARTS
            yield pytest.param(lift, points, n, (0.0, 1.0), points, on_floats, id=f"{name}-{points}-{n}")
    batch = maps._FLOAT_STARTS + 1
    for name, spec in TWO_PATH_SPECS.items():
        disk = name in ("localized-shear", "horseshoe-disk")
        n, box = (DISK_STEPS, (0.4, 0.6)) if disk else (10_000, (0.0, 1.0))
        for points in (1, 2, batch):
            on_floats = points < batch and name != "nested"
            yield pytest.param(from_map_spec(spec), points, n, box, batch, on_floats, id=f"{name}-{points}-{n}")


@functools.lru_cache(maxsize=1)  # the cases of one lift run one after another
def _reference(lift, batch, n, box):
    """`batch` starts in `box` and their plain loop's points and windings."""
    lo, hi = box
    u0 = lo + (hi - lo) * np.random.default_rng(batch).random((batch, 2))
    return (u0, *_plain_orbit(lift, u0, n))


@pytest.mark.parametrize("lift, points, n, box, batch, on_floats", _engine_cases())
def test_torus_orbit_matches_a_plain_step_loop(monkeypatch, lift, points, n, box, batch, on_floats):
    # the engine runs the first `points` of the reference's starts: each
    # start's arithmetic is elementwise, whatever else is in its batch
    u0, us, ws = (a[..., :points, :] for a in _reference(lift, batch, n, box))
    array_steps = []

    def counted_step(lift, u):
        array_steps.append(u.size // 2)
        return _ARRAY_STEP(lift, u)

    monkeypatch.setattr(maps, "torus_step", counted_step)
    chunks = list(maps.torus_orbit(lift, u0, n))
    assert array_steps == ([] if on_floats else [points] * n)
    span = max(1, maps._ORBIT_CHUNK_POINTS // points)
    assert [len(steps) for steps, _, _ in chunks][:-1] == [span] * (len(chunks) - 1)
    assert [k for steps, _, _ in chunks for k in steps] == list(range(1, n + 1))
    got_us = np.concatenate([c[1] for c in chunks])
    got_ws = np.concatenate([c[2] for c in chunks])
    assert got_us.shape == us.shape and got_us.tobytes() == us.tobytes()
    assert got_ws.dtype == np.int64 and np.array_equal(got_ws, ws)


def test_transitivity_score_matches_a_per_step_loop():
    # 96² cells, a quarter of them still empty after 10⁴ steps
    lift, starts, res, iterations = Translation((0.41421356, 0.73205081)), ((0.2, 1.3), (1.7, 0.4)), 48, 10**4
    report = transitivity_score(lift, FOUR_FOLD, starts=starts, iterations=iterations, cell_resolution=res)

    dyn = lift_to_covering(lift, FOUR_FOLD)
    u, w = dyn.split(starts)
    grids = np.zeros((len(starts), 2 * res, 2 * res), dtype=bool)
    for step in range(iterations + 1):
        if step:
            u, w = dyn.step_state(u, w)
        z = u + w
        ix = np.minimum((z[:, 0] * res).astype(np.int64), 2 * res - 1)
        iy = np.minimum((z[:, 1] * res).astype(np.int64), 2 * res - 1)
        grids[np.arange(len(starts)), iy, ix] = True
    assert np.array_equal(report.grid, grids.any(axis=0))
    assert report.per_start_occupancy == tuple(float(g.sum() / g.size) for g in grids)


LATER_CHUNK_RUNS = {
    "torus_orbit": lambda lift, starts: list(maps.torus_orbit(lift, np.asarray(starts), 3000)),
    "iterate": lambda lift, starts: iterate(lift, starts, 3000),
    "transitivity_score": lambda lift, starts: transitivity_score(
        lift, BASE_TORUS, starts=starts, iterations=3000, cell_resolution=2
    ),
}


@pytest.mark.parametrize(
    "run, value",
    [pytest.param(run, math.nan, id=name) for name, run in LATER_CHUNK_RUNS.items()]
    + [pytest.param(run, -math.inf, id=f"{name}-inf") for name, run in LATER_CHUNK_RUNS.items()],
)
def test_escape_in_a_later_chunk_names_its_step_and_start(run, value):
    lift = EscapesAtThreeQuarters(value)
    # two starts run 512 steps per chunk; the second escapes first, at step
    # 2048·(3/4 − 1/8) = 1280, in the third chunk; the first only at 1536
    err = _escape(lambda: run(lift, [(0.0, 0.0), (0.125, 0.5)]))
    assert err.step == 1280
    assert err.start == (0.125, 0.5)
    # alone, a start runs 1024 steps per chunk: the second chunk
    err = _escape(lambda: run(lift, [(0.125, 0.5)]))
    assert (err.step, err.start) == (1280, (0.125, 0.5))


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


@pytest.mark.parametrize(
    "clone",
    [lambda e: pickle.loads(pickle.dumps(e)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_escape_error_survives_pickle_and_copy(clone):
    err = clone(IterationError(3, (0.5, 0.0)))
    assert type(err) is IterationError
    assert err.step == 3
    assert err.start == (0.5, 0.0)
    assert str(err) == "orbit from start (0.5, 0.0) escaped at step 3"


@pytest.mark.parametrize(
    "run",
    [
        lambda: orbit_table(EscapesAfterShift(), 32, 3),
        lambda: estimate_rotation_set(EscapesAfterShift(), (32, 32), (2, 3)),
    ],
    ids=["orbit_table", "estimate_rotation_set"],
)
def test_grid_run_escape_is_the_earliest(run):
    err = _escape(run)
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


@pytest.mark.parametrize("rows", BLOCK_ROWS)
def test_estimate_is_independent_of_blocks(lm, one_block, monkeypatch, rows):
    _set_block_rows(monkeypatch, rows, ROTSET_GRID[1])
    est = estimate_rotation_set(lm, ROTSET_GRID, (10, 30), offset=0.37)
    assert est == one_block[0]  # samples included, exact floats


@pytest.mark.parametrize("rows", BLOCK_ROWS)
def test_orbit_table_is_independent_of_blocks(lm, one_block, monkeypatch, rows):
    _set_block_rows(monkeypatch, rows, TABLE_RES)
    assert np.array_equal(orbit_table(lm, TABLE_RES, 6), one_block[1])


@pytest.mark.parametrize("rows", BLOCK_ROWS)
@pytest.mark.parametrize(
    "run, row_len",
    [
        (lambda: orbit_table(EscapesInALaterBlockFirst(), TABLE_RES, 3), TABLE_RES),
        (lambda: estimate_rotation_set(EscapesInALaterBlockFirst(), ROTSET_GRID, (2, 3)), ROTSET_GRID[1]),
    ],
    ids=["orbit_table", "estimate_rotation_set"],
)
def test_escape_in_a_later_block_is_the_earliest(monkeypatch, run, row_len, rows):
    _set_block_rows(monkeypatch, rows, row_len)
    err = _escape(run)
    assert err.step == 1
    assert err.start == (0.8, 0.0)
    assert str(err) == "orbit from start (0.8, 0.0) escaped at step 1"

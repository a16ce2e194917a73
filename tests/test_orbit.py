"""The orbit engine gives the bytes of a plain step loop at every chunk
shape, on Python floats as on arrays. Escaped orbits: every orbit loop
raises the same error, naming the earliest escaped step and the first start
escaped there, without a warning on the way. Grid runs give the same
results and errors at any block size."""
import copy
import functools
import json
import math
import pickle
import warnings
import weakref
from dataclasses import dataclass, field

import numpy as np
import pytest

from rotaset import (
    BASE_TORUS,
    FOUR_FOLD,
    Identity,
    IntegerTranslate,
    Iterate,
    IterationError,
    TorusLift,
    Translation,
    dynamical_distance,
    estimate_rotation_set,
    from_map_spec,
    horseshoe_disk,
    iterate,
    lift_to_covering,
    lm_map,
    maps,
    rotation_vector,
    transitivity_score,
)
from rotaset import tracer
from rotaset.entropy import orbit_table

from .conftest import IRRATIONAL, EscapesAfterShift, EscapesInALaterBlockFirst, EscapesRightHalf, _plain_orbit

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


@dataclass(frozen=True)
class CountsArraySteps(TorusLift):
    """`base`, recording the batch size of each step taken on numpy arrays."""

    base: TorusLift
    array_steps: list = field(default_factory=list, compare=False)

    def _step(self, x, y, op):
        if op is maps._ARRAYS:
            self.array_steps.append(np.size(x))
        return self.base._step(x, y, op)


@dataclass(frozen=True)
class CountsFloatSteps(TorusLift):
    """`base`, recording each step taken on Python floats."""

    base: TorusLift
    float_steps: list = field(default_factory=list, compare=False)

    def _step(self, x, y, op):
        if op is maps._FLOATS:
            self.float_steps.append(1)
        return self.base._step(x, y, op)


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
# windings past it: on floats too, they come from one array step a chunk.
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


def _engine_cases():
    """(lift, points, steps, starts box, reference batch, whether the
    engine steps on floats) per case."""
    # torus_step steps batches of up to maps._FLOAT_STARTS on floats too:
    # the reference loop runs at least one start more, on arrays
    batch = maps._FLOAT_STARTS + 1
    for name, lift in ENGINE_LIFTS.items():
        for points, n in ENGINE_SIZES:
            on_floats = points <= maps._FLOAT_STARTS
            yield pytest.param(lift, points, n, (0.0, 1.0), max(points, batch), on_floats, id=f"{name}-{points}-{n}")
    for name, spec in TWO_PATH_SPECS.items():
        disk = name in ("localized-shear", "horseshoe-disk")
        n, box = (DISK_STEPS, (0.4, 0.6)) if disk else (10_000, (0.0, 1.0))
        for points in (1, 2, batch):
            on_floats = points < batch
            yield pytest.param(from_map_spec(spec), points, n, box, batch, on_floats, id=f"{name}-{points}-{n}")


@functools.lru_cache(maxsize=1)  # the cases of one lift run one after another
def _reference(lift, batch, n, box):
    """`batch` starts in `box` and their plain loop's points and windings."""
    lo, hi = box
    u0 = lo + (hi - lo) * np.random.default_rng(batch).random((batch, 2))
    return (u0, *_plain_orbit(lift, u0, n))


@pytest.mark.parametrize("lift, points, n, box, batch, on_floats", _engine_cases())
def test_torus_orbit_matches_a_plain_step_loop(lift, points, n, box, batch, on_floats):
    # the engine runs the first `points` of the reference's starts: each
    # start's arithmetic is elementwise, whatever else is in its batch
    u0, us, ws = (a[..., :points, :] for a in _reference(lift, batch, n, box))
    counted = CountsArraySteps(lift)
    chunks = list(maps.torus_orbit(counted, u0, n))
    # on floats, one array step over a chunk's points gives its windings
    assert counted.array_steps == ([points * len(steps) for steps, _, _ in chunks] if on_floats else [points] * n)
    span = max(1, maps._ORBIT_CHUNK_POINTS // points)
    assert [len(steps) for steps, _, _ in chunks][:-1] == [span] * (len(chunks) - 1)
    assert [k for steps, _, _ in chunks for k in steps] == list(range(1, n + 1))
    got_us = np.concatenate([c[1] for c in chunks])
    got_ws = np.concatenate([c[2] for c in chunks])
    assert got_us.shape == us.shape and got_us.tobytes() == us.tobytes()
    assert got_ws.dtype == np.int64 and np.array_equal(got_ws, ws)


# Array batches: the smallest, whose one chunk holds every requested step;
# 300 starts, 3 requested steps a chunk; and one start either side of the
# default block. They ask for step 1, interior steps and the last: the
# engine builds points only at those steps. The windings of
# `wrapping-windings` pass 2**63 by step 2.
ARRAY_BATCHES = [maps._FLOAT_STARTS + 1, 300, maps._BLOCK_POINTS - 1, maps._BLOCK_POINTS, maps._BLOCK_POINTS + 1]
AT = (1, 2, 3, 17, 39, 40)
REQUESTED = {  # lift, requested steps, starts box
    "lm": (lm_map(), AT, (0.0, 1.0)),
    "wrapping-windings": (IntegerTranslate(lm_map(), (2**62, -(2**62) + 1)), AT, (0.0, 1.0)),
    "iterate": (Iterate(lm_map(), 2), AT, (0.0, 1.0)),
    "horseshoe-disk": (horseshoe_disk(), (1, 2, 3), (0.4, 0.6)),  # about 27 ms per step
}


def _requested_cases():
    """(lift, points, requested steps, starts box) per case: the array
    batches above, and float batches whose chunks of 1024 // points steps
    hold some requested steps or none."""
    for name, (lift, at, box) in REQUESTED.items():
        for points in ARRAY_BATCHES:
            yield pytest.param(lift, points, at, box, id=f"{name}-{points}")
    float_at = {"sparse": (1, 700, 2500), "chunk-edges": (1024, 1025, 2047, 2048), "last": (2500,)}
    for at_name, at in float_at.items():
        for points in (1, 2, maps._FLOAT_STARTS):
            yield pytest.param(lm_map(), points, at, (0.0, 1.0), id=f"floats-{at_name}-{points}")


@pytest.mark.parametrize("lift, points, at, box", _requested_cases())
def test_requested_steps_match_a_plain_step_loop(lift, points, at, box):
    on_floats = points <= maps._FLOAT_STARTS
    batch = ARRAY_BATCHES[0] if on_floats else ARRAY_BATCHES[-1]  # the reference steps on arrays
    u0, us, ws = (a[..., :points, :] for a in _reference(lift, batch, at[-1], box))
    counted = CountsArraySteps(lift)
    chunks = list(maps.torus_orbit(counted, u0, at[-1], at=at))
    array_steps = [points] * at[-1]
    if on_floats:  # one array step over a chunk's points gives its windings
        span = maps._ORBIT_CHUNK_POINTS // points
        array_steps = [points * len(range(k, at[-1] + 1)[:span]) for k in range(1, at[-1] + 1, span)]
    assert counted.array_steps == array_steps
    assert [k for steps, _, _ in chunks for k in steps] == list(at)
    got_us = np.concatenate([c[1] for c in chunks])
    got_ws = np.concatenate([c[2] for c in chunks])
    rows = np.subtract(at, 1)
    assert got_us.shape == us[rows].shape and got_us.tobytes() == us[rows].tobytes()
    assert got_ws.dtype == np.int64 and np.array_equal(got_ws, ws[rows])
    if isinstance(lift, IntegerTranslate):
        assert (ws[1][:, 0] < 0).any()  # wrapped past int64


# Leaf lifts, whose `_step` is TorusLift's: the engine traces their step
# once and runs it compiled, without a `_step` call on floats. Unwrapped,
# against a plain loop of torus_step on one start more than
# maps._FLOAT_STARTS (arrays).
LEAF_SPECS = {
    name: TWO_PATH_SPECS[name]
    for name in ("identity", "translation", "rotation", "vertical-tent-shear", "horizontal-tent-shear", "localized-shear")
}


@pytest.mark.parametrize("points", [1, 2, maps._FLOAT_STARTS])
@pytest.mark.parametrize("name", list(LEAF_SPECS))
def test_leaf_lifts_step_on_floats_with_the_bits_of_a_plain_loop(name, points, monkeypatch):
    lift = from_map_spec(LEAF_SPECS[name])
    assert type(lift)._step is TorusLift._step
    n, box = (DISK_STEPS, (0.4, 0.6)) if name == "localized-shear" else (10_000, (0.0, 1.0))
    u0, us, ws = (a[..., :points, :] for a in _reference(lift, maps._FLOAT_STARTS + 1, n, box))
    # TorusLift._step, counting its float calls: a leaf lift still resolves
    # to it, and the compiled loop must not call it
    float_steps = []
    base_step = TorusLift._step

    def step(self, x, y, op):
        float_steps.append(op is maps._FLOATS)
        return base_step(self, x, y, op)

    monkeypatch.setattr(TorusLift, "_step", step)
    chunks = list(maps.torus_orbit(lift, u0, n))
    assert not any(float_steps)
    got_us = np.concatenate([c[1] for c in chunks])
    got_ws = np.concatenate([c[2] for c in chunks])
    assert got_us.shape == us.shape and got_us.tobytes() == us.tobytes()
    assert got_ws.dtype == np.int64 and np.array_equal(got_ws, ws)


@dataclass(frozen=True)
class CountsFloatSteps(TorusLift):
    """`base`, overriding `_step` to record each call made on floats."""

    base: TorusLift
    float_steps: list = field(default_factory=list, compare=False)

    def _step(self, x, y, op):
        if op is maps._FLOATS:
            self.float_steps.append((x, y))
        return self.base._step(x, y, op)


@pytest.mark.parametrize("points", [1, 2, maps._FLOAT_STARTS])
@pytest.mark.parametrize("base", [Translation(IRRATIONAL), lm_map()], ids=["translation", "lm"])
def test_step_override_is_called_once_per_float_step(base, points):
    n = 3000
    u0 = np.random.default_rng(points).random((points, 2))
    counted = CountsFloatSteps(base)
    chunks = list(maps.torus_orbit(counted, u0, n))
    assert counted.float_steps == []  # traced once and compiled: never called on floats
    for (_, us, ws), (_, us_base, ws_base) in zip(chunks, maps.torus_orbit(base, u0, n), strict=True):
        assert us.tobytes() == us_base.tobytes() and np.array_equal(ws, ws_base)


# --- compiled float steps ----------------------------------------------------

def _orbit(lift, u0, n):
    """The points and windings of every step of torus_orbit, concatenated."""
    chunks = list(maps.torus_orbit(lift, u0, n))
    return np.concatenate([c[1] for c in chunks]), np.concatenate([c[2] for c in chunks])


def _interpreted(monkeypatch):
    """Every lift built after this call steps on floats through its `_step`."""
    monkeypatch.setattr(tracer, "compile_floats", lambda lift: None)


@pytest.mark.parametrize("points", [1, 2, maps._FLOAT_STARTS])
@pytest.mark.parametrize("name", list(TWO_PATH_SPECS))
def test_compiled_float_steps_match_the_interpreted_loop(name, points, monkeypatch):
    n, box = (DISK_STEPS, (0.4, 0.6)) if name in ("localized-shear", "horseshoe-disk") else (10_000, (0.0, 1.0))
    lo, hi = box
    u0 = lo + (hi - lo) * np.random.default_rng(points).random((points, 2))
    lift = from_map_spec(TWO_PATH_SPECS[name])
    us, ws = _orbit(lift, u0, n)
    assert callable(vars(lift)["_compiled"])
    _interpreted(monkeypatch)
    plain = from_map_spec(TWO_PATH_SPECS[name])
    plain_us, plain_ws = _orbit(plain, u0, n)
    assert vars(plain)["_compiled"] is False
    assert us.tobytes() == plain_us.tobytes()
    assert ws.dtype == np.int64 and np.array_equal(ws, plain_ws)
    if name in ("near-int64", "nested"):
        assert (ws[:2, :, 0] < 0).any()  # wrapped past int64


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "minus-inf"])
def test_compiled_escape_names_the_interpreted_step_and_start(value, monkeypatch):
    # two starts run 512 steps per chunk; the second escapes first, at step
    # 1280, in the third chunk
    starts = np.array([(0.0, 0.0), (0.125, 0.5)])
    lift = EscapesAtThreeQuarters(value)
    err = _escape(lambda: list(maps.torus_orbit(lift, starts, 3000)))
    assert callable(vars(lift)["_compiled"])
    _interpreted(monkeypatch)
    plain = _escape(lambda: list(maps.torus_orbit(EscapesAtThreeQuarters(value), starts, 3000)))
    assert (err.step, err.start) == (plain.step, plain.start) == (1280, (0.125, 0.5))


# --- compiled array steps ----------------------------------------------------

def _interpreted_arrays(monkeypatch):
    """Every lift built after this call steps on arrays through its `_step`."""
    monkeypatch.setattr(tracer, "compile_arrays", lambda lift: None)


def _interpreted_runs(monkeypatch) -> list:
    """A list that gains an entry for each array run that steps through
    `lift._step` from now on."""
    runs, interpreted = [], maps._interpreted
    monkeypatch.setattr(maps, "_interpreted", lambda *args: runs.append(args) or interpreted(*args))
    return runs


def _picked(lift, u0, n, at):
    """The points and windings of torus_orbit at the steps `at`."""
    chunks = list(maps.torus_orbit(lift, u0, n, at=at))
    return np.concatenate([c[1] for c in chunks]), np.concatenate([c[2] for c in chunks])


@pytest.mark.parametrize("points", [maps._FLOAT_STARTS + 1, maps._BLOCK_POINTS])
@pytest.mark.parametrize("name", list(TWO_PATH_SPECS))
def test_compiled_array_steps_match_the_interpreted_loop(name, points, monkeypatch):
    # the localized shears take about 1 ms per interpreted step at 8192
    # starts: fewer steps, from starts inside the disk
    n, box = (30, (0.4, 0.6)) if name in ("localized-shear", "horseshoe-disk") else (300, (0.0, 1.0))
    lo, hi = box
    u0 = lo + (hi - lo) * np.random.default_rng(points).random((points, 2))
    at = (1, 2, 7, n // 2, n)
    monkeypatch.setattr(maps, "_ARRAY_COMPILE_POINTS", 1)  # every array run compiles
    runs = _interpreted_runs(monkeypatch)
    lift = from_map_spec(TWO_PATH_SPECS[name])
    us, ws = _picked(lift, u0, n, at)
    wraps = name in ("near-int64", "nested")
    # the kernel where the tape's bounds prove float64 windings exact; the
    # windings near 2**62 step through `_step`
    assert (vars(lift)["_arrays"] is False) == wraps and len(runs) == wraps
    _interpreted_arrays(monkeypatch)
    plain = from_map_spec(TWO_PATH_SPECS[name])
    plain_us, plain_ws = _picked(plain, u0, n, at)
    assert vars(plain)["_arrays"] is False
    assert us.tobytes() == plain_us.tobytes()
    assert ws.dtype == np.int64 and np.array_equal(ws, plain_ws)
    if wraps:
        assert (ws[:2, :, 0] < 0).any()  # wrapped past int64


def test_array_kernel_keeps_a_coordinate_that_comes_back_one(monkeypatch):
    # 0.3 - 0.30000000000000004 = -2**-54, and -2**-54 - floor(-2**-54)
    # rounds to 1.0: the reduced point leaves [0,1), as on the
    # interpreted path (a known defect, kept bit for bit)
    u0 = np.tile([0.3, 0.5], (maps._FLOAT_STARTS + 1, 1))
    monkeypatch.setattr(maps, "_ARRAY_COMPILE_POINTS", 1)
    runs = _interpreted_runs(monkeypatch)
    lift = Translation((-0.30000000000000004, 0))
    us, ws = _orbit(lift, u0, 3)
    assert isinstance(vars(lift)["_arrays"], tracer.ArrayStep) and not runs
    assert (us[0, :, 0] == 1.0).all() and (ws[0, :, 0] == -1).all()
    _interpreted_arrays(monkeypatch)
    plain_us, plain_ws = _orbit(Translation((-0.30000000000000004, 0)), u0, 3)
    assert us.tobytes() == plain_us.tobytes() and np.array_equal(ws, plain_ws)


@dataclass(frozen=True)
class SubtractsTwoToThe49(TorusLift):
    """x - 2**49: the tape bounds each step's x winding, through the
    subtraction, by 2**49 + 2, so float64 sums 7 steps of it within 2**52
    and 8 not."""

    def _apply(self, x, y, op):
        return x - 2.0**49, y


def test_array_kernel_runs_only_while_its_windings_stay_exact(monkeypatch):
    u0 = np.random.default_rng(4).random((maps._FLOAT_STARTS + 1, 2))
    kernel = tracer.compile_arrays(SubtractsTwoToThe49())
    x, y = u0.T
    assert kernel.steps(x, y, 7) is not None and kernel.steps(x, y, 8) is None
    assert kernel.steps(x + 1.5, y, 7) is None  # a start outside [-1, 1]
    monkeypatch.setattr(maps, "_ARRAY_COMPILE_POINTS", 1)
    runs = _interpreted_runs(monkeypatch)
    for n, u, interpreted in [(7, u0, 0), (8, u0, 1), (7, u0 + 1.5, 1)]:
        runs.clear()
        lift = SubtractsTwoToThe49()
        us, ws = _orbit(lift, u, n)
        assert isinstance(vars(lift)["_arrays"], tracer.ArrayStep) and len(runs) == interpreted
        with monkeypatch.context() as m:
            _interpreted_arrays(m)
            plain_us, plain_ws = _orbit(SubtractsTwoToThe49(), u, n)
        assert us.tobytes() == plain_us.tobytes() and np.array_equal(ws, plain_ws)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "minus-inf"])
def test_a_step_that_can_escape_compiles_no_array_kernel(value, monkeypatch):
    # The tape bounds no node that reads `value`, so no winding: a step
    # whose bounds hold makes no NaN or infinity from starts within
    # [-1, 1], and every escape is found by the interpreted loop. 64
    # starts (m/2048, i/64); a start escapes at step 1536 - m. Starts 20
    # and 50 share the largest m, 900: start 20 is named, at step 636,
    # between the requested steps
    m = np.arange(64) * 10.0
    m[[20, 50]] = 900
    starts = np.stack([m / 2048, np.arange(64) / 64], axis=1)
    monkeypatch.setattr(maps, "_ARRAY_COMPILE_POINTS", 1)
    lift = EscapesAtThreeQuarters(value)
    tape = tracer.trace(lift)
    assert tape.winding_bound(tape.kinds()) == math.inf
    err = _escape(lambda: list(maps.torus_orbit(lift, starts, 3000, at=(1, 700, 3000))))
    assert vars(lift)["_arrays"] is False
    assert (err.step, err.start) == (636, (900 / 2048, 20 / 64))


def test_only_array_runs_of_enough_point_steps_compile():
    # entropy's tables (at most 8192 starts x 13 steps) and Newton's 1-3
    # step calls would pay more to trace than they save
    u0 = maps.grid_starts(64, 128, 0.37)
    assert len(u0) * 128 == maps._ARRAY_COMPILE_POINTS
    lift = lm_map()
    list(maps.torus_orbit(lift, u0, 127, at=(127,)))
    assert "_arrays" not in vars(lift)
    list(maps.torus_orbit(lift, u0, 128, at=(128,)))
    assert isinstance(vars(lift)["_arrays"], tracer.ArrayStep)


def test_generated_source_holds_no_spec_text():
    shear = {"map": "localized_shear", "params": {
        "center": [0.3141592, 0.2718281], "radius": 0.0123, "amplitude": 0.0456, "axis": "horizontal",
    }}
    spec = {"map": "integer_translate", "params": {"base": {"map": "compose", "params": {"maps": [
        {"map": "translation", "params": {"v": [0.1234567, 0.7654321]}}, shear,
    ]}}, "v": [12345, -6789]}}
    tape = tracer.trace(from_map_spec(spec))
    # the float chunk loop, and the array kernel
    for source, namespace, *_ in [tape.source(), tape.kernel(tape.kinds())]:
        assert 0.1234567 in namespace.values() and 0.3141592 in namespace.values()  # bound by name
        text = json.dumps(spec)
        for word in ["map", "params", "integer_translate", "compose", "translation", "localized_shear",
                     "center", "radius", "amplitude", "axis", "horizontal", "0.1234567", "0.7654321",
                     "0.3141592", "0.2718281", "0.0123", "0.0456", "12345", "6789"]:
            assert word in text and word not in source


@dataclass(frozen=True)
class DiagonalShift(TorusLift):
    """The README's example variant, unregistered."""

    t: float = 0.25

    def _apply(self, x, y, op):
        return x + self.t, y + self.t


@dataclass(frozen=True)
class CallsNumpy(TorusLift):
    """A shift by (1/4, 1/8) reduced by a numpy call, not by `op.floor`."""

    def _apply(self, x, y, op):
        x = x + 0.25
        return x - np.floor(x), y + 0.125


@dataclass(frozen=True)
class BranchesOnAValue(TorusLift):
    """A float-only shift that branches on the point."""

    def _apply(self, x, y, op):
        return (x + 0.25, y) if x < 0.5 else (x, y + 0.25)


def test_a_step_that_branches_on_a_value_is_not_compiled():
    assert tracer.compile_floats(BranchesOnAValue()) is None
    assert tracer.compile_floats(Translation(IRRATIONAL)) is not None


@pytest.mark.parametrize(
    "lift, compiled",
    [
        pytest.param(DiagonalShift(), True, id="readme-diagonal-shift"),
        pytest.param(DiagonalShift(np.float64(0.25)), False, id="numpy-scalar-constant"),
        pytest.param(CallsNumpy(), False, id="numpy-call"),
        pytest.param(lm_map(), False, id="past-the-node-cap"),
        # each step's x winding passes int64: taken from arrays
        pytest.param(from_map_spec(TWO_PATH_SPECS["nested"]), False, id="past-the-node-cap-and-int64"),
    ],
)
def test_untraceable_steps_run_interpreted_with_the_bits_of_a_plain_loop(lift, compiled, monkeypatch):
    monkeypatch.setattr(tracer, "_MAX_TRACE_NODES", 20)  # lm's step records 22 operations
    u0, us, ws = (a[..., :2, :] for a in _reference(lift, maps._FLOAT_STARTS + 1, 2000, (0.0, 1.0)))
    got_us, got_ws = _orbit(lift, u0, 2000)
    assert callable(vars(lift)["_compiled"]) if compiled else vars(lift)["_compiled"] is False
    assert got_us.tobytes() == us.tobytes() and np.array_equal(got_ws, ws)


# Edge points of [-1, 1]², the inputs `Tape.bounds` assumes, and random
# points within it.
EDGES = [v for t in (1.0, 0.0, 0.5, np.nextafter(1.0, 0.0), 2.0**-53) for v in (t, -t)]
BOUNDED_INPUTS = np.concatenate([
    np.array([(x, y) for x in EDGES for y in EDGES]),
    np.random.default_rng(20261021).uniform(-1.0, 1.0, (10_000, 2)),
])


def _node_values(tape, x, y) -> list:
    """Each node of `tape` on the float64 columns x, y, by numpy: its ufunc
    as the kernel calls it, frac as t - floor(t), select as a where, and a
    wind node as the floor it winds."""
    values = [x, y]
    for op, args in tape.nodes[2:]:
        a = [values[o] if isinstance(o, int) else tape.values[o] for o in args]
        if op == "frac":
            values.append(a[0] - np.floor(a[0]))
        elif op == "select":
            values.append(np.where(*a))
        else:
            values.append(a[0] if op == "wind" else getattr(np, tracer._UFUNCS[op])(*a))
    return values


@pytest.mark.parametrize(
    "lift",
    [pytest.param(from_map_spec(spec), id=name) for name, spec in TWO_PATH_SPECS.items()]
    + [pytest.param(DiagonalShift(), id="readme-diagonal-shift")]
    + [pytest.param(SubtractsTwoToThe49(), id="subtracts-2**49")],
)
def test_tape_bounds_hold_on_inputs_within_the_unit_box(lift):
    # the array kernel checks no point for an escape: it runs only where
    # these bounds keep every step's points within [-1, 1]
    tape = tracer.trace(lift)
    bounds = tape.bounds()
    with np.errstate(all="ignore"):  # a node without a bound may overflow
        values = _node_values(tape, *BOUNDED_INPUTS.T)
    assert len(values) == len(bounds) == len(tape.nodes)
    for node, (value, bound) in enumerate(zip(values, bounds)):
        if bound < math.inf:
            value = np.asarray(value, dtype=float)
            assert np.isfinite(value).all() and (np.abs(value) <= bound).all(), (node, tape.nodes[node], bound)
    x, y, _, _ = tape.out
    if tape.winding_bound(tape.kinds()) < math.inf:
        assert bounds[x] <= 1.0 and bounds[y] <= 1.0


@dataclass(frozen=True)
class WindsThreeInY(TorusLift):
    """A shift by (1/4, 0) whose step returns the Python int 3 as its y
    winding, on floats as on arrays: after k steps each start has wound 3k
    times in y."""

    def _step(self, x, y, op):
        x, y, kx, _ = op.reduce(x + 0.25, y)
        return x, y, kx, 3


@pytest.mark.parametrize(
    "points, n, compiled",
    [(maps._FLOAT_STARTS + 1, 4, False), (3, 4, False), (1, maps._ORBIT_CHUNK_POINTS, True)],
    ids=["arrays", "interpreted-floats", "compiled-floats"],
)
def test_a_scalar_winding_sums_on_every_path(points, n, compiled):
    u0 = np.random.default_rng(points).random((points, 2))
    lift = WindsThreeInY()
    us, ws = _orbit(lift, u0, n)
    assert callable(vars(lift).get("_compiled")) == compiled
    assert ws.dtype == np.int64 and np.array_equal(ws[..., 1], np.tile(3 * np.arange(1, n + 1)[:, None], points))
    shift_us, shift_ws = _orbit(Translation((0.25, 0.0)), u0, n)
    assert us.tobytes() == shift_us.tobytes() and np.array_equal(ws[..., 0], shift_ws[..., 0])


@pytest.mark.parametrize("points", [1, 3, maps._FLOAT_STARTS])
def test_only_runs_of_a_full_chunk_compile(points):
    # shorter runs, such as the residuals of found periodic orbits, would
    # pay more to compile than to interpret
    n = -(-maps._ORBIT_CHUNK_POINTS // points)  # the fewest steps that fill a chunk
    lift = lm_map()
    _orbit(lift, np.full((points, 2), 0.3), n - 1)
    assert "_compiled" not in vars(lift)
    _orbit(lift, np.full((points, 2), 0.3), n)
    assert callable(vars(lift)["_compiled"])


def test_a_short_float_run_after_a_compiling_one_is_interpreted():
    # whether a run compiles depends on the run alone, not on the loop an
    # earlier run kept on the lift instance
    lift = CountsFloatSteps(lm_map())
    _orbit(lift, np.array([[0.2, 0.3]]), maps._ORBIT_CHUNK_POINTS)
    assert callable(vars(lift)["_compiled"])
    lift.float_steps.clear()
    u0 = np.array([[0.6, 0.1]])
    us, ws = _orbit(lift, u0, 10)
    assert len(lift.float_steps) == 10
    fresh_us, fresh_ws = _orbit(CountsFloatSteps(lm_map()), u0, 10)
    assert us.tobytes() == fresh_us.tobytes() and ws.tobytes() == fresh_ws.tobytes()


def test_a_short_array_run_after_a_compiling_one_is_interpreted(monkeypatch):
    # nor on the array kernel an earlier run kept
    lift = CountsArraySteps(lm_map())
    u0 = np.random.default_rng(26).random((1024, 2))
    list(maps.torus_orbit(lift, u0, 1024, at=(1024,)))  # 2**20 point-steps: arrays compile
    assert isinstance(vars(lift)["_arrays"], tracer.ArrayStep) and not lift.array_steps
    runs = _interpreted_runs(monkeypatch)
    u0 = u0[: maps._FLOAT_STARTS + 1]
    us, ws = _orbit(lift, u0, 5)
    assert len(runs) == 1 and lift.array_steps == [maps._FLOAT_STARTS + 1] * 5
    fresh_us, fresh_ws = _orbit(CountsArraySteps(lm_map()), u0, 5)
    assert us.tobytes() == fresh_us.tobytes() and ws.tobytes() == fresh_ws.tobytes()


def test_a_dropped_lift_frees_its_compiled_step():
    lift = lm_map()
    _orbit(lift, np.array([[0.2, 0.3]]), maps._ORBIT_CHUNK_POINTS)
    list(maps.torus_orbit(lift, np.full((1024, 2), 0.3), 1024, at=(1024,)))  # 2**20 point-steps: arrays compile
    freed = [weakref.ref(vars(lift)["_compiled"]), weakref.ref(vars(lift)["_arrays"]),
             weakref.ref(vars(lift)["_arrays"].step)]
    clone = pickle.loads(pickle.dumps(lift))  # the compiled steps are not pickled
    assert clone == lift and not {"_compiled", "_arrays"} & set(vars(clone))
    del lift
    assert len(freed) == 3 and [ref() for ref in freed] == [None] * 3  # no cycle: freed without the cyclic collector


@pytest.mark.parametrize("points", [1, maps._FLOAT_STARTS + 1], ids=["floats", "arrays"])
def test_a_negative_zero_start_steps_as_zero_on_both_regimes(points):
    u0 = np.tile([-0.0, 0.5], (points, 1))
    [(_, us, ws)] = maps.torus_orbit(Identity(), u0, 1)
    assert us.tobytes() == np.tile([0.0, 0.5], (1, points, 1)).tobytes()
    assert not ws.any()


def test_leaf_escape_of_the_second_start_mid_chunk_names_it():
    # two starts run 512 steps per chunk; (0.125, 0.5) escapes at step 1280,
    # in the third chunk, and (0.0, 0.0) only at step 1536, after the last
    lift = EscapesAtThreeQuarters()
    assert type(lift)._step is TorusLift._step
    starts = np.array([(0.0, 0.0), (0.125, 0.5)])
    chunks = []
    err = _escape(lambda: chunks.extend(maps.torus_orbit(lift, starts, 1500)))
    assert (err.step, err.start) == (1280, (0.125, 0.5))
    assert [c[0] for c in chunks] == [range(1, 513), range(513, 1025)]


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


@dataclass(frozen=True)
class EscapesInABand(TorusLift):
    """Shift by (1/2048, 0), exact in floats, and `value` (NaN or an
    infinity) where x lands in [2040/2048, 2041/2048): a start (x, y) with
    x = m/2048, m < 2040, escapes at step 2040 − m. With `recovers`, a NaN
    point goes back to (1/4, 1/2) on the next step."""

    value: float
    recovers: bool = False

    def _apply(self, x, y, op):
        if self.recovers:
            x, y = op.select(x != x, 0.25, x), op.select(y != y, 0.5, y)
        x = x + 1 / 2048
        escaped = (x >= 2040 / 2048) & (x < 2041 / 2048)
        return op.select(escaped, self.value, x), op.select(escaped, self.value, y)


BAND_ESCAPES = [
    pytest.param(EscapesInABand(math.nan), id="nan"),
    pytest.param(EscapesInABand(math.inf), id="inf"),
    pytest.param(EscapesInABand(-math.inf), id="minus-inf"),
    pytest.param(EscapesInABand(math.nan, recovers=True), id="nan-then-finite"),
]


@pytest.mark.parametrize("lift", BAND_ESCAPES)
@pytest.mark.parametrize(
    "at", [(1, 8, 100), (1, 100), (1, 5)], ids=["requested", "between-requested", "after-the-last"]
)
@pytest.mark.parametrize("cols", [1, 3], ids=["4-steps-a-chunk", "1-step-a-chunk"])
def test_array_escape_at_any_step_names_its_step_and_start(cols, at, lift):
    # row 254 of a 256-row grid, x = 2032/2048, escapes first, at step 8
    starts = maps.grid_starts(256, cols, 0.0)
    err = _escape(lambda: list(maps.torus_orbit(lift, starts, 100, at=at)))
    assert (err.step, err.start) == (8, (254 / 256, 0.0))


@pytest.mark.parametrize("lift", BAND_ESCAPES)
@pytest.mark.parametrize(
    "run, start",
    [
        # 128 rows of 64 per block: row 254 is in block 1, and block 0
        # escapes only at step 1024, from row 127
        (lambda lift: estimate_rotation_set(lift, (256, 64), (1, 5, 1100)), (254 / 256, 0.0)),
        # 64 rows of 128 per block: row 127 is in block 1
        (lambda lift: orbit_table(lift, 128, 12), (127 / 128, 0.0)),
    ],
    ids=["estimate_rotation_set", "orbit_table"],
)
def test_grid_escape_past_step_1_in_a_later_block(lift, run, start):
    assert maps._BLOCK_POINTS == 8192  # the blocks the comments count
    err = _escape(lambda: run(lift))
    assert (err.step, err.start) == (8, start)


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
# 64 starts, orbit_table rows of 120. Both have a grid row at x = 4/5.
ROTSET_GRID = (160, 64)
TABLE_RES = 120
# Grid rows per block; None keeps the default _BLOCK_POINTS. Blocks of 1.5
# rows end mid-row.
BLOCK_ROWS = [1, 1.5, 3, None]


def _set_block_rows(monkeypatch, rows, row_len):
    if rows is not None:
        monkeypatch.setattr(maps, "_BLOCK_POINTS", int(rows * row_len))


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

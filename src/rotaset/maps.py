"""Lifts of torus homeomorphisms isotopic to the identity.

A lift is an immutable combinator tree evaluated on planar points. Every
variant satisfies F(p + v) = F(p) + v for integer v and projects to a
homeomorphism of the 2-torus, which the library evaluates forward only.
Each variant states its arithmetic once, on coordinates x and y, with
operations that numpy arrays and Python floats both accept, so one
declaration runs on a batch of points as numpy columns and on a single
point as Python floats, with the same bits.
Evaluation is pure. Grid runs (`run_in_blocks`) advance their blocks of
starts one after another on the calling thread.

Two evaluation paths are provided:

* ``eval_lift`` — plain planar evaluation.
* ``torus_step`` — one step of the projected torus dynamics on points in
  [0,1)², returned as (next point in [0,1)², integer winding). Windings are
  exact int64, so orbit bookkeeping that must respect the algebraic
  identities (integer translates, iterates, covering lifts) does not lose
  them to float rounding.
"""
from __future__ import annotations

import bisect
import inspect
import itertools
import math
import numbers
import typing
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

__all__ = [
    "TorusLift",
    "Identity",
    "Translation",
    "VerticalTentShear",
    "HorizontalTentShear",
    "LocalizedShear",
    "Composition",
    "Iterate",
    "IntegerTranslate",
    "IterationError",
    "tent",
    "eval_lift",
    "torus_step",
    "iterate",
    "torus_orbit",
    "walk_closed_grid",
    "project_to_torus",
    "lm_map",
    "rotation_map",
    "horseshoe_disk",
    "from_map_spec",
    "map_spec",
    "map_label",
    "map_defaults",
    "BUILTIN_MAPS",
    "builtin_map",
]

# Steepest slope of the radial bump profile (1 - s^2)^2 on [0, 1].
_BUMP_MAX_SLOPE = 8.0 / (3.0 * math.sqrt(3.0))

# Point-steps per chunk the orbit engine yields. On Python floats a chunk is
# also the unit that runs again on arrays when a step raises, so a float
# step needs no finiteness check of its own; arrays are checked every step.
# A chunk's arrays live until its caller moves on, so this bounds memory.
# Covering runs of 10^5 rotation steps took, on a 2-vCPU x86-64 VM, 0.041 s
# (one start) and 0.080 s (two) at 1024, against 0.047 and 0.10 s at 256 and
# 0.037 and 0.073-0.11 s at 4096 (medians of 9, three processes each).
_ORBIT_CHUNK_POINTS = 1024

# Grid starts whose images `walk_closed_grid` checks before it steps the
# whole grid: a grid that is not closed is then rejected for one step of
# this many points, 0.04 ms for `lm` at 128² on a 2-vCPU x86-64 VM.
_PROBE_STARTS = 32

# Most starts the orbit engine (and `torus_step`) steps on Python floats;
# larger batches step on numpy columns. One engine step of a batch took, on
# a 2-vCPU x86-64 VM, 0.35 µs per start on floats and 7.2 µs on arrays for a
# translation, and 1.4 µs per start and 17 µs for `lm` (arrays cost about
# the same up to a few dozen starts): floats stay faster up to about 20 and
# 12 starts. `lm`, whose `_step` is an override, sets the bound.
_FLOAT_STARTS = 10

# Starts per block of a grid run, rounded down to whole grid rows (at least
# one): a block's columns and per-step temporaries then stay in cache. On a
# 2-vCPU x86-64 VM, a generic-offset `rotset` of `integer_translate(lm,
# (2, -1))` (128², horizons 100, 500, 2000) took 0.31 s as one batch of
# 16384, 0.29 s in blocks of 8192, 0.33 s in blocks of 12288 (8192 + 4096),
# 0.36 s in blocks of 4096 and 0.49 s in blocks of 2048 (medians of 5).
_BLOCK_POINTS = 8192

# Most substeps one LocalizedShear step may take: about 135 times the 74 of
# the default horseshoe_disk. Amplitude 1e9 at radius 0.25 would need
# 1.2e10, and one point-step would not finish in 20 s.
_MAX_SUBSTEPS = 10_000

# Largest `iterate` count k: a step runs k base steps, about 0.2 s for `lm`
# at batch 1 (nested iterates multiply their counts).
_MAX_ITERATE = 10_000

# Built-in map name -> lift class or alias factory. Filled by declarations:
# `class V(TorusLift, spec="name")` and `@_builtin("name")`.
BUILTIN_MAPS: dict = {}

# Aliases whose map at its defaults map_label names by the alias.
_LABELLED_ALIASES: list = []


class IterationError(RuntimeError):
    """An orbit left the finite float range: `step` is the earliest step at
    which a start escaped, `start` the first such start, as plain floats."""

    def __init__(self, step: int, start: tuple[float, float]):
        super().__init__(f"orbit from start {start} escaped at step {step}")
        self.step = step
        self.start = start

    def __reduce__(self):
        # args hold only the message: rebuild from (step, start) instead
        return (IterationError, (self.step, self.start))


def _as_points(p) -> np.ndarray:
    """p as finite float points of shape (..., 2), else ValueError."""
    pts = np.asarray(p, dtype=float)
    if pts.shape[-1] != 2:
        raise ValueError(f"expected points of shape (..., 2), got {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("non-finite input point")
    return pts


class _Ops(typing.NamedTuple):
    """What a variant's arithmetic takes from its caller besides `+ - *`,
    `abs`, `%` and comparisons, so that one declaration runs on numpy
    columns (`_ARRAYS`) and on Python floats (`_FLOATS`)."""

    floor: typing.Callable  # floor(t), exact to subtract from t
    select: typing.Callable  # select(cond, a, b): a where cond holds, else b
    reduce: typing.Callable  # reduce(x, y) -> (x - ⌊x⌋, y - ⌊y⌋, ⌊x⌋, ⌊y⌋), windings exact integers


def _reduce_arrays(x, y):
    kx, ky = np.floor(x), np.floor(y)
    wx, wy = kx.astype(np.int64), ky.astype(np.int64)
    return np.subtract(x, kx, out=kx), np.subtract(y, ky, out=ky), wx, wy


def _reduce_floats(x, y):
    # math.floor returns an int, and t - int subtracts the same float as
    # t - np.floor(t); it raises on a NaN or an infinity, which the orbit
    # engine catches
    kx, ky = math.floor(x), math.floor(y)
    return x - kx, y - ky, kx, ky


_ARRAYS = _Ops(np.floor, np.where, _reduce_arrays)
_FLOATS = _Ops(math.floor, lambda cond, a, b: a if cond else b, _reduce_floats)


def _columns(pts: np.ndarray):
    """The x and y columns of points of shape (..., 2), as 1-d views."""
    flat = pts.reshape(-1, 2)
    return flat[:, 0], flat[:, 1]


def _points(x, y, shape) -> np.ndarray:
    """Columns x and y as points of shape `shape`: a view of one (2, n)
    array, whose columns the next step reads without a stride."""
    return np.array((x, y)).T.reshape(shape)


def _tent(t, floor):
    s = t - floor(t)  # fresh: the in-place steps below leave t as it is
    s *= 2.0
    s -= 1.0
    return 1.0 - abs(s)


def tent(t):
    """Continuous period-1 tent: 0 at integers, 1 at half-integers, slopes ±2.

    Exact in floating point at dyadic arguments, which keeps the
    distinguished fixed points of the tent-shear maps exactly computable.
    """
    return _tent(np.asarray(t, dtype=float), np.floor)[()]  # a scalar for a scalar t


def _param(name: str, value, pair: bool = False, integral: bool = False, winding: bool = False):
    """A spec parameter, checked: a finite number that is not a bool, or
    with `pair` a list or tuple of exactly two, returned as a tuple. With
    `winding` or `integral` each number must be of magnitude under 2⁶³, so
    that a step by it has an int64 winding; with `integral` it must also
    equal an int (2.0 means 2), and comes back as that int. Else numbers
    come back as given. Errors name the value."""
    if pair:
        if not isinstance(value, (list, tuple)) or len(value) != 2:
            raise ValueError(f"{name} must be a pair of two numbers, got {value!r}")
        return tuple(_param(name, x, integral=integral, winding=winding) for x in value)
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if integral:
        if value != int(value) or not abs(value) < 2**63:
            raise ValueError(f"{name} must be an integer of magnitude under 2**63, got {value!r}")
        return int(value)
    if winding and not abs(value) < 2**63:
        raise ValueError(f"{name} must be of magnitude under 2**63, got {value!r}")
    return value


def _builtin(name: str, label: bool = False):
    """Register a lift class or factory as the built-in map `name`. With
    `label`, map_label names the factory's map at its defaults `name`."""

    def register(builder):
        if name in BUILTIN_MAPS:
            raise ValueError(f"map {name!r} is already registered")
        BUILTIN_MAPS[name] = builder
        if label:
            _LABELLED_ALIASES.append(name)
        return builder

    return register


@dataclass(frozen=True)
class TorusLift:
    """Base class; a concrete variant implements _apply alone.

    ``class V(TorusLift, spec="name")`` declares the built-in map "name":
    its fields are the spec's parameters (keyed by ``metadata["spec"]`` if
    set), their defaults the spec's, and fields annotated ``TorusLift`` or
    ``tuple[TorusLift, ...]`` hold nested specs.
    """

    spec_name = None  # the declared spec name; None for unregistered lifts

    def __init_subclass__(cls, spec: str | None = None, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.spec_name = spec
        if spec is not None:
            _builtin(spec)(cls)

    def _apply(self, x, y, op: _Ops):
        """The lift at (x, y) as a pair (x', y'), from `+ - *`, `abs`, `%`,
        comparisons and the operations in `op`: the same code runs on numpy
        columns and on Python floats. It must not change x or y in place."""
        raise NotImplementedError

    def _step(self, x, y, op: _Ops):
        """One torus step from (x, y) in [0,1)²: (x', y', winding x, winding
        y). On arrays the windings are fresh: callers sum into them in place."""
        return op.reduce(*self._apply(x, y, op))


@dataclass(frozen=True)
class Identity(TorusLift, spec="identity"):
    def _apply(self, x, y, op):
        return x, y


@dataclass(frozen=True)
class Translation(TorusLift, spec="translation"):
    v: tuple[float, float]

    def __post_init__(self):
        object.__setattr__(self, "v", tuple(float(c) for c in _param("v", self.v, pair=True, winding=True)))

    def _apply(self, x, y, op):
        vx, vy = self.v
        return x + vx, y + vy


@dataclass(frozen=True)
class _TentShear(TorusLift):
    """Adds amplitude·tent(other coordinate) to one coordinate."""

    amplitude: float = 1.0

    def __post_init__(self):
        # stored as given: map_label prints a JSON int amplitude as an int
        _param("amplitude", self.amplitude, winding=True)


@dataclass(frozen=True)
class VerticalTentShear(_TentShear, spec="vertical_tent_shear"):
    """(x, y) -> (x, y + a·tent(x)); a true shear, invertible for any a."""

    def _apply(self, x, y, op):
        d = _tent(x, op.floor)
        d *= self.amplitude
        d += y
        return x, d


@dataclass(frozen=True)
class HorizontalTentShear(_TentShear, spec="horizontal_tent_shear"):
    """(x, y) -> (x + a·tent(y), y)."""

    def _apply(self, x, y, op):
        d = _tent(y, op.floor)
        d *= self.amplitude
        d += x
        return d, y


@dataclass(frozen=True)
class LocalizedShear(TorusLift, spec="localized_shear"):
    """Axis-aligned shear supported on a torus disk, identity outside it.

    The displacement of a point at scaled distance s = ρ/radius from the
    center is amplitude·(1 - s²)² along the chosen axis, applied as a
    composition of substeps small enough that each substep's transverse
    Lipschitz constant is ≤ 1/2. A single shot with a large amplitude is
    not injective; the substepped form is a homeomorphism for any
    amplitude: each substep adds to the moved coordinate a displacement
    of Lipschitz constant ≤ 1/2 in it, so it is strictly increasing in
    that coordinate. Amplitudes that need more than `_MAX_SUBSTEPS`
    substeps are rejected.

    Points at torus distance ≥ radius from the center are returned
    bitwise unchanged.
    """

    center: tuple[float, float] = (0.5, 0.5)
    radius: float = 0.25
    amplitude: float = 1.0
    axis: str = "vertical"  # "vertical" | "horizontal"

    def __post_init__(self):
        center = tuple(float(c) for c in _param("center", self.center, pair=True))
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", float(_param("radius", self.radius)))
        object.__setattr__(self, "amplitude", float(_param("amplitude", self.amplitude)))
        if not (0.0 < self.radius < 0.5):
            raise ValueError("radius must lie in (0, 1/2) so the disk embeds in the torus")
        if self.axis not in ("vertical", "horizontal"):
            raise ValueError("axis must be 'vertical' or 'horizontal'")
        if not (0.0 <= self.center[0] < 1.0 and 0.0 <= self.center[1] < 1.0):
            raise ValueError("center must lie in [0,1)²")
        self.substeps  # raises above _MAX_SUBSTEPS

    @property
    def substeps(self) -> int:
        # per-substep transverse Lipschitz = (|A|/N)·max|bump'|/radius ≤ 1/2
        need = 2.0 * _BUMP_MAX_SLOPE * abs(self.amplitude) / self.radius
        if not need <= _MAX_SUBSTEPS:
            raise ValueError(
                f"amplitude too large: its substep count overflows the cap of {_MAX_SUBSTEPS}"
            )
        return max(1, math.ceil(need))

    def _bump(self, x, y, op):
        cx, cy = self.center
        dx = (x - cx + 0.5) % 1.0 - 0.5
        dy = (y - cy + 0.5) % 1.0 - 0.5
        s2 = (dx * dx + dy * dy) / (self.radius * self.radius)
        t = 1.0 - op.select(s2 < 1.0, s2, 1.0)
        return t * t  # exactly 0.0 outside the disk

    def _apply(self, x, y, op):
        a = self.amplitude / self.substeps
        for _ in range(self.substeps):
            d = a * self._bump(x, y, op)
            if self.axis == "vertical":
                y = y + d
            else:
                x = x + d
        return x, y


@dataclass(frozen=True)
class _Chain(TorusLift):
    """Applies the lifts `_links` (an iterable) in order; a torus step sums
    their exact windings."""

    def _apply(self, x, y, op):
        for f in self._links:
            x, y = f._apply(x, y, op)
        return x, y

    def _step(self, x, y, op):
        links = iter(self._links)
        x, y, wx, wy = next(links)._step(x, y, op)  # fresh winding arrays, summed in place
        for f in links:
            x, y, kx, ky = f._step(x, y, op)
            wx += kx
            wy += ky
        return x, y, wx, wy


@dataclass(frozen=True)
class Composition(_Chain, spec="compose"):
    """Apply factors in list order (first entry acts first)."""

    factors: tuple[TorusLift, ...] = field(metadata={"spec": "maps"})

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        if not self.factors:
            raise ValueError("composition needs at least one factor")

    @property
    def _links(self):
        return self.factors


@dataclass(frozen=True)
class Iterate(_Chain, spec="iterate"):
    base: TorusLift
    k: int

    def __post_init__(self):
        object.__setattr__(self, "k", _param("k", self.k, integral=True))
        if not 1 <= self.k <= _MAX_ITERATE:
            raise ValueError(f"iterate count must be an integer in [1, {_MAX_ITERATE}], got {self.k}")

    @property
    def _links(self):
        return itertools.repeat(self.base, self.k)


@dataclass(frozen=True)
class IntegerTranslate(TorusLift, spec="integer_translate"):
    """base followed by translation by an integer vector; same torus map."""

    base: TorusLift
    v: tuple[int, int]

    def __post_init__(self):
        object.__setattr__(self, "v", _param("v", self.v, pair=True, integral=True))

    def _apply(self, x, y, op):
        x, y = self.base._apply(x, y, op)
        vx, vy = self.v
        return x + vx, y + vy

    def _step(self, x, y, op):
        x, y, wx, wy = self.base._step(x, y, op)  # fresh winding arrays, added to in place
        vx, vy = self.v
        wx += vx
        wy += vy
        return x, y, wx, wy


# --- public evaluation -----------------------------------------------------

def eval_lift(lift: TorusLift, p) -> np.ndarray:
    """Evaluate the planar lift at p (shape (...,2)); rejects non-finite input."""
    pts = _as_points(p)
    return _points(*lift._apply(*_columns(pts), _ARRAYS), pts.shape)


def project_to_torus(p) -> np.ndarray:
    """Reduce planar points mod 1 into [0,1)²: a coordinate a hair below an
    integer, which p − floor(p) rounds up to 1.0, becomes 0.0."""
    pts = _as_points(p)
    u = pts - np.floor(pts)
    u[u == 1.0] = 0.0
    return u


def torus_step(lift: TorusLift, u: np.ndarray):
    """One projected step: u in [0,1)² -> (next u in [0,1)², int64 winding).

    Combinators that append exact integer data (IntegerTranslate) or chain
    steps (Iterate, Composition) override `TorusLift._step`, so their windings
    are exact integer arithmetic on top of the base map's windings and the
    torus point stream is bit-identical to the base map's where the
    projected dynamics coincide. Float64 batches of at most `_FLOAT_STARTS`
    points step on Python floats, as the orbit engine steps them; others,
    and a batch whose floats raise (at a NaN, an infinity or a winding past
    int64), step on numpy columns, where an escaped point comes back NaN
    and windings wrap as int64. Both give the same bits.
    """
    if 0 < u.size <= 2 * _FLOAT_STARTS and u.dtype == np.float64:
        try:
            x, y, wx, wy = zip(*(lift._step(x, y, _FLOATS) for x, y in u.reshape(-1, 2).tolist()))
            xy = np.array((x, y))
            xy += 0.0  # a -0.0 point to 0.0, as x - floor(x) gives it on arrays
            return xy.T.reshape(u.shape), np.array((wx, wy), dtype=np.int64).T.reshape(u.shape)
        except (ArithmeticError, ValueError):
            pass
    x, y, wx, wy = lift._step(*_columns(u), _ARRAYS)
    return _points(x, y, u.shape), _points(wx, wy, u.shape)


def _array_chunk(lift: TorusLift, x, y, w, steps: range, at, starts: np.ndarray):
    """Step the columns x, y through `steps` on numpy arrays, each step one
    `lift._step` whose windings are summed in place into w, the cumulative
    winding columns (None before step 1: step 1's fresh windings become
    them). Returns the points and windings after each step count in `at`
    (ascending, within `steps`), as arrays of shape (len(at), ..., 2) that
    view (2, n) rows, the layout of `torus_step`; then the last x, y and w.
    Every step is checked: an escape raises the error naming that step and
    the first escaped start in `starts`."""
    us = np.empty((len(at), 2, len(x)))
    ws = np.empty(us.shape, dtype=np.int64)
    picks = enumerate(at)
    t, pick = next(picks, (0, 0))
    for k in steps:
        x, y, kx, ky = lift._step(x, y, _ARRAYS)
        if w is None:
            w = kx, ky
        else:
            wx, wy = w
            wx += kx
            wy += ky
        if k == pick:
            us[t, 0], us[t, 1] = x, y
            ws[t, 0], ws[t, 1] = w
            finite = np.isfinite(us[t]).all()  # both columns in one check
            t, pick = next(picks, (0, 0))
        else:
            finite = np.isfinite(x).all() and np.isfinite(y).all()
        if not finite:
            i = np.flatnonzero(~(np.isfinite(x) & np.isfinite(y)))[0]
            raise IterationError(k, tuple(float(c) for c in starts.reshape(-1, 2)[i]))
    shape = (len(at),) + starts.shape
    return us.transpose(0, 2, 1).reshape(shape), ws.transpose(0, 2, 1).reshape(shape), x, y, w


def _float_chunk(lift: TorusLift, u: np.ndarray, w, steps: range, starts: np.ndarray):
    """The points and cumulative windings after every step of `steps` from
    u, whose cumulative winding is w (0 before step 1), as arrays of shape
    (steps, ..., 2), each start stepped on Python floats into its own
    column. A leaf lift, whose `_step` is the base class's, is applied here
    and reduced inline with the operations of `_reduce_floats`, one call a
    step; a lift that overrides `_step` gets one `_step` call a step. A
    chunk whose floats raise, at a NaN or an infinity or at a step winding
    past int64, runs on arrays instead."""
    apply, step, floor = lift._apply, lift._step, math.floor
    leaf = type(lift)._step is TorusLift._step
    us = np.empty((len(steps), u.size // 2, 2))
    dws = np.empty(us.shape, dtype=np.int64)
    try:
        for s, (x, y) in enumerate(u.reshape(-1, 2).tolist()):
            xs, ys, kxs, kys = [], [], [], []
            if leaf:
                for _ in steps:
                    x, y = apply(x, y, _FLOATS)
                    kx, ky = floor(x), floor(y)
                    x -= kx
                    y -= ky
                    xs.append(x)
                    ys.append(y)
                    kxs.append(kx)
                    kys.append(ky)
            else:
                for _ in steps:
                    x, y, kx, ky = step(x, y, _FLOATS)
                    xs.append(x)
                    ys.append(y)
                    kxs.append(kx)
                    kys.append(ky)
            us[:, s, 0], us[:, s, 1] = xs, ys
            dws[:, s, 0], dws[:, s, 1] = kxs, kys  # OverflowError past int64
    except (ArithmeticError, ValueError):
        w = [np.array(c) for c in _columns(w)] if np.ndim(w) else None  # summed into in place
        return _array_chunk(lift, *_columns(u), w, steps, steps, starts)[:2]
    shape = (len(steps),) + u.shape
    ws = np.cumsum(dws.reshape(shape), axis=0)
    ws += w
    return us.reshape(shape), ws


def torus_orbit(lift: TorusLift, u0: np.ndarray, n: int, starts=None, at=None):
    """The orbit engine: advance torus starts u0 (shape (..., 2)) n steps.

    Yields chunks (steps, us, ws) for the step counts `at` (ascending, in
    1..n; default every step), about `_ORBIT_CHUNK_POINTS` point-steps
    each: us[t] and ws[t] are the torus points and the cumulative int64
    windings after step steps[t], as arrays of shape (steps, ..., 2), the
    form `walk_closed_grid` returns. Every step up to n is taken and
    checked, asked for or not. An escape raises the error naming the
    earliest escaped step and, within it, the first start in input order,
    as given in `starts` (the caller's points; default u0).

    Batches of at most `_FLOAT_STARTS` starts step on Python floats in
    chunks of every step, from which the steps in `at` are picked. Larger
    batches step on numpy columns: x, y and the windings stay 1-d arrays
    for the whole run, each step is one `lift._step` plus an in-place
    winding sum, and points are built only at the steps in `at`. Both give
    the bits of n `torus_step` calls.
    """
    points = u0.size // 2
    span = max(1, _ORBIT_CHUNK_POINTS // max(1, points))
    at = range(1, n + 1) if at is None else at
    starts = u0 if starts is None else np.reshape(starts, u0.shape)
    if 0 < points <= _FLOAT_STARTS:
        u, w = u0, 0  # the cumulative winding before step 1
        for first in range(1, n + 1, span):
            steps = range(first, min(first + span, n + 1))
            # escaped points have NaN windings; their cast must not warn
            with np.errstate(invalid="ignore"):
                us, ws = _float_chunk(lift, u, w, steps, starts)
            u, w = us[-1], ws[-1]
            picked = at[bisect.bisect_left(at, first) : bisect.bisect_left(at, steps.stop)]
            if len(picked) == len(steps):
                yield steps, us, ws
            elif len(picked):
                rows = np.subtract(picked, first)
                yield picked, us[rows], ws[rows]
        return
    (x, y), w, first = _columns(u0), None, 1
    for i in range(0, len(at), span):
        picked = at[i : i + span]
        # escaped points have NaN windings; their cast must not warn
        with np.errstate(invalid="ignore"):
            us, ws, x, y, w = _array_chunk(lift, x, y, w, range(first, picked[-1] + 1), picked, starts)
        yield picked, us, ws
        first = picked[-1] + 1
    if first <= n:  # the steps past the last one in `at` are checked too
        with np.errstate(invalid="ignore"):
            _array_chunk(lift, x, y, w, range(first, n + 1), (), starts)


def run_in_blocks(fn, u0: np.ndarray, row_len: int) -> list:
    """fn on consecutive blocks of u0, a grid of rows of `row_len` starts;
    the results in block order.

    A block holds the whole rows that fit in `_BLOCK_POINTS` starts, at
    least one, and the blocks run one after another. When blocks escape,
    the earliest (step, block) error is raised, the one a single pass over
    u0 raises: a later block can escape at an earlier step, so every block
    runs.
    """
    size = max(1, _BLOCK_POINTS // row_len) * row_len
    results, escapes = [], []
    for i in range(0, len(u0), size):
        try:
            results.append(fn(u0[i : i + size]))
        except IterationError as e:
            escapes.append(e)
    if escapes:
        raise min(escapes, key=lambda e: e.step)  # the first block among equal steps
    return results


def grid_starts(rows: int, cols: int, offset: float) -> np.ndarray:
    """The row-major grid ((i + offset)/rows, (j + offset)/cols), shape
    (rows·cols, 2)."""
    return _grid_points(np.arange(rows * cols), rows, cols, offset)


def _grid_points(at: np.ndarray, rows: int, cols: int, offset: float) -> np.ndarray:
    """The starts of grid_starts(rows, cols, offset) at row-major indices `at`."""
    i, j = np.divmod(at, cols)
    return np.stack([(i + offset) / rows, (j + offset) / cols], axis=-1)


def _grid_successor(lift: TorusLift, rows: int, cols: int, offset: float, at: np.ndarray):
    """(σ, w) when one torus step maps each grid start at index at[k] bit
    for bit onto the grid start at index σ[k], with int64 winding w[k];
    else None. The nearest grid index of each image is checked against the
    image's bits, so -0.0 is not 0.0, and a NaN or an infinity matches no
    start."""
    # escaped points have NaN windings; their cast must not warn
    with np.errstate(invalid="ignore"):
        image, w = torus_step(lift, _grid_points(at, rows, cols, offset))
    if not np.isfinite(image).all():
        return None
    x, y = _columns(image)
    i = np.rint(x * rows - offset).clip(0, rows - 1)
    j = np.rint(y * cols - offset).clip(0, cols - 1)
    to = (i * cols + j).astype(np.intp)
    on_grid = _grid_points(to, rows, cols, offset).view(np.uint64) == image.view(np.uint64)
    return (to, w) if on_grid.all() else None


def walk_closed_grid(lift: TorusLift, rows: int, cols: int, offset: float, steps):
    """`torus_orbit`'s points and cumulative windings from the starts
    grid_starts(rows, cols, offset) after each step count in `steps`
    (ascending), as one chunk (steps, us, ws), when one step maps the grid
    bit for bit onto itself; else None. The images of `_PROBE_STARTS`
    starts spread over the grid are checked first, so most grids that are
    not closed cost one step of that many points.

    A step is a pure function of a point's bits, so on a closed grid an
    orbit is a walk on grid indices: σ^h and its windings W_h come from
    one step σ by doubling, σ^(2k) = σ^k∘σ^k and W_(2k) = W_k + W_k[σ^k],
    in O(n log h) instead of n·h point-steps. Int64 addition wraps
    associatively, so the windings are the stepped ones to the bit, and
    the points are the grid starts at σ^h. `lm` and the other tent shears
    of integer amplitude map the grids of a power of two at offset 0 onto
    themselves, with exact float steps.
    """
    probe = np.linspace(0, rows * cols - 1, _PROBE_STARTS, dtype=np.intp)
    if _grid_successor(lift, rows, cols, offset, probe) is None:
        return None
    closed = _grid_successor(lift, rows, cols, offset, np.arange(rows * cols))
    if closed is None:
        return None
    power, wpower = closed  # σ^(2^k) and the windings of its 2^k steps
    at = [np.arange(rows * cols)] * len(steps)  # σ^(h mod 2^k) per step count h
    ws = [np.zeros_like(wpower)] * len(steps)
    for k in range(max(steps).bit_length()):
        if k:
            wpower = wpower + np.take(wpower, power, axis=0)
            power = power[power]
        for t, h in enumerate(steps):
            if h >> k & 1:
                ws[t] = ws[t] + np.take(wpower, at[t], axis=0)
                at[t] = power[at[t]]
    return steps, [_grid_points(a, rows, cols, offset) for a in at], ws


def iterate(lift: TorusLift, p, n: int) -> np.ndarray:
    """n-fold application of the lift; raises IterationError on escape.

    Computed through the winding decomposition, so the result equals
    torus-orbit position plus an exact integer displacement.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    pts = _as_points(p)
    # the starts and their integer parts in torus_step's layout, a view of
    # one (2, n) array each: the final sum then reads every operand
    # without a stride
    x, y = _columns(pts)
    kx, ky = np.floor(x), np.floor(y)
    base_w = _points(kx, ky, pts.shape)
    [(_, us, ws)] = torus_orbit(lift, _points(x - kx, y - ky, pts.shape), n, starts=pts, at=(n,))
    return us[-1] + base_w + ws[-1]


# --- built-in maps ----------------------------------------------------------

# Aliases: a factory's signature declares its parameters and defaults.
@_builtin("lm", label=True)
def lm_map() -> TorusLift:
    """Tent shear in y followed by tent shear in x.

    Fixes (0,0), (1/2,0), (0,1/2), (1/2,1/2) on the torus with lift
    displacements (0,0), (0,1), (1,0), (1,1); its rotation set is the full
    unit square.
    """
    return Composition((VerticalTentShear(1.0), HorizontalTentShear(1.0)))


@_builtin("rotation")
def rotation_map(alpha: float = 0.0, beta: float = 0.0) -> TorusLift:
    """Rigid rotation of the torus by (alpha, beta)."""
    return Translation((alpha, beta))


@_builtin("horseshoe_disk", label=True)
def horseshoe_disk(center=(0.5, 0.5), radius=0.25, amplitude=6.0) -> TorusLift:
    """Vertical then horizontal localized shear sharing one support disk.

    Identity outside the disk, so every orbit's lift displacement is bounded
    and the rotation set collapses to a point.
    """
    return Composition(
        (
            LocalizedShear(center, radius, amplitude, "vertical"),
            LocalizedShear(center, radius, amplitude, "horizontal"),
        )
    )


def _parameters(builder) -> list:
    """(spec key, argument name, default) per parameter of a registered
    builder, in declaration order; a required one's default is
    `inspect.Parameter.empty`."""
    declared = fields(builder) if is_dataclass(builder) else ()
    renamed = {f.name: f.metadata.get("spec", f.name) for f in declared}
    args = inspect.signature(builder).parameters.values()
    return [(renamed.get(a.name, a.name), a.name, a.default) for a in args]


def map_defaults(name: str) -> dict:
    """Declared parameters of built-in map `name` and their defaults;
    a required parameter's value is "<required>"."""
    return {
        key: "<required>" if default is inspect.Parameter.empty else default
        for key, _, default in _parameters(BUILTIN_MAPS[name])
    }


def builtin_map(name: str, **params) -> TorusLift:
    return from_map_spec({"map": name, "params": params})


def from_map_spec(spec: dict) -> TorusLift:
    """Build a lift from {"map": name, "params": {...}}; an unknown map or
    parameter, a missing one or an ill-shaped value raises ValueError."""
    if not isinstance(spec, dict) or "map" not in spec:
        raise ValueError("map spec must be a dict with a 'map' key")
    name = spec["map"]
    if not isinstance(name, str) or name not in BUILTIN_MAPS:
        raise ValueError(f"unknown map {name!r}; known: {', '.join(sorted(BUILTIN_MAPS))}")
    params = spec.get("params", {})
    if not isinstance(params, dict):
        raise ValueError("'params' must be a dict")
    builder = BUILTIN_MAPS[name]
    declared = _parameters(builder)
    keys = [key for key, _, _ in declared]
    unknown = [key for key in params if key not in keys]
    if unknown:
        raise ValueError(f"unknown parameters {unknown} for map {name!r}; it declares {keys}")
    hints = typing.get_type_hints(builder)
    kwargs = {}
    for key, arg, default in declared:
        if key not in params:
            if default is inspect.Parameter.empty:
                raise ValueError(f"map {name!r} needs parameter {key!r}")
            continue
        value = params[key]
        if hints.get(arg) is TorusLift:
            value = from_map_spec(value)
        elif hints.get(arg) == tuple[TorusLift, ...]:
            if not isinstance(value, (list, tuple)):
                raise ValueError(f"{key} must be a list of map specs, got {value!r}")
            value = tuple(from_map_spec(s) for s in value)
        kwargs[arg] = value
    return builder(**kwargs)


def _spec_value(value):
    if isinstance(value, TorusLift):
        return map_spec(value)
    if isinstance(value, tuple):
        return [_spec_value(v) for v in value]
    return value


def map_spec(lift: TorusLift) -> dict:
    """Serializable spec for a lift; inverse of from_map_spec up to aliases."""
    name = getattr(lift, "spec_name", None)
    if name is None:
        raise ValueError(f"cannot serialize lift of type {type(lift).__name__}")
    params = {key: _spec_value(getattr(lift, arg)) for key, arg, _ in _parameters(type(lift))}
    return {"map": name, "params": params}


def map_label(lift: TorusLift) -> str:
    """Short deterministic identifier used in artifacts."""
    spec = map_spec(lift)
    for alias in _LABELLED_ALIASES:
        if spec == map_spec(BUILTIN_MAPS[alias]()):
            return alias
    name = spec["map"]
    params = spec.get("params", {})
    if not params:
        return name
    inner = ",".join(f"{k}={params[k]}" for k in sorted(params))
    return f"{name}({inner})"

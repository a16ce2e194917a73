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

The evaluation entry points:

* ``eval_lift`` — plain planar evaluation.
* ``torus_step`` — one step of the projected torus dynamics on points in
  [0,1)², returned as (next point in [0,1)², integer winding). Windings are
  exact int64, so orbit bookkeeping that must respect the algebraic
  identities (integer translates, iterates, covering lifts) does not lose
  them to float rounding.
* ``torus_orbit`` — the orbit engine: n such steps from a batch of starts,
  yielded in chunks at the step counts a caller names.
* ``walk_closed_grid`` — the same orbits of a grid of starts that one step
  maps bit for bit onto itself, walked on grid indices.
* ``iterate`` — n-fold planar evaluation, through the orbit engine.
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
# step needs no finiteness check of its own; interpreted array steps are
# checked every step.
# A chunk's arrays live until its caller moves on, so this bounds memory.
# Covering runs of 10^5 rotation steps, each on a fresh lift that compiles
# its step, took on a 2-vCPU x86-64 VM 0.043 s (one start) and 0.088 s (two)
# at 1024, against 0.056 and 0.12 s at 256 and 0.038 and 0.077 s at 4096
# (medians of 18, six processes each). 4096 would save about a tenth of
# such a run, for four times the arrays and four times the run a float
# orbit must fill before it compiles.
_ORBIT_CHUNK_POINTS = 1024

# Most starts the orbit engine (and `torus_step`) steps on Python floats;
# larger batches step on numpy columns. Per start-step on a 2-vCPU x86-64
# VM, for a translation and for `lm`, each regime forced (3000-step runs,
# medians of 5): a compiled float step took 0.24-0.28 and 0.46-0.51 µs at
# batches 8-32, an interpreted one (`torus_step`, and runs shorter than a
# chunk) 0.55-0.77 and 1.4-1.6 µs. An interpreted array step took 0.65
# and 1.76 µs at 10 starts, 0.55 and 1.46 at 12, 0.42 and 1.22 at 16, 0.22
# and 0.56 at 32; the compiled array kernel (runs of
# `_ARRAY_COMPILE_POINTS`) 0.51 and 1.17, 0.43 and 0.89, 0.34 and 0.71,
# 0.17 and 0.51. Interpreted floats and arrays cross at about 12 starts,
# which sets the bound; compiled floats beat both array steps up to about
# 24.
_FLOAT_STARTS = 10

# Starts per block of a grid run: a block's columns and per-step
# temporaries then stay in cache. On a 2-vCPU x86-64 VM, generic-offset
# `rotset` grids of `integer_translate(lm, (2, -1))` on the array kernel
# took, at 128² (horizons 100, 500, 2000), 0.320 s in blocks of 8192
# against 0.271 s as one batch (medians of 7 alternating runs in one
# process); at 512² (horizons 100, 500), 1.10-1.25 s in blocks of 8192,
# 1.87-1.99 s as one batch and 1.04-1.24 s in blocks of 16384 (two
# sessions of 3 alternating runs). Blocks pay at 512², not at 128².
_BLOCK_POINTS = 8192

# Most substeps one LocalizedShear step may take: about 135 times the 74 of
# the default horseshoe_disk. Amplitude 1e9 at radius 0.25 would need
# 1.2e10, and one point-step would not finish in 20 s.
_MAX_SUBSTEPS = 10_000

# Largest `iterate` count k: a step runs k base steps, about 0.2 s for `lm`
# at batch 1 (nested iterates multiply their counts).
_MAX_ITERATE = 10_000

# Fewest point-steps (starts × steps) an array run must take to trace its
# step and compile an array kernel (`tracer.ArrayStep`). On a 2-vCPU x86-64
# VM that took 0.5 ms for `lm` and 54 ms for `horseshoe_disk`, and a compiled
# step saved about 10-30 µs and 1.1-2.6 ms at 4096-8192 starts, so 2**20
# (128 steps of a block of 8192) repays either several times over.
# Entropy's tables (at most 8192 starts × 13 steps) and Newton's 1-3 step
# calls stay below it: they would not repay a `horseshoe_disk` trace.
_ARRAY_COMPILE_POINTS = 2**20

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
    frac: typing.Callable  # frac(t): t % 1.0, the bits of Python's float `%` on both


def _reduce_arrays(x, y):
    kx, ky = np.floor(x), np.floor(y)
    wx, wy = kx.astype(np.int64), ky.astype(np.int64)
    return np.subtract(x, kx, out=kx), np.subtract(y, ky, out=ky), wx, wy


def _reduce_floats(x, y, floor=math.floor):
    # math.floor returns an int, and t - int subtracts the same float as
    # t - np.floor(t); it raises on a NaN or an infinity, which the orbit
    # engine catches
    kx, ky = floor(x), floor(y)
    return x - kx, y - ky, kx, ky


def _frac_arrays(t):
    # t - ⌊t⌋ rounds the exact t mod 1 once, as fmod and its correction in
    # `%` do: the same bits, at 0.49 ns per element against 11.5 ns for
    # np.remainder (2-vCPU x86-64 VM)
    k = np.floor(t)
    return np.subtract(t, k, out=k)


def _frac_floats(t):
    return t % 1.0


_ARRAYS = _Ops(np.floor, np.where, _reduce_arrays, _frac_arrays)
_FLOATS = _Ops(math.floor, lambda cond, a, b: a if cond else b, _reduce_floats, _frac_floats)


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

    def __getstate__(self):
        # the compiled steps the orbit engine keeps on the instance (the
        # float chunk loop and the array kernel) are generated code, which
        # does not pickle
        state = dict(vars(self))
        state.pop("_compiled", None)
        state.pop("_arrays", None)
        return state


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

    def _apply(self, x, y, op):
        a = self.amplitude / self.substeps
        r2 = self.radius * self.radius
        cx, cy = self.center
        vertical = self.axis == "vertical"
        # the fixed coordinate's offset from the center, once per step
        fixed = _centred(x, cx, op) if vertical else _centred(y, cy, op)
        fixed = fixed * fixed
        for _ in range(self.substeps):
            if vertical:
                dy = _centred(y, cy, op)
                y = y + a * _bump((fixed + dy * dy) / r2, op)
            else:
                dx = _centred(x, cx, op)
                x = x + a * _bump((dx * dx + fixed) / r2, op)
        return x, y


def _centred(t, c, op):
    """t - c reduced mod 1 into [-1/2, 1/2)."""
    return op.frac(t - c + 0.5) - 0.5


def _bump(s2, op):
    """(1 - s2)² inside the unit disk, exactly 0.0 outside (s2 ≥ 1)."""
    t = 1.0 - op.select(s2 < 1.0, s2, 1.0)
    return t * t


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


def _array_chunk(advance, steps: range, at, shape: tuple):
    """Take the array steps `steps`, each one `advance(k)` for its step
    count k, which returns the columns x, y and the cumulative winding
    columns after it. Returns the points and int64 windings after each
    step count in `at` (ascending, within `steps`), as arrays of shape
    (len(at),) + `shape`, the shape of the starts, that view (2, n) rows,
    the layout of `torus_step`. An advance that can meet an escape checks
    for it itself (`_interpreted`)."""
    us = np.empty((len(at), 2, math.prod(shape) // 2))
    ws = np.empty(us.shape, dtype=np.int64)
    picks = enumerate(at)
    t, pick = next(picks, (0, 0))
    for k in steps:
        x, y, wx, wy = advance(k)
        if k == pick:
            us[t, 0], us[t, 1] = x, y
            ws[t, 0], ws[t, 1] = wx, wy  # float windings hold exact integers
            t, pick = next(picks, (0, 0))
    shape = (len(at),) + shape
    return us.transpose(0, 2, 1).reshape(shape), ws.transpose(0, 2, 1).reshape(shape)


def _interpreted(lift: TorusLift, x, y, starts: np.ndarray, w=0):
    """An `advance` for `_array_chunk`: one `lift._step` on the columns x, y
    a call, its windings summed in place into int64 columns that start at
    w, the cumulative windings before the run (0, or of the shape of
    `starts`), so a step may return a winding of any integer kind. The only
    array advance that can meet an escape, it checks every step with one
    sum per coordinate: a reduced coordinate lies in [0,1] or is NaN, so
    the sums are finite exactly when every point is. Only a sum that is
    not scans the points, and an escape raises the error naming step k
    and the first escaped start in `starts`."""
    wx, wy = np.array(_columns(np.broadcast_to(w, starts.shape)), dtype=np.int64)

    def advance(k):
        nonlocal x, y, wx, wy
        x, y, kx, ky = lift._step(x, y, _ARRAYS)
        if not math.isfinite(np.add.reduce(x) + np.add.reduce(y)):
            escaped = ~(np.isfinite(x) & np.isfinite(y))
            if escaped.any():
                raise IterationError(k, tuple(float(c) for c in starts.reshape(-1, 2)[escaped.argmax()]))
        wx += kx
        wy += ky
        return x, y, wx, wy

    return advance


def _compiled_step(lift: TorusLift, regime: str, compiles: bool):
    """The lift's step compiled for `regime`, for a run that `compiles`
    (meets its regime's rule in `torus_orbit`): "floats", a float chunk
    loop (`tracer.compile_floats`), kept on the instance as `_compiled`;
    "arrays", an array kernel (`tracer.compile_arrays`), kept as `_arrays`.
    Built by the first such run; None for any other run, whatever the
    instance keeps, and where the tracer cannot record the step (kept as
    False)."""
    if not compiles:
        return None
    name = {"floats": "_compiled", "arrays": "_arrays"}[regime]
    step = vars(lift).get(name)
    if step is None:
        from . import tracer  # imported by the first run that compiles, not by every import

        step = getattr(tracer, f"compile_{regime}")(lift) or False
        object.__setattr__(lift, name, step)  # not a field: eq, hash and repr ignore it
    return step or None


def _float_chunk(lift: TorusLift, run, u: np.ndarray, w, steps: range, starts: np.ndarray):
    """The points and cumulative windings after every step of `steps` from
    u, whose cumulative winding is w (0 before step 1), as arrays of shape
    (steps, ..., 2). Each start steps on Python floats into its own row:
    through `run`, a compiled chunk loop that keeps points only, or else
    one `lift._step` call a step, which keeps its windings too. Where the
    windings are not kept, or one passes int64, one `lift._step` on arrays
    over every step's previous point, all starts stacked, gives them, with
    the bits of the array regime, where they wrap as int64. A chunk whose
    floats raise, at a NaN or an infinity, runs on arrays instead."""
    m, step = len(steps), lift._step
    rows = np.empty((u.size // 2, 2, m + 1))  # per start: x then y, from u on
    kept = []  # per start, where interpreted: its x and y windings
    try:
        for s, (x, y) in enumerate(u.reshape(-1, 2).tolist()):
            xs, ys = [x], [y]
            if run:
                run(x, y, m, xs.append, ys.append)
            else:
                kxs, kys = [], []
                for _ in steps:
                    x, y, kx, ky = step(x, y, _FLOATS)
                    xs.append(x)
                    ys.append(y)
                    kxs.append(kx)
                    kys.append(ky)
                kept.append((kxs, kys))
            rows[s, 0], rows[s, 1] = xs, ys
    except (ArithmeticError, ValueError):
        return _array_chunk(_interpreted(lift, *_columns(u), starts, w), steps, steps, u.shape)
    try:
        dws = np.array(kept, dtype=np.int64) if kept else None  # (starts, 2, m)
    except OverflowError:
        dws = None
    if dws is None:  # a winding the array step returns as a scalar is every point's
        x = rows[:, 0, :-1]  # (starts, m): the x before each step
        _, _, kx, ky = step(x.ravel(), rows[:, 1, :-1].ravel(), _ARRAYS)
        dws = np.stack([np.broadcast_to(k, x.size).reshape(x.shape) for k in (kx, ky)], axis=1)
    shape = (m,) + u.shape
    ws = np.cumsum(dws, axis=2).transpose(2, 0, 1).reshape(shape)
    ws += w
    return rows[:, :, 1:].transpose(2, 0, 1).reshape(shape), ws


def torus_orbit(lift: TorusLift, u0: np.ndarray, n: int, starts=None, at=None):
    """The orbit engine: advance torus starts u0 (shape (..., 2)) n steps.

    Yields chunks (steps, us, ws) for the step counts `at` (ascending, in
    1..n; default every step), about `_ORBIT_CHUNK_POINTS` point-steps
    each: us[t] and ws[t] are the torus points and the cumulative int64
    windings after step steps[t], as arrays of shape (steps, ..., 2), the
    form `walk_closed_grid` returns. Every step up to n is taken, asked
    for or not, and checked where a point can escape. An escape raises the
    error naming the earliest escaped step and, within it, the first start
    in input order, as given in `starts` (the caller's points; default u0).

    Each run decides from its own size alone whether it runs compiled
    (`_compiled_step`): a step compiled by an earlier run on the lift
    instance is reused only by a run that meets the rule itself.

    Batches of at most `_FLOAT_STARTS` starts step on Python floats in
    chunks of every step, from which the steps in `at` are picked. A run
    that fills at least one chunk (starts × n ≥ `_ORBIT_CHUNK_POINTS`)
    runs the lift's compiled step; a shorter one, and a step the tracer
    cannot record, is interpreted (see `_float_chunk`). A start of -0.0
    steps as 0.0, as on arrays.

    Larger batches step on numpy columns: x, y and the windings stay 1-d
    arrays for the whole run, and points are built only at the steps in
    `at` (see `_array_chunk`). A run of at least `_ARRAY_COMPILE_POINTS`
    point-steps runs the array kernel compiled from the lift's trace
    (`tracer.ArrayStep`): one ufunc call per operation, into preallocated
    columns. Its windings are float64 sums of the floors, so it runs only
    where the trace's magnitude bounds prove every partial sum of the run
    an exact integer; the same bounds prove every point finite, so its
    steps are not checked. Every other run (shorter, past the bound, or of
    a step the tracer cannot record or bound) calls `lift._step` each
    step, checks it for escapes and sums its windings in place into int64
    columns (`_interpreted`). All give the bits of n `torus_step` calls.
    """
    points = u0.size // 2
    span = max(1, _ORBIT_CHUNK_POINTS // max(1, points))
    at = range(1, n + 1) if at is None else at
    starts = u0 if starts is None else np.reshape(starts, u0.shape)
    u0 = u0 + 0.0  # a -0.0 start to 0.0, as an array step reduces it
    if 0 < points <= _FLOAT_STARTS:
        run = _compiled_step(lift, "floats", n * points >= _ORBIT_CHUNK_POINTS)
        u, w = u0, 0  # the cumulative winding before step 1
        for first in range(1, n + 1, span):
            steps = range(first, min(first + span, n + 1))
            # escaped points, and windings past int64, must not warn in a cast
            with np.errstate(invalid="ignore"):
                us, ws = _float_chunk(lift, run, u, w, steps, starts)
            u, w = us[-1], ws[-1]
            picked = at[bisect.bisect_left(at, first) : bisect.bisect_left(at, steps.stop)]
            if len(picked) == len(steps):
                yield steps, us, ws
            elif len(picked):
                rows = np.subtract(picked, first)
                yield picked, us[rows], ws[rows]
        return
    x, y = _columns(u0)
    kernel = _compiled_step(lift, "arrays", n * points >= _ARRAY_COMPILE_POINTS)
    advance, first = (kernel and kernel.steps(x, y, n)) or _interpreted(lift, x, y, starts), 1
    for i in range(0, len(at), span):
        picked = at[i : i + span]
        # escaped points have NaN windings; their cast must not warn
        with np.errstate(invalid="ignore"):
            us, ws = _array_chunk(advance, range(first, picked[-1] + 1), picked, u0.shape)
        yield picked, us, ws
        first = picked[-1] + 1
    if first <= n:  # the steps past the last one in `at` are checked too
        with np.errstate(invalid="ignore"):
            _array_chunk(advance, range(first, n + 1), (), u0.shape)


def run_in_blocks(fn, u0: np.ndarray) -> list:
    """fn on consecutive blocks of `_BLOCK_POINTS` starts of u0, one after
    another; the results in block order.

    Each start's arithmetic is elementwise, so any contiguous split gives
    the same bits. When blocks escape, the earliest (step, block) error is
    raised, the one a single pass over u0 raises: a later block can escape
    at an earlier step, so every block runs.
    """
    results, escapes = [], []
    for i in range(0, len(u0), _BLOCK_POINTS):
        try:
            results.append(fn(u0[i : i + _BLOCK_POINTS]))
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


def _grid_successor(lift: TorusLift, rows: int, cols: int, offset: float):
    """(σ, w) when one torus step maps each start k of grid_starts(rows,
    cols, offset) bit for bit onto the start σ[k], with int64 winding w[k];
    else None. The nearest grid index of each image is checked against the
    image's bits, so -0.0 is not 0.0, and a NaN or an infinity matches no
    start."""
    # escaped points have NaN windings; their cast must not warn
    with np.errstate(invalid="ignore"):
        image, w = torus_step(lift, grid_starts(rows, cols, offset))
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
    bit for bit onto itself; else None. The check is one step of the
    whole grid, so a grid that is not closed costs that one step.

    A step is a pure function of a point's bits, so on a closed grid an
    orbit is a walk on grid indices: σ^h and its windings W_h come from
    one step σ by doubling, σ^(2k) = σ^k∘σ^k and W_(2k) = W_k + W_k[σ^k],
    in O(n log h) instead of n·h point-steps. Int64 addition wraps
    associatively, so the windings are the stepped ones to the bit, and
    the points are the grid starts at σ^h. `lm` and the other tent shears
    of integer amplitude map the grids of a power of two at offset 0 onto
    themselves, with exact float steps.
    """
    closed = _grid_successor(lift, rows, cols, offset)
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

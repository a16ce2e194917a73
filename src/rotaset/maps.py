"""Lifts of torus homeomorphisms isotopic to the identity.

A lift is an immutable combinator tree evaluated on planar points. Every
variant satisfies F(p + v) = F(p) + v for integer v, is invertible, and
projects to a homeomorphism of the 2-torus. Evaluation is vectorized over
numpy arrays of shape (..., 2) and is pure, so trees are safe to share
across workers.

Two evaluation paths are provided:

* ``eval_lift`` / ``eval_inverse`` — plain planar evaluation.
* ``torus_step`` — one step of the projected torus dynamics on points in
  [0,1)², returned as (next point in [0,1)², integer winding). Windings are
  exact int64, so orbit bookkeeping that must respect the algebraic
  identities (integer translates, iterates, covering lifts) does not lose
  them to float rounding.
"""
from __future__ import annotations

import inspect
import itertools
import math
import numbers
import typing
from concurrent.futures import ThreadPoolExecutor
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
    "eval_inverse",
    "torus_step",
    "iterate",
    "torus_orbit",
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

# Point-steps the orbit engine collects before one finiteness check: per
# step, a check costs about as much as a batch-1 step itself. A chunk's
# arrays live until its caller moves on, so this also bounds memory: a
# batch-1 covering run peaks about 2 MB higher at 4096 than at 1024.
_ORBIT_CHUNK_POINTS = 1024

# Starts per block of a grid run, rounded down to whole grid rows (at least
# one): a block's per-step temporaries then stay in cache. On a 2-core
# x86-64 VM, 16384 `lm` starts x 2000 steps took 1.23-1.33 s as one batch
# and 0.93-0.96 s in blocks of 4096 or 8192; 2048 was no faster than one
# batch, and 1024 or fewer slower. The thread pool uses the same blocks, so a
# grid of at most one block runs on one thread: on that VM at `--workers 2`,
# `rotset --grid 64` took 0.60 s as one block and 0.97 s split into one block
# per worker (medians of 7 CLI runs), and in no measured case did two threads
# beat serial blocks.
_BLOCK_POINTS = 4096

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


def _as_points(p) -> np.ndarray:
    """p as finite float points of shape (..., 2), else ValueError."""
    pts = np.asarray(p, dtype=float)
    if pts.shape[-1] != 2:
        raise ValueError(f"expected points of shape (..., 2), got {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("non-finite input point")
    return pts


def tent(t):
    """Continuous period-1 tent: 0 at integers, 1 at half-integers, slopes ±2.

    Exact in floating point at dyadic arguments, which keeps the
    distinguished fixed points of the tent-shear maps exactly computable.
    """
    t = np.asarray(t, dtype=float)
    s = np.floor(t, out=np.empty(t.shape))  # one scratch array, updated in place
    np.subtract(t, s, out=s)
    s *= 2.0
    s -= 1.0
    np.abs(s, out=s)
    return np.subtract(1.0, s, out=s)[()]  # a scalar for a scalar t


def _param(name: str, value, pair: bool = False, integral: bool = False):
    """A spec parameter, checked: a finite number that is not a bool, or
    with `pair` a list or tuple of exactly two, returned as a tuple. With
    `integral` each number must equal an int (2.0 means 2) of magnitude
    under 2⁶³, so that it fits an int64 winding, and comes back as that int;
    else numbers come back as given. Errors name the value."""
    if pair:
        if not isinstance(value, (list, tuple)) or len(value) != 2:
            raise ValueError(f"{name} must be a pair of two numbers, got {value!r}")
        return tuple(_param(name, x, integral=integral) for x in value)
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if integral:
        if value != int(value) or not abs(value) < 2**63:
            raise ValueError(f"{name} must be an integer of magnitude under 2**63, got {value!r}")
        return int(value)
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
    """Base class; concrete variants implement _apply and _apply_inv.

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

    def _apply(self, pts: np.ndarray) -> np.ndarray:
        """The lift at pts as a new array, never pts itself or a view of it:
        a torus step reduces it in place."""
        raise NotImplementedError

    def _apply_inv(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _step(self, u: np.ndarray):
        """torus_step for a leaf: apply, floor, then cast the winding."""
        z = self._apply(u)  # a new array: _apply never returns its input
        k = np.floor(z)
        z -= k
        return z, k.astype(np.int64)


@dataclass(frozen=True)
class Identity(TorusLift, spec="identity"):
    def _apply(self, pts):
        return pts.copy()

    def _apply_inv(self, pts):
        return pts.copy()


@dataclass(frozen=True)
class Translation(TorusLift, spec="translation"):
    v: tuple[float, float]

    def __post_init__(self):
        object.__setattr__(self, "v", tuple(float(c) for c in _param("v", self.v, pair=True)))

    def _apply(self, pts):
        return pts + np.asarray(self.v)

    def _apply_inv(self, pts):
        return pts - np.asarray(self.v)


@dataclass(frozen=True)
class _TentShear(TorusLift):
    """Adds amplitude·tent(other coordinate) to coordinate `_moved`."""

    amplitude: float = 1.0

    def __post_init__(self):
        # stored as given: map_label prints a JSON int amplitude as an int
        _param("amplitude", self.amplitude)

    def _apply(self, pts):
        return self._shear(pts, self.amplitude)

    def _apply_inv(self, pts):
        return self._shear(pts, -self.amplitude)

    def _shear(self, pts, a):
        out = pts.copy()
        term = tent(pts[..., 1 - self._moved])
        term *= a
        out[..., self._moved] += term
        return out


@dataclass(frozen=True)
class VerticalTentShear(_TentShear, spec="vertical_tent_shear"):
    """(x, y) -> (x, y + a·tent(x)); a true shear, invertible for any a."""

    _moved = 1


@dataclass(frozen=True)
class HorizontalTentShear(_TentShear, spec="horizontal_tent_shear"):
    """(x, y) -> (x + a·tent(y), y)."""

    _moved = 0


@dataclass(frozen=True)
class LocalizedShear(TorusLift, spec="localized_shear"):
    """Axis-aligned shear supported on a torus disk, identity outside it.

    The displacement of a point at scaled distance s = ρ/radius from the
    center is amplitude·(1 - s²)² along the chosen axis, applied as a
    composition of substeps small enough that each substep's transverse
    Lipschitz constant is ≤ 1/2. A single shot with a large amplitude is
    not injective; the substepped form is a homeomorphism for any
    amplitude, and its inverse is computed by per-substep fixed-point
    iteration (contraction factor ≤ 1/2). Amplitudes that need more than
    `_MAX_SUBSTEPS` substeps are rejected.

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

    def _bump(self, x, y):
        cx, cy = self.center
        dx = (x - cx + 0.5) % 1.0 - 0.5
        dy = (y - cy + 0.5) % 1.0 - 0.5
        s2 = (dx * dx + dy * dy) / (self.radius * self.radius)
        inside = s2 < 1.0
        t = 1.0 - np.where(inside, s2, 1.0)
        return t * t  # exactly 0.0 outside the disk

    def _apply(self, pts):
        out = pts.copy()
        x = out[..., 0]
        y = out[..., 1]
        moved = y if self.axis == "vertical" else x  # a view into out
        a = self.amplitude / self.substeps
        for _ in range(self.substeps):
            moved += a * self._bump(x, y)
        return out

    def _apply_inv(self, pts):
        out = pts.copy()
        x = out[..., 0]
        y = out[..., 1]
        moved = y if self.axis == "vertical" else x  # a view into out
        a = self.amplitude / self.substeps
        for _ in range(self.substeps):
            # solve m + a·bump = target for m by fixed-point iteration
            target = moved.copy()
            for _ in range(80):
                m_new = target - a * self._bump(x, y)
                converged = np.max(np.abs(m_new - moved), initial=0.0) < 1e-16
                moved[...] = m_new
                if converged:
                    break
        return out


@dataclass(frozen=True)
class _Chain(TorusLift):
    """Applies the lifts `_links` (an iterable) in order; a torus step sums
    their exact windings."""

    def _apply(self, pts):
        for f in self._links:
            pts = f._apply(pts)
        return pts

    def _apply_inv(self, pts):
        for f in reversed(tuple(self._links)):
            pts = f._apply_inv(pts)
        return pts

    def _step(self, u):
        links = iter(self._links)
        u, w = next(links)._step(u)  # a fresh winding array, summed in place
        for f in links:
            u, dw = f._step(u)
            w += dw
        return u, w


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

    def _apply(self, pts):
        return self.base._apply(pts) + np.asarray(self.v, dtype=float)

    def _apply_inv(self, pts):
        return self.base._apply_inv(pts - np.asarray(self.v, dtype=float))

    def _step(self, u):
        u2, w = self.base._step(u)
        w += np.asarray(self.v, dtype=np.int64)
        return u2, w


# --- public evaluation -----------------------------------------------------

def eval_lift(lift: TorusLift, p) -> np.ndarray:
    """Evaluate the planar lift at p (shape (...,2)); rejects non-finite input."""
    pts = _as_points(p)
    return lift._apply(pts)


def eval_inverse(lift: TorusLift, p) -> np.ndarray:
    pts = _as_points(p)
    return lift._apply_inv(pts)


def project_to_torus(p) -> np.ndarray:
    """Reduce planar points mod 1 into [0,1)²."""
    pts = _as_points(p)
    return pts - np.floor(pts)


def torus_step(lift: TorusLift, u: np.ndarray):
    """One projected step: u in [0,1)² -> (next u in [0,1)², int64 winding).

    Combinators that append exact integer data (IntegerTranslate) or chain
    steps (Iterate, Composition) override `TorusLift._step`, so their windings
    are exact integer arithmetic on top of the base map's windings and the
    torus point stream is bit-identical to the base map's where the
    projected dynamics coincide.
    """
    return lift._step(u)


def torus_orbit(lift: TorusLift, u0: np.ndarray, n: int, starts=None):
    """The orbit engine: advance torus starts u0 (shape (..., 2)) n steps.

    Yields chunks (steps, us, ws) of about `_ORBIT_CHUNK_POINTS`
    point-steps: us[t] and ws[t] are the torus points and the cumulative
    int64 windings after step steps[t]. An escape raises the error naming
    the earliest escaped step and, within it, the first start in input
    order, as given in `starts` (the caller's points; default u0).
    """
    span = max(1, _ORBIT_CHUNK_POINTS // max(1, u0.size // 2))
    u = u0
    w = np.zeros(u0.shape, dtype=np.int64)
    for first in range(1, n + 1, span):
        steps = range(first, min(first + span, n + 1))
        us, ws = [], []
        # escaped points have NaN windings; their cast must not warn
        with np.errstate(invalid="ignore"):
            for _ in steps:
                u, dw = torus_step(lift, u)
                w = np.add(dw, w, out=dw)  # dw is a fresh array: no allocation
                us.append(u)
                ws.append(w)
        if not np.isfinite(us).all():
            t, i = np.argwhere(~np.isfinite(us).all(axis=-1).reshape(len(us), -1))[0]
            start = np.reshape(u0 if starts is None else starts, (-1, 2))[i]
            raise IterationError(steps[t], tuple(float(x) for x in start))
        yield steps, us, ws


def run_in_blocks(fn, u0: np.ndarray, row_len: int, workers: int) -> list:
    """fn on consecutive blocks of u0, a grid of rows of `row_len` starts;
    the results in block order.

    A block holds the whole rows that fit in `_BLOCK_POINTS` starts, at
    least one. The blocks run one after another at one worker and on
    `workers` threads otherwise. When blocks escape, the earliest
    (step, block) error is raised, the one a single pass over u0 raises,
    whatever the worker count.
    """

    def run(block):
        try:
            return None, fn(block)
        except IterationError as e:
            return e, None

    size = max(1, _BLOCK_POINTS // row_len) * row_len
    blocks = [u0[i : i + size] for i in range(0, len(u0), size)]
    if workers <= 1 or len(blocks) == 1:
        outcomes = list(map(run, blocks))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(run, blocks))
    escapes = [(e.step, i) for i, (e, _) in enumerate(outcomes) if e is not None]
    if escapes:
        raise outcomes[min(escapes)[1]][0]
    return [result for _, result in outcomes]


def iterate(lift: TorusLift, p, n: int) -> np.ndarray:
    """n-fold application of the lift; raises IterationError on escape.

    Computed through the winding decomposition, so the result equals
    torus-orbit position plus an exact integer displacement.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    pts = _as_points(p)
    base_w = np.floor(pts)
    for _, us, ws in torus_orbit(lift, pts - base_w, n, starts=pts):
        pass  # only the last step is wanted
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

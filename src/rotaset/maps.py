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

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

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

# Grid rows per block of starts handed to one worker thread.
_BLOCK_ROWS = 16


class IterationError(RuntimeError):
    """An orbit left the finite float range: `step` is the earliest step at
    which a start escaped, `start` the first such start, as plain floats."""

    def __init__(self, step: int, start: tuple[float, float]):
        super().__init__(f"orbit from start {start} escaped at step {step}")
        self.step = step
        self.start = start


def _as_points(p) -> np.ndarray:
    pts = np.asarray(p, dtype=float)
    if pts.shape[-1] != 2:
        raise ValueError(f"expected points of shape (..., 2), got {pts.shape}")
    return pts


def tent(t):
    """Continuous period-1 tent: 0 at integers, 1 at half-integers, slopes ±2.

    Exact in floating point at dyadic arguments, which keeps the
    distinguished fixed points of the tent-shear maps exactly computable.
    """
    t = np.asarray(t, dtype=float)
    s = t - np.floor(t)
    return 1.0 - np.abs(2.0 * s - 1.0)


@dataclass(frozen=True)
class TorusLift:
    """Base class; concrete variants implement _apply and _apply_inv."""

    def _apply(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _apply_inv(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class Identity(TorusLift):
    def _apply(self, pts):
        return pts.copy()

    def _apply_inv(self, pts):
        return pts.copy()


@dataclass(frozen=True)
class Translation(TorusLift):
    v: tuple[float, float]

    def __post_init__(self):
        object.__setattr__(self, "v", (float(self.v[0]), float(self.v[1])))
        if not all(math.isfinite(c) for c in self.v):
            raise ValueError("translation vector must be finite")

    def _apply(self, pts):
        return pts + np.asarray(self.v)

    def _apply_inv(self, pts):
        return pts - np.asarray(self.v)


@dataclass(frozen=True)
class VerticalTentShear(TorusLift):
    """(x, y) -> (x, y + a·tent(x)); a true shear, invertible for any a."""

    amplitude: float = 1.0

    def __post_init__(self):
        # stored as given: map_label prints a JSON int amplitude as an int
        if not math.isfinite(self.amplitude):
            raise ValueError("amplitude must be finite")

    def _apply(self, pts):
        out = pts.copy()
        out[..., 1] += self.amplitude * tent(pts[..., 0])
        return out

    def _apply_inv(self, pts):
        out = pts.copy()
        out[..., 1] -= self.amplitude * tent(pts[..., 0])
        return out


@dataclass(frozen=True)
class HorizontalTentShear(TorusLift):
    """(x, y) -> (x + a·tent(y), y)."""

    amplitude: float = 1.0

    def __post_init__(self):
        # stored as given: map_label prints a JSON int amplitude as an int
        if not math.isfinite(self.amplitude):
            raise ValueError("amplitude must be finite")

    def _apply(self, pts):
        out = pts.copy()
        out[..., 0] += self.amplitude * tent(pts[..., 1])
        return out

    def _apply_inv(self, pts):
        out = pts.copy()
        out[..., 0] -= self.amplitude * tent(pts[..., 1])
        return out


@dataclass(frozen=True)
class LocalizedShear(TorusLift):
    """Axis-aligned shear supported on a torus disk, identity outside it.

    The displacement of a point at scaled distance s = ρ/radius from the
    center is amplitude·(1 - s²)² along the chosen axis, applied as a
    composition of substeps small enough that each substep's transverse
    Lipschitz constant is ≤ 1/2. A single shot with a large amplitude is
    not injective; the substepped form is a homeomorphism for any
    amplitude, and its inverse is computed by per-substep fixed-point
    iteration (contraction factor ≤ 1/2).

    Points at torus distance ≥ radius from the center are returned
    bitwise unchanged.
    """

    center: tuple[float, float]
    radius: float
    amplitude: float
    axis: str  # "vertical" | "horizontal"

    def __post_init__(self):
        object.__setattr__(self, "center", (float(self.center[0]), float(self.center[1])))
        object.__setattr__(self, "radius", float(self.radius))
        object.__setattr__(self, "amplitude", float(self.amplitude))
        if not (0.0 < self.radius < 0.5):
            raise ValueError("radius must lie in (0, 1/2) so the disk embeds in the torus")
        if self.axis not in ("vertical", "horizontal"):
            raise ValueError("axis must be 'vertical' or 'horizontal'")
        if not (0.0 <= self.center[0] < 1.0 and 0.0 <= self.center[1] < 1.0):
            raise ValueError("center must lie in [0,1)²")
        if not math.isfinite(self.amplitude):
            raise ValueError("amplitude must be finite")
        try:
            self.substeps
        except OverflowError:
            raise ValueError("amplitude too large: its substep count overflows") from None

    @property
    def substeps(self) -> int:
        # per-substep transverse Lipschitz = (|A|/N)·max|bump'|/radius ≤ 1/2
        need = 2.0 * _BUMP_MAX_SLOPE * abs(self.amplitude) / self.radius
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
        a = self.amplitude / self.substeps
        for _ in range(self.substeps):
            if self.axis == "vertical":
                y += a * self._bump(x, y)
            else:
                x += a * self._bump(x, y)
        return out

    def _apply_inv(self, pts):
        out = pts.copy()
        x = out[..., 0]
        y = out[..., 1]
        a = self.amplitude / self.substeps
        for _ in range(self.substeps):
            if self.axis == "vertical":
                y[...] = self._solve_substep(y, x, a, transverse_first=False)
            else:
                x[...] = self._solve_substep(x, y, a, transverse_first=True)
        return out

    def _solve_substep(self, moved, fixed, a, transverse_first):
        """Solve m + a·bump(m, fixed) = moved for m by fixed-point iteration."""
        m = moved.copy()
        for _ in range(80):
            if transverse_first:
                b = self._bump(m, fixed)
            else:
                b = self._bump(fixed, m)
            m_new = moved - a * b
            if np.max(np.abs(m_new - m), initial=0.0) < 1e-16:
                return m_new
            m = m_new
        return m


@dataclass(frozen=True)
class Composition(TorusLift):
    """Apply factors in list order (first entry acts first)."""

    factors: tuple[TorusLift, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        if not self.factors:
            raise ValueError("composition needs at least one factor")

    def _apply(self, pts):
        out = pts
        for f in self.factors:
            out = f._apply(out)
        return out

    def _apply_inv(self, pts):
        out = pts
        for f in reversed(self.factors):
            out = f._apply_inv(out)
        return out


@dataclass(frozen=True)
class Iterate(TorusLift):
    base: TorusLift
    k: int

    def __post_init__(self):
        object.__setattr__(self, "k", int(self.k))
        if self.k < 1:
            raise ValueError("iterate count must be a positive integer")

    def _apply(self, pts):
        out = pts
        for _ in range(self.k):
            out = self.base._apply(out)
        return out

    def _apply_inv(self, pts):
        out = pts
        for _ in range(self.k):
            out = self.base._apply_inv(out)
        return out


@dataclass(frozen=True)
class IntegerTranslate(TorusLift):
    """base followed by translation by an integer vector; same torus map."""

    base: TorusLift
    v: tuple[int, int]

    def __post_init__(self):
        v = (int(self.v[0]), int(self.v[1]))
        if tuple(self.v) != tuple(float(c) for c in v):
            raise ValueError("integer translate needs an integer vector")
        object.__setattr__(self, "v", v)

    def _apply(self, pts):
        return self.base._apply(pts) + np.asarray(self.v, dtype=float)

    def _apply_inv(self, pts):
        return self.base._apply_inv(pts - np.asarray(self.v, dtype=float))


# --- public evaluation -----------------------------------------------------

def eval_lift(lift: TorusLift, p) -> np.ndarray:
    """Evaluate the planar lift at p (shape (...,2)); rejects non-finite input."""
    pts = _as_points(p)
    if not np.all(np.isfinite(pts)):
        raise ValueError("non-finite input point")
    return lift._apply(pts)


def eval_inverse(lift: TorusLift, p) -> np.ndarray:
    pts = _as_points(p)
    if not np.all(np.isfinite(pts)):
        raise ValueError("non-finite input point")
    return lift._apply_inv(pts)


def project_to_torus(p) -> np.ndarray:
    """Reduce planar points mod 1 into [0,1)²."""
    pts = _as_points(p)
    if not np.all(np.isfinite(pts)):
        raise ValueError("non-finite input point")
    return pts - np.floor(pts)


def torus_step(lift: TorusLift, u: np.ndarray):
    """One projected step: u in [0,1)² -> (next u in [0,1)², int64 winding).

    Combinators that append exact integer data (IntegerTranslate) or chain
    steps (Iterate, Composition) are handled structurally, so their windings
    are exact integer arithmetic on top of the base map's windings and the
    torus point stream is bit-identical to the base map's where the
    projected dynamics coincide.
    """
    if isinstance(lift, IntegerTranslate):
        u2, w = torus_step(lift.base, u)
        return u2, w + np.asarray(lift.v, dtype=np.int64)
    if isinstance(lift, Iterate):
        w = np.zeros(u.shape[:-1] + (2,), dtype=np.int64)
        for _ in range(lift.k):
            u, dw = torus_step(lift.base, u)
            w += dw
        return u, w
    if isinstance(lift, Composition):
        w = np.zeros(u.shape[:-1] + (2,), dtype=np.int64)
        for f in lift.factors:
            u, dw = torus_step(f, u)
            w += dw
        return u, w
    z = lift._apply(u)
    k = np.floor(z)
    return z - k, k.astype(np.int64)


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
    """fn on blocks of `_BLOCK_ROWS` grid rows (of `row_len` starts) of
    u0 on `workers` threads, or on all of u0 at once; results in order.

    When blocks escape, the earliest (step, block) error is raised, the
    one a single pass over u0 raises, whatever the worker count.
    """
    block = _BLOCK_ROWS * row_len
    if workers <= 1 or len(u0) <= block:
        return [fn(u0)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, u0[i : i + block]) for i in range(0, len(u0), block)]
    errors = [f.exception() for f in futures]
    escapes = [(e.step, i) for i, e in enumerate(errors) if isinstance(e, IterationError)]
    if escapes:
        raise errors[min(escapes)[1]]
    return [f.result() for f in futures]


def iterate(lift: TorusLift, p, n: int) -> np.ndarray:
    """n-fold application of the lift; raises IterationError on escape.

    Computed through the winding decomposition, so the result equals
    torus-orbit position plus an exact integer displacement.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    pts = _as_points(p)
    if not np.all(np.isfinite(pts)):
        raise ValueError("non-finite input point")
    base_w = np.floor(pts)
    for _, us, ws in torus_orbit(lift, pts - base_w, n, starts=pts):
        pass  # only the last step is wanted
    return us[-1] + base_w + ws[-1]


# --- built-in maps ----------------------------------------------------------

def lm_map() -> TorusLift:
    """Tent shear in y followed by tent shear in x.

    Fixes (0,0), (1/2,0), (0,1/2), (1/2,1/2) on the torus with lift
    displacements (0,0), (0,1), (1,0), (1,1); its rotation set is the full
    unit square.
    """
    return Composition((VerticalTentShear(1.0), HorizontalTentShear(1.0)))


def rotation_map(alpha: float, beta: float) -> TorusLift:
    """Rigid rotation of the torus by (alpha, beta)."""
    return Translation((alpha, beta))


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


# name -> (builder, parameter docs with defaults)
BUILTIN_MAPS = {
    "identity": (lambda params: Identity(), {}),
    "rotation": (
        lambda params: rotation_map(params.get("alpha", 0.0), params.get("beta", 0.0)),
        {"alpha": 0.0, "beta": 0.0},
    ),
    "translation": (
        lambda params: Translation(tuple(params["v"])),
        {"v": [0.0, 0.0]},
    ),
    "lm": (lambda params: lm_map(), {}),
    "horseshoe_disk": (
        lambda params: horseshoe_disk(
            tuple(params.get("center", (0.5, 0.5))),
            params.get("radius", 0.25),
            params.get("amplitude", 6.0),
        ),
        {"center": [0.5, 0.5], "radius": 0.25, "amplitude": 6.0},
    ),
    "vertical_tent_shear": (
        lambda params: VerticalTentShear(params.get("amplitude", 1.0)),
        {"amplitude": 1.0},
    ),
    "horizontal_tent_shear": (
        lambda params: HorizontalTentShear(params.get("amplitude", 1.0)),
        {"amplitude": 1.0},
    ),
    "localized_shear": (
        lambda params: LocalizedShear(
            tuple(params.get("center", (0.5, 0.5))),
            params.get("radius", 0.25),
            params.get("amplitude", 1.0),
            params.get("axis", "vertical"),
        ),
        {"center": [0.5, 0.5], "radius": 0.25, "amplitude": 1.0, "axis": "vertical"},
    ),
    "compose": (
        lambda params: Composition(tuple(from_map_spec(s) for s in params["maps"])),
        {"maps": ["<map spec>", "..."]},
    ),
    "iterate": (
        lambda params: Iterate(from_map_spec(params["base"]), params["k"]),
        {"base": "<map spec>", "k": 2},
    ),
    "integer_translate": (
        lambda params: IntegerTranslate(from_map_spec(params["base"]), tuple(params["v"])),
        {"base": "<map spec>", "v": [1, 0]},
    ),
}


def builtin_map(name: str, **params) -> TorusLift:
    if name not in BUILTIN_MAPS:
        raise ValueError(f"unknown map {name!r}; known: {', '.join(sorted(BUILTIN_MAPS))}")
    return BUILTIN_MAPS[name][0](params)


def from_map_spec(spec: dict) -> TorusLift:
    """Build a lift from {"map": name, "params": {...}}."""
    if not isinstance(spec, dict) or "map" not in spec:
        raise ValueError("map spec must be a dict with a 'map' key")
    name = spec["map"]
    if name not in BUILTIN_MAPS:
        raise ValueError(f"unknown map {name!r}; known: {', '.join(sorted(BUILTIN_MAPS))}")
    params = spec.get("params", {})
    if not isinstance(params, dict):
        raise ValueError("'params' must be a dict")
    try:
        return BUILTIN_MAPS[name][0](params)
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"bad parameters for map {name!r}: {exc}") from exc


def map_spec(lift: TorusLift) -> dict:
    """Serializable spec for a lift; inverse of from_map_spec up to aliases."""
    if isinstance(lift, Identity):
        return {"map": "identity", "params": {}}
    if isinstance(lift, Translation):
        return {"map": "translation", "params": {"v": list(lift.v)}}
    if isinstance(lift, VerticalTentShear):
        return {"map": "vertical_tent_shear", "params": {"amplitude": lift.amplitude}}
    if isinstance(lift, HorizontalTentShear):
        return {"map": "horizontal_tent_shear", "params": {"amplitude": lift.amplitude}}
    if isinstance(lift, LocalizedShear):
        return {
            "map": "localized_shear",
            "params": {
                "center": list(lift.center),
                "radius": lift.radius,
                "amplitude": lift.amplitude,
                "axis": lift.axis,
            },
        }
    if isinstance(lift, Composition):
        return {"map": "compose", "params": {"maps": [map_spec(f) for f in lift.factors]}}
    if isinstance(lift, Iterate):
        return {"map": "iterate", "params": {"base": map_spec(lift.base), "k": lift.k}}
    if isinstance(lift, IntegerTranslate):
        return {
            "map": "integer_translate",
            "params": {"base": map_spec(lift.base), "v": list(lift.v)},
        }
    raise ValueError(f"cannot serialize lift of type {type(lift).__name__}")


def map_label(lift: TorusLift) -> str:
    """Short deterministic identifier used in artifacts."""
    spec = map_spec(lift)
    if spec == map_spec(lm_map()):
        return "lm"
    if spec == map_spec(horseshoe_disk()):
        return "horseshoe_disk"
    name = spec["map"]
    params = spec.get("params", {})
    if not params:
        return name
    inner = ",".join(f"{k}={params[k]}" for k in sorted(params))
    return f"{name}({inner})"

"""Tracing a lift's step into straight-line code, and compiling it.

`trace` runs a lift's `_step` once on `Traced` values, with the `TRACING`
operations: each operation on a traced value records a node of a `Tape`,
a flat list of (operation, operands) pairs. From the tape the orbit
engine (`maps.torus_orbit`) compiles two kernels, in the recorded order,
so that each gives the bits of the interpreted step:

* `compile_floats` — a Python loop of float steps (`Tape.source`);
* `compile_arrays` — numpy steps on columns (`Tape.kernel`, `ArrayStep`),
  one ufunc call per operation into preallocated columns.

The generated source names constants only, so it holds no text of the
lift's spec. This module is imported by the first run that compiles.
"""
from __future__ import annotations

import math

import numpy as np

from . import maps
from .maps import TorusLift


class Untraceable(Exception):
    """A lift's step did what the tracer cannot record."""


# Each traced operation as the float source writes it, on operand names.
_FLOAT_FORMS = {
    "add": "{} + {}", "sub": "{} - {}", "mul": "{} * {}", "truediv": "{} / {}", "mod": "{} % {}",
    "lt": "{} < {}", "le": "{} <= {}", "gt": "{} > {}", "ge": "{} >= {}", "eq": "{} == {}", "ne": "{} != {}",
    "neg": "-{}", "abs": "abs({})", "floor": "floor({})", "frac": "{} % 1.0",
    "select": "{1} if {0} else {2}", "wind": "{}",  # math.floor's int is the winding
}
# The ufunc each operation calls on arrays, as numpy's operators call it;
# `Tape.kernel` writes frac and select itself, and reads a wind node as the
# floor it winds.
_UFUNCS = {
    "add": "add", "sub": "subtract", "mul": "multiply", "truediv": "true_divide", "mod": "remainder",
    "lt": "less", "le": "less_equal", "gt": "greater", "ge": "greater_equal", "eq": "equal", "ne": "not_equal",
    "neg": "negative", "abs": "absolute", "floor": "floor",
}
_KERNEL_NAMESPACE = {name: getattr(np, name) for name in ("copyto", *_UFUNCS.values())}

# Most operations a traced step may record (see `trace`); a longer step is
# interpreted. On a 2-vCPU x86-64 VM tracing and compiling cost about 9 µs
# per operation (17 ms for the 1946 of `horseshoe_disk`), and a compiled
# step saves 8-38 ns per operation a step, so the cost is repaid within
# about the one chunk a run must fill to compile; the cap bounds a step's
# source at about 0.2 s of compiling.
_MAX_TRACE_NODES = 20_000

# Integers of at most this magnitude, and their sums within it, are exact
# in float64.
_EXACT = 2.0**52


def _name(operand) -> str:
    return f"v{operand}" if isinstance(operand, int) else operand


def _defaults(namespace: dict) -> str:
    """Parameters binding each name of `namespace` as a default: locals,
    not globals."""
    return "".join(f", {name}={name}" for name in namespace)


def _magnitude(value) -> float:
    """|value| as a float: inf for a NaN, an infinity, or an int past the
    float range."""
    try:
        m = abs(float(value))
    except OverflowError:
        return math.inf
    return m if m == m else math.inf


class Tape:
    """The float operations of one traced step, in the order it ran them.

    Node i is `v{i}`: nodes 0 and 1 are the step's x and y, each later one
    (operation, operands), an operation of `_FLOAT_FORMS` on earlier nodes
    (ints) and on constants, by their names `c{j}`; constants must be
    Python ints or floats. `out` holds the step's x, y and windings, as
    operands. Every operation is pure: one recorded twice is one node."""

    def __init__(self):
        self.nodes = [(None, ()), (None, ())]
        self.seen = {}  # (operation, operands) -> node
        self.constants = {}  # (type, bits) -> name
        self.values = {}  # name -> constant
        self.out = ()

    def operand(self, value):
        if isinstance(value, Traced):
            return value.node
        if type(value) not in (int, float):
            raise Untraceable(f"a constant of type {type(value).__name__}")
        key = (type(value), value.hex() if type(value) is float else value)  # -0.0 is not 0.0
        if key not in self.constants:
            self.constants[key] = name = f"c{len(self.constants)}"
            self.values[name] = value
        return self.constants[key]

    def record(self, op: str, *operands):
        if len(self.nodes) >= _MAX_TRACE_NODES:
            raise Untraceable("a step longer than the trace cap")
        key = (op, tuple(map(self.operand, operands)))
        if key not in self.seen:
            self.seen[key] = len(self.nodes)
            self.nodes.append(key)
        return Traced(self, self.seen[key])

    def live(self, roots) -> list:
        """The nodes past x and y that the operands `roots` depend on, in
        order."""
        live = {r for r in roots if isinstance(r, int)}
        for node in range(len(self.nodes) - 1, 1, -1):
            if node in live:
                live.update(a for a in self.nodes[node][1] if isinstance(a, int))
        return sorted(node for node in live if node > 1)

    def source(self):
        """(source, namespace) of a function run(v0, v1, n, xs, ys) that
        takes n float steps from the point (v0, v1), passes each next x and
        y to xs and ys, and returns the last point: the nodes x and y depend
        on, inlined, so without the windings. Constants are bound by name."""
        x, y = self.out[:2]
        body = "".join(
            f"        v{node} = {_FLOAT_FORMS[op].format(*map(_name, args))}\n"
            for node in self.live((x, y))
            for op, args in [self.nodes[node]]
        )
        namespace = {"floor": math.floor, **self.values}
        return (
            f"def run(v0, v1, n, xs, ys{_defaults(namespace)}):\n"
            "    for _ in range(n):\n"
            f"{body}"
            f"        v0, v1 = {_name(x)}, {_name(y)}\n"
            "        xs(v0)\n"
            "        ys(v1)\n"
            "    return v0, v1\n"
        ), namespace

    def kinds(self) -> list:
        """Per node its kind on arrays: "f" float64, "b" bool, or "w" an
        integer winding (int64 on the interpreted path). Raises where the
        step mixes kinds in any other way, or ends in points that are not
        float nodes or windings that are not winding nodes: numpy's own
        type rules would then decide, so the step is interpreted."""
        kinds = ["f", "f"]
        for op, args in self.nodes[2:]:
            of = {kinds[a] if isinstance(a, int) else type(self.values[a]).__name__ for a in args}
            floats = "f" in of and of <= {"f", "int", "float"}
            if op == "select":
                cond, *branches = args
                branch_kinds = {kinds[a] if isinstance(a, int) else type(self.values[a]).__name__ for a in branches}
                kind = "f" if isinstance(cond, int) and kinds[cond] == "b" and branch_kinds <= {"f", "float"} else None
            elif op == "wind":
                kind = "w" if floats else None
            elif op in ("lt", "le", "gt", "ge", "eq", "ne"):
                kind = "b" if floats else None
            elif floats:
                kind = "f"
            elif op in ("add", "sub", "mul", "neg", "abs") and "w" in of and of <= {"w", "int"}:
                kind = "w"
            else:
                kind = None
            if kind is None:
                raise Untraceable(f"{op} on {sorted(of)}")
            kinds.append(kind)
        if [kinds[o] if isinstance(o, int) else None for o in self.out] != ["f", "f", "w", "w"]:
            raise Untraceable("points that are not float nodes, or windings that are not winding nodes")
        return kinds

    def bounds(self) -> list:
        """Per node a bound on its magnitude while |x|, |y| <= 1, inf where
        none is known: a traced divisor is unbounded. Rounding is monotone,
        so a bound computed in floats holds for the value as rounded."""
        bounds = [1.0, 1.0]
        for op, args in self.nodes[2:]:
            of = [bounds[a] if isinstance(a, int) else _magnitude(self.values[a]) for a in args]
            if op in ("lt", "le", "gt", "ge", "eq", "ne"):
                bound = 1.0
            elif op == "select":
                bound = max(of[1:])
            elif max(of) == math.inf:
                bound = math.inf
            elif op in ("truediv", "mod"):
                if isinstance(args[1], int) or not of[1]:
                    bound = math.inf
                else:
                    bound = of[0] / of[1] if op == "truediv" else of[1]
            elif op == "frac" or op == "sub" and args[1] == self.seen.get(("floor", args[:1])):
                bound = 1.0  # t - floor(t) lies in [0, 1]
            elif op in ("add", "sub"):
                bound = of[0] + of[1]
            elif op == "mul":
                bound = of[0] * of[1]
            elif op == "floor":
                bound = of[0] + 1.0
            else:  # neg, abs, wind
                bound = of[0]
            bounds.append(bound)
        return bounds

    def winding_bound(self, kinds: list) -> float:
        """A bound on the magnitude of one step's windings, under which
        float64 sums them exactly: inf unless every step keeps its points
        within [-1, 1] and every winding node within `_EXACT`."""
        bounds = self.bounds()
        x, y, wx, wy = self.out
        if max(bounds[x], bounds[y]) > 1.0:
            return math.inf
        if any(kinds[node] == "w" and bounds[node] > _EXACT for node in self.live(self.out)):
            return math.inf
        return max(bounds[wx], bounds[wy])

    def kernel(self, kinds: list):
        """(source, namespace, dtypes) of a function step(v0, v1, o0, o1, w0,
        w1, *columns) that takes one array step from the columns v0, v1 into
        o0, o1 and adds its windings into the float64 columns w0, w1 in
        place: each winding node is the floor it reads, so the sums are
        exact integers while `winding_bound` holds. Each live node is one
        ufunc call with `out`, into a column of `columns` (of the dtypes
        `dtypes`) that is reused once its value is dead; v0 and v1 are
        reused too, so the caller swaps the input and output columns for
        the next step. t * 1.0 is t."""
        x, y, wx, wy = self.out
        rep = list(range(len(self.nodes)))  # the node whose column holds each node's value
        live = self.live((x, y, wx, wy))
        for node in live:
            op, args = self.nodes[node]
            if op == "wind":
                rep[node] = rep[args[0]]
            elif op == "mul" and kinds[node] == "f":
                a, c = sorted(args, key=lambda o: not isinstance(o, int))  # a constant last
                if isinstance(c, str) and type(self.values[c]) is float and self.values[c] == 1.0:
                    rep[node] = rep[a]  # the same bits, a NaN's too
        computed = [node for node in live if rep[node] == node]
        last = {}  # column node -> the node that reads it last
        for node in computed:
            for a in self.nodes[node][1]:
                if isinstance(a, int):
                    last[rep[a]] = node
        dedicated, copies = {}, []  # nodes computed into an output; outputs copied at the end
        for slot, point in (("o0", x), ("o1", y)):
            if rep[point] > 1 and rep[point] not in dedicated:
                dedicated[rep[point]] = slot
            else:
                last[rep[point]] = len(self.nodes)
                copies.append((slot, rep[point]))
        dtype = {"f": "f", "b": "b", "w": "f"}
        free = {"f": [], "b": []}
        dtypes = []
        column = {0: "v0", 1: "v1"}

        def release(name):
            if name[0] != "o":
                free["f" if name[0] == "v" else name[0]].append(name)

        def take(kind):
            if free[kind]:
                return free[kind].pop()
            dtypes.append(kind)
            return f"{kind}{len(dtypes) - 1}"

        for v in (0, 1):
            if v not in last:
                release(column[v])
        lines = []
        for node in computed:
            op, args = self.nodes[node]
            names = [column[rep[a]] if isinstance(a, int) else a for a in args]
            dead = {rep[a] for a in args if isinstance(a, int) and last[rep[a]] == node}
            overwrites = op not in ("frac", "select")  # these write out before reading every operand
            for a in dead if overwrites else ():
                release(column[a])
            out = column[node] = dedicated.get(node) or take(dtype[kinds[node]])
            for a in () if overwrites else dead:
                release(column[a])
            if op == "frac":
                lines += [f"floor({names[0]}, {out})", f"subtract({names[0]}, {out}, {out})"]
            elif op == "select":
                lines += [f"copyto({out}, {names[2]})", f"copyto({out}, {names[1]}, where={names[0]})"]
            else:
                lines.append(f"{_UFUNCS[op]}({', '.join(names)}, {out})")
            lines += [f"add({slot}, {out}, {slot})" for slot, w in (("w0", wx), ("w1", wy)) if rep[w] == node]
            if node not in last and node not in dedicated:
                release(out)
        lines += [f"copyto({slot}, {column[node]})" for slot, node in copies]
        namespace = {**_KERNEL_NAMESPACE, **self.values}
        params = "".join(f", {kind}{i}" for i, kind in enumerate(dtypes))
        body = "".join(f"    {line}\n" for line in lines)
        source = f"def step(v0, v1, o0, o1, w0, w1{params}{_defaults(namespace)}):\n{body}"
        return source, namespace, dtypes


class Traced:
    """A value of a step being traced: each operation on it records a node."""

    __slots__ = ("tape", "node")
    __array_ufunc__ = None  # numpy ufuncs and operators on it raise TypeError
    __hash__ = None  # it defines __eq__

    def __init__(self, tape: Tape, node: int):
        self.tape, self.node = tape, node

    def __bool__(self):
        raise Untraceable("a branch on a traced value")

    def __neg__(self):
        return self.tape.record("neg", self)

    def __abs__(self):
        return self.tape.record("abs", self)


def _operator(op: str, reflected: bool):
    if reflected:
        return lambda a, b: a.tape.record(op, b, a)
    return lambda a, b: a.tape.record(op, a, b)


for _op in ("add", "sub", "mul", "truediv", "mod"):
    setattr(Traced, f"__{_op}__", _operator(_op, False))
    setattr(Traced, f"__r{_op}__", _operator(_op, True))
for _op in ("lt", "le", "gt", "ge", "eq", "ne"):
    setattr(Traced, f"__{_op}__", _operator(_op, False))


def _traced_op(op: str, on_floats):
    """`on_floats` on a value that is not traced, else a node of `op`."""
    return lambda t: t.tape.record(op, t) if isinstance(t, Traced) else on_floats(t)


def _trace_select(cond, a, b):
    if isinstance(cond, Traced):
        return cond.tape.record("select", cond, a, b)
    return a if cond else b


_trace_floor = _traced_op("floor", math.floor)
_trace_wind = _traced_op("wind", lambda k: k)


def _trace_reduce(x, y):
    x, y, kx, ky = maps._reduce_floats(x, y, _trace_floor)
    return x, y, _trace_wind(kx), _trace_wind(ky)


# The operations of `maps._FLOATS`, recording where an operand is traced. A
# reduction's windings are wind nodes: the floors it takes, as integers.
TRACING = maps._Ops(_trace_floor, _trace_select, _trace_reduce, _traced_op("frac", maps._frac_floats))


def trace(lift: TorusLift) -> Tape:
    """`lift._step`, run once on traced values. Raises for a step the
    tracer cannot record: one that branches on a value, calls numpy or
    `math` on one, uses a constant that is not a Python int or float, or
    runs more than `_MAX_TRACE_NODES` operations."""
    tape = Tape()
    tape.out = tuple(map(tape.operand, lift._step(Traced(tape, 0), Traced(tape, 1), TRACING)))
    return tape


def compile_floats(lift: TorusLift):
    """The float chunk loop of `Tape.source`, compiled; None where the
    tracer raises."""
    try:
        source, namespace = trace(lift).source()
    except Exception:  # whatever the step did to a traced value: interpret it
        return None
    exec(compile(source, "<traced step>", "exec"), namespace)
    return namespace.pop("run")  # so that no cycle keeps it alive


class ArrayStep:
    """A traced step as an array kernel (`Tape.kernel`), for runs whose
    windings the tape's magnitude bounds prove exact in float64. A step
    with no such bound raises: it is interpreted."""

    def __init__(self, tape: Tape):
        kinds = tape.kinds()
        self.bound = tape.winding_bound(kinds)
        if self.bound == math.inf:
            raise Untraceable("windings that float64 may not sum exactly")
        source, namespace, self.dtypes = tape.kernel(kinds)
        exec(compile(source, "<traced array step>", "exec"), namespace)
        self.step = namespace.pop("step")  # no cycle through the namespace

    def steps(self, x, y, n: int):
        """An `advance` for `maps._array_chunk` over n steps from the columns
        x, y, with float64 windings; None unless every start lies within
        [-1, 1] and n steps of the bound `self.bound` stay within `_EXACT`,
        so that each partial sum is an exact integer. It checks no escape:
        `Tape.winding_bound` admits only tapes whose points stay within
        [-1, 1] while their inputs do, so from such starts every point of
        every step is finite."""
        if n * self.bound > _EXACT or not (np.all(np.abs(x) <= 1.0) and np.all(np.abs(y) <= 1.0)):
            return None
        step, m = self.step, len(x)
        a, b = (np.array(x), np.array(y)), (np.empty(m), np.empty(m))
        wx, wy = np.zeros((2, m))
        columns = [np.empty(m, dtype={"f": float, "b": bool}[d]) for d in self.dtypes]

        def advance(k):
            nonlocal a, b
            step(*a, *b, wx, wy, *columns)
            a, b = b, a
            return a[0], a[1], wx, wy

        return advance


def compile_arrays(lift: TorusLift):
    """The lift's `ArrayStep`; None where the tracer raises, where the
    trace mixes kinds (see `Tape.kinds`), or where it bounds no winding
    (see `Tape.winding_bound`)."""
    try:
        return ArrayStep(trace(lift))
    except Exception:  # whatever the step did to a traced value: interpret it
        return None

"""Per-layer tracing from outside the program.

The tracer replaces, for the length of a traced job, the names through
which one rotaset module calls into another (``rotaset.rotation.torus_step``,
``rotaset.entropy.orbit_table``, ...) with timing wrappers, and restores
them afterwards. Nothing under ``src/`` is edited. A span's self time is its
duration minus the durations of the traced calls made inside it; the job's
root span is the ``rotaset.cli.main`` call itself, so the CLI's self time is
argv parsing, map specs and formatting.

Calls made very often (``torus_step``, ``iterate``) are aggregated per job
as (calls, busy, self, work counters); every other call is also kept as a
span (name, start, end, parent) so memory stays bounded.
"""
from __future__ import annotations

import time
from collections import defaultdict
from statistics import median

import numpy as np

LAYERS = ("cli", "maps", "geometry", "rotation", "entropy", "periodic", "covering", "serialize")
HOT = {"maps.torus_step", "maps.iterate"}


def _points(arr) -> int:
    return int(np.size(arr)) // 2


def _find_periodic_work(args, kwargs, result):
    box = kwargs.get("displacement_box", args[2] if len(args) > 2 else 2)
    targets = (2 * box * result.period + 1) ** 2
    return {
        "newton_targets": targets,
        "seeds_attempted": result.seeds_total * targets,
        "seeds_converged": result.seeds_converged,
        "seeds_singular": result.seeds_singular,
        "orbits_found": len(result.orbits),
    }


def _step_work(args, kwargs, result):
    return {"point_steps": _points(args[1])}


def _hull_work(args, kwargs, result):
    return {"points": len(args[0])}


def _bytes_work(args, kwargs, result):
    return {"bytes": result.stat().st_size}


def _estimate_entropy_work(args, kwargs, result):
    return {
        "centres": sum(map(sum, result.counts)),
        "candidates": result.resolution ** 2 * len(result.epsilons) * len(result.lengths),
    }


# (module, attribute, span name, work counter). The attribute is the name
# the calling module looks up, so wrapping it times exactly those calls.
TARGETS = (
    ("rotation", "estimate_rotation_set", "rotation.estimate_rotation_set", None),
    ("rotation", "interior_nonempty", "rotation.interior_nonempty", None),
    ("rotation", "torus_step", "maps.torus_step", _step_work),
    ("rotation", "convex_hull", "geometry.convex_hull", _hull_work),
    ("rotation", "hausdorff_distance", "geometry.hausdorff_distance", None),
    ("rotation", "polygon_area", "geometry.polygon_area", None),
    ("cli", "polygon_area", "geometry.polygon_area", None),
    ("cli", "polygon_diameter", "geometry.polygon_diameter", None),
    ("entropy", "estimate_entropy", "entropy.estimate_entropy", _estimate_entropy_work),
    ("entropy", "orbit_table", "entropy.orbit_table", None),
    ("entropy", "torus_step", "maps.torus_step", _step_work),
    ("periodic", "find_periodic", "periodic.find_periodic", _find_periodic_work),
    ("periodic", "realized_vectors", "periodic.realized_vectors", None),
    ("periodic", "iterate", "maps.iterate", lambda a, k, r: {"point_steps": _points(a[1]) * a[2]}),
    ("periodic", "convex_hull", "geometry.convex_hull", _hull_work),
    # reached from maps.iterate and from torus_step's own recursion into
    # composite maps; a recursive call is not a new span
    ("maps", "torus_step", "maps.torus_step", _step_work),
    ("covering", "transitivity_score", "covering.transitivity_score", lambda a, k, r: {"steps": r.iterations}),
    ("covering", "torus_step", "maps.torus_step", _step_work),
    ("serialize", "write_json", "serialize.write_json", _bytes_work),
    ("serialize", "write_csv", "serialize.write_csv", _bytes_work),
)


class Tracer:
    """Spans of traced jobs, kept in memory until the run writes them out."""

    def __init__(self, package):
        self._package = package
        self._saved = []
        self._stack = []  # open frames: [name, span id, children ns]
        self._next_id = 0
        self._job = None  # record of the job being traced
        self.jobs = []  # one record per traced job

    # -- patching ---------------------------------------------------------

    def _wrap(self, fn, name, work):
        stack = self._stack

        def traced(*args, **kwargs):
            if not stack or stack[-1][0] == name:
                return fn(*args, **kwargs)
            self._next_id += 1
            frame = [name, self._next_id, 0]
            parent = stack[-1]
            stack.append(frame)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                dur = t1 - t0
                parent[2] += dur
                self._record(name, frame[1], parent[1], t0, t1, dur - frame[2])
            if work is not None:
                agg = self._job["agg"][name]
                for key, value in work(args, kwargs, result).items():
                    agg[3][key] += value
            return result

        return traced

    def _record(self, name, span_id, parent_id, t0, t1, self_ns):
        agg = self._job["agg"][name]
        agg[0] += 1
        agg[1] += t1 - t0
        agg[2] += self_ns
        if name not in HOT:
            self._job["spans"].append((span_id, parent_id, name, t0, t1))

    def __enter__(self):
        for module, attr, name, work in TARGETS:
            mod = getattr(self._package, module)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name, work))
        return self

    def __exit__(self, *exc):
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)
        return False

    # -- jobs -------------------------------------------------------------

    def call_job(self, fn, *args):
        """Run fn(*args) as the root span `cli.main` of a new job record."""
        self._next_id += 1
        root = ["cli.main", self._next_id, 0]
        self._job = {"agg": defaultdict(lambda: [0, 0, 0, defaultdict(int)]), "spans": []}
        self._stack.append(root)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self._record("cli.main", root[1], None, t0, t1, (t1 - t0) - root[2])
            self.jobs.append(self._job)

    def dump(self) -> list:
        """JSON-ready job records: aggregates per name, then the cold spans."""
        return [
            {
                "agg": {
                    name: {"calls": a[0], "busy_ns": a[1], "self_ns": a[2], "work": dict(a[3])}
                    for name, a in job["agg"].items()
                },
                "spans": [list(s) for s in job["spans"]],
            }
            for job in self.jobs
        ]

    # -- metrics ----------------------------------------------------------

    def totals(self):
        tot = defaultdict(lambda: [0, 0, 0, defaultdict(int)])
        for job in self.jobs:
            for name, a in job["agg"].items():
                t = tot[name]
                t[0] += a[0]
                t[1] += a[1]
                t[2] += a[2]
                for key, value in a[3].items():
                    t[3][key] += value
        return tot

    def layer_self_s(self) -> dict:
        """Self time per layer, summed over all traced jobs, in seconds."""
        out = dict.fromkeys(LAYERS, 0.0)
        for name, a in self.totals().items():
            out[name.split(".")[0]] += a[2] / 1e9
        return out

    def metrics(self) -> dict:
        """Per-layer metrics as per-job means (times, counts) or ratios."""
        n = max(1, len(self.jobs))
        tot = self.totals()

        def calls(name):
            return tot[name][0] if name in tot else 0

        def busy(*names):
            return sum(tot[x][1] for x in names if x in tot) / 1e9

        def self_s(*names):
            return sum(tot[x][2] for x in names if x in tot) / 1e9

        def work(name, key):
            return tot[name][3].get(key, 0) if name in tot else 0

        def layer(prefix):
            return [x for x in tot if x.startswith(prefix + ".")]

        def ratio(a, b):
            return a / b if b else 0.0

        step_pts = work("maps.torus_step", "point_steps")
        centres = work("entropy.estimate_entropy", "centres")
        candidates = work("entropy.estimate_entropy", "candidates")
        seeds = work("periodic.find_periodic", "seeds_attempted")
        cover_steps = work("covering.transitivity_score", "steps")
        greedy_self = self_s("entropy.estimate_entropy")
        return {
            "maps.torus_step.calls": (calls("maps.torus_step") / n, "calls/job"),
            "maps.torus_step.point_steps": (step_pts / n, "steps/job"),
            "maps.torus_step.busy_s": (busy("maps.torus_step") / n, "s/job"),
            "maps.torus_step.ns_per_point_step": (ratio(busy("maps.torus_step") * 1e9, step_pts), "ns"),
            "maps.iterate.calls": (calls("maps.iterate") / n, "calls/job"),
            "maps.iterate.point_steps": (work("maps.iterate", "point_steps") / n, "steps/job"),
            "maps.iterate.busy_s": (busy("maps.iterate") / n, "s/job"),
            "maps.self_s": (self_s(*layer("maps")) / n, "s/job"),
            "geometry.convex_hull.calls": (calls("geometry.convex_hull") / n, "calls/job"),
            "geometry.convex_hull.points": (work("geometry.convex_hull", "points") / n, "points/job"),
            "geometry.convex_hull.busy_s": (busy("geometry.convex_hull") / n, "s/job"),
            "geometry.hausdorff_distance.busy_s": (busy("geometry.hausdorff_distance") / n, "s/job"),
            "geometry.self_s": (self_s(*layer("geometry")) / n, "s/job"),
            "rotation.busy_s": (busy(*layer("rotation")) / n, "s/job"),
            "rotation.self_s": (self_s(*layer("rotation")) / n, "s/job"),
            "entropy.busy_s": (busy("entropy.estimate_entropy") / n, "s/job"),
            "entropy.orbit_table.busy_s": (busy("entropy.orbit_table") / n, "s/job"),
            "entropy.greedy.self_s": (greedy_self / n, "s/job"),
            "entropy.greedy.centres": (centres / n, "centres/job"),
            "entropy.greedy.candidates": (candidates / n, "cands/job"),
            "entropy.greedy.centre_ratio": (ratio(centres, candidates), "ratio"),
            "entropy.greedy.us_per_centre": (ratio(greedy_self * 1e6, centres), "us"),
            "periodic.busy_s": (busy(*layer("periodic")) / n, "s/job"),
            "periodic.self_s": (self_s(*layer("periodic")) / n, "s/job"),
            "periodic.newton_targets": (work("periodic.find_periodic", "newton_targets") / n, "targets/job"),
            "periodic.seeds_attempted": (seeds / n, "seeds/job"),
            "periodic.seeds_converged_ratio": (ratio(work("periodic.find_periodic", "seeds_converged"), seeds), "ratio"),
            "periodic.seeds_singular": (work("periodic.find_periodic", "seeds_singular") / n, "seeds/job"),
            "periodic.orbits_found": (work("periodic.find_periodic", "orbits_found") / n, "orbits/job"),
            "covering.busy_s": (busy(*layer("covering")) / n, "s/job"),
            "covering.self_s": (self_s(*layer("covering")) / n, "s/job"),
            "covering.steps": (cover_steps / n, "steps/job"),
            "covering.us_per_step": (ratio(busy(*layer("covering")) * 1e6, cover_steps), "us"),
            "serialize.busy_s": (busy(*layer("serialize")) / n, "s/job"),
            "serialize.bytes": (sum(work(x, "bytes") for x in layer("serialize")) / n, "bytes/job"),
            "cli.self_s": (self_s("cli.main") / n, "s/job"),
        }


KERNEL_MAPS = ("lm", "translation", "horseshoe_disk")
KERNEL_BATCHES = (1, 16384)
KERNEL_MIN_S = 0.15
KERNEL_MIN_CALLS = 3


def kernel_ns_per_point_step(package, rng: np.random.Generator, alpha_beta) -> dict:
    """Direct, untraced `torus_step` calls: median ns per point-step."""
    maps = package.maps
    lifts = {
        "lm": maps.lm_map(),
        "translation": maps.Translation(alpha_beta),
        "horseshoe_disk": maps.horseshoe_disk(),
    }
    out = {}
    for name in KERNEL_MAPS:
        for batch in KERNEL_BATCHES:
            u = rng.random((batch, 2))
            times = []
            start = time.perf_counter()
            while len(times) < KERNEL_MIN_CALLS or time.perf_counter() - start < KERNEL_MIN_S:
                t0 = time.perf_counter_ns()
                maps.torus_step(lifts[name], u)
                times.append(time.perf_counter_ns() - t0)
            out[f"maps.kernel.{name}.b{batch}.ns_per_point_step"] = (median(times) / batch, "ns")
    return out

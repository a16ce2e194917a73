"""Artifact checks: the laws the acceptance suite pins, applied to each job.

Each check reads the files a job wrote and raises CheckError on the first
violated law. They parse JSON and CSV only and import nothing from rotaset,
so a defect in the program cannot also hide itself in its check.

Not checked: the 0.1 entropy floor of `horseshoe_disk`. The acceptance
suite states it at resolution 256, where it fails by design today.
"""
from __future__ import annotations

import csv
import json
from fractions import Fraction
from pathlib import Path

TOL = 1e-9
RESIDUAL_TOL = 1e-9
TENT_ENTROPY_FLOOR = 0.3
ROTATION_ENTROPY_CEIL = 0.01
OCCUPANCY_FLOOR = 0.99


class CheckError(Exception):
    pass


def _require(ok: bool, message: str):
    if not ok:
        raise CheckError(message)


def _load(path: Path) -> dict:
    _require(path.is_file(), f"missing artifact {path.name}")
    return json.loads(path.read_text())


def check_rotset(job, out: Path):
    """Hull ⊆ [0,1]² + v; at offset 0 it is the unit square + v."""
    art = _load(out / "rotset.json")
    vx, vy = job.expect["v"]
    _require(art["config"]["offset"] == job.expect["offset"], "config offset differs from argv")
    verts = art["hull"]["vertices"]
    _require(len(verts) >= 1, "empty hull")
    for x, y in verts:
        _require(
            vx - TOL <= x <= vx + 1 + TOL and vy - TOL <= y <= vy + 1 + TOL,
            f"hull vertex ({x}, {y}) outside [0,1]² + {(vx, vy)}",
        )
    if job.expect["offset"] == 0.0:
        # with containment above, every square corner within TOL of a hull
        # vertex bounds the Hausdorff distance to the square by about TOL
        for cx, cy in ((vx, vy), (vx + 1, vy), (vx + 1, vy + 1), (vx, vy + 1)):
            _require(
                any(abs(x - cx) <= TOL and abs(y - cy) <= TOL for x, y in verts),
                f"offset-0 hull misses the corner ({cx}, {cy}) of [0,1]² + {(vx, vy)}",
            )


def _monotone_violations(counts) -> int:
    bad = 0
    for row in counts:  # nondecreasing in orbit length
        bad += sum(1 for a, b in zip(row, row[1:]) if b < a)
    for coarse, fine in zip(counts, counts[1:]):  # nondecreasing as ε shrinks
        bad += sum(1 for a, b in zip(coarse, fine) if b < a)
    return bad


def check_entropy(job, out: Path):
    art = _load(out / "entropy.json")
    eps, lengths, counts = art["epsilons"], art["lengths"], art["counts"]
    _require(eps == sorted(eps, reverse=True), "epsilons not in descending order")
    _require(
        len(counts) == len(eps) and all(len(row) == len(lengths) for row in counts),
        "count table shape differs from epsilons × lengths",
    )
    with open(out / "entropy.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    want = [[float(e), n, c] for e, row in zip(eps, counts) for n, c in zip(lengths, row)]
    got = [[float(r[0]), int(r[1]), int(r[2])] for r in rows[1:]]
    _require(rows[0] == ["epsilon", "n", "count"] and got == want, "entropy.csv disagrees with entropy.json")
    bad = _monotone_violations(counts)
    _require(bad == 0, f"{bad} monotonicity violations in the count table")
    estimate = art["estimate"]
    if job.kind == "entropy-tent":
        _require(estimate >= TENT_ENTROPY_FLOOR, f"tent-shear estimate {estimate} < {TENT_ENTROPY_FLOOR}")
    elif job.kind == "entropy-rotation":
        _require(all(row == [row[0]] * len(row) for row in counts), "rotation count table not constant in n")
        _require(estimate <= ROTATION_ENTROPY_CEIL, f"rotation estimate {estimate} > {ROTATION_ENTROPY_CEIL}")


def check_periodic(job, out: Path):
    art = _load(out / "periodic.json")
    orbits = art["orbits"]
    if job.kind == "periodic-continuum":
        _require(art["non_isolated"] is True, "continuum of fixed points not flagged non_isolated")
        return
    q = job.expect["q"]
    _require(len(orbits) > 0, "no periodic orbits found")
    for o in orbits:
        _require(o["period"] == q, f"orbit of period {o['period']}, asked for {q}")
        _require(o["residual"] <= RESIDUAL_TOL, f"orbit residual {o['residual']} > {RESIDUAL_TOL}")
        rv = o["rotation_vector"]
        vec = [Fraction(n, rv["den"]) for n in rv["num"]]
        _require(all(0 <= c <= 1 for c in vec), f"rotation vector {vec} outside [0,1]²")
    if q == 1:
        got = sorted(tuple(o["displacement"]) for o in orbits)
        _require(got == [(0, 0), (0, 1), (1, 0), (1, 1)], f"lm fixed points give {got}, not the four corners")


def check_cover(job, out: Path):
    art = _load(out / "cover.json")
    _require(art["covering"] == job.expect["factors"], "covering factors differ from argv")
    _require(len(art["per_start_occupancy"]) == job.expect["starts"], "per-start occupancy count differs from argv")
    occ = art["occupancy"]
    _require(occ >= OCCUPANCY_FLOOR, f"occupancy {occ} < {OCCUPANCY_FLOOR}")


CHECKS = {
    "rotset": check_rotset,
    "entropy-tent": check_entropy,
    "entropy-horseshoe": check_entropy,
    "entropy-rotation": check_entropy,
    "periodic-lm-q1": check_periodic,
    "periodic-lm-q2": check_periodic,
    "periodic-continuum": check_periodic,
    "cover": check_cover,
}


def check(job, out: Path):
    CHECKS[job.kind](job, Path(out))

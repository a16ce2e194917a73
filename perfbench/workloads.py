"""Seeded job generators for the benchmark workloads.

A workload is a fixed cycle of job kinds (a "round"). The seed fills in each
job's parameters, never its kind, so every run sees the same mix of job
costs whatever its seed, and a run cut off after k jobs has the same
composition on every seed. A job is one ``rotaset.cli.main(argv)`` call;
the runner appends ``--out DIR`` to the generated argv.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

# Distinct primes p != r give rotation vectors (frac √p, frac √r) that are
# rationally independent with 1. This subset excludes near-resonant pairs
# such as (3, 29) or (29, 31), whose 10^5-step orbits fill only 49-87% of the
# cover cells: that is the arithmetic of the input, not a program defect,
# and the acceptance-7 occupancy law is stated for independent irrationals.
# Every ordered pair of this set fills all cells of every cover at 10^5
# steps, and gives constant entropy tables at the entropy jobs' config.
PRIMES = (2, 3, 7, 11, 13, 17, 19, 23, 31, 37, 43, 59)

ENTROPY_FLAGS = ["--resolution", "64", "--eps", "0.1,0.0625", "--lengths", "2..8"]
ENTROPY_FLAGS_TINY = ["--resolution", "48", "--eps", "0.1", "--lengths", "2..4"]


@dataclass
class Job:
    kind: str  # selects the artifact check
    argv: list
    expect: dict = field(default_factory=dict)


def irrational_pair(rng: random.Random) -> tuple[float, float]:
    p, r = rng.sample(PRIMES, 2)
    return math.sqrt(p) % 1.0, math.sqrt(r) % 1.0


def _rotation_flags(alpha: float, beta: float) -> list[str]:
    return ["--map", "rotation", "--alpha", repr(alpha), "--beta", repr(beta)]


# --- rotset jobs -------------------------------------------------------------

def _rotset(generic_offset: bool):
    def make(rng: random.Random, tiny: bool) -> Job:
        v = [rng.randint(-3, 3), rng.randint(-3, 3)]
        offset = rng.random() if generic_offset else 0.0
        spec = {"map": "integer_translate", "params": {"base": {"map": "lm"}, "v": v}}
        argv = ["rotset", "--map-json", json.dumps(spec), "--offset", repr(offset)]
        if tiny:
            argv += ["--grid", "16", "--horizons", "10,50"]
        return Job("rotset", argv, {"v": v, "offset": offset})

    return make


# --- entropy jobs ------------------------------------------------------------

def _tent_product(mag_a: int, mag_b: int):
    def make(rng: random.Random, tiny: bool) -> Job:
        a = mag_a * rng.choice((-1, 1))
        b = mag_b * rng.choice((-1, 1))
        spec = {
            "map": "compose",
            "params": {
                "maps": [
                    {"map": "vertical_tent_shear", "params": {"amplitude": a}},
                    {"map": "horizontal_tent_shear", "params": {"amplitude": b}},
                ]
            },
        }
        flags = ENTROPY_FLAGS_TINY if tiny else ENTROPY_FLAGS
        return Job("entropy-tent", ["entropy", "--map-json", json.dumps(spec), *flags])

    return make


def _entropy_horseshoe(rng: random.Random, tiny: bool) -> Job:
    flags = ENTROPY_FLAGS_TINY if tiny else ENTROPY_FLAGS
    return Job("entropy-horseshoe", ["entropy", "--map", "horseshoe_disk", *flags])


def _entropy_rotation(rng: random.Random, tiny: bool) -> Job:
    alpha, beta = irrational_pair(rng)
    flags = ENTROPY_FLAGS_TINY if tiny else ENTROPY_FLAGS
    return Job("entropy-rotation", ["entropy", *_rotation_flags(alpha, beta), *flags])


# --- cover jobs --------------------------------------------------------------

def _cover(n_starts: int):
    def make(rng: random.Random, tiny: bool) -> Job:
        alpha, beta = irrational_pair(rng)
        m, n = rng.choice((1, 2)), rng.choice((1, 2))
        starts = [(rng.random() * m, rng.random() * n) for _ in range(n_starts)]
        iters, res = ("5000", "8") if tiny else ("100000", "32")
        argv = [
            "cover", *_rotation_flags(alpha, beta),
            "--factors", f"{m}x{n}",
            "--iters", iters,
            "--resolution", res,
            "--starts", ";".join(f"{x!r},{y!r}" for x, y in starts),
        ]
        return Job("cover", argv, {"factors": [m, n], "starts": len(starts)})

    return make


# --- periodic jobs -----------------------------------------------------------

def _periodic_lm(q: int, seeds: int):
    def make(rng: random.Random, tiny: bool) -> Job:
        n = max(6, seeds // 4) if tiny else seeds
        argv = ["periodic", "--map", "lm", "--period", str(q), "--box", "2", "--seeds", str(n)]
        return Job(f"periodic-lm-q{q}", argv, {"q": q})

    return make


def _periodic_identity(rng: random.Random, tiny: bool) -> Job:
    n = 6 if tiny else 16
    argv = ["periodic", "--map", "identity", "--period", "1", "--box", "2", "--seeds", str(n)]
    return Job("periodic-continuum", argv)


def _periodic_horseshoe(rng: random.Random, tiny: bool) -> Job:
    # the seed moves the support disk; the map stays a continuum of fixed
    # points outside it, and its cost does not depend on where the disk sits
    cx, cy = 0.25 + 0.5 * rng.random(), 0.25 + 0.5 * rng.random()
    n = 6 if tiny else 16
    argv = [
        "periodic", "--map", "horseshoe_disk", "--center", f"{cx!r},{cy!r}",
        "--period", "1", "--box", "2", "--seeds", str(n),
    ]
    return Job("periodic-continuum", argv)


# One round per workload; see README.md for why there are two. Job kinds
# are interleaved so that a run cut off mid-round keeps roughly the round's
# mix, and each round holds one block of similar jobs wide enough (40-50% of
# the round) that the median job always falls inside it.
ROUNDS = {
    # Wide numpy batches and the greedy scan. rotset: half the starts on the
    # lattice (offset 0), half generic. entropy: every (|a|, |b|) tent-shear
    # amplitude class once, signs seeded, plus one localized map and one
    # isometry, which a neighbour-graph rewrite of the greedy scan could make
    # slower or more memory-hungry. Median block: the four rotset jobs.
    "rotset-spanning": (
        _rotset(False),
        _tent_product(1, 1),
        _rotset(True),
        _tent_product(1, 2),
        _entropy_horseshoe,
        _rotset(False),
        _tent_product(2, 1),
        _rotset(True),
        _tent_product(2, 2),
        _entropy_rotation,
    ),
    # Per-call overhead at small batches. cover: alternately one and two
    # lock-step orbits; periodic: Newton batches per target and the pairwise
    # root dedup, on isolated roots and on two continua. Median block: the
    # four cover jobs.
    "cover-periodic": (
        _cover(1),
        _periodic_lm(1, 32),
        _cover(2),
        _periodic_identity,
        _cover(1),
        _periodic_lm(2, 16),
        _cover(2),
        _periodic_horseshoe,
    ),
}


def jobs(workload: str, seed: int, tiny: bool = False):
    """Endless job stream of a workload; the same seed gives the same argvs."""
    rng = random.Random(f"{workload}/{seed}")
    makers = ROUNDS[workload]
    k = 0
    while True:
        yield makers[k % len(makers)](rng, tiny)
        k += 1

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import rotaset
from rotaset import (
    ConvexPolygon,
    Identity,
    TorusLift,
    Translation,
    horseshoe_disk,
    lm_map,
)

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")

IRRATIONAL = (0.41421356, 0.73205081)

UNIT_SQUARE = ConvexPolygon(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))


@dataclass(frozen=True)
class EscapesRightHalf(TorusLift):
    """Identity on x < 1/2, NaN on x ≥ 1/2: every orbit started there
    escapes at step 1, and the first such grid start is (0.5, 0.0)."""

    def _apply(self, pts):
        return np.where(pts[..., :1] >= 0.5, np.nan, pts)


@dataclass(frozen=True)
class EscapesAfterShift(TorusLift):
    """NaN on x ≥ 1/2, shift by (1/4, 0) on 1/4 ≤ x < 1/2, identity below
    1/4: starts with x ≥ 1/2 escape at step 1, those with 1/4 ≤ x < 1/2 at
    step 2. On a 32-row grid, the first start to escape, (0.25, 0.0),
    escapes only at step 2."""

    def _apply(self, pts):
        x = pts[..., :1]
        return np.where(x >= 0.5, np.nan, np.where(x >= 0.25, pts + (0.25, 0.0), pts))


@dataclass(frozen=True)
class EscapesInALaterBlockFirst(TorusLift):
    """NaN on x ≥ 4/5, shift by (4/5, 0) on x < 1/10, identity between:
    starts with x < 1/10, the first grid rows, escape at step 2 and those
    with x ≥ 4/5 at step 1. On an 80-row grid run in blocks, block 0
    escapes only at step 2, and the earliest escape is row 64's first
    start (0.8, 0.0), in a later block."""

    def _apply(self, pts):
        x = pts[..., :1]
        return np.where(x >= 0.8, np.nan, np.where(x < 0.1, pts + (0.8, 0.0), pts))


def cli_env():
    """Environment for a `python -m rotaset` child that imports the same
    `rotaset` as this process, whatever the child's working directory:
    the package's absolute parent directory goes first on PYTHONPATH,
    inherited entries follow."""
    env = os.environ.copy()
    root = str(Path(rotaset.__file__).resolve().parents[1])
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = root + (os.pathsep + inherited if inherited else "")
    return env


@pytest.fixture(scope="session")
def lm():
    return lm_map()


@pytest.fixture(scope="session")
def horseshoe():
    return horseshoe_disk()


@pytest.fixture(scope="session")
def irrational_translation():
    return Translation(IRRATIONAL)


@pytest.fixture(scope="session")
def identity():
    return Identity()


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)

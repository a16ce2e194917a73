"""Topological entropy estimation via greedy spanning-set counts.

S(ε, n) counts a greedy (n, ε)-spanning subset of a fine candidate grid:
scan candidates in row-major order and keep one whenever no kept point is
within dynamical distance ε. Kept counts upper-bound the grid-restricted
minimum; their exponential growth rate in n, not their level, carries the
entropy estimate, and the greedy cover has the right growth empirically.

Counts are computed from one precomputed orbit table (resolution² starts ×
max length torus positions), shared across all (ε, n) cells. For each ε a
single chunked pass gives the counts at every length: it records, for each
candidate pair in a static ε-block, the separation time s (the number of
leading steps the pair stays within ε), and a pair is within ε over n steps
exactly when s ≥ n. The pass therefore reproduces, bit for bit, one
independent greedy scan per (ε, n) (see `_spanning_counts`). Its working
memory is about 128 × (2·hw + 1)² candidate pairs per chunk, hw = ⌈ε·res⌉ + 1,
plus one uint64 of per-length coverage flags per candidate; more than 64
lengths are scanned in groups of 64.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .maps import TorusLift, grid_starts, run_in_blocks, torus_orbit
from .maps import torus_step  # noqa: F401  (perfbench/tracing.py wraps this name)

__all__ = [
    "EntropyEstimate",
    "dynamical_distance",
    "count_spanning",
    "estimate_entropy",
    "orbit_table",
    "DEFAULT_EPSILONS",
    "DEFAULT_LENGTHS",
    "DEFAULT_RESOLUTION",
]

DEFAULT_EPSILONS = (0.1, 0.05)
DEFAULT_LENGTHS = tuple(range(2, 15))
DEFAULT_RESOLUTION = 256

# Candidates per separation-time chunk of the spanning scan. It bounds the
# scan's working memory; the counts do not depend on it.
_SCAN_CHUNK = 128


@dataclass(frozen=True)
class EntropyEstimate:
    epsilons: tuple[float, ...]  # descending
    lengths: tuple[int, ...]  # ascending
    counts: tuple[tuple[int, ...], ...]  # counts[i_eps][i_len]
    slopes: tuple[float, ...]  # per-ε fitted growth rate of log counts
    estimate: float  # max over ε, clamped at 0
    resolution: int
    diagnostics: dict

    def to_json_dict(self) -> dict:
        return {
            "epsilons": list(self.epsilons),
            "lengths": list(self.lengths),
            "counts": [list(row) for row in self.counts],
            "slopes": list(self.slopes),
            "estimate": self.estimate,
            "resolution": self.resolution,
            "diagnostics": self.diagnostics,
        }

    def csv_rows(self):
        for eps, row in zip(self.epsilons, self.counts):
            for n, c in zip(self.lengths, row):
                yield (eps, n, c)


def flat_distance(a, b) -> np.ndarray:
    """Distance on the flat torus between points of [0,1)²."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d = np.abs(a - b)
    d = np.minimum(d, 1.0 - d)
    return np.hypot(d[..., 0], d[..., 1])


def dynamical_distance(lift: TorusLift, x, y, n: int) -> float:
    """max over 0 ≤ k < n of the flat torus distance of the k-th images."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    xy = np.stack([np.asarray(x, dtype=float), np.asarray(y, dtype=float)])
    uv = xy % 1.0
    if not np.all(np.isfinite(uv)):
        raise ValueError("need finite torus points")
    best = float(flat_distance(uv[0], uv[1]))
    for _, us, _ in torus_orbit(lift, uv, n - 1, starts=xy):
        best = max(best, float(flat_distance(us[:, 0], us[:, 1]).max()))
    return best


def orbit_table(lift: TorusLift, resolution: int, depth: int) -> np.ndarray:
    """Torus positions of every grid candidate: shape (resolution², depth, 2).

    Candidates are (i/res, j/res) in row-major order; column k holds the
    k-th image, so slicing [:, :n] gives exactly the points entering an
    n-step dynamical distance. The candidates advance in blocks, one after
    another (`run_in_blocks`).
    """
    res = int(resolution)
    u0 = grid_starts(res, res, 0.0)

    def fill(block: np.ndarray) -> np.ndarray:
        out = np.empty((len(block), depth, 2))
        out[:, 0] = block
        for steps, us, _ in torus_orbit(lift, block, depth - 1):
            out[:, steps.start : steps.stop] = us.swapaxes(0, 1)
        return out

    return np.concatenate(run_in_blocks(fill, u0))


def _spanning_counts(table: np.ndarray, resolution: int, eps: float, lengths) -> tuple[int, ...]:
    """Greedy (n, ε)-spanning counts for every n in `lengths` from one scan.

    Candidates are scanned in row-major order; at each length a candidate
    not yet covered becomes a centre and covers every later candidate
    within dynamical distance ε over n steps. A candidate can only be
    within ε of c if it lies in the torus square of half-width ε (plus one
    cell of slack) around c, so only that static block is tested. Column 0
    of `table` must be the candidate grid itself, as `orbit_table` lays
    it out.

    One pass serves all lengths through the *separation time* s(c, j): the
    number of leading steps k with d_k(c, j) ≤ ε, under the per-cell scan's
    float test operand for operand, `dx*dx + dy*dy <= ε²` with per axis
    dx = |x_j - x_c| and then min(dx, 1 - dx). Exactness:

    - j is within ε of c over n steps exactly when s(c, j) ≥ n;
    - every j < c is already covered or a centre, at every length, when
      the scan reaches c, so only edges to later j are kept;
    - so for each candidate c the scan reads c's covered flag per length,
      counts c as a centre where it is unset, and there sets the flag of
      each later block neighbour j with s(c, j) ≥ n.

    The counts therefore equal, bit for bit, one independent greedy scan
    per (ε, n). The covered flags of a candidate are one uint64, bit i for
    lengths[i]; more than 64 lengths are scanned 64 at a time, each
    length's count being its own greedy scan.

    Separation times are built for fixed chunks of `_SCAN_CHUNK`
    candidates just before the scan reaches them. Candidates and block
    neighbours already covered at every length are dropped first: covered
    only grows, so they can never become centres or gain coverage, which
    keeps isometries and local maps from testing every pair for every
    step. Memory: about `_SCAN_CHUNK` × (2·hw + 1)² pairs per chunk
    (hw = ⌈ε·res⌉ + 1), one uint64 of covered flags per candidate and a
    step-major copy of the table.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    if len(lengths) > 64:
        head = _spanning_counts(table, resolution, eps, lengths[:64])
        return head + _spanning_counts(table, resolution, eps, lengths[64:])
    res = int(resolution)
    total = res * res
    depth = int(lengths.max())
    ox = np.ascontiguousarray(table[:, :depth, 0].T)
    oy = np.ascontiguousarray(table[:, :depth, 1].T)
    eps2 = eps * eps
    hw = int(np.ceil(eps * res)) + 1
    # the block wraps onto itself once 2·hw + 1 > res: each neighbour once
    offs = np.unique(np.arange(-hw, hw + 1) % res)
    sep_dtype = np.min_scalar_type(depth)
    bit = np.left_shift(np.uint64(1), np.arange(len(lengths), dtype=np.uint64))
    # entry s: the lengths that a pair with separation time s reaches
    reach_by_sep = ((np.arange(depth + 1)[:, None] >= lengths) * bit).sum(axis=1, dtype=np.uint64)
    full = reach_by_sep[depth]
    covered = np.zeros(total, dtype=np.uint64)
    counts = np.zeros(len(lengths), dtype=np.int64)
    for lo in range(0, total, _SCAN_CHUNK):
        cand = np.arange(lo, min(lo + _SCAN_CHUNK, total))
        cand = cand[covered[cand] != full]
        if cand.size == 0:
            continue
        rows = (cand[:, None] // res + offs) % res
        cols = (cand[:, None] % res + offs) % res
        # Step 0 compares grid points: x depends only on the row and y only
        # on the column, so the float test splits into a row and a column part.
        dx = np.abs(ox[0, rows * res] - ox[0, cand, None])
        dx = np.minimum(dx, 1.0 - dx)
        dy = np.abs(oy[0, cols] - oy[0, cand, None])
        dy = np.minimum(dy, 1.0 - dy)
        pj = (rows[:, :, None] * res + cols[:, None, :]).reshape(len(cand), -1)
        near = ((dx * dx)[:, :, None] + (dy * dy)[:, None, :] <= eps2).reshape(pj.shape)
        near &= pj > cand[:, None]
        pair = np.flatnonzero(near)
        pc, pj = cand[pair // pj.shape[1]], pj.ravel()[pair]
        keep = np.flatnonzero(covered[pj] != full)
        pc, pj = pc.take(keep), pj.take(keep)
        sep = np.ones(len(pc), dtype=sep_dtype)
        alive = np.arange(len(pc))
        a, b = pc, pj
        for k in range(1, depth):
            # dx*dx + dy*dy <= eps2 as above, in place
            dx = ox[k].take(b)
            dx -= ox[k].take(a)
            np.abs(dx, out=dx)
            np.minimum(dx, 1.0 - dx, out=dx)
            dy = oy[k].take(b)
            dy -= oy[k].take(a)
            np.abs(dy, out=dy)
            np.minimum(dy, 1.0 - dy, out=dy)
            dx *= dx
            dy *= dy
            dx += dy
            stay = np.flatnonzero(dx <= eps2)
            alive, a, b = alive.take(stay), a.take(stay), b.take(stay)
            if alive.size == 0:
                break
            sep[alive] = k + 1
        edge = np.flatnonzero(sep >= lengths.min())
        pc, pj, reach = pc.take(edge), pj.take(edge), reach_by_sep.take(sep.take(edge))
        bounds = np.searchsorted(pc, np.append(cand, total))
        centres = np.zeros(len(cand), dtype=np.uint64)
        for t, c in enumerate(cand):
            live = full & ~covered[c]
            if live:
                centres[t] = live
                covered[pj[bounds[t] : bounds[t + 1]]] |= reach[bounds[t] : bounds[t + 1]] & live
        counts += ((centres[:, None] & bit) != 0).sum(axis=0)
    return tuple(int(x) for x in counts)


def _check_resolution(eps: float, resolution: int):
    if not (0.0 < eps < 0.5):
        raise ValueError("epsilon must lie in (0, 1/2)")
    if resolution * eps < 4:
        raise ValueError("candidate grid too coarse: need resolution·epsilon ≥ 4")


def count_spanning(lift: TorusLift, epsilon: float, n: int, candidate_resolution: int) -> int:
    """Greedy (n, ε)-spanning count over a fresh orbit table of depth n."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    _check_resolution(epsilon, candidate_resolution)
    table = orbit_table(lift, candidate_resolution, n)
    return _spanning_counts(table, candidate_resolution, float(epsilon), (n,))[0]


def _fit_window(lengths, counts, saturation_cap):
    """Fit window: largest-n half of the lengths whose counts are unsaturated.

    A count beyond half the candidate pool no longer tracks spanning growth
    (the grid itself is exhausted), so saturated cells are excluded before
    taking the upper half; without saturation this is exactly the upper
    half of the full range.
    """
    usable = 0
    while usable < len(lengths) and counts[usable] <= saturation_cap:
        usable += 1
    if usable < 2:
        return list(range(min(2, len(lengths))))
    idx = list(range(usable))
    window = idx[usable // 2 :]
    if len(window) < 2:
        window = idx[-2:]
    return window


def estimate_entropy(
    lift: TorusLift,
    epsilons=DEFAULT_EPSILONS,
    lengths=DEFAULT_LENGTHS,
    candidate_resolution: int = DEFAULT_RESOLUTION,
) -> EntropyEstimate:
    """Count table over (ε, n), per-ε log-slope fits, max-slope estimate.

    The selection "maximum slope over ε" (rather than an ε→0
    extrapolation) is recorded in the diagnostics.
    """
    epsilons = tuple(sorted((float(e) for e in epsilons), reverse=True))
    lengths = tuple(sorted(int(n) for n in lengths))
    if not epsilons or not lengths:
        raise ValueError("need at least one epsilon and one length")
    if lengths[0] < 1:
        raise ValueError("lengths must be positive")
    res = int(candidate_resolution)
    for eps in epsilons:
        _check_resolution(eps, res)

    table = orbit_table(lift, res, lengths[-1])
    counts = tuple(_spanning_counts(table, res, eps, lengths) for eps in epsilons)

    cap = res * res / 2.0
    slopes = []
    per_eps = []
    for eps, row in zip(epsilons, counts):
        widx = _fit_window(lengths, row, cap)
        xs = np.asarray([lengths[i] for i in widx], dtype=float)
        ys = np.log([row[i] for i in widx])
        if len(xs) >= 2 and np.ptp(xs) > 0:
            slope, intercept = np.polyfit(xs, ys, 1)
            resid = float(np.sqrt(np.mean((slope * xs + intercept - ys) ** 2)))
        else:
            slope, resid = 0.0, 0.0
        slopes.append(float(slope))
        per_eps.append(
            {
                "epsilon": eps,
                "window_lengths": [lengths[i] for i in widx],
                "residual_rms": resid,
                "saturated_lengths": [n for n, c in zip(lengths, row) if c > cap],
            }
        )

    estimate = max(0.0, max(slopes))
    return EntropyEstimate(
        epsilons=epsilons,
        lengths=lengths,
        counts=counts,
        slopes=tuple(slopes),
        estimate=float(estimate),
        resolution=res,
        diagnostics={"per_epsilon": per_eps, "selector": "max_slope_over_epsilon"},
    )

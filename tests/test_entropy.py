import numpy as np
import pytest

from rotaset import (
    Composition,
    HorizontalTentShear,
    Identity,
    IntegerTranslate,
    IterationError,
    Translation,
    VerticalTentShear,
    count_spanning,
    dynamical_distance,
    estimate_entropy,
    horseshoe_disk,
    maps,
)
from rotaset.entropy import _spanning_counts, flat_distance, orbit_table

from .conftest import IRRATIONAL, EscapesRightHalf


def test_flat_distance_wraps():
    assert flat_distance((0.05, 0.5), (0.95, 0.5)) == pytest.approx(0.1)
    assert flat_distance((0.0, 0.0), (0.5, 0.5)) == pytest.approx(np.sqrt(0.5))
    assert flat_distance((0.25, 0.75), (0.25, 0.75)) == 0.0


def test_dynamical_distance_identity_is_static(identity):
    d0 = float(flat_distance((0.1, 0.2), (0.3, 0.4)))
    for n in (1, 7, 50):
        assert dynamical_distance(identity, (0.1, 0.2), (0.3, 0.4), n) == d0


def test_dynamical_distance_translation_is_static(irrational_translation):
    d0 = float(flat_distance((0.1, 0.2), (0.3, 0.4)))
    for n in (1, 30, 200):
        got = dynamical_distance(irrational_translation, (0.1, 0.2), (0.3, 0.4), n)
        assert got == pytest.approx(d0, abs=1e-12)  # isometry up to per-step ulps


def test_dynamical_distance_expands_for_lm(lm):
    x, y = (0.1, 0.1), (0.1 + 1e-3, 0.1)
    d0 = float(flat_distance(x, y))
    d20 = dynamical_distance(lm, x, y, 20)
    assert d20 > d0
    assert d20 > 0.1  # separation grows far beyond the initial 1e-3


def test_dynamical_distance_monotone_in_n(lm):
    vals = [dynamical_distance(lm, (0.12, 0.7), (0.13, 0.71), n) for n in range(1, 15)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_dynamical_distance_symmetry(lm):
    a = dynamical_distance(lm, (0.2, 0.3), (0.6, 0.1), 10)
    b = dynamical_distance(lm, (0.6, 0.1), (0.2, 0.3), 10)
    assert a == b


def test_count_spanning_identity_constant(identity):
    c1 = count_spanning(identity, 0.1, 1, 64)
    c50 = count_spanning(identity, 0.1, 50, 64)
    assert c1 == c50
    assert c1 > 0


def test_count_spanning_translation_constant(irrational_translation):
    counts = [count_spanning(irrational_translation, 0.1, n, 64) for n in (1, 5, 17, 50)]
    assert len(set(counts)) == 1


def test_count_spanning_lm_grows(lm):
    c4 = count_spanning(lm, 0.05, 4, 128)
    c12 = count_spanning(lm, 0.05, 12, 128)
    assert c4 < c12


def test_count_spanning_preconditions(lm):
    with pytest.raises(ValueError):
        count_spanning(lm, 0.5, 4, 64)
    with pytest.raises(ValueError):
        count_spanning(lm, -0.1, 4, 64)
    with pytest.raises(ValueError):
        count_spanning(lm, 0.05, 4, 64)  # 64·0.05 < 4
    with pytest.raises(ValueError):
        count_spanning(lm, 0.1, 0, 64)


def test_orbit_table_layout(lm):
    tab = orbit_table(lm, 16, 5)
    assert tab.shape == (256, 5, 2)
    # column 0 is the candidate grid itself
    assert tab[17, 0, 0] == 1 / 16 and tab[17, 0, 1] == 1 / 16
    assert np.all(tab >= 0.0) and np.all(tab < 1.0)


@pytest.mark.filterwarnings("error")
def test_orbit_table_escape_names_step_and_start():
    with pytest.raises(IterationError) as exc:
        orbit_table(EscapesRightHalf(), 32, 3)
    assert exc.value.step == 1
    assert exc.value.start == (0.5, 0.0)
    assert str(exc.value) == "orbit from start (0.5, 0.0) escaped at step 1"


def test_orbit_table_worker_independence(lm, monkeypatch):
    # the default block holds the whole grid; then blocks of 1 and 3 rows
    a = orbit_table(lm, 48, 6)
    for rows in (1, 3):
        monkeypatch.setattr(maps, "_BLOCK_POINTS", rows * 48)
        assert np.array_equal(orbit_table(lm, 48, 6), a)


def test_estimate_isometries_near_zero(identity, irrational_translation):
    lengths = range(2, 9)
    for f in (identity, irrational_translation):
        est = estimate_entropy(f, (0.1, 0.05), lengths, 128)
        assert est.estimate <= 0.01
        for row in est.counts:
            assert len(set(row)) == 1  # exactly n-constant


def test_estimate_lm_positive(lm):
    est = estimate_entropy(lm, (0.1,), range(2, 9), 128)
    assert est.estimate > 0.3


def test_estimate_field_structure(lm):
    est = estimate_entropy(lm, (0.05, 0.1), range(2, 7), 128)
    assert est.epsilons == (0.1, 0.05)  # normalized descending
    assert est.lengths == (2, 3, 4, 5, 6)
    assert len(est.counts) == 2 and all(len(r) == 5 for r in est.counts)
    assert len(est.slopes) == 2
    assert est.estimate >= 0.0
    assert est.estimate == max(0.0, max(est.slopes))
    per_eps = est.diagnostics["per_epsilon"]
    assert [d["epsilon"] for d in per_eps] == [0.1, 0.05]
    for d in per_eps:
        assert len(d["window_lengths"]) >= 2
        assert d["residual_rms"] >= 0.0


def test_count_monotonicity_small_configs(lm, identity, irrational_translation, horseshoe):
    lengths = (2, 4, 6, 8)
    for f in (identity, irrational_translation, lm, horseshoe):
        est = estimate_entropy(f, (0.2, 0.1), lengths, 64)
        for row in est.counts:
            assert all(b >= a for a, b in zip(row, row[1:])), (f, row)
        for narrow, wide in zip(est.counts[1:], est.counts[:-1]):
            assert all(n >= w for n, w in zip(narrow, wide))


def test_integer_translate_counts_identical(lm):
    base = estimate_entropy(lm, (0.1,), range(2, 7), 64)
    shifted = estimate_entropy(IntegerTranslate(lm, (3, -2)), (0.1,), range(2, 7), 64)
    assert shifted.counts == base.counts
    assert shifted.slopes == base.slopes
    assert shifted.estimate == base.estimate


def test_saturated_cells_leave_fit_window(lm):
    # drive counts into saturation with a huge n-range at a tiny grid: the
    # window must retreat to unsaturated lengths instead of fitting the
    # plateau (whose slope would be spuriously flat)
    est = estimate_entropy(lm, (0.1,), range(2, 15), 48)
    diag = est.diagnostics["per_epsilon"][0]
    cap = 48 * 48 / 2
    row = dict(zip(est.lengths, est.counts[0]))
    assert any(c > cap for c in est.counts[0])  # the plateau really happens
    for n in diag["window_lengths"]:
        assert row[n] <= cap
    assert diag["saturated_lengths"]
    assert est.estimate > 0.3


def test_estimate_validates(lm):
    with pytest.raises(ValueError):
        estimate_entropy(lm, (), range(2, 5), 64)
    with pytest.raises(ValueError):
        estimate_entropy(lm, (0.1,), (), 64)
    with pytest.raises(ValueError):
        estimate_entropy(lm, (0.1,), (0, 1), 64)


def test_csv_rows_cover_table(lm):
    est = estimate_entropy(lm, (0.1,), (2, 3), 64)
    rows = list(est.csv_rows())
    assert rows == [(0.1, 2, est.counts[0][0]), (0.1, 3, est.counts[0][1])]


def _greedy_count_reference(table, resolution, eps, n):
    """One greedy (n, ε) scan per cell: the per-candidate loop that
    `_spanning_counts` replaces, kept as its reference.

    Static distance bounds dynamical distance from below, so only candidates
    in the torus square of half-width ε (plus one cell of slack) around the
    scan point can be covered; survivors of the k=0 test are winnowed by
    the remaining orbit steps.
    """
    res = int(resolution)
    total = res * res
    covered = np.zeros(total, dtype=bool)
    hw = int(np.ceil(eps * res)) + 1
    offs = np.arange(-hw, hw + 1)
    ox = np.ascontiguousarray(table[:, :n, 0])
    oy = np.ascontiguousarray(table[:, :n, 1])
    eps2 = eps * eps
    count = 0
    for c in range(total):
        if covered[c]:
            continue
        count += 1
        i, j = divmod(c, res)
        ii = (i + offs) % res
        jj = (j + offs) % res
        block = (ii[:, None] * res + jj[None, :]).ravel()
        block = block[~covered[block]]
        dx = np.abs(ox[block, 0] - ox[c, 0])
        dx = np.minimum(dx, 1.0 - dx)
        dy = np.abs(oy[block, 0] - oy[c, 0])
        dy = np.minimum(dy, 1.0 - dy)
        alive = block[dx * dx + dy * dy <= eps2]
        for k in range(n - 1, 0, -1):
            if alive.size == 0:
                break
            dx = np.abs(ox[alive, k] - ox[c, k])
            dx = np.minimum(dx, 1.0 - dx)
            dy = np.abs(oy[alive, k] - oy[c, k])
            dy = np.minimum(dy, 1.0 - dy)
            alive = alive[dx * dx + dy * dy <= eps2]
        covered[alive] = True
        covered[c] = True
    return count


def _tent_product(a, b):
    return Composition((VerticalTentShear(a), HorizontalTentShear(b)))


@pytest.mark.parametrize(
    "lift, resolution, eps, lengths",
    [
        (_tent_product(1, 1), 24, 0.2, (1, 2, 3, 4)),
        (_tent_product(2, -1), 32, 0.125, (2, 5, 9)),
        (_tent_product(-2, 2), 20, 0.25, (1, 3, 6)),
        (Translation(IRRATIONAL), 32, 0.15, (1, 2, 7, 130)),
        (horseshoe_disk(), 40, 0.1, (2, 5, 9)),
        (_tent_product(1, -2), 10, 0.45, (1, 2, 5)),  # 2·hw + 1 > res: the block wraps
        (Identity(), 10, 0.45, (1, 4, 200)),
        # 90 lengths, scanned as groups of 64 and 26; counts still change at n = 69
        (VerticalTentShear(0.02), 24, 0.2, tuple(range(1, 91))),
    ],
    ids=[
        "tent11",
        "tent2-1-gapped",
        "tent-22",
        "rotation-long",
        "horseshoe",
        "tent-wrap",
        "identity-wrap-long",
        "slow-shear-grouped",
    ],
)
def test_spanning_counts_match_per_cell_scan(lift, resolution, eps, lengths):
    table = orbit_table(lift, resolution, max(lengths))
    want = tuple(_greedy_count_reference(table, resolution, eps, n) for n in lengths)
    assert _spanning_counts(table, resolution, eps, lengths) == want

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rotaset
from rotaset import (
    Composition,
    HorizontalTentShear,
    Identity,
    IntegerTranslate,
    Iterate,
    LocalizedShear,
    Translation,
    VerticalTentShear,
    builtin_map,
    eval_lift,
    from_map_spec,
    horseshoe_disk,
    iterate,
    lm_map,
    map_spec,
    project_to_torus,
    tent,
    torus_step,
)
from rotaset import maps
from rotaset.maps import _MAX_SUBSTEPS, BUILTIN_MAPS, TorusLift, map_defaults, map_label

from .conftest import IRRATIONAL

# maps exercised by the generic property tests
ALL_MAPS = [
    ("identity", Identity()),
    ("translation", Translation(IRRATIONAL)),
    ("vshear", VerticalTentShear(1.0)),
    ("hshear", HorizontalTentShear(-0.75)),
    ("lm", lm_map()),
    ("locshear", LocalizedShear((0.5, 0.5), 0.25, 2.5, "vertical")),
    ("horseshoe", horseshoe_disk()),
    ("iterate", Iterate(lm_map(), 2)),
    ("inttrans", IntegerTranslate(lm_map(), (2, -1))),
]

coords = st.floats(-2.0, 3.0, allow_nan=False, allow_infinity=False)
points = st.tuples(coords, coords)
int_vecs = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


def test_tent_distinguished_values():
    assert type(tent(0.5)) is np.float64
    assert tent(0.0) == 0.0
    assert tent(0.5) == 1.0
    assert tent(0.25) == 0.5
    assert tent(0.75) == 0.5
    assert tent(1.0) == 0.0
    # period 1, exactly, on dyadic arguments
    for t in (0.0, 0.125, 0.375, 0.5, 0.9375):
        assert tent(t + 3.0) == tent(t)
        assert tent(t - 2.0) == tent(t)


def test_tent_vectorized_shape():
    x = np.linspace(-1, 2, 301)
    y = tent(x)
    assert y.shape == x.shape
    assert np.all(y >= 0) and np.all(y <= 1)


def test_lm_distinguished_fixed_points(lm):
    # the four period-1 torus points and their exact lift displacements
    cases = [
        ((0.0, 0.0), (0.0, 0.0)),
        ((0.5, 0.0), (0.0, 1.0)),
        ((0.0, 0.5), (1.0, 0.0)),
        ((0.5, 0.5), (1.0, 1.0)),
    ]
    for p, disp in cases:
        img = eval_lift(lm, p)
        assert img[0] == p[0] + disp[0]
        assert img[1] == p[1] + disp[1]


def test_iterate_translation_exact():
    f = Translation((0.25, 0.0))
    out = iterate(f, (0.1, 0.9), 4)
    assert out[0] == pytest.approx(1.1, abs=1e-15)
    assert out[1] == 0.9


def test_iterate_lm_fixed_point(lm):
    out = iterate(lm, (0.5, 0.5), 2)
    assert tuple(out) == (2.5, 2.5)


def test_iterate_identity(identity):
    out = iterate(identity, (0.3, 0.7), 10)
    assert tuple(out) == (0.3, 0.7)


def test_project_to_torus():
    assert tuple(project_to_torus((1.25, -0.25))) == (0.25, 0.75)
    assert tuple(project_to_torus((0.0, 0.999))) == (0.0, 0.999)
    assert tuple(project_to_torus((-3.0, 4.0))) == (0.0, 0.0)
    # -1e-17 - floor(-1e-17) rounds up to 1.0; the point belongs at 0.0
    assert tuple(project_to_torus((-1e-17, 0.5))) == (0.0, 0.5)
    assert tuple(project_to_torus((0.5, -1e-300))) == (0.5, 0.0)
    u = project_to_torus(-np.logspace(-300, -1, 64).reshape(32, 2))
    assert np.all((0.0 <= u) & (u < 1.0))


def test_non_finite_input_rejected(lm):
    for bad in [(np.nan, 0.0), (np.inf, 0.5), (0.1, -np.inf)]:
        with pytest.raises(ValueError):
            eval_lift(lm, bad)
        with pytest.raises(ValueError):
            project_to_torus(bad)
    with pytest.raises(ValueError):
        iterate(lm, (np.nan, 0.0), 3)


@pytest.mark.parametrize("name,f", ALL_MAPS)
@given(p=points, v=int_vecs)
@settings(max_examples=30)
def test_integer_equivariance(name, f, p, v):
    """F(p + v) − v = F(p) within float noise, for integer v."""
    base = eval_lift(f, p)
    shifted = eval_lift(f, (p[0] + v[0], p[1] + v[1]))
    assert np.max(np.abs(shifted - np.asarray(v) - base)) <= 1e-9


def test_localized_shear_identity_outside_disk(rng):
    f = LocalizedShear((0.5, 0.5), 0.2, 4.0, "horizontal")
    pts = rng.random((2000, 2))
    d = pts - np.asarray([0.5, 0.5])
    d = np.abs((d + 0.5) % 1.0 - 0.5)
    outside = np.hypot(d[:, 0], d[:, 1]) >= 0.2
    img = eval_lift(f, pts)
    assert np.array_equal(img[outside], pts[outside])  # bitwise
    assert not np.array_equal(img[~outside], pts[~outside])


def test_localized_shear_substeps_scale_with_amplitude():
    small = LocalizedShear((0.5, 0.5), 0.25, 0.1, "vertical")
    big = LocalizedShear((0.5, 0.5), 0.25, 6.0, "vertical")
    assert small.substeps < big.substeps
    # the pinned default construction: 2·(8/(3√3))·6/0.25 → 74 substeps
    assert big.substeps == 74


def test_localized_shear_is_injective_at_large_amplitude():
    # a single shot of y ← y + 6·bump(ρ) folds vertical lines through the
    # disk (the displacement gradient exceeds 1); the substepped
    # construction must keep the image of each vertical line monotone
    f = LocalizedShear((0.5, 0.5), 0.25, 6.0, "vertical")
    for x in (0.40, 0.50, 0.62):
        y = np.linspace(0.2, 0.8, 2001)
        pts = np.stack([np.full_like(y, x), y], axis=-1)
        img_y = eval_lift(f, pts)[:, 1]
        assert np.all(np.diff(img_y) > 0.0)

    single_shot = pts[:, 1] + 6.0 * (
        np.maximum(0.0, 1.0 - ((pts[:, 0] - 0.5) ** 2 + (pts[:, 1] - 0.5) ** 2) / 0.25**2) ** 2
    )
    assert np.any(np.diff(single_shot) < 0.0)  # the naive map really does fold


def test_localized_shear_parameter_validation():
    with pytest.raises(ValueError):
        LocalizedShear((0.5, 0.5), 0.5, 1.0, "vertical")  # radius too big
    with pytest.raises(ValueError):
        LocalizedShear((0.5, 0.5), 0.0, 1.0, "vertical")
    with pytest.raises(ValueError):
        LocalizedShear((0.5, 0.5), 0.25, 1.0, "diagonal")
    with pytest.raises(ValueError):
        LocalizedShear((1.5, 0.5), 0.25, 1.0, "vertical")


def test_composition_order():
    # vertical first, then horizontal: (0.25, 0) -> (0.25, 0.5) -> (1.25, 0.5)
    f = Composition((VerticalTentShear(1.0), HorizontalTentShear(1.0)))
    assert tuple(eval_lift(f, (0.25, 0.0))) == (1.25, 0.5)
    # horizontal first leaves x untouched at y = 0: (0.25, 0) -> (0.25, 0.5)
    g = Composition((HorizontalTentShear(1.0), VerticalTentShear(1.0)))
    assert tuple(eval_lift(g, (0.25, 0.0))) == (0.25, 0.5)


def test_iterate_matches_repeated_eval_on_translation():
    f = Translation((0.3, -0.2))
    p = np.asarray([0.12, 0.44])
    manual = p.copy()
    for _ in range(7):
        manual = eval_lift(f, manual)
    assert np.max(np.abs(iterate(f, p, 7) - manual)) <= 1e-12


def test_iterate_matches_composition_small_n(lm):
    # short horizons only: chaotic maps amplify last-ulp differences between
    # the threaded and recomposed evaluation orders
    p = (0.3125, 0.6875)  # dyadic, exact under tent arithmetic
    via_iterate = iterate(lm, p, 3)
    manual = np.asarray(p)
    for _ in range(3):
        manual = eval_lift(lm, manual)
    assert np.max(np.abs(via_iterate - manual)) <= 1e-9


def test_torus_step_winding_is_integer(lm, rng):
    u = rng.random((64, 2))
    u2, k = torus_step(lm, u)
    assert k.dtype == np.int64
    assert np.all(u2 >= 0.0) and np.all(u2 < 1.0)
    # windings reproduce the planar evaluation
    assert np.max(np.abs(eval_lift(lm, u) - (u2 + k))) <= 1e-12


@pytest.mark.parametrize("name,f", ALL_MAPS)
def test_torus_step_reproduces_the_lift(name, f, rng):
    """Each built-in's projected step, torus point plus integer winding, is
    its planar lift: the `_step` overrides of Iterate and IntegerTranslate
    and the reducing step of the rest agree with `_apply` (up to integer
    equivariance noise, as Iterate reduces between its links)."""
    u = rng.random((256, 2))
    u2, k = torus_step(f, u)
    assert k.dtype == np.int64
    assert np.all(u2 >= 0.0) and np.all(u2 < 1.0)
    assert np.max(np.abs(eval_lift(f, u) - (u2 + k))) <= 1e-9


def test_integer_translate_windings_exact(lm, rng):
    u = rng.random((32, 2))
    u_base, k_base = torus_step(lm, u)
    u_shift, k_shift = torus_step(IntegerTranslate(lm, (5, -3)), u)
    assert np.array_equal(u_base, u_shift)  # same torus stream, bitwise
    assert np.array_equal(k_shift - k_base, np.broadcast_to([5, -3], k_base.shape))


@dataclass(frozen=True)
class NanOnRightHalf(TorusLift):
    """Identity on x < 1/2, NaN on x ≥ 1/2."""

    def _apply(self, x, y, op):
        return op.select(x >= 0.5, math.nan, x), y


# Each built-in, nested combinators, a winding past int64 and a lift whose
# floats raise at a NaN: torus_step at batches up to maps._FLOAT_STARTS
# (floats, or arrays after a float raises) against the same starts among
# one more, which step on numpy columns.
SMALL_BATCH_LIFTS = ALL_MAPS + [
    ("compose", Composition((VerticalTentShear(-2.0), Translation(IRRATIONAL), HorizontalTentShear(0.75)))),
    ("near-int64", IntegerTranslate(lm_map(), (2**62, -(2**62) + 1))),
    ("nan-on-right-half", NanOnRightHalf()),
]


@pytest.mark.parametrize("name,f", SMALL_BATCH_LIFTS, ids=[name for name, _ in SMALL_BATCH_LIFTS])
def test_torus_step_at_small_batches_has_the_array_bits(name, f, rng):
    # the last start is -0.0 in x, which x - floor(x) on arrays makes 0.0;
    # the one before lies in the NaN half of `nan-on-right-half`
    u = rng.random((maps._FLOAT_STARTS + 1, 2))
    u[-2:] = (0.75, 0.25), (-0.0, 0.5)
    with np.errstate(invalid="ignore"):  # NaN windings cast to int64
        u_all, k_all = torus_step(f, u)
        for batch in (u[-1], u[-1:], u[-2:], u[-maps._FLOAT_STARTS :]):
            got_u, got_k = torus_step(f, batch)
            assert got_u.shape == got_k.shape == batch.shape and got_k.dtype == np.int64
            rows = len(batch.reshape(-1, 2))
            assert got_u.tobytes() == u_all[-rows:].reshape(batch.shape).tobytes()  # NaN and 0.0 too
            assert got_k.tobytes() == k_all[-rows:].reshape(batch.shape).tobytes()
    assert np.isnan(u_all[-2, 0]) == (name == "nan-on-right-half")
    if name == "identity":
        assert u_all[-1, 0] == 0.0 and not np.signbit(u_all[-1, 0])


def _wrapped(values) -> np.ndarray:
    """Python ints as the int64 they wrap to."""
    return np.asarray([(x + 2**63) % 2**64 - 2**63 for x in values], dtype=np.int64)


@pytest.mark.parametrize("v", [(0, 5), (2**62, -(2**62) + 1)], ids=["zero-component", "near-int64-limits"])
@pytest.mark.parametrize("batch", [1, 4096])
def test_integer_translate_windings_exact_at_any_batch(lm, rng, batch, v):
    shifted = IntegerTranslate(lm, v)
    u = rng.random((batch, 2))
    u_base, k_base = torus_step(lm, u)
    u_shift, k_shift = torus_step(shifted, u)
    assert k_shift.dtype == np.int64
    assert np.array_equal(u_base, u_shift)  # bitwise
    assert np.array_equal(k_shift, k_base + np.asarray(v, dtype=np.int64))
    # cumulative windings: the base's plus n·v, as int64 (wrapping past 2**63)
    n = 5
    base = list(maps.torus_orbit(lm, u, n))
    for (steps, us, ws), (_, us_base, ws_base) in zip(maps.torus_orbit(shifted, u, n), base, strict=True):
        assert np.array_equal(us, us_base)
        for k, w, w_base in zip(steps, ws, ws_base):
            expected = [int(b) + k * v[i % 2] for i, b in enumerate(w_base.ravel())]
            assert np.array_equal(w.ravel(), _wrapped(expected))


def test_map_spec_round_trip():
    for name, f in ALL_MAPS:
        spec = map_spec(f)
        rebuilt = from_map_spec(spec)
        assert map_spec(rebuilt) == spec


def test_builtin_registry():
    assert isinstance(builtin_map("lm"), Composition)
    assert isinstance(builtin_map("rotation", alpha=0.1, beta=0.2), Translation)
    with pytest.raises(ValueError):
        builtin_map("nope")
    with pytest.raises(ValueError):
        from_map_spec({"map": "nope"})
    with pytest.raises(ValueError):
        from_map_spec({"params": {}})
    with pytest.raises(ValueError):
        from_map_spec({"map": "iterate", "params": {}})  # missing base/k


def test_integer_translate_requires_integers():
    with pytest.raises(ValueError):
        IntegerTranslate(Identity(), (0.5, 0.0))


def test_iterate_requires_positive_k():
    with pytest.raises(ValueError):
        Iterate(Identity(), 0)


def test_integral_bounds_are_inclusive_of_the_largest_steps():
    assert Iterate(Identity(), 10_000).k == 10_000
    assert IntegerTranslate(Identity(), (2**63 - 1, -(2**63 - 1))).v == (2**63 - 1, -(2**63 - 1))
    largest = math.nextafter(2.0**63, 0.0)  # the largest float under 2**63
    assert Translation((largest, -largest)).v == (largest, -largest)
    assert HorizontalTentShear(-largest).amplitude == -largest


_LM_SPEC = (
    "{'map': 'compose', 'params': {'maps': [{'map': 'vertical_tent_shear', 'params': {'amplitude': 1.0}}, "
    "{'map': 'horizontal_tent_shear', 'params': {'amplitude': 1.0}}]}}"
)

# artifact labels as released: they are bytes of every rotset/entropy artifact
GOLDEN_LABELS = [
    ({"map": "identity"}, "identity"),
    ({"map": "lm"}, "lm"),
    ({"map": "rotation"}, "translation(v=[0.0, 0.0])"),
    ({"map": "rotation", "params": {"alpha": 0.41421356, "beta": 0.73205081}}, "translation(v=[0.41421356, 0.73205081])"),
    ({"map": "translation", "params": {"v": [1, 2]}}, "translation(v=[1.0, 2.0])"),
    ({"map": "horseshoe_disk"}, "horseshoe_disk"),
    ({"map": "horseshoe_disk", "params": {"amplitude": 6}}, "horseshoe_disk"),
    (
        {"map": "horseshoe_disk", "params": {"center": [0.3, 0.6]}},
        "compose(maps=[{'map': 'localized_shear', 'params': {'center': [0.3, 0.6], 'radius': 0.25, "
        "'amplitude': 6.0, 'axis': 'vertical'}}, {'map': 'localized_shear', 'params': {'center': [0.3, 0.6], "
        "'radius': 0.25, 'amplitude': 6.0, 'axis': 'horizontal'}}])",
    ),
    ({"map": "vertical_tent_shear"}, "vertical_tent_shear(amplitude=1.0)"),
    ({"map": "vertical_tent_shear", "params": {"amplitude": 2}}, "vertical_tent_shear(amplitude=2)"),
    ({"map": "horizontal_tent_shear", "params": {"amplitude": -0.75}}, "horizontal_tent_shear(amplitude=-0.75)"),
    ({"map": "localized_shear"}, "localized_shear(amplitude=1.0,axis=vertical,center=[0.5, 0.5],radius=0.25)"),
    (
        {"map": "localized_shear", "params": {"center": [0.2, 0.7], "radius": 0.1, "amplitude": 2, "axis": "horizontal"}},
        "localized_shear(amplitude=2.0,axis=horizontal,center=[0.2, 0.7],radius=0.1)",
    ),
    (
        {"map": "compose", "params": {"maps": [
            {"map": "vertical_tent_shear", "params": {"amplitude": 1}},
            {"map": "horizontal_tent_shear", "params": {"amplitude": 1}},
        ]}},
        "lm",
    ),
    (
        {"map": "compose", "params": {"maps": [
            {"map": "vertical_tent_shear", "params": {"amplitude": -2}},
            {"map": "horizontal_tent_shear", "params": {"amplitude": 1}},
        ]}},
        "compose(maps=[{'map': 'vertical_tent_shear', 'params': {'amplitude': -2}}, "
        "{'map': 'horizontal_tent_shear', 'params': {'amplitude': 1}}])",
    ),
    ({"map": "iterate", "params": {"base": {"map": "lm"}, "k": 2.0}}, f"iterate(base={_LM_SPEC},k=2)"),
    (
        {"map": "integer_translate", "params": {"base": {"map": "lm"}, "v": [3, -2]}},
        f"integer_translate(base={_LM_SPEC},v=[3, -2])",
    ),
    (
        {"map": "integer_translate", "params": {
            "base": {"map": "integer_translate", "params": {"base": {"map": "rotation"}, "v": [0, 1]}},
            "v": [-1.0, 0.0],
        }},
        "integer_translate(base={'map': 'integer_translate', 'params': {'base': {'map': 'translation', "
        "'params': {'v': [0.0, 0.0]}}, 'v': [0, 1]}},v=[-1, 0])",
    ),
]


@pytest.mark.parametrize("spec,label", GOLDEN_LABELS)
def test_map_label_golden(spec, label):
    assert map_label(from_map_spec(spec)) == label


def test_declared_variant_needs_no_registry_edit():
    try:

        @dataclass(frozen=True)
        class ShiftAfter(TorusLift, spec="test_shift_after"):
            """base, then a shift by (t, t)."""

            base: TorusLift
            t: float = 0.25

            def _apply(self, x, y, op):
                x, y = self.base._apply(x, y, op)
                return x + self.t, y + self.t

        spec = {"map": "test_shift_after", "params": {"base": {"map": "lm"}}}
        lift = from_map_spec(spec)
        assert lift == ShiftAfter(lm_map())
        assert map_spec(lift) == {"map": "test_shift_after", "params": {"base": map_spec(lm_map()), "t": 0.25}}
        assert from_map_spec(map_spec(lift)) == lift
        assert map_label(lift) == f"test_shift_after(base={_LM_SPEC},t=0.25)"
        assert map_defaults("test_shift_after") == {"base": "<required>", "t": 0.25}
        u, w = torus_step(lift, np.array([[0.25, 0.0]]))  # lm: (1.25, 0.5), then + 0.25
        assert np.array_equal(u, [[0.5, 0.75]]) and np.array_equal(w, [[1, 0]])
        with pytest.raises(ValueError, match="'s'"):
            from_map_spec({"map": "test_shift_after", "params": {"base": {"map": "lm"}, "s": 1}})
    finally:
        BUILTIN_MAPS.pop("test_shift_after", None)
    assert "test_shift_after" not in BUILTIN_MAPS


def test_readme_variant_example_runs_as_written():
    """The README's `DiagonalShift` extension example, run with `rs` bound
    to rotaset, declares a map that the registry serves unedited."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    [example] = [b for b in re.findall(r"```python\n(.*?)```", readme, re.S) if "class DiagonalShift" in b]
    namespace = {"rs": rotaset, "__name__": "readme_example"}
    try:
        exec(example, namespace)
        lift = from_map_spec({"map": "diagonal_shift", "params": {"t": 0.5}})
        assert lift == namespace["DiagonalShift"](0.5)
        assert map_label(lift) == "diagonal_shift(t=0.5)"
        u, w = torus_step(lift, np.array([[0.25, 0.75]]))
        assert np.array_equal(u, [[0.75, 0.25]]) and np.array_equal(w, [[0, 1]])
    finally:
        BUILTIN_MAPS.pop("diagonal_shift", None)
    assert "diagonal_shift" not in BUILTIN_MAPS


def test_spec_name_is_declared_once():
    with pytest.raises(ValueError, match="already registered"):

        class Twice(TorusLift, spec="translation"):
            pass

    assert BUILTIN_MAPS["translation"] is Translation


def test_builtin_iterate_without_params_is_a_value_error():
    with pytest.raises(ValueError, match="'base'"):
        builtin_map("iterate")


def test_map_defaults_come_from_declarations():
    assert map_defaults("translation") == {"v": "<required>"}
    assert map_defaults("rotation") == {"alpha": 0.0, "beta": 0.0}
    assert map_defaults("compose") == {"maps": "<required>"}
    assert map_defaults("localized_shear") == {
        "center": (0.5, 0.5), "radius": 0.25, "amplitude": 1.0, "axis": "vertical"
    }
    assert map_defaults("horseshoe_disk") == {"center": (0.5, 0.5), "radius": 0.25, "amplitude": 6.0}
    assert map_defaults("lm") == {}


@pytest.mark.parametrize(
    "spec,message",
    [
        ({"map": "lm", "params": {"amplitude": 3}}, "'amplitude'"),
        ({"map": "rotation", "params": {"radius": 0.1}}, "'radius'"),
        ({"map": "vertical_tent_shear", "params": {"amplitud": 2}}, "'amplitud'"),
        ({"map": "iterate", "params": {"base": {"map": "lm"}, "k": 2.5}}, "k must be an integer"),
        ({"map": "iterate", "params": {"base": {"map": "lm"}, "k": True}}, "k must be a number"),
        ({"map": "translation", "params": {"v": [0.1, 0.2, 0.9]}}, "v must be a pair"),
        ({"map": "localized_shear", "params": {"center": [0.1, 0.2, 0.9]}}, "center must be a pair"),
        ({"map": "vertical_tent_shear", "params": {"amplitude": True}}, "amplitude must be a number"),
        ({"map": "localized_shear", "params": {"radius": "0.1"}}, "radius must be a number"),
        ({"map": "compose", "params": {"maps": 5}}, "maps must be a list"),
        ({"map": ["lm"]}, "unknown map"),
        ({"map": "iterate", "params": {"base": {"map": "lm"}, "k": 1e20}}, "under 2\\*\\*63"),
        ({"map": "iterate", "params": {"base": {"map": "lm"}, "k": 10_001}}, "iterate count"),
        ({"map": "integer_translate", "params": {"base": {"map": "lm"}, "v": [1e20, 0]}}, "under 2\\*\\*63"),
        ({"map": "integer_translate", "params": {"base": {"map": "lm"}, "v": [0, -(2**63)]}}, "under 2\\*\\*63"),
        # a step by these would have a winding past int64
        ({"map": "translation", "params": {"v": [1e300, 0.0]}}, "v must be of magnitude under 2\\*\\*63"),
        ({"map": "rotation", "params": {"beta": -(2**63)}}, "v must be of magnitude under 2\\*\\*63"),
        ({"map": "vertical_tent_shear", "params": {"amplitude": 2.0**63}}, "amplitude must be of magnitude"),
        ({"map": "horizontal_tent_shear", "params": {"amplitude": -1e19}}, "amplitude must be of magnitude"),
    ],
)
def test_bad_spec_parameters_are_value_errors(spec, message):
    with pytest.raises(ValueError, match=message):
        from_map_spec(spec)


def test_integral_parameters_accept_integral_floats():
    lift = from_map_spec({"map": "iterate", "params": {"base": {"map": "lm"}, "k": 2.0}})
    assert lift.k == 2 and type(lift.k) is int
    assert VerticalTentShear(2).amplitude == 2 and type(VerticalTentShear(2).amplitude) is int


def test_localized_shear_substep_cap():
    radius = 0.25
    at_cap = LocalizedShear(amplitude=800.0, radius=radius)
    assert at_cap.substeps <= _MAX_SUBSTEPS
    with pytest.raises(ValueError, match="substep count overflows the cap"):
        LocalizedShear(amplitude=1e9, radius=radius)

import json
import subprocess
import sys

import pytest

from .conftest import cli_env


def run_cli(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "rotaset", *args],
        cwd=cwd,
        env=cli_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_maps_list(tmp_path):
    r = run_cli(["maps-list"], tmp_path)
    assert r.returncode == 0, r.stderr
    names = {line.split()[0] for line in r.stdout.splitlines()}
    assert {"lm", "identity", "rotation", "horseshoe_disk", "compose"} <= names


def test_rotset_lm_small(tmp_path):
    r = run_cli(
        ["rotset", "--map", "lm", "--grid", "24", "--horizons", "100,200", "--svg", "--csv"],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    assert "interior=true" in r.stdout
    art = json.loads((tmp_path / "rotset.json").read_text())
    assert art["config"]["grid"] == [24, 24]
    assert art["area"] == 1.0
    assert art["interior_nonempty"] is True
    assert (tmp_path / "rotset.svg").exists()
    assert (tmp_path / "rotset_samples.csv").exists()


def test_rotset_rotation_point(tmp_path):
    r = run_cli(
        [
            "rotset",
            "--map",
            "rotation",
            "--alpha",
            "0.41421356",
            "--beta",
            "0.73205081",
            "--grid",
            "8",
            "--horizons",
            "100,400",
        ],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    assert "interior=false" in r.stdout
    art = json.loads((tmp_path / "rotset.json").read_text())
    assert art["hull_diameter"] <= 1e-12


def test_unknown_map_exits_2(tmp_path):
    r = run_cli(["rotset", "--map", "wat"], tmp_path)
    assert r.returncode == 2, r.stderr
    assert "unknown map" in r.stderr


def test_missing_map_exits_2(tmp_path):
    r = run_cli(["rotset", "--grid", "8"], tmp_path)
    assert r.returncode == 2, r.stderr


def test_bad_map_json_exits_2(tmp_path):
    r = run_cli(["rotset", "--map-json", '{"map": "iterate", "params": {}}'], tmp_path)
    assert r.returncode == 2, r.stderr


@pytest.mark.parametrize("name", ["vertical_tent_shear", "horizontal_tent_shear"])
@pytest.mark.parametrize("amplitude", ["Infinity", "NaN"])
def test_nonfinite_tent_amplitude_exits_2(tmp_path, name, amplitude):
    spec = f'{{"map": "{name}", "params": {{"amplitude": {amplitude}}}}}'
    r = run_cli(["entropy", "--map-json", spec, "--resolution", "40", "--lengths", "2..3"], tmp_path)
    assert r.returncode == 2, r.stderr
    assert "amplitude must be finite" in r.stderr


def test_overflowing_localized_shear_amplitude_exits_2(tmp_path):
    spec = '{"map": "localized_shear", "params": {"amplitude": 1e308}}'
    r = run_cli(["rotset", "--map-json", spec, "--grid", "4", "--horizons", "1,2"], tmp_path)
    assert r.returncode == 2, r.stderr
    assert "substep count overflows" in r.stderr


def test_localized_shear_substep_cap_exits_2(tmp_path):
    # finite substep count (1.2e10), far above the cap: rejected before any step
    spec = '{"map": "localized_shear", "params": {"amplitude": 1e9}}'
    r = run_cli(["rotset", "--map-json", spec, "--grid", "4", "--horizons", "1,2"], tmp_path)
    assert r.returncode == 2, r.stderr
    assert "substep count overflows the cap" in r.stderr


@pytest.mark.parametrize(
    "args, value",
    [
        (["--map", "rotation", "--alpha", "1e300"], "1e+300"),
        (["--map-json", '{"map": "translation", "params": {"v": [0.5, -9223372036854775808]}}'], "-9223372036854775808"),
        (["--map-json", '{"map": "horizontal_tent_shear", "params": {"amplitude": 9.3e18}}'], "9.3e+18"),
    ],
    ids=["rotation-1e300", "translation-minus-2**63", "tent-amplitude-9.3e18"],
)
def test_step_winding_past_int64_exits_2(tmp_path, args, value):
    r = run_cli(["rotset", *args, "--grid", "4", "--horizons", "1,2"], tmp_path)
    assert r.returncode == 2, r.stderr
    assert f"must be of magnitude under 2**63, got {value}" in r.stderr
    assert not (tmp_path / "rotset.json").exists()


@pytest.mark.parametrize(
    "params",
    [
        '{"base": {"map": "lm"}, "v": [1e20, 0]}',
        '{"base": {"map": "lm"}, "k": 1e20}',
        '{"base": {"map": "lm"}, "k": 1e9}',
    ],
    ids=["translate-1e20", "iterate-1e20", "iterate-1e9"],
)
def test_integral_spec_value_a_step_cannot_hold_exits_2(tmp_path, params):
    name = "integer_translate" if '"v"' in params else "iterate"
    spec = f'{{"map": "{name}", "params": {params}}}'
    r = run_cli(["rotset", "--map-json", spec, "--grid", "4", "--horizons", "1,2"], tmp_path)
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr
    assert not (tmp_path / "rotset.json").exists()


@pytest.mark.parametrize(
    "args",
    [
        ["periodic", "--map", "lm", "--period", "1", "--seeds", "0"],
        ["verify", "--map", "lm", "--property", "sandwich", "--grid", "8", "--horizons", "20,40", "--seeds", "0"],
    ],
    ids=["periodic", "verify-sandwich"],
)
def test_empty_seed_grid_exits_2(tmp_path, args):
    r = run_cli(args, tmp_path)
    assert r.returncode == 2, r.stderr
    assert "seed grid must be nonempty" in r.stderr


@pytest.mark.parametrize("offset", ["nan", "inf"])
def test_nonfinite_rotset_offset_exits_2(tmp_path, offset):
    r = run_cli(["rotset", "--map", "lm", "--grid", "4", "--horizons", "1,2", "--offset", offset], tmp_path)
    assert r.returncode == 2, r.stderr
    assert "offset must be finite" in r.stderr
    assert not (tmp_path / "rotset.json").exists()


@pytest.mark.parametrize("threshold", ["nan", "inf", "0", "-1"])
def test_bad_rotset_threshold_exits_2_before_the_run(tmp_path, threshold):
    # an empty grid fails inside the run, so this message shows that the
    # threshold was checked first
    r = run_cli(["rotset", "--map", "lm", "--grid", "0", f"--threshold={threshold}"], tmp_path)
    assert r.returncode == 2, r.stderr
    assert "threshold must be positive and finite" in r.stderr
    assert not (tmp_path / "rotset.json").exists()


def test_undeclared_map_flag_exits_2(tmp_path):
    r = run_cli(["rotset", "--map", "lm", "--amplitude", "3", "--grid", "4", "--horizons", "1,2"], tmp_path)
    assert r.returncode == 2, r.stderr
    assert "'amplitude'" in r.stderr
    assert not (tmp_path / "rotset.json").exists()


def test_map_json_parameter_typo_exits_2(tmp_path):
    spec = '{"map": "vertical_tent_shear", "params": {"amplitud": 2}}'
    r = run_cli(["entropy", "--map-json", spec, "--resolution", "40", "--lengths", "2..3"], tmp_path)
    assert r.returncode == 2, r.stderr
    assert "'amplitud'" in r.stderr
    assert not (tmp_path / "entropy.json").exists()


def test_map_json_inline_and_file(tmp_path):
    spec = {"map": "iterate", "params": {"base": {"map": "lm"}, "k": 2}}
    r = run_cli(
        ["rotset", "--map-json", json.dumps(spec), "--grid", "8", "--horizons", "50,100"],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    r2 = run_cli(
        ["rotset", "--map-json", str(spec_file), "--grid", "8", "--horizons", "50,100", "--out", "o2"],
        tmp_path,
    )
    assert r2.returncode == 0, r2.stderr
    a = json.loads((tmp_path / "rotset.json").read_text())
    b = json.loads((tmp_path / "o2" / "rotset.json").read_text())
    assert a["hull"] == b["hull"]


def test_entropy_identity(tmp_path):
    r = run_cli(
        ["entropy", "--map", "identity", "--eps", "0.1,0.05", "--lengths", "2..6", "--resolution", "128"],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    art = json.loads((tmp_path / "entropy.json").read_text())
    assert art["estimate"] <= 0.01
    assert art["config"]["lengths"] == [2, 3, 4, 5, 6]
    csv_lines = (tmp_path / "entropy.csv").read_text().splitlines()
    assert csv_lines[0] == "epsilon,n,count"
    assert len(csv_lines) == 1 + 2 * 5


def test_periodic_lm_with_certificate(tmp_path):
    r = run_cli(
        ["periodic", "--map", "lm", "--period", "1", "--box", "2", "--seeds", "32", "--k2", "2,4", "--k3", "6,2"],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    assert "orbits=4" in r.stdout
    assert "determinant=-15" in r.stdout
    art = json.loads((tmp_path / "periodic.json").read_text())
    assert len(art["orbits"]) == 4
    vecs = {tuple(o["rotation_vector"]["num"]) for o in art["orbits"]}
    assert vecs == {(0, 0), (1, 0), (0, 1), (1, 1)}
    assert all(o["rotation_vector"]["den"] == 1 for o in art["orbits"])
    assert art["parity_certificate"]["determinant"] == -15
    assert len(art["realized_hull"]["vertices"]) == 4


@pytest.mark.parametrize(
    "pair, message",
    [
        (["--k2", "2,4"], "--k3 is missing"),
        (["--k3", "2,4"], "--k2 is missing"),
        (["--k2", "1,0", "--k3", "0,0"], "even components"),
    ],
    ids=["no-k3", "no-k2", "odd"],
)
def test_bad_parity_pair_exits_2_before_the_search(tmp_path, pair, message):
    # an empty seed grid fails inside the search, so this message shows
    # that the pair was checked first
    r = run_cli(["periodic", "--map", "lm", "--period", "1", "--seeds", "0", *pair], tmp_path)
    assert r.returncode == 2, r.stderr
    assert message in r.stderr
    assert not (tmp_path / "periodic.json").exists()


def test_periodic_odd_certificate_input_exits_2(tmp_path):
    r = run_cli(
        ["periodic", "--map", "identity", "--period", "1", "--seeds", "8", "--k2", "1,0", "--k3", "0,0"],
        tmp_path,
    )
    assert r.returncode == 2, r.stderr


def test_cover_rotation(tmp_path):
    r = run_cli(
        [
            "cover",
            "--map",
            "rotation",
            "--alpha",
            "0.41421356",
            "--beta",
            "0.73205081",
            "--factors",
            "2x2",
            "--iters",
            "120000",
            "--resolution",
            "16",
            "--pgm",
        ],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    assert "classification=transitive-like" in r.stdout
    art = json.loads((tmp_path / "cover.json").read_text())
    assert art["occupancy"] >= 0.99
    assert (tmp_path / "cover.pgm").read_text().startswith("P2")


def test_cover_power_flag(tmp_path):
    r = run_cli(
        ["cover", "--map", "identity", "--factors", "1x1", "--iters", "300", "--resolution", "8", "--power", "3"],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    art = json.loads((tmp_path / "cover.json").read_text())
    assert art["config"]["power"] == 3
    assert art["occupancy"] == 1 / 64


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--power", "0", "iterate count"),
        ("--power", "-1", "iterate count"),
        ("--resolution", "0", "cell resolution"),
        ("--resolution", "-2", "cell resolution"),
    ],
    ids=["power-0", "power-minus-1", "resolution-0", "resolution-minus-2"],
)
def test_bad_cover_power_or_resolution_exits_2(tmp_path, flag, value, message):
    r = run_cli(
        ["cover", "--map", "identity", "--factors", "1x1", "--iters", "300", "--resolution", "8", flag, value],
        tmp_path,
    )
    assert r.returncode == 2, r.stderr
    assert message in r.stderr
    assert "Traceback" not in r.stderr
    assert not (tmp_path / "cover.json").exists()


def test_nonfinite_cover_start_exits_2(tmp_path):
    r = run_cli(["cover", "--map", "lm", "--starts", "nan,0.2", "--iters", "5000", "--resolution", "8"], tmp_path)
    assert r.returncode == 2, r.stderr
    assert "finite" in r.stderr
    assert "Traceback" not in r.stderr
    assert not (tmp_path / "cover.json").exists()


def test_verify_translation_ok(tmp_path):
    r = run_cli(
        ["verify", "--map", "lm", "--property", "translation", "--v", "1,0", "--grid", "12", "--horizons", "60,120"],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    assert "-> ok" in r.stdout


def test_verify_iterate_scaling_ok(tmp_path):
    r = run_cli(
        ["verify", "--map", "lm", "--property", "iterate-scaling", "--k", "2", "--grid", "24", "--horizons", "100,400"],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr


def test_verify_parity(tmp_path):
    r = run_cli(["verify", "--property", "parity", "--k2", "2,4", "--k3", "6,2"], tmp_path)
    assert r.returncode == 0, r.stderr
    assert "determinant=-15" in r.stdout


def test_verify_sandwich_ok(tmp_path):
    r = run_cli(
        ["verify", "--map", "lm", "--property", "sandwich", "--grid", "24", "--horizons", "100,200", "--seeds", "24"],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr


def test_verify_sandwich_without_orbits_exits_1(tmp_path):
    r = run_cli(
        [
            "verify",
            "--map",
            "rotation",
            "--alpha",
            "0.41421356",
            "--beta",
            "0.73205081",
            "--property",
            "sandwich",
            "--grid",
            "8",
            "--horizons",
            "60,120",
            "--seeds",
            "8",
        ],
        tmp_path,
    )
    assert r.returncode == 1, r.stderr
    assert "no periodic orbits" in r.stdout


@pytest.mark.parametrize(
    "flag, value, message",
    [("--q", "0", "period"), ("--box", "-1", "displacement box"), ("--seeds", "0", "seed grid")],
    ids=["q", "box", "seeds"],
)
def test_bad_sandwich_search_exits_2_before_the_estimate(tmp_path, flag, value, message):
    # an empty grid fails inside the estimate, so this message shows that
    # the search was checked first
    r = run_cli(["verify", "--map", "lm", "--property", "sandwich", "--grid", "0", flag, value], tmp_path)
    assert r.returncode == 2, r.stderr
    assert message in r.stderr
    assert "error: grid must be nonempty" not in r.stderr


def test_verify_unknown_property_exits_2(tmp_path):
    r = run_cli(["verify", "--map", "lm", "--property", "nope"], tmp_path)
    assert r.returncode == 2, r.stderr


def test_config_file_overrides_flags(tmp_path):
    (tmp_path / "cfg.json").write_text(json.dumps({"grid": "8", "horizons": "50,100"}))
    r = run_cli(
        ["rotset", "--map", "lm", "--grid", "64", "--horizons", "100,2000", "--config", "cfg.json"],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    art = json.loads((tmp_path / "rotset.json").read_text())
    assert art["config"]["grid"] == [8, 8]
    assert art["config"]["horizons"] == [50, 100]


@pytest.mark.parametrize(
    "args,artifacts",
    [
        (
            ["rotset", "--map", "lm", "--grid", "20", "--horizons", "60,120", "--csv", "--svg"],
            ["rotset.json", "rotset_samples.csv", "rotset.svg"],
        ),
        (
            ["entropy", "--map", "lm", "--eps", "0.1", "--lengths", "2..5", "--resolution", "64"],
            ["entropy.json", "entropy.csv"],
        ),
        (
            ["periodic", "--map", "lm", "--period", "1", "--box", "1", "--seeds", "16"],
            ["periodic.json"],
        ),
        (
            ["cover", "--map", "rotation", "--alpha", "0.41421356", "--beta", "0.3", "--factors", "2x1", "--iters", "3000", "--resolution", "8", "--pgm"],
            ["cover.json", "cover.pgm"],
        ),
    ],
)
def test_artifacts_reproducible_across_workers(tmp_path, args, artifacts):
    r1 = run_cli([*args, "--workers", "1", "--out", "w1"], tmp_path)
    r4 = run_cli([*args, "--workers", "4", "--out", "w4"], tmp_path)
    assert r1.returncode == 0, r1.stderr
    assert r4.returncode == 0, r4.stderr
    for name in artifacts:
        b1 = (tmp_path / "w1" / name).read_bytes()
        b4 = (tmp_path / "w4" / name).read_bytes()
        assert b1 == b4, f"{name} differs between worker counts"


@pytest.mark.parametrize("key, text, value", [("threshold", "0.1", 0.1), ("offset", "0.5", 0.5)])
def test_config_values_take_their_flag_type(tmp_path, key, text, value):
    (tmp_path / "cfg.json").write_text(json.dumps({key: text}))
    r = run_cli(["rotset", "--map", "lm", "--grid", "4", "--horizons", "1,2", "--config", "cfg.json"], tmp_path)
    assert r.returncode == 0, r.stderr
    art = json.loads((tmp_path / "rotset.json").read_text())
    assert art["config"][key] == value and isinstance(art["config"][key], float)


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"threshold": "abc"}, "threshold"),
        ({"offset": [0.5]}, "offset"),
        ({"workers": 2.5}, "workers"),
        ({"svg": "false"}, "svg"),
        ({"no_such_flag": 1}, "no_such_flag"),
        ({"center": [0.5, 0.5]}, "center"),
        ({"out": 5}, "out"),
    ],
)
def test_config_value_that_does_not_fit_exits_2(tmp_path, overrides, key):
    (tmp_path / "cfg.json").write_text(json.dumps(overrides))
    r = run_cli(["rotset", "--map", "lm", "--grid", "4", "--horizons", "1,2", "--config", "cfg.json"], tmp_path)
    assert r.returncode == 2, r.stderr
    assert f"--config key {key!r}" in r.stderr
    assert "Traceback" not in r.stderr


# Runs of one process in turn: artifacts, a --config override, a --config
# key that fits no flag, an unknown map and an argparse error (all exit 2),
# then artifacts again. The parser is built once per process and reused.
ONE_PROCESS_RUNS = [
    ["rotset", "--map", "lm", "--grid", "8", "--horizons", "10,20", "--csv"],
    ["rotset", "--map", "lm", "--grid", "64", "--horizons", "100,2000", "--config", "cfg.json"],
    ["rotset", "--map", "lm", "--grid", "4", "--horizons", "1,2", "--config", "bad.json"],
    ["rotset", "--map", "wat"],
    ["cover", "--map", "lm", "--iters"],
    ["cover", "--map", "rotation", "--alpha", "0.41421356", "--beta", "0.3", "--factors", "2x1",
     "--iters", "3000", "--resolution", "8", "--pgm"],
    ["periodic", "--map", "lm", "--period", "1", "--box", "1", "--seeds", "4"],
    ["rotset", "--map", "lm", "--grid", "64", "--horizons", "100,2000", "--config", "cfg.json", "--svg"],
]


def _outputs(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())} if out_dir.is_dir() else {}


def test_one_process_runs_commands_as_separate_processes_do(tmp_path, monkeypatch, capsys):
    from rotaset import cli

    (tmp_path / "cfg.json").write_text(json.dumps({"grid": "8", "horizons": "50,100"}))
    (tmp_path / "bad.json").write_text(json.dumps({"no_such_flag": 1}))
    monkeypatch.chdir(tmp_path)
    codes = []
    for i, args in enumerate(ONE_PROCESS_RUNS):
        try:
            codes.append(cli.main([*args, "--out", f"in{i}"]))
        except SystemExit as exc:  # argparse's own exit
            codes.append(exc.code)
        out, err = capsys.readouterr()
        r = run_cli([*args, "--out", f"sub{i}"], tmp_path)
        assert (codes[-1], out, err) == (r.returncode, r.stdout, r.stderr), args
        assert _outputs(tmp_path / f"in{i}") == _outputs(tmp_path / f"sub{i}"), args
    assert codes == [0, 0, 2, 2, 2, 0, 0, 0]
    assert cli._build_parser() is cli._build_parser()

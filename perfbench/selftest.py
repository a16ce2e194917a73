#!/usr/bin/env python3
"""Self-test of the benchmark at tiny job sizes (about 30 s).

    python3 perfbench/selftest.py

Checks that the same seed gives the same argv list, that every artifact
check passes on a real artifact and rejects a deliberately corrupted copy,
that both kinds of run emit exactly the metrics BENCHMARK.json lists, and
that the benchmark refuses to run without the program's sources.
"""
from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import checks
import run
import workloads

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _first(workload, seed, n=12):
    return [job.argv for job in itertools.islice(workloads.jobs(workload, seed, tiny=True), n)]


def test_seeded_argv():
    for name in workloads.ROUNDS:
        assert _first(name, 7) == _first(name, 7), f"{name}: seed 7 gave two argv lists"
        assert _first(name, 7) != _first(name, 8), f"{name}: seeds 7 and 8 gave one argv list"
        kinds = {job.kind for job in itertools.islice(workloads.jobs(name, 7), 12)}
        assert kinds <= set(checks.CHECKS), f"{name}: job kind without a check"


def _edit_json(path: Path, edit):
    art = json.loads(path.read_text())
    edit(art)
    path.write_text(json.dumps(art))


def _set(key, value):
    def edit(art):
        art[key] = value
    return edit


# One job kind -> corruptions, each of which must make its check fail.
CORRUPTIONS = {
    "rotset": [
        ("vertex outside [0,1]²+v", "rotset.json", lambda a: a["hull"]["vertices"][0].__setitem__(0, a["hull"]["vertices"][0][0] - 0.01)),
        ("offset-0 hull short of a corner", "rotset.json", lambda a: a["hull"]["vertices"][-1].__setitem__(1, a["hull"]["vertices"][-1][1] - 0.01)),
    ],
    "entropy-tent": [
        ("estimate below the floor", "entropy.json", _set("estimate", 0.1)),
        ("count falls with n", "entropy.json", lambda a: a["counts"][0].__setitem__(-1, a["counts"][0][0] - 1)),
    ],
    "entropy-horseshoe": [
        ("count falls with n", "entropy.json", lambda a: a["counts"][0].__setitem__(-1, a["counts"][0][-2] - 1)),
    ],
    "entropy-rotation": [
        ("table not constant", "entropy.json", lambda a: a["counts"][0].__setitem__(-1, a["counts"][0][-1] + 1)),
        ("estimate above the ceiling", "entropy.json", _set("estimate", 0.02)),
    ],
    "periodic-lm-q1": [
        ("a corner orbit missing", "periodic.json", lambda a: a["orbits"].pop()),
        ("residual too large", "periodic.json", lambda a: a["orbits"][0].__setitem__("residual", 1e-6)),
    ],
    "periodic-lm-q2": [
        ("vector outside [0,1]²", "periodic.json", lambda a: a["orbits"][0]["rotation_vector"].__setitem__("num", [3, 0])),
    ],
    "periodic-continuum": [
        ("continuum not flagged", "periodic.json", _set("non_isolated", False)),
    ],
    "cover": [
        ("occupancy below 0.99", "cover.json", _set("occupancy", 0.9)),
    ],
}


def test_checks_reject_corruption():
    sys.path.insert(0, str(run.SRC))
    import rotaset.cli

    seen = set()
    scratch = run.OUT_ROOT / "selftest"
    scratch.mkdir(parents=True, exist_ok=True)
    for name in workloads.ROUNDS:
        for job in itertools.islice(workloads.jobs(name, 3, tiny=True), len(workloads.ROUNDS[name])):
            if job.kind == "rotset" and job.expect["offset"] != 0.0:
                continue  # the offset-0 job takes both rotset corruptions
            if job.kind in seen:
                continue
            seen.add(job.kind)
            with tempfile.TemporaryDirectory(dir=scratch) as tmp:
                good = Path(tmp) / "good"
                rc, _, err = run._run_job(rotaset.cli.main, [*job.argv, "--out", str(good)])
                assert rc == 0, f"{job.kind}: exit {rc}: {err}"
                checks.check(job, good)
                for label, fname, edit in CORRUPTIONS[job.kind]:
                    bad = Path(tmp) / "bad"
                    shutil.copytree(good, bad)
                    _edit_json(bad / fname, edit)
                    try:
                        checks.check(job, bad)
                    except checks.CheckError:
                        pass
                    else:
                        raise AssertionError(f"{job.kind}: check accepted '{label}'")
                    shutil.rmtree(bad)
                if job.kind.startswith("entropy"):
                    bad = Path(tmp) / "bad"
                    shutil.copytree(good, bad)
                    lines = (bad / "entropy.csv").read_text().splitlines()
                    (bad / "entropy.csv").write_text("\n".join(lines[:-1]) + "\n")
                    try:
                        checks.check(job, bad)
                    except checks.CheckError:
                        pass
                    else:
                        raise AssertionError(f"{job.kind}: check accepted a truncated entropy.csv")
    assert seen == set(CORRUPTIONS), f"kinds without a corruption test: {set(CORRUPTIONS) - seen}"


def _bench(args, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def test_metric_names():
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in BENCH[key]}
        for name in workloads.ROUNDS:
            proc = _bench(["--workload", name, "--seed", "5", "--seconds", "0.1", "--trace", str(trace), "--tiny"])
            assert proc.returncode == 0, f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, proc.stdout
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, f"{name} trace={trace}: metrics differ from BENCHMARK.json: {set(got) ^ set(want)}"


def test_refuses_without_sources():
    scratch = run.OUT_ROOT / "selftest"
    scratch.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = _bench(["--workload", "cover-periodic", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp)
        assert proc.returncode != 0, "ran without the program's sources"
        assert not proc.stdout.strip(), f"printed a result without sources: {proc.stdout}"


def test_tail_and_round():
    assert run._tail(list(range(1, 21))) == (10.5, 50, 10)
    assert run._tail([float(i) for i in range(1, 101)]) == (90.0, 90, 10)
    assert run._round_s([1.0, 3.0, 1.0, 5.0, 1.0], 2) == 1.0 + 4.0


def main() -> int:
    tests = [test_seeded_argv, test_tail_and_round, test_checks_reject_corruption,
             test_refuses_without_sources, test_metric_names]
    failed = 0
    for test in tests:
        try:
            test()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {test.__name__}: {exc}")
        else:
            print(f"ok   {test.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

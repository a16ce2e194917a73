"""Compare two source trees of rotaset command by command.

Runs a fixed set of argvs through ``python -m rotaset`` once per tree,
with PYTHONPATH set to that tree's source directory, and prints every
difference between the trees in exit code, stdout or a file written to
``--out``. The set is the acceptance-8 commands, a few `verify`
properties, iterate maps and an integer translate, rotset grids that are
walked and stepped (generic ones across block edges, and runs long
enough to compile the array kernel, one of which the kernel's winding
bound sends back to the interpreted loop), a sandwich check whose short
Newton runs follow a compiling run on the same lift, cover orbits on
both sides of the orbit engine's float/array crossover, compiled and
interpreted on floats, spanning scans at resolutions above the scan's
chunk of 128 candidates, and one round of each benchmark workload
(perfbench/workloads.py, seed 1). Each run compiles or not by its own
size alone, whatever an earlier run on the same lift compiled.

Usage: python3 scripts/compare_artifacts.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are directories holding the `rotaset` package,
such as a checkout's src/. Exits 0 when the trees agree on every run, 1
when any run differs.
"""
import argparse
import difflib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True  # leave perfbench/ as it is
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

DIFF_LINES = 40  # most diff lines printed per file
FLOAT_STARTS = 10  # rotaset.maps._FLOAT_STARTS
MORE_THAN_FLOAT_STARTS = FLOAT_STARTS + 1
ITERATE_LM = json.dumps({"map": "iterate", "params": {"base": {"map": "lm"}, "k": 2}})
TRANSLATE_LM = json.dumps({"map": "integer_translate", "params": {"base": {"map": "lm"}, "v": [0, -3]}})
TRANSLATE_ROTATION = json.dumps({"map": "integer_translate", "params": {
    "base": {"map": "rotation", "params": {"alpha": 0.41421356, "beta": 0.73205081}}, "v": [1, -2],
}})
# each step adds windings near 2**62: their sums wrap past int64 by step 2
TRANSLATE_LM_NEAR_INT64 = json.dumps({"map": "integer_translate", "params": {
    "base": {"map": "lm"}, "v": [2**62, -(2**62) + 1],
}})
COMPOSE_WRAPS = json.dumps({"map": "compose", "params": {"maps": [{"map": "lm"}, {
    "map": "integer_translate", "params": {
        "base": {"map": "rotation", "params": {"alpha": 0.41421356, "beta": 0.3}}, "v": [2**62, -(2**62) + 1],
    },
}]}})


def _grid_starts(count: int, width: float) -> str:
    """`count` spread --starts in [0, width) x [0, 1)."""
    return ";".join(f"{(0.17 * i + 0.05) % width!r},{(0.31 * i + 0.02) % 1!r}" for i in range(count))


FIXED = [
    # acceptance 8
    ["rotset", "--map", "lm", "--grid", "20", "--horizons", "60,120", "--csv", "--svg"],
    ["entropy", "--map", "lm", "--eps", "0.1", "--lengths", "2..5", "--resolution", "64"],
    ["periodic", "--map", "lm", "--period", "1", "--box", "1", "--seeds", "16"],
    ["cover", "--map", "rotation", "--alpha", "0.41421356", "--beta", "0.73205081",
     "--factors", "2x2", "--iters", "5000", "--resolution", "8", "--pgm"],
    # verify properties and iterate maps
    ["verify", "--map", "lm", "--property", "translation", "--grid", "32", "--horizons", "50,100"],
    ["verify", "--map", "lm", "--property", "iterate-scaling", "--grid", "32", "--horizons", "50,100"],
    ["verify", "--map", "lm", "--property", "sandwich", "--grid", "32", "--horizons", "50,100", "--seeds", "16"],
    ["rotset", "--map-json", ITERATE_LM, "--grid", "32", "--horizons", "50,100", "--csv"],
    # a zero winding component, per-sample CSV and per-horizon hulls of a generic cloud
    ["rotset", "--map-json", TRANSLATE_LM, "--offset", "0.37", "--csv", "--svg"],
    ["entropy", "--map-json", ITERATE_LM, "--eps", "0.1", "--lengths", "2..4", "--resolution", "48"],
    ["cover", "--map", "rotation", "--alpha", "0.41421356", "--beta", "0.3", "--factors", "2x1",
     "--iters", "3000", "--resolution", "8", "--power", "2"],
    # spanning scan in two groups of lengths (64 and 6)
    ["entropy", "--map", "lm", "--eps", "0.2", "--lengths", "1..70", "--resolution", "32"],
    # lower-period filter over two proper divisors, then the per-target path
    ["periodic", "--map", "lm", "--period", "4", "--box", "1", "--seeds", "16"],
    ["periodic", "--map", "lm", "--period", "3", "--box", "1", "--seeds", "5"],
    # a closed grid, walked by index doubling; a grid that is not closed,
    # stepped; the identity, which fixes every start
    ["rotset", "--map", "lm", "--csv", "--svg"],
    ["rotset", "--map", "lm", "--grid", "31", "--horizons", "100,500"],
    ["rotset", "--map", "identity", "--grid", "16"],
    # generic starts, stepped in blocks of maps._BLOCK_POINTS = 8192 starts
    # across a block edge: the default grid's two blocks of 64 whole rows;
    # blocks that end mid-row, 8192 starts of a 100² grid, then 1808 (and
    # entropy at resolution 96: 8192, then 1024); a single row of 9000
    # starts, longer than a block
    ["rotset", "--map", "lm", "--offset", "0.37"],
    ["rotset", "--map-json", TRANSLATE_LM, "--grid", "100", "--offset", "0.686"],
    ["entropy", "--map", "lm", "--resolution", "96"],
    ["rotset", "--map", "lm", "--grid", "1x9000", "--offset", "0.37", "--horizons", "1,2"],
    # spanning scans above the scan's chunk of 128 candidates: at resolution
    # 136, not a power of two, chunks end mid-row (and the orbit table runs
    # in blocks of 8192, 8192 and 2112 starts); at 256 a chunk lies inside
    # one grid row
    ["entropy", "--map", "lm", "--resolution", "136"],
    ["entropy", "--map", "lm", "--resolution", "256", "--lengths", "2..4"],
    # generic runs of maps._ARRAY_COMPILE_POINTS = 2**20 point-steps, which
    # trace the step: windings past the float64 bound, so interpreted with
    # int64 windings; and the 1950 operations of horseshoe_disk, compiled
    ["rotset", "--map-json", TRANSLATE_LM_NEAR_INT64, "--grid", "16", "--offset", "0.37",
     "--horizons", "100,4096"],
    ["rotset", "--map", "horseshoe_disk", "--grid", "64", "--offset", "0.37", "--horizons", "10,256"],
    # a stepped grid of 961 starts x 1100 steps, past 2**20, compiles the
    # array kernel; the Newton runs that follow on the same lift run
    # interpreted. Generic starts of lm average far inside its periodic
    # vectors at 1100 steps, so the check reads FAIL and exits 1
    ["verify", "--map", "lm", "--property", "sandwich", "--grid", "31", "--horizons", "100,1100", "--seeds", "16"],
    # cover orbits of a few starts step on Python floats; one start more
    # than maps._FLOAT_STARTS steps on arrays. A float run of at least
    # maps._ORBIT_CHUNK_POINTS point-steps runs the lift's step traced and
    # compiled (a leaf such as rotation, lm, an iterate, an integer
    # translate, a compose whose windings wrap past int64), and a shorter
    # one interprets it; one array step a chunk gives the windings.
    ["cover", "--map", "lm", "--iters", "20000", "--pgm"],
    ["cover", "--map", "lm", "--factors", "2x1", "--iters", "500", "--resolution", "8"],
    ["cover", "--map-json", ITERATE_LM, "--factors", "2x1", "--iters", "20000", "--resolution", "8"],
    ["cover", "--map-json", COMPOSE_WRAPS, "--iters", "20000", "--resolution", "8",
     "--starts", "0.3,0.7;1.6,0.2"],
    ["cover", "--map", "horseshoe_disk", "--iters", "2000", "--starts", "0.45,0.52", "--resolution", "8"],
    ["cover", "--map", "lm", "--power", "3", "--factors", "2x1", "--iters", "5000", "--resolution", "8",
     "--starts", "0.3,0.7;1.6,0.2"],
    ["cover", "--map", "lm", "--factors", "2x1", "--iters", "3000", "--resolution", "8",
     "--starts", _grid_starts(MORE_THAN_FLOAT_STARTS, 2.0)],
    ["cover", "--map", "rotation", "--alpha", "0.41421356", "--beta", "0.73205081", "--factors", "2x2",
     "--iters", "20000", "--resolution", "16", "--starts", _grid_starts(FLOAT_STARTS, 2.0)],
    ["cover", "--map-json", TRANSLATE_ROTATION, "--factors", "2x1", "--iters", "20000", "--resolution", "8",
     "--starts", "0.3,0.7;1.6,0.2"],
]


def _argvs() -> list:
    out = list(FIXED)
    for name, makers in workloads.ROUNDS.items():
        out += [job.argv for job, _ in zip(workloads.jobs(name, 1), makers)]
    return out


def _run(src: Path, argv: list, out: Path):
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "rotaset", *argv, "--out", str(out)],
        env=env, cwd=out.parent, capture_output=True, text=True, timeout=900,
    )
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}
    return proc.returncode, proc.stdout, files


def _diff(a: str, b: str, label: str) -> list:
    """A unified diff, at most DIFF_LINES long; JSON one key per line."""
    if label.endswith(".json"):
        a, b = (json.dumps(json.loads(t), indent=1, sort_keys=True) for t in (a, b))
    diff = list(difflib.unified_diff(a.splitlines(), b.splitlines(), f"parent/{label}", f"change/{label}", lineterm=""))
    more = [f"... {len(diff) - DIFF_LINES} more diff lines"] if len(diff) > DIFF_LINES else []
    return diff[:DIFF_LINES] + more


def compare(parent_src: Path, change_src: Path, argv: list) -> list:
    """Differences between the two trees on one argv, as printable lines."""
    with tempfile.TemporaryDirectory() as tmp:
        a = _run(parent_src, argv, Path(tmp) / "parent")
        b = _run(change_src, argv, Path(tmp) / "change")
    out = []
    if a[0] != b[0]:
        out.append(f"exit code {a[0]} -> {b[0]}")
    if a[1] != b[1]:
        out += _diff(a[1], b[1], "stdout")
    for name in sorted(set(a[2]) | set(b[2])):
        if name not in a[2] or name not in b[2]:
            out.append(f"{name}: only in {'change' if name in b[2] else 'parent'}")
        elif a[2][name] != b[2][name]:
            try:
                out += _diff(a[2][name].decode(), b[2][name].decode(), name)
            except UnicodeDecodeError:
                out.append(f"{name}: binary files differ")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_src", type=Path, help="source directory of the parent tree")
    ap.add_argument("change_src", type=Path, help="source directory of the changed tree")
    args = ap.parse_args()
    argvs = _argvs()
    differing = 0
    for argv in argvs:
        diff = compare(args.parent_src.resolve(), args.change_src.resolve(), argv)
        print(f"[{'DIFFERS' if diff else 'same'}] {' '.join(argv)}", flush=True)
        for line in diff:
            print(f"    {line}")
        differing += bool(diff)
    print(f"{differing} of {len(argvs)} runs differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())

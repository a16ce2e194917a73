#!/usr/bin/env python3
"""rotaset benchmark: closed-loop CLI jobs with end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload rotset-spanning --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55

One client in one process runs jobs back to back for --seconds: each job is
one in-process ``rotaset.cli.main(argv)`` call at the CLI's default worker
count, with argv generated from --seed (see workloads.py). Every job's
artifacts are checked (checks.py). ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs each job untraced and then traced, checks that
both wrote byte-identical artifacts, and prints the per-layer metrics
(tracing.py). The last line of stdout is one JSON object; the seed, every
argv and every job time are written to .bench_out/runs/ at exit.
"""
from __future__ import annotations

import argparse
import contextlib
import filecmp
import io
import json
import math
import os
import platform
import random
import resource
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from statistics import median

# stdlib only: numpy is first imported by the timed import of rotaset
import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"

SETUP_CHILD_IMPORTS = 4  # plus the benchmark process's own import
TAIL_BEYOND = 10
TAIL_PERCENTILES = (99, 95, 90)

_CHILD_IMPORT = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import rotaset, rotaset.cli\n"
    "print(time.perf_counter() - t)\n"
)


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.ROUNDS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny job sizes, for selftest.py")
    return ap.parse_args(argv)


def _import_rotaset():
    """Import rotaset and rotaset.cli from this checkout's src; timed."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import rotaset
    import rotaset.cli

    seconds = time.perf_counter() - t0
    where = Path(rotaset.__file__).resolve().parent
    if where != SRC / "rotaset":
        raise SystemExit(f"error: imported rotaset from {where}, not from {SRC / 'rotaset'}")
    return rotaset, seconds


def _child_import_s() -> float:
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD_IMPORT, str(SRC)],
        capture_output=True, text=True, timeout=120, cwd=ROOT, check=True,
    )
    return float(proc.stdout.split()[-1])


def _run_job(call, argv):
    """One CLI call with its output captured: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = call(argv)
        except SystemExit as exc:  # argparse rejected the argv
            rc = exc.code
        except Exception:  # counted as a failed job; the run goes on
            rc = None
            err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


def _run_traced(tracer, cli_main, job, out: Path, rec: dict):
    """The traced twin of a job: (exit code, stderr); its time goes to rec."""
    with tracer:
        t0 = time.perf_counter()
        rc, _, stderr = _run_job(lambda argv: tracer.call_job(cli_main, argv), [*job.argv, "--out", str(out)])
        rec["traced_s"] = time.perf_counter() - t0
    return rc, stderr


def _job_failure(job, rc, stderr, out: Path):
    if rc != 0:
        return f"exit code {rc}: {stderr.strip()[-400:]}"
    try:
        checks.check(job, out)
    except (checks.CheckError, KeyError, IndexError, TypeError, ValueError, OSError) as exc:
        return f"check failed: {type(exc).__name__}: {exc}"
    return None


def _artifact_mismatch(a: Path, b: Path):
    cmp = filecmp.dircmp(a, b)
    if cmp.left_only or cmp.right_only:
        return f"traced run wrote other files: {cmp.left_only} vs {cmp.right_only}"
    _, diff, errors = filecmp.cmpfiles(a, b, cmp.common_files, shallow=False)
    if diff or errors:
        return f"traced artifacts differ from untraced: {diff + errors}"
    return None


def _round_s(times, round_len):
    """Mean time of one round: the sum over round slots of the mean job time
    in each slot. Jobs per second taken from it keeps the round's mix of job
    kinds wherever the run was cut off; the run always completes one round."""
    slots = [times[k::round_len] for k in range(round_len)]
    return sum(sum(slot) / len(slot) for slot in slots)


def _tail(times):
    """(time, percentile, jobs beyond) at the highest of TAIL_PERCENTILES
    with at least TAIL_BEYOND jobs beyond it, else the median.

    A fixed ladder keeps the reported percentile from drifting with the job
    count, which would move it across job kinds of different cost."""
    s = sorted(times)
    n = len(s)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100 * n)  # nearest rank, 1-based
        if n - rank >= TAIL_BEYOND:
            return s[rank - 1], pct, n - rank
    return median(s), 50, n // 2


def _environment(rotaset) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "rotaset": rotaset.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
    }


def run_workload(args) -> int:
    if not (SRC / "rotaset" / "__init__.py").is_file():
        print(f"error: no rotaset package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    os.environ.pop("ROTASET_WORKERS", None)
    rotaset, import_s = _import_rotaset()
    import numpy
    import tracing

    cli_main = rotaset.cli.main
    env = _environment(rotaset)
    print(f"rotaset benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))

    tmp_root = OUT_ROOT / "tmp"
    tmp_root.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer(rotaset) if args.trace else None
    stream = workloads.jobs(args.workload, args.seed, args.tiny)
    records = []
    start = time.perf_counter()
    round_len = len(workloads.ROUNDS[args.workload])
    while len(records) < round_len or time.perf_counter() - start < args.seconds:
        job = next(stream)
        rec = {"kind": job.kind, "argv": job.argv}
        with tempfile.TemporaryDirectory(dir=tmp_root) as tmp:
            plain, traced = Path(tmp) / "plain", Path(tmp) / "traced"
            # in a traced run, every other job runs traced first, so neither
            # side of trace.overhead_ratio always gets the warmer caches
            traced_first = tracer is not None and len(records) % 2 == 1
            if traced_first:
                traced_result = _run_traced(tracer, cli_main, job, traced, rec)
            t0 = time.perf_counter()
            rc, _, stderr = _run_job(cli_main, [*job.argv, "--out", str(plain)])
            rec["s"] = time.perf_counter() - t0
            failure = _job_failure(job, rc, stderr, plain)
            if tracer is not None:
                if not traced_first:
                    traced_result = _run_traced(tracer, cli_main, job, traced, rec)
                if failure is None:
                    failure = _job_failure(job, *traced_result, traced) or _artifact_mismatch(plain, traced)
        rec["failed"] = failure
        records.append(rec)
        status = "ok" if failure is None else f"FAILED: {failure}"
        print(f"job {len(records) - 1} {job.kind} {rec['s']:.3f} s {status}", flush=True)

    attempted = len(records)
    failed = sum(1 for r in records if r["failed"] is not None)
    times = [r["s"] for r in records]
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "environment": env, "jobs": records}

    if tracer is None:
        setup = [import_s] + [_child_import_s() for _ in range(SETUP_CHILD_IMPORTS)]
        tail_s, tail_pct, beyond = _tail(times)
        round_s = _round_s(times, round_len)
        metrics = {
            "jobs_per_s": ((attempted - failed) / attempted * round_len / round_s, "jobs/s"),
            "job_s_p50": (median(times), "s"),
            "job_s_tail": (tail_s, "s"),
            "setup_s": (median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        notes = {
            "jobs_per_s": f"{attempted - failed} of {attempted} correct; {round_len}-job round mix, mean round {round_s:.3f} s",
            "job_s_p50": f"n={attempted}",
            "job_s_tail": f"p{tail_pct:.0f}, n={attempted}, {beyond} beyond",
            "setup_s": "median of imports " + ", ".join(f"{s:.4f}" for s in setup),
        }
        result["setup_s_samples"] = setup
    else:
        traced_total = sum(r["traced_s"] for r in records)
        rng = numpy.random.default_rng(args.seed)
        alpha_beta = workloads.irrational_pair(random.Random(args.seed))
        metrics = tracer.metrics()
        metrics.update(tracing.kernel_ns_per_point_step(rotaset, rng, alpha_beta))
        metrics["trace.overhead_ratio"] = (traced_total / sum(times), "ratio")
        notes = {"trace.overhead_ratio": f"{traced_total:.2f} s traced vs {sum(times):.2f} s untraced"}
        layer_self = tracer.layer_self_s()
        print("self time by layer over the traced jobs:")
        for layer, secs in sorted(layer_self.items(), key=lambda kv: -kv[1]):
            print(f"  {layer:10s} {secs:9.4f} s  {100 * secs / traced_total:5.1f}%")
        result["layer_self_s"] = layer_self
        result["spans"] = tracer.dump()

    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {value:.6g} {unit}{note}")
    if tracer is None:
        print(f"failed_ratio = {failed / attempted:.6g} ratio  ({failed} of {attempted} jobs)")
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    runs = OUT_ROOT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    record_path = runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(result) + "\n")
    print(f"run record: {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result["metrics"]}))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, one after another."""
    summary = {}
    for name in workloads.ROUNDS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        summary[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in summary.values()),
        "attempted": sum(r["attempted"] for r in summary.values()),
        "failed": sum(r["failed"] for r in summary.values()),
        "metrics": {f"{w}.{k}": m for w, r in summary.items() for k, m in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

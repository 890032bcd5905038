"""Benchmark of quintic_newton's three batch jobs, stdlib only.

    python3 perfbench/run.py --workload curve --seed 0 --seconds 40 --trace 0

Workloads (see workloads.py): ``curve`` (the entropy curve), ``tree`` (the
decorated word tree) and ``windows`` (locate, partition and cross-check
every admissible cycle word up to level 10).  ``--workload all`` runs each
of them in its own process and prints all their metrics.

With ``--trace 0`` a run repeats complete passes of one workload for about
``--seconds`` seconds in one process and one thread, checking every pass's
output, times set-up in fresh interpreters before and between the passes,
and reports the end-to-end metrics.  With ``--trace 1`` it instead makes
one untraced and one traced pass of every workload and reports the
per-layer metrics of tracing.py; ``--seconds`` does not apply.  ``--toy``
shrinks every workload for the self-test.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when every
output gate held, 1 when one failed.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import tracing
import workloads

# set-up samples taken before the first pass and after every pass, so that
# set-up is timed across the whole run, as the passes are
SETUP_AT_START = 5
SETUP_PER_PASS = 2

# name -> unit; BENCHMARK.json gives the bounds
END_TO_END = {"setup_s": "s", "wall_s": "s", "ok_frac": "ratio",
              "peak_rss_mb": "MiB"}

_SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import quintic_newton, quintic_newton.cli
t1 = time.perf_counter()
print(repr(t1 - t0), quintic_newton.__file__)
"""


def setup_sample() -> float:
    """Seconds for a fresh interpreter to import the package and its CLI.

    The interpreter is isolated from the environment and timed from inside,
    around the imports only.
    """
    proc = subprocess.run(
        [sys.executable, "-I", "-c", _SETUP_CODE, str(workloads.SRC)],
        capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"importing quintic_newton failed:\n{proc.stderr}")
    seconds, path = proc.stdout.split(maxsplit=1)
    if os.path.realpath(path.strip()) != str(workloads.PACKAGE_FILE):
        raise RuntimeError(f"set-up imported {path.strip()}, "
                           f"not {workloads.PACKAGE_FILE}")
    return float(seconds)


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(workloads.ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=workloads.ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=30, check=False)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_info() -> dict:
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "cpus": os.cpu_count(),
        "commit": git_commit(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "package": str(workloads.PACKAGE_FILE),
    }


def untraced_run(workload: str, seed: int, seconds: float,
                 size: workloads.Size) -> tuple[dict, int, int, list[str], list[str]]:
    """End-to-end metrics of complete passes repeated for about `seconds`.

    A pass is not started when the median pass so far would run past the
    budget, so a run ends close to `seconds` whatever the workload.
    """
    setup_sample()   # writes the bytecode cache, which users do not pay for
    setup = [setup_sample() for _ in range(SETUP_AT_START)]
    run_pass = workloads.WORKLOADS[workload]
    run_pass(seed, workloads.TOY)   # warm-up: first-call costs are not timed
    walls: list[float] = []
    attempted = failed = 0
    problems: list[str] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        res = run_pass(seed, size, len(walls))
        walls.append(time.perf_counter() - t0)
        attempted += res.attempted
        failed += res.failed
        problems += res.problems
        setup += [setup_sample() for _ in range(SETUP_PER_PASS)]
        elapsed = time.perf_counter() - start
        if problems or elapsed + statistics.median(walls) > seconds:
            break
    notes = [f"passes {len(walls)}: wall_s min {min(walls):.4f} "
             f"max {max(walls):.4f}",
             f"setup samples {len(setup)}: min {min(setup):.4f} "
             f"max {max(setup):.4f}"]
    if "fail" in res.detail:
        notes.append("failures by reason (last pass): " + " ".join(
            f"{k}={v}" for k, v in res.detail["fail"].items()))
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "ok_frac": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return ({k: (v, END_TO_END[k]) for k, v in metrics.items()},
            attempted, failed, problems, notes)


def traced_run(seed: int, size: workloads.Size
               ) -> tuple[dict, int, int, list[str], list[str]]:
    """One untraced and one traced pass of every workload, back to back."""
    values: dict = {}
    attempted = failed = 0
    problems: list[str] = []
    notes: list[str] = []
    for run_pass in workloads.WORKLOADS.values():
        run_pass(seed, workloads.TOY)   # warm-up: first-call costs are not timed
    for workload, run_pass in workloads.WORKLOADS.items():
        t0 = time.perf_counter()
        plain = run_pass(seed, size)
        untraced_s = time.perf_counter() - t0
        tracer = tracing.Tracer()
        with tracing.interposed(tracer):
            tracer.enter(tracing.ROOT_SPAN)
            try:
                res = run_pass(seed, size)
            finally:
                traced_s = tracer.exit()
        accounted = sum(tracer.self_s.values())
        if abs(accounted - traced_s) > 1e-6 * max(1.0, traced_s):
            problems.append(f"{workload}: self times sum to {accounted!r}, "
                            f"traced wall is {traced_s!r}")
        notes.append(f"{workload}: self times {accounted:.4f} s of traced "
                     f"wall {traced_s:.4f} s, untraced {untraced_s:.4f} s")
        for run in (plain, res):
            attempted += run.attempted
            failed += run.failed
            problems += [f"{workload}: {p}" for p in run.problems]
        values.update(tracing.layer_values(workload, tracer, res.detail,
                                         untraced_s, traced_s))
    metrics = {name: (values.get(name, 0), unit)
               for name, unit, _, _ in tracing.LAYER_METRICS}
    return metrics, attempted, failed, problems, notes


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so no peak memory carries over."""
    merged: dict = {}
    attempted = failed = 0
    correct = True
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", "0"] + (["--toy"] if args.toy else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print(f"# --- {workload}")
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"# {workload}: no result (exit {proc.returncode})")
            correct = False
            continue
        correct = correct and result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        for name, m in result["metrics"].items():
            merged[f"{workload}.{name}"] = (m["value"], m["unit"])
    return emit(correct, max(attempted, 1), failed, merged, [])


def emit(correct: bool, attempted: int, failed: int, metrics: dict,
         notes: list[str]) -> int:
    for note in notes:
        print(f"# {note}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<56} {value!r:>24} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--toy", action="store_true",
                    help="self-test sizes: 12 curve points, tree level 5, "
                         "windows up to level 6")
    args = ap.parse_args(argv)
    # the curve honours this variable when --workers is absent; the
    # benchmark passes --workers 1 and must not inherit a setting
    os.environ.pop("QUINTIC_NEWTON_WORKERS", None)
    if args.workload == "all" and not args.trace:
        return run_all(args)
    size = workloads.TOY if args.toy else workloads.FULL
    info = run_info()
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} size={'toy' if args.toy else 'full'}")
    print("# " + json.dumps(info, sort_keys=True))
    if args.trace:
        metrics, attempted, failed, problems, notes = traced_run(args.seed, size)
    else:
        metrics, attempted, failed, problems, notes = untraced_run(
            args.workload, args.seed, args.seconds, size)
    for p in problems[:20]:
        print(f"# GATE FAILED: {p}")
    return emit(not problems, attempted, failed, metrics, notes)


if __name__ == "__main__":
    sys.exit(main())

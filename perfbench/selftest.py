"""Self-test of the benchmark, at toy size apart from two digest checks.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json and the code name the same metrics; that every
workload runs and prints every metric by name with its unit, traced and
untraced; that corrupted program output trips each gate and makes the run
exit 1; that a traced pass restores every name it wraps; and that without
the package the benchmark exits non-zero and prints no result.  Takes
about half a minute.
"""
from __future__ import annotations

import contextlib
import dataclasses
import importlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import tracing
import workloads

ROOT = workloads.ROOT
HERE = ROOT / "perfbench"
qn = workloads.quintic_newton


def check(ok: bool, what: str) -> None:
    if not ok:
        raise AssertionError(what)


def manifest() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600,
                          check=False)


def last_json(stdout: str) -> dict | None:
    lines = stdout.splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None


@contextlib.contextmanager
def patched(module, attr: str, make):
    original = getattr(module, attr)
    setattr(module, attr, make(original))
    try:
        yield
    finally:
        setattr(module, attr, original)


# ----------------------------------------------------------------------

def test_manifest_matches_code():
    m = manifest()
    check([w["name"] for w in m["workloads"]] == list(workloads.WORKLOADS),
          "workload names differ from workloads.WORKLOADS")
    check({e["name"]: e["unit"] for e in m["end_to_end"]} == run.END_TO_END,
          "end_to_end differs from run.END_TO_END")
    check([(p["name"], p["unit"], p["better"]) for p in m["per_layer"]]
          == [row[:3] for row in tracing.LAYER_METRICS],
          "per_layer differs from tracing.LAYER_METRICS")


def test_every_metric_printed():
    m = manifest()
    for flag, key in (("0", "end_to_end"), ("1", "per_layer")):
        want = {e["name"]: e["unit"] for e in m[key]}
        for workload in workloads.WORKLOADS:
            proc = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                         "--trace", flag, "--toy")
            what = f"{workload} --trace {flag}"
            check(proc.returncode == 0, f"{what} exited {proc.returncode}:\n"
                                        f"{proc.stdout}{proc.stderr}")
            result = last_json(proc.stdout)
            check(result is not None and set(result) ==
                  {"correct", "attempted", "failed", "metrics"},
                  f"{what}: last line is not a result")
            check(result["correct"] is True and result["attempted"] >= 1,
                  f"{what}: {result}")
            got = {n: v["unit"] for n, v in result["metrics"].items()}
            check(got == want, f"{what}: metrics {sorted(set(got) ^ set(want))} "
                               f"missing, extra or with a different unit")
            table = {line.split()[0]: line.split()[-1]
                     for line in proc.stdout.splitlines()[:-1]
                     if not line.startswith("#")}
            check(table == want, f"{what}: printed table differs")


def test_all_prints_each_workload():
    proc = bench("--workload", "all", "--seed", "2", "--seconds", "1",
                 "--trace", "0", "--toy")
    result = last_json(proc.stdout)
    check(proc.returncode == 0 and result is not None and result["correct"],
          f"--workload all failed:\n{proc.stdout}{proc.stderr}")
    want = {f"{w}.{n}" for w in workloads.WORKLOADS for n in run.END_TO_END}
    check(set(result["metrics"]) == want, "--workload all lacks a metric")


def _shift_entropy(delta: float, index: int):
    def make(entropy_curve):
        def corrupted(*args, **kwargs):
            points = entropy_curve(*args, **kwargs)
            p = points[index]
            points[index] = dataclasses.replace(p, entropy=p.entropy + delta)
            return points
        return corrupted
    return make


def _rename_parent(build_polynomial_tree):
    def corrupted(max_level):
        levels = build_polynomial_tree(max_level)
        levels[max_level][-1].parent = "RC"
        return levels
    return corrupted


def _offset_kneading_root(entropy_from_kneading):
    def corrupted(word, *args, **kwargs):
        r = entropy_from_kneading(word, *args, **kwargs)
        return dataclasses.replace(r, t_star=r.t_star + 1e-9)
    return corrupted


def test_corrupted_output_trips_gates():
    full, toy = workloads.FULL, workloads.TOY
    cases = [
        ("curve out of range", qn.cli, "entropy_curve", _shift_entropy(1.0, 5),
         lambda: workloads.curve_pass(3, toy)),
        ("curve digest", qn.cli, "entropy_curve", _shift_entropy(1e-12, 100),
         lambda: workloads.curve_pass(0, full)),
        ("tree digest", qn.cli, "build_polynomial_tree", _rename_parent,
         lambda: workloads.tree_pass(0, full)),
        ("windows cross-check", qn, "entropy_from_kneading",
         _offset_kneading_root, lambda: workloads.windows_pass(0, toy)),
    ]
    for name, module, attr, make, run_pass in cases:
        check(not run_pass().problems, f"{name}: gate fails on correct output")
        with patched(module, attr, make):
            check(run_pass().problems, f"{name}: corrupted output passed")
    out = io.StringIO()
    with patched(qn, "entropy_from_kneading", _offset_kneading_root), \
            contextlib.redirect_stdout(out):
        rc = run.main(["--workload", "windows", "--seed", "1", "--seconds", "1",
                       "--trace", "0", "--toy"])
    result = last_json(out.getvalue())
    check(rc == 1 and result is not None and result["correct"] is False,
          "a gate failure did not make the run exit 1 with correct false")


def test_trace_restores_names():
    before = {(m, a): getattr(importlib.import_module(m), a)
              for m, a, _ in tracing.INTERPOSITIONS}
    tracer = tracing.Tracer()
    with contextlib.suppress(RuntimeError):
        with tracing.interposed(tracer):
            workloads.tree_pass(0, workloads.TOY)
            raise RuntimeError("leave the block by an exception")
    check(tracer.calls["kneading.cycle_polynomial"] > 0, "nothing was traced")
    after = {(m, a): getattr(importlib.import_module(m), a) for m, a in before}
    check(after == before, "a wrapped name was not restored")


def test_fails_without_package():
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-selftest-") as tmp:
        tmp_root = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", tmp_root)
        shutil.copytree(HERE, tmp_root / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "curve", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=tmp_root)
    check(proc.returncode != 0, "ran without the package")
    check(last_json(proc.stdout) is None, "printed a result without the package")


TESTS = [test_manifest_matches_code, test_every_metric_printed,
         test_all_prints_each_workload, test_corrupted_output_trips_gates,
         test_trace_restores_names, test_fails_without_package]


def main() -> int:
    failures = 0
    for test in TESTS:
        try:
            test()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {test.__name__}: {exc}")
        else:
            print(f"ok   {test.__name__}")
    print(f"{len(TESTS) - failures} of {len(TESTS)} self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

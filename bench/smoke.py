"""Check the benchmark itself on synth's default 4 classes x 10 images.

Usage: python3 bench/smoke.py

For every workload, with tracing off and on, runs ``run.py --smoke`` and
checks that the last line is the result object, the outputs are correct,
and every metric ``BENCHMARK.json`` names is printed with its unit.  Traced
runs check their own span trees (one root, children inside parents,
disjoint siblings, no negative self time) and exit non-zero when one is
malformed.  Last, it runs the benchmark in a
directory holding only ``BENCHMARK.json`` and ``bench/``, where it must
fail without printing a result.  Exit status 0 means every check passed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run

BENCHMARK = run.ROOT / "BENCHMARK.json"


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    argv = [sys.executable, run.BENCH / "run.py", "--workload", workload, "--seed", "0",
            "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=run.ROOT, timeout=180)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = result["metrics"]
    if set(printed) != set(declared):
        problems.append(f"{where}: metrics differ: {sorted(set(printed) ^ set(declared))}")
    for name, unit in declared.items():
        value = printed.get(name, {})
        if value.get("unit") != unit or not isinstance(value.get("value"), (int, float)):
            problems.append(f"{where}: {name} printed as {value}")
    if trace and "# self time, " not in proc.stdout:
        problems.append(f"{where}: no self-time table")
    return problems


def check_bare() -> list[str]:
    """In a tree without ``src/`` the benchmark must fail and print no result."""
    bare = run.WORK / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy2(BENCHMARK, bare / "BENCHMARK.json")
        shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        argv = [sys.executable, "bench/run.py", "--workload", "prep", "--seed", "0",
                "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=bare, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare checkout: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    problems = []
    for declared, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        names = [m["name"] for m in spec[declared]]
        if names != list(table):
            problems.append(f"BENCHMARK.json {declared} differs from run.py")
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py")
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            problems += check_run(spec, workload, trace)
    problems += check_bare()
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""Record the output digests the benchmark checks against.

Usage: python3 bench/record_golden.py [--workload NAME ...] [--scale full|smoke ...]

For each workload, scale and corpus seed 0..POOL-1 this builds the corpus
once, runs the workload's commands once and stores the sha256 of every
corpus file, output file and stdout in ``bench/golden.json``, merging into
what is there.  Record only from code whose outputs are known good: the
benchmark treats any later difference as a failed operation.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run


def record(workload: run.Workload, smoke: bool, seed: int, launcher: run.Launcher) -> dict:
    runner = run.Runner(workload, seed, smoke, None, launcher)
    try:
        runner.set_up()
        runner.rep(traced=False)
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)
    if runner.problems:
        raise run.BenchError(f"{workload.name} seed {seed}: {runner.problems}")
    return runner.digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(run.WORKLOADS))
    parser.add_argument("--scale", action="append", choices=("full", "smoke"))
    args = parser.parse_args(argv)
    with run.Launcher() as launcher:
        run.import_partkit()
        golden = json.loads(run.GOLDEN.read_text(encoding="utf-8")) if run.GOLDEN.exists() else {}
        for name in args.workload or sorted(run.WORKLOADS):
            for scale in args.scale or ("full", "smoke"):
                table = golden.setdefault(name, {}).setdefault(scale, {})
                for seed in range(run.POOL):
                    table[str(seed)] = record(run.WORKLOADS[name], scale == "smoke", seed, launcher)
                    print(f"{name} {scale} {seed}", flush=True)
                run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

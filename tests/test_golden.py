"""Byte identity against the benchmark's recorded digests.

``bench/golden.json`` holds the sha256 of every corpus file, output file and
stdout of the benchmark's commands.  Here a few smoke-scale (4 x 10) corpora
are built with the benchmark's own ``set_up`` and its commands run through
``main`` in-process, so an output byte that drifts fails pytest, not only
the benchmark.  ``classify`` outputs (``model.svm``, ``accuracy.tsv`` and its
stdout) are skipped: their bytes depend on the BLAS build.  The golden file
is only read.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import sys
from pathlib import Path

import pytest

from partkit.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"
SEEDS = (0, 3, 7, 12)
SKIPPED_COMMANDS = {"classify"}


@pytest.fixture(scope="module")
def bench_run():
    # run.py imports its sibling tracing.py by plain name
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("run")
    finally:
        sys.path.remove(str(BENCH))


@pytest.fixture(scope="module")
def golden():
    return json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", ["prep", "classify"])
def test_smoke_outputs_match_golden(bench_run, golden, tmp_path, capsys, workload, seed):
    spec = bench_run.WORKLOADS[workload]
    expected = golden[workload]["smoke"][str(seed)]
    corpus = tmp_path / "corpus"
    bench_run.set_up(spec, spec.config_text(seed, smoke=True), corpus)
    assert bench_run.corpus_digests(corpus) == expected["corpus"]

    out = tmp_path / "out"
    for command in spec.commands:
        if command.name in SKIPPED_COMMANDS:
            continue
        argv = [command.name, "--config", corpus / "partkit.cfg", *command.args(corpus, out)]
        assert main([str(a) for a in argv]) == 0
        actual = {"stdout": hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()}
        for name in command.outputs:
            actual[name] = bench_run.digest(out / name)[0]
        assert actual == expected[command.name], command.name

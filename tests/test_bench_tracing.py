"""The traced benchmark wraps partkit functions by name; a refactor that
drops one of those names fails here, not only in ``bench/run.py --trace 1``.
Its counters call ``len()`` on what some stages return or take, so the
preparation commands also run through ``bench/traced_cli.py`` here."""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from partkit.config import load_config
from partkit.dataset_io import write_detections
from partkit.regions import RegionConfig, read_region_sets
from partkit.synth import SynthConfig, synth_corpus, synth_detections

BENCH = Path(__file__).resolve().parents[1] / "bench"
SRC = Path(__file__).resolve().parents[1] / "src"
TRACING = BENCH / "tracing.py"


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracing.check_cli()


def traced(tmp_path: Path, name: str, *argv) -> dict:
    """The counters of one command run through ``traced_cli.py``."""
    spans = tmp_path / f"{name}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(BENCH / "traced_cli.py"), str(spans), name, *map(str, argv)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    with open(spans, encoding="utf-8") as fh:
        return json.load(fh)["counters"]


def test_preparation_commands_count_through_the_tracer(tmp_path):
    # the smoke corpus of the benchmark's prep workload: one decoy per region
    corpus = tmp_path / "corpus"
    paths = synth_corpus(SynthConfig(), corpus, region_cfg=RegionConfig(), ratios=(0.5, 0.2, 0.3))
    write_detections(
        synth_detections(read_region_sets(paths["gt_regions"]), distractor_score=0.5), paths["detections"]
    )
    images = len((paths["dataset"] / "images.txt").read_text(encoding="utf-8").splitlines())
    lines = [line.split() for line in paths["detections"].read_text(encoding="utf-8").splitlines()]
    score_min = load_config(None).score_min
    winners = {(fields[0], fields[1]) for fields in lines if float(fields[2]) > score_min}
    assert len(winners) < len(lines)

    counters = traced(tmp_path, "validate", paths["dataset"])
    assert counters["dataset_io.keypoint_lines"] == images * 15

    out = tmp_path / "out"
    counters = traced(tmp_path, "gen-regions", "--out", out, paths["dataset"])
    assert counters["dataset_io.keypoint_lines"] == images * 15
    assert counters["regions.label_files"] == images

    counters = traced(tmp_path, "eval-pcp", "--out", out, out / "gt_regions.txt", paths["detections"])
    assert counters["dataset_io.detection_lines"] == counters["detection.candidates"] == len(lines)
    assert counters["detection.selected"] == len(winners)


def test_classification_commands_count_through_the_tracer(tmp_path):
    # the tracer times fuse and train_svm under their names in partkit.cli,
    # so the one classification driver must call them by those names
    paths = synth_corpus(SynthConfig(), tmp_path / "corpus", region_cfg=RegionConfig(), ratios=(0.5, 0.2, 0.3))
    labels_path = paths["dataset"] / "image_class_labels.txt"
    split = dict(line.split() for line in paths["split"].read_text(encoding="utf-8").splitlines())
    labels = dict(line.split() for line in labels_path.read_text(encoding="utf-8").splitlines())
    train = [i for i, s in split.items() if s == "0"]
    classes = {labels[i] for i in train}
    inputs = (paths["features"], labels_path, paths["split"])

    counters = traced(tmp_path, "classify", *inputs, "--out", tmp_path / "clf")
    assert counters["features.fuse_calls"] == 2
    assert counters["features.train_svm_calls"] == 1
    epochs = load_config(None).svm_epochs
    assert counters["features.svm_updates"] == epochs * len(train) * len(classes)

    # five single parts, then the baseline and its five grown combinations
    counters = traced(tmp_path, "combination", *inputs)
    assert counters["features.fuse_calls"] == 22
    assert counters["features.train_svm_calls"] == 11

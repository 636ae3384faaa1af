"""Per-process footprint of every command.

No command loads OpenSSL: sub-seeds use the builtin blake2b, and importing
``hashlib`` would map libcrypto into each process. The preparation
commands (``validate``, ``gen-regions``, ``export-yolo``, ``eval-pcp``)
never touch numpy, so they must not pay for importing it either, and the
records they build once per keypoint, image, region or detection carry no
per-instance ``__dict__``.  A parsed keypoint is a three-slot object in its
image's row, with no dict around it.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import FrozenInstanceError, fields
from pathlib import Path

import pytest

from conftest import build_tree, toy_images
from partkit.cli import main
from partkit.dataset_io import ImageRecord, KeyPoint, parse_dataset
from partkit.detection import Detection
from partkit.geometry import Box
from partkit.parts import PartKind
from partkit.regions import PartRegionSet

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs every command in one fresh interpreter, synth last: prints one JSON
# line of [command, exit code, numpy imported, _hashlib imported] rows, the
# modules as imported by the end of that command.
_SCRIPT = """
import json, sys
from partkit.cli import main
corpus, out = sys.argv[1], sys.argv[2]
data = corpus + "/dataset"
fit = [corpus + "/features.tsv", data + "/image_class_labels.txt", corpus + "/split.txt"]
runs = [["import", 0, "numpy" in sys.modules, "_hashlib" in sys.modules]]
for argv in (
    ["validate", data],
    ["gen-regions", data, "--out", out + "/regions"],
    ["export-yolo", data, "--out", out + "/yolo"],
    ["eval-pcp", corpus + "/gt_regions.txt", corpus + "/detections.txt"],
    ["classify", *fit, "--out", out + "/classify"],
    ["combination", *fit, "--out", out + "/combination"],
    ["synth", "--out", out + "/synth"],
):
    code = main(argv)
    runs.append([argv[0], code, "numpy" in sys.modules, "_hashlib" in sys.modules])
print(json.dumps(runs))
"""


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("footprint")
    corpus = tmp_path / "corpus"
    assert main(["synth", "--out", str(corpus)]) == 0
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(corpus), str(tmp_path / "out")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_preparation_commands_do_not_import_numpy(runs):
    assert [row[:3] for row in runs] == [
        ["import", 0, False],
        ["validate", 0, False],
        ["gen-regions", 0, False],
        ["export-yolo", 0, False],
        ["eval-pcp", 0, False],
        ["classify", 0, True],
        ["combination", 0, True],
        ["synth", 0, True],
    ]


def test_no_command_loads_openssl(runs):
    # the numpy test above pins that every command ran and exited 0
    assert [row[0] for row in runs if row[3]] == []


BOX = Box(0.0, 0.0, 4.0, 3.0)
RECORDS = [
    KeyPoint(10.0, 20.0, True),
    ImageRecord(1, "001.Class_001/img_0001.jpg", 1, 200, 200),
    BOX,
    Detection(1, PartKind.HEAD, 0.5, BOX),
    PartRegionSet(1, {PartKind.HEAD: BOX}),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_per_record_classes_are_slotted(record):
    assert not hasattr(record, "__dict__")
    name = fields(record)[0].name
    if type(record).__dataclass_params__.frozen:
        with pytest.raises(FrozenInstanceError):
            setattr(record, name, getattr(record, name))
    else:
        with pytest.raises(AttributeError):
            record.extra = 1


def test_keypoint_fits_the_64_byte_size_class():
    # a fifth slot would put every keypoint in pymalloc's 80-byte class
    assert sys.getsizeof(KeyPoint(1.0, 2.0, True)) <= 64


def test_parse_dataset_keeps_under_95_bytes_a_keypoint(tmp_path):
    # a three-slot keypoint (56 bytes asked of the allocator) and its slot
    # in the image's row, plus the image's own records spread over its 15
    # keypoints: about 89 bytes; a dict per image of five-slot keypoints
    # kept about 135
    root = build_tree(tmp_path, toy_images(200))
    parse_dataset(root)  # allocations of a first call are not the dataset's
    # a collection empties the free lists, so the rows the first call freed
    # are not handed back unseen, and none runs inside the measured call
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        dataset = parse_dataset(root)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert kept / dataset.num_keypoints <= 95

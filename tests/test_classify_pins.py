"""Byte pins of the classifier outputs the benchmark does not cover.

The benchmark's ``classify`` workload runs every group with
``l2_normalize = false``.  Here a small corpus with part dropout (so that
absent groups leave zero blocks) is classified with ``l2_normalize =
true``, on every group and on a subset, and run through ``combination``;
the sha256 of each output file is pinned.  As with the benchmark's
``classify`` goldens, the model bytes come from one BLAS build (OpenBLAS
as bundled with the numpy wheels, x86-64); another build may sum a dot
product in another order.
"""

from __future__ import annotations

import hashlib

import pytest

from partkit.cli import main

CONFIG = """\
synth_classes = 5
synth_images_per_class = 12
synth_feature_dim = 8
synth_part_dropout = 0.25
svm_epochs = 5
l2_normalize = true
seed = 4
"""

# command line after the three input files -> {output file: sha256}
PINS = {
    "classify": {
        "model.svm": "3fe0333299c6480a753c8d01203eae8bf3ab843ba40dc0745667fb06cfe75368",
        "accuracy.tsv": "11fc625f8b5ec1808c61a399a96c3c9bb92bf050bc28451a5d5e4430c7a98853",
    },
    "classify --groups original,cropped,head": {
        "model.svm": "758140aa02fdbe2df1efb43e90033606ac3c25c0e816f0eabea95f2780715f7a",
        "accuracy.tsv": "b91b22ff1d3cc9d981925cf951e1abc88254a032e5b6a13d69cfc24de4d1a1b9",
    },
    "combination": {
        "combination.tsv": "787e1091ba9eac37edbcd63d4b1a7372f41c92b7397f3eff1b67ba42b1bcf5b6",
    },
}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("pinned")
    config = root / "partkit.cfg"
    config.write_text(CONFIG, encoding="utf-8")
    assert main(["synth", "--config", str(config), "--out", str(root / "corpus")]) == 0
    return root


@pytest.mark.parametrize("command", sorted(PINS))
def test_output_bytes_are_pinned(corpus, tmp_path, capsys, command):
    name, *extra = command.split()
    data = corpus / "corpus"
    inputs = [data / "features.tsv", data / "dataset" / "image_class_labels.txt", data / "split.txt"]
    argv = [name, *map(str, inputs), *extra, "--config", str(corpus / "partkit.cfg")]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    actual = {
        output: hashlib.sha256((tmp_path / output).read_bytes()).hexdigest()
        for output in PINS[command]
    }
    assert actual == PINS[command]

"""End-to-end subcommand behavior: exit codes, outputs, determinism."""

from __future__ import annotations

import subprocess
import sys
import weakref

import pytest

import partkit.cli
import partkit.features
from partkit.cli import main
from conftest import build_tree, default_part_rows, toy_images


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A default synthetic corpus generated through the CLI itself."""
    out = tmp_path_factory.mktemp("corpus")
    assert main(["synth", "--out", str(out)]) == 0
    return {
        "root": out,
        "dataset": out / "dataset",
        "labels": out / "dataset" / "image_class_labels.txt",
        "split": out / "split.txt",
        "gt_regions": out / "gt_regions.txt",
        "detections": out / "detections.txt",
        "features": out / "features.tsv",
    }


def read_tree(root):
    files = sorted(p for p in root.rglob("*") if p.is_file())
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in files}


def spy_on_splits(monkeypatch, module):
    """Record the ``fuse`` and ``train_svm`` calls made through ``module``.

    A fuse event notes whether every matrix fused before it was already
    freed; "trained" marks a ``train_svm`` return.
    """
    events = []
    fused = []
    real_fuse, real_train = module.fuse, module.train_svm

    def fuse(*args, **kwargs):
        events.append(("fuse", all(ref() is None for ref in fused)))
        result = real_fuse(*args, **kwargs)
        fused.append(weakref.ref(result))
        return result

    def train_svm(*args, **kwargs):
        model = real_train(*args, **kwargs)
        events.append("trained")
        return model

    monkeypatch.setattr(module, "fuse", fuse)
    monkeypatch.setattr(module, "train_svm", train_svm)
    return events


class TestUsageAndConfig:
    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_positional(self, capsys):
        assert main(["eval-pcp"]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "validate" in capsys.readouterr().out

    def test_no_root_anywhere(self, capsys):
        assert main(["validate"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "toolkit.cfg"
        cfg.write_text("bogus_key=1\n", encoding="utf-8")
        assert main(["validate", str(tmp_path), "--config", str(cfg)]) == 2
        assert "bogus_key" in capsys.readouterr().err

    def test_bad_config_value(self, tmp_path, capsys):
        cfg = tmp_path / "toolkit.cfg"
        cfg.write_text("pad_w=abc\n", encoding="utf-8")
        assert main(["validate", str(tmp_path), "--config", str(cfg)]) == 2
        assert "pad_w" in capsys.readouterr().err

    def test_duplicate_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "toolkit.cfg"
        cfg.write_text("pad_w=0.1\npad_w=0.2\n", encoding="utf-8")
        assert main(["validate", str(tmp_path), "--config", str(cfg)]) == 2
        capsys.readouterr()

    def test_non_utf8_config_is_one_error_line(self, tmp_path, capsys):
        cfg = tmp_path / "toolkit.cfg"
        cfg.write_bytes(b"seed = 1\n# \xff\nsvm_c = 2\n")
        assert main(["validate", str(tmp_path), "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1
        assert f"{cfg}:2:" in err

    def test_config_supplies_data_root(self, tmp_path, capsys):
        root = tmp_path / "data"
        build_tree(root, toy_images(2))
        cfg = tmp_path / "toolkit.cfg"
        cfg.write_text(f"data_root={root}\n", encoding="utf-8")
        assert main(["validate", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out.startswith("images=2 ")

    @pytest.mark.parametrize(
        "line, message",
        [
            ("score_min = 1.5", "score_min must be in [0, 1]"),
            ("synth_classes = 1", "num_classes must be >= 2"),
        ],
    )
    def test_range_error_names_the_config_file(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{line}\n", encoding="utf-8")
        assert main(["validate", str(tmp_path), "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: {message}")
        assert err.count("\n") == 1


class TestNonFiniteConfigFloats:
    """A float config value that is not finite is a config error naming
    its line, whatever command reads it."""

    INPUTS = {"classify": ("features", "labels", "split"), "gen-regions": ("dataset",)}

    @pytest.mark.parametrize(
        "line, command",
        [
            ("svm_c = inf", "classify"),  # was a ZeroDivisionError traceback
            ("svm_c = nan", "classify"),  # trained a NaN model and exited 0
            ("pad_w = nan", "gen-regions"),  # exited 1 on an unrelated invalid box
            ("envelope_scale_leg = inf", "gen-regions"),  # was accepted
            ("breast_pad_w = -inf", "gen-regions"),
        ],
    )
    def test_exit_two_with_the_line(self, corpus, tmp_path, capsys, line, command):
        cfg = tmp_path / "toolkit.cfg"
        cfg.write_text(f"# line 1\n{line}\n", encoding="utf-8")
        out = tmp_path / "out"
        inputs = [str(corpus[name]) for name in self.INPUTS[command]]
        assert main([command, *inputs, "--out", str(out), "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}:2: bad value for {line.split()[0]}: ")
        assert err.count("\n") == 1
        assert not out.exists()


class TestValidate:
    def test_summary_line(self, tmp_path, capsys):
        root = tmp_path / "data"
        build_tree(root, toy_images(3))
        assert main(["validate", str(root)]) == 0
        assert capsys.readouterr().out == "images=3 keypoints=45 classes=1 parts=15\n"

    def test_missing_tree(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nowhere")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "images.txt" in err

    def test_dangling_reference(self, tmp_path, capsys):
        root = tmp_path / "data"
        build_tree(root, toy_images(2))
        labels = root / "image_class_labels.txt"
        labels.write_text(labels.read_text(encoding="utf-8") + "99 1\n", encoding="utf-8")
        assert main(["validate", str(root)]) == 1
        assert "99" in capsys.readouterr().err

    def test_non_utf8_file_is_one_error_line(self, tmp_path, capsys):
        root = tmp_path / "data"
        build_tree(root, toy_images(3))
        (root / "images.txt").write_bytes(b"1 a.jpg\n2 \xff\xfe.jpg\n3 c.jpg\n")
        assert main(["validate", str(root)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1
        assert "images.txt:2" in err

    def test_path_outside_the_tree_is_one_error_line(self, tmp_path, capsys):
        root = tmp_path / "data"
        build_tree(root, toy_images(3))
        (root / "images.txt").write_text("1 a.jpg\n2 ../../x/b.jpg\n3 c.jpg\n")
        assert main(["validate", str(root)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1
        assert "images.txt:2" in err


class TestReaderErrorsNameFileAndLine:
    """A duplicate, dangling or out-of-image record names its file and line;
    a record missing after a file is read names the file that lacks it."""

    def validate_error(self, root, capsys):
        assert main(["validate", str(root)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        return err

    def test_duplicate_id(self, tmp_path, capsys):
        root = build_tree(tmp_path / "data", toy_images(2))
        (root / "images.txt").write_text("1 a.jpg\n1 b.jpg\n", encoding="utf-8")
        err = self.validate_error(root, capsys)
        assert err == f"error: {root / 'images.txt'}:2: duplicate image id: 1\n"

    def test_dangling_reference(self, tmp_path, capsys):
        root = build_tree(tmp_path / "data", toy_images(2))
        labels = root / "image_class_labels.txt"
        labels.write_text(labels.read_text(encoding="utf-8") + "99 1\n", encoding="utf-8")
        err = self.validate_error(root, capsys)
        assert err == f"error: {labels}:3: dangling image reference: 99\n"

    def test_keypoint_out_of_bounds(self, tmp_path, capsys):
        rows = default_part_rows([1])
        rows[3] = "1 4 250.0 10.0 1"
        root = build_tree(tmp_path / "data", toy_images(1), part_rows=rows)
        err = self.validate_error(root, capsys)
        locs = root / "parts" / "part_locs.txt"
        assert err == (
            f"error: {locs}:4: visible keypoint (image 1, part 4) lies outside the image\n"
        )

    def test_missing_record_names_the_file(self, tmp_path, capsys):
        root = build_tree(tmp_path / "data", toy_images(2))
        (root / "image_sizes.txt").write_text("1 200 200\n", encoding="utf-8")
        err = self.validate_error(root, capsys)
        assert err == f"error: {root / 'image_sizes.txt'}: dangling image size reference: 2\n"

    def test_duplicate_split_id(self, corpus, tmp_path, capsys):
        lines = corpus["split"].read_text(encoding="utf-8").splitlines(keepends=True)
        split = tmp_path / "split.txt"
        split.write_text("".join(lines[:5] + lines[4:5]), encoding="utf-8")
        image_id = lines[4].split()[0]
        argv = ["classify", str(corpus["features"]), str(corpus["labels"]), str(split)]
        assert main([*argv, "--out", str(tmp_path / "clf")]) == 1
        assert capsys.readouterr().err == f"error: {split}:6: duplicate split id: {image_id}\n"

    def test_duplicate_region(self, corpus, tmp_path, capsys):
        lines = corpus["gt_regions"].read_text(encoding="utf-8").splitlines(keepends=True)
        gt = tmp_path / "gt_regions.txt"
        gt.write_text("".join(lines[:2] + lines[:1]), encoding="utf-8")
        image_id, name = lines[0].split()[:2]
        assert main(["eval-pcp", str(gt), str(corpus["detections"])]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {gt}:3: duplicate region id: ({image_id}, '{name}')\n"


class TestGenRegions:
    def test_outputs_and_summary(self, corpus, tmp_path, capsys):
        out = tmp_path / "regions"
        assert main(["gen-regions", str(corpus["dataset"]), "--out", str(out)]) == 0
        assert capsys.readouterr().out.startswith("images=40 regions=")
        assert (out / "gt_regions.txt").is_file()
        assert (out / "crop_manifest.txt").is_file()
        assert len(list((out / "labels").rglob("*.txt"))) == 40

    def test_matches_synth_ground_truth(self, corpus, tmp_path, capsys):
        out = tmp_path / "regions"
        assert main(["gen-regions", str(corpus["dataset"]), "--out", str(out)]) == 0
        capsys.readouterr()
        assert (out / "gt_regions.txt").read_bytes() == corpus["gt_regions"].read_bytes()

    def test_three_reruns_are_byte_identical(self, corpus, tmp_path, capsys):
        outs = [tmp_path / name for name in ("a", "b", "c")]
        for out in outs:
            assert main(["gen-regions", str(corpus["dataset"]), "--out", str(out)]) == 0
        capsys.readouterr()
        assert read_tree(outs[0]) == read_tree(outs[1]) == read_tree(outs[2])

    def test_absolute_image_path_writes_no_label(self, tmp_path, capsys):
        root = tmp_path / "data"
        build_tree(root, toy_images(3))
        outside = tmp_path / "outside" / "b.jpg"
        (root / "images.txt").write_text(f"1 a.jpg\n2 {outside}\n3 c.jpg\n")
        assert main(["gen-regions", str(root), "--out", str(tmp_path / "out")]) == 1
        assert not (tmp_path / "outside").exists()

    def test_keypoints_clustered_at_underflowing_distances(self, tmp_path, capsys):
        # every box area underflows to 0, so the overlap scores divide 0 by 0
        rows = [
            f"1 {p} {1e-200 if p % 2 else 0.0} {1e-200 if p % 3 else 0.0} 1" for p in range(1, 16)
        ]
        root = build_tree(tmp_path / "data", toy_images(1), part_rows=rows)
        assert main(["gen-regions", str(root), "--out", str(tmp_path / "out")]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("images=1 regions=")
        assert captured.err == ""


class TestLabelPathCollisions:
    """Two images whose label files would be one file are an input error,
    raised before any label file is written."""

    @pytest.mark.parametrize(
        "image_lines, ids",
        [
            (["1 a/x.jpg", "2 a/x.png", "3 a/y.jpg"], "1 and 2"),  # only the suffixes differ
            (["1 a/x.jpg", "2 b/y.jpg", "3 a/x.jpg"], "1 and 3"),  # one path twice
        ],
    )
    @pytest.mark.parametrize("command", ["gen-regions", "export-yolo"])
    def test_exit_one_and_no_label_written(self, tmp_path, capsys, command, image_lines, ids):
        root = tmp_path / "data"
        build_tree(root, toy_images(3))
        (root / "images.txt").write_text("".join(f"{line}\n" for line in image_lines))
        out = tmp_path / "out"
        assert main([command, str(root), "--out", str(out)]) == 1
        label = out / "labels" / "a" / "x.txt"
        assert capsys.readouterr().err == f"error: images {ids} map to one label file {label}\n"
        assert not list(out.glob("labels/**/*.txt"))

    def test_gen_regions_writes_no_output(self, tmp_path, capsys):
        root = tmp_path / "data"
        build_tree(root, toy_images(3))
        (root / "images.txt").write_text("1 a/x.jpg\n2 a/x.png\n3 a/y.jpg\n")
        out = tmp_path / "out"
        assert main(["gen-regions", str(root), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert list(out.iterdir()) == []


class TestExportYolo:
    def test_from_region_file(self, corpus, tmp_path, capsys):
        out = tmp_path / "yolo"
        rc = main(
            [
                "export-yolo",
                str(corpus["dataset"]),
                "--regions",
                str(corpus["gt_regions"]),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        assert capsys.readouterr().out == "label_files=40\n"
        assert len(list((out / "labels").rglob("*.txt"))) == 40

    def test_generated_when_no_region_file(self, corpus, tmp_path, capsys):
        out = tmp_path / "yolo"
        assert main(["export-yolo", str(corpus["dataset"]), "--out", str(out)]) == 0
        assert capsys.readouterr().out == "label_files=40\n"

    def test_unknown_image_reference(self, corpus, tmp_path, capsys):
        bogus = tmp_path / "regions.txt"
        bogus.write_text("999 head 0.00 0.00 10.00 10.00\n", encoding="utf-8")
        rc = main(
            [
                "export-yolo",
                str(corpus["dataset"]),
                "--regions",
                str(bogus),
                "--out",
                str(tmp_path / "yolo"),
            ]
        )
        assert rc == 1
        assert "999" in capsys.readouterr().err


class TestEvalPcp:
    def test_perfect_detections(self, corpus, capsys):
        assert main(["eval-pcp", str(corpus["gt_regions"]), str(corpus["detections"])]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("#iou_threshold=")
        assert len(lines) == 6
        assert all(line.endswith("\t1.0000") for line in lines[1:])

    def test_out_file_matches_stdout(self, corpus, tmp_path, capsys):
        out = tmp_path / "report"
        rc = main(
            ["eval-pcp", str(corpus["gt_regions"]), str(corpus["detections"]), "--out", str(out)]
        )
        assert rc == 0
        stdout = capsys.readouterr().out
        assert (out / "pcp.tsv").read_text(encoding="utf-8") == stdout

    def test_score_floor_excludes_everything(self, corpus, tmp_path, capsys):
        cfg = tmp_path / "toolkit.cfg"
        cfg.write_text("score_min=1.0\n", encoding="utf-8")
        rc = main(
            ["eval-pcp", str(corpus["gt_regions"]), str(corpus["detections"]), "--config", str(cfg)]
        )
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert all(line.endswith("\t0.0000") for line in lines[1:])
        assert all(line.split("\t")[1] == "0" for line in lines[1:])

    def test_hand_counted_fraction(self, tmp_path, capsys):
        gt = tmp_path / "gt.txt"
        gt.write_text(
            "1 head 0.00 0.00 10.00 10.00\n"
            "2 head 0.00 0.00 10.00 10.00\n"
            "3 head 0.00 0.00 10.00 10.00\n",
            encoding="utf-8",
        )
        dets = tmp_path / "dets.txt"
        dets.write_text(
            "1 head 0.9 0.0 0.0 10.0 10.0\n"
            "2 head 0.9 0.0 0.0 10.0 10.0\n"
            "3 head 0.9 0.0 0.0 10.0 2.0\n",
            encoding="utf-8",
        )
        assert main(["eval-pcp", str(gt), str(dets)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "head\t2\t3\t0.6667"

    def test_boxes_with_underflowing_areas_score_no_overlap(self, tmp_path, capsys):
        gt = tmp_path / "gt.txt"
        gt.write_text("1 head 0 0 1e-200 1e-200\n", encoding="utf-8")
        dets = tmp_path / "dets.txt"
        dets.write_text("1 head 0.9 0 0 1e-200 1e-200\n", encoding="utf-8")
        assert main(["eval-pcp", str(gt), str(dets)]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1] == "head\t0\t1\t0.0000"
        assert captured.err == ""

    def test_missing_detection_file(self, corpus, tmp_path, capsys):
        assert main(["eval-pcp", str(corpus["gt_regions"]), str(tmp_path / "none.txt")]) == 1
        capsys.readouterr()


class TestClassify:
    def run_classify(self, corpus, out, extra=()):
        argv = [
            "classify",
            str(corpus["features"]),
            str(corpus["labels"]),
            str(corpus["split"]),
            "--out",
            str(out),
            *extra,
        ]
        return main(argv)

    def test_perfect_on_signal_corpus(self, corpus, tmp_path, capsys):
        out = tmp_path / "clf"
        assert self.run_classify(corpus, out) == 0
        assert capsys.readouterr().out == "accuracy=1.0000\n"
        assert (out / "model.svm").is_file()
        content = (out / "accuracy.tsv").read_text(encoding="utf-8")
        assert content == "train\t20\ntest\t12\naccuracy\t1.0000\n"

    def test_test_split_fused_after_training_with_train_matrix_freed(
        self, corpus, tmp_path, capsys, monkeypatch
    ):
        events = spy_on_splits(monkeypatch, partkit.cli)
        assert self.run_classify(corpus, tmp_path / "clf") == 0
        capsys.readouterr()
        assert events == [("fuse", True), "trained", ("fuse", True)]

    def test_model_file_reproducible(self, corpus, tmp_path, capsys):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert self.run_classify(corpus, out_a) == 0
        assert self.run_classify(corpus, out_b) == 0
        capsys.readouterr()
        assert (out_a / "model.svm").read_bytes() == (out_b / "model.svm").read_bytes()

    def test_group_subset(self, corpus, tmp_path, capsys):
        out = tmp_path / "clf"
        assert self.run_classify(corpus, out, ["--groups", "original,cropped,head"]) == 0
        assert capsys.readouterr().out == "accuracy=1.0000\n"

    def test_unknown_group_name(self, corpus, tmp_path, capsys):
        assert self.run_classify(corpus, tmp_path / "clf", ["--groups", "beak"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("groups", ["", " , "])
    def test_empty_group_selection_is_config_error(self, corpus, tmp_path, capsys, groups):
        assert self.run_classify(corpus, tmp_path / "clf", ["--groups", groups]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1
        assert not (tmp_path / "clf" / "model.svm").exists()

    @pytest.mark.parametrize(
        "split_value,message", [("0", "no test samples"), ("2", "no training samples")]
    )
    def test_one_sided_split_is_one_error_line(
        self, corpus, tmp_path, capsys, split_value, message
    ):
        ids = [line.split()[0] for line in corpus["split"].read_text(encoding="utf-8").splitlines()]
        split = tmp_path / "split.txt"
        split.write_text("".join(f"{i} {split_value}\n" for i in ids), encoding="utf-8")
        argv = ["classify", str(corpus["features"]), str(corpus["labels"]), str(split)]
        assert main([*argv, "--out", str(tmp_path / "clf")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"

    def test_non_utf8_feature_file_is_one_error_line(self, corpus, tmp_path, capsys):
        lines = corpus["features"].read_bytes().splitlines(keepends=True)
        lines[2] = lines[2].replace(b"\t", b"\t\xff", 1)
        features = tmp_path / "features.tsv"
        features.write_bytes(b"".join(lines))
        argv = ["classify", str(features), str(corpus["labels"]), str(corpus["split"])]
        assert main([*argv, "--out", str(tmp_path / "clf")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1
        assert f"{features}:3:" in err

    def test_missing_feature_file(self, corpus, tmp_path, capsys):
        argv = [
            "classify",
            str(tmp_path / "none.tsv"),
            str(corpus["labels"]),
            str(corpus["split"]),
            "--out",
            str(tmp_path / "clf"),
        ]
        assert main(argv) == 1
        capsys.readouterr()


class TestCombination:
    def test_one_fused_split_at_a_time(self, corpus, capsys, monkeypatch):
        events = spy_on_splits(monkeypatch, partkit.features)
        argv = ["combination", str(corpus["features"]), str(corpus["labels"]), str(corpus["split"])]
        assert main(argv) == 0
        capsys.readouterr()
        # five single parts, then the baseline and five grown combinations
        assert events == [("fuse", True), "trained", ("fuse", True)] * 11

    def test_rows_and_out_file(self, corpus, tmp_path, capsys):
        out = tmp_path / "comb"
        argv = [
            "combination",
            str(corpus["features"]),
            str(corpus["labels"]),
            str(corpus["split"]),
            "--out",
            str(out),
        ]
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        lines = stdout.splitlines()
        assert len(lines) == 7
        assert lines[0].split("\t")[0] == "seq"
        for line in lines[1:]:
            assert len(line.split("\t")) == 9
        assert (out / "combination.tsv").read_text(encoding="utf-8") == stdout

    def test_stdout_reproducible(self, corpus, capsys):
        argv = [
            "combination",
            str(corpus["features"]),
            str(corpus["labels"]),
            str(corpus["split"]),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first


class TestSynth:
    def test_prints_sorted_paths(self, tmp_path, capsys):
        out = tmp_path / "c"
        assert main(["synth", "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        keys = [line.split("=", 1)[0] for line in lines]
        assert keys == sorted(keys)
        assert "dataset" in keys

    def test_requires_out(self, capsys):
        assert main(["synth"]) == 2
        capsys.readouterr()

    def test_seed_override_changes_corpus(self, tmp_path, capsys):
        for seed, name in (("5", "a"), ("5", "b"), ("6", "c")):
            assert main(["synth", "--out", str(tmp_path / name), "--seed", seed]) == 0
        capsys.readouterr()
        a = (tmp_path / "a" / "gt_regions.txt").read_bytes()
        b = (tmp_path / "b" / "gt_regions.txt").read_bytes()
        c = (tmp_path / "c" / "gt_regions.txt").read_bytes()
        assert a == b
        assert a != c

    def test_config_scales_corpus(self, tmp_path, capsys):
        cfg = tmp_path / "toolkit.cfg"
        cfg.write_text("synth_classes=2\nsynth_images_per_class=2\n", encoding="utf-8")
        out = tmp_path / "small"
        assert main(["synth", "--out", str(out), "--config", str(cfg)]) == 0
        capsys.readouterr()
        assert main(["validate", str(out / "dataset")]) == 0
        assert capsys.readouterr().out.startswith("images=4 ")


def test_module_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "partkit.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "gen-regions" in proc.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["gen-regions", "root"],
        ["export-yolo", "root"],
        ["classify", "f.tsv", "l.txt", "s.txt"],
        ["combination", "f.tsv", "l.txt", "s.txt"],
    ],
    ids=lambda argv: argv[0],
)
def test_workers_option_is_a_usage_error_without_traceback(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "partkit.cli", *argv, "--workers", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "unrecognized arguments: --workers 4" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_package_root_loads_no_stage_module():
    code = "import sys, partkit; print(sorted(m for m in sys.modules if m.startswith('partkit.')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"

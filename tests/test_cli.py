"""End-to-end subcommand behavior: exit codes, outputs, determinism."""

from __future__ import annotations

import subprocess
import sys

import pytest

from partkit.cli import main
from conftest import build_tree, toy_images


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

    def test_rerun_and_worker_count_are_byte_identical(self, corpus, tmp_path, capsys):
        outs = [tmp_path / name for name in ("a", "b", "c")]
        for out, workers in zip(outs, ("1", "1", "4")):
            rc = main(
                ["gen-regions", str(corpus["dataset"]), "--out", str(out), "--workers", workers]
            )
            assert rc == 0
        capsys.readouterr()
        assert read_tree(outs[0]) == read_tree(outs[1]) == read_tree(outs[2])


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

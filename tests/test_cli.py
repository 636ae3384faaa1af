"""End-to-end subcommand behavior: exit codes, outputs, determinism."""

from __future__ import annotations

import subprocess
import sys
import weakref

import pytest

import partkit.cli
import partkit.features
import partkit.regions
from partkit.cli import main
from partkit.config import load_config
from partkit.dataset_io import Split, read_split
from partkit.errors import MalformedLine
from partkit.features import FeatureStore
from partkit.geometry import Box
from partkit.parts import GROUP_ORDER, REGION_KINDS
from partkit.regions import read_yolo_labels
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


def count_training(monkeypatch) -> list:
    """Note each ``train_svm`` call in the returned list, whether it is
    looked up in ``partkit.cli`` or in ``partkit.features``."""
    calls = []
    real_train = partkit.features.train_svm

    def train_svm(*args, **kwargs):
        calls.append(1)
        return real_train(*args, **kwargs)

    for module in (partkit.cli, partkit.features):
        monkeypatch.setattr(module, "train_svm", train_svm)
    return calls


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
            # a stage config's rule names its own field, not the config key
            ("synth_images_per_class = 0", "images_per_class must be >= 1"),
            ("synth_image_size = 0", "image_size must be >= 1"),
            ("synth_jitter = -1", "jitter_px must be >= 0"),
            ("synth_score_noise = 1", "score_noise must be in [0, 1)"),
            ("synth_part_dropout = 1", "part_dropout must be in [0, 1)"),
            ("synth_feature_dim = 0", "feature_dim must be >= 1"),
            ("pad_w = -1", "pad factors must be >= 0"),
            ("pad_h = -0.5", "pad factors must be >= 0"),
            ("envelope_scale_tail = 0", "envelope scale for tail must be > 0"),
            ("envelope_scale_leg = -1", "envelope scale for leg must be > 0"),
            ("svm_c = -1", "svm regularization parameter must be > 0"),  # exited 0
            ("svm_c = 0", "svm regularization parameter must be > 0"),  # exited 0
            ("svm_epochs = 0", "epochs must be >= 1"),  # exited 0
        ],
    )
    def test_range_error_names_the_config_file(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{line}\n", encoding="utf-8")
        assert main(["validate", str(tmp_path), "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}:1: bad value for {line.split()[0]}: {message}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("line", ["svm_c = -1", "svm_epochs = 0"])
    def test_classify_rejects_an_svm_setting_at_its_line(self, corpus, tmp_path, capsys, line):
        # the trainer's own check named no file or line
        cfg = tmp_path / "toolkit.cfg"
        cfg.write_text(f"{line}\n", encoding="utf-8")
        out = tmp_path / "out"
        inputs = [str(corpus[name]) for name in ("features", "labels", "split")]
        assert main(["classify", *inputs, "--out", str(out), "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}:1: bad value for {line.split()[0]}: ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_range_error_names_the_line_of_the_key_at_fault(self, tmp_path, capsys):
        # score_min's rule is checked before pad_w's, so the first error
        # raised is score_min's, on line 3
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("pad_w = -1\nseed = 2\nscore_min = 1.5\n", encoding="utf-8")
        assert main(["validate", str(tmp_path), "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            f"error: {cfg}:3: bad value for score_min: score_min must be in [0, 1]\n"
        )

    def test_rule_of_several_keys_names_the_file(self, tmp_path, capsys):
        # each fraction alone breaks the rule too, but with other fractions
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("train_frac = 0.6\nval_frac = 0.1\ntest_frac = 0.4\n", encoding="utf-8")
        assert main(["validate", str(tmp_path), "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            f"error: {cfg}: split fractions must be positive and sum to 1, got (0.6, 0.1, 0.4)\n"
        )

    @pytest.mark.parametrize(
        "line",
        [
            "group_order = original,cropped,head,wing,breast,leg,tail",
            "train_iou_min = 0.6",
            "breast_pad_w = 0.1",
            "breast_pad_h = none",
        ],
    )
    def test_removed_keys_are_unknown(self, tmp_path, capsys, line):
        cfg = tmp_path / "old.cfg"
        cfg.write_text(f"seed = 1\n{line}\n", encoding="utf-8")
        assert main(["validate", str(tmp_path), "--config", str(cfg)]) == 2
        key = line.split(" ")[0]
        assert capsys.readouterr().err == f"error: {cfg}:2: unknown key {key!r}\n"


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
            ("pad_h = -inf", "gen-regions"),
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


    def test_nul_byte_in_image_path(self, tmp_path, capsys):
        root = build_tree(tmp_path / "data", toy_images(2))
        images = root / "images.txt"
        images.write_text("1 001.Synth_001/im\x00g_0001.jpg\n2 b.jpg\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["gen-regions", str(root), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {images}:1: relative_path must name a file")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_inverted_region_box(self, corpus, tmp_path, capsys):
        gt = tmp_path / "gt_regions.txt"
        gt.write_text("1 head 0 0 10 10\n1 tail 5 0 5 10\n", encoding="utf-8")
        assert main(["eval-pcp", str(gt), str(corpus["detections"])]) == 1
        assert capsys.readouterr().err == (
            f"error: {gt}:2: invalid box (5.0, 0.0, 5.0, 10.0): requires x1 < x2 and y1 < y2\n"
        )

    def test_detection_score_out_of_range(self, corpus, tmp_path, capsys):
        detections = tmp_path / "detections.txt"
        detections.write_text("1 head 0.5 0 0 10 10\n1 head 1.5 0 0 10 10\n", encoding="utf-8")
        assert main(["eval-pcp", str(corpus["gt_regions"]), str(detections)]) == 1
        assert capsys.readouterr().err == f"error: {detections}:2: score 1.5 outside [0, 1]\n"

    def test_region_file_with_unknown_images(self, corpus, tmp_path, capsys):
        regions = tmp_path / "regions.txt"
        regions.write_text("1 head 0 0 10 10\n99 head 0 0 10 10\n", encoding="utf-8")
        argv = ["export-yolo", str(corpus["dataset"]), "--regions", str(regions)]
        assert main([*argv, "--out", str(tmp_path / "yolo")]) == 1
        assert capsys.readouterr().err == (
            f"error: {regions}: regions of images not in the dataset: [99]\n"
        )

    def test_store_images_without_labels(self, corpus, tmp_path, capsys):
        lines = corpus["labels"].read_text(encoding="utf-8").splitlines(keepends=True)
        labels = tmp_path / "labels.txt"
        labels.write_text("".join(lines[:-2]), encoding="utf-8")
        missing = [int(line.split()[0]) for line in lines[-2:]]
        argv = ["classify", str(corpus["features"]), str(labels), str(corpus["split"])]
        assert main([*argv, "--out", str(tmp_path / "clf")]) == 1
        assert capsys.readouterr().err == (
            f"error: {labels}: no class label for feature store images {missing}\n"
        )

    @pytest.mark.parametrize("case", ["labels", "unknown regions", "regions beyond", "split"])
    def test_an_error_of_an_argument_file_carries_its_path(self, corpus, tmp_path, case):
        bad = tmp_path / "bad.txt"
        if case == "labels":
            labels = corpus["labels"].read_text(encoding="utf-8")
            bad.write_text(labels.split("\n", 1)[1], encoding="utf-8")
            argv = ["classify", str(corpus["features"]), str(bad), str(corpus["split"])]
        elif case == "split":
            ids = [line.split()[0] for line in corpus["split"].read_text(encoding="utf-8").splitlines()]
            bad.write_text("".join(f"{i} 0\n" for i in ids), encoding="utf-8")
            argv = ["classify", str(corpus["features"]), str(corpus["labels"]), str(bad)]
        else:
            image_id = 99 if case == "unknown regions" else 1
            bad.write_text(f"{image_id} head 150.00 150.00 260.00 270.00\n", encoding="utf-8")
            argv = ["export-yolo", str(corpus["dataset"]), "--regions", str(bad)]
        args = partkit.cli.build_parser().parse_args([*argv, "--out", str(tmp_path / "out")])
        with pytest.raises(MalformedLine) as info:
            args.handler(args, load_config(None))
        assert info.value.path == str(bad) and info.value.line_no is None
        assert str(info.value).startswith(f"{bad}: ")


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

    @pytest.mark.parametrize(
        "setting, kind, file",
        [
            # each leg side is a subnormal multiple of its head, lost in the
            # coordinates of its keypoint
            ("envelope_scale_leg", "leg", "gt_regions.txt"),
            # the crop side is a subnormal fraction of the short side, lost
            # in the coordinates of the image's center
            ("center_crop_fraction", "cropped", "crop_manifest.txt"),
        ],
        ids=["leg", "crop"],
    )
    def test_squares_that_collapse_to_no_area_are_dropped(self, corpus, tmp_path, capsys, setting, kind, file):
        config = tmp_path / "tiny.cfg"
        config.write_text(f"{setting} = 5e-324\n", encoding="utf-8")
        default, tiny = tmp_path / "default", tmp_path / "tiny"
        assert main(["gen-regions", str(corpus["dataset"]), "--out", str(default)]) == 0
        argv = ["gen-regions", str(corpus["dataset"]), "--config", str(config), "--out", str(tiny)]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""

        def kind_of(name, line):  # a label line names its kind by class index
            fields = line.split()
            return REGION_KINDS[int(fields[0])].value if name.startswith("labels/") else fields[1]

        # every file of the default run, less the lines of that kind
        want, got = read_tree(default), read_tree(tiny)
        assert any(kind_of(file, line) == kind for line in want[file].decode().splitlines())
        assert got.keys() == want.keys()
        for name, data in want.items():
            lines = [line for line in data.decode().splitlines() if kind_of(name, line) != kind]
            assert got[name].decode().splitlines() == lines, name

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
    raised before the output directory or any label file is made."""

    @pytest.mark.parametrize(
        "image_lines, ids",
        [
            (["1 a/x.jpg", "2 a/x.png", "3 a/y.jpg"], "1 and 2"),  # only the suffixes differ
            (["1 a/x.jpg", "2 b/y.jpg", "3 a/x.jpg"], "1 and 3"),  # one path twice
            (["1 a//x.jpg", "2 b/y.jpg", "3 a/x.jpg"], "1 and 3"),  # pathlib drops the empty part
            (["1 a/y.jpg", "2 a/x.jpg", "3 a/./x.jpg"], "2 and 3"),  # and the "." part
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
        assert not out.exists()

    @pytest.mark.parametrize(
        "image_lines, file_id, other_id",
        [
            (["1 a/x.jpg", "2 a/x.txt/y.jpg", "3 a/y.jpg"], 1, 2),
            (["1 a/x.txt/y.jpg", "2 a/y.jpg", "3 a/x.jpg"], 3, 1),
        ],
    )
    @pytest.mark.parametrize("command", ["gen-regions", "export-yolo"])
    def test_a_label_file_that_is_another_labels_directory(
        self, tmp_path, capsys, command, image_lines, file_id, other_id
    ):
        # once ended in "error: [Errno 17] File exists" after one label file
        root = tmp_path / "data"
        build_tree(root, toy_images(3))
        (root / "images.txt").write_text("".join(f"{line}\n" for line in image_lines))
        out = tmp_path / "out"
        assert main([command, str(root), "--out", str(out)]) == 1
        label = out / "labels" / "a" / "x.txt"
        assert capsys.readouterr().err == (
            f"error: label file {label} of image {file_id} is also a directory"
            f" holding the label file of image {other_id}\n"
        )
        assert not out.exists()

    def test_gen_regions_writes_no_output(self, tmp_path, capsys):
        root = tmp_path / "data"
        build_tree(root, toy_images(3))
        (root / "images.txt").write_text("1 a/x.jpg\n2 a/x.png\n3 a/y.jpg\n")
        out = tmp_path / "out"
        assert main(["gen-regions", str(root), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen-regions", "export-yolo"])
    def test_missing_out_is_reported_before_generating(self, corpus, capsys, monkeypatch, command):
        calls = []
        monkeypatch.setattr(partkit.cli, "generate_all", lambda *args: calls.append(1))
        assert main([command, str(corpus["dataset"])]) == 2
        err = capsys.readouterr().err
        assert err == "error: no output directory given: pass --out or set out_dir\n"
        assert calls == []

    @pytest.mark.parametrize("command", ["gen-regions", "export-yolo"])
    def test_label_paths_are_checked_once(self, corpus, tmp_path, capsys, monkeypatch, command):
        calls = []
        real_check = partkit.regions._check_label_paths

        def check(*args):
            calls.append(1)
            return real_check(*args)

        monkeypatch.setattr(partkit.regions, "_check_label_paths", check)
        assert main([command, str(corpus["dataset"]), "--out", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        assert calls == [1]


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

    def test_a_region_beyond_its_image_is_an_error_before_any_label(self, corpus, tmp_path, capsys):
        # this region became the label "0 1.025000 1.050000 0.550000 0.600000",
        # which read_yolo_labels rejects
        regions = tmp_path / "regions.txt"
        regions.write_text(
            "2 leg 1.00 1.00 5.00 5.00\n1 head 150.00 150.00 260.00 270.00\n", encoding="utf-8"
        )
        out = tmp_path / "yolo"
        argv = ["export-yolo", str(corpus["dataset"]), "--regions", str(regions), "--out", str(out)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {regions}: the head region of image 1 reaches beyond its 200 x 200 image\n"
        )
        assert captured.out == ""
        assert not (out / "labels").exists()

    @pytest.mark.parametrize(
        "line", ["1 head 1 1 0 0\n", "1 head 150.00 150.00 260.00 270.00\n"], ids=["inverted", "outside"]
    )
    def test_a_bad_region_file_leaves_no_output_directory(self, corpus, tmp_path, capsys, line):
        regions = tmp_path / "bad.txt"
        regions.write_text(line, encoding="utf-8")
        out = tmp_path / "yolobad"
        argv = ["export-yolo", str(corpus["dataset"]), "--regions", str(regions), "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_a_region_on_the_image_edges_reads_back(self, corpus, tmp_path, capsys):
        regions = tmp_path / "regions.txt"
        regions.write_text("1 head 0.00 0.00 200.00 200.00\n", encoding="utf-8")
        out = tmp_path / "yolo"
        argv = ["export-yolo", str(corpus["dataset"]), "--regions", str(regions), "--out", str(out)]
        assert main(argv) == 0
        assert capsys.readouterr().out == "label_files=40\n"
        relative = (corpus["dataset"] / "images.txt").read_text(encoding="utf-8").split("\n")[0].split()[1]
        label = (out / "labels" / relative).with_suffix(".txt")
        assert read_yolo_labels(label, 200, 200) == [(0, Box(0.0, 0.0, 200.0, 200.0))]


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

    def test_missing_ground_truth_file(self, corpus, tmp_path, capsys):
        gt = tmp_path / "none.txt"
        assert main(["eval-pcp", str(gt), str(corpus["detections"])]) == 1
        assert capsys.readouterr().err == f"error: missing required file: {gt}\n"

    def test_the_detections_are_read_first(self, tmp_path, capsys):
        # when both inputs are bad, the error names the detections file
        gt = tmp_path / "gt.txt"
        gt.write_text("1 head 0 0 10 10\n1 tail 5 0 5 10\n", encoding="utf-8")
        dets = tmp_path / "dets.txt"
        dets.write_text("1 head 1.5 0 0 10 10\n", encoding="utf-8")
        assert main(["eval-pcp", str(gt), str(dets)]) == 1
        assert capsys.readouterr().err == f"error: {dets}:1: score 1.5 outside [0, 1]\n"
        assert main(["eval-pcp", str(tmp_path / "no_gt.txt"), str(tmp_path / "no_dets.txt")]) == 1
        assert capsys.readouterr().err == f"error: missing required file: {tmp_path / 'no_dets.txt'}\n"

    def test_a_bad_last_detection_line_fails_with_no_output(self, corpus, tmp_path, capsys):
        # the detections stream into the selection, so the error is met at
        # the end of the file, still before anything is written
        dets = tmp_path / "dets.txt"
        lines = corpus["detections"].read_text(encoding="utf-8").splitlines(keepends=True)
        dets.write_text("".join(lines) + "1 head 0.5 10 0 10 10\n", encoding="utf-8")
        out = tmp_path / "pcp"
        assert main(["eval-pcp", str(corpus["gt_regions"]), str(dets), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: {dets}:{len(lines) + 1}: invalid box (10.0, 0.0, 10.0, 10.0): requires x1 < x2 and y1 < y2"
        ]
        assert not out.exists()

    def test_candidates_are_freed_before_the_ground_truth_is_read(self, corpus, monkeypatch, capsys):
        argv = ["eval-pcp", str(corpus["gt_regions"]), str(corpus["detections"])]
        assert main(argv) == 0
        expected = capsys.readouterr().out

        class Candidates(list):  # a plain list takes no weak reference
            pass

        parsed = []
        alive_at_read = []
        real_parse, real_read = partkit.cli.parse_detections, partkit.cli.read_region_sets

        def parse_detections(path):
            candidates = Candidates(real_parse(path))
            parsed.append(weakref.ref(candidates))
            return candidates

        def read_region_sets(path):
            alive_at_read.append([ref() is not None for ref in parsed])
            return real_read(path)

        monkeypatch.setattr(partkit.cli, "parse_detections", parse_detections)
        monkeypatch.setattr(partkit.cli, "read_region_sets", read_region_sets)
        assert main(argv) == 0
        assert capsys.readouterr().out == expected
        assert alive_at_read == [[False]]  # parsed once, and already freed


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

    def test_missing_out_is_reported_before_training(self, corpus, capsys, monkeypatch):
        calls = count_training(monkeypatch)
        argv = ["classify", str(corpus["features"]), str(corpus["labels"]), str(corpus["split"])]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: no output directory given: pass --out or set out_dir\n"
        assert calls == []

    def test_unusable_out_is_reported_before_training(self, corpus, tmp_path, capsys, monkeypatch):
        calls = count_training(monkeypatch)
        (tmp_path / "file").write_text("", encoding="utf-8")
        assert self.run_classify(corpus, tmp_path / "file" / "clf") == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert calls == []

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

    @pytest.mark.parametrize("groups", ["head,head", ""])
    def test_a_bad_group_selection_leaves_no_output_directory(self, corpus, tmp_path, capsys, groups):
        out = tmp_path / "dup"
        assert self.run_classify(corpus, out, ["--groups", groups]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()
        # the selection is checked before any input is read
        argv = ["classify", str(tmp_path / "missing.tsv"), str(corpus["labels"]), str(corpus["split"])]
        assert main([*argv, "--groups", groups, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: group selection ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "split_value,message", [("0", "no test samples"), ("2", "no training samples")]
    )
    def test_one_sided_split_is_one_error_line(
        self, corpus, tmp_path, capsys, monkeypatch, split_value, message
    ):
        calls = count_training(monkeypatch)
        ids = [line.split()[0] for line in corpus["split"].read_text(encoding="utf-8").splitlines()]
        split = tmp_path / "split.txt"
        split.write_text("".join(f"{i} {split_value}\n" for i in ids), encoding="utf-8")
        argv = ["classify", str(corpus["features"]), str(corpus["labels"]), str(split)]
        assert main([*argv, "--out", str(tmp_path / "clf")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {split}: {message}\n"
        assert calls == []
        assert not (tmp_path / "clf").exists()

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


class TestHeldFeatureStore:
    """``classify`` holds only TRAIN and TEST vectors, but checks every
    record of the feature file as before: a damaged VAL record gives the
    same located error line."""

    def val_record(self, corpus):
        """(the feature file's lines, the index of the first VAL record, its image id)."""
        split = corpus["split"].read_text(encoding="utf-8").split()
        val = {int(i) for i, s in zip(split[::2], split[1::2]) if s == "1"}
        lines = corpus["features"].read_text(encoding="utf-8").splitlines(keepends=True)
        at = next(n for n, line in enumerate(lines) if int(line.split("\t")[0]) in val)
        return lines, at, int(lines[at].split("\t")[0])

    def classify(self, corpus, tmp_path, features=None, labels=None, split=None):
        argv = [
            "classify",
            str(features or corpus["features"]),
            str(labels or corpus["labels"]),
            str(split or corpus["split"]),
            "--out",
            str(tmp_path / "clf"),
        ]
        return main(argv)

    @pytest.mark.parametrize("damage", ["non-numeric", "short", "non-finite", "repeated"])
    def test_a_damaged_val_record_gives_the_located_error(self, corpus, tmp_path, capsys, damage):
        lines, at, image_id = self.val_record(corpus)
        key, group, values = lines[at].rstrip("\n").split("\t")
        values = values.split()
        line_no = at + 1
        if damage == "non-numeric":
            lines[at] = f"{key}\t{group}\t{' '.join(['x1', *values[1:]])}\n"
            message = f"{line_no}: non-numeric feature component"
        elif damage == "short":
            lines[at] = f"{key}\t{group}\t{' '.join(values[:-1])}\n"
            message = f"{line_no}: vector length {len(values) - 1}, store dimension {len(values)}"
        elif damage == "non-finite":
            lines[at] = f"{key}\t{group}\t{' '.join([*values[:-1], 'inf'])}\n"
            message = f"{line_no}: non-finite feature component"
        else:
            lines.insert(at + 1, lines[at])
            message = f"{line_no + 1}: repeated record for {image_id}/{group}"
        features = tmp_path / "features.tsv"
        features.write_text("".join(lines), encoding="utf-8")
        assert self.classify(corpus, tmp_path, features=features) == 1
        assert capsys.readouterr().err == f"error: {features}:{message}\n"

    def test_underscore_digits_in_a_val_record_load(self, corpus, tmp_path, capsys):
        """Digits ``loadtxt`` does not read are a located error, in a VAL
        record as in a held one."""
        lines, at, _ = self.val_record(corpus)
        key, group, values = lines[at].rstrip("\n").split("\t")
        features = tmp_path / "features.tsv"
        for token in ("1_0", "\u0663", "\uff11"):
            lines[at] = f"{key}\t{group}\t{' '.join([token, *values.split()[1:]])}\n"
            features.write_text("".join(lines), encoding="utf-8")
            assert self.classify(corpus, tmp_path, features=features) == 1
            assert capsys.readouterr().err == (
                f"error: {features}:{at + 1}: non-numeric feature component\n"
            )

    def test_a_file_without_val_records_gives_the_same_outputs(self, tmp_path, capsys):
        """VAL vectors never reach a model: ``classify`` and ``combination``
        write the same bytes from a feature file without them."""
        config = tmp_path / "l2.cfg"
        config.write_text("synth_part_dropout = 0.25\nl2_normalize = true\n", encoding="utf-8")
        root = tmp_path / "corpus"
        assert main(["synth", "--config", str(config), "--seed", "5", "--out", str(root)]) == 0
        split = read_split(root / "split.txt")
        lines = (root / "features.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
        kept = [line for line in lines if split[int(line.split("\t")[0])] != Split.VAL]
        assert len(kept) < len(lines)
        (tmp_path / "noval.tsv").write_text("".join(kept), encoding="utf-8")
        outputs = []
        for features in (root / "features.tsv", tmp_path / "noval.tsv"):
            out = tmp_path / features.stem
            inputs = [str(features), str(root / "dataset" / "image_class_labels.txt")]
            inputs += [str(root / "split.txt"), "--config", str(config)]
            groups = ["--groups", "original,cropped,head"]
            assert main(["classify", *inputs, *groups, "--out", str(out / "classify")]) == 0
            assert main(["combination", *inputs, "--out", str(out / "combination")]) == 0
            outputs.append(
                [
                    (out / name).read_bytes()
                    for name in (
                        "classify/model.svm",
                        "classify/accuracy.tsv",
                        "combination/combination.tsv",
                    )
                ]
            )
        capsys.readouterr()
        assert outputs[0] == outputs[1]

    def test_an_unlabeled_val_image_is_an_error(self, corpus, tmp_path, capsys):
        _, _, image_id = self.val_record(corpus)
        lines = corpus["labels"].read_text(encoding="utf-8").splitlines(keepends=True)
        labels = tmp_path / "labels.txt"
        labels.write_text("".join(l for l in lines if int(l.split()[0]) != image_id), "utf-8")
        assert self.classify(corpus, tmp_path, labels=labels) == 1
        assert capsys.readouterr().err == (
            f"error: {labels}: no class label for feature store images [{image_id}]\n"
        )

    @pytest.mark.parametrize("command", ["classify", "combination"])
    def test_a_bad_split_file_is_reported_before_a_bad_feature_file(
        self, corpus, tmp_path, capsys, command
    ):
        features = tmp_path / "features.tsv"
        features.write_text("1\toriginal\tbogus\n", encoding="utf-8")
        split = tmp_path / "split.txt"
        split.write_text("1 0\n2 7\n", encoding="utf-8")
        argv = [command, str(features), str(corpus["labels"]), str(split)]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            f"error: {split}:2: split must be 0, 1 or 2, got '7'\n"
        )

    def test_val_vectors_are_not_held(self, corpus, monkeypatch, tmp_path, capsys):
        split = read_split(corpus["split"])
        full = FeatureStore.load(corpus["features"])
        loaded = []
        real_load = FeatureStore.load.__func__

        def load(cls, *args, **kwargs):
            loaded.append(real_load(cls, *args, **kwargs))
            return loaded[-1]

        monkeypatch.setattr(FeatureStore, "load", classmethod(load))
        assert self.classify(corpus, tmp_path) == 0
        capsys.readouterr()
        (store,) = loaded
        assert store.image_ids == full.image_ids
        assert len(store) == sum(
            1
            for image_id in full.image_ids
            for group in GROUP_ORDER
            if split[image_id] != Split.VAL and full.get(image_id, group) is not None
        ) < len(full)


class TestCombination:
    def test_one_fused_split_at_a_time(self, corpus, capsys, monkeypatch):
        events = spy_on_splits(monkeypatch, partkit.cli)
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

    def test_unusable_out_is_reported_before_training(self, corpus, tmp_path, capsys, monkeypatch):
        calls = count_training(monkeypatch)
        (tmp_path / "file").write_text("", encoding="utf-8")
        argv = ["combination", str(corpus["features"]), str(corpus["labels"]), str(corpus["split"])]
        assert main([*argv, "--out", str(tmp_path / "file" / "comb")]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert calls == []

    @pytest.mark.parametrize(
        "split_value,message", [("0", "no test samples"), ("2", "no training samples")]
    )
    def test_one_sided_split_is_one_error_line(
        self, corpus, tmp_path, capsys, monkeypatch, split_value, message
    ):
        calls = count_training(monkeypatch)
        ids = [line.split()[0] for line in corpus["split"].read_text(encoding="utf-8").splitlines()]
        split = tmp_path / "split.txt"
        split.write_text("".join(f"{i} {split_value}\n" for i in ids), encoding="utf-8")
        argv = ["combination", str(corpus["features"]), str(corpus["labels"]), str(split)]
        assert main([*argv, "--out", str(tmp_path / "comb")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {split}: {message}\n"
        assert calls == []
        assert not (tmp_path / "comb").exists()

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

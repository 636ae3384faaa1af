"""Synthetic corpus generation: determinism, stream alignment, file round-trips."""

from __future__ import annotations

import hashlib
import random

import numpy as np
import pytest

from conftest import boxes_of
from partkit.dataset_io import Split, parse_dataset, parse_detections, read_split
from partkit.detection import compute_pcp, select_all
from partkit.errors import ConfigError
from partkit.features import BASELINE_GROUPS, FeatureStore
from partkit.parts import CUB_PART_NAMES, GROUP_ORDER, KIND_TO_KEYPOINT_NAMES, REGION_KINDS, PartKind
from partkit.regions import RegionConfig, generate_all, read_region_sets
from partkit.seeding import derive_seed
from partkit.synth import (
    TEMPLATE_FRACTIONS,
    SynthConfig,
    synth_corpus,
    synth_dataset,
    synth_detections,
    synth_features,
)


def read_tree(root):
    files = sorted(p for p in root.rglob("*") if p.is_file())
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in files}


class TestDeriveSeed:
    def test_matches_independent_hash_construction(self):
        def oracle(base, label):
            digest = hashlib.blake2b(f"{base}:{label}".encode("utf-8"), digest_size=8)
            return int.from_bytes(digest.digest(), "big")

        for base in (0, 1, 7, 123456789):
            for label in ("dataset", "features", "tie:1", "x"):
                assert derive_seed(base, label) == oracle(base, label)

    def test_frozen_values(self):
        # cross-run / cross-platform stability pins
        assert derive_seed(0, "dataset") == 167123074430172289
        assert derive_seed(7, "dataset") == 10535620488608555709
        assert derive_seed(0, "tie:1") == 2425040376833461145

    def test_distinct_labels_and_bases_disagree(self):
        seeds = {derive_seed(b, lab) for b in range(4) for lab in ("a", "b", "c")}
        assert len(seeds) == 12


class TestSynthConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_classes": 1},
            {"images_per_class": 0},
            {"image_size": 0},
            {"jitter_px": -0.5},
            {"score_noise": 1.0},
            {"part_dropout": 1.0},
            {"part_dropout": -0.1},
            {"dropout_overrides": {"nostril": 0.5}},
            {"dropout_overrides": {"leg": 1.5}},
            {"feature_dim": 0},
        ],
    )
    def test_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            SynthConfig(**kwargs)

    def test_override_may_force_cluster_invisible(self):
        cfg = SynthConfig(dropout_overrides={"leg": 1.0})
        assert cfg.dropout_overrides["leg"] == 1.0


class TestSynthDataset:
    def test_shape_and_visibility_at_zero_dropout(self):
        cfg = SynthConfig(num_classes=2, images_per_class=3)
        dataset = synth_dataset(cfg)
        assert len(dataset.images) == 6
        total = sum(len(row) for row in dataset.keypoints.values())
        assert total == 6 * 15
        assert all(kp.visible for row in dataset.keypoints.values() for kp in row)
        assert dataset.images[1].class_id == 1
        assert dataset.images[4].class_id == 2
        assert dataset.images[1].relative_path == "001.Synth_001/img_0001.jpg"
        assert dataset.class_names[2] == "002.Synth_002"

    def test_keypoints_inside_image(self):
        cfg = SynthConfig(num_classes=3, images_per_class=5, image_size=120, seed=5)
        dataset = synth_dataset(cfg)
        for row in dataset.keypoints.values():
            for kp in row:
                if kp.visible:
                    assert 0.0 <= kp.x <= 120.0
                    assert 0.0 <= kp.y <= 120.0

    def test_layout_scales_differ_between_images(self):
        dataset = synth_dataset(SynthConfig(num_classes=2, images_per_class=2))
        # rows are in CUB_PART_NAMES order
        beak = CUB_PART_NAMES.index("beak")
        tail = CUB_PART_NAMES.index("tail")
        spans = set()
        for image_id in dataset.image_ids():
            row = dataset.keypoints[image_id]
            spans.add(round(row[beak].x - row[tail].x, 2))
        assert len(spans) > 1  # per-image scale draws actually vary

    def test_layout_matches_template_geometry(self):
        dataset = synth_dataset(SynthConfig(num_classes=2, images_per_class=1, seed=3))
        for image_id in dataset.image_ids():
            kps = dict(zip(CUB_PART_NAMES, dataset.keypoints[image_id]))
            # template is affine per image: relative order along x must hold
            assert kps["tail"].x < kps["back"].x < kps["breast"].x < kps["beak"].x
            assert kps["crown"].y < kps["throat"].y < kps["belly"].y

    def test_dropout_override_hides_whole_cluster(self):
        cfg = SynthConfig(num_classes=2, images_per_class=4, dropout_overrides={"leg": 1.0})
        dataset = synth_dataset(cfg)
        left = CUB_PART_NAMES.index("left leg")
        right = CUB_PART_NAMES.index("right leg")
        for row in dataset.keypoints.values():
            assert not row[left].visible
            assert not row[right].visible
        region_sets = generate_all(dataset, RegionConfig())
        assert all(PartKind.LEG not in boxes_of(region_sets, i) for i in region_sets)
        assert all(PartKind.HEAD in boxes_of(region_sets, i) for i in region_sets)

    def test_written_tree_parses_back_and_is_reproducible(self, tmp_path):
        cfg = SynthConfig(num_classes=2, images_per_class=3, seed=11)
        synth_dataset(cfg, tmp_path / "a")
        synth_dataset(cfg, tmp_path / "b")
        tree_a, tree_b = read_tree(tmp_path / "a"), read_tree(tmp_path / "b")
        assert tree_a == tree_b
        assert set(tree_a) == {
            "images.txt",
            "image_class_labels.txt",
            "classes.txt",
            "image_sizes.txt",
            "parts/parts.txt",
            "parts/part_locs.txt",
        }
        parsed = parse_dataset(tmp_path / "a")
        assert len(parsed.images) == 6
        assert parsed.part_names == {i: n for i, n in enumerate(CUB_PART_NAMES, start=1)}

    def test_seed_changes_layout(self):
        a = synth_dataset(SynthConfig(seed=0))
        b = synth_dataset(SynthConfig(seed=1))
        assert a.keypoints[1] != b.keypoints[1]


class TestSynthDetections:
    def _region_sets(self, seed=0, n_classes=2, per_class=3):
        dataset = synth_dataset(SynthConfig(num_classes=n_classes, images_per_class=per_class, seed=seed))
        return generate_all(dataset, RegionConfig())

    def test_zero_noise_matches_ground_truth_exactly(self):
        region_sets = self._region_sets()
        dets = synth_detections(region_sets)
        total_regions = region_sets.num_regions
        assert len(dets) == total_regions
        for det in dets:
            gt = boxes_of(region_sets, det.image_id)[det.kind]
            assert det.score == 1.0
            assert (det.box.x1, det.box.y1, det.box.x2, det.box.y2) == (
                round(gt.x1, 2),
                round(gt.y1, 2),
                round(gt.x2, 2),
                round(gt.y2, 2),
            )

    def test_same_seed_reproduces_jittered_stream(self):
        region_sets = self._region_sets()
        a = synth_detections(region_sets, jitter_px=4.0, score_noise=0.3, seed=5)
        b = synth_detections(region_sets, jitter_px=4.0, score_noise=0.3, seed=5)
        c = synth_detections(region_sets, jitter_px=4.0, score_noise=0.3, seed=6)
        assert a == b
        assert a != c

    def test_score_noise_bounds(self):
        region_sets = self._region_sets(per_class=10)
        dets = synth_detections(region_sets, score_noise=0.5, seed=1)
        scores = [d.score for d in dets]
        assert min(scores) >= 0.5
        assert max(scores) <= 1.0
        assert len(set(scores)) > 1

    def test_distractors_lose_selection_and_keep_pcp_perfect(self):
        region_sets = self._region_sets()
        plain = synth_detections(region_sets)
        with_decoys = synth_detections(region_sets, distractor_score=0.2)
        assert len(with_decoys) == 2 * len(plain)
        selected = select_all(with_decoys, 0.3)
        report = compute_pcp(selected, region_sets, 0.5)
        assert report.per_kind
        assert all(entry.pcp == 1.0 for entry in report.per_kind.values())

    def test_parameter_validation(self):
        region_sets = self._region_sets()
        with pytest.raises(ConfigError):
            synth_detections(region_sets, jitter_px=-1.0)
        with pytest.raises(ConfigError):
            synth_detections(region_sets, score_noise=1.0)
        with pytest.raises(ConfigError):
            synth_detections(region_sets, distractor_score=1.5)


def synth_features_reference(cfg: SynthConfig, dataset):
    """The per-value ``Random.uniform`` form ``synth_features`` replaced: a
    zero vector, the marker set to 2.0, then the noise array added."""
    rng = random.Random(derive_seed(cfg.seed, "features"))
    records = []
    for image_id in dataset.image_ids():
        class_id = dataset.images[image_id].class_id
        row = dataset.keypoints[image_id]
        visible_names = {name for name, kp in zip(CUB_PART_NAMES, row) if kp.visible}
        for group in GROUP_ORDER:
            if group in REGION_KINDS and not (KIND_TO_KEYPOINT_NAMES[group] & visible_names):
                continue
            vector = np.zeros(cfg.feature_dim, dtype=np.float64)
            if group in cfg.signal_groups:
                vector[(class_id - 1) % cfg.feature_dim] = 2.0
                noise = [rng.uniform(-0.1, 0.1) for _ in range(cfg.feature_dim)]
            else:
                noise = [rng.uniform(-1.0, 1.0) for _ in range(cfg.feature_dim)]
            vector += np.array(noise)
            records.append((image_id, group, vector))
    return records


class TestSynthFeatures:
    @pytest.mark.parametrize(
        "cfg",
        [
            SynthConfig(num_classes=5, images_per_class=4, feature_dim=7, seed=3),
            SynthConfig(num_classes=3, images_per_class=6, feature_dim=1, part_dropout=0.5, seed=8),
            SynthConfig(
                num_classes=4,
                images_per_class=3,
                feature_dim=16,
                signal_groups=frozenset({PartKind.HEAD, PartKind.ORIGINAL}),
                dropout_overrides={"leg": 1.0},
                seed=11,
            ),
        ],
    )
    def test_noise_is_the_random_uniform_stream(self, cfg):
        dataset = synth_dataset(cfg)
        actual = synth_features(cfg, dataset)
        expected = synth_features_reference(cfg, dataset)
        assert [(i, g) for i, g, _ in actual] == [(i, g) for i, g, _ in expected]
        for (_, _, a), (_, _, b) in zip(actual, expected):
            assert a.dtype == b.dtype == np.float64
            assert a.tobytes() == b.tobytes()

    def test_signal_structure(self):
        cfg = SynthConfig(num_classes=3, images_per_class=2, feature_dim=8)
        dataset = synth_dataset(cfg)
        records = synth_features(cfg, dataset)
        assert len(records) == len(dataset.images) * len(GROUP_ORDER)
        for image_id, group, vector in records:
            class_id = dataset.images[image_id].class_id
            hot = (class_id - 1) % cfg.feature_dim
            assert vector.size == 8
            assert vector[hot] >= 1.9
            others = np.delete(vector, hot)
            assert np.max(np.abs(others)) <= 0.1

    def test_non_signal_groups_are_bounded_noise(self):
        cfg = SynthConfig(
            num_classes=2, images_per_class=3, feature_dim=8, signal_groups=frozenset({PartKind.HEAD})
        )
        records = synth_features(cfg, synth_dataset(cfg))
        for _, group, vector in records:
            if group is PartKind.HEAD:
                assert np.max(vector) >= 1.9
            else:
                assert np.max(np.abs(vector)) <= 1.0

    def test_dropped_cluster_has_no_part_records(self):
        cfg = SynthConfig(num_classes=2, images_per_class=3, dropout_overrides={"wing": 1.0})
        records = synth_features(cfg, synth_dataset(cfg))
        groups_seen = {g for _, g, _ in records}
        assert PartKind.WING not in groups_seen
        per_image = {}
        for image_id, group, _ in records:
            per_image.setdefault(image_id, set()).add(group)
        for groups in per_image.values():
            assert set(BASELINE_GROUPS) <= groups

    def test_deterministic(self):
        cfg = SynthConfig(num_classes=2, images_per_class=2, seed=21)
        dataset = synth_dataset(cfg)
        a = synth_features(cfg, dataset)
        b = synth_features(cfg, dataset)
        assert len(a) == len(b)
        for (ia, ga, va), (ib, gb, vb) in zip(a, b):
            assert (ia, ga) == (ib, gb)
            np.testing.assert_array_equal(va, vb)


class TestSynthCorpus:
    def test_outputs_exist_and_parse(self, tmp_path):
        cfg = SynthConfig(num_classes=4, images_per_class=10, seed=0)
        paths = synth_corpus(cfg, tmp_path / "corpus", RegionConfig(), (0.5, 0.2, 0.3))
        assert set(paths) == {
            "dataset",
            "split",
            "gt_regions",
            "crop_manifest",
            "detections",
            "features",
        }
        for p in paths.values():
            assert p.exists()

        dataset = parse_dataset(paths["dataset"])
        assert len(dataset.images) == 40

        assignments = read_split(paths["split"])
        counts = {s: 0 for s in Split}
        for s in assignments.values():
            counts[s] += 1
        assert counts == {Split.TRAIN: 20, Split.VAL: 8, Split.TEST: 12}

        region_sets = read_region_sets(paths["gt_regions"])
        assert set(region_sets) <= set(dataset.images)
        detections = parse_detections(paths["detections"])
        store = FeatureStore.load(paths["features"])
        assert store.dim == cfg.feature_dim
        assert store.image_ids == frozenset(dataset.images)

        # zero jitter: every generated detection localizes its region
        report = compute_pcp(select_all(detections, 0.3), region_sets, 0.5)
        assert set(report.per_kind) == set(REGION_KINDS)
        assert all(entry.pcp == 1.0 for entry in report.per_kind.values())

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = SynthConfig(num_classes=2, images_per_class=5, jitter_px=2.0, score_noise=0.4, seed=3)
        synth_corpus(cfg, tmp_path / "a", RegionConfig(), (0.5, 0.2, 0.3))
        synth_corpus(cfg, tmp_path / "b", RegionConfig(), (0.5, 0.2, 0.3))
        assert read_tree(tmp_path / "a") == read_tree(tmp_path / "b")

    def test_seed_changes_outputs(self, tmp_path):
        synth_corpus(SynthConfig(seed=0), tmp_path / "a", RegionConfig(), (0.5, 0.2, 0.3))
        synth_corpus(SynthConfig(seed=1), tmp_path / "b", RegionConfig(), (0.5, 0.2, 0.3))
        a = (tmp_path / "a" / "gt_regions.txt").read_bytes()
        b = (tmp_path / "b" / "gt_regions.txt").read_bytes()
        assert a != b

    def test_region_config_and_ratios_have_no_defaults(self, tmp_path):
        # a default once drew leg ties from the corpus seed, where
        # `partkit synth` draws them from tie_seed
        with pytest.raises(TypeError):
            synth_corpus(SynthConfig(seed=3), tmp_path / "corpus")
        assert not (tmp_path / "corpus").exists()


def test_template_covers_all_parts():
    assert set(TEMPLATE_FRACTIONS) == set(CUB_PART_NAMES)
    for fx, fy in TEMPLATE_FRACTIONS.values():
        assert 0.0 < fx < 1.0
        assert 0.0 < fy < 1.0

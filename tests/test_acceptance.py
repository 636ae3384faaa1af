"""Acceptance gate: ten pipeline-level criteria checked against independent
oracles, with one visible PASS/FAIL line per criterion.

Each criterion is one test; tolerances and runtime budgets are stated
inline.  Oracles here are reimplemented from scratch (cell counting on an
integer grid, direct recounts, closed-form IoU of shifted boxes) rather
than calling back into the code under test.
"""

from __future__ import annotations

import hashlib
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import boxes_of
from partkit.cli import combination_study, main
from partkit.dataset_io import Split, parse_dataset, parse_detections, split_dataset
from partkit.detection import Detection, compute_pcp, select_all
from partkit.features import (
    BASELINE_GROUPS,
    FeatureStore,
    evaluate_accuracy,
    fuse,
    load_model,
    predict,
    save_model,
    train_svm,
)
from partkit.geometry import Box, iou
from partkit.parts import GROUP_ORDER, REGION_KINDS, PartKind
from partkit.regions import (
    RegionConfig,
    cluster_region,
    eliminate_redundant,
    export_yolo_labels,
    generate_all,
    read_region_sets,
    read_yolo_labels,
)
from partkit.seeding import derive_seed
from partkit.synth import SynthConfig, synth_corpus, synth_dataset, synth_detections, synth_features


@pytest.fixture
def report(capsys):
    @contextmanager
    def _report(name):
        ok = False
        try:
            yield
            ok = True
        finally:
            with capsys.disabled():
                print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")

    return _report


def store_of(records, dim):
    return FeatureStore({(i, g): v for i, g, v in records}, dim)


def samples_of(rows):
    """The FusedMatrix of (image_id, values) rows under the single group
    ORIGINAL, fused from a store that holds each row."""
    store = store_of([(i, PartKind.ORIGINAL, v) for i, v in rows], len(rows[0][1]))
    return fuse(store, [image_id for image_id, _ in rows], (PartKind.ORIGINAL,))


def tree_digest(root):
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def test_01_iou_oracle_equivalence(report):
    """10,000 integer box pairs on a 64x64 grid vs cell counting, <= 1e-12, < 5 s."""
    with report("1 iou-oracle-equivalence"):

        def random_cells(rng):
            x1 = rng.randrange(0, 64)
            x2 = rng.randrange(x1 + 1, 65)
            y1 = rng.randrange(0, 64)
            y2 = rng.randrange(y1 + 1, 65)
            return x1, y1, x2, y2

        def mask(cells):
            grid = np.zeros((64, 64), dtype=bool)
            grid[cells[1] : cells[3], cells[0] : cells[2]] = True
            return grid

        rng = random.Random(2024)
        started = time.perf_counter()
        for _ in range(10_000):
            a, b = random_cells(rng), random_cells(rng)
            mask_a, mask_b = mask(a), mask(b)
            oracle = (mask_a & mask_b).sum() / (mask_a | mask_b).sum()
            got = iou(Box(*map(float, a)), Box(*map(float, b)))
            assert abs(got - oracle) <= 1e-12
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0


def test_02_padded_rect_exactness(report):
    """1,000 keypoint sets, pads in [0,1]: dims exact to 1e-9 rel, points inside."""
    with report("2 padded-rect-exactness"):
        rng = random.Random(7)
        for _ in range(1_000):
            while True:
                points = [
                    (rng.uniform(0, 500), rng.uniform(0, 500))
                    for _ in range(rng.randint(2, 8))
                ]
                xs = [p[0] for p in points]
                ys = [p[1] for p in points]
                width = max(xs) - min(xs)
                height = max(ys) - min(ys)
                if width > 0.01 and height > 0.01:
                    break
            pad_w, pad_h = rng.uniform(0, 1), rng.uniform(0, 1)
            cfg = RegionConfig(pad_w=pad_w, pad_h=pad_h)
            # bounds that hold every padded rectangle, so none is clipped
            rect = cluster_region(points, Box(-1e6, -1e6, 1e6, 1e6), cfg)
            assert rect.width == pytest.approx((1 + pad_w) * width, rel=1e-9)
            assert rect.height == pytest.approx((1 + pad_h) * height, rel=1e-9)
            for x, y in points:
                assert rect.x1 <= x <= rect.x2 and rect.y1 <= y <= rect.y2


def test_03_redundancy_elimination(report):
    """Min-overlap candidate always wins; exact ties are a pure function of the seed."""
    with report("3 redundancy-elimination"):
        rng = random.Random(11)
        for _ in range(1_000):
            x = rng.uniform(0, 100)
            y = rng.uniform(0, 100)
            w = rng.uniform(5, 40)
            h = rng.uniform(5, 40)
            fixed = Box(x, y, x + w, y + h)
            shift = rng.uniform(0.3, 0.7)
            overlapping = Box(
                x + shift * w, y + shift * h, x + (1 + shift) * w, y + (1 + shift) * h
            )
            disjoint = Box(x + 3 * w, y, x + 4 * w, y + h)
            tie_rng = random.Random(0)
            assert eliminate_redundant([overlapping, disjoint], [fixed], tie_rng) == disjoint
            tie_rng = random.Random(0)
            assert eliminate_redundant([disjoint, overlapping], [fixed], tie_rng) == disjoint

        # both candidates disjoint from the fixed region: score tie
        fixed = Box(40, 40, 60, 60)
        left = Box(0, 0, 10, 10)
        right = Box(90, 90, 100, 100)
        winners = set()
        for tie_seed in range(50):
            first = eliminate_redundant([left, right], [fixed], random.Random(tie_seed))
            second = eliminate_redundant([left, right], [fixed], random.Random(tie_seed))
            assert first == second
            winners.add(first)
        assert winners == {left, right}


def test_04_threshold_semantics(report):
    """Strictly-greater confidence floor; selection monotone over a 101-value sweep."""
    with report("4 threshold-semantics"):
        for score, admitted in ((0.31, True), (0.30, False), (0.29, False)):
            dets = [Detection(1, PartKind.HEAD, score, 0, 0, 10, 10)]
            assert (select_all(dets, 0.3)[1] == (dets[0],)) is admitted

        cfg = SynthConfig(num_classes=5, images_per_class=10, seed=2)
        dataset = synth_dataset(cfg)
        region_sets = generate_all(dataset, RegionConfig())
        detections = synth_detections(region_sets, score_noise=0.6, seed=9)
        total = region_sets.num_regions
        counts = []
        for step in range(101):
            selected = select_all(detections, step / 100)
            counts.append(sum(len(per_image) for per_image in selected.values()))
        assert counts[0] == total
        assert counts[100] == 0
        assert all(later <= earlier for earlier, later in zip(counts, counts[1:]))


def test_05_end_to_end_pcp(report, tmp_path):
    """Zero-noise corpus scores 1.0000 everywhere; all-IoU-in-[0.3,0.4] scores 0.0000.  < 10 s."""
    with report("5 end-to-end-pcp"):
        started = time.perf_counter()
        paths = synth_corpus(SynthConfig(), tmp_path / "corpus", RegionConfig(), (0.5, 0.2, 0.3))
        ground_truth = read_region_sets(paths["gt_regions"])
        detections = parse_detections(paths["detections"])
        report_perfect = compute_pcp(select_all(detections, 0.3), ground_truth, 0.5)
        assert set(report_perfect.per_kind) == set(REGION_KINDS)
        assert all(entry.pcp == 1.0 for entry in report_perfect.per_kind.values())

        # shift every box along x by fraction d of its width:
        # intersection (1-d)wh, union (1+d)wh, so IoU = (1-d)/(1+d) = 0.35
        d = 0.4815
        shifted = {}
        for image_id in ground_truth:
            per_image = []  # in REGION_KINDS order, as select_all returns them
            for kind, gt in boxes_of(ground_truth, image_id).items():
                offset = d * gt.width
                moved = Box(gt.x1 + offset, gt.y1, gt.x2 + offset, gt.y2)
                overlap = iou(moved, gt)
                assert 0.3 <= overlap <= 0.4
                per_image.append(Detection(image_id, kind, 1.0, moved.x1, moved.y1, moved.x2, moved.y2))
            shifted[image_id] = tuple(per_image)
        report_shifted = compute_pcp(shifted, ground_truth, 0.5)
        assert set(report_shifted.per_kind) == set(REGION_KINDS)
        assert all(entry.pcp == 0.0 for entry in report_shifted.per_kind.values())
        assert time.perf_counter() - started < 10.0


def test_06_fusion_layout(report):
    """All 32 part-presence patterns zero-fill exactly; 7 x 2048 fuses to 14336."""
    with report("6 fusion-layout"):
        dim = 4
        base = {
            group: np.arange(dim, dtype=float) + 10.0 * (slot + 1)
            for slot, group in enumerate(GROUP_ORDER)
        }
        part_kinds = [g for g in GROUP_ORDER if g not in BASELINE_GROUPS]
        for pattern in range(32):
            absent = {part_kinds[i] for i in range(5) if pattern >> i & 1}
            store = FeatureStore(
                {(1, g): base[g] for g in GROUP_ORDER if g not in absent}, dim
            )
            fused = fuse(store, [1], GROUP_ORDER)
            assert fused.vectors.shape == (1, 7 * dim)
            assert fused.groups == GROUP_ORDER
            assert frozenset(g for g, p in zip(GROUP_ORDER, fused.present[0]) if p) == (
                frozenset(GROUP_ORDER) - absent
            )
            for slot, group in enumerate(GROUP_ORDER):
                block = fused.vectors[0, slot * dim : (slot + 1) * dim]
                if group in absent:
                    assert np.all(block == 0.0)
                else:
                    np.testing.assert_array_equal(block, base[group])

        wide = FeatureStore({(1, g): np.ones(2048) for g in GROUP_ORDER}, 2048)
        assert fuse(wide, [1], GROUP_ORDER).vectors.shape == (1, 14336)


def test_07_svm_separability(report):
    """Head-only signal separates 4x20 at 100%; pure noise stays near chance.  < 30 s."""
    with report("7 svm-separability"):
        started = time.perf_counter()
        cfg = SynthConfig(num_classes=4, images_per_class=20, seed=0)
        dataset = synth_dataset(cfg)
        labels = {i: img.class_id for i, img in dataset.images.items()}
        split = split_dataset(dataset, (0.5, 0.25, 0.25), seed=derive_seed(0, "split"))
        train_ids = sorted(i for i, s in split.items() if s is Split.TRAIN)
        test_ids = sorted(i for i, s in split.items() if s is Split.TEST)
        assert len(train_ids) == 40
        assert len(test_ids) == 20

        signal = store_of(synth_features(cfg, dataset), cfg.feature_dim)
        head_spec = (PartKind.HEAD,)
        train = fuse(signal, train_ids, head_spec)
        test = fuse(signal, test_ids, head_spec)
        model = train_svm(train, labels, seed=derive_seed(0, "svm"))
        assert evaluate_accuracy(model, test, labels) == 1.0

        noise_cfg = SynthConfig(
            num_classes=4, images_per_class=20, signal_groups=frozenset(), seed=0
        )
        noise = store_of(synth_features(noise_cfg, dataset), cfg.feature_dim)
        train_n = fuse(noise, train_ids, GROUP_ORDER)
        test_n = fuse(noise, test_ids, GROUP_ORDER)
        model_n = train_svm(train_n, labels, seed=derive_seed(0, "svm"))
        accuracy_n = evaluate_accuracy(model_n, test_n, labels)
        sigma = (0.25 * 0.75 / len(test_ids)) ** 0.5
        assert abs(accuracy_n - 0.25) <= 3 * sigma
        assert time.perf_counter() - started < 30.0


def test_08_combination_shape(report):
    """Signal parts help in order; noise-only additions stay inside a measured bound."""
    with report("8 combination-shape"):
        cfg = SynthConfig(
            num_classes=4,
            images_per_class=20,
            signal_groups=frozenset({PartKind.HEAD, PartKind.WING}),
            seed=1,
        )
        dataset = synth_dataset(cfg)
        labels = {i: img.class_id for i, img in dataset.images.items()}
        split = split_dataset(dataset, (0.5, 0.25, 0.25), seed=derive_seed(1, "split"))
        store = store_of(synth_features(cfg, dataset), cfg.feature_dim)
        n_test = sum(1 for s in split.values() if s is Split.TEST)

        def run(svm_seed):
            # the stronger regularizer keeps the subgradient trajectory tame
            # enough that every signal-bearing combination saturates
            return combination_study(store, labels, split, c=0.1, seed=svm_seed)

        groups, accuracy = zip(*run(0))
        assert len(groups) == 6
        assert groups[0] == BASELINE_GROUPS
        assert set(groups[1]) == set(BASELINE_GROUPS) | {PartKind.HEAD}
        assert set(groups[2]) == set(BASELINE_GROUPS) | {PartKind.HEAD, PartKind.WING}
        assert accuracy[0] < accuracy[1]
        assert accuracy[1] <= accuracy[2]

        # noise bound: biggest accuracy swing a noise-only addition produces
        # across five independently seeded training runs, plus one test image
        deltas = []
        for svm_seed in (101, 102, 103, 104, 105):
            explore = [a for _, a in run(svm_seed)]
            for k in (2, 3, 4):
                deltas.append(abs(explore[k + 1] - explore[k]))
        bound = max(deltas) + 1.0 / n_test
        for k in (2, 3, 4):
            assert abs(accuracy[k + 1] - accuracy[k]) <= bound


def test_09_cli_determinism(report, tmp_path, capsys):
    """Every subcommand reruns byte-identically, including across worker counts."""
    with report("9 cli-determinism"):
        corpus_a, corpus_b = tmp_path / "synth_a", tmp_path / "synth_b"
        assert main(["synth", "--out", str(corpus_a), "--seed", "3"]) == 0
        assert main(["synth", "--out", str(corpus_b), "--seed", "3"]) == 0
        assert tree_digest(corpus_a) == tree_digest(corpus_b)
        capsys.readouterr()

        dataset = str(corpus_a / "dataset")
        gt = str(corpus_a / "gt_regions.txt")
        dets = str(corpus_a / "detections.txt")
        features = str(corpus_a / "features.tsv")
        labels = str(corpus_a / "dataset" / "image_class_labels.txt")
        split = str(corpus_a / "split.txt")

        assert main(["validate", dataset]) == 0
        first = capsys.readouterr().out
        assert main(["validate", dataset]) == 0
        assert capsys.readouterr().out == first

        regions = [tmp_path / name for name in ("regions_a", "regions_b", "regions_c")]
        for out in regions:
            assert main(["gen-regions", dataset, "--out", str(out)]) == 0
        assert tree_digest(regions[0]) == tree_digest(regions[1]) == tree_digest(regions[2])

        yolos = [tmp_path / name for name in ("yolo_a", "yolo_b")]
        for out in yolos:
            assert main(["export-yolo", dataset, "--regions", gt, "--out", str(out)]) == 0
        assert tree_digest(yolos[0]) == tree_digest(yolos[1])

        pcps = [tmp_path / name for name in ("pcp_a", "pcp_b")]
        for out in pcps:
            assert main(["eval-pcp", gt, dets, "--out", str(out)]) == 0
        assert tree_digest(pcps[0]) == tree_digest(pcps[1])

        classifies = [tmp_path / name for name in ("clf_a", "clf_b", "clf_c")]
        for out in classifies:
            assert main(["classify", features, labels, split, "--out", str(out)]) == 0
        assert tree_digest(classifies[0]) == tree_digest(classifies[1]) == tree_digest(classifies[2])

        combos = [tmp_path / name for name in ("comb_a", "comb_b")]
        for out in combos:
            assert main(["combination", features, labels, split, "--out", str(out)]) == 0
        assert tree_digest(combos[0]) == tree_digest(combos[1])
        capsys.readouterr()


def test_10_format_round_trips(report, tmp_path):
    """Dataset, detector label, and model files all survive write-then-read."""
    with report("10 format-round-trips"):
        cfg = SynthConfig(num_classes=3, images_per_class=4, seed=5)
        dataset = synth_dataset(cfg, tmp_path / "ds")
        assert parse_dataset(tmp_path / "ds") == dataset

        region_sets = generate_all(dataset, RegionConfig())
        written = export_yolo_labels(region_sets, dataset.images, tmp_path / "labels")
        assert len(written) == len(dataset.images)
        by_image = {}
        for image_id in sorted(dataset.images):
            image = dataset.images[image_id]
            path = (tmp_path / "labels" / image.relative_path).with_suffix(".txt")
            by_image[image_id] = read_yolo_labels(path, image.width, image.height)
        for image_id in region_sets:
            image = dataset.images[image_id]
            originals = [
                (REGION_KINDS.index(kind), box) for kind, box in boxes_of(region_sets, image_id).items()
            ]
            recovered = by_image[image_id]
            assert [idx for idx, _ in recovered] == [idx for idx, _ in originals]
            for (_, got), (_, want) in zip(recovered, originals):
                # stated tolerance: 1e-4 px per 100 px of image dimension
                assert abs(got.x1 - want.x1) <= 1e-6 * image.width
                assert abs(got.x2 - want.x2) <= 1e-6 * image.width
                assert abs(got.y1 - want.y1) <= 1e-6 * image.height
                assert abs(got.y2 - want.y2) <= 1e-6 * image.height

        rng = random.Random(23)
        rows = []
        labels = {}
        for image_id in range(1, 41):
            class_id = (image_id - 1) % 4 + 1
            values = [rng.uniform(-0.1, 0.1) for _ in range(6)]
            values[class_id - 1] += 2.0
            rows.append((image_id, values))
            labels[image_id] = class_id
        model = train_svm(samples_of(rows), labels, c=0.7, epochs=25, seed=4)
        save_model(model, tmp_path / "model.svm")
        loaded = load_model(tmp_path / "model.svm")
        for _ in range(100):
            probe = np.array([rng.uniform(-3, 3) for _ in range(6)])
            assert predict(loaded, probe) == predict(model, probe)

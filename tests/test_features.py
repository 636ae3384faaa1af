"""Feature store, zero-filled fusion, linear SVM, and the combination study."""

from __future__ import annotations

import random
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partkit.dataset_io import Split
from partkit.errors import (
    ConfigError,
    DimensionMismatch,
    DuplicateKey,
    EmptyTestSet,
    EmptyTrainingSet,
    InputError,
    MalformedLine,
    MissingFile,
    SingleClass,
    ToolkitError,
    UnknownImage,
)
from partkit.features import (
    BASELINE_GROUPS,
    CombinationSpec,
    FeatureStore,
    FusedVector,
    SvmModel,
    decision_scores,
    evaluate_accuracy,
    fuse,
    load_model,
    normalize_groups,
    predict,
    run_combination_experiment,
    save_model,
    train_svm,
    write_feature_records,
)
from partkit.parts import GROUP_ORDER, PartKind

DIM = 4


def store_from_rows(rows, path):
    path.write_text("".join(rows), encoding="utf-8")
    return FeatureStore.load(path)


def full_store(tmp_path, image_ids=(1, 2), dim=DIM, skip=()):
    """One record per (image, group) with distinctive values."""
    records = []
    for image_id in image_ids:
        for gi, group in enumerate(GROUP_ORDER):
            if (image_id, group) in skip:
                continue
            vector = np.arange(dim, dtype=float) + 10 * image_id + 100 * gi
            records.append((image_id, group, vector))
    path = tmp_path / "features.tsv"
    write_feature_records(records, path)
    return FeatureStore.load(path)


class TestFeatureStore:
    def test_load_counts_and_lookup(self, tmp_path):
        store = full_store(tmp_path)
        assert len(store) == 14
        assert store.dim == DIM
        assert store.image_ids == frozenset({1, 2})
        head = store.get(1, PartKind.HEAD)
        assert head is not None
        np.testing.assert_allclose(head, np.arange(DIM) + 10 + 200)
        assert store.get(1, PartKind.TAIL) is not None
        assert store.get(3, PartKind.HEAD) is None

    def test_write_read_round_trip_at_six_decimals(self, tmp_path):
        rng = random.Random(5)
        records = [
            (i, g, np.array([rng.uniform(-3, 3) for _ in range(DIM)]))
            for i in (1, 2)
            for g in (PartKind.ORIGINAL, PartKind.WING)
        ]
        path = tmp_path / "f.tsv"
        write_feature_records(records, path)
        store = FeatureStore.load(path)
        for image_id, group, vector in records:
            np.testing.assert_allclose(store.get(image_id, group), vector, atol=5e-7)

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingFile):
            FeatureStore.load(tmp_path / "absent.tsv")

    def test_empty_store_rejected(self, tmp_path):
        path = tmp_path / "f.tsv"
        path.write_text("\n", encoding="utf-8")
        with pytest.raises(InputError):
            FeatureStore.load(path)

    def test_dimension_mismatch(self, tmp_path):
        rows = ["1\toriginal\t1.0 2.0\n", "1\thead\t1.0 2.0 3.0\n"]
        with pytest.raises(DimensionMismatch):
            store_from_rows(rows, tmp_path / "f.tsv")

    def test_duplicate_record(self, tmp_path):
        rows = ["1\toriginal\t1.0\n", "1\toriginal\t2.0\n"]
        with pytest.raises(DuplicateKey):
            store_from_rows(rows, tmp_path / "f.tsv")

    @pytest.mark.parametrize(
        "row",
        [
            "1\toriginal\n",
            "x\toriginal\t1.0\n",
            "1\tnostril\t1.0\n",
            "1\toriginal\tone two\n",
            "1\toriginal\t\n",
            "1\toriginal\tnan\n",
            "1\toriginal\tinf\n",
            "1\toriginal\t1.0 #2\n",
            "0\toriginal\t1.0\n",
            "-3\toriginal\t1.0\n",
        ],
    )
    def test_malformed_rows(self, tmp_path, row):
        with pytest.raises(MalformedLine):
            store_from_rows([row], tmp_path / "f.tsv")

    def test_malformed_error_carries_line_number(self, tmp_path):
        rows = ["1\toriginal\t1.0\n", "1\thead\tbogus\n"]
        with pytest.raises(MalformedLine) as exc_info:
            store_from_rows(rows, tmp_path / "f.tsv")
        assert "2" in str(exc_info.value)

    def test_rows_are_read_only_and_fused_vectors_writeable(self, tmp_path):
        loaded = full_store(tmp_path)
        built = FeatureStore({(1, PartKind.HEAD): np.ones(DIM)}, DIM)
        for store in (loaded, built):
            row = store.get(1, PartKind.HEAD)
            with pytest.raises(ValueError):
                row[0] = 5.0
            for l2 in (False, True):
                fused = fuse(store, 1, GROUP_ORDER, l2_normalize=l2)
                fused.vector[:] = 7.0
            assert store.get(1, PartKind.HEAD)[0] != 7.0

    def test_valid_file_never_reads_per_line(self, tmp_path, monkeypatch):
        def per_line(path):
            raise AssertionError("fell back to the per-line reader")

        monkeypatch.setattr(FeatureStore, "_load_per_line", per_line)
        rows = ["\n", "2\thead\t1e-3 +2 -0.0\n", "  \n", "1\toriginal\t.5\x0c7. 1E2\n"]
        store = store_from_rows(rows, tmp_path / "f.tsv")
        assert len(store) == 2
        assert store.get(1, PartKind.ORIGINAL).tolist() == [0.5, 7.0, 100.0]
        assert store.get(2, PartKind.HEAD).tobytes() == np.array([1e-3, 2.0, -0.0]).tobytes()

    @pytest.mark.parametrize(
        "row,expected",
        [("1\toriginal\t1_0 2\n", [10.0, 2.0]), ("1\toriginal\t1\xa02\n", [1.0, 2.0])],
    )
    def test_underscore_digits_and_nbsp_separator_load(self, tmp_path, row, expected):
        store = store_from_rows([row], tmp_path / "f.tsv")
        assert store.get(1, PartKind.ORIGINAL).tolist() == expected


def _mutate(lines, kind, at, pick):
    """Apply one mutation to line ``at`` of a valid feature TSV."""
    line = lines[at]
    image_id, group, values = line.rstrip("\n").split("\t")
    parts = values.split(" ")
    if kind == "blank":
        lines.insert(at, ["\n", "   \n", "\t\n"][pick % 3])
    elif kind == "empty-value":
        lines[at] = f"{image_id}\t{group}\t{['', ' ', chr(12)][pick % 3]}\n"
    elif kind == "ragged":
        parts = parts[:-1] if pick % 2 else parts + ["1.5"]
        lines[at] = f"{image_id}\t{group}\t{' '.join(parts)}\n"
    elif kind == "token":
        tokens = ["#", "1#", "nan", "inf", "-inf", "1e400", "1_0", "0x1", "\u0663", "\x00"]
        parts[pick % len(parts)] = tokens[pick % len(tokens)]
        lines[at] = f"{image_id}\t{group}\t{' '.join(parts)}\n"
    elif kind == "separator":
        sep = ["\xa0", "\u2028", "\x0c", "\x1c", "\r", "\t", "  "][pick % 7]
        lines[at] = f"{image_id}\t{group}\t{sep.join(parts)}\n"
    elif kind == "bad-group":
        lines[at] = f"{image_id}\t{['beak', '', 'Head'][pick % 3]}\t{values}\n"
    elif kind == "bad-id":
        lines[at] = f"{['0', '-2', 'x', ''][pick % 4]}\t{group}\t{values}\n"
    elif kind == "repeat":
        lines.insert(at + 1 + pick % 2, line)
    elif kind == "non-utf8":
        lines[at] = line.replace("\t", "\t\udcff", 1)
    elif kind == "no-newline":
        lines[at] = line.rstrip("\n")
        del lines[at + 1 :]


def _load_outcome(loader, path):
    try:
        store = loader(path)
    except Exception as exc:  # compared as an outcome; the test checks its class
        return type(exc), str(exc)
    rows = {
        (image_id, group): None if row is None else row.tobytes()
        for image_id in sorted(store.image_ids)
        for group in GROUP_ORDER
        for row in [store.get(image_id, group)]
    }
    return len(store), store.dim, rows


MUTATIONS = (
    "blank",
    "empty-value",
    "ragged",
    "token",
    "separator",
    "bad-group",
    "bad-id",
    "repeat",
    "non-utf8",
    "no-newline",
)


class TestLoadMatchesPerLineReader:
    """``FeatureStore.load``'s streamed parse must agree with the per-line
    reader on every input: the same rows byte for byte, or the same error
    at the same line."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(-1e6, 1e6), st.sampled_from(["{:.6f}", "{!r}", "{:.3e}", "{:g}"])),
            min_size=6,
            max_size=6,
        ),
        st.lists(
            st.tuples(st.sampled_from(MUTATIONS), st.integers(0, 5), st.integers(0, 100)),
            max_size=3,
        ),
    )
    def test_same_rows_or_same_error(self, values, mutations):
        keys = [(1, PartKind.ORIGINAL), (1, PartKind.HEAD), (2, PartKind.WING), (3, PartKind.LEG)]
        lines = []
        for n, (image_id, group) in enumerate(keys):
            components = [fmt.format(v) for v, fmt in values[n : n + 3]]
            lines.append(f"{image_id}\t{group.value}\t{' '.join(components)}\n")
        for kind, at, pick in mutations:
            if lines and at < len(lines) and "\t" in lines[at].rstrip("\n"):
                try:
                    _mutate(lines, kind, at, pick)
                except ValueError:  # the line was already mutated out of shape
                    pass
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "features.tsv"
            path.write_bytes("".join(lines).encode("utf-8", "surrogateescape"))
            fast = _load_outcome(FeatureStore.load, path)
            reference = _load_outcome(FeatureStore._load_per_line, path)
        assert fast == reference
        assert not isinstance(fast[0], type) or issubclass(fast[0], ToolkitError)


class TestFuse:
    def test_zero_blocks_at_missing_groups(self, tmp_path):
        skip = {(1, PartKind.BREAST), (1, PartKind.TAIL)}
        store = full_store(tmp_path, image_ids=(1,), skip=skip)
        fused = fuse(store, 1, GROUP_ORDER)
        assert fused.vector.size == 7 * DIM
        assert fused.present == frozenset(GROUP_ORDER) - {PartKind.BREAST, PartKind.TAIL}
        # breast is canonical slot 4, tail slot 6
        assert np.all(fused.vector[16:20] == 0.0)
        assert np.all(fused.vector[24:28] == 0.0)
        assert np.all(fused.vector[0:16] != 0.0)
        assert np.all(fused.vector[20:24] != 0.0)

    def test_blocks_follow_canonical_order(self, tmp_path):
        store = full_store(tmp_path, image_ids=(1,))
        fused = fuse(store, 1, (PartKind.TAIL, PartKind.ORIGINAL, PartKind.HEAD))
        assert fused.groups == (PartKind.ORIGINAL, PartKind.HEAD, PartKind.TAIL)
        np.testing.assert_array_equal(fused.block(PartKind.HEAD), store.get(1, PartKind.HEAD))
        np.testing.assert_array_equal(fused.vector[:DIM], store.get(1, PartKind.ORIGINAL))

    def test_baseline_only_length(self, tmp_path):
        store = full_store(tmp_path, image_ids=(1,))
        assert fuse(store, 1, BASELINE_GROUPS).vector.size == 2 * DIM

    def test_full_fusion_dimension_scales_with_store(self):
        store = FeatureStore({(1, g): np.ones(2048) for g in GROUP_ORDER}, 2048)
        assert fuse(store, 1, GROUP_ORDER).vector.size == 14336

    def test_unknown_image(self, tmp_path):
        store = full_store(tmp_path, image_ids=(1,))
        with pytest.raises(UnknownImage):
            fuse(store, 99, GROUP_ORDER)

    def test_l2_normalize_rescales_each_block(self, tmp_path):
        path = tmp_path / "f.tsv"
        write_feature_records(
            [(1, PartKind.ORIGINAL, np.array([3.0, 4.0])), (1, PartKind.HEAD, np.array([0.0, 5.0]))],
            path,
        )
        store = FeatureStore.load(path)
        fused = fuse(store, 1, (PartKind.ORIGINAL, PartKind.HEAD), l2_normalize=True)
        np.testing.assert_allclose(fused.block(PartKind.ORIGINAL), [0.6, 0.8])
        np.testing.assert_allclose(fused.block(PartKind.HEAD), [0.0, 1.0])
        # zero fill stays zero under normalization
        fused2 = fuse(store, 1, (PartKind.ORIGINAL, PartKind.TAIL), l2_normalize=True)
        assert np.all(fused2.block(PartKind.TAIL) == 0.0)

    def test_presence_pattern_offsets(self, tmp_path):
        """Missing combinations never shift the offsets of present groups."""
        part_kinds = [g for g in GROUP_ORDER if g not in BASELINE_GROUPS]
        for pattern in range(4):
            absent = {part_kinds[i] for i in range(2) if pattern >> i & 1}
            store = full_store(tmp_path, image_ids=(1,), skip={(1, g) for g in absent})
            fused = fuse(store, 1, GROUP_ORDER)
            for slot, group in enumerate(GROUP_ORDER):
                block = fused.vector[slot * DIM : (slot + 1) * DIM]
                if group in absent:
                    assert np.all(block == 0.0)
                else:
                    np.testing.assert_array_equal(block, store.get(1, group))


class TestGroupSelection:
    def test_normalize_orders_canonically(self):
        out = normalize_groups((PartKind.TAIL, PartKind.HEAD, PartKind.ORIGINAL))
        assert out == (PartKind.ORIGINAL, PartKind.HEAD, PartKind.TAIL)

    def test_normalize_rejects_empty_duplicate_unknown(self):
        with pytest.raises(ConfigError):
            normalize_groups(())
        with pytest.raises(ConfigError):
            normalize_groups((PartKind.HEAD, PartKind.HEAD))
        with pytest.raises(ConfigError):
            normalize_groups((PartKind.HEAD,), order=BASELINE_GROUPS)

    def test_combination_requires_baseline(self):
        with pytest.raises(ConfigError):
            CombinationSpec((PartKind.ORIGINAL, PartKind.HEAD))
        spec = CombinationSpec((PartKind.HEAD, PartKind.CROPPED, PartKind.ORIGINAL))
        assert spec.groups == (PartKind.ORIGINAL, PartKind.CROPPED, PartKind.HEAD)

    def test_flags_cover_every_group(self):
        spec = CombinationSpec((PartKind.ORIGINAL, PartKind.CROPPED, PartKind.WING))
        flags = spec.flags()
        assert set(flags) == set(GROUP_ORDER)
        assert flags[PartKind.WING] == 1
        assert flags[PartKind.TAIL] == 0


def fv(image_id: int, values) -> FusedVector:
    vector = np.asarray(values, dtype=np.float64)
    return FusedVector(
        image_id=image_id,
        groups=(PartKind.ORIGINAL,),
        vector=vector,
        present=frozenset({PartKind.ORIGINAL}),
    )


def two_class_problem():
    samples = [
        fv(1, [2.0, 0.1]),
        fv(2, [1.8, -0.1]),
        fv(3, [2.2, 0.0]),
        fv(4, [0.1, 2.0]),
        fv(5, [-0.1, 1.9]),
        fv(6, [0.0, 2.2]),
    ]
    labels = {1: 1, 2: 1, 3: 1, 4: 2, 5: 2, 6: 2}
    return samples, labels


def four_class_problem(per_class=5, noise=0.1, seed=3):
    rng = random.Random(seed)
    samples, labels = [], {}
    image_id = 1
    for class_id in range(1, 5):
        for _ in range(per_class):
            vector = [rng.uniform(-noise, noise) for _ in range(4)]
            vector[class_id - 1] += 2.0
            samples.append(fv(image_id, vector))
            labels[image_id] = class_id
            image_id += 1
    return samples, labels


def pegasos_reference(samples, labels, c, epochs, seed):
    """Scalar one-vs-rest Pegasos, one class at a time: the oracle the
    batched trainer must reproduce bit for bit."""
    ordered = sorted(samples, key=lambda s: s.image_id)
    x = np.stack([s.vector for s in ordered])
    y_ids = np.array([labels[s.image_id] for s in ordered])
    classes = sorted(set(int(v) for v in y_ids))
    n, dim = x.shape
    rng = random.Random(seed)
    orders = []
    for _ in range(epochs):
        order = list(range(n))
        rng.shuffle(order)
        orders.append(order)
    reg = 1.0 / (c * n)
    weights, biases = [], []
    for class_id in classes:
        y = np.where(y_ids == class_id, 1.0, -1.0)
        w = np.zeros(dim, dtype=np.float64)
        b = 0.0
        t = 1
        for order in orders:
            for i in order:
                step = 1.0 / (reg * t)
                violated = y[i] * (float(w @ x[i]) + b) < 1.0
                w *= 1.0 - step * reg
                if violated:
                    w += step * y[i] * x[i]
                    b += step * y[i]
                t += 1
        weights.append(w)
        biases.append(b)
    return tuple(classes), np.stack(weights), np.array(biases, dtype=np.float64)


def many_class_problem(num_classes=24, per_class=6, group_dim=8, seed=21):
    """Four fused groups: the two whole-image baselines always present, head
    and wing each absent with probability 0.4 and then an exact-zero block,
    as fusion leaves a missing part."""
    rng = random.Random(seed)
    groups = (PartKind.ORIGINAL, PartKind.CROPPED, PartKind.HEAD, PartKind.WING)
    samples, labels = [], {}
    image_id = 1
    for class_id in range(1, num_classes + 1):
        for _ in range(per_class):
            blocks = []
            present = set(BASELINE_GROUPS)
            for group in groups:
                if group in BASELINE_GROUPS or rng.random() < 0.6:
                    block = [rng.gauss(0.0, 1.0) for _ in range(group_dim)]
                    block[class_id % group_dim] += 1.5
                    if group not in BASELINE_GROUPS:
                        present.add(group)
                else:
                    block = [0.0] * group_dim
                blocks.extend(block)
            samples.append(FusedVector(image_id, groups, np.array(blocks), frozenset(present)))
            labels[image_id] = class_id
            image_id += 1
    return samples, labels


def assert_matches_reference(samples, labels, c, epochs, seed):
    model = train_svm(samples, labels, c=c, epochs=epochs, seed=seed)
    classes, weights, biases = pegasos_reference(samples, labels, c, epochs, seed)
    assert model.classes == classes
    assert np.array_equal(model.weights, weights)
    assert np.array_equal(model.biases, biases)


class TestBatchedTrainerMatchesReference:
    def test_two_classes(self):
        samples, labels = two_class_problem()
        assert_matches_reference(samples, labels, c=1.0, epochs=50, seed=0)

    def test_many_classes_with_zero_filled_blocks(self):
        samples, labels = many_class_problem()
        assert any(np.all(s.vector[16:24] == 0.0) for s in samples)
        assert_matches_reference(samples, labels, c=1.0, epochs=3, seed=5)

    @pytest.mark.parametrize("epochs,seed,c", [(1, 0, 1.0), (4, 7, 0.5), (9, 123, 10.0)])
    def test_epochs_and_seeds(self, epochs, seed, c):
        samples, labels = four_class_problem(per_class=7, noise=1.0, seed=seed)
        assert_matches_reference(samples, labels, c=c, epochs=epochs, seed=seed)


class TestTrainSvm:
    def test_separable_two_class(self):
        samples, labels = two_class_problem()
        model = train_svm(samples, labels, epochs=50, seed=0)
        assert model.classes == (1, 2)
        assert evaluate_accuracy(model, samples, labels) == 1.0

    def test_separable_four_class(self):
        samples, labels = four_class_problem()
        model = train_svm(samples, labels, epochs=50, seed=0)
        assert model.classes == (1, 2, 3, 4)
        assert evaluate_accuracy(model, samples, labels) == 1.0

    def test_sample_order_never_matters(self):
        samples, labels = four_class_problem()
        model_sorted = train_svm(samples, labels, seed=7)
        shuffled = list(samples)
        random.Random(99).shuffle(shuffled)
        model_shuffled = train_svm(shuffled, labels, seed=7)
        np.testing.assert_array_equal(model_sorted.weights, model_shuffled.weights)
        np.testing.assert_array_equal(model_sorted.biases, model_shuffled.biases)

    def test_seed_changes_trajectory(self):
        samples, labels = four_class_problem()
        a = train_svm(samples, labels, seed=0)
        b = train_svm(samples, labels, seed=1)
        assert not np.array_equal(a.weights, b.weights)

    def test_worker_count_never_changes_result(self):
        samples, labels = four_class_problem()
        serial = train_svm(samples, labels, seed=2, workers=1)
        threaded = train_svm(samples, labels, seed=2, workers=4)
        np.testing.assert_array_equal(serial.weights, threaded.weights)
        np.testing.assert_array_equal(serial.biases, threaded.biases)

    def test_single_class_rejected(self):
        samples, _ = two_class_problem()
        with pytest.raises(SingleClass):
            train_svm(samples, {s.image_id: 1 for s in samples})

    def test_empty_training_set(self):
        with pytest.raises(EmptyTrainingSet):
            train_svm([], {})

    def test_bad_hyperparameters(self):
        samples, labels = two_class_problem()
        with pytest.raises(ConfigError):
            train_svm(samples, labels, c=0.0)
        with pytest.raises(ConfigError):
            train_svm(samples, labels, epochs=0)

    def test_inconsistent_dimensions(self):
        samples = [fv(1, [1.0, 2.0]), fv(2, [1.0, 2.0, 3.0])]
        with pytest.raises(DimensionMismatch):
            train_svm(samples, {1: 1, 2: 2})

    def test_missing_label(self):
        samples, labels = two_class_problem()
        del labels[3]
        with pytest.raises(InputError):
            train_svm(samples, labels)

    def test_unused_block_weights_stay_exactly_zero(self):
        """Dimensions that are zero in every sample never acquire weight, so
        a zero-filled group contributes nothing to any decision score."""
        samples, labels = four_class_problem()
        padded = [
            FusedVector(s.image_id, s.groups, np.concatenate([s.vector, np.zeros(3)]), s.present)
            for s in samples
        ]
        model = train_svm(padded, labels, seed=0)
        assert np.all(model.weights[:, 4:] == 0.0)
        base = train_svm(samples, labels, seed=0)
        for s, p in zip(samples, padded):
            np.testing.assert_array_equal(
                decision_scores(base, s.vector), decision_scores(model, p.vector)
            )


class TestPredictAndAccuracy:
    def _hand_model(self, biases):
        return SvmModel(
            classes=(3, 5),
            weights=np.zeros((2, 2)),
            biases=np.array(biases, dtype=float),
            c=1.0,
            epochs=1,
            seed=0,
        )

    def test_tie_goes_to_smallest_class_id(self):
        model = self._hand_model([0.0, 0.0])
        assert predict(model, np.zeros(2)) == 3

    def test_largest_bias_wins_on_zero_vector(self):
        model = self._hand_model([0.0, 1.0])
        assert predict(model, np.zeros(2)) == 5

    def test_dimension_checked(self):
        model = self._hand_model([0.0, 0.0])
        with pytest.raises(DimensionMismatch):
            decision_scores(model, np.zeros(5))

    def test_known_accuracy(self):
        model = SvmModel(
            classes=(1, 2),
            weights=np.array([[1.0, 0.0], [-1.0, 0.0]]),
            biases=np.zeros(2),
            c=1.0,
            epochs=1,
            seed=0,
        )
        samples = [fv(1, [1, 0]), fv(2, [1, 0]), fv(3, [-1, 0]), fv(4, [-1, 0])]
        labels = {1: 1, 2: 1, 3: 2, 4: 1}  # sample 4 is misclassified
        assert evaluate_accuracy(model, samples, labels) == 0.75

    def test_accuracy_matches_recount(self):
        samples, labels = four_class_problem(per_class=8, noise=1.5, seed=11)
        model = train_svm(samples[::2], labels, seed=0)
        test = samples[1::2]
        reported = evaluate_accuracy(model, test, labels)
        correct = 0
        for s in test:
            scores = model.weights @ s.vector + model.biases
            best = max(range(len(model.classes)), key=lambda k: (scores[k], -k))
            if model.classes[best] == labels[s.image_id]:
                correct += 1
        assert reported == correct / len(test)

    def test_empty_test_set(self):
        model = self._hand_model([0.0, 0.0])
        with pytest.raises(EmptyTestSet):
            evaluate_accuracy(model, [], {})


class TestModelFile:
    def test_round_trip_preserves_predictions(self, tmp_path):
        samples, labels = four_class_problem()
        model = train_svm(samples, labels, c=0.5, epochs=20, seed=9)
        path = tmp_path / "model.svm"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.classes == model.classes
        assert (loaded.c, loaded.epochs, loaded.seed) == (0.5, 20, 9)
        np.testing.assert_allclose(loaded.weights, model.weights, rtol=1e-8)
        rng = random.Random(17)
        for _ in range(100):
            probe = np.array([rng.uniform(-3, 3) for _ in range(4)])
            assert predict(loaded, probe) == predict(model, probe)

    def test_header_validation(self, tmp_path):
        path = tmp_path / "model.svm"
        path.write_text("svm v2 1 2 1 1 0\n1 0 0 0\n", encoding="utf-8")
        with pytest.raises(MalformedLine):
            load_model(path)

    def test_row_count_validation(self, tmp_path):
        path = tmp_path / "model.svm"
        path.write_text("svm v1 2 2 1 1 0\n1 0 0 0\n", encoding="utf-8")
        with pytest.raises(MalformedLine):
            load_model(path)

    def test_row_width_validation(self, tmp_path):
        path = tmp_path / "model.svm"
        path.write_text("svm v1 1 2 1 1 0\n1 0 0\n", encoding="utf-8")
        with pytest.raises(MalformedLine):
            load_model(path)

    @pytest.mark.parametrize(
        "text,line_no",
        [
            ("svm v1 2 2 -1 1 0\n1 0 0 0\n2 0 0 0\n", 1),
            ("svm v1 2 2 nan 1 0\n1 0 0 0\n2 0 0 0\n", 1),
            ("svm v1 2 2 1 0 0\n1 0 0 0\n2 0 0 0\n", 1),
            ("svm v1 -1 2 1 1 0\n", 1),
            ("svm v1 1 0 1 1 0\n1 0\n", 1),
            ("svm v1 2 2 1 1 0\n1 nan 0 0\n2 0 0 0\n", 2),
            ("svm v1 2 2 1 1 0\n1 0 0 0\n2 0 inf 0\n", 3),
            ("svm v1 2 2 1 1 0\n1 0 0 0\n1 0 0 0\n", 3),
            ("svm v1 2 2 1 1 0\n2 0 0 0\n1 0 0 0\n", 3),
            ("svm v1 2 2 1 1 0\n0 0 0 0\n1 0 0 0\n", 2),
            ("svm v1 2 2 1 1 0\n\n1 0 0 0\n\n1 0 0 0\n", 5),
        ],
        ids=[
            "negative-C",
            "nan-C",
            "zero-epochs",
            "negative-classes",
            "zero-dim",
            "nan-bias",
            "inf-weight",
            "duplicate-class",
            "unordered-classes",
            "class-id-zero",
            "line-numbers-count-blank-lines",
        ],
    )
    def test_rejects_invalid_values_with_location(self, tmp_path, text, line_no):
        path = tmp_path / "model.svm"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(MalformedLine) as err:
            load_model(path)
        assert err.value.path == path
        assert err.value.line_no == line_no

    def test_non_utf8_model_file_names_the_line(self, tmp_path):
        # no subcommand reads a model file, so the reader is called directly
        path = tmp_path / "model.svm"
        path.write_bytes(b"svm v1 2 2 1 1 0\n1 0 0 0\n2 \xff 0 0\n")
        with pytest.raises(MalformedLine) as err:
            load_model(path)
        assert err.value.path == path
        assert err.value.line_no == 3

    def test_missing_model_file(self, tmp_path):
        with pytest.raises(MissingFile):
            load_model(tmp_path / "absent.svm")


def signal_store(tmp_path, per_class=4, dim=DIM, signal_group=PartKind.HEAD, seed=13):
    """Two classes; only signal_group distinguishes them, the rest is noise."""
    rng = random.Random(seed)
    records = []
    labels = {}
    split = {}
    image_id = 1
    for class_id in (1, 2):
        for j in range(per_class):
            for group in GROUP_ORDER:
                if group is signal_group:
                    vector = np.zeros(dim)
                    vector[class_id - 1] = 2.0
                    vector += np.array([rng.uniform(-0.05, 0.05) for _ in range(dim)])
                else:
                    vector = np.array([rng.uniform(-0.1, 0.1) for _ in range(dim)])
                records.append((image_id, group, vector))
            labels[image_id] = class_id
            split[image_id] = Split.TRAIN if j < per_class // 2 else Split.TEST
            image_id += 1
    path = tmp_path / "signal.tsv"
    write_feature_records(records, path)
    return FeatureStore.load(path), labels, split


class TestCombinationExperiment:
    def test_structure_and_signal_part_added_first(self, tmp_path):
        store, labels, split = signal_store(tmp_path)
        result = run_combination_experiment(store, labels, split, epochs=30, seed=0)
        assert len(result.rows) == 6
        assert result.rows[0].spec.groups == BASELINE_GROUPS
        assert PartKind.HEAD in result.rows[1].spec.groups
        for k, row in enumerate(result.rows):
            assert len(row.spec.groups) == 2 + k
            assert set(BASELINE_GROUPS) <= set(row.spec.groups)
        assert set(result.rows[5].spec.groups) == set(GROUP_ORDER)
        assert result.single_group_accuracy[PartKind.HEAD] == 1.0
        for row in result.rows[1:]:
            assert row.accuracy == 1.0

    def test_deterministic(self, tmp_path):
        store, labels, split = signal_store(tmp_path)
        a = run_combination_experiment(store, labels, split, epochs=10, seed=4)
        b = run_combination_experiment(store, labels, split, epochs=10, seed=4)
        assert a.to_tsv() == b.to_tsv()

    def test_tsv_format(self, tmp_path):
        store, labels, split = signal_store(tmp_path)
        result = run_combination_experiment(store, labels, split, epochs=5, seed=0)
        lines = result.to_tsv().splitlines()
        assert lines[0] == "seq\t" + "\t".join(g.value for g in GROUP_ORDER) + "\taccuracy"
        assert len(lines) == 7
        for seq, line in enumerate(lines[1:], start=1):
            cells = line.split("\t")
            assert len(cells) == 9
            assert cells[0] == str(seq)
            assert all(flag in {"0", "1"} for flag in cells[1:8])
            assert cells[1] == "1" and cells[2] == "1"  # baseline always on
            float(cells[8])
            assert len(cells[8].split(".")[1]) == 4

"""Feature store, zero-filled fusion, linear SVM, and the combination study."""

from __future__ import annotations

import random
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import partkit.features
from conftest import load_features_reference, store_records
from partkit.cli import combination_study, combination_tsv, fit_group_sets
from partkit.dataset_io import Split
from partkit.errors import ConfigError, InputError, MalformedLine, MissingFile, ToolkitError
from partkit.features import (
    BASELINE_GROUPS,
    FeatureStore,
    FusedMatrix,
    SvmModel,
    decision_scores,
    evaluate_accuracy,
    fuse,
    load_model,
    normalize_groups,
    predict,
    save_model,
    train_svm,
    write_feature_records,
)
from partkit.parts import GROUP_ORDER, PartKind

DIM = 4


def spy_on_passes(monkeypatch) -> list:
    """Note the batch size of each pass ``FeatureStore.load`` makes over its
    file in the returned list."""
    passes = []
    real_value_fields = partkit.features._value_fields

    def value_fields(*args, batch=64, **kwargs):
        passes.append(batch)
        return real_value_fields(*args, batch=batch, **kwargs)

    monkeypatch.setattr(partkit.features, "_value_fields", value_fields)
    return passes


def store_from_rows(rows, path):
    path.write_text("".join(rows), encoding="utf-8")
    return FeatureStore.load(path)


def full_store(tmp_path, image_ids=(1, 2), dim=DIM, skip=(), l2_normalize=False):
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
    return FeatureStore.load(path, l2_normalize=l2_normalize)


def random_store(images, dim, seed, l2_normalize=False):
    """Images 1..images with standard normal vectors, one group in five absent."""
    rng = np.random.default_rng(seed)
    return FeatureStore(
        {
            (image_id, group): rng.standard_normal(dim)
            for image_id in range(1, images + 1)
            for group in GROUP_ORDER
            if (image_id + GROUP_ORDER.index(group)) % 5
        },
        dim,
        l2_normalize,
    )


class TestWriteFeatureRecords:
    """The writer formats a record at a time; its bytes are pinned against
    per-component f"{v:.6f}"."""

    @staticmethod
    def per_value_bytes(records) -> bytes:
        return "".join(
            f"{image_id}\t{group.value}\t{' '.join(f'{v:.6f}' for v in vector)}\n"
            for image_id, group, vector in records
        ).encode("utf-8")

    def test_edge_values(self, tmp_path):
        # the doubles nearest 5e-7 and 2.5e-6 lie just below and just above
        # the decimal, so they round down and up
        subnormal = 5e-324
        edges = [-0.0, -4e-7, 5e-7, 2.5e-6, 1e15, subnormal, -subnormal, 0.0000005, 1.0000005]
        records = [
            (1, PartKind.ORIGINAL, np.array(edges)),
            (2, PartKind.HEAD, np.array(edges[::-1])),
            (3, PartKind.TAIL, np.array([-0.0])),
        ]
        path = tmp_path / "f.tsv"
        write_feature_records(records, path)
        assert path.read_bytes() == self.per_value_bytes(records)
        assert path.read_text().splitlines()[0].split("\t")[2].split()[:6] == [
            "-0.000000", "-0.000000", "0.000000", "0.000003", "1000000000000000.000000", "0.000000"
        ]

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=9),
            min_size=1,
            max_size=6,
        )
    )
    def test_matches_per_value_format(self, vectors):
        # lengths differ between records, so each length gets its own format
        records = [
            (i, GROUP_ORDER[i % len(GROUP_ORDER)], np.array(v, dtype=np.float64))
            for i, v in enumerate(vectors, start=1)
        ]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "f.tsv"
            write_feature_records(records, path)
            assert path.read_bytes() == self.per_value_bytes(records)


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
        with pytest.raises(MalformedLine, match=r":2: vector length 3, store dimension 2$") as info:
            store_from_rows(rows, tmp_path / "f.tsv")
        assert info.value.path == tmp_path / "f.tsv" and info.value.line_no == 2

    def test_duplicate_record(self, tmp_path):
        rows = ["1\toriginal\t1.0\n", "1\toriginal\t2.0\n"]
        with pytest.raises(MalformedLine, match=r":2: repeated record for 1/original$") as info:
            store_from_rows(rows, tmp_path / "f.tsv")
        assert info.value.path == tmp_path / "f.tsv" and info.value.line_no == 2

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
        for l2 in (False, True):
            loaded = full_store(tmp_path, l2_normalize=l2)
            built = FeatureStore({(1, PartKind.HEAD): np.ones(DIM)}, DIM, l2_normalize=l2)
            for store in (loaded, built):
                row = store.get(1, PartKind.HEAD)
                with pytest.raises(ValueError):
                    row[0] = 5.0
                fused = fuse(store, [1], GROUP_ORDER)
                with pytest.raises(ValueError):
                    fused.source[-1, 0] = 5.0  # the zero row
                fused.vectors[:] = 7.0
                assert store.get(1, PartKind.HEAD)[0] != 7.0

    def test_valid_file_never_reads_per_line(self, tmp_path, monkeypatch):
        passes = spy_on_passes(monkeypatch)
        rows = ["\n", "2\thead\t1e-3 +2 -0.0\n", "  \n", "1\toriginal\t.5\x0c7. 1E2\n"]
        store = store_from_rows(rows, tmp_path / "f.tsv")
        assert passes == [64]
        assert len(store) == 2
        assert store.get(1, PartKind.ORIGINAL).tolist() == [0.5, 7.0, 100.0]
        assert store.get(2, PartKind.HEAD).tobytes() == np.array([1e-3, 2.0, -0.0]).tobytes()

    @pytest.mark.parametrize(
        "row,expected",
        [
            ("1\toriginal\t1_0 2\n", None),
            ("1\toriginal\t1\xa02\n", [1.0, 2.0]),
            ("1\toriginal\t\u0663 2\n", None),
            ("1\toriginal\t\uff11 2\n", None),
        ],
    )
    def test_underscore_digits_and_nbsp_separator_load(self, tmp_path, row, expected):
        """A component is a number as ``loadtxt`` reads it: ``1_0`` and
        non-ASCII digits are none (``expected`` None), and any whitespace
        separates components."""
        if expected is None:
            with pytest.raises(MalformedLine, match=r"f\.tsv:1: non-numeric feature component$"):
                store_from_rows([row], tmp_path / "f.tsv")
        else:
            store = store_from_rows([row], tmp_path / "f.tsv")
            assert store.get(1, PartKind.ORIGINAL).tolist() == expected

    def test_held_images_keep_their_vectors_and_the_rest_are_listed(self, tmp_path):
        path = tmp_path / "features.tsv"
        full_store(tmp_path, image_ids=(1, 2, 3), skip={(2, PartKind.HEAD)})
        store = FeatureStore.load(path, hold={2, 9})
        assert store.image_ids == frozenset({1, 2, 3})
        assert len(store) == 6
        assert store.get(2, PartKind.HEAD) is None
        tail = np.arange(DIM) + 20 + 100 * GROUP_ORDER.index(PartKind.TAIL)
        np.testing.assert_array_equal(store.get(2, PartKind.TAIL), tail)
        with pytest.raises(InputError, match="^the feature records of image 3 were not held$"):
            store.get(3, PartKind.TAIL)
        assert len(FeatureStore.load(path, hold=set())) == 0

    def test_records_not_held_are_checked_in_batches(self, tmp_path, monkeypatch):
        # 150 records not held: two batches of 64 checked as the file is
        # read, and 22 at its end, all in the one pass over the file
        passes = spy_on_passes(monkeypatch)
        batches = []
        real_check = partkit.features._check_vectors

        def check_vectors(path, line_no, fields, dim):
            batches.append((line_no, len(fields)))
            real_check(path, line_no, fields, dim)

        monkeypatch.setattr(partkit.features, "_check_vectors", check_vectors)
        path = tmp_path / "f.tsv"
        path.write_text("".join(f"{i}\toriginal\t{i}.5 -1e-3\n" for i in range(1, 152)), "utf-8")
        assert len(FeatureStore.load(path, hold={151})) == 1
        assert passes == [64]
        assert batches == [(64, 64), (128, 64), (151, 22)]

    @pytest.mark.parametrize(
        "damaged, bad_key",
        [
            pytest.param(1, None, id="1"),
            pytest.param(100, None, id="100"),
            pytest.param(150, None, id="150"),
            # the bad key is met before the batch that holds line 100 is checked
            pytest.param(100, 110, id="100-before-a-bad-key"),
        ],
    )
    def test_a_damaged_record_in_any_batch_gives_the_located_error(
        self, tmp_path, monkeypatch, damaged, bad_key
    ):
        passes = spy_on_passes(monkeypatch)
        rows = [f"{i}\toriginal\t{i}.5 -1e-3\n" for i in range(1, 152)]
        rows[damaged - 1] = f"{damaged}\toriginal\t1 inf\n"
        if bad_key is not None:
            rows[bad_key - 1] = f"{bad_key}\tbeak\t1 2\n"
        path = tmp_path / "f.tsv"
        path.write_text("".join(rows), encoding="utf-8")
        with pytest.raises(MalformedLine, match=rf":{damaged}: non-finite feature component$"):
            FeatureStore.load(path, hold={151})
        # the checked pass, then one that checks each record by itself
        assert passes == [64, 1]

    def test_a_file_that_fails_once_and_then_reads_clean_is_an_error(self, tmp_path, monkeypatch):
        # a file rewritten between the checked pass and the one that names
        # the bad line: nothing read can be trusted
        real_value_fields = partkit.features._value_fields
        calls = []

        def value_fields(path, lines, *args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                lines = ["1\toriginal\tx\n"]  # the file as the first pass read it
            return real_value_fields(path, lines, *args, **kwargs)

        monkeypatch.setattr(partkit.features, "_value_fields", value_fields)
        path = tmp_path / "f.tsv"
        path.write_text("1\toriginal\t1\n", encoding="utf-8")
        with pytest.raises(InputError, match=r"f\.tsv: the feature file changed while it was read"):
            FeatureStore.load(path)

    def test_fuse_raises_for_an_image_not_held(self, tmp_path):
        full_store(tmp_path, image_ids=(1, 2, 3))
        store = FeatureStore.load(tmp_path / "features.tsv", hold={1, 3})
        assert fuse(store, [3, 1], GROUP_ORDER).image_ids == (1, 3)
        for groups in (GROUP_ORDER, (PartKind.HEAD,)):
            with pytest.raises(InputError, match="^the feature records of image 2 were not held$"):
                fuse(store, [1, 2, 3], groups)
        with pytest.raises(InputError, match="^image 4 has no feature records$"):
            fuse(store, [1, 4], GROUP_ORDER)

    def test_held_load_allocates_only_the_held_vectors(self, tmp_path):
        """Of 2000 images, ``load`` keeps the vectors of the 1000 held: the
        peak is their matrix plus a few hundred bytes an image, less than
        the matrix of every record."""
        images, dim = 2000, 32
        rng = np.random.default_rng(0)
        records = [
            (image_id, group, rng.standard_normal(dim))
            for image_id in range(1, images + 1)
            for group in GROUP_ORDER
            if (image_id + GROUP_ORDER.index(group)) % 5
        ]
        path = tmp_path / "f.tsv"
        write_feature_records(records, path)
        hold = set(range(1, images + 1, 2))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            store = FeatureStore.load(path, hold=hold)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        held = sum(1 for image_id, _, _ in records if image_id in hold)
        assert len(store) == held
        # the index, the id lookups and loadtxt's growth: about 200 B an image
        allowed = (held + 1) * dim * 8 + 384 * images
        assert peak <= allowed < (len(records) + 1) * dim * 8


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
        return loader(path)
    except Exception as exc:  # compared as an outcome; the test checks its class
        return type(exc), str(exc)


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
    """``FeatureStore.load``'s streamed parse must agree with the per-token
    reference reader on every input: the same rows byte for byte, or the
    same error at the same line."""

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
        st.one_of(st.none(), st.sets(st.integers(1, 3))),
    )
    def test_same_rows_or_same_error(self, values, mutations, hold):
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
            fast = _load_outcome(lambda p: store_records(FeatureStore.load(p, hold=hold)), path)
            reference = _load_outcome(lambda p: load_features_reference(p, hold=hold), path)
        assert fast == reference
        assert not isinstance(fast[0], type) or issubclass(fast[0], ToolkitError)


def fuse_reference(store, image_id, groups, l2_normalize=False):
    """One image fused on its own, block by block: the oracle every row of
    ``fuse`` must equal.  Returns (vector, present groups)."""
    selected = normalize_groups(groups)
    if image_id not in store.image_ids:
        raise InputError(f"image {image_id} has no feature records")
    dim = store.dim
    fused = np.zeros(len(selected) * dim, dtype=np.float64)
    present = []
    for i, group in enumerate(selected):
        vector = store.get(image_id, group)
        if vector is None:
            continue
        if l2_normalize:
            norm = float(np.linalg.norm(vector))
            vector = vector / norm if norm > 0 else vector
        fused[i * dim : (i + 1) * dim] = vector
        present.append(group)
    return fused, frozenset(present)


def block(fused, row, group):
    return fused.vectors[row].reshape(len(fused.groups), -1)[fused.groups.index(group)]


def present_groups(fused, row):
    return frozenset(g for g, p in zip(fused.groups, fused.present[row]) if p)


class TestFuse:
    def test_zero_blocks_at_missing_groups(self, tmp_path):
        skip = {(1, PartKind.BREAST), (1, PartKind.TAIL)}
        store = full_store(tmp_path, image_ids=(1,), skip=skip)
        fused = fuse(store, [1], GROUP_ORDER)
        vector = fused.vectors[0]
        assert vector.size == 7 * DIM
        absent = {PartKind.BREAST, PartKind.TAIL}
        assert present_groups(fused, 0) == frozenset(GROUP_ORDER) - absent
        # breast is canonical slot 4, tail slot 6
        assert np.all(vector[16:20] == 0.0)
        assert np.all(vector[24:28] == 0.0)
        assert np.all(vector[0:16] != 0.0)
        assert np.all(vector[20:24] != 0.0)

    def test_blocks_follow_canonical_order(self, tmp_path):
        store = full_store(tmp_path, image_ids=(1,))
        fused = fuse(store, [1], (PartKind.TAIL, PartKind.ORIGINAL, PartKind.HEAD))
        assert fused.groups == (PartKind.ORIGINAL, PartKind.HEAD, PartKind.TAIL)
        np.testing.assert_array_equal(block(fused, 0, PartKind.HEAD), store.get(1, PartKind.HEAD))
        np.testing.assert_array_equal(fused.vectors[0, :DIM], store.get(1, PartKind.ORIGINAL))

    def test_baseline_only_length(self, tmp_path):
        store = full_store(tmp_path, image_ids=(1,))
        assert fuse(store, [1], BASELINE_GROUPS).vectors.shape == (1, 2 * DIM)

    def test_full_fusion_dimension_scales_with_store(self):
        store = FeatureStore({(1, g): np.ones(2048) for g in GROUP_ORDER}, 2048)
        assert fuse(store, [1], GROUP_ORDER).vectors.shape == (1, 14336)

    def test_unknown_image(self, tmp_path):
        store = full_store(tmp_path, image_ids=(1,))
        with pytest.raises(InputError, match="^image 99 has no feature records$"):
            fuse(store, [1, 99], GROUP_ORDER)

    def test_rows_follow_ascending_ids(self, tmp_path):
        store = full_store(tmp_path, image_ids=(1, 2, 3))
        fused = fuse(store, [3, 1, 2], GROUP_ORDER)
        assert fused.image_ids == (1, 2, 3)
        assert len(fused) == 3
        for row, image_id in enumerate(fused.image_ids):
            np.testing.assert_array_equal(
                block(fused, row, PartKind.HEAD), store.get(image_id, PartKind.HEAD)
            )

    def test_no_ids_give_an_empty_matrix(self, tmp_path):
        for l2 in (False, True):
            fused = fuse(full_store(tmp_path, l2_normalize=l2), [], BASELINE_GROUPS)
            assert len(fused) == 0
            assert fused.vectors.shape == (0, 2 * DIM)
            assert fused.present.shape == (0, 2)

    def test_l2_normalize_rescales_each_block(self, tmp_path):
        path = tmp_path / "f.tsv"
        write_feature_records(
            [(1, PartKind.ORIGINAL, np.array([3.0, 4.0])), (1, PartKind.HEAD, np.array([0.0, 5.0]))],
            path,
        )
        store = FeatureStore.load(path, l2_normalize=True)
        np.testing.assert_allclose(store.get(1, PartKind.ORIGINAL), [0.6, 0.8])
        fused = fuse(store, [1], (PartKind.ORIGINAL, PartKind.HEAD))
        np.testing.assert_allclose(block(fused, 0, PartKind.ORIGINAL), [0.6, 0.8])
        np.testing.assert_allclose(block(fused, 0, PartKind.HEAD), [0.0, 1.0])
        # zero fill stays zero under normalization
        fused2 = fuse(store, [1], (PartKind.ORIGINAL, PartKind.TAIL))
        assert np.all(block(fused2, 0, PartKind.TAIL) == 0.0)

    def test_presence_pattern_offsets(self, tmp_path):
        """Missing combinations never shift the offsets of present groups."""
        part_kinds = [g for g in GROUP_ORDER if g not in BASELINE_GROUPS]
        for pattern in range(4):
            absent = {part_kinds[i] for i in range(2) if pattern >> i & 1}
            store = full_store(tmp_path, image_ids=(1,), skip={(1, g) for g in absent})
            fused = fuse(store, [1], GROUP_ORDER)
            for slot, group in enumerate(GROUP_ORDER):
                values = fused.vectors[0, slot * DIM : (slot + 1) * DIM]
                if group in absent:
                    assert np.all(values == 0.0)
                else:
                    np.testing.assert_array_equal(values, store.get(1, group))

    @pytest.mark.parametrize("l2", [False, True])
    def test_peak_is_output_plus_one_block_column(self, l2):
        images, dim = 200, 512
        store = random_store(images, dim, seed=0, l2_normalize=l2)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            fused = fuse(store, range(1, images + 1), GROUP_ORDER)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        column = images * dim * 8  # one group's vectors of every image
        # the per-image index lists and arrays take well under 64 KiB here;
        # the output is the block index, so no block column is needed at all
        assert peak <= fused.blocks.nbytes + 64 * 1024 < column
        assert peak <= fused.vectors.nbytes + column + 64 * 1024

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_rows_equal_the_per_image_reference(self, data):
        dim = data.draw(st.integers(1, 5), label="dim")
        image_ids = data.draw(st.lists(st.integers(1, 40), min_size=1, max_size=8, unique=True))
        component = st.one_of(
            st.just(0.0), st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
        )
        records = {}
        for image_id in image_ids:
            kept = data.draw(st.sets(st.sampled_from(GROUP_ORDER), min_size=1), label="present")
            for group in kept:
                vector = data.draw(st.lists(component, min_size=dim, max_size=dim))
                records[(image_id, group)] = np.array(vector, dtype=np.float64)
        store = FeatureStore(records, dim)
        groups = data.draw(st.lists(st.sampled_from(GROUP_ORDER), min_size=1, unique=True))
        requested = data.draw(st.permutations(image_ids), label="requested")
        l2 = data.draw(st.booleans(), label="l2")

        # the reference normalizes a copy of each raw block as it fuses
        fused = fuse(FeatureStore(records, dim, l2_normalize=l2), requested, groups)
        assert fused.image_ids == tuple(sorted(image_ids))
        assert fused.groups == normalize_groups(groups)
        assert fused.vectors.shape == (len(image_ids), len(fused.groups) * dim)
        for row, image_id in enumerate(fused.image_ids):
            vector, present = fuse_reference(store, image_id, groups, l2)
            assert np.array_equal(fused.vectors[row], vector)
            assert fused.vectors[row].tobytes() == vector.tobytes()
            assert present_groups(fused, row) == present


class TestFusedMatrix:
    @pytest.mark.parametrize("ids", [(2, 1), (1, 1), (1, 3, 2)])
    def test_rejects_unsorted_or_repeated_ids(self, ids):
        source = np.zeros((len(ids) + 1, DIM))
        blocks = np.arange(len(ids), dtype=np.intp).reshape(len(ids), 1)
        with pytest.raises(InputError):
            FusedMatrix(ids, (PartKind.ORIGINAL,), source, blocks)

    def test_fuse_rejects_repeated_ids(self, tmp_path):
        store = full_store(tmp_path)
        with pytest.raises(InputError):
            fuse(store, [1, 2, 1], GROUP_ORDER)


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
            normalize_groups((PartKind.HEAD, "beak"))


def matrix_of(rows, groups=(PartKind.ORIGINAL,), present=None) -> FusedMatrix:
    """The FusedMatrix of ascending (image_id, vector) rows, fused from a
    store that holds each present block; every group present by default.
    An absent block must be zero in ``rows``, as fusion leaves it."""
    dim = len(rows[0][1]) // len(groups)
    records = {}
    for r, (image_id, values) in enumerate(rows):
        blocks = np.asarray(values, dtype=np.float64).reshape(len(groups), dim)
        for i, group in enumerate(groups):
            if present is None or present[r][i]:
                records[(image_id, group)] = blocks[i]
    samples = fuse(FeatureStore(records, dim), [image_id for image_id, _ in rows], groups)
    assert samples.groups == tuple(groups)
    assert np.array_equal(samples.vectors, [values for _, values in rows])
    return samples


def rows_of(samples: FusedMatrix, index: slice) -> FusedMatrix:
    return FusedMatrix(
        samples.image_ids[index], samples.groups, samples.source, samples.blocks[index]
    )


def two_class_problem():
    samples = matrix_of(
        [
            (1, [2.0, 0.1]),
            (2, [1.8, -0.1]),
            (3, [2.2, 0.0]),
            (4, [0.1, 2.0]),
            (5, [-0.1, 1.9]),
            (6, [0.0, 2.2]),
        ]
    )
    labels = {1: 1, 2: 1, 3: 1, 4: 2, 5: 2, 6: 2}
    return samples, labels


def four_class_problem(per_class=5, noise=0.1, seed=3):
    rng = random.Random(seed)
    rows, labels = [], {}
    image_id = 1
    for class_id in range(1, 5):
        for _ in range(per_class):
            vector = [rng.uniform(-noise, noise) for _ in range(4)]
            vector[class_id - 1] += 2.0
            rows.append((image_id, vector))
            labels[image_id] = class_id
            image_id += 1
    return matrix_of(rows), labels


def pegasos_reference(samples, labels, c, epochs, seed):
    """Scalar one-vs-rest Pegasos, one class at a time: the oracle the
    batched trainer must reproduce bit for bit."""
    x = samples.vectors
    y_ids = np.array([labels[image_id] for image_id in samples.image_ids])
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
    rows, present, labels = [], [], {}
    image_id = 1
    for class_id in range(1, num_classes + 1):
        for _ in range(per_class):
            blocks = []
            present.append([])
            for group in groups:
                if group in BASELINE_GROUPS or rng.random() < 0.6:
                    block = [rng.gauss(0.0, 1.0) for _ in range(group_dim)]
                    block[class_id % group_dim] += 1.5
                    present[-1].append(True)
                else:
                    block = [0.0] * group_dim
                    present[-1].append(False)
                blocks.extend(block)
            rows.append((image_id, blocks))
            labels[image_id] = class_id
            image_id += 1
    return matrix_of(rows, groups, present), labels


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
        assert any(np.all(vector[16:24] == 0.0) for vector in samples.vectors)
        assert_matches_reference(samples, labels, c=1.0, epochs=3, seed=5)

    @pytest.mark.parametrize("epochs,seed,c", [(1, 0, 1.0), (4, 7, 0.5), (9, 123, 10.0)])
    def test_epochs_and_seeds(self, epochs, seed, c):
        samples, labels = four_class_problem(per_class=7, noise=1.0, seed=seed)
        assert_matches_reference(samples, labels, c=c, epochs=epochs, seed=seed)

    @settings(max_examples=60, deadline=None)
    @given(
        num_classes=st.integers(2, 12),
        dim=st.integers(1, 16),
        per_class=st.integers(1, 3),
        epochs=st.integers(1, 4),
        c=st.sampled_from([0.1, 1.0, 10.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_problems(self, num_classes, dim, per_class, epochs, c, seed):
        """Every run starts at t=1 from zero weights and biases, where every
        class violates its margin; exact-zero components make ties."""
        rng = random.Random(seed)
        rows, labels = [], {}
        for image_id in range(1, num_classes * per_class + 1):
            rows.append((image_id, [rng.choice((0.0, rng.uniform(-2.0, 2.0))) for _ in range(dim)]))
            labels[image_id] = (image_id - 1) % num_classes + 1
        assert_matches_reference(matrix_of(rows), labels, c=c, epochs=epochs, seed=seed)


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
        store = FeatureStore(
            {(i, PartKind.ORIGINAL): v for i, v in zip(samples.image_ids, samples.vectors)}, 4
        )
        groups = (PartKind.ORIGINAL,)
        model_sorted = train_svm(fuse(store, samples.image_ids, groups), labels, seed=7)
        shuffled = list(samples.image_ids)
        random.Random(99).shuffle(shuffled)
        model_shuffled = train_svm(fuse(store, shuffled, groups), labels, seed=7)
        np.testing.assert_array_equal(model_sorted.weights, model_shuffled.weights)
        np.testing.assert_array_equal(model_sorted.biases, model_shuffled.biases)

    def test_seed_changes_trajectory(self):
        samples, labels = four_class_problem()
        a = train_svm(samples, labels, seed=0)
        b = train_svm(samples, labels, seed=1)
        assert not np.array_equal(a.weights, b.weights)

    def test_single_class_rejected(self):
        samples, _ = two_class_problem()
        with pytest.raises(InputError, match=r"^training set has 1 class\(es\); need at least 2$"):
            train_svm(samples, {image_id: 1 for image_id in samples.image_ids})

    def test_empty_training_set(self):
        samples, _ = two_class_problem()
        with pytest.raises(InputError, match="^no training samples$"):
            train_svm(rows_of(samples, slice(0, 0)), {})

    def test_bad_hyperparameters(self):
        samples, labels = two_class_problem()
        with pytest.raises(ConfigError):
            train_svm(samples, labels, c=0.0)
        with pytest.raises(ConfigError):
            train_svm(samples, labels, epochs=0)

    @pytest.mark.parametrize("c", [float("inf"), float("nan"), 1e308])
    def test_non_finite_regularization_rejected(self, c):
        # inf made reg = 1/(c*n) zero and the step a ZeroDivisionError, nan
        # trained a NaN model, and 1e308 times 6 samples overflows to inf
        samples, labels = two_class_problem()
        with pytest.raises(ConfigError, match="svm regularization parameter"):
            train_svm(samples, labels, c=c)

    def test_missing_label(self):
        samples, labels = two_class_problem()
        del labels[3]
        with pytest.raises(InputError):
            train_svm(samples, labels)

    def test_unused_block_weights_stay_exactly_zero(self):
        """Dimensions that are zero in every sample never acquire weight, so
        a zero-filled group contributes nothing to any decision score."""
        samples, labels = four_class_problem()
        padded = matrix_of(
            list(zip(samples.image_ids, np.hstack([samples.vectors, np.zeros((len(samples), 3))])))
        )
        model = train_svm(padded, labels, seed=0)
        assert np.all(model.weights[:, 4:] == 0.0)
        base = train_svm(samples, labels, seed=0)
        for s, p in zip(samples.vectors, padded.vectors):
            np.testing.assert_array_equal(decision_scores(base, s), decision_scores(model, p))


def test_training_and_scoring_allocate_no_fused_copy():
    """Fusing, training on and scoring a split allocates the model, one
    (groups, D) gather buffer per pass and O(n) indices: never a fused copy
    of n * groups * D values."""
    images, dim, num_classes = 600, 64, 4
    store = random_store(images, dim, seed=1)
    labels = {image_id: (image_id - 1) % num_classes + 1 for image_id in range(1, images + 1)}
    train_ids, test_ids = range(1, images + 1, 2), range(2, images + 1, 2)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        model = train_svm(fuse(store, train_ids, GROUP_ORDER), labels, epochs=2, seed=0)
        evaluate_accuracy(model, fuse(store, test_ids, GROUP_ORDER), labels)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    n = len(train_ids)
    fused_copy = n * len(GROUP_ORDER) * dim * 8
    buffers = 2 * len(GROUP_ORDER) * dim * 8
    # the shuffled order, labels and block index: a few hundred bytes a sample
    allowed = model.weights.nbytes + model.biases.nbytes + buffers + 256 * n + 64 * 1024
    assert peak <= allowed < fused_copy / 2


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
        with pytest.raises(InputError, match="^vector length 5, model dimension 2$"):
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
        samples = matrix_of([(1, [1, 0]), (2, [1, 0]), (3, [-1, 0]), (4, [-1, 0])])
        labels = {1: 1, 2: 1, 3: 2, 4: 1}  # sample 4 is misclassified
        assert evaluate_accuracy(model, samples, labels) == 0.75

    def test_accuracy_matches_recount(self):
        samples, labels = four_class_problem(per_class=8, noise=1.5, seed=11)
        model = train_svm(rows_of(samples, slice(None, None, 2)), labels, seed=0)
        test = rows_of(samples, slice(1, None, 2))
        reported = evaluate_accuracy(model, test, labels)
        correct = 0
        for image_id, vector in zip(test.image_ids, test.vectors):
            scores = model.weights @ vector + model.biases
            best = max(range(len(model.classes)), key=lambda k: (scores[k], -k))
            if model.classes[best] == labels[image_id]:
                correct += 1
        assert reported == correct / len(test)

    def test_empty_test_set(self):
        model = self._hand_model([0.0, 0.0])
        with pytest.raises(InputError, match="^no test samples$"):
            evaluate_accuracy(model, rows_of(matrix_of([(1, [0.0, 0.0])]), slice(0, 0)), {})

    def test_unlabeled_test_image_is_input_error(self):
        model = self._hand_model([0.0, 0.0])
        samples = matrix_of([(1, [1.0, 0.0]), (2, [0.0, 1.0]), (7, [1.0, 1.0])])
        with pytest.raises(InputError, match=r"no class label for images \[2, 7\]"):
            evaluate_accuracy(model, samples, {1: 3})


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
        # weights come back at 9 significant digits; saving them again
        # writes the same bytes
        again = tmp_path / "again.svm"
        save_model(loaded, again)
        assert again.read_bytes() == path.read_bytes()

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

    def test_empty_model_file_is_a_fault_of_the_whole_file(self, tmp_path):
        path = tmp_path / "model.svm"
        path.write_text("", encoding="utf-8")
        with pytest.raises(MalformedLine) as err:
            load_model(path)
        assert err.value.path == path and err.value.line_no is None
        assert str(err.value) == f"{path}: empty model file"

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
        rows = combination_study(store, labels, split, epochs=30, seed=0)
        groups = [g for g, _ in rows]
        assert len(rows) == 6
        assert groups[0] == BASELINE_GROUPS
        assert PartKind.HEAD in groups[1]
        for k, row_groups in enumerate(groups):
            assert len(row_groups) == 2 + k
            assert set(BASELINE_GROUPS) <= set(row_groups)
        assert set(groups[5]) == set(GROUP_ORDER)
        (head,) = fit_group_sets(store, labels, split, [(PartKind.HEAD,)], epochs=30, seed=0)
        assert head.accuracy == 1.0
        for _, accuracy in rows[1:]:
            assert accuracy == 1.0

    def test_deterministic(self, tmp_path):
        store, labels, split = signal_store(tmp_path)
        a = combination_study(store, labels, split, epochs=10, seed=4)
        b = combination_study(store, labels, split, epochs=10, seed=4)
        assert combination_tsv(a) == combination_tsv(b)

    def test_tsv_format(self, tmp_path):
        store, labels, split = signal_store(tmp_path)
        rows = combination_study(store, labels, split, epochs=5, seed=0)
        lines = combination_tsv(rows).splitlines()
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

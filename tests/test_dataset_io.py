"""Annotation parsing, splitting, and detection file round-trips."""

from __future__ import annotations

import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_tree, default_part_rows, keypoint_position, toy_images
from partkit.dataset_io import (
    Dataset,
    KeyPoint,
    Split,
    _largest_remainder,
    parse_dataset,
    parse_detections,
    read_labels,
    read_split,
    split_dataset,
    write_dataset,
    write_detections,
    write_split,
)
from partkit.detection import Detection, select_all
from partkit.errors import (
    ConfigError,
    DanglingReference,
    DuplicateId,
    InputError,
    KeypointOutOfBounds,
    MalformedLine,
    MissingFile,
)
from partkit.geometry import Box
from partkit.parts import CUB_PART_NAMES, PartKind
from partkit.synth import SynthConfig, synth_dataset


class TestParseDataset:
    def test_toy_tree(self, tmp_path):
        root = build_tree(tmp_path, toy_images(3))
        ds = parse_dataset(root)
        assert len(ds.images) == 3
        assert ds.num_keypoints == 45
        assert ds.images[2].width == 200
        assert ds.class_names[1] == "001.Class_001"
        assert ds.part_names[2] == "beak"

    def test_part_loc_line_field_mapping(self, tmp_path):
        images = [(5, "a/b.jpg", 1, 200, 200)]
        rows = default_part_rows([5])
        rows[1] = "5 2 60.0 41.0 1"  # part 2 is beak
        root = build_tree(tmp_path, images, part_rows=rows)
        ds = parse_dataset(root)
        kp = ds.keypoints[5][CUB_PART_NAMES.index("beak")]
        assert (kp.x, kp.y, kp.visible) == (60.0, 41.0, True)

    def test_dangling_image_in_part_locs(self, tmp_path):
        rows = default_part_rows([1, 2, 3]) + ["99 1 10.0 10.0 1"]
        root = build_tree(tmp_path, toy_images(3), part_rows=rows)
        with pytest.raises(DanglingReference):
            parse_dataset(root)

    def test_duplicate_image_id(self, tmp_path):
        root = build_tree(tmp_path, toy_images(3))
        text = (root / "images.txt").read_text()
        (root / "images.txt").write_text(text + "1 other/path.jpg\n")
        with pytest.raises(DuplicateId):
            parse_dataset(root)

    def test_duplicate_keypoint(self, tmp_path):
        # the repeated line follows image 1's complete, frozen row
        rows = default_part_rows([1, 2, 3]) + ["1 1 11.0 11.0 1"]
        root = build_tree(tmp_path, toy_images(3), part_rows=rows)
        with pytest.raises(DuplicateId) as info:
            parse_dataset(root)
        assert info.value.line_no == 46
        assert str(info.value) == f"{root / 'parts' / 'part_locs.txt'}:46: duplicate keypoint id: (1, 1)"

    def test_missing_file(self, tmp_path):
        root = build_tree(tmp_path, toy_images(3))
        (root / "image_sizes.txt").unlink()
        with pytest.raises(MissingFile):
            parse_dataset(root)

    def test_malformed_line_reports_location(self, tmp_path):
        root = build_tree(tmp_path, toy_images(3))
        (root / "image_class_labels.txt").write_text("1 1\n2\n3 1\n")
        with pytest.raises(MalformedLine) as err:
            parse_dataset(root)
        assert err.value.line_no == 2

    def test_non_utf8_line_reports_location(self, tmp_path):
        root = build_tree(tmp_path, toy_images(3))
        (root / "image_class_labels.txt").write_bytes(b"1 1\n2 1\n3 \xe9\n")
        with pytest.raises(MalformedLine) as err:
            parse_dataset(root)
        assert err.value.line_no == 3
        assert err.value.path == root / "image_class_labels.txt"

    @pytest.mark.parametrize(
        "relative_path", ["/abs/dir/img.jpg", "../../x/img.jpg", "a/../../x.jpg", ".", "a/.", "a/"]
    )
    def test_relative_path_must_stay_inside_the_tree(self, tmp_path, relative_path):
        # label files are written at <out>/labels/<relative_path>.txt
        root = build_tree(tmp_path, toy_images(3))
        (root / "images.txt").write_text(f"1 a.jpg\n2 {relative_path}\n3 c.jpg\n")
        with pytest.raises(MalformedLine) as err:
            parse_dataset(root)
        assert err.value.line_no == 2
        assert err.value.path == root / "images.txt"

    def test_an_image_id_beyond_64_bits_is_malformed(self, tmp_path):
        # region sets hold image ids as signed 64-bit integers
        root = build_tree(tmp_path, toy_images(3))
        (root / "images.txt").write_text("1 a.jpg\n9223372036854775808 b.jpg\n3 c.jpg\n")
        message = r"images\.txt:2: image_id must be <= 9223372036854775807, got "
        with pytest.raises(MalformedLine, match=message):
            parse_dataset(root)

    def test_visible_keypoint_out_of_bounds(self, tmp_path):
        rows = default_part_rows([1, 2, 3])
        rows[0] = "1 1 500.0 10.0 1"  # beyond the 200px image
        root = build_tree(tmp_path, toy_images(3), part_rows=rows)
        with pytest.raises(KeypointOutOfBounds):
            parse_dataset(root)

    def test_invisible_keypoint_out_of_bounds_allowed(self, tmp_path):
        rows = default_part_rows([1, 2, 3])
        rows[0] = "1 1 0.0 0.0 0"
        root = build_tree(tmp_path, toy_images(3), part_rows=rows)
        ds = parse_dataset(root)
        assert not ds.keypoints[1][0].visible

    def test_incomplete_keypoints_rejected(self, tmp_path):
        rows = default_part_rows([1, 2, 3])[:-1]  # image 3 misses part 15
        root = build_tree(tmp_path, toy_images(3), part_rows=rows)
        with pytest.raises(DanglingReference) as info:
            parse_dataset(root)
        assert str(info.value) == f"{root / 'parts' / 'part_locs.txt'}: dangling keypoint reference: (3, 15)"

    def test_an_image_without_keypoint_lines_names_part_1(self, tmp_path):
        rows = default_part_rows([1, 3])
        root = build_tree(tmp_path, toy_images(3), part_rows=rows)
        with pytest.raises(DanglingReference) as info:
            parse_dataset(root)
        assert str(info.value) == f"{root / 'parts' / 'part_locs.txt'}: dangling keypoint reference: (2, 1)"

    def test_lines_of_two_images_may_interleave(self, tmp_path):
        # each image's keypoints moved by its id, so no row equals another
        rows = [
            f"{i} {part_id} {x + i} {y + i} 1"
            for i in (1, 2, 3)
            for part_id, (x, y) in enumerate(map(keypoint_position, range(1, 16)), start=1)
        ]
        mixed = [row for pair in zip(rows[:15], rows[15:30]) for row in pair] + rows[30:]
        in_order = parse_dataset(build_tree(tmp_path / "in_order", toy_images(3), part_rows=rows))
        assert parse_dataset(build_tree(tmp_path / "mixed", toy_images(3), part_rows=mixed)) == in_order

    def test_absent_keypoints_at_zero_share_one_object(self, tmp_path):
        cfg = SynthConfig(num_classes=2, images_per_class=10, part_dropout=0.5)
        synthesized = synth_dataset(cfg, tmp_path)
        parsed = parse_dataset(tmp_path)
        rows = [*synthesized.keypoints.values(), *parsed.keypoints.values()]
        absent = {id(kp) for row in rows for kp in row if not kp.visible}
        assert len(absent) == 1

    def test_absent_keypoints_elsewhere_keep_their_own_objects(self, tmp_path):
        # -0.0 equals 0.0 but is written "-0.0"
        rows = default_part_rows([1, 2])
        rows[:4] = ["1 1 -0.0 0.0 0", "1 2 5.0 7.0 0", "1 3 0.0 0.0 0", "1 4 0.0 0.0 0"]
        root = build_tree(tmp_path / "tree", toy_images(2), part_rows=rows)
        ds = parse_dataset(root)
        row = ds.keypoints[1]  # part id i is column i - 1
        assert row[2] is row[3]
        assert row[0] is not row[2] and row[1] is not row[2]
        write_dataset(ds, tmp_path / "copy")
        written = (tmp_path / "copy" / "parts" / "part_locs.txt").read_bytes()
        assert written == (root / "parts" / "part_locs.txt").read_bytes()
        assert written.startswith(b"1 1 -0.0 0.0 0\n1 2 5.0 7.0 0\n")

    def test_non_canonical_part_names_rejected(self, tmp_path):
        names = list(CUB_PART_NAMES)
        names[0] = "antenna"
        root = build_tree(tmp_path, toy_images(3), part_names=names)
        message = r": expected the 15 canonical keypoint names; missing \['back'\]$"
        with pytest.raises(MalformedLine, match=message) as info:
            parse_dataset(root)
        assert info.value.path == root / "parts" / "parts.txt" and info.value.line_no is None

    def test_write_dataset_rejects_non_canonical_part_names_as_parse_dataset_does(self, tmp_path):
        root = build_tree(tmp_path / "tree", toy_images(1), part_names=["antenna"])
        with pytest.raises(InputError) as parsed:
            parse_dataset(root)
        odd = Dataset(images={}, keypoints={}, class_names={}, part_names={1: "antenna"})
        out = tmp_path / "out"
        with pytest.raises(InputError) as written:
            write_dataset(odd, out)
        assert str(written.value) == str(parsed.value).replace(str(root), str(out))
        assert str(written.value).startswith(f"{out / 'parts' / 'parts.txt'}: expected the 15 canonical")
        assert not out.exists()

    def test_peak_above_the_dataset_returned_is_bounded(self, tmp_path):
        # the image tables die before part_locs.txt is read, and no token
        # string outlives its line; whole-pixel keypoints, as in CUB
        n = 1000
        rng = random.Random(3)
        rows = [
            f"{i} {part_id} {rng.randrange(200)}.0 {rng.randrange(200)}.0 1"
            for i in range(1, n + 1)
            for part_id in range(1, len(CUB_PART_NAMES) + 1)
        ]
        root = build_tree(tmp_path, toy_images(n), part_rows=rows)
        tracemalloc.start()
        try:
            ds = parse_dataset(root)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ds.num_keypoints == n * len(CUB_PART_NAMES)
        # about 25 bytes an image; a slot list held for every image until
        # the end of the file took about 70, and held tables and token
        # strings about 230
        assert peak - held <= n * 50

    def test_bad_visible_flag(self, tmp_path):
        rows = default_part_rows([1, 2, 3])
        rows[0] = "1 1 10.0 10.0 2"
        root = build_tree(tmp_path, toy_images(3), part_rows=rows)
        with pytest.raises(MalformedLine):
            parse_dataset(root)

    def test_round_trip_identity(self, tmp_path):
        rows = default_part_rows([1, 2, 3])
        rows[4] = "1 5 12.345678901 99.000000001 1"  # exercise float fidelity
        root = build_tree(tmp_path, toy_images(3), part_rows=rows)
        ds = parse_dataset(root)
        write_dataset(ds, tmp_path / "copy")
        again = parse_dataset(tmp_path / "copy")
        assert again == ds

    def test_rows_follow_the_names_of_a_renumbered_part_table(self, tmp_path):
        # part id 1 is "throat" and 15 is "back"
        root = build_tree(tmp_path, toy_images(2), part_names=CUB_PART_NAMES[::-1])
        ds = parse_dataset(root)
        assert ds.keypoints[1][0] == KeyPoint(*keypoint_position(15), True)
        assert ds.keypoints[1][-1] == KeyPoint(*keypoint_position(1), True)
        # written back in ascending part id order, as read
        write_dataset(ds, tmp_path / "copy")
        for name in ("parts/parts.txt", "parts/part_locs.txt"):
            assert (tmp_path / "copy" / name).read_bytes() == (root / name).read_bytes()


class TestSplitDataset:
    def _dataset(self, counts: dict[int, int]) -> Dataset:
        images = {}
        keypoints = {}
        image_id = 0
        for class_id, n in counts.items():
            for _ in range(n):
                image_id += 1
                from partkit.dataset_io import ImageRecord

                images[image_id] = ImageRecord(image_id, f"c{class_id}/{image_id}.jpg", class_id, 100, 100)
                keypoints[image_id] = ()
        return Dataset(
            images=images,
            keypoints=keypoints,
            class_names={c: f"{c:03d}.C" for c in counts},
            part_names={i: n for i, n in enumerate(CUB_PART_NAMES, start=1)},
        )

    def test_ten_images_exact_proportions(self):
        ds = self._dataset({1: 10})
        split = split_dataset(ds, (0.5, 0.2, 0.3), seed=7)
        counts = {s: 0 for s in Split}
        for s in split.values():
            counts[s] += 1
        assert counts == {Split.TRAIN: 5, Split.VAL: 2, Split.TEST: 3}

    def test_every_image_exactly_once(self):
        ds = self._dataset({1: 7, 2: 5, 3: 1})
        split = split_dataset(ds, (0.5, 0.2, 0.3), seed=3)
        # every image once, in ascending id order
        assert list(split) == sorted(ds.images)

    def test_single_image_goes_to_train(self):
        # largest remainder on quotas (0.5, 0.2, 0.3): floors are all zero and
        # the one leftover goes to the largest fractional part, 0.5 -> train
        ds = self._dataset({1: 1})
        assert split_dataset(ds, (0.5, 0.2, 0.3), seed=0) == {1: Split.TRAIN}

    def test_insertion_order_does_not_matter(self):
        ds = self._dataset({1: 6, 2: 9})
        shuffled_images = dict(sorted(ds.images.items(), key=lambda kv: -kv[0]))
        ds2 = Dataset(
            images=shuffled_images,
            keypoints=ds.keypoints,
            class_names=ds.class_names,
            part_names=ds.part_names,
        )
        assert split_dataset(ds, seed=11) == split_dataset(ds2, seed=11)

    def test_same_seed_same_result(self):
        ds = self._dataset({1: 10, 2: 4})
        assert split_dataset(ds, seed=5) == split_dataset(ds, seed=5)

    def test_different_seed_differs(self):
        ds = self._dataset({1: 20})
        a = split_dataset(ds, seed=0)
        b = split_dataset(ds, seed=1)
        assert a != b

    def test_bad_ratios(self):
        ds = self._dataset({1: 4})
        for ratios in [(0.5, 0.5, 0.5), (1.0, 0.0, 0.0), (-0.5, 1.0, 0.5)]:
            message = rf"^split fractions must be positive and sum to 1, got {re.escape(str(ratios))}$"
            with pytest.raises(ConfigError, match=message):
                split_dataset(ds, ratios)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(1, 30), min_size=1, max_size=5), st.integers(0, 2**32 - 1))
    def test_per_class_counts_match_largest_remainder(self, class_sizes, seed):
        ds = self._dataset({i + 1: n for i, n in enumerate(class_sizes)})
        assignments = split_dataset(ds, (0.5, 0.2, 0.3), seed=seed)
        for class_id, n in ((i + 1, n) for i, n in enumerate(class_sizes)):
            ids = [i for i in ds.images if ds.images[i].class_id == class_id]
            got = [sum(1 for i in ids if assignments[i] == s) for s in Split]
            assert got == _largest_remainder(n, (0.5, 0.2, 0.3))

    def test_split_file_round_trip(self, tmp_path):
        ds = self._dataset({1: 5, 2: 5})
        split = split_dataset(ds, seed=2)
        write_split(split, tmp_path / "split.txt")
        loaded = read_split(tmp_path / "split.txt")
        assert loaded == split
        assert list(loaded) == list(split)

    def test_read_split_rejects_bad_flag(self, tmp_path):
        (tmp_path / "split.txt").write_text("1 3\n")
        with pytest.raises(MalformedLine):
            read_split(tmp_path / "split.txt")


class TestDetectionFiles:
    def test_line_field_mapping(self, tmp_path):
        path = tmp_path / "det.txt"
        path.write_text("12 head 0.91 10.0 5.0 40.0 35.0\n")
        (det,) = parse_detections(path)
        assert det.image_id == 12
        assert det.kind is PartKind.HEAD
        assert det.score == 0.91
        assert det.box == Box(10, 5, 40, 35)

    def test_score_out_of_range(self, tmp_path):
        path = tmp_path / "det.txt"
        path.write_text("1 head 1.2 0 0 10 10\n")
        message = rf"^{re.escape(str(path))}:1: score 1\.2 outside \[0, 1\]$"
        with pytest.raises(MalformedLine, match=message):
            list(parse_detections(path))

    def test_inverted_box(self, tmp_path):
        path = tmp_path / "det.txt"
        message = rf"^{re.escape(str(path))}:1: invalid box \(10\.0, 0\.0, 10\.0, 10\.0\): requires"
        # the box rule is checked first, so a line that also breaks the
        # score rule reports the box
        for score in ("0.5", "1.5"):
            path.write_text(f"1 head {score} 10 0 10 10\n")
            with pytest.raises(MalformedLine, match=message):
                list(parse_detections(path))

    def test_unknown_part_name(self, tmp_path):
        path = tmp_path / "det.txt"
        path.write_text("1 original 0.5 0 0 10 10\n")
        with pytest.raises(MalformedLine):
            list(parse_detections(path))

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "det.txt"
        path.write_text("1 head 0.5 0 0 10\n")
        with pytest.raises(MalformedLine):
            list(parse_detections(path))

    def test_round_trip(self, tmp_path):
        rng = random.Random(99)
        dets = []
        for i in range(1, 21):
            x1, y1 = rng.uniform(0, 50), rng.uniform(0, 50)
            dets.append(
                Detection(
                    i,
                    PartKind.WING,
                    round(rng.random(), 6),
                    x1,
                    y1,
                    x1 + rng.uniform(1, 40),
                    y1 + rng.uniform(1, 40),
                )
            )
        write_detections(dets, tmp_path / "det.txt")
        assert list(parse_detections(tmp_path / "det.txt")) == dets

    def test_sized_and_iterable_again_in_file_order(self, tmp_path):
        path = tmp_path / "det.txt"
        path.write_text("9 leg 0.5 1 2 3 4\n2 head 1 0 0 10 10\n9 leg 0.75 1 2 3 5\n", encoding="utf-8")
        detections = parse_detections(path)
        expected = [
            Detection(9, PartKind.LEG, 0.5, 1, 2, 3, 4),
            Detection(2, PartKind.HEAD, 1.0, 0, 0, 10, 10),
            Detection(9, PartKind.LEG, 0.75, 1, 2, 3, 5),
        ]
        assert len(detections) == 3
        assert list(detections) == expected
        assert list(detections) == expected

    def test_an_image_id_beyond_64_bits_is_malformed(self, tmp_path):
        path = tmp_path / "det.txt"
        path.write_text("9223372036854775807 head 0.5 0 0 1 1\n9223372036854775808 head 0.5 0 0 1 1\n")
        with pytest.raises(MalformedLine, match=r":2: image_id must be <= 9223372036854775807, got "):
            list(parse_detections(path))

    def test_consecutive_detections_of_an_image_share_one_id(self, tmp_path):
        # ids above 256, which the interpreter does not cache; +1000 and
        # 01000 are other spellings of 1000
        path = tmp_path / "det.txt"
        path.write_text(
            "1000 head 0.5 0 0 1 1\n+1000 leg 0.5 0 0 1 1\n\n01000 wing 0.5 0 0 1 1\n"
            "2000 head 0.5 0 0 1 1\n1000 tail 0.5 0 0 1 1\n1000 leg 0.5 0 0 1 1\n",
            encoding="utf-8",
        )
        ids = [det.image_id for det in parse_detections(path)]
        assert ids == [1000, 1000, 1000, 2000, 1000, 1000]
        assert ids[0] is ids[1] is ids[2]
        assert ids[4] is ids[5]

    @pytest.mark.parametrize(
        "token, message",
        [
            ("1000x", "image_id is not an integer: '1000x'"),
            ("0", "image_id must be >= 1, got 0"),
            ("9223372036854775808", "image_id must be <= 9223372036854775807, got "),
        ],
    )
    def test_a_bad_id_after_a_run_of_one_image_names_its_own_line(self, tmp_path, token, message):
        path = tmp_path / "det.txt"
        path.write_text(f"1000 head 0.5 0 0 1 1\n1000 leg 0.5 0 0 1 1\n{token} wing 0.5 0 0 1 1\n")
        with pytest.raises(MalformedLine, match=rf"det\.txt:3: {message}"):
            list(parse_detections(path))

    def test_holds_no_object_per_detection(self, tmp_path):
        # a Detection, a Box and five floats per line held about 280 bytes
        n = 10000
        rng = random.Random(7)
        lines = []
        for i in range(n):
            x1, y1 = rng.uniform(0, 100), rng.uniform(0, 100)
            x2, y2 = x1 + rng.uniform(1, 50), y1 + rng.uniform(1, 50)
            kind = ("head", "breast", "tail", "wing", "leg")[i % 5]
            lines.append(f"{i // 5 + 1} {kind} {rng.random()!r} {x1!r} {y1!r} {x2!r} {y2!r}\n")
        path = tmp_path / "det.txt"
        path.write_text("".join(lines), encoding="utf-8")
        tracemalloc.start()
        try:
            detections = parse_detections(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(detections) == n
        # the view reads nothing until it is iterated
        assert peak <= n * 64

    def test_len_counts_the_records_past_blank_lines(self, tmp_path):
        path = tmp_path / "det.txt"
        path.write_text("\n1 head 0.5 0 0 10 10\n\n \t\n2 leg 0.25 1 2 3 4\n\n", encoding="utf-8")
        detections = parse_detections(path)
        assert len(detections) == 2
        assert [det.image_id for det in detections] == [1, 2]

    def test_a_missing_file_raises_at_the_call(self, tmp_path):
        with pytest.raises(MissingFile):
            parse_detections(tmp_path / "none.txt")

    def test_selection_holds_the_winners_not_the_candidates(self, tmp_path):
        # eight losing decoys beside each region's winner, in shuffled order
        images, decoys = 400, 8
        rng = random.Random(5)
        lines = []
        for image_id in range(1, images + 1):
            for kind in ("head", "breast", "tail", "wing", "leg"):
                for decoy in range(decoys + 1):
                    score = 0.9 if decoy == 0 else rng.uniform(0.0, 0.85)
                    x1, y1 = rng.uniform(0, 100), rng.uniform(0, 100)
                    x2, y2 = x1 + rng.uniform(1, 50), y1 + rng.uniform(1, 50)
                    lines.append(f"{image_id} {kind} {score!r} {x1!r} {y1!r} {x2!r} {y2!r}\n")
        rng.shuffle(lines)
        path = tmp_path / "det.txt"
        path.write_text("".join(lines), encoding="utf-8")
        tracemalloc.start()
        try:
            selected = select_all(parse_detections(path), 0.3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        winners = sum(len(chosen) for chosen in selected.values())
        assert winners == images * 5
        # about 265 bytes a winner on Python 3.11 and 3.13, whatever the
        # number of decoys; a winner holding a Box took about 305, a dict
        # of each image's winners about 340, and holding the candidates
        # about 800
        assert peak <= winners * 285

    def test_read_labels(self, tmp_path):
        (tmp_path / "labels.txt").write_text("1 4\n2 2\n")
        assert read_labels(tmp_path / "labels.txt") == {1: 4, 2: 2}

    def test_read_labels_duplicate(self, tmp_path):
        (tmp_path / "labels.txt").write_text("1 4\n1 2\n")
        with pytest.raises(DuplicateId):
            read_labels(tmp_path / "labels.txt")


def test_keypoint_positions_are_distinct():
    positions = [keypoint_position(i) for i in range(1, 16)]
    assert len(set(positions)) == 15

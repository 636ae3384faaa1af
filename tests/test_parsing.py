"""Shared record reading and token memos.

Every line-format reader rejects a line with the wrong field count with
its format.  The keypoint reader's rows in ``CUB_PART_NAMES`` order and
float memo and the packed columns of the region reader give the same records
or the same first error as plain per-token parsing, under any numbering of
the part table; the keypoint reader shares equal tokens.
"""

from __future__ import annotations

import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import boxes_of, build_tree
from partkit.dataset_io import (
    Dataset,
    ImageRecord,
    KeyPoint,
    parse_dataset,
    parse_detections,
    read_labels,
    read_split,
)
from partkit.errors import (
    DanglingReference,
    DuplicateId,
    KeypointOutOfBounds,
    MalformedLine,
)
from partkit.geometry import Box
from partkit.parsing import _memo_float, _parse_float, _parse_int, _records
from partkit.parts import CUB_PART_NAMES, REGION_KINDS, PartKind, kind_from_name
from partkit.regions import read_region_sets, read_yolo_labels

# --- field counts -------------------------------------------------------------

# the format each line of a parse_dataset tree's file must follow
DATASET_FORMATS = {
    "images.txt": "<image_id> <relative_path>",
    "image_sizes.txt": "<image_id> <width> <height>",
    "classes.txt": "<class_id> <class_name>",
    "image_class_labels.txt": "<image_id> <class_id>",
    "parts/parts.txt": "<part_id> <part_name>",
    "parts/part_locs.txt": "<image_id> <part_id> <x> <y> <visible>",
}
# standalone reader -> (the reader of a path, a valid file, its format)
STANDALONE_READERS = {
    "read_split": (read_split, "1 0\n2 1\n", "<image_id> <0|1|2>"),
    "read_labels": (read_labels, "1 1\n2 3\n", "<image_id> <class_id>"),
    "parse_detections": (
        lambda path: list(parse_detections(path)),
        "1 head 0.9 0 0 10 10\n2 wing 0.35 5.5 1 20 8\n",
        "<image_id> <part_name> <score> <x1> <y1> <x2> <y2>",
    ),
    "read_region_sets": (
        read_region_sets,
        "1 head 0 0 10 10\n1 leg 2.5 1 4 8\n",
        "<image_id> <part_name> <x1> <y1> <x2> <y2>",
    ),
    "read_yolo_labels": (
        lambda path: read_yolo_labels(path, 200, 100),
        "0 0.5 0.5 0.2 0.1\n3 0.25 0.75 0.1 0.3\n",
        "<class> <cx> <cy> <w> <h>",
    ),
}
# the last field of these formats may hold spaces, so no line is too long
NAME_LAST = {"images.txt", "classes.txt", "parts/parts.txt"}


def short(line: str) -> str:
    return line.rsplit(" ", 1)[0]


def long(line: str) -> str:
    return line + " 7"


@pytest.mark.parametrize(
    "name, change",
    [(name, short) for name in [*DATASET_FORMATS, *STANDALONE_READERS]]
    + [(name, long) for name in [*DATASET_FORMATS, *STANDALONE_READERS] if name not in NAME_LAST],
)
def test_a_line_with_the_wrong_field_count_names_the_format(tmp_path, name, change):
    if name in DATASET_FORMATS:
        # two classes, so that classes.txt has a line 2
        images = [(1, "a/1.jpg", 1, 200, 200), (2, "a/2.jpg", 2, 200, 200)]
        root = build_tree(tmp_path, images)
        path, fmt = root / name, DATASET_FORMATS[name]
        reader = lambda: parse_dataset(root)
    else:
        read, text, fmt = STANDALONE_READERS[name]
        path = tmp_path / "input.txt"
        path.write_text(text, encoding="utf-8")
        reader = lambda: read(path)
    lines = path.read_text(encoding="utf-8").split("\n")
    lines[1] = change(lines[1])
    path.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(MalformedLine) as err:
        reader()
    assert str(err.value) == f"{path}:2: expected '{fmt}'"


# --- the readers as they were before the memos: one _parse_* call per token ---


def parse_dataset_reference(root_dir) -> Dataset:
    root = Path(root_dir)

    paths: dict[int, str] = {}
    p = root / "images.txt"
    for line_no, fields in _records(p, maxsplit=1):
        if len(fields) != 2:
            raise MalformedLine(p, line_no, "expected '<image_id> <relative_path>'")
        image_id = _parse_int(p, line_no, fields[0], "image_id", minimum=1)
        if image_id in paths:
            raise DuplicateId(p, line_no, "image", image_id)
        parts = fields[1].split("/")
        if not parts[0] or ".." in parts or parts[-1] in ("", "."):
            raise MalformedLine(
                p, line_no, f"relative_path must name a file inside the tree: {fields[1]!r}"
            )
        paths[image_id] = fields[1]

    sizes: dict[int, tuple[int, int]] = {}
    p = root / "image_sizes.txt"
    for line_no, fields in _records(p):
        if len(fields) != 3:
            raise MalformedLine(p, line_no, "expected '<image_id> <width> <height>'")
        image_id = _parse_int(p, line_no, fields[0], "image_id", minimum=1)
        width = _parse_int(p, line_no, fields[1], "width", minimum=1)
        height = _parse_int(p, line_no, fields[2], "height", minimum=1)
        if image_id not in paths:
            raise DanglingReference(p, line_no, "image", image_id)
        if image_id in sizes:
            raise DuplicateId(p, line_no, "image size", image_id)
        sizes[image_id] = (width, height)

    class_names: dict[int, str] = {}
    p = root / "classes.txt"
    for line_no, fields in _records(p, maxsplit=1):
        if len(fields) != 2:
            raise MalformedLine(p, line_no, "expected '<class_id> <class_name>'")
        class_id = _parse_int(p, line_no, fields[0], "class_id", minimum=1)
        if class_id in class_names:
            raise DuplicateId(p, line_no, "class", class_id)
        class_names[class_id] = fields[1]

    labels: dict[int, int] = {}
    p = root / "image_class_labels.txt"
    for line_no, fields in _records(p):
        if len(fields) != 2:
            raise MalformedLine(p, line_no, "expected '<image_id> <class_id>'")
        image_id = _parse_int(p, line_no, fields[0], "image_id", minimum=1)
        class_id = _parse_int(p, line_no, fields[1], "class_id", minimum=1)
        if image_id not in paths:
            raise DanglingReference(p, line_no, "image", image_id)
        if class_id not in class_names:
            raise DanglingReference(p, line_no, "class", class_id)
        if image_id in labels:
            raise DuplicateId(p, line_no, "class label", image_id)
        labels[image_id] = class_id

    part_names: dict[int, str] = {}
    p = root / "parts" / "parts.txt"
    for line_no, fields in _records(p, maxsplit=1):
        if len(fields) != 2:
            raise MalformedLine(p, line_no, "expected '<part_id> <part_name>'")
        part_id = _parse_int(p, line_no, fields[0], "part_id", minimum=1)
        if part_id in part_names:
            raise DuplicateId(p, line_no, "part", part_id)
        part_names[part_id] = fields[1]
    canonical = {name.lower() for name in CUB_PART_NAMES}
    declared = {name.strip().lower() for name in part_names.values()}
    if len(part_names) != len(CUB_PART_NAMES) or declared != canonical:
        missing = sorted(canonical - declared)
        raise MalformedLine(
            p,
            None,
            f"expected the {len(CUB_PART_NAMES)} canonical keypoint names"
            + (f"; missing {missing}" if missing else ""),
        )

    for image_id in paths:
        if image_id not in sizes:
            raise DanglingReference(root / "image_sizes.txt", None, "image size", image_id)
        if image_id not in labels:
            raise DanglingReference(root / "image_class_labels.txt", None, "class label", image_id)

    keypoints: dict[int, dict[int, KeyPoint]] = {image_id: {} for image_id in paths}
    p = root / "parts" / "part_locs.txt"
    for line_no, fields in _records(p):
        if len(fields) != 5:
            raise MalformedLine(p, line_no, "expected '<image_id> <part_id> <x> <y> <visible>'")
        image_id = _parse_int(p, line_no, fields[0], "image_id", minimum=1)
        part_id = _parse_int(p, line_no, fields[1], "part_id", minimum=1)
        x = _parse_float(p, line_no, fields[2], "x")
        y = _parse_float(p, line_no, fields[3], "y")
        if fields[4] not in ("0", "1"):
            raise MalformedLine(p, line_no, f"visible flag must be 0 or 1, got {fields[4]!r}")
        visible = fields[4] == "1"
        if image_id not in paths:
            raise DanglingReference(p, line_no, "image", image_id)
        if part_id not in part_names:
            raise DanglingReference(p, line_no, "part", part_id)
        if x < 0 or y < 0:
            raise MalformedLine(p, line_no, "keypoint coordinates must be non-negative")
        if part_id in keypoints[image_id]:
            raise DuplicateId(p, line_no, "keypoint", (image_id, part_id))
        if visible:
            width, height = sizes[image_id]
            if x > width or y > height:
                raise KeypointOutOfBounds(p, line_no, image_id, part_id)
        keypoints[image_id][part_id] = KeyPoint(x, y, visible)

    for image_id, kps in keypoints.items():
        if len(kps) != len(part_names):
            missing_part = sorted(set(part_names) - set(kps))[0]
            raise DanglingReference(p, None, "keypoint", (image_id, missing_part))
    # each row in CUB_PART_NAMES order, whatever the part ids
    column = {pid: CUB_PART_NAMES.index(name.strip().lower()) for pid, name in part_names.items()}
    rows = {
        image_id: tuple(kps[pid] for pid in sorted(kps, key=column.__getitem__))
        for image_id, kps in keypoints.items()
    }

    images = {
        image_id: ImageRecord(
            image_id=image_id,
            relative_path=paths[image_id],
            class_id=labels[image_id],
            width=sizes[image_id][0],
            height=sizes[image_id][1],
        )
        for image_id in paths
    }
    return Dataset(images=images, keypoints=rows, class_names=class_names, part_names=part_names)


def read_region_sets_reference(path) -> dict[int, dict[PartKind, Box]]:
    path = Path(path)
    result: dict[int, dict[PartKind, Box]] = {}
    for line_no, fields in _records(path):
        if len(fields) != 6:
            raise MalformedLine(path, line_no, "expected '<image_id> <part_name> <x1> <y1> <x2> <y2>'")
        image_id = _parse_int(path, line_no, fields[0], "image_id", minimum=1)
        names = sorted(kind.value for kind in REGION_KINDS)
        if fields[1] not in names:
            raise MalformedLine(path, line_no, f"part_name must be one of {names}, got {fields[1]!r}")
        kind = kind_from_name(fields[1])
        x1 = _parse_float(path, line_no, fields[2], "x1")
        y1 = _parse_float(path, line_no, fields[3], "y1")
        x2 = _parse_float(path, line_no, fields[4], "x2")
        y2 = _parse_float(path, line_no, fields[5], "y2")
        if not (x1 < x2 and y1 < y2):
            raise MalformedLine(
                path, line_no, f"invalid box ({x1}, {y1}, {x2}, {y2}): requires x1 < x2 and y1 < y2"
            )
        entry = result.setdefault(image_id, {})
        if kind in entry:
            raise DuplicateId(path, line_no, "region", (image_id, kind.value))
        entry[kind] = Box(x1, y1, x2, y2)
    return result


def read_region_boxes(path) -> dict[int, dict[PartKind, Box]]:
    """``read_region_sets``, each image's regions as boxes."""
    sets = read_region_sets(path)
    return {image_id: boxes_of(sets, image_id) for image_id in sets}


# --- mutated files ------------------------------------------------------------

# tokens int() or float() reject, values the readers reject, spellings both
# accept and, in a name or flag field, a bad name or flag
BAD_TOKENS = [
    "abc", "nan", "NaN", "inf", "-inf", "1e400", "-1e400", "0", "-3", "-0.5", "1_0", "+7", "0x10",
]
KINDS = ["token", "same_in_x_and_y", "negative", "zero_id", "repeat", "blank", "non_utf8"]


@st.composite
def mutated(
    draw, lines: list[str], fields: tuple[int, ...], ids: tuple[int, ...], xy: tuple[int, int]
) -> bytes:
    """``lines`` with 1-3 mutations, encoded: bad tokens in some of
    ``fields`` (so that the check order decides the error), one bad token
    in both ``xy`` fields, a negative ``xy``
    value, an id of 0 in one of ``ids``, a repeated or a blank line, or a
    non-UTF-8 byte."""
    lines = list(lines)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(KINDS))
        i = draw(st.sampled_from([k for k, line in enumerate(lines) if line.strip()]))
        tokens = lines[i].split(" ")
        if kind == "token":
            for field in draw(st.sets(st.sampled_from(fields), min_size=1)):
                tokens[field] = draw(st.sampled_from(BAD_TOKENS))
        elif kind == "same_in_x_and_y":
            tokens[xy[0]] = tokens[xy[1]] = draw(st.sampled_from(BAD_TOKENS))
        elif kind == "negative":
            tokens[draw(st.sampled_from(xy))] = draw(st.sampled_from(["-1.5", "-0.0", "-20"]))
        elif kind == "zero_id":
            tokens[draw(st.sampled_from(ids))] = "0"
        elif kind == "repeat":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
            continue
        elif kind == "blank":
            lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "  ", "\t"])))
            continue
        else:
            tokens[-1] += "\udcff"  # encodes to the byte 0xff
        lines[i] = " ".join(tokens)
    return "".join(line + "\n" for line in lines).encode("utf-8", "surrogateescape")


def outcome(reader, path):
    """The records, or the class and message of the exception raised."""
    try:
        return reader(path)
    except Exception as exc:  # any difference must show
        return type(exc), str(exc)


# few distinct tokens, so lookups hit the memo as they do at scale
COORDS = st.sampled_from(["10.0", "10.5", "20", "37.25", "1e1", "0.0"])
IMAGE_IDS = (1000, 1001, 1002)


@st.composite
def part_loc_lines(draw) -> list[str]:
    return [
        f"{image_id} {part_id} {draw(COORDS)} {draw(COORDS)} {draw(st.sampled_from('01'))}"
        for image_id in IMAGE_IDS
        for part_id in range(1, len(CUB_PART_NAMES) + 1)
    ]


@st.composite
def box_tokens(draw) -> str:
    x1, y1 = draw(st.sampled_from(["0", "2.5", "10"])), draw(st.sampled_from(["0", "2.5", "10"]))
    x2, y2 = draw(st.sampled_from(["12", "30.75", "1e2"])), draw(st.sampled_from(["12", "30.75"]))
    return f"{x1} {y1} {x2} {y2}"


@st.composite
def region_lines(draw) -> list[str]:
    # one line per (image, region) pair keeps the unmutated file valid
    return [
        f"{image_id} {kind.value} {draw(box_tokens())}"
        for image_id in IMAGE_IDS
        for kind in REGION_KINDS
        if draw(st.booleans())
    ] or ["1000 head 0 0 1 1"]


def tree_images():
    return [(i, f"001.Class_001/img_{i}.jpg", 1, 40, 40) for i in IMAGE_IDS]


class TestAgainstPerTokenReaders:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_parse_dataset(self, data):
        lines = data.draw(part_loc_lines())
        raw = data.draw(mutated(lines, fields=(0, 1, 2, 3, 4), ids=(0, 1), xy=(2, 3)))
        # any numbering of the part table
        names = data.draw(st.permutations(CUB_PART_NAMES))
        with tempfile.TemporaryDirectory() as tmp:
            root = build_tree(Path(tmp), tree_images(), part_names=names)
            (root / "parts" / "part_locs.txt").write_bytes(raw)
            assert outcome(parse_dataset, root) == outcome(parse_dataset_reference, root)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_read_region_sets(self, data):
        lines = data.draw(region_lines())
        raw = data.draw(mutated(lines, fields=(0, 1, 2, 3, 4, 5), ids=(0,), xy=(2, 3)))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "regions.txt"
            path.write_bytes(raw)
            assert outcome(read_region_boxes, path) == outcome(read_region_sets_reference, path)

    def test_same_bad_token_in_x_and_y_reports_x(self, tmp_path):
        path = tmp_path / "regions.txt"
        path.write_text("1000 head 0 0 5 5\n1000 wing nan nan 5 5\n", encoding="utf-8")
        with pytest.raises(MalformedLine, match=r":2: x1 is not finite: 'nan'"):
            read_region_sets(path)


class TestSharing:
    def test_keypoints(self, tmp_path):
        rows = [f"{i} {p} 12.5 7.25 1" for i in IMAGE_IDS for p in range(1, len(CUB_PART_NAMES) + 1)]
        root = build_tree(tmp_path, tree_images(), part_rows=rows)
        ds = parse_dataset(root)
        first, other = ds.keypoints[1000][0], ds.keypoints[1001][1]
        assert first.x is other.x and first.y is other.y


class TestMemo:
    def test_rejected_token_is_not_stored(self):
        memo: dict[float, float] = {}
        for what in ("x", "y"):
            with pytest.raises(MalformedLine, match=rf":3: {what} is not finite: 'nan'"):
                _memo_float(memo, Path("f"), 3, "nan", what)
        assert memo == {}
        value = _memo_float(memo, Path("f"), 4, "2.5", "x")
        assert memo == {2.5: 2.5} and value is memo[2.5]

    def test_equal_values_of_other_spellings_share_one_object(self):
        memo: dict[float, float] = {}
        first = _memo_float(memo, Path("f"), 1, "1.5", "x")
        assert _memo_float(memo, Path("f"), 2, "1.50", "y") is first
        assert _memo_float(memo, Path("f"), 3, "15e-1", "x") is first
        assert list(memo) == [1.5]

    def test_negative_zero_keeps_its_sign_beside_zero(self):
        memo: dict[float, float] = {}
        for tokens in (("0.0", "-0.0"), ("-0.0", "0.0")):
            memo.clear()
            values = [_memo_float(memo, Path("f"), 1, token, "x") for token in tokens]
            assert [math.copysign(1.0, v) for v in values] == [math.copysign(1.0, float(t)) for t in tokens]

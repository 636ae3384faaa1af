"""Parsing and writing of CUB-style annotation trees and sidecar files.

The on-disk layout is the standard CUB-200-2011 one (``images.txt``,
``image_class_labels.txt``, ``classes.txt``, ``parts/parts.txt``,
``parts/part_locs.txt``) plus a toolkit-defined ``image_sizes.txt`` sidecar,
since image dimensions are needed for bound clipping but the toolkit never
decodes pixels.

Parsers reject malformed or inconsistent input instead of repairing it.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .detection import Detection
from .errors import (
    ConfigError,
    DanglingReference,
    DuplicateId,
    InputError,
    KeypointOutOfBounds,
    MalformedLine,
    MissingFile,
)
from .parsing import (
    MAX_IMAGE_ID,
    _memo_float,
    _parse_float,
    _parse_int,
    _parse_region_kind,
    _records,
)
from .parts import CUB_PART_NAMES


@dataclass(frozen=True, slots=True)
class ImageRecord:
    image_id: int
    relative_path: str
    class_id: int
    width: int
    height: int


@dataclass(frozen=True, slots=True)
class KeyPoint:
    """One keypoint of an image; its part is its column in the image's row.

    Three slots and the GC header take 56 bytes, in pymalloc's 64-byte
    class.  ``parse_dataset`` and ``synth_dataset`` give every absent
    keypoint at ``0.0 0.0`` one shared object.
    """

    x: float
    y: float
    visible: bool


# the one object of every absent keypoint at 0.0 0.0 (see parse_dataset)
_ABSENT = KeyPoint(0.0, 0.0, False)


class Split(enum.IntEnum):
    TRAIN = 0
    VAL = 1
    TEST = 2


@dataclass
class Dataset:
    """Fully cross-referenced annotation set for one image corpus."""

    images: dict[int, ImageRecord]
    keypoints: dict[int, tuple[KeyPoint, ...]]  # one row per image, in CUB_PART_NAMES order
    class_names: dict[int, str]
    part_names: dict[int, str]

    @property
    def num_keypoints(self) -> int:
        return sum(len(kps) for kps in self.keypoints.values())

    def image_ids(self) -> list[int]:
        return sorted(self.images)


def _fmt(value: float) -> str:
    # repr round-trips doubles exactly and is platform-stable
    return repr(float(value))


def _columns(part_names: Mapping[int, str], path: Path) -> dict[int, int]:
    """Part id -> the row column of its keypoint, its name's position in
    CUB_PART_NAMES; names are matched stripped and lower-cased.  Raises
    a MalformedLine of ``path``, the part table's file, unless the names
    are the canonical ones, each once."""
    column_of = {name: col for col, name in enumerate(CUB_PART_NAMES)}
    declared = {name.strip().lower() for name in part_names.values()}
    if len(part_names) != len(CUB_PART_NAMES) or declared != column_of.keys():
        missing = sorted(column_of.keys() - declared)
        expected = f"expected the {len(CUB_PART_NAMES)} canonical keypoint names"
        raise MalformedLine(path, None, expected + (f"; missing {missing}" if missing else ""))
    return {part_id: column_of[name.strip().lower()] for part_id, name in part_names.items()}


# --- dataset parsing ----------------------------------------------------------


def parse_dataset(root_dir) -> Dataset:
    """Parse a CUB-style annotation tree into a cross-referenced Dataset.

    Requires ``images.txt``, ``image_class_labels.txt``, ``classes.txt``,
    ``image_sizes.txt``, ``parts/parts.txt`` and ``parts/part_locs.txt``
    under ``root_dir``.  Any dangling id, duplicate, malformed line, or
    visible keypoint outside its image is rejected.  Each image's keypoints
    are one row in ``CUB_PART_NAMES`` order, however the part table numbers
    and spells the names; equal coordinates share one float object, and
    every absent keypoint at ``0.0 0.0`` one ``KeyPoint``.  An image's row
    is frozen into its tuple as soon as its last keypoint line is read, so
    only images whose lines are still to come hold a list of slots; lines
    of different images may interleave.
    """
    root = Path(root_dir)

    paths: dict[int, str] = {}
    p = root / "images.txt"
    for line_no, fields in _records(p, "<image_id> <relative_path>", maxsplit=1):
        image_id = _parse_int(p, line_no, fields[0], "image_id", minimum=1, maximum=MAX_IMAGE_ID)
        if image_id in paths:
            raise DuplicateId(p, line_no, "image", image_id)
        # label files are written at <out>/labels/<relative_path>.txt, and no
        # file name holds a NUL byte
        parts = fields[1].split("/")
        if not parts[0] or ".." in parts or parts[-1] in ("", ".") or "\x00" in fields[1]:
            raise MalformedLine(
                p, line_no, f"relative_path must name a file inside the tree: {fields[1]!r}"
            )
        paths[image_id] = fields[1]

    sizes: dict[int, tuple[int, int]] = {}
    p = root / "image_sizes.txt"
    for line_no, fields in _records(p, "<image_id> <width> <height>"):
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
    for line_no, fields in _records(p, "<class_id> <class_name>", maxsplit=1):
        class_id = _parse_int(p, line_no, fields[0], "class_id", minimum=1)
        if class_id in class_names:
            raise DuplicateId(p, line_no, "class", class_id)
        class_names[class_id] = fields[1]

    labels: dict[int, int] = {}
    p = root / "image_class_labels.txt"
    for line_no, fields in _records(p, "<image_id> <class_id>"):
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
    for line_no, fields in _records(p, "<part_id> <part_name>", maxsplit=1):
        part_id = _parse_int(p, line_no, fields[0], "part_id", minimum=1)
        if part_id in part_names:
            raise DuplicateId(p, line_no, "part", part_id)
        part_names[part_id] = fields[1]
    column = _columns(part_names, p)

    # cross-reference completeness: every image needs a size and a label;
    # the records then hold all three, and the keypoints are read without
    # the tables
    images: dict[int, ImageRecord] = {}
    for image_id, relative_path in paths.items():
        if image_id not in sizes:
            raise DanglingReference(root / "image_sizes.txt", None, "image size", image_id)
        if image_id not in labels:
            raise DanglingReference(root / "image_class_labels.txt", None, "class label", image_id)
        images[image_id] = ImageRecord(image_id, relative_path, labels[image_id], *sizes[image_id])
    del paths, sizes, labels

    # an image's slot per keypoint column, from its first keypoint line
    # until its last, when the slots are frozen into its row
    open_rows: dict[int, list] = {}
    keypoints: dict[int, tuple[KeyPoint, ...]] = {}
    coords: dict[float, float] = {}
    p = root / "parts" / "part_locs.txt"
    for line_no, fields in _records(p, "<image_id> <part_id> <x> <y> <visible>"):
        image_id = _parse_int(p, line_no, fields[0], "image_id", minimum=1)
        part_id = _parse_int(p, line_no, fields[1], "part_id", minimum=1)
        x = _memo_float(coords, p, line_no, fields[2], "x")
        y = _memo_float(coords, p, line_no, fields[3], "y")
        if fields[4] not in ("0", "1"):
            raise MalformedLine(p, line_no, f"visible flag must be 0 or 1, got {fields[4]!r}")
        image = images.get(image_id)
        if image is None:
            raise DanglingReference(p, line_no, "image", image_id)
        col = column.get(part_id)
        if col is None:
            raise DanglingReference(p, line_no, "part", part_id)
        if x < 0 or y < 0:
            raise MalformedLine(p, line_no, "keypoint coordinates must be non-negative")
        row = open_rows.get(image_id)
        if row is None and image_id not in keypoints:
            row = open_rows[image_id] = [None] * len(CUB_PART_NAMES)
        if row is None or row[col] is not None:  # a frozen row, or a filled slot
            raise DuplicateId(p, line_no, "keypoint", (image_id, part_id))
        if fields[4] == "1":
            if x > image.width or y > image.height:
                raise KeypointOutOfBounds(p, line_no, image_id, part_id)
            row[col] = KeyPoint(x, y, True)
        elif x == y == 0.0 and math.copysign(1.0, x) == math.copysign(1.0, y) == 1.0:
            row[col] = _ABSENT  # not at -0.0, which equals 0.0 but is written "-0.0"
        else:
            row[col] = KeyPoint(x, y, False)
        if all(row):  # a keypoint is always true, an empty slot None
            keypoints[image_id] = tuple(open_rows.pop(image_id))

    for image_id in images:
        if image_id not in keypoints:
            row = open_rows.get(image_id, [None] * len(CUB_PART_NAMES))
            missing_part = min(pid for pid, col in column.items() if row[col] is None)
            raise DanglingReference(p, None, "keypoint", (image_id, missing_part))
    return Dataset(images=images, keypoints=keypoints, class_names=class_names, part_names=part_names)


def write_dataset(dataset: Dataset, root_dir) -> None:
    """Write a Dataset back out in the exact formats parse_dataset reads;
    each image's keypoint lines are in ascending part id order."""
    root = Path(root_dir)
    part_ids, columns = zip(*sorted(_columns(dataset.part_names, root / "parts" / "parts.txt").items()))
    in_id_order = itemgetter(*columns)  # a row's keypoints in part id order
    (root / "parts").mkdir(parents=True, exist_ok=True)
    images = sorted(dataset.images.items())
    files = {  # each file's lines, made as it is written
        "images.txt": (f"{i} {rec.relative_path}\n" for i, rec in images),
        "image_sizes.txt": (f"{i} {rec.width} {rec.height}\n" for i, rec in images),
        "image_class_labels.txt": (f"{i} {rec.class_id}\n" for i, rec in images),
        "classes.txt": (f"{i} {name}\n" for i, name in sorted(dataset.class_names.items())),
        "parts/parts.txt": (f"{i} {name}\n" for i, name in sorted(dataset.part_names.items())),
        "parts/part_locs.txt": (
            f"{image_id} {part_id} {_fmt(kp.x)} {_fmt(kp.y)} {1 if kp.visible else 0}\n"
            for image_id, row in sorted(dataset.keypoints.items())
            for part_id, kp in zip(part_ids, in_id_order(row))
        ),
    }
    for name, lines in files.items():
        with open(root / name, "w", encoding="utf-8") as fh:
            fh.writelines(lines)


# --- dataset splitting --------------------------------------------------------


def _largest_remainder(n: int, ratios: Sequence[float]) -> list[int]:
    quotas = [n * r for r in ratios]
    counts = [math.floor(q) for q in quotas]
    remainder = n - sum(counts)
    # distribute leftovers by descending fractional part; ties keep ratio order
    order = sorted(range(len(ratios)), key=lambda i: (-(quotas[i] - counts[i]), i))
    for i in order[:remainder]:
        counts[i] += 1
    return counts


def _check_ratios(ratios: Sequence[float]) -> None:
    """The range rule of ``split_dataset``'s ratios; the config checks
    ``train_frac``, ``val_frac`` and ``test_frac`` by it at load time."""
    if len(ratios) != 3 or any(r <= 0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError(f"split fractions must be positive and sum to 1, got {ratios}")


def split_dataset(
    dataset: Dataset,
    ratios: tuple[float, float, float] = (0.5, 0.2, 0.3),
    seed: int = 0,
) -> dict[int, Split]:
    """Stratified train/val/test assignment, deterministic for a fixed seed.

    Each class is allocated counts by the largest-remainder rule (remainder
    ties resolved in train, val, test order), then its image ids are sorted
    and shuffled with a seeded Fisher-Yates before slicing, so the result
    depends only on dataset content, ratios, and seed.  The mapping is in
    ascending image id order, as ``read_split`` returns it.
    """
    _check_ratios(ratios)
    by_class: dict[int, list[int]] = {}
    for image_id in sorted(dataset.images):
        by_class.setdefault(dataset.images[image_id].class_id, []).append(image_id)

    rng = random.Random(seed)
    assignments: dict[int, Split] = {}
    for class_id in sorted(by_class):
        ids = sorted(by_class[class_id])
        rng.shuffle(ids)
        n_train, n_val, _ = _largest_remainder(len(ids), ratios)
        for pos, image_id in enumerate(ids):
            if pos < n_train:
                assignments[image_id] = Split.TRAIN
            elif pos < n_train + n_val:
                assignments[image_id] = Split.VAL
            else:
                assignments[image_id] = Split.TEST
    return dict(sorted(assignments.items()))


def write_split(split: Mapping[int, Split], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for image_id in sorted(split):
            fh.write(f"{image_id} {int(split[image_id])}\n")


def read_split(path) -> dict[int, Split]:
    path = Path(path)
    result: dict[int, Split] = {}
    for line_no, fields in _records(path, "<image_id> <0|1|2>"):
        image_id = _parse_int(path, line_no, fields[0], "image_id", minimum=1)
        if fields[1] not in ("0", "1", "2"):
            raise MalformedLine(path, line_no, f"split must be 0, 1 or 2, got {fields[1]!r}")
        if image_id in result:
            raise DuplicateId(path, line_no, "split", image_id)
        result[image_id] = Split(int(fields[1]))
    return result


def read_labels(path) -> dict[int, int]:
    """Read an ``image_class_labels.txt``-format file standalone."""
    path = Path(path)
    labels: dict[int, int] = {}
    for line_no, fields in _records(path, "<image_id> <class_id>"):
        image_id = _parse_int(path, line_no, fields[0], "image_id", minimum=1)
        class_id = _parse_int(path, line_no, fields[1], "class_id", minimum=1)
        if image_id in labels:
            raise DuplicateId(path, line_no, "class label", image_id)
        labels[image_id] = class_id
    return labels


# --- detection files ----------------------------------------------------------


class DetectionFile:
    """The detections of one file, read lazily: each iteration parses and
    checks the file again and yields one ``Detection`` per line, in file
    order, so a consumer such as ``select_all`` holds only what it keeps.
    Consecutive detections of one image share one ``image_id`` object.
    A bad line raises its ``<path>:<line>:`` error when the iteration
    reaches it.  ``len()`` counts the records by reading the file again,
    without checking them; the benchmark's tracer (``bench/tracing.py``)
    counts the detection lines and ``select_all``'s candidates with it."""

    __slots__ = ("path",)

    def __init__(self, path: Path) -> None:
        self.path = path

    def __iter__(self) -> Iterator[Detection]:
        path = self.path
        image_id = None
        for line_no, fields in _records(path, "<image_id> <part_name> <score> <x1> <y1> <x2> <y2>"):
            parsed = _parse_int(path, line_no, fields[0], "image_id", minimum=1, maximum=MAX_IMAGE_ID)
            image_id = image_id if parsed == image_id else parsed  # one object for a run of equal ids
            kind = _parse_region_kind(path, line_no, fields[1])
            score = _parse_float(path, line_no, fields[2], "score")
            x1 = _parse_float(path, line_no, fields[3], "x1")
            y1 = _parse_float(path, line_no, fields[4], "y1")
            x2 = _parse_float(path, line_no, fields[5], "x2")
            y2 = _parse_float(path, line_no, fields[6], "y2")
            try:
                det = Detection(image_id, kind, score, x1, y1, x2, y2)
            except InputError as exc:  # a score or box range rule
                raise MalformedLine(path, line_no, str(exc)) from None
            yield det

    def __len__(self) -> int:
        return sum(1 for _ in _records(self.path))


def parse_detections(path) -> DetectionFile:
    """The '<image_id> <part_name> <score> <x1> <y1> <x2> <y2>' lines of
    ``path`` as a ``DetectionFile``; a missing file raises here."""
    path = Path(path)
    if not path.is_file():
        raise MissingFile(path)
    return DetectionFile(path)


def write_detections(detections: Iterable[Detection], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for det in detections:
            fh.write(
                f"{det.image_id} {det.kind.value} {_fmt(det.score)} "
                f"{_fmt(det.x1)} {_fmt(det.y1)} {_fmt(det.x2)} {_fmt(det.y2)}\n"
            )

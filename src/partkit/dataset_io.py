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
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .detection import Detection
from .errors import (
    BadRatios,
    DanglingReference,
    DuplicateId,
    InputError,
    InvertedBox,
    KeypointOutOfBounds,
    MalformedLine,
    ScoreOutOfRange,
)
from .geometry import Box
from .parsing import _lines, _memo_float, _memo_int, _parse_float, _parse_int
from .parts import CUB_PART_NAMES, REGION_KINDS, kind_from_name


@dataclass(frozen=True, slots=True)
class ImageRecord:
    image_id: int
    relative_path: str
    class_id: int
    width: int
    height: int


@dataclass(frozen=True, slots=True)
class KeyPoint:
    image_id: int
    part_id: int
    x: float
    y: float
    visible: bool


class Split(enum.IntEnum):
    TRAIN = 0
    VAL = 1
    TEST = 2


@dataclass
class Dataset:
    """Fully cross-referenced annotation set for one image corpus."""

    images: dict[int, ImageRecord]
    keypoints: dict[int, dict[int, KeyPoint]]
    class_names: dict[int, str]
    part_names: dict[int, str]

    @property
    def num_keypoints(self) -> int:
        return sum(len(kps) for kps in self.keypoints.values())

    def image_ids(self) -> list[int]:
        return sorted(self.images)

    def bounds(self, image_id: int) -> Box:
        rec = self.images[image_id]
        return Box(0.0, 0.0, float(rec.width), float(rec.height))

    def keypoints_of(self, image_id: int) -> list[KeyPoint]:
        return [self.keypoints[image_id][pid] for pid in sorted(self.keypoints[image_id])]


def _fmt(value: float) -> str:
    # repr round-trips doubles exactly and is platform-stable
    return repr(float(value))


# --- dataset parsing ----------------------------------------------------------


def parse_dataset(root_dir) -> Dataset:
    """Parse a CUB-style annotation tree into a cross-referenced Dataset.

    Requires ``images.txt``, ``image_class_labels.txt``, ``classes.txt``,
    ``image_sizes.txt``, ``parts/parts.txt`` and ``parts/part_locs.txt``
    under ``root_dir``.  Any dangling id, duplicate, malformed line, or
    visible keypoint outside its image is rejected.  Keypoints built from
    equal tokens share one int or float object.
    """
    root = Path(root_dir)

    paths: dict[int, str] = {}
    p = root / "images.txt"
    for line_no, line in _lines(p):
        fields = line.split(maxsplit=1)
        if len(fields) != 2:
            raise MalformedLine(p, line_no, "expected '<image_id> <relative_path>'")
        image_id = _parse_int(p, line_no, fields[0], "image_id", minimum=1)
        if image_id in paths:
            raise DuplicateId(p, line_no, "image", image_id)
        # label files are written at <out>/labels/<relative_path>.txt
        parts = fields[1].split("/")
        if not parts[0] or ".." in parts or parts[-1] in ("", "."):
            raise MalformedLine(
                p, line_no, f"relative_path must name a file inside the tree: {fields[1]!r}"
            )
        paths[image_id] = fields[1]

    sizes: dict[int, tuple[int, int]] = {}
    p = root / "image_sizes.txt"
    for line_no, line in _lines(p):
        fields = line.split()
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
    for line_no, line in _lines(p):
        fields = line.split(maxsplit=1)
        if len(fields) != 2:
            raise MalformedLine(p, line_no, "expected '<class_id> <class_name>'")
        class_id = _parse_int(p, line_no, fields[0], "class_id", minimum=1)
        if class_id in class_names:
            raise DuplicateId(p, line_no, "class", class_id)
        class_names[class_id] = fields[1]

    labels: dict[int, int] = {}
    p = root / "image_class_labels.txt"
    for line_no, line in _lines(p):
        fields = line.split()
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
    for line_no, line in _lines(p):
        fields = line.split(maxsplit=1)
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
        raise InputError(
            f"{p}: expected the {len(CUB_PART_NAMES)} canonical keypoint names"
            + (f"; missing {missing}" if missing else "")
        )

    # cross-reference completeness: every image needs a size and a label
    for image_id in paths:
        if image_id not in sizes:
            raise DanglingReference(root / "image_sizes.txt", None, "image size", image_id)
        if image_id not in labels:
            raise DanglingReference(root / "image_class_labels.txt", None, "class label", image_id)

    keypoints: dict[int, dict[int, KeyPoint]] = {image_id: {} for image_id in paths}
    ids: dict[str, int] = {}
    coords: dict[str, float] = {}
    p = root / "parts" / "part_locs.txt"
    for line_no, line in _lines(p):
        fields = line.split()
        if len(fields) != 5:
            raise MalformedLine(p, line_no, "expected '<image_id> <part_id> <x> <y> <visible>'")
        image_id = _memo_int(ids, p, line_no, fields[0], "image_id", minimum=1)
        part_id = _memo_int(ids, p, line_no, fields[1], "part_id", minimum=1)
        x = _memo_float(coords, p, line_no, fields[2], "x")
        y = _memo_float(coords, p, line_no, fields[3], "y")
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
        keypoints[image_id][part_id] = KeyPoint(image_id, part_id, x, y, visible)

    for image_id, kps in keypoints.items():
        if len(kps) != len(part_names):
            missing_part = sorted(set(part_names) - set(kps))[0]
            raise DanglingReference(p, None, "keypoint", (image_id, missing_part))

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
    return Dataset(images=images, keypoints=keypoints, class_names=class_names, part_names=part_names)


def write_dataset(dataset: Dataset, root_dir) -> None:
    """Write a Dataset back out in the exact formats parse_dataset reads."""
    root = Path(root_dir)
    (root / "parts").mkdir(parents=True, exist_ok=True)

    with open(root / "images.txt", "w", encoding="utf-8") as fh:
        for image_id in sorted(dataset.images):
            fh.write(f"{image_id} {dataset.images[image_id].relative_path}\n")
    with open(root / "image_sizes.txt", "w", encoding="utf-8") as fh:
        for image_id in sorted(dataset.images):
            rec = dataset.images[image_id]
            fh.write(f"{image_id} {rec.width} {rec.height}\n")
    with open(root / "image_class_labels.txt", "w", encoding="utf-8") as fh:
        for image_id in sorted(dataset.images):
            fh.write(f"{image_id} {dataset.images[image_id].class_id}\n")
    with open(root / "classes.txt", "w", encoding="utf-8") as fh:
        for class_id in sorted(dataset.class_names):
            fh.write(f"{class_id} {dataset.class_names[class_id]}\n")
    with open(root / "parts" / "parts.txt", "w", encoding="utf-8") as fh:
        for part_id in sorted(dataset.part_names):
            fh.write(f"{part_id} {dataset.part_names[part_id]}\n")
    with open(root / "parts" / "part_locs.txt", "w", encoding="utf-8") as fh:
        for image_id in sorted(dataset.keypoints):
            for part_id in sorted(dataset.keypoints[image_id]):
                kp = dataset.keypoints[image_id][part_id]
                flag = 1 if kp.visible else 0
                fh.write(f"{image_id} {part_id} {_fmt(kp.x)} {_fmt(kp.y)} {flag}\n")


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
    if len(ratios) != 3 or any(r <= 0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise BadRatios(f"ratios must be positive and sum to 1, got {ratios}")

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
    for line_no, line in _lines(path):
        fields = line.split()
        if len(fields) != 2:
            raise MalformedLine(path, line_no, "expected '<image_id> <0|1|2>'")
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
    for line_no, line in _lines(path):
        fields = line.split()
        if len(fields) != 2:
            raise MalformedLine(path, line_no, "expected '<image_id> <class_id>'")
        image_id = _parse_int(path, line_no, fields[0], "image_id", minimum=1)
        class_id = _parse_int(path, line_no, fields[1], "class_id", minimum=1)
        if image_id in labels:
            raise DuplicateId(path, line_no, "class label", image_id)
        labels[image_id] = class_id
    return labels


# --- detection files ----------------------------------------------------------

_REGION_NAMES = {kind.value for kind in REGION_KINDS}


def parse_detections(path) -> list[Detection]:
    """Parse '<image_id> <part_name> <score> <x1> <y1> <x2> <y2>' lines."""
    path = Path(path)
    detections: list[Detection] = []
    for line_no, line in _lines(path):
        fields = line.split()
        if len(fields) != 7:
            raise MalformedLine(
                path, line_no, "expected '<image_id> <part_name> <score> <x1> <y1> <x2> <y2>'"
            )
        image_id = _parse_int(path, line_no, fields[0], "image_id", minimum=1)
        if fields[1] not in _REGION_NAMES:
            raise MalformedLine(
                path, line_no, f"part_name must be one of {sorted(_REGION_NAMES)}, got {fields[1]!r}"
            )
        kind = kind_from_name(fields[1])
        score = _parse_float(path, line_no, fields[2], "score")
        if not 0.0 <= score <= 1.0:
            raise ScoreOutOfRange(f"{path}:{line_no}: score {score} outside [0, 1]")
        x1 = _parse_float(path, line_no, fields[3], "x1")
        y1 = _parse_float(path, line_no, fields[4], "y1")
        x2 = _parse_float(path, line_no, fields[5], "x2")
        y2 = _parse_float(path, line_no, fields[6], "y2")
        if not (x1 < x2 and y1 < y2):
            raise InvertedBox(f"{path}:{line_no}: box requires x1 < x2 and y1 < y2")
        detections.append(Detection(image_id, kind, score, Box(x1, y1, x2, y2)))
    return detections


def write_detections(detections: Iterable[Detection], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for det in detections:
            box = det.box
            fh.write(
                f"{det.image_id} {det.kind.value} {_fmt(det.score)} "
                f"{_fmt(box.x1)} {_fmt(box.y1)} {_fmt(box.x2)} {_fmt(box.y2)}\n"
            )

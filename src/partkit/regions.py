"""Ground-truth part region generation from keypoint annotations.

Five regions per image: head and breast are padded minimal rectangles over
their keypoint clusters; tail, wing and leg are keypoint-centered squares
whose side scales from the head box (the head is the most stable size
reference across viewpoints and scales).  When both the left and right
instance of a part are visible, the candidate overlapping the already-fixed
regions the least is kept.
"""

from __future__ import annotations

import os
import random
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import pairwise
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .errors import ConfigError, DuplicateId, InputError, MalformedLine
from .geometry import Box, intersect, iou_vs_union
from .parsing import MAX_IMAGE_ID, _parse_float, _parse_int, _parse_region_kind, _records
from .parts import REGION_KINDS, REGION_OF_KEYPOINT, PartKind
from .seeding import derive_seed

_DEFAULT_ENVELOPE_SCALES = {PartKind.TAIL: 1.0, PartKind.WING: 1.0, PartKind.LEG: 0.6}


@dataclass(frozen=True)
class RegionConfig:
    """Tunables for region generation.

    pad_w / pad_h widen the head and breast minimal rectangles about their
    centers by a factor (1 + pad); envelope_scales size the square envelopes
    as multiples of the larger head dimension; head_fallback_fraction sizes
    the substitute square (as a fraction of the smaller image dimension)
    used when a keypoint cluster collapses to a point or line, or when no
    head exists to reference.
    """

    pad_w: float = 0.2
    pad_h: float = 0.2
    envelope_scales: Mapping[PartKind, float] = field(
        default_factory=lambda: dict(_DEFAULT_ENVELOPE_SCALES)
    )
    head_fallback_fraction: float = 0.1
    center_crop_fraction: float = 0.875
    tie_seed: int = 0

    def __post_init__(self):
        if self.pad_w < 0 or self.pad_h < 0:
            raise ConfigError("pad factors must be >= 0")
        for kind in (PartKind.TAIL, PartKind.WING, PartKind.LEG):
            scale = self.envelope_scales.get(kind)
            if scale is None or scale <= 0:
                raise ConfigError(f"envelope scale for {kind} must be > 0")
        if not 0 < self.head_fallback_fraction <= 1:
            raise ConfigError("head_fallback_fraction must be in (0, 1]")
        if not 0 < self.center_crop_fraction <= 1:
            raise ConfigError("center_crop_fraction must be in (0, 1]")


@dataclass(slots=True)
class PartRegionSet:
    """Resolved regions of one image, at most one box per part kind."""

    image_id: int
    regions: dict[PartKind, Box] = field(default_factory=dict)


_WIDTH = 4 * len(REGION_KINDS)  # the corners of every region kind
_NO_CORNERS = array("d", bytes(8 * _WIDTH))
# for each presence bitmask, the REGION_KINDS positions of its kinds
_PRESENT = [
    tuple(k for k in range(len(REGION_KINDS)) if mask >> k & 1) for mask in range(1 << len(REGION_KINDS))
]


class PackedRegionSets:
    """Region sets of many images, keyed by image id.

    Each image is one row of three columns, in ascending image id order:
    its id, a bitmask of the region kinds it has (bit k for
    ``REGION_KINDS[k]``) and 20 doubles, the corners of each kind in
    ``REGION_KINDS`` order (0.0 where a kind is absent).  ``from_rows``
    builds the columns, iteration yields ascending ids, and ``corners``
    reads a row.
    """

    __slots__ = ("_ids", "_masks", "_corners")

    def __init__(self) -> None:
        self._ids = array("q")
        self._masks = array("B")
        self._corners = array("d")

    @classmethod
    def from_rows(cls, ids: Sequence[int], rows: Iterable[Mapping[PartKind, Box]]) -> PackedRegionSets:
        """``ids``, ascending and distinct, each with the regions of the next
        of ``rows``, in columns allocated once; kinds outside
        ``REGION_KINDS`` are left out."""
        if any(a >= b for a, b in pairwise(ids)):
            raise InputError("image ids must be ascending and distinct")
        packed = cls()
        packed._ids = array("q", ids)
        # repeating an array makes no temporary buffer, as bytes(n) would
        packed._masks, packed._corners = array("B", [0]) * len(ids), _NO_CORNERS * len(ids)
        for row, regions in zip(range(len(ids)), rows, strict=True):
            for k, kind in enumerate(REGION_KINDS):
                box = regions.get(kind)
                if box is not None:
                    packed._add(row, k, box.x1, box.y1, box.x2, box.y2)
        return packed

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[int]:
        return iter(self._ids)

    @property
    def num_regions(self) -> int:
        return sum(mask.bit_count() for mask in self._masks)

    def corners(self, image_id: int) -> list[tuple[int, float, float, float, float]]:
        """``(k, x1, y1, x2, y2)`` for each region of one image, where
        ``REGION_KINDS[k]`` is its kind, in that order; empty for an image
        not held."""
        ids = self._ids
        row = bisect_left(ids, image_id)
        if row == len(ids) or ids[row] != image_id:
            return []
        at = row * _WIDTH
        c = self._corners[at : at + _WIDTH].tolist()
        return [(k, c[4 * k], c[4 * k + 1], c[4 * k + 2], c[4 * k + 3]) for k in _PRESENT[self._masks[row]]]

    def _slot(self, image_id: int) -> int:
        # the row of image_id, inserted without regions when new
        ids = self._ids
        row = bisect_left(ids, image_id)
        if row == len(ids) or ids[row] != image_id:
            ids.insert(row, image_id)
            self._masks.insert(row, 0)
            self._corners[row * _WIDTH : row * _WIDTH] = _NO_CORNERS
        return row

    def _add(self, row: int, k: int, x1: float, y1: float, x2: float, y2: float) -> bool:
        # hold the corners of a region of kind REGION_KINDS[k] in a row;
        # False, holding nothing, when the row already has one
        bit = 1 << k
        if self._masks[row] & bit:
            return False
        self._masks[row] |= bit
        at = row * _WIDTH + 4 * k
        corners = self._corners
        corners[at], corners[at + 1], corners[at + 2], corners[at + 3] = x1, y1, x2, y2
        return True


def _square_region(center: tuple[float, float], side: float, image_bounds: Box) -> Optional[Box]:
    """The square of ``side`` about ``center`` clipped to the image, or None
    when it has no area there: clipped to nothing, or collapsed where half
    its side is lost in its center's coordinates (5e-324 about 100.26)."""
    (cx, cy), half = center, side / 2.0
    if cx - half < cx + half and cy - half < cy + half:
        return intersect(Box(cx - half, cy - half, cx + half, cy + half), image_bounds)
    return None


def cluster_region(
    points: Sequence[tuple[float, float]], image_bounds: Box, cfg: RegionConfig
) -> Optional[Box]:
    """Region around the visible keypoints of the head or the breast, clipped
    to the image, or None when there are none or nothing of it lies there.

    The points' extent widened about its center to (1 + pad_w) x
    (1 + pad_h); when the extent has no width or height (one point, or
    points on one line parallel to an axis), the square of
    head_fallback_fraction of the smaller image side about its midpoint.
    """
    if not points:
        return None
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x1, y1, x2, y2 = min(xs), min(ys), max(xs), max(ys)
    if x1 < x2 and y1 < y2:
        # growing outward from the min/max edges keeps every input point inside
        # even in floating point; center and dimensions are unchanged
        dx = (x2 - x1) * cfg.pad_w / 2.0
        dy = (y2 - y1) * cfg.pad_h / 2.0
        return intersect(Box(x1 - dx, y1 - dy, x2 + dx, y2 + dy), image_bounds)
    side = cfg.head_fallback_fraction * min(image_bounds.width, image_bounds.height)
    return _square_region(((x1 + x2) / 2.0, (y1 + y2) / 2.0), side, image_bounds)


def envelope_side(kind: PartKind, head_box: Optional[Box], image_bounds: Box, cfg: RegionConfig) -> float:
    """Square side for an envelope part: a multiple of the head size.

    Without a head region the reference length degrades to
    head_fallback_fraction of the smaller image dimension.
    """
    scale = cfg.envelope_scales[kind]
    if head_box is not None:
        reference = max(head_box.width, head_box.height)
    else:
        reference = cfg.head_fallback_fraction * min(image_bounds.width, image_bounds.height)
    return scale * reference


def envelope_region(
    kind: PartKind,
    points: Sequence[tuple[float, float]],
    head_box: Optional[Box],
    image_bounds: Box,
    cfg: RegionConfig,
) -> list[Box]:
    """One clipped keypoint-centered square per visible keypoint of
    ``kind``, less the squares with no area left in the image."""
    side = envelope_side(kind, head_box, image_bounds, cfg) if points else 0.0
    squares = (_square_region(point, side, image_bounds) for point in points)
    return [square for square in squares if square is not None]


def eliminate_redundant(
    candidates: Sequence[Box], other_regions: Sequence[Box], tie_rng: random.Random
) -> Box:
    """Keep the candidate with minimum IoU against the union of fixed regions.

    Single candidates pass through.  Exact score ties are resolved by one
    draw from ``tie_rng``; with no other regions every score is 0.0, so the
    draw decides alone.
    """
    if not candidates:
        raise ValueError("no candidate boxes to choose from")
    if len(candidates) == 1:
        return candidates[0]
    others = sorted(other_regions, key=lambda b: (b.x1, b.y1, b.x2, b.y2))
    scores = [iou_vs_union(c, others) for c in candidates]
    best = min(scores)
    tied = [i for i, s in enumerate(scores) if s == best]
    if len(tied) == 1:
        return candidates[tied[0]]
    return candidates[tied[tie_rng.randrange(len(tied))]]


def _visible_points_by_region(row) -> list[list[tuple[float, float]]]:
    # the visible points of each region kind in REGION_KINDS order, each
    # list in the row's order
    points: list[list[tuple[float, float]]] = [[] for _ in REGION_KINDS]
    for kp, k in zip(row, REGION_OF_KEYPOINT):
        if kp.visible and k is not None:
            points[k].append((kp.x, kp.y))
    return points


def generate_region_set(image, keypoints, cfg: RegionConfig) -> PartRegionSet:
    """All resolvable part regions of one image.

    ``image`` needs image_id/width/height attributes and ``keypoints`` is
    that image's keypoint row, in ``CUB_PART_NAMES`` order.  Regions are
    fixed in the order head, breast, tail, wing, leg, so left/right
    resolution for a part sees every region fixed before it.  The tie RNG
    is seeded from (cfg.tie_seed, image_id), making the result a pure
    function of its inputs; tie draws are consumed in region order.
    """
    head_points, breast_points, *envelope_points = _visible_points_by_region(keypoints)
    bounds = Box(0.0, 0.0, float(image.width), float(image.height))

    regions: dict[PartKind, Box] = {}
    fixed: list[Box] = []  # the regions fixed so far, in REGION_KINDS order
    for kind, points in zip(REGION_KINDS[:2], (head_points, breast_points)):
        region = cluster_region(points, bounds, cfg)
        if region is not None:
            regions[kind] = region
            fixed.append(region)
    head = regions.get(PartKind.HEAD)

    tie_rng = random.Random(derive_seed(cfg.tie_seed, f"tie:{image.image_id}"))
    for kind, points in zip(REGION_KINDS[2:], envelope_points):
        candidates = envelope_region(kind, points, head, bounds, cfg)
        if not candidates:
            continue
        region = eliminate_redundant(candidates, fixed, tie_rng)
        regions[kind] = region
        fixed.append(region)
    return PartRegionSet(image_id=image.image_id, regions=regions)


def generate_all(dataset, cfg: RegionConfig) -> PackedRegionSets:
    """Region sets for every image, packed and keyed by image id; an image
    without regions is a key too.  Only one image's ``PartRegionSet``
    exists at a time."""
    ids = dataset.image_ids()
    rows = (generate_region_set(dataset.images[i], dataset.keypoints[i], cfg).regions for i in ids)
    return PackedRegionSets.from_rows(ids, rows)


def center_crop_box(image, cfg: RegionConfig) -> Optional[Box]:
    """Centered square crop covering center_crop_fraction of the short side,
    or None when it collapses to no area, as any part square does (a side of
    5e-324 of the short side is lost in the image's center)."""
    side = cfg.center_crop_fraction * min(image.width, image.height)
    bounds = Box(0.0, 0.0, float(image.width), float(image.height))
    return _square_region((image.width / 2.0, image.height / 2.0), side, bounds)


# --- file formats ---------------------------------------------------------


def _write_region_line(fh, image_id: int, name: str, x1: float, y1: float, x2: float, y2: float) -> bool:
    # 2-decimal fixed format; slivers below its resolution are omitted
    x1, y1, x2, y2 = round(x1, 2), round(y1, 2), round(x2, 2), round(y2, 2)
    if x1 >= x2 or y1 >= y2:
        return False
    fh.write("%s %s %.2f %.2f %.2f %.2f\n" % (image_id, name, x1, y1, x2, y2))
    return True


def write_region_sets(region_sets: PackedRegionSets, path) -> None:
    """Write '<image_id> <part_name> <x1> <y1> <x2> <y2>' region lines."""
    with open(path, "w", encoding="utf-8") as fh:
        for image_id in region_sets:
            for k, x1, y1, x2, y2 in region_sets.corners(image_id):
                _write_region_line(fh, image_id, REGION_KINDS[k].value, x1, y1, x2, y2)


def read_region_sets(path) -> PackedRegionSets:
    """Read region lines into packed region sets, keyed by image id; an
    image id is a key only if some line names it."""
    path = Path(path)
    packed = PackedRegionSets()
    for line_no, fields in _records(path, "<image_id> <part_name> <x1> <y1> <x2> <y2>"):
        image_id = _parse_int(path, line_no, fields[0], "image_id", minimum=1, maximum=MAX_IMAGE_ID)
        kind = _parse_region_kind(path, line_no, fields[1])
        x1 = _parse_float(path, line_no, fields[2], "x1")
        y1 = _parse_float(path, line_no, fields[3], "y1")
        x2 = _parse_float(path, line_no, fields[4], "x2")
        y2 = _parse_float(path, line_no, fields[5], "y2")
        if not (x1 < x2 and y1 < y2):
            try:
                Box(x1, y1, x2, y2)  # raises the box range rule's error
            except InputError as exc:
                raise MalformedLine(path, line_no, str(exc)) from None
        if not packed._add(packed._slot(image_id), REGION_KINDS.index(kind), x1, y1, x2, y2):
            raise DuplicateId(path, line_no, "region", (image_id, kind.value))
    return packed


def region_outside_image(
    region_sets: PackedRegionSets, images: Mapping[int, object]
) -> Optional[tuple[int, PartKind]]:
    """The first region, by ascending image id and then ``REGION_KINDS``
    order, that reaches beyond its image's ``[0, width] x [0, height]``, or
    None.  Every image id of ``region_sets`` must be a key of ``images``."""
    for image_id in region_sets:
        image = images[image_id]
        for k, x1, y1, x2, y2 in region_sets.corners(image_id):
            if x1 < 0 or y1 < 0 or x2 > image.width or y2 > image.height:
                return image_id, REGION_KINDS[k]
    return None


def write_crop_manifest(images, region_sets: PackedRegionSets, cfg: RegionConfig, path) -> None:
    """Region-format manifest of every crop to take, for each image of
    ``images`` (id -> record) in ascending id order: the full image
    ('original'), the center crop ('cropped') unless it collapses, and each
    part region.

    Downstream tooling applies the crops and resizes them to the network
    input size; no pixels are touched here.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for image_id in sorted(images):
            image = images[image_id]
            width, height = float(image.width), float(image.height)
            _write_region_line(fh, image_id, PartKind.ORIGINAL.value, 0.0, 0.0, width, height)
            crop = center_crop_box(image, cfg)
            if crop is not None:
                _write_region_line(fh, image_id, PartKind.CROPPED.value, crop.x1, crop.y1, crop.x2, crop.y2)
            for k, x1, y1, x2, y2 in region_sets.corners(image_id):
                _write_region_line(fh, image_id, REGION_KINDS[k].value, x1, y1, x2, y2)


def export_yolo_labels(
    region_sets: PackedRegionSets, images: Mapping[int, object], out_dir
) -> list[str]:
    """One detector label file per image, next to its relative path.

    The label file is the image's relative path under ``out_dir`` with its
    suffix replaced by ``.txt``, as pathlib maps it (``a/x.tar.gz`` to
    ``a/x.tar.txt``, ``a/x.`` to ``a/x..txt``).  Two images mapping to one
    label file (as ``a/x.jpg`` and ``a/x.png`` do), or one image's label
    file that is a directory of another's (``a/x.jpg`` and ``a/x.txt/y.jpg``),
    raise InputError before ``out_dir`` or any file is made.  Lines are '<class_index>
    <x_center/W> <y_center/H> <w/W> <h/H>' with class indices 0..4 for head,
    breast, tail, wing, leg and 6-decimal fixed rendering; images without
    regions produce empty files.  Returns the label file paths as strings,
    in ascending image id order.
    """
    out = Path(out_dir)
    image_ids = sorted(images)
    # a string per image, not a Path: 6000 Paths held through the export
    # add about 2.4 MB to the peak of gen-regions
    label_paths = [str((out / images[i].relative_path).with_suffix(".txt")) for i in image_ids]
    _check_label_paths(image_ids, label_paths)
    out.mkdir(parents=True, exist_ok=True)
    made: set[str] = set()
    for image_id, label_path in zip(image_ids, label_paths):
        image = images[image_id]
        parent = os.path.dirname(label_path) or os.curdir
        if parent not in made:
            os.makedirs(parent, exist_ok=True)
            made.add(parent)
        w, h = image.width, image.height
        lines = [
            f"{k} {(x1 + x2) / 2.0 / w:.6f} {(y1 + y2) / 2.0 / h:.6f} "
            f"{(x2 - x1) / w:.6f} {(y2 - y1) / h:.6f}\n"
            for k, x1, y1, x2, y2 in region_sets.corners(image_id)
        ]
        with open(label_path, "w", encoding="utf-8") as fh:
            fh.write("".join(lines))
    return label_paths


def _check_label_paths(image_ids: Sequence[int], label_paths: Sequence[str]) -> None:
    """Raise InputError unless every label path can be its own file."""
    # sorting brings equal paths side by side; a dict or set of the paths
    # would add about 0.6 MB to the peak of a 6000-image gen-regions
    for name, following in pairwise(sorted(label_paths)):
        if name == following:
            first, second, *_ = [i for i, p in zip(image_ids, label_paths) if p == name]
            raise InputError(f"images {first} and {second} map to one label file {name}")
    # every directory above a label file: a few hundred at CUB scale
    directories: set[str] = set()
    for path in label_paths:
        directory = os.path.dirname(path)
        while directory not in directories:
            directories.add(directory)
            directory = os.path.dirname(directory)
    for image_id, path in zip(image_ids, label_paths):
        if path in directories:
            inside = path + os.sep
            other = next(i for i, p in zip(image_ids, label_paths) if p.startswith(inside))
            raise InputError(
                f"label file {path} of image {image_id} is also a directory"
                f" holding the label file of image {other}"
            )


def read_yolo_labels(path, image_width: float, image_height: float) -> list[tuple[int, Box]]:
    """Denormalize a label file back to (class_index, Box) pairs."""
    path = Path(path)
    boxes: list[tuple[int, Box]] = []
    for line_no, fields in _records(path, "<class> <cx> <cy> <w> <h>"):
        class_index = _parse_int(path, line_no, fields[0], "class_index", minimum=0)
        if class_index >= len(REGION_KINDS):  # the writer's indices, one per region kind
            raise MalformedLine(
                path, line_no, f"class_index must be < {len(REGION_KINDS)}, got {class_index}"
            )
        cx, cy, w, h = (_parse_float(path, line_no, f, n) for f, n in zip(fields[1:], "cx cy w h".split()))
        # the writer's normalized range, which also keeps the products below
        # finite; a width or height of 0 or less is the box rule's
        for name, value in (("cx", cx), ("cy", cy)):
            if not 0.0 <= value <= 1.0:
                raise MalformedLine(path, line_no, f"{name} must be in [0, 1], got {value!r}")
        for name, value in (("w", w), ("h", h)):
            if value > 1.0:
                raise MalformedLine(path, line_no, f"{name} must be at most 1, got {value!r}")
        half_w = w * image_width / 2.0
        half_h = h * image_height / 2.0
        center_x = cx * image_width
        center_y = cy * image_height
        try:
            box = Box(center_x - half_w, center_y - half_h, center_x + half_w, center_y + half_h)
        except InputError as exc:  # the box range rule
            raise MalformedLine(path, line_no, str(exc)) from None
        boxes.append((class_index, box))
    return boxes

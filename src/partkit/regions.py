"""Ground-truth part region generation from keypoint annotations.

Five regions per image: head and breast are padded minimal rectangles over
their keypoint clusters; tail, wing and leg are keypoint-centered squares
whose side scales from the head box (the head is the most stable size
reference across viewpoints and scales).  When both the left and right
instance of a part are visible, the candidate overlapping the already-fixed
regions the least is kept.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import pairwise
from pathlib import Path
from typing import Mapping, Optional, Sequence

from .errors import (
    ConfigError,
    DegeneratePointSet,
    DuplicateId,
    EmptyCandidates,
    InputError,
    MalformedLine,
)
from .geometry import Box, centered_square, clip, iou_vs_union, minimal_rect
from .parsing import _lines, _memo_float, _memo_int, _parse_float, _parse_int
from .parts import CUB_PART_NAMES, KIND_TO_KEYPOINT_NAMES, REGION_KINDS, PartKind, kind_from_name
from .seeding import derive_seed

_DEFAULT_ENVELOPE_SCALES = {PartKind.TAIL: 1.0, PartKind.WING: 1.0, PartKind.LEG: 0.6}


@dataclass(frozen=True)
class RegionConfig:
    """Tunables for region generation.

    pad_w / pad_h widen the head (and breast) minimal rectangle about its
    center by a factor (1 + pad); envelope_scales size the square envelopes
    as multiples of the larger head dimension; head_fallback_fraction sizes
    the substitute square (as a fraction of the smaller image dimension)
    used when a keypoint cluster collapses to a point or line, or when no
    head exists to reference.
    """

    pad_w: float = 0.2
    pad_h: float = 0.2
    breast_pad_w: Optional[float] = None  # None: follow pad_w
    breast_pad_h: Optional[float] = None
    envelope_scales: Mapping[PartKind, float] = field(
        default_factory=lambda: dict(_DEFAULT_ENVELOPE_SCALES)
    )
    head_fallback_fraction: float = 0.1
    center_crop_fraction: float = 0.875
    tie_seed: int = 0

    def __post_init__(self):
        if self.pad_w < 0 or self.pad_h < 0:
            raise ConfigError("pad factors must be >= 0")
        for name in ("breast_pad_w", "breast_pad_h"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ConfigError(f"{name} must be >= 0")
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


def padded_rect(points: Sequence[tuple[float, float]], pad_w: float, pad_h: float) -> Box:
    """Minimal rectangle widened about its center to (1+pad_w) x (1+pad_h).

    This is the pre-clip region; raises DegeneratePointSet when the points
    have no 2D extent.
    """
    rect = minimal_rect(points)
    # growing outward from the min/max edges keeps every input point inside
    # even in floating point; center and dimensions are unchanged
    dx = rect.width * pad_w / 2.0
    dy = rect.height * pad_h / 2.0
    return Box(rect.x1 - dx, rect.y1 - dy, rect.x2 + dx, rect.y2 + dy)


def _extent_center(points: Sequence[tuple[float, float]]) -> tuple[float, float]:
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    return (min(xs) + max(xs)) / 2.0, (min(ys) + max(ys)) / 2.0


def _fallback_square(
    points: Sequence[tuple[float, float]], image_bounds: Box, fraction: float
) -> Box:
    # degenerate clusters get a square sized from the image, centered on the
    # cluster's extent midpoint; this replaces the padded rectangle entirely
    side = fraction * min(image_bounds.width, image_bounds.height)
    return centered_square(_extent_center(points), side)


def _cluster_region(
    points: Sequence[tuple[float, float]],
    image_bounds: Box,
    pad_w: float,
    pad_h: float,
    fallback_fraction: float,
) -> Optional[Box]:
    if not points:
        return None
    try:
        region = padded_rect(points, pad_w, pad_h)
    except DegeneratePointSet:
        region = _fallback_square(points, image_bounds, fallback_fraction)
    return clip(region, image_bounds)


def head_region(
    points: Sequence[tuple[float, float]], image_bounds: Box, cfg: RegionConfig
) -> Optional[Box]:
    """Region around the visible head keypoints, or None when there are none."""
    return _cluster_region(points, image_bounds, cfg.pad_w, cfg.pad_h, cfg.head_fallback_fraction)


def breast_region(
    points: Sequence[tuple[float, float]], image_bounds: Box, cfg: RegionConfig
) -> Optional[Box]:
    pad_w = cfg.pad_w if cfg.breast_pad_w is None else cfg.breast_pad_w
    pad_h = cfg.pad_h if cfg.breast_pad_h is None else cfg.breast_pad_h
    return _cluster_region(points, image_bounds, pad_w, pad_h, cfg.head_fallback_fraction)


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
    """One clipped keypoint-centered square per visible keypoint of ``kind``."""
    side = envelope_side(kind, head_box, image_bounds, cfg) if points else 0.0
    candidates = []
    for point in points:
        clipped = clip(centered_square(point, side), image_bounds)
        if clipped is not None:
            candidates.append(clipped)
    return candidates


def eliminate_redundant(
    candidates: Sequence[Box], other_regions: Sequence[Box], tie_rng: random.Random
) -> Box:
    """Keep the candidate with minimum IoU against the union of fixed regions.

    Single candidates pass through.  Exact score ties are resolved by one
    draw from ``tie_rng``; with no other regions every score is 0.0, so the
    draw decides alone.
    """
    if not candidates:
        raise EmptyCandidates("no candidate boxes to choose from")
    if len(candidates) == 1:
        return candidates[0]
    others = sorted(other_regions, key=lambda b: (b.x1, b.y1, b.x2, b.y2))
    scores = [iou_vs_union(c, others) for c in candidates]
    best = min(scores)
    tied = [i for i, s in enumerate(scores) if s == best]
    if len(tied) == 1:
        return candidates[tied[0]]
    return candidates[tied[tie_rng.randrange(len(tied))]]


# keypoint name -> the REGION_KINDS position of the region it feeds; "back"
# feeds none
_REGION_OF_KEYPOINT: dict[str, int] = {
    name: index
    for index, kind in enumerate(REGION_KINDS)
    for name in KIND_TO_KEYPOINT_NAMES[kind]
}
_CANONICAL_PART_NAMES = {i: name for i, name in enumerate(CUB_PART_NAMES, start=1)}


def _visible_points_by_region(
    keypoints, part_names: Mapping[int, str]
) -> list[list[tuple[float, float]]]:
    # one pass over the name table, one over the keypoints; the visible
    # points of each region kind in REGION_KINDS order, each list in the
    # keypoints' order
    points: list[list[tuple[float, float]]] = [[] for _ in REGION_KINDS]
    bucket_of = {}  # part id -> the point list of its region
    for pid, name in part_names.items():
        index = _REGION_OF_KEYPOINT.get(name.strip().lower())
        if index is not None:
            bucket_of[pid] = points[index]
    for kp in keypoints:
        if kp.visible:
            bucket = bucket_of.get(kp.part_id)
            if bucket is not None:
                bucket.append((kp.x, kp.y))
    return points


def generate_region_set(
    image,
    keypoints,
    cfg: RegionConfig,
    part_names: Optional[Mapping[int, str]] = None,
) -> PartRegionSet:
    """All resolvable part regions of one image.

    ``image`` needs image_id/width/height attributes and ``keypoints`` is
    that image's keypoint list; ``part_names`` maps keypoint ids to names
    (canonical CUB numbering when omitted).  Regions are fixed in the order
    head, breast, tail, wing, leg, so left/right resolution for a part sees
    every region fixed before it.  The tie RNG is seeded from
    (cfg.tie_seed, image_id), making the result a pure function of its
    inputs; tie draws are consumed in region order.
    """
    head_points, breast_points, *envelope_points = _visible_points_by_region(
        keypoints, part_names or _CANONICAL_PART_NAMES
    )
    bounds = Box(0.0, 0.0, float(image.width), float(image.height))

    regions: dict[PartKind, Box] = {}
    fixed: list[Box] = []  # the regions fixed so far, in REGION_KINDS order
    head = head_region(head_points, bounds, cfg)
    if head is not None:
        regions[PartKind.HEAD] = head
        fixed.append(head)
    breast = breast_region(breast_points, bounds, cfg)
    if breast is not None:
        regions[PartKind.BREAST] = breast
        fixed.append(breast)

    tie_rng = random.Random(derive_seed(cfg.tie_seed, f"tie:{image.image_id}"))
    for kind, points in zip(REGION_KINDS[2:], envelope_points):
        candidates = envelope_region(kind, points, head, bounds, cfg)
        if not candidates:
            continue
        region = eliminate_redundant(candidates, fixed, tie_rng)
        regions[kind] = region
        fixed.append(region)
    return PartRegionSet(image_id=image.image_id, regions=regions)


def generate_all(dataset, cfg: RegionConfig) -> dict[int, PartRegionSet]:
    """Region sets for every image, keyed by image id."""
    return {
        image_id: generate_region_set(
            dataset.images[image_id],
            dataset.keypoints_of(image_id),
            cfg,
            dataset.part_names,
        )
        for image_id in dataset.image_ids()
    }


def center_crop_box(image, cfg: RegionConfig) -> Box:
    """Centered square crop covering center_crop_fraction of the short side."""
    side = cfg.center_crop_fraction * min(image.width, image.height)
    return centered_square((image.width / 2.0, image.height / 2.0), side)


# --- file formats ---------------------------------------------------------


def _write_region_line(fh, image_id: int, name: str, box: Box) -> bool:
    # 2-decimal fixed format; slivers below its resolution are omitted
    x1, y1, x2, y2 = round(box.x1, 2), round(box.y1, 2), round(box.x2, 2), round(box.y2, 2)
    if x1 >= x2 or y1 >= y2:
        return False
    fh.write("%s %s %.2f %.2f %.2f %.2f\n" % (image_id, name, x1, y1, x2, y2))
    return True


def write_region_sets(region_sets: Mapping[int, PartRegionSet], path) -> None:
    """Write '<image_id> <part_name> <x1> <y1> <x2> <y2>' region lines."""
    with open(path, "w", encoding="utf-8") as fh:
        for image_id in sorted(region_sets):
            regions = region_sets[image_id].regions
            for kind in REGION_KINDS:
                if kind in regions:
                    _write_region_line(fh, image_id, kind.value, regions[kind])


def read_region_sets(path) -> dict[int, PartRegionSet]:
    """Read region lines; boxes built from equal tokens share one float."""
    path = Path(path)
    result: dict[int, PartRegionSet] = {}
    ids: dict[str, int] = {}
    coords: dict[str, float] = {}
    for line_no, line in _lines(path):
        fields = line.split()
        if len(fields) != 6:
            raise MalformedLine(path, line_no, "expected '<image_id> <part_name> <x1> <y1> <x2> <y2>'")
        image_id = _memo_int(ids, path, line_no, fields[0], "image_id", minimum=1)
        try:
            kind = kind_from_name(fields[1])
        except KeyError:
            raise MalformedLine(path, line_no, f"unknown part name {fields[1]!r}") from None
        if kind not in REGION_KINDS:
            raise MalformedLine(path, line_no, f"{fields[1]!r} is not a part region name")
        x1 = _memo_float(coords, path, line_no, fields[2], "x1")
        y1 = _memo_float(coords, path, line_no, fields[3], "y1")
        x2 = _memo_float(coords, path, line_no, fields[4], "x2")
        y2 = _memo_float(coords, path, line_no, fields[5], "y2")
        if not (x1 < x2 and y1 < y2):
            raise MalformedLine(path, line_no, "region box requires x1 < x2 and y1 < y2")
        entry = result.get(image_id)
        if entry is None:
            entry = result[image_id] = PartRegionSet(image_id)
        elif kind in entry.regions:
            raise DuplicateId(path, line_no, "region", (image_id, kind.value))
        entry.regions[kind] = Box(x1, y1, x2, y2)
    return result


def write_crop_manifest(dataset, region_sets: Mapping[int, PartRegionSet], cfg: RegionConfig, path) -> None:
    """Region-format manifest of every crop to take: the full image
    ('original'), the center crop ('cropped'), and each part region.

    Downstream tooling applies the crops and resizes them to the network
    input size; no pixels are touched here.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for image_id in dataset.image_ids():
            image = dataset.images[image_id]
            full = Box(0.0, 0.0, float(image.width), float(image.height))
            _write_region_line(fh, image_id, PartKind.ORIGINAL.value, full)
            _write_region_line(fh, image_id, PartKind.CROPPED.value, center_crop_box(image, cfg))
            regions = region_sets.get(image_id)
            if regions is not None:
                for kind in REGION_KINDS:
                    if kind in regions.regions:
                        _write_region_line(fh, image_id, kind.value, regions.regions[kind])


def export_yolo_labels(
    region_sets: Mapping[int, PartRegionSet], images: Mapping[int, object], out_dir
) -> list[Path]:
    """One detector label file per image, next to its relative path.

    The label file is the image's relative path under ``out_dir`` with its
    suffix replaced by ``.txt``.  Two images mapping to one label file (as
    ``a/x.jpg`` and ``a/x.png`` do) raise InputError before any file is
    written.  Lines are '<class_index> <x_center/W> <y_center/H> <w/W>
    <h/H>' with class indices 0..4 for head, breast, tail, wing, leg and
    6-decimal fixed rendering; images without regions produce empty files.
    """
    out = Path(out_dir)
    image_ids = sorted(images)
    label_paths = [(out / images[i].relative_path).with_suffix(".txt") for i in image_ids]
    # sorting brings equal paths side by side; a dict or set of the paths
    # would add about 0.6 MB to the peak of a 6000-image gen-regions
    for name, following in pairwise(sorted(map(str, label_paths))):
        if name == following:
            first, second, *_ = [i for i, p in zip(image_ids, label_paths) if str(p) == name]
            raise InputError(f"images {first} and {second} map to one label file {name}")
    made: set[Path] = set()
    for image_id, label_path in zip(image_ids, label_paths):
        image = images[image_id]
        if label_path.parent not in made:
            label_path.parent.mkdir(parents=True, exist_ok=True)
            made.add(label_path.parent)
        lines = []
        regions = region_sets.get(image_id)
        if regions is not None:
            for class_index, kind in enumerate(REGION_KINDS):
                box = regions.regions.get(kind)
                if box is None:
                    continue
                cx, cy = box.center
                lines.append(
                    f"{class_index} {cx / image.width:.6f} {cy / image.height:.6f} "
                    f"{box.width / image.width:.6f} {box.height / image.height:.6f}"
                )
        label_path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return label_paths


def read_yolo_labels(path, image_width: float, image_height: float) -> list[tuple[int, Box]]:
    """Denormalize a label file back to (class_index, Box) pairs."""
    path = Path(path)
    boxes: list[tuple[int, Box]] = []
    for line_no, line in _lines(path):
        fields = line.split()
        if len(fields) != 5:
            raise MalformedLine(path, line_no, "expected '<class> <cx> <cy> <w> <h>'")
        class_index = _parse_int(path, line_no, fields[0], "class_index", minimum=0)
        cx, cy, w, h = (_parse_float(path, line_no, f, n) for f, n in zip(fields[1:], "cx cy w h".split()))
        half_w = w * image_width / 2.0
        half_h = h * image_height / 2.0
        center_x = cx * image_width
        center_y = cy * image_height
        boxes.append(
            (class_index, Box(center_x - half_w, center_y - half_h, center_x + half_w, center_y + half_h))
        )
    return boxes

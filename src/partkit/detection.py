"""Detector output post-processing and part-localization scoring.

Raw per-image candidates are reduced to at most one box per part kind (the
highest-scoring candidate above a confidence floor), and localization
quality is reported as the fraction of visible ground-truth parts whose
selected box overlaps ground truth at or above an IoU cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from .errors import ConfigError, InputError
from .geometry import Box, iou
from .parts import REGION_KINDS, PartKind
from .regions import PackedRegionSets


@dataclass(frozen=True, slots=True)
class Detection:
    """One scored candidate box for a part kind on one image.

    The box's corners are slots of the detection itself, so each winner
    that ``select_all`` keeps is one object; the box rule (``x1 < x2`` and
    ``y1 < y2``) is checked before the score rule, with ``Box``'s message.
    """

    image_id: int
    kind: PartKind
    score: float
    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        if not (self.x1 < self.x2 and self.y1 < self.y2):
            Box(self.x1, self.y1, self.x2, self.y2)  # raises the box range rule's error
        if not 0.0 <= self.score <= 1.0:
            raise InputError(f"score {self.score} outside [0, 1]")

    @property
    def box(self) -> Box:
        return Box(self.x1, self.y1, self.x2, self.y2)


@dataclass(frozen=True)
class PcpEntry:
    localized_count: int
    visible_count: int

    @property
    def pcp(self) -> float:
        return self.localized_count / self.visible_count


@dataclass
class PcpReport:
    iou_threshold: float
    per_kind: dict[PartKind, PcpEntry] = field(default_factory=dict)

    def to_tsv(self) -> str:
        lines = [f"#iou_threshold={self.iou_threshold!r}"]
        for kind in REGION_KINDS:
            entry = self.per_kind.get(kind)
            if entry is None:
                continue
            lines.append(
                f"{kind.value}\t{entry.localized_count}\t{entry.visible_count}\t{entry.pcp:.4f}"
            )
        return "".join(line + "\n" for line in lines)


def compute_pcp(
    selected: Mapping[int, Sequence[Detection]],
    ground_truth: PackedRegionSets,
    iou_threshold: float = 0.5,
) -> PcpReport:
    """Percentage of correctly localized parts, per part kind.

    ``selected`` maps an image id to its winners, at most one per kind, as
    ``select_all`` returns them.  A visible ground-truth part counts as
    localized iff a winner of its kind overlaps it at IoU >= iou_threshold;
    the denominator is the number of images where the part exists.  Parts
    visible nowhere are omitted from the report, not reported as failures.
    """
    if not 0.0 < iou_threshold < 1.0:
        raise ConfigError("iou_threshold must be in (0, 1)")
    localized = {kind: 0 for kind in REGION_KINDS}
    visible = {kind: 0 for kind in REGION_KINDS}
    for image_id in ground_truth:
        chosen = {det.kind: det for det in selected.get(image_id, ())}
        # the corners of each region: a Box only where a detection meets it
        for k, x1, y1, x2, y2 in ground_truth.corners(image_id):
            kind = REGION_KINDS[k]
            visible[kind] += 1
            det = chosen.get(kind)
            if det is not None and iou(det.box, Box(x1, y1, x2, y2)) >= iou_threshold:
                localized[kind] += 1
    report = PcpReport(iou_threshold=iou_threshold)
    for kind in REGION_KINDS:
        if visible[kind] > 0:
            report.per_kind[kind] = PcpEntry(localized[kind], visible[kind])
    return report


def _rank(det: Detection) -> tuple[float, ...]:
    # the area as Box.area computes it
    return (-det.score, (det.x2 - det.x1) * (det.y2 - det.y1), det.x1, det.y1, det.x2, det.y2)


def select_all(detections: Iterable[Detection], score_min: float) -> dict[int, tuple[Detection, ...]]:
    """Best valid detection per part kind of each image, in one pass.

    A detection is valid only when its score is strictly greater than
    ``score_min``.  Among valid ones of the same image and kind the least
    ``_rank`` wins: the highest score, then the smaller box, then the
    lexicographically smaller corners; an exact tie keeps the earlier one.
    Images come in ascending id order, each with a tuple of its winners
    only, in ``REGION_KINDS`` order; an image with no valid detection maps
    to ``()``.
    """
    best: dict[int, list[Optional[Detection]]] = {}  # image id -> a slot per region kind
    for det in detections:
        slots = best.get(det.image_id)
        if slots is None:
            slots = best[det.image_id] = [None] * len(REGION_KINDS)
        if det.score > score_min and det.kind in REGION_KINDS:
            slot = REGION_KINDS.index(det.kind)
            held = slots[slot]
            if held is None or _rank(det) < _rank(held):
                slots[slot] = det
    # each slot list dies as its tuple is made
    return {image_id: tuple(d for d in best.pop(image_id) if d is not None) for image_id in sorted(best)}

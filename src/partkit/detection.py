"""Detector output post-processing and part-localization scoring.

Raw per-image candidates are reduced to at most one box per part kind (the
highest-scoring candidate above a confidence floor), and localization
quality is reported as the fraction of visible ground-truth parts whose
selected box overlaps ground truth at or above an IoU cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from .errors import ConfigError, InputError, ScoreOutOfRange
from .geometry import Box, iou
from .parts import REGION_KINDS, PartKind
from .regions import PackedRegionSets


@dataclass(frozen=True, slots=True)
class Detection:
    """One scored candidate box for a part kind on one image."""

    image_id: int
    kind: PartKind
    score: float
    box: Box

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise ScoreOutOfRange(f"score {self.score} outside [0, 1]")


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


def _require_single_image(detections: Sequence[Detection]) -> None:
    ids = {d.image_id for d in detections}
    if len(ids) > 1:
        raise InputError(f"detections span multiple images: {sorted(ids)}")


def select_valid_parts(
    detections: Sequence[Detection], score_min: float
) -> dict[PartKind, Detection]:
    """``select_all`` for the detections of one image."""
    _require_single_image(detections)
    return next(iter(select_all(detections, score_min).values()), {})


def filter_training_boxes(
    predicted: Sequence[Detection], ground_truth: PackedRegionSets, train_iou_min: float
) -> list[Detection]:
    """Keep predictions overlapping same-kind ground truth of their own
    image at IoU >= the threshold; predictions of kinds without ground
    truth there are dropped."""
    _require_single_image(predicted)
    kept = []
    for det in predicted:
        for k, x1, y1, x2, y2 in ground_truth.corners(det.image_id):
            if REGION_KINDS[k] == det.kind and iou(det.box, Box(x1, y1, x2, y2)) >= train_iou_min:
                kept.append(det)
    return kept


def compute_pcp(
    selected: Mapping[int, Mapping[PartKind, Detection]],
    ground_truth: PackedRegionSets,
    iou_threshold: float = 0.5,
) -> PcpReport:
    """Percentage of correctly localized parts, per part kind.

    A visible ground-truth part counts as localized iff a selected
    detection of that kind exists and overlaps it at IoU >= iou_threshold;
    the denominator is the number of images where the part exists.  Parts
    visible nowhere are omitted from the report rather than reported as
    failures.
    """
    if not 0.0 < iou_threshold < 1.0:
        raise ConfigError("iou_threshold must be in (0, 1)")
    localized = {kind: 0 for kind in REGION_KINDS}
    visible = {kind: 0 for kind in REGION_KINDS}
    for image_id in ground_truth:
        chosen = selected.get(image_id, {})
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
    box = det.box
    return (-det.score, box.area, box.x1, box.y1, box.x2, box.y2)


def select_all(
    detections: Iterable[Detection], score_min: float
) -> dict[int, dict[PartKind, Detection]]:
    """Best valid detection per part kind of each image, in one pass.

    A detection is valid only when its score is strictly greater than
    ``score_min``.  Among valid ones of the same image and kind the least
    ``_rank`` wins: the highest score, then the smaller box, then the
    lexicographically smaller corners; an exact tie keeps the earlier one.
    Images come in ascending id order, kinds in ``REGION_KINDS`` order, and
    an image with no valid detection maps to ``{}``.
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
    return {
        image_id: {kind: det for kind, det in zip(REGION_KINDS, best[image_id]) if det is not None}
        for image_id in sorted(best)
    }

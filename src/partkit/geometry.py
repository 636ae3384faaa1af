"""Axis-aligned box algebra in continuous pixel coordinates.

Area is width * height over real coordinates (no inclusive-pixel +1
convention), containment and intersection are closed-set, and zero-area
overlap counts as no overlap.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional, Sequence

from .errors import DegeneratePointSet, InvertedBox, NonPositiveSide


@dataclass(frozen=True, slots=True)
class Box:
    """Axis-aligned rectangle with strictly positive area."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        if not (self.x1 < self.x2 and self.y1 < self.y2):
            raise InvertedBox(
                f"invalid box ({self.x1}, {self.y1}, {self.x2}, {self.y2}): "
                "requires x1 < x2 and y1 < y2"
            )

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return (self.x1 + self.x2) / 2.0, (self.y1 + self.y2) / 2.0

    def contains_point(self, x: float, y: float) -> bool:
        """Closed containment: edge points count as inside."""
        return self.x1 <= x <= self.x2 and self.y1 <= y <= self.y2


def intersect(a: Box, b: Box) -> Optional[Box]:
    """Intersection of two boxes, or None when it has zero area."""
    x1 = max(a.x1, b.x1)
    y1 = max(a.y1, b.y1)
    x2 = min(a.x2, b.x2)
    y2 = min(a.y2, b.y2)
    if x1 < x2 and y1 < y2:
        return Box(x1, y1, x2, y2)
    return None


def iou(a: Box, b: Box) -> float:
    """Intersection over union of two boxes, in [0, 1].

    Symmetric; exactly 1.0 for identical boxes, 0.0 when the interiors are
    disjoint (shared edges do not count).
    """
    inter = intersect(a, b)
    if inter is None:
        return 0.0
    inter_area = inter.area
    return inter_area / (a.area + b.area - inter_area)


def minimal_rect(points: Iterable[tuple[float, float]]) -> Box:
    """Smallest axis-aligned box containing every point (closed edges).

    Raises DegeneratePointSet when the raw extent has zero width or height
    (single point, or all points collinear along an axis); the caller picks
    the fallback.
    """
    pts = list(points)
    if not pts:
        raise ValueError("minimal_rect requires at least one point")
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    x1, x2 = min(xs), max(xs)
    y1, y2 = min(ys), max(ys)
    if x1 == x2 or y1 == y2:
        raise DegeneratePointSet(
            f"point extent has zero {'width' if x1 == x2 else 'height'}"
        )
    return Box(x1, y1, x2, y2)


def centered_square(center: tuple[float, float], side: float) -> Box:
    """Square of the given side centered on a point."""
    if side <= 0:
        raise NonPositiveSide(f"side must be > 0, got {side}")
    cx, cy = center
    half = side / 2.0
    return Box(cx - half, cy - half, cx + half, cy + half)


def clip(b: Box, bounds: Box) -> Optional[Box]:
    """Clip a box to bounds; None when nothing with positive area remains."""
    return intersect(b, bounds)


def union_area(boxes: Sequence[Box]) -> float:
    """Exact area of the union of boxes via inclusion-exclusion.

    Intended for small collections (the per-image region sets hold at most
    five boxes); cost grows as 2^n.
    """
    total = 0.0
    n = len(boxes)
    for k in range(1, n + 1):
        sign = 1.0 if k % 2 == 1 else -1.0
        for combo in combinations(range(n), k):
            common = boxes[combo[0]]
            for idx in combo[1:]:
                common = intersect(common, boxes[idx])
                if common is None:
                    break
            if common is not None:
                total += sign * common.area
    return total


def iou_vs_union(candidate: Box, others: Sequence[Box]) -> float:
    """IoU between one box and the geometric union of several others.

    Both the intersection area (union of pairwise overlaps) and the union
    area are computed exactly by inclusion-exclusion.  Returns 0.0 when
    ``others`` is empty.
    """
    if not others:
        return 0.0
    overlaps = [box for box in (intersect(candidate, o) for o in others) if box]
    inter_area = union_area(overlaps)
    total = candidate.area + union_area(list(others)) - inter_area
    return inter_area / total

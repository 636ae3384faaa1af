"""Axis-aligned box algebra in continuous pixel coordinates.

Area is width * height over real coordinates (no inclusive-pixel +1
convention), and zero-area overlap counts as no overlap.  Every box has
positive area; clipping a box to bounds is ``intersect``, which returns
None when nothing with area remains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import InputError


@dataclass(frozen=True, slots=True)
class Box:
    """Axis-aligned rectangle with strictly positive area."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        if not (self.x1 < self.x2 and self.y1 < self.y2):
            raise InputError(
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
    disjoint (shared edges do not count).  Boxes so small that the union
    area is not positive (every area underflows to 0, as for sides about
    1e-200 wide) have no measurable overlap and score 0.0.
    """
    inter = intersect(a, b)
    if inter is None:
        return 0.0
    inter_area = inter.area
    union = a.area + b.area - inter_area
    if not union > 0.0:
        return 0.0
    return inter_area / union


def minimal_rect(points: Iterable[tuple[float, float]]) -> Box:
    """Smallest axis-aligned box containing every point (closed edges).

    Points with no 2D extent (a single point, or all points on one line
    parallel to an axis) break the box rule and raise its InputError.
    """
    pts = list(points)
    if not pts:
        raise ValueError("minimal_rect requires at least one point")
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    return Box(min(xs), min(ys), max(xs), max(ys))


def union_area(boxes: Sequence[Box]) -> float:
    """Exact area of the union of boxes via inclusion-exclusion.

    Intended for small collections (the per-image region sets hold at most
    five boxes); cost grows as 2^n.
    """
    return _union_area([(b.x1, b.y1, b.x2, b.y2) for b in boxes])


def _union_area(rects: Sequence[tuple[float, float, float, float]]) -> float:
    # inclusion-exclusion over (x1, y1, x2, y2) tuples.  Level k holds the
    # non-empty intersections of k rects, each as (index of its last rect,
    # rect), in itertools.combinations order; a level is summed before the
    # next, so the sum runs in the order of a per-subset loop.  Each
    # intersection extends its prefix's, which max and min compute exactly,
    # and supersets of an empty intersection are never visited.
    total = 0.0
    sign = 1.0
    level = list(enumerate(rects))
    while level:
        for _, (x1, y1, x2, y2) in level:
            total += sign * ((x2 - x1) * (y2 - y1))
        deeper = []
        for last, (x1, y1, x2, y2) in level:
            for j in range(last + 1, len(rects)):
                bx1, by1, bx2, by2 = rects[j]
                # max(a, b) and min(a, b) without the calls: each keeps a
                # unless b is strictly greater (smaller)
                ix1 = bx1 if bx1 > x1 else x1
                iy1 = by1 if by1 > y1 else y1
                ix2 = bx2 if bx2 < x2 else x2
                iy2 = by2 if by2 < y2 else y2
                if ix1 < ix2 and iy1 < iy2:
                    deeper.append((j, (ix1, iy1, ix2, iy2)))
        level = deeper
        sign = -sign
    return total


def iou_vs_union(candidate: Box, others: Sequence[Box]) -> float:
    """IoU between one box and the geometric union of several others.

    Both the intersection area (union of pairwise overlaps) and the union
    area are computed exactly by inclusion-exclusion.  Returns 0.0 when
    ``others`` is empty, and when the union area is not positive (every
    area underflows to 0): such boxes have no measurable overlap.
    """
    if not others:
        return 0.0
    cx1, cy1, cx2, cy2 = candidate.x1, candidate.y1, candidate.x2, candidate.y2
    rects = [(o.x1, o.y1, o.x2, o.y2) for o in others]
    overlaps = []
    for ox1, oy1, ox2, oy2 in rects:
        x1 = ox1 if ox1 > cx1 else cx1
        y1 = oy1 if oy1 > cy1 else cy1
        x2 = ox2 if ox2 < cx2 else cx2
        y2 = oy2 if oy2 < cy2 else cy2
        if x1 < x2 and y1 < y2:
            overlaps.append((x1, y1, x2, y2))
    inter_area = _union_area(overlaps)
    total = (cx2 - cx1) * (cy2 - cy1) + _union_area(rects) - inter_area
    if not total > 0.0:
        return 0.0
    return inter_area / total

"""Box algebra: examples against hand values, properties against a
unit-cell counting oracle that never touches the closed-form arithmetic."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partkit.errors import InputError
from partkit.geometry import (
    Box,
    intersect,
    iou,
    iou_vs_union,
    minimal_rect,
    union_area,
)

GRID = 64


def cell_mask(box: Box) -> np.ndarray:
    """Occupancy of integer unit cells inside a GRID x GRID window."""
    mask = np.zeros((GRID, GRID), dtype=bool)
    mask[int(box.x1) : int(box.x2), int(box.y1) : int(box.y2)] = True
    return mask


def iou_oracle(a: Box, b: Box) -> float:
    inter = np.logical_and(cell_mask(a), cell_mask(b)).sum()
    union = np.logical_or(cell_mask(a), cell_mask(b)).sum()
    return float(inter) / float(union)


def union_area_oracle(boxes) -> float:
    mask = np.zeros((GRID, GRID), dtype=bool)
    for box in boxes:
        mask |= cell_mask(box)
    return float(mask.sum())


def union_area_reference(boxes) -> float:
    """The Box-based inclusion-exclusion that ``union_area`` replaced: every
    subset by size in combinations order, intersected left to right."""
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


def iou_vs_union_reference(candidate: Box, others) -> float:
    """The Box-based ``iou_vs_union`` the tuple kernel replaced, with its
    rule that a union area that is not positive scores 0.0."""
    if not others:
        return 0.0
    overlaps = [box for box in (intersect(candidate, o) for o in others) if box]
    inter_area = union_area_reference(overlaps)
    total = candidate.area + union_area_reference(list(others)) - inter_area
    return inter_area / total if total > 0.0 else 0.0


# a few grid values make touching, nested and identical boxes common; the
# free floats exercise rounding in the products and the sum
COORDS = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 2.25, 3.0, 7.1, 10.0]),
    st.floats(0.0, 200.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def boxes(draw):
    x1, x2 = sorted((draw(COORDS), draw(COORDS)))
    y1, y2 = sorted((draw(COORDS), draw(COORDS)))
    if not (x1 < x2 and y1 < y2):
        x2, y2 = x1 + 1.0, y1 + 1.0
    return Box(x1, y1, x2, y2)


@st.composite
def related_box(draw, to: Box):
    """A box identical to, nested in, touching, disjoint from or unrelated
    to ``to``."""
    relation = draw(st.sampled_from(["identical", "nested", "touching", "disjoint", "any"]))
    if relation == "identical":
        return Box(to.x1, to.y1, to.x2, to.y2)
    if relation == "nested":
        fx1, fx2 = sorted((draw(st.floats(0, 1)), draw(st.floats(0, 1))))
        fy1, fy2 = sorted((draw(st.floats(0, 1)), draw(st.floats(0, 1))))
        x1, x2 = to.x1 + fx1 * to.width, to.x1 + fx2 * to.width
        y1, y2 = to.y1 + fy1 * to.height, to.y1 + fy2 * to.height
        return Box(x1, y1, x2, y2) if x1 < x2 and y1 < y2 else to
    if relation == "touching":
        # shares the right edge (zero-area contact) or the top-left corner
        if draw(st.booleans()):
            return Box(to.x2, to.y1, to.x2 + draw(st.floats(0.5, 50)), to.y2)
        return Box(to.x1 - 3.0, to.y1 - 2.0, to.x1, to.y1)
    if relation == "disjoint":
        return Box(to.x2 + 1.0, to.y2 + 1.0, to.x2 + 5.0, to.y2 + 4.0)
    return draw(boxes())


@st.composite
def candidate_and_others(draw):
    candidate = draw(boxes())
    count = draw(st.integers(0, 4))
    return candidate, [draw(related_box(candidate)) for _ in range(count)]


def int_boxes():
    return st.tuples(
        st.integers(0, GRID - 1), st.integers(0, GRID - 1), st.integers(1, GRID), st.integers(1, GRID)
    ).map(lambda t: Box(t[0], t[1], min(t[0] + t[2], GRID), min(t[1] + t[3], GRID))).filter(
        lambda b: b.x2 > b.x1 and b.y2 > b.y1
    )


class TestBox:
    def test_valid_box_properties(self):
        b = Box(1.0, 2.0, 4.0, 10.0)
        assert b.width == 3.0
        assert b.height == 8.0
        assert b.area == 24.0

    def test_zero_area_rejected(self):
        with pytest.raises(InputError, match=r"^invalid box \(5, 5, 5, 10\): requires x1 < x2 and y1 < y2"):
            Box(5, 5, 5, 10)
        with pytest.raises(InputError, match=r"^invalid box \(0, 3, 10, 3\): requires x1 < x2 and y1 < y2"):
            Box(0, 3, 10, 3)

    def test_inverted_rejected(self):
        with pytest.raises(InputError, match=r"^invalid box \(10, 0, 5, 10\): requires x1 < x2 and y1 < y2"):
            Box(10, 0, 5, 10)


class TestIou:
    def test_identity_is_exactly_one(self):
        b = Box(0, 0, 10, 10)
        assert iou(b, Box(0, 0, 10, 10)) == 1.0

    def test_disjoint_is_zero(self):
        assert iou(Box(0, 0, 10, 10), Box(20, 20, 30, 30)) == 0.0

    def test_edge_touching_is_zero(self):
        # closed-set intersection with zero area still scores 0
        assert iou(Box(0, 0, 10, 10), Box(10, 0, 20, 10)) == 0.0

    def test_half_overlap_is_one_third(self):
        # oracle: intersection covers 50 unit cells, union 150
        a, b = Box(0, 0, 10, 10), Box(5, 0, 15, 10)
        assert iou(a, b) == pytest.approx(1 / 3, abs=1e-12)
        assert iou_oracle(a, b) == pytest.approx(1 / 3, abs=1e-12)

    def test_union_area_underflow_scores_zero(self):
        # every area underflows to 0, so the union is 0: no measurable overlap
        tiny = Box(0.0, 0.0, 1e-200, 1e-200)
        assert tiny.area == 0.0
        assert iou(tiny, Box(0.0, 0.0, 1e-200, 1e-200)) == 0.0
        assert iou(tiny, Box(5e-201, 0.0, 2e-200, 1e-200)) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(int_boxes(), int_boxes())
    def test_matches_cell_counting_oracle(self, a, b):
        assert iou(a, b) == pytest.approx(iou_oracle(a, b), abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(int_boxes(), int_boxes())
    def test_symmetric_and_bounded(self, a, b):
        v = iou(a, b)
        assert v == iou(b, a)
        assert 0.0 <= v <= 1.0

    @settings(max_examples=100, deadline=None)
    @given(int_boxes())
    def test_self_iou_is_exactly_one(self, a):
        assert iou(a, a) == 1.0


class TestMinimalRect:
    def test_three_points(self):
        assert minimal_rect([(10, 20), (30, 5), (25, 40)]) == Box(10, 5, 30, 40)

    def test_axis_spread(self):
        assert minimal_rect([(0, 0), (4, 0), (2, 3)]) == Box(0, 0, 4, 3)

    def test_single_point_degenerate(self):
        with pytest.raises(InputError, match=r"^invalid box \(5, 5, 5, 5\): requires x1 < x2 and y1 < y2$"):
            minimal_rect([(5, 5)])

    def test_collinear_degenerate(self):
        with pytest.raises(InputError, match=r"^invalid box \(0, 5, 20, 5\): requires x1 < x2 and y1 < y2$"):
            minimal_rect([(0, 5), (10, 5), (20, 5)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            minimal_rect([])

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(0, 100, allow_nan=False), st.floats(0, 100, allow_nan=False)),
            min_size=2,
            max_size=10,
        )
    )
    def test_contains_every_point_closed(self, points):
        xs = {p[0] for p in points}
        ys = {p[1] for p in points}
        if len(xs) < 2 or len(ys) < 2:
            with pytest.raises(InputError, match=r"^invalid box .*: requires x1 < x2 and y1 < y2$"):
                minimal_rect(points)
            return
        rect = minimal_rect(points)
        for x, y in points:
            assert rect.x1 <= x <= rect.x2 and rect.y1 <= y <= rect.y2


class TestClip:
    """``intersect`` clipping a box to bounds."""

    def test_partial(self):
        assert intersect(Box(-1, -1, 1, 1), Box(0, 0, 100, 100)) == Box(0, 0, 1, 1)

    def test_inside_unchanged(self):
        b = Box(5, 5, 20, 20)
        assert intersect(b, Box(0, 0, 100, 100)) == b

    def test_outside_absent(self):
        assert intersect(Box(-10, -10, -1, -1), Box(0, 0, 100, 100)) is None

    def test_edge_touching_absent(self):
        assert intersect(Box(-10, 0, 0, 10), Box(0, 0, 100, 100)) is None

    @settings(max_examples=200, deadline=None)
    @given(int_boxes(), int_boxes())
    def test_result_within_bounds(self, b, bounds):
        clipped = intersect(b, bounds)
        if clipped is not None:
            assert clipped.x1 >= bounds.x1 and clipped.y1 >= bounds.y1
            assert clipped.x2 <= bounds.x2 and clipped.y2 <= bounds.y2


class TestIntersect:
    def test_overlap(self):
        assert intersect(Box(0, 0, 10, 10), Box(5, 5, 15, 15)) == Box(5, 5, 10, 10)

    def test_disjoint(self):
        assert intersect(Box(0, 0, 1, 1), Box(2, 2, 3, 3)) is None


class TestUnionArea:
    def test_single(self):
        assert union_area([Box(0, 0, 10, 10)]) == 100.0

    def test_overlapping_pair(self):
        # 100 + 100 - 25
        assert union_area([Box(0, 0, 10, 10), Box(5, 5, 15, 15)]) == 175.0

    def test_empty(self):
        assert union_area([]) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(st.lists(int_boxes(), min_size=1, max_size=4))
    def test_matches_cell_counting_oracle(self, boxes):
        assert union_area(boxes) == pytest.approx(union_area_oracle(boxes), abs=1e-9)


class TestAgainstBoxReference:
    """The tuple kernels give exactly (``==``) what the Box-based
    inclusion-exclusion gave, for 0-4 other boxes."""

    @settings(max_examples=500, deadline=None)
    @given(candidate_and_others())
    def test_iou_vs_union(self, case):
        candidate, others = case
        assert iou_vs_union(candidate, others) == iou_vs_union_reference(candidate, others)

    @settings(max_examples=500, deadline=None)
    @given(candidate_and_others())
    def test_union_area(self, case):
        candidate, others = case
        every = [candidate, *others]
        assert union_area(every) == union_area_reference(every)
        assert union_area(others) == union_area_reference(others)


class TestIouVsUnion:
    def test_no_other_regions_scores_zero(self):
        assert iou_vs_union(Box(0, 0, 10, 10), []) == 0.0

    def test_candidate_equal_to_union(self):
        assert iou_vs_union(Box(0, 0, 10, 10), [Box(0, 0, 10, 10)]) == 1.0

    def test_hand_case_one_seventh(self):
        # inter 100, union 400 + 400 - 100 = 700
        score = iou_vs_union(Box(10, 10, 30, 30), [Box(0, 0, 20, 20)])
        assert score == pytest.approx(1 / 7, abs=1e-12)

    def test_union_area_underflow_scores_zero(self):
        tiny = Box(0.0, 0.0, 1e-200, 1e-200)
        others = [Box(0.0, 0.0, 1e-200, 1e-200), Box(5e-201, 5e-201, 2e-200, 2e-200)]
        assert iou_vs_union(tiny, others) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(int_boxes(), st.lists(int_boxes(), min_size=1, max_size=3))
    def test_matches_cell_counting_oracle(self, candidate, others):
        inter = np.logical_and(
            cell_mask(candidate), np.logical_or.reduce([cell_mask(o) for o in others])
        ).sum()
        union = np.logical_or.reduce([cell_mask(o) for o in others + [candidate]]).sum()
        assert iou_vs_union(candidate, others) == pytest.approx(inter / union, abs=1e-9)

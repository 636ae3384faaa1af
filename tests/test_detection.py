"""Two-threshold detection post-processing and localization scoring."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import packed_regions
from partkit import detection
from partkit.cli import main
from partkit.config import ToolkitConfig
from partkit.detection import (
    Detection,
    PcpEntry,
    PcpReport,
    compute_pcp,
    select_all,
)
from partkit.errors import ConfigError, InputError
from partkit.geometry import Box, iou
from partkit.parts import REGION_KINDS, PartKind


def det(image_id, kind, score, box):
    return Detection(image_id, kind, score, box)


GT_BOX = Box(0.0, 0.0, 10.0, 10.0)


def box_with_iou(fraction: float) -> Box:
    """Axis cut of the 10x10 ground truth: iou(GT_BOX, cut) == fraction."""
    return Box(0.0, 0.0, 10.0, 10.0 * fraction)


class TestThresholds:
    """The selection threshold is a ``ToolkitConfig`` key."""

    def test_defaults(self):
        config = ToolkitConfig()
        assert config.score_min == 0.3

    def test_range_checks(self):
        with pytest.raises(ConfigError, match="score_min must be in"):
            ToolkitConfig(score_min=-0.1)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("pcp_iou_min = 1.5", "bad value for pcp_iou_min: pcp_iou_min must be in (0, 1)"),
            ("score_min = -0.1", "bad value for score_min: score_min must be in [0, 1]"),
        ],
        ids=["pcp_iou_min = 1.5", "score_min = -0.1"],
    )
    def test_out_of_range_config_file_exits_2(self, tmp_path, capsys, line, message):
        config = tmp_path / "partkit.cfg"
        config.write_text(line + "\n", encoding="utf-8")
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {config}:1: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_detection_score_range(self):
        with pytest.raises(InputError, match=r"^score 1\.2 outside \[0, 1\]$"):
            Detection(1, PartKind.HEAD, 1.2, GT_BOX)


class TestSelectValidParts:
    """The one-image cases of ``select_all``, read from that image's entry."""

    def test_highest_score_wins(self):
        dets = [
            det(1, PartKind.HEAD, 0.9, Box(0, 0, 10, 10)),
            det(1, PartKind.HEAD, 0.7, Box(5, 5, 15, 15)),
        ]
        (winner,) = select_all(dets, 0.3)[1]
        assert winner.kind is PartKind.HEAD and winner.score == 0.9

    def test_below_threshold_absent(self):
        dets = [det(1, PartKind.LEG, 0.25, GT_BOX)]
        assert select_all(dets, 0.3)[1] == ()

    def test_strictly_greater_required(self):
        for score, admitted in ((0.31, True), (0.30, False), (0.29, False)):
            dets = [det(1, PartKind.HEAD, score, GT_BOX)]
            assert (select_all(dets, 0.3)[1] == (dets[0],)) is admitted

    def test_score_tie_smaller_area_wins(self):
        small = Box(0, 0, 10, 10)  # area 100
        large = Box(0, 0, 20, 20)  # area 400
        dets = [det(1, PartKind.WING, 0.5, large), det(1, PartKind.WING, 0.5, small)]
        (winner,) = select_all(dets, 0.3)[1]
        assert winner.box == small

    def test_full_tie_lexicographic_corners(self):
        a = Box(0, 0, 10, 10)
        b = Box(1, 0, 11, 10)  # same area, larger x1
        dets = [det(1, PartKind.WING, 0.5, b), det(1, PartKind.WING, 0.5, a)]
        (winner,) = select_all(dets, 0.3)[1]
        assert winner.box == a

    def test_one_entry_per_kind_and_scores_above_threshold(self):
        rng = random.Random(4)
        dets = []
        for _ in range(40):
            kind = rng.choice(REGION_KINDS)
            x1, y1 = rng.uniform(0, 50), rng.uniform(0, 50)
            dets.append(
                det(1, kind, round(rng.random(), 3), Box(x1, y1, x1 + 5, y1 + 5))
            )
        selected = select_all(dets, 0.4)[1]
        kinds = [chosen.kind for chosen in selected]
        # one winner per kind, in REGION_KINDS order
        assert kinds == [kind for kind in REGION_KINDS if kind in kinds]
        for chosen in selected:
            assert chosen.score > 0.4
            same_kind = [d.score for d in dets if d.kind is chosen.kind]
            assert chosen.score == max(same_kind)

    def test_monotone_in_threshold(self):
        rng = random.Random(9)
        dets = [
            det(1, rng.choice(REGION_KINDS), round(rng.random(), 3), Box(0, 0, 5 + i, 5 + i))
            for i in range(30)
        ]
        previous = None
        for step in range(101):
            threshold = step / 100
            count = len(select_all(dets, threshold)[1])
            if previous is not None:
                assert count <= previous
            previous = count

    def test_only_detections_at_or_below_the_floor_map_to_empty(self):
        dets = [det(1, PartKind.HEAD, 0.3, GT_BOX), det(1, PartKind.LEG, 0.1, GT_BOX)]
        assert select_all(dets, 0.3) == {1: ()}

    def test_no_detections_no_images(self):
        assert select_all([], 0.3) == {}


class TestComputePcp:
    def _selected(self, per_image: dict[int, Box]) -> dict[int, tuple[Detection, ...]]:
        return {image_id: (det(image_id, PartKind.HEAD, 0.9, box),) for image_id, box in per_image.items()}

    def _gt(self, image_ids):
        return packed_regions({i: {PartKind.HEAD: GT_BOX} for i in image_ids})

    def test_two_of_three_heads(self):
        selected = self._selected({1: box_with_iou(0.6), 2: box_with_iou(0.8), 3: box_with_iou(0.2)})
        report = compute_pcp(selected, self._gt([1, 2, 3]), 0.5)
        entry = report.per_kind[PartKind.HEAD]
        assert (entry.localized_count, entry.visible_count) == (2, 3)
        assert entry.pcp == pytest.approx(2 / 3)

    def test_exact_threshold_counts_as_localized(self):
        report = compute_pcp(self._selected({1: box_with_iou(0.5)}), self._gt([1]), 0.5)
        assert report.per_kind[PartKind.HEAD].localized_count == 1

    def test_selected_equal_to_gt_scores_one(self):
        report = compute_pcp(self._selected({1: GT_BOX, 2: GT_BOX}), self._gt([1, 2]), 0.5)
        assert report.per_kind[PartKind.HEAD].pcp == 1.0

    def test_missing_selection_counts_in_denominator(self):
        report = compute_pcp(self._selected({1: GT_BOX}), self._gt([1, 2]), 0.5)
        entry = report.per_kind[PartKind.HEAD]
        assert (entry.localized_count, entry.visible_count) == (1, 2)

    def test_kind_without_ground_truth_omitted(self):
        report = compute_pcp(self._selected({1: GT_BOX}), self._gt([1]), 0.5)
        assert PartKind.TAIL not in report.per_kind

    def test_selected_image_without_gt_ignored(self):
        report = compute_pcp(self._selected({1: GT_BOX, 9: GT_BOX}), self._gt([1]), 0.5)
        assert report.per_kind[PartKind.HEAD].visible_count == 1

    def test_threshold_domain(self):
        with pytest.raises(ConfigError):
            compute_pcp({}, self._gt([1]), 0.0)
        with pytest.raises(ConfigError):
            compute_pcp({}, self._gt([1]), 1.0)

    def test_matches_brute_force_recount(self):
        rng = random.Random(31)
        for _ in range(25):
            image_ids = list(range(1, rng.randint(2, 10)))
            gt = {}
            selected = {}
            for i in image_ids:
                regions = {}
                chosen = {}
                for kind in REGION_KINDS:
                    if rng.random() < 0.7:
                        x1, y1 = rng.uniform(0, 40), rng.uniform(0, 40)
                        regions[kind] = Box(x1, y1, x1 + rng.uniform(2, 20), y1 + rng.uniform(2, 20))
                    if rng.random() < 0.7:
                        x1, y1 = rng.uniform(0, 40), rng.uniform(0, 40)
                        chosen[kind] = det(
                            i, kind, 0.9, Box(x1, y1, x1 + rng.uniform(2, 20), y1 + rng.uniform(2, 20))
                        )
                if regions:
                    gt[i] = regions
                if chosen:
                    selected[i] = chosen
            threshold = rng.uniform(0.05, 0.95)
            report = compute_pcp(winners_of(selected), packed_regions(gt), threshold)

            # independent recount, one part kind at a time
            for kind in REGION_KINDS:
                visible = [i for i in gt if kind in gt[i]]
                localized = 0
                for i in visible:
                    pick = selected.get(i, {}).get(kind)
                    if pick is not None and iou(pick.box, gt[i][kind]) >= threshold:
                        localized += 1
                if not visible:
                    assert kind not in report.per_kind
                else:
                    entry = report.per_kind[kind]
                    assert entry.visible_count == len(visible)
                    assert entry.localized_count == localized

    def test_raising_iou_threshold_never_increases_pcp(self):
        rng = random.Random(42)
        gt = {}
        selected = {}
        for i in range(1, 11):
            x1, y1 = rng.uniform(0, 20), rng.uniform(0, 20)
            gt[i] = {PartKind.HEAD: Box(x1, y1, x1 + 10, y1 + 10)}
            dx, dy = rng.uniform(-8, 8), rng.uniform(-8, 8)
            selected[i] = {
                PartKind.HEAD: det(i, PartKind.HEAD, 0.9, Box(x1 + dx, y1 + dy, x1 + 10 + dx, y1 + 10 + dy))
            }
        gt = packed_regions(gt)
        previous = None
        for step in range(1, 100):
            report = compute_pcp(winners_of(selected), gt, step / 100)
            value = report.per_kind[PartKind.HEAD].pcp
            if previous is not None:
                assert value <= previous
            previous = value

    def test_packed_ground_truth_is_read_by_corners(self, monkeypatch):
        """``compute_pcp`` reads each image's corners and calls ``iou`` once
        per region that a selected detection of its kind meets, as a
        recount from the regions finds."""
        rng = random.Random(7)
        gt, selected, meetings = {}, {}, 0
        for i in range(1, 30):
            regions, chosen = {}, {}
            for kind in REGION_KINDS:
                x1, y1 = rng.uniform(0, 40), rng.uniform(0, 40)
                box = Box(x1, y1, x1 + rng.uniform(2, 20), y1 + rng.uniform(2, 20))
                if rng.random() < 0.7:
                    regions[kind] = box
                if rng.random() < 0.7:
                    chosen[kind] = det(i, kind, 0.9, Box(box.x1 + 1, box.y1, box.x2 + 1, box.y2))
                    meetings += kind in regions
            gt[i] = regions
            selected[i] = chosen
        expected = PcpReport(iou_threshold=0.5)
        for kind in REGION_KINDS:
            visible = [i for i in gt if kind in gt[i]]
            localized = sum(
                kind in selected[i] and iou(selected[i][kind].box, gt[i][kind]) >= 0.5 for i in visible
            )
            if visible:
                expected.per_kind[kind] = PcpEntry(localized, len(visible))
        packed = packed_regions(gt)

        calls = []

        def counted_iou(a, b):
            calls.append(b)
            return iou(a, b)

        monkeypatch.setattr(detection, "iou", counted_iou)
        assert compute_pcp(winners_of(selected), packed, 0.5) == expected
        assert len(calls) == meetings


class TestReportAndHelpers:
    def test_tsv_format(self):
        selected = {
            i: (det(i, PartKind.HEAD, 0.9, box),)
            for i, box in {1: box_with_iou(0.6), 2: box_with_iou(0.8), 3: box_with_iou(0.2)}.items()
        }
        gt = packed_regions({i: {PartKind.HEAD: GT_BOX} for i in (1, 2, 3)})
        tsv = compute_pcp(selected, gt, 0.5).to_tsv()
        lines = tsv.splitlines()
        assert lines[0] == "#iou_threshold=0.5"
        assert lines[1] == "head\t2\t3\t0.6667"

    def test_select_all(self):
        dets = [
            det(1, PartKind.HEAD, 0.9, GT_BOX),
            det(1, PartKind.HEAD, 0.8, Box(1, 1, 2, 2)),
            det(2, PartKind.TAIL, 0.7, GT_BOX),
            det(2, PartKind.TAIL, 0.1, Box(1, 1, 2, 2)),
        ]
        selected = select_all(dets, 0.3)
        assert selected == {1: (dets[0],), 2: (dets[2],)}
        assert selected[1][0].score == 0.9
        assert selected[2][0].score == 0.7

    def test_empty_report_tsv(self):
        report = PcpReport(iou_threshold=0.5)
        assert report.to_tsv() == "#iou_threshold=0.5\n"


def select_all_reference(detections, score_min):
    """The rule ``select_all`` replaced: group by image, then per kind keep
    the valid detections, sort them by rank (a stable sort) and take the
    first."""
    grouped = {}
    for d in detections:
        grouped.setdefault(d.image_id, []).append(d)
    result = {}
    for image_id in sorted(grouped):
        chosen = {}
        for kind in REGION_KINDS:
            valid = [d for d in grouped[image_id] if d.kind is kind and d.score > score_min]
            if valid:
                valid.sort(key=lambda d: (-d.score, d.box.area, d.box.x1, d.box.y1, d.box.x2, d.box.y2))
                chosen[kind] = valid[0]
        result[image_id] = chosen
    return result


def winners_of(selected):
    """``{image: {kind: detection}}`` as ``select_all`` returns it: a tuple
    of each image's detections in ``REGION_KINDS`` order."""
    return {i: tuple(per_kind[k] for k in REGION_KINDS if k in per_kind) for i, per_kind in selected.items()}


def picks(selected):
    """Each image's kinds in order with the identity of the detection kept,
    so an exact tie must keep the same one of two equal detections."""
    return [(i, [(d.kind, id(d)) for d in winners]) for i, winners in selected.items()]


# few values, so that scores, areas and whole boxes repeat: three boxes of
# area 4 that differ in x1, in y1 and in shape
SCORES = st.sampled_from([0.0, 0.3, 0.30000000000000004, 0.9, 1.0])
BOXES = st.sampled_from(
    [Box(0, 0, 2, 2), Box(1, 0, 3, 2), Box(0, 1, 2, 3), Box(0, 0, 4, 1), Box(0, 0, 1, 1)]
)


@st.composite
def detections(draw):
    # every PartKind, so the whole-image groups must be ignored
    kinds = st.sampled_from(list(PartKind))
    return [
        det(draw(st.integers(1, 3)), draw(kinds), draw(SCORES), draw(BOXES))
        for _ in range(draw(st.integers(0, 30)))
    ]


class TestSelectAllAgainstTheSortRule:
    @settings(max_examples=300, deadline=None)
    @given(dets=detections(), score_min=st.sampled_from([0.0, 0.3, 0.5, 1.0]))
    def test_same_picks_in_the_same_order(self, dets, score_min):
        selected = select_all(dets, score_min)
        reference = winners_of(select_all_reference(dets, score_min))
        assert all(type(winners) is tuple for winners in selected.values())
        assert picks(selected) == picks(reference)
        for image_id in selected:
            one_image = [d for d in dets if d.image_id == image_id]
            assert picks(select_all(one_image, score_min)) == picks({image_id: selected[image_id]})

    def test_first_of_an_exact_tie_stays(self):
        first, second = det(1, PartKind.HEAD, 0.5, GT_BOX), det(1, PartKind.HEAD, 0.5, GT_BOX)
        ((winner,),) = select_all([first, second], 0.3).values()
        assert winner is first

    def test_winners_are_a_tuple_in_region_kind_order(self):
        # candidates of image 4 in reverse kind order, with a loser of each kind
        dets = [
            det(4, kind, score, Box(0, 0, 1 + n, 1 + n))
            for n, kind in enumerate(reversed(REGION_KINDS))
            for score in (0.5, 0.9)
        ]
        winners = select_all(dets, 0.3)[4]
        assert type(winners) is tuple
        assert [d.kind for d in winners] == list(REGION_KINDS)
        assert all(d.score == 0.9 for d in winners)

    def test_image_with_only_invalid_detections_maps_to_empty(self):
        dets = [det(3, PartKind.HEAD, 0.9, GT_BOX), det(2, PartKind.HEAD, 0.1, GT_BOX)]
        assert list(select_all(dets, 0.3).items()) == [(2, ()), (3, (dets[0],))]

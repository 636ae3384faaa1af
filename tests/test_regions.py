"""Part-region generation: padding arithmetic, head-referenced envelopes,
redundancy elimination, crop manifests, and detector label export."""

from __future__ import annotations

import random
import re
import sys
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import boxes_of, build_tree, default_part_rows, packed_regions, toy_images
from partkit.cli import main
from partkit.dataset_io import ImageRecord, KeyPoint, parse_dataset
from partkit.errors import ConfigError, DuplicateId, InputError, MalformedLine
from partkit.geometry import Box
from partkit.parts import (
    CUB_PART_NAMES,
    GROUP_ORDER,
    KIND_TO_KEYPOINT_NAMES,
    REGION_KINDS,
    PartKind,
    kind_from_name,
)
from partkit.regions import (
    PackedRegionSets,
    RegionConfig,
    center_crop_box,
    cluster_region,
    eliminate_redundant,
    envelope_region,
    envelope_side,
    export_yolo_labels,
    generate_all,
    generate_region_set,
    read_region_sets,
    read_yolo_labels,
    write_crop_manifest,
    write_region_sets,
)

BOUNDS_200 = Box(0.0, 0.0, 200.0, 200.0)
# bounds that hold every padded rectangle and square below, so none is clipped
UNBOUNDED = Box(-1e6, -1e6, 1e6, 1e6)


class TestPartVocabulary:
    def test_keypoint_name_groups(self):
        assert KIND_TO_KEYPOINT_NAMES[PartKind.HEAD] == frozenset(
            {"beak", "crown", "forehead", "left eye", "nape", "right eye", "throat"}
        )
        assert KIND_TO_KEYPOINT_NAMES[PartKind.BREAST] == frozenset({"belly", "breast"})
        assert KIND_TO_KEYPOINT_NAMES[PartKind.TAIL] == frozenset({"tail"})
        assert KIND_TO_KEYPOINT_NAMES[PartKind.WING] == frozenset({"left wing", "right wing"})
        assert KIND_TO_KEYPOINT_NAMES[PartKind.LEG] == frozenset({"left leg", "right leg"})

    def test_back_belongs_to_no_part(self):
        for names in KIND_TO_KEYPOINT_NAMES.values():
            assert "back" not in names

    def test_canonical_names_sorted_and_complete(self):
        assert list(CUB_PART_NAMES) == sorted(CUB_PART_NAMES)
        assert len(CUB_PART_NAMES) == 15

    def test_orders(self):
        assert REGION_KINDS == (
            PartKind.HEAD,
            PartKind.BREAST,
            PartKind.TAIL,
            PartKind.WING,
            PartKind.LEG,
        )
        assert GROUP_ORDER == (
            PartKind.ORIGINAL,
            PartKind.CROPPED,
            PartKind.HEAD,
            PartKind.WING,
            PartKind.BREAST,
            PartKind.LEG,
            PartKind.TAIL,
        )

    def test_kind_from_name(self):
        assert kind_from_name("head") is PartKind.HEAD
        assert kind_from_name("original") is PartKind.ORIGINAL
        with pytest.raises(KeyError):
            kind_from_name("torso")


class TestRegionConfig:
    def test_defaults(self):
        cfg = RegionConfig()
        assert cfg.pad_w == 0.2 and cfg.pad_h == 0.2
        assert cfg.envelope_scales[PartKind.TAIL] == 1.0
        assert cfg.envelope_scales[PartKind.WING] == 1.0
        assert cfg.envelope_scales[PartKind.LEG] == 0.6
        assert cfg.head_fallback_fraction == 0.1
        assert cfg.center_crop_fraction == 0.875

    def test_range_validation(self):
        with pytest.raises(ConfigError):
            RegionConfig(pad_w=-0.1)
        with pytest.raises(ConfigError):
            RegionConfig(envelope_scales={PartKind.TAIL: 0.0, PartKind.WING: 1, PartKind.LEG: 1})
        with pytest.raises(ConfigError):
            RegionConfig(head_fallback_fraction=0.0)
        with pytest.raises(ConfigError):
            RegionConfig(center_crop_fraction=1.5)
        with pytest.raises(ConfigError):
            RegionConfig(pad_h=-0.1)


class TestPaddedRect:
    def test_hundred_by_fifty_padded_ten_percent(self):
        # mini-rect 100x50 grows to 110x55 about the same center
        rect = cluster_region([(0, 0), (100, 50)], UNBOUNDED, RegionConfig(pad_w=0.1, pad_h=0.1))
        assert rect.width == pytest.approx(110, rel=1e-12)
        assert rect.height == pytest.approx(55, rel=1e-12)
        assert ((rect.x1 + rect.x2) / 2.0, (rect.y1 + rect.y2) / 2.0) == (50.0, 25.0)
        for got, want in zip((rect.x1, rect.y1, rect.x2, rect.y2), (-5.0, -2.5, 105.0, 52.5)):
            assert got == pytest.approx(want, abs=1e-9)

    def test_zero_padding_is_minimal_rect(self):
        cfg = RegionConfig(pad_w=0.0, pad_h=0.0)
        assert cluster_region([(10, 30), (30, 10)], UNBOUNDED, cfg) == Box(10, 10, 30, 30)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(0, 200, allow_nan=False), st.floats(0, 200, allow_nan=False)),
            min_size=2,
            max_size=8,
        ).filter(lambda pts: len({p[0] for p in pts}) > 1 and len({p[1] for p in pts}) > 1),
        st.floats(0, 1, allow_nan=False),
        st.floats(0, 1, allow_nan=False),
    )
    def test_dimensions_exact_and_points_contained(self, points, pad_w, pad_h):
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        mini_w, mini_h = max(xs) - min(xs), max(ys) - min(ys)
        rect = cluster_region(points, UNBOUNDED, RegionConfig(pad_w=pad_w, pad_h=pad_h))
        assert rect.width == pytest.approx((1 + pad_w) * mini_w, rel=1e-9)
        assert rect.height == pytest.approx((1 + pad_h) * mini_h, rel=1e-9)
        for x, y in points:
            assert rect.x1 <= x <= rect.x2 and rect.y1 <= y <= rect.y2


class TestHeadAndBreast:
    def test_single_keypoint_fallback_square(self):
        cfg = RegionConfig(head_fallback_fraction=0.1)
        region = cluster_region([(50.0, 50.0)], BOUNDS_200, cfg)
        assert region == Box(40.0, 40.0, 60.0, 60.0)

    def test_fallback_square_basic(self):
        # side 0.25 * 16 = 4 about (10, 10), well inside the bounds
        cfg = RegionConfig(head_fallback_fraction=0.25)
        assert cluster_region([(10.0, 10.0)], Box(0.0, 0.0, 16.0, 16.0), cfg) == Box(8, 8, 12, 12)

    def test_fallback_square_negative_extent_allowed(self):
        # only the image bounds clip it
        cfg = RegionConfig(head_fallback_fraction=0.25)
        assert cluster_region([(0.0, 0.0)], Box(-4.0, -4.0, 4.0, 4.0), cfg) == Box(-1, -1, 1, 1)

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(-50, 50, allow_nan=False),
        st.floats(-50, 50, allow_nan=False),
        st.floats(0.001, 100, allow_nan=False),
    )
    def test_fallback_square_side_and_center_recovered(self, cx, cy, side):
        cfg = RegionConfig(head_fallback_fraction=side / UNBOUNDED.width)
        b = cluster_region([(cx, cy)], UNBOUNDED, cfg)
        assert b.width == pytest.approx(side, rel=1e-9)
        assert b.height == pytest.approx(side, rel=1e-9)
        assert (b.x1 + b.x2) / 2.0 == pytest.approx(cx, abs=1e-9)
        assert (b.y1 + b.y2) / 2.0 == pytest.approx(cy, abs=1e-9)

    def test_no_keypoints_absent(self):
        assert cluster_region([], BOUNDS_200, RegionConfig()) is None

    def test_breast_zero_padding(self):
        cfg = RegionConfig(pad_w=0.0, pad_h=0.0)
        assert cluster_region([(10, 30), (30, 10)], BOUNDS_200, cfg) == Box(10, 10, 30, 30)

    def test_breast_follows_shared_padding_by_default(self):
        cfg = RegionConfig(pad_w=0.2, pad_h=0.2)
        assert cluster_region([(10, 30), (30, 10)], BOUNDS_200, cfg) == Box(8.0, 8.0, 32.0, 32.0)

    def test_result_clipped_to_image(self):
        cfg = RegionConfig()
        region = cluster_region([(1, 1), (199, 199)], BOUNDS_200, cfg)
        assert region.x1 >= 0 and region.y1 >= 0
        assert region.x2 <= 200 and region.y2 <= 200

    def test_a_fallback_square_that_collapses_to_no_area_is_dropped(self):
        # a side of 5e-324 * 200 is lost in 100.26 - side / 2
        cfg = RegionConfig(head_fallback_fraction=5e-324)
        assert cluster_region([(100.26, 126.15)], BOUNDS_200, cfg) is None


class TestEnvelopes:
    def test_side_from_head_reference(self):
        head = Box(0, 0, 40, 30)
        cfg = RegionConfig()
        assert envelope_side(PartKind.WING, head, BOUNDS_200, cfg) == 40.0
        assert envelope_side(PartKind.LEG, head, BOUNDS_200, cfg) == pytest.approx(24.0)

    def test_wing_square_centered_on_keypoint(self):
        head = Box(0, 0, 40, 30)
        bounds = Box(0, 0, 400, 400)
        (candidate,) = envelope_region(PartKind.WING, [(100, 100)], head, bounds, RegionConfig())
        assert candidate == Box(80.0, 80.0, 120.0, 120.0)

    def test_two_visible_keypoints_two_candidates(self):
        head = Box(0, 0, 40, 30)
        bounds = Box(0, 0, 400, 400)
        candidates = envelope_region(
            PartKind.WING, [(100, 100), (300, 300)], head, bounds, RegionConfig()
        )
        assert len(candidates) == 2

    def test_invisible_keypoints_empty(self):
        assert envelope_region(PartKind.TAIL, [], Box(0, 0, 40, 30), BOUNDS_200, RegionConfig()) == []

    def test_missing_head_uses_fallback_reference(self):
        cfg = RegionConfig(head_fallback_fraction=0.1)
        # reference length 0.1 * 200 = 20, leg scale 0.6 -> side 12
        assert envelope_side(PartKind.LEG, None, BOUNDS_200, cfg) == pytest.approx(12.0)

    def test_candidates_clipped(self):
        head = Box(0, 0, 100, 100)
        (candidate,) = envelope_region(PartKind.WING, [(5, 5)], head, BOUNDS_200, RegionConfig())
        assert candidate.x1 == 0.0 and candidate.y1 == 0.0

    @pytest.mark.parametrize("head_width", [0.4, 30.0])
    def test_a_square_that_collapses_to_no_area_is_dropped(self, head_width):
        # a side of 5e-324 * 0.4 underflows to 0.0, and one of 5e-324 * 30
        # is lost in 100.26 - side / 2: neither square has any area
        scales = {PartKind.TAIL: 1.0, PartKind.WING: 1.0, PartKind.LEG: 5e-324}
        cfg = RegionConfig(envelope_scales=scales)
        head = Box(0.0, 0.0, head_width, 0.4)
        assert envelope_region(PartKind.LEG, [(100.26, 126.15)], head, BOUNDS_200, cfg) == []


class TestEliminateRedundant:
    def test_min_overlap_candidate_wins(self):
        # left overlaps the head region (score 1/7), right is disjoint (0)
        left = Box(10, 10, 30, 30)
        right = Box(40, 40, 60, 60)
        winner = eliminate_redundant([left, right], [Box(0, 0, 20, 20)], random.Random(0))
        assert winner == right

    def test_single_candidate_passthrough(self):
        only = Box(1, 1, 2, 2)
        assert eliminate_redundant([only], [Box(50, 50, 60, 60)], random.Random(0)) == only

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError, match="^no candidate boxes to choose from$"):
            eliminate_redundant([], [], random.Random(0))

    def test_tie_is_pure_function_of_rng_state(self):
        a, b = Box(0, 0, 10, 10), Box(100, 100, 110, 110)
        others = [Box(50, 50, 60, 60)]  # disjoint from both: both score 0
        for seed in range(20):
            first = eliminate_redundant([a, b], others, random.Random(seed))
            second = eliminate_redundant([a, b], others, random.Random(seed))
            assert first == second

    def test_tie_outcomes_vary_across_seeds(self):
        a, b = Box(0, 0, 10, 10), Box(100, 100, 110, 110)
        winners = {
            eliminate_redundant([a, b], [], random.Random(seed)) for seed in range(50)
        }
        assert winners == {a, b}

    @settings(max_examples=100, deadline=None)
    @given(st.permutations(list(range(4))), st.integers(0, 100))
    def test_other_region_order_never_matters(self, order, seed):
        candidates = [Box(0, 0, 12, 12), Box(8, 8, 20, 20)]
        others = [Box(1, 1, 6, 6), Box(5, 5, 11, 11), Box(9, 9, 14, 14), Box(2, 9, 7, 18)]
        shuffled = [others[i] for i in order]
        baseline = eliminate_redundant(candidates, others, random.Random(seed))
        assert eliminate_redundant(candidates, shuffled, random.Random(seed)) == baseline


def _record(image_id=1, w=200, h=200):
    return ImageRecord(image_id, "x/y.jpg", 1, w, h)


def _keypoints(visible_names, positions=None):
    """All 15 keypoints; those in visible_names marked visible."""
    kps = []
    for part_id, name in enumerate(CUB_PART_NAMES, start=1):
        if name in visible_names:
            x, y = (positions or {}).get(name, (10.0 + 5 * part_id, 10.0 + 7 * part_id))
            kps.append(KeyPoint(x, y, True))
        else:
            kps.append(KeyPoint(0.0, 0.0, False))
    return kps


class TestGenerateRegionSet:
    def test_all_visible_yields_all_five(self):
        rs = generate_region_set(_record(), _keypoints(set(CUB_PART_NAMES)), RegionConfig())
        assert set(rs.regions) == set(REGION_KINDS)

    def test_head_only(self):
        rs = generate_region_set(
            _record(), _keypoints(KIND_TO_KEYPOINT_NAMES[PartKind.HEAD]), RegionConfig()
        )
        assert set(rs.regions) == {PartKind.HEAD}

    def test_regions_inside_image(self):
        rs = generate_region_set(_record(), _keypoints(set(CUB_PART_NAMES)), RegionConfig())
        for box in rs.regions.values():
            assert box.x1 >= 0 and box.y1 >= 0 and box.x2 <= 200 and box.y2 <= 200

    def test_deterministic_across_runs(self):
        image, kps, cfg = _record(), _keypoints(set(CUB_PART_NAMES)), RegionConfig()
        assert generate_region_set(image, kps, cfg) == generate_region_set(image, kps, cfg)

    def test_part_table_numbering_and_case_are_followed(self, tmp_path, capsys):
        # parts.txt may number the keypoints in any order and spell their
        # names in any case with surrounding spaces; regions follow the
        # names.  Both wings and both legs are visible and overlap nothing,
        # so each left/right choice is a pure tie, drawn by candidate order.
        positions = {
            "left wing": (40.0, 40.0),
            "right wing": (160.0, 40.0),
            "left leg": (40.0, 160.0),
            "right leg": (160.0, 160.0),
        }
        canonical = list(range(1, len(CUB_PART_NAMES) + 1))
        shuffled = canonical[:]
        random.Random(4).shuffle(shuffled)
        id_of = dict(zip(CUB_PART_NAMES, shuffled))
        # each right keypoint now comes first in part id order
        assert id_of["right wing"] < id_of["left wing"] and id_of["right leg"] < id_of["left leg"]
        images = toy_images(40)
        written = []
        for name, part_ids, spell in (
            ("canonical", canonical, str),
            ("shuffled", shuffled, lambda part: f"  {part.upper()} "),
        ):
            rows = [
                f"{image_id} {part_id} {x} {y} {int(part in positions)}"
                for image_id, *_ in images
                for part_id, part in zip(part_ids, CUB_PART_NAMES)
                for x, y in [positions.get(part, (0.0, 0.0))]
            ]
            root = build_tree(tmp_path / name, images, part_rows=rows)
            (root / "parts" / "parts.txt").write_text(
                "".join(f"{p} {spell(part)}\n" for p, part in zip(part_ids, CUB_PART_NAMES)),
                encoding="utf-8",
            )
            out = tmp_path / f"{name}-regions"
            assert main(["gen-regions", str(root), "--out", str(out)]) == 0
            written.append((out / "gt_regions.txt").read_bytes())
        capsys.readouterr()
        assert written[0].count(b" wing ") == written[0].count(b" leg ") == len(images)
        assert written[1] == written[0]

    def test_tie_seed_changes_only_tie_outcomes(self):
        # wings symmetric about an empty scene: pure tie
        names = KIND_TO_KEYPOINT_NAMES[PartKind.WING]
        positions = {"left wing": (50.0, 100.0), "right wing": (150.0, 100.0)}
        winners = set()
        for tie_seed in range(30):
            rs = generate_region_set(
                _record(), _keypoints(names, positions), RegionConfig(tie_seed=tie_seed)
            )
            winners.add(rs.regions[PartKind.WING])
        assert len(winners) == 2

    def test_hand_constructed_layout(self):
        # head at beak(60,40)/crown(40,20) plus others collapsed inside,
        # pad 0.2 -> mini 20x20 grows to 24x24 about (50,30)
        positions = {
            "beak": (60.0, 40.0),
            "crown": (40.0, 20.0),
            "forehead": (45.0, 25.0),
            "left eye": (50.0, 30.0),
            "nape": (55.0, 35.0),
            "right eye": (42.0, 38.0),
            "throat": (58.0, 22.0),
            "belly": (100.0, 150.0),
            "breast": (120.0, 130.0),
            "tail": (180.0, 100.0),
        }
        visible = set(positions)
        rs = generate_region_set(_record(), _keypoints(visible, positions), RegionConfig())
        assert rs.regions[PartKind.HEAD] == Box(38.0, 18.0, 62.0, 42.0)
        # breast mini 20x20 -> 24x24 about (110, 140)
        assert rs.regions[PartKind.BREAST] == Box(98.0, 128.0, 122.0, 152.0)
        # tail square: side = max(24, 24) * 1.0 centered at (180, 100)
        assert rs.regions[PartKind.TAIL] == Box(168.0, 88.0, 192.0, 112.0)
        assert PartKind.WING not in rs.regions and PartKind.LEG not in rs.regions

    def test_generate_all_covers_every_image(self, tmp_path):
        root = build_tree(tmp_path, toy_images(3))
        ds = parse_dataset(root)
        sets = generate_all(ds, RegionConfig())
        assert sorted(sets) == [1, 2, 3]
        assert all(set(boxes_of(sets, i)) == set(REGION_KINDS) for i in sets)


class TestCenterCrop:
    def test_wide_image(self):
        assert center_crop_box(_record(w=200, h=100), RegionConfig()) == Box(
            56.25, 6.25, 143.75, 93.75
        )

    def test_full_fraction_square(self):
        box = center_crop_box(_record(w=128, h=128), RegionConfig(center_crop_fraction=1.0))
        assert box == Box(0.0, 0.0, 128.0, 128.0)

    def test_tall_image(self):
        cfg = RegionConfig(center_crop_fraction=0.5)
        assert center_crop_box(_record(w=100, h=300), cfg) == Box(25.0, 125.0, 75.0, 175.0)

    def test_a_crop_that_collapses_to_no_area_is_none(self):
        # a side of 5e-324 * 200 is lost in 100.0 - side / 2
        cfg = RegionConfig(center_crop_fraction=5e-324)
        assert center_crop_box(_record(w=200, h=200), cfg) is None


class TestRegionFiles:
    def _sets(self):
        return packed_regions(
            {
                1: {PartKind.HEAD: Box(10.0, 5.0, 40.0, 35.0)},
                2: {PartKind.HEAD: Box(1.0, 2.0, 3.0, 4.0), PartKind.LEG: Box(10.5, 20.25, 30.75, 40.125)},
            }
        )

    def test_round_trip(self, tmp_path):
        path = tmp_path / "regions.txt"
        write_region_sets(self._sets(), path)
        loaded = read_region_sets(path)
        assert boxes_of(loaded, 1)[PartKind.HEAD] == Box(10.0, 5.0, 40.0, 35.0)
        # 40.125 quantizes to the written 2-decimal grid
        assert boxes_of(loaded, 2)[PartKind.LEG] == Box(10.5, 20.25, 30.75, 40.12)

    def test_two_decimal_format(self, tmp_path):
        path = tmp_path / "regions.txt"
        write_region_sets(self._sets(), path)
        assert path.read_text().splitlines()[0] == "1 head 10.00 5.00 40.00 35.00"

    def test_sliver_regions_omitted(self, tmp_path):
        sets = packed_regions({1: {PartKind.HEAD: Box(10.0, 10.0, 10.004, 50.0)}})
        path = tmp_path / "regions.txt"
        write_region_sets(sets, path)
        assert path.read_text() == ""

    def test_duplicate_region_line_rejected(self, tmp_path):
        path = tmp_path / "regions.txt"
        path.write_text("1 head 0.00 0.00 1.00 1.00\n1 head 2.00 2.00 3.00 3.00\n")
        with pytest.raises(DuplicateId):
            read_region_sets(path)

    def test_group_names_rejected_in_region_file(self, tmp_path):
        path = tmp_path / "regions.txt"
        path.write_text("1 original 0.00 0.00 1.00 1.00\n")
        with pytest.raises(MalformedLine):
            read_region_sets(path)

    def test_crop_manifest_contains_original_and_cropped(self, tmp_path):
        ds = parse_dataset(build_tree(tmp_path / "tree", toy_images(2)))
        sets = generate_all(ds, RegionConfig())
        path = tmp_path / "manifest.txt"
        write_crop_manifest(ds.images, sets, RegionConfig(), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "1 original 0.00 0.00 200.00 200.00"
        assert lines[1].startswith("1 cropped ")
        per_image = sum(1 for line in lines if line.startswith("1 "))
        assert per_image == 7  # original + cropped + five parts


def _distinct_region_lines(n_images: int) -> str:
    # every region of every image, each corner a distinct full-precision float
    rng = random.Random(5)
    lines = []
    for image_id in range(1, n_images + 1):
        for kind in REGION_KINDS:
            x1, y1 = rng.uniform(0, 100), rng.uniform(0, 100)
            x2, y2 = x1 + rng.uniform(1, 100), y1 + rng.uniform(1, 100)
            lines.append(f"{image_id} {kind.value} {x1!r} {y1!r} {x2!r} {y2!r}\n")
    return "".join(lines)


class TestPackedRegionSets:
    def test_reads_as_the_regions_it_was_built_from(self, tmp_path):
        # ids out of order and one image's lines apart
        path = tmp_path / "regions.txt"
        path.write_text("7 leg 1 2 3 4\n2 head 0 0 5.5 5\n7 head 10 10 20 30\n", encoding="utf-8")
        sets = read_region_sets(path)
        expected = {
            2: {PartKind.HEAD: Box(0.0, 0.0, 5.5, 5.0)},
            7: {PartKind.HEAD: Box(10.0, 10.0, 20.0, 30.0), PartKind.LEG: Box(1.0, 2.0, 3.0, 4.0)},
        }
        assert {i: boxes_of(sets, i) for i in sets} == expected
        assert list(sets) == [2, 7] and len(sets) == 2
        assert sets.num_regions == 3
        assert sets.corners(7) == [(0, 10.0, 10.0, 20.0, 30.0), (4, 1.0, 2.0, 3.0, 4.0)]
        assert sets.corners(3) == []
        # from_rows over the same regions, given in any order, holds the same
        # rows without a kind outside REGION_KINDS, and they read back as written
        built = packed_regions({7: {**expected[7], PartKind.ORIGINAL: Box(0, 0, 9, 9)}, 2: expected[2]})
        assert list(built) == [2, 7]
        assert [built.corners(i) for i in built] == [sets.corners(i) for i in sets]
        write_region_sets(built, tmp_path / "written.txt")
        reread = read_region_sets(tmp_path / "written.txt")
        assert [reread.corners(i) for i in reread] == [sets.corners(i) for i in sets]

    def test_from_rows_holds_what_add_holds(self, tmp_path):
        """``from_rows`` holds what ``read_region_sets`` reads back from
        its written lines, in ``REGION_KINDS`` order whatever a mapping's
        order; an image without regions writes no line."""
        rows = {
            2: {PartKind.HEAD: Box(0.0, 0.0, 5.5, 5.0)},
            5: {},
            7: {PartKind.LEG: Box(1, 2, 3, 4), PartKind.HEAD: Box(10, 10, 20, 30), PartKind.ORIGINAL: Box(0, 0, 9, 9)},
        }
        sets = PackedRegionSets.from_rows(list(rows), rows.values())
        write_region_sets(sets, tmp_path / "regions.txt")
        reread = read_region_sets(tmp_path / "regions.txt")
        assert list(sets) == [2, 5, 7] and list(reread) == [2, 7]
        assert sets.num_regions == reread.num_regions == 3
        assert [sets.corners(i) for i in sets] == [reread.corners(i) for i in sets]
        assert sets.corners(7) == [(0, 10, 10, 20, 30), (4, 1, 2, 3, 4)]
        assert list(PackedRegionSets.from_rows([], [])) == []

    @pytest.mark.parametrize("image_ids", [[3, 2], [2, 2]])
    def test_from_rows_rejects_ids_out_of_order(self, image_ids):
        with pytest.raises(InputError, match="ascending and distinct"):
            PackedRegionSets.from_rows(image_ids, [{}, {}])

    def test_from_rows_takes_one_mapping_per_id(self):
        for regions in ([{}], [{}, {}, {}]):
            with pytest.raises(ValueError):
                PackedRegionSets.from_rows([1, 2], regions)

    def test_generate_all_allocates_each_column_once(self, tmp_path):
        # grown an image at a time, each column holds spare room, and the
        # copies that growth leaves behind raised gen-regions' peak RSS
        images = [(i, f"{i % 10:03d}.Class/img_{i:04d}.jpg", 1, 200, 200) for i in range(1, 301)]
        sets = generate_all(parse_dataset(build_tree(tmp_path, images)), RegionConfig())
        assert len(sets) == 300
        for column in (sets._ids, sets._masks, sets._corners):
            assert sys.getsizeof(column) == sys.getsizeof(array(column.typecode, column))

    def test_generate_all_keys_every_image(self, tmp_path):
        rows = [row for row in default_part_rows([1, 2]) if not row.startswith("2 ")]
        rows += [f"2 {p} 0.0 0.0 0" for p in range(1, len(CUB_PART_NAMES) + 1)]
        ds = parse_dataset(build_tree(tmp_path, toy_images(2), part_rows=rows))
        sets = generate_all(ds, RegionConfig())
        assert list(sets) == [1, 2]
        assert sets.corners(2) == []
        assert sets.num_regions == len(sets.corners(1)) == 5

    def test_read_holds_no_object_per_region(self, tmp_path):
        # with a memo of tokens, Box and float objects, the reader held
        # about 500 bytes per region of such a file
        n = 2000
        path = tmp_path / "regions.txt"
        path.write_text(_distinct_region_lines(n), encoding="utf-8")
        tracemalloc.start()
        try:
            sets = read_region_sets(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sets.num_regions == n * len(REGION_KINDS)
        # four doubles per region and a fifth of an image's id and mask,
        # with room for the columns' growth and the reading of one line
        assert peak <= n * len(REGION_KINDS) * 48

    def test_generate_all_holds_no_object_per_image(self, tmp_path):
        # one PartRegionSet, dict and five boxes per image held about 1 kB
        n = 1000
        images = [(i, f"{i % 10:03d}.Class/img_{i:04d}.jpg", 1, 200, 200) for i in range(1, n + 1)]
        ds = parse_dataset(build_tree(tmp_path, images))
        tracemalloc.start()
        try:
            sets = generate_all(ds, RegionConfig())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sets.num_regions == n * len(REGION_KINDS)
        # 169 bytes of columns per image, a sorted id list of the dataset
        # and one image's regions in the making
        assert peak <= n * 256


class TestYoloExport:
    def test_normalization_line(self, tmp_path):
        sets = packed_regions({1: {PartKind.HEAD: Box(10.0, 5.0, 40.0, 35.0)}})
        images = {1: ImageRecord(1, "c/im.jpg", 1, 100, 100)}
        export_yolo_labels(sets, images, tmp_path)
        content = (tmp_path / "c/im.txt").read_text()
        assert content == "0 0.250000 0.200000 0.300000 0.300000\n"

    def test_no_regions_empty_file(self, tmp_path):
        images = {1: ImageRecord(1, "c/im.jpg", 1, 100, 100)}
        export_yolo_labels(PackedRegionSets(), images, tmp_path)
        assert (tmp_path / "c/im.txt").read_text() == ""

    def test_label_paths_follow_pathlib_suffix_rules(self, tmp_path):
        # os.path.splitext would map "x." to "x.txt", not pathlib's "x..txt"
        relative = {"a/x.": "a/x..txt", "a/.x": "a/.x.txt", "a/x": "a/x.txt", "a/x.tar.gz": "a/x.tar.txt"}
        images = {i: ImageRecord(i, rel, 1, 100, 100) for i, rel in enumerate(relative, start=1)}
        written = export_yolo_labels(PackedRegionSets(), images, tmp_path)
        assert [str(p) for p in written] == [str(tmp_path / label) for label in relative.values()]
        assert all((tmp_path / label).read_text() == "" for label in relative.values())

    def test_holds_no_path_object_per_image(self, tmp_path):
        # one Path per image held through a 6000-image export added about
        # 2.4 MB to gen-regions' peak; a label path string is what remains
        n = 1000
        images = {
            i: ImageRecord(i, f"{i % 10:03d}.Class/img_{i:04d}.jpg", 1, 100, 100)
            for i in range(1, n + 1)
        }
        # pathlib may intern each part of a path: held interned here, the
        # parts do not grow the interpreter's intern table inside the bound
        interned = [sys.intern(part) for i in images for part in images[i].relative_path.split("/")]
        out = tmp_path / "labels"
        export_yolo_labels(PackedRegionSets(), images, out)  # the directories exist from here on
        tracemalloc.start()
        try:
            written = export_yolo_labels(PackedRegionSets(), images, out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        del interned  # held through the measurement
        # per image: the label path string and its list slots, with room
        # to spare, but no room for a Path beside it
        assert peak <= n * (sys.getsizeof(str(written[0])) + 64)
        assert all(type(p) is str for p in written)

    @pytest.mark.parametrize(
        "line, field",
        [
            ("0 0.5 0.5 1e308 0.1", "w"),  # read at 200 x 100 this gave Box(-inf, 45.0, inf, 55.0)
            ("0 0.5 0.5 0.2 1.000001", "h"),
            ("0 1.000001 0.5 0.2 0.1", "cx"),
            ("0 0.5 -0.000001 0.2 0.1", "cy"),
        ],
    )
    def test_values_outside_the_normalized_range_are_malformed(self, tmp_path, line, field):
        path = tmp_path / "im.txt"
        path.write_text(f"0 0.5 0.5 0.2 0.1\n{line}\n", encoding="utf-8")
        with pytest.raises(MalformedLine, match=rf"^{re.escape(str(path))}:2: {field} must be "):
            read_yolo_labels(path, 200, 100)

    @pytest.mark.parametrize("class_index", [5, 9])
    def test_a_class_index_with_no_region_kind_is_malformed(self, tmp_path, class_index):
        # the writer's indices are 0..4; 9 was read back as a box of class 9
        path = tmp_path / "im.txt"
        path.write_text(f"4 0.5 0.5 0.2 0.1\n{class_index} 0.5 0.5 0.2 0.1\n", encoding="utf-8")
        with pytest.raises(
            MalformedLine, match=rf"^{re.escape(str(path))}:2: class_index must be < 5, got "
        ):
            read_yolo_labels(path, 200, 100)

    def test_boxes_on_the_image_edges_read_back(self, tmp_path):
        boxes = {PartKind.HEAD: Box(0.0, 0.0, 200.0, 100.0), PartKind.LEG: Box(150.0, 0.0, 200.0, 20.0)}
        images = {1: ImageRecord(1, "im.jpg", 1, 200, 100)}
        export_yolo_labels(packed_regions({1: boxes}), images, tmp_path)
        recovered = read_yolo_labels(tmp_path / "im.txt", 200, 100)
        assert recovered == [(0, boxes[PartKind.HEAD]), (4, boxes[PartKind.LEG])]

    def test_class_indices_follow_region_order(self, tmp_path):
        boxes = {kind: Box(10 + i, 10 + i, 30 + i, 30 + i) for i, kind in enumerate(REGION_KINDS)}
        sets = packed_regions({1: boxes})
        images = {1: ImageRecord(1, "im.jpg", 1, 100, 100)}
        export_yolo_labels(sets, images, tmp_path)
        indices = [int(line.split()[0]) for line in (tmp_path / "im.txt").read_text().splitlines()]
        assert indices == [0, 1, 2, 3, 4]

    def test_values_normalized_to_unit_interval(self, tmp_path):
        ds = parse_dataset(build_tree(tmp_path / "tree", toy_images(3)))
        sets = generate_all(ds, RegionConfig())
        export_yolo_labels(sets, ds.images, tmp_path / "labels")
        for image in ds.images.values():
            path = (tmp_path / "labels" / image.relative_path).with_suffix(".txt")
            for line in path.read_text().splitlines():
                for token in line.split()[1:]:
                    assert 0.0 <= float(token) <= 1.0

    def test_round_trip_within_format_resolution(self, tmp_path):
        ds = parse_dataset(build_tree(tmp_path / "tree", toy_images(3)))
        sets = generate_all(ds, RegionConfig())
        export_yolo_labels(sets, ds.images, tmp_path / "labels")
        for image_id in sets:
            image = ds.images[image_id]
            path = (tmp_path / "labels" / image.relative_path).with_suffix(".txt")
            recovered = read_yolo_labels(path, image.width, image.height)
            originals = list(boxes_of(sets, image_id).values())
            tolerance = 1e-6 * max(image.width, image.height)  # 1e-4 px per 100 px
            for (_, got), want in zip(recovered, originals):
                for a, b in zip(
                    (got.x1, got.y1, got.x2, got.y2), (want.x1, want.y1, want.x2, want.y2)
                ):
                    assert abs(a - b) <= tolerance

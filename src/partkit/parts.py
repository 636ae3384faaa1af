"""Part vocabulary shared across the toolkit.

Five bird part regions are derived from the 15 CUB-style keypoints; two
pseudo-groups (the full image and its center crop) join them downstream as
feature groups.
"""

from __future__ import annotations

import enum


class PartKind(enum.Enum):
    """A part region or whole-image feature group."""

    HEAD = "head"
    BREAST = "breast"
    TAIL = "tail"
    WING = "wing"
    LEG = "leg"
    ORIGINAL = "original"
    CROPPED = "cropped"

    # members are singletons compared by identity, so the C identity hash
    # serves; Enum.__hash__ is a Python-level call on every dict lookup
    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self.value


#: Region kinds in the fixed generation order (head first: envelope parts
#: scale from the head box, and left/right elimination for a later part sees
#: every earlier one).
REGION_KINDS: tuple[PartKind, ...] = (
    PartKind.HEAD,
    PartKind.BREAST,
    PartKind.TAIL,
    PartKind.WING,
    PartKind.LEG,
)

#: Feature groups in canonical concatenation order.
GROUP_ORDER: tuple[PartKind, ...] = (
    PartKind.ORIGINAL,
    PartKind.CROPPED,
    PartKind.HEAD,
    PartKind.WING,
    PartKind.BREAST,
    PartKind.LEG,
    PartKind.TAIL,
)

#: Canonical CUB part-keypoint names, in the CUB numbering (part_id 1..15).
#: An image's keypoint row holds one keypoint per name, in this order,
#: whatever ids a part table gives the names.
CUB_PART_NAMES: tuple[str, ...] = (
    "back",
    "beak",
    "belly",
    "breast",
    "crown",
    "forehead",
    "left eye",
    "left leg",
    "left wing",
    "nape",
    "right eye",
    "right leg",
    "right wing",
    "tail",
    "throat",
)

#: Keypoint names contributing to each part region.  "back" feeds no region.
KIND_TO_KEYPOINT_NAMES: dict[PartKind, frozenset[str]] = {
    PartKind.HEAD: frozenset(
        {"beak", "crown", "forehead", "left eye", "nape", "right eye", "throat"}
    ),
    PartKind.BREAST: frozenset({"belly", "breast"}),
    PartKind.TAIL: frozenset({"tail"}),
    PartKind.WING: frozenset({"left wing", "right wing"}),
    PartKind.LEG: frozenset({"left leg", "right leg"}),
}

#: For each keypoint column, the ``REGION_KINDS`` position of the region it
#: feeds, or None for "back".
REGION_OF_KEYPOINT: tuple[int | None, ...] = tuple(
    next((k for k, kind in enumerate(REGION_KINDS) if name in KIND_TO_KEYPOINT_NAMES[kind]), None)
    for name in CUB_PART_NAMES
)

_NAME_TO_KIND = {k.value: k for k in PartKind}

#: The part kinds a region or detection line may name, by file-format name.
REGION_KIND_OF_NAME: dict[str, PartKind] = {k.value: k for k in REGION_KINDS}


def kind_from_name(name: str) -> PartKind:
    """Look up a PartKind by its lowercase file-format name."""
    try:
        return _NAME_TO_KIND[name]
    except KeyError:
        raise KeyError(f"unknown part/group name: {name!r}") from None

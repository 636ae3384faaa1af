"""Deterministic synthetic corpus generation.

Everything the pipeline consumes can be generated here at desk scale:
keypoint annotation trees, ground-truth regions, noisy detections, and
class-separable feature stores.  Keypoints come from one canonical bird
layout that is scaled and translated per image, so head-referenced sizing
is exercised for real.  All draws are uniform (no transcendentals) and all
files use fixed decimal formats, making every output byte-identical for a
fixed config across runs and platforms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Optional

from .dataset_io import (
    _ABSENT,
    Dataset,
    ImageRecord,
    KeyPoint,
    split_dataset,
    write_dataset,
    write_detections,
    write_split,
)
from .detection import Detection
from .errors import ConfigError
from .features import write_feature_records
from .parts import CUB_PART_NAMES, GROUP_ORDER, REGION_KINDS, REGION_OF_KEYPOINT, PartKind
from .regions import (
    PackedRegionSets,
    RegionConfig,
    generate_all,
    read_region_sets,
    write_crop_manifest,
    write_region_sets,
)
from .seeding import derive_seed

if TYPE_CHECKING:
    import numpy as np

# canonical layout: keypoint -> (x, y) as fractions of the image, bird facing
# right, head upper-right, tail left
TEMPLATE_FRACTIONS: dict[str, tuple[float, float]] = {
    "back": (0.42, 0.30),
    "beak": (0.88, 0.28),
    "belly": (0.52, 0.62),
    "breast": (0.64, 0.48),
    "crown": (0.74, 0.18),
    "forehead": (0.80, 0.22),
    "left eye": (0.76, 0.26),
    "left leg": (0.48, 0.78),
    "left wing": (0.44, 0.42),
    "nape": (0.68, 0.24),
    "right eye": (0.72, 0.28),
    "right leg": (0.58, 0.80),
    "right wing": (0.36, 0.52),
    "tail": (0.10, 0.46),
    "throat": (0.76, 0.34),
}

# visibility is drawn once per keypoint cluster, in this fixed order: the
# keypoints of each region kind, then "back", the one that feeds no region
_CLUSTERS: tuple[str, ...] = tuple(kind.value for kind in REGION_KINDS) + ("back",)

_OVERRIDE_KEYS = frozenset(_CLUSTERS)


@dataclass(frozen=True)
class SynthConfig:
    num_classes: int = 4
    images_per_class: int = 10
    image_size: int = 200
    jitter_px: float = 0.0
    score_noise: float = 0.0
    part_dropout: float = 0.0
    # per-cluster dropout override by name (head/breast/tail/wing/leg/back);
    # unlike the global rate, 1.0 is allowed here to force a cluster invisible
    dropout_overrides: Mapping[str, float] = field(default_factory=dict)
    feature_dim: int = 16
    signal_groups: frozenset[PartKind] = frozenset(GROUP_ORDER)
    seed: int = 0

    def __post_init__(self):
        if self.num_classes < 2:
            raise ConfigError("num_classes must be >= 2")
        if self.images_per_class < 1:
            raise ConfigError("images_per_class must be >= 1")
        if self.image_size < 1:
            raise ConfigError("image_size must be >= 1")
        _check_noise(self.jitter_px, self.score_noise)
        if not 0.0 <= self.part_dropout < 1.0:
            raise ConfigError("part_dropout must be in [0, 1)")
        for key, value in self.dropout_overrides.items():
            if key not in _OVERRIDE_KEYS:
                raise ConfigError(f"unknown dropout override {key!r}")
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"dropout override for {key!r} must be in [0, 1]")
        if self.feature_dim < 1:
            raise ConfigError("feature_dim must be >= 1")
        for group in self.signal_groups:
            if group not in GROUP_ORDER:
                raise ConfigError(f"unknown signal group {group}")
        object.__setattr__(self, "signal_groups", frozenset(self.signal_groups))
        object.__setattr__(self, "dropout_overrides", dict(self.dropout_overrides))


def _dropout_for(cfg: SynthConfig, cluster: str) -> float:
    return cfg.dropout_overrides.get(cluster, cfg.part_dropout)


def synth_dataset(cfg: SynthConfig, root=None) -> Dataset:
    """Generate a full annotation tree; written under ``root`` when given.

    Per image the RNG draws, in order: layout scale in [0.55, 0.95], x and y
    offsets placing the scaled layout inside the image, then one visibility
    draw per cluster (head, breast, tail, wing, leg, back).  A dropped
    cluster has all its keypoints recorded as ``0.0 0.0 0``; visible ones
    are quantized to 2 decimals and always lie within bounds.
    """
    rng = random.Random(derive_seed(cfg.seed, "dataset"))
    size = float(cfg.image_size)

    images: dict[int, ImageRecord] = {}
    keypoints: dict[int, tuple[KeyPoint, ...]] = {}
    class_names = {cid: f"{cid:03d}.Synth_{cid:03d}" for cid in range(1, cfg.num_classes + 1)}

    image_id = 0
    for class_id in range(1, cfg.num_classes + 1):
        for _ in range(cfg.images_per_class):
            image_id += 1
            scale = rng.uniform(0.55, 0.95)
            offset_x = rng.uniform(0.0, (1.0 - scale) * size)
            offset_y = rng.uniform(0.0, (1.0 - scale) * size)
            dropped = [rng.random() < _dropout_for(cfg, cluster) for cluster in _CLUSTERS]
            row: list[KeyPoint] = []  # in CUB_PART_NAMES order
            for name, k in zip(CUB_PART_NAMES, REGION_OF_KEYPOINT):
                if not dropped[-1 if k is None else k]:
                    fx, fy = TEMPLATE_FRACTIONS[name]
                    x = round(offset_x + fx * scale * size, 2)
                    y = round(offset_y + fy * scale * size, 2)
                    row.append(KeyPoint(x, y, True))
                else:
                    row.append(_ABSENT)
            images[image_id] = ImageRecord(
                image_id=image_id,
                relative_path=f"{class_names[class_id]}/img_{image_id:04d}.jpg",
                class_id=class_id,
                width=cfg.image_size,
                height=cfg.image_size,
            )
            keypoints[image_id] = tuple(row)

    dataset = Dataset(
        images=images,
        keypoints=keypoints,
        class_names=class_names,
        part_names={i: name for i, name in enumerate(CUB_PART_NAMES, start=1)},
    )
    if root is not None:
        write_dataset(dataset, root)
    return dataset


def _quantized_box(x1: float, y1: float, x2: float, y2: float) -> tuple[float, float, float, float]:
    # 2-decimal grid; repair inversions and enforce the grid's minimum extent
    x1, y1, x2, y2 = round(x1, 2), round(y1, 2), round(x2, 2), round(y2, 2)
    if x1 > x2:
        x1, x2 = x2, x1
    if y1 > y2:
        y1, y2 = y2, y1
    if x2 - x1 < 0.01:
        x2 = round(x1 + 0.01, 2)
    if y2 - y1 < 0.01:
        y2 = round(y1 + 0.01, 2)
    return x1, y1, x2, y2


def _check_noise(jitter_px: float, score_noise: float) -> None:
    """The range rule of ``synth_detections``' noise; ``SynthConfig``
    checks its ``jitter_px`` and ``score_noise`` by it."""
    if jitter_px < 0:
        raise ConfigError("jitter_px must be >= 0")
    if not 0.0 <= score_noise < 1.0:
        raise ConfigError("score_noise must be in [0, 1)")


def synth_detections(
    region_sets: PackedRegionSets,
    jitter_px: float = 0.0,
    score_noise: float = 0.0,
    seed: int = 0,
    distractor_score: Optional[float] = None,
) -> list[Detection]:
    """Emit one noisy detection per ground-truth region.

    Corners are perturbed independently by uniform(-jitter_px, +jitter_px)
    and the score is clamp(1 - u * score_noise, 0, 1) for one uniform draw
    u per detection; draws happen in image-id / part order and are consumed
    even at zero noise, so changing the noise level never reorders the
    stream.  With ``distractor_score`` set, every region also yields a
    decoy detection at that score, shifted by half its width and height.
    """
    _check_noise(jitter_px, score_noise)
    if distractor_score is not None and not 0.0 <= distractor_score <= 1.0:
        raise ConfigError("distractor_score must be in [0, 1]")
    rng = random.Random(seed)
    detections: list[Detection] = []
    for image_id in region_sets:
        for k, x1, y1, x2, y2 in region_sets.corners(image_id):
            kind = REGION_KINDS[k]
            dx1 = rng.uniform(-jitter_px, jitter_px)
            dy1 = rng.uniform(-jitter_px, jitter_px)
            dx2 = rng.uniform(-jitter_px, jitter_px)
            dy2 = rng.uniform(-jitter_px, jitter_px)
            u = rng.random()
            score = round(min(max(1.0 - u * score_noise, 0.0), 1.0), 6)
            corners = _quantized_box(x1 + dx1, y1 + dy1, x2 + dx2, y2 + dy2)
            detections.append(Detection(image_id, kind, score, *corners))
            if distractor_score is not None:
                half_w, half_h = 0.5 * (x2 - x1), 0.5 * (y2 - y1)
                decoy = (x1 + half_w, y1 + half_h, x2 + half_w, y2 + half_h)
                detections.append(Detection(image_id, kind, distractor_score, *decoy))
    return detections


def synth_features(cfg: SynthConfig, dataset: Dataset) -> list[tuple[int, PartKind, np.ndarray]]:
    """Per-image feature records for every group the image can provide.

    The whole-image groups always exist; a part group exists iff any of its
    keypoints is visible.  Groups named in ``cfg.signal_groups`` get a
    one-hot class marker of magnitude 2.0 at component (class_id - 1) mod
    feature_dim plus uniform(-0.1, 0.1) noise; other groups are pure
    uniform(-1, 1) noise.  Either way one draw per component keeps the
    stream aligned.
    """
    import numpy as np

    dim = cfg.feature_dim
    # Random.uniform(a, b) is a + (b - a) * random(); calling random()
    # directly draws the same stream without a method call per value
    draw = random.Random(derive_seed(cfg.seed, "features")).random
    # per group: the REGION_KINDS position whose keypoints make it exist
    # (None: always exists), whether it carries the marker, and its noise
    # interval
    plan = []
    for group in GROUP_ORDER:
        signal = group in cfg.signal_groups
        low, high = (-0.1, 0.1) if signal else (-1.0, 1.0)
        k = REGION_KINDS.index(group) if group in REGION_KINDS else None
        plan.append((group, k, signal, low, high - low))
    records: list[tuple[int, PartKind, np.ndarray]] = []
    for image_id in dataset.image_ids():
        class_id = dataset.images[image_id].class_id
        row = dataset.keypoints[image_id]
        present = {k for kp, k in zip(row, REGION_OF_KEYPOINT) if kp.visible}
        for group, k, signal, low, width in plan:
            if k is not None and k not in present:
                continue
            vector = np.array([low + width * draw() for _ in range(dim)])
            if signal:
                # noise + 2.0 is the sum 2.0 + noise of a marker added to noise
                vector[(class_id - 1) % dim] += 2.0
            records.append((image_id, group, vector))
    return records


def synth_corpus(
    cfg: SynthConfig,
    out_dir,
    region_cfg: RegionConfig,
    ratios: tuple[float, float, float],
) -> dict[str, Path]:
    """Generate a complete pipeline input set under ``out_dir``.

    Produces the annotation tree (``dataset/``), a stratified split, the
    ground-truth region and crop-manifest files, a detection file, and a
    feature store.  Detections are derived from the regions as re-parsed
    from the written file, so at zero jitter they match the ground truth
    exactly as downstream consumers will read it.  Sub-streams (dataset,
    split, detections, features) use independently derived seeds; region
    ties are drawn from ``region_cfg.tie_seed``, which ``cfg.seed`` leaves
    alone.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    dataset = synth_dataset(cfg, out / "dataset")
    assignments = split_dataset(dataset, ratios, seed=derive_seed(cfg.seed, "split"))
    write_split(assignments, out / "split.txt")

    region_sets = generate_all(dataset, region_cfg)
    write_region_sets(region_sets, out / "gt_regions.txt")
    write_crop_manifest(dataset.images, region_sets, region_cfg, out / "crop_manifest.txt")

    reread = read_region_sets(out / "gt_regions.txt")
    detections = synth_detections(
        reread,
        jitter_px=cfg.jitter_px,
        score_noise=cfg.score_noise,
        seed=derive_seed(cfg.seed, "detections"),
    )
    write_detections(detections, out / "detections.txt")

    write_feature_records(synth_features(cfg, dataset), out / "features.tsv")

    return {
        "dataset": out / "dataset",
        "split": out / "split.txt",
        "gt_regions": out / "gt_regions.txt",
        "crop_manifest": out / "crop_manifest.txt",
        "detections": out / "detections.txt",
        "features": out / "features.tsv",
    }

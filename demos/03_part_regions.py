#!/usr/bin/env python3
"""From keypoints to part regions.

Shows the five-part vocabulary, padded minimal rectangles for head and
breast, head-referenced square envelopes for tail/wing/leg, and the
detector label export.
"""

import tempfile
from pathlib import Path

from partkit.parts import REGION_KINDS
from partkit.regions import (
    RegionConfig,
    center_crop_box,
    export_yolo_labels,
    generate_all,
)
from partkit.synth import SynthConfig, synth_dataset

dataset = synth_dataset(SynthConfig(num_classes=2, images_per_class=2, seed=9))
cfg = RegionConfig()
print(f"padding: +{cfg.pad_w:.0%} width, +{cfg.pad_h:.0%} height")
print(f"envelope scales: {dict((k.value, v) for k, v in cfg.envelope_scales.items())}")

region_sets = generate_all(dataset, cfg)
for image_id in region_sets:  # ascending ids
    corners = {k: (x1, y1, x2, y2) for k, x1, y1, x2, y2 in region_sets.corners(image_id)}
    print(f"\nimage {image_id}:")
    for k, kind in enumerate(REGION_KINDS):
        if k not in corners:
            print(f"  {kind.value:<8} (absent)")
        else:
            x1, y1, x2, y2 = corners[k]
            print(f"  {kind.value:<8} ({x1:7.2f}, {y1:7.2f}) "
                  f"to ({x2:7.2f}, {y2:7.2f})  {x2 - x1:6.2f} x {y2 - y1:6.2f}")

image = dataset.images[1]
crop = center_crop_box(image, cfg)
print(f"\ncenter crop of image 1 ({image.width}x{image.height}): "
      f"({crop.x1:.1f}, {crop.y1:.1f}) to ({crop.x2:.1f}, {crop.y2:.1f})")

with tempfile.TemporaryDirectory() as tmp:
    written = export_yolo_labels(region_sets, dataset.images, Path(tmp) / "labels")
    print(f"\nexported {len(written)} label files; first file:")
    for line in Path(written[0]).read_text(encoding="utf-8").splitlines():
        print(f"  {line}")

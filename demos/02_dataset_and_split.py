#!/usr/bin/env python3
"""Annotation trees and stratified splitting.

Generates a small synthetic annotation tree on disk, parses it back with
full cross-referencing, and splits it per class with a fixed seed.
"""

import tempfile
from pathlib import Path

from partkit.dataset_io import Split, parse_dataset, split_dataset
from partkit.synth import SynthConfig, synth_dataset

with tempfile.TemporaryDirectory() as tmp:
    root = Path(tmp) / "dataset"
    cfg = SynthConfig(num_classes=3, images_per_class=8, seed=42)
    synth_dataset(cfg, root)
    print("wrote annotation tree:")
    for path in sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file()):
        print(f"  {path}")

    dataset = parse_dataset(root)
    print(f"\nparsed {len(dataset.images)} images, "
          f"{dataset.num_keypoints} keypoints, "
          f"{len(dataset.class_names)} classes")

    image = dataset.images[1]
    print(f"\nimage 1: {image.relative_path} ({image.width}x{image.height})")
    for kp in dataset.keypoints_of(1)[:4]:
        name = dataset.part_names[kp.part_id]
        state = "visible" if kp.visible else "hidden"
        print(f"  {name:<12} ({kp.x:7.2f}, {kp.y:7.2f}) {state}")

    # stratified split: each class is allocated by largest remainder, then
    # shuffled with a seeded generator, so reruns agree exactly
    split = split_dataset(dataset, (0.5, 0.25, 0.25), seed=7)
    counts = {s: 0 for s in Split}
    for s in split.values():
        counts[s] += 1
    print(f"\nsplit sizes: " + ", ".join(f"{s.name}={n}" for s, n in counts.items()))

    rerun = split_dataset(dataset, (0.5, 0.25, 0.25), seed=7)
    print(f"identical on rerun: {split == rerun}")

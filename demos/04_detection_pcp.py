#!/usr/bin/env python3
"""Detection post-processing and part localization scoring.

Simulates detector output over a synthetic dataset, keeps the best
detection per part above the score threshold, and reports the fraction
of visible parts localized at several overlap thresholds.
"""

from partkit.config import ToolkitConfig
from partkit.detection import compute_pcp, select_all
from partkit.regions import RegionConfig, generate_all
from partkit.synth import SynthConfig, synth_dataset, synth_detections

dataset = synth_dataset(SynthConfig(num_classes=3, images_per_class=6, seed=21))
gt = generate_all(dataset, RegionConfig())

detections = synth_detections(
    gt, jitter_px=3.0, score_noise=0.3, seed=21, distractor_score=0.2
)
print(f"raw detections: {len(detections)} over {len(dataset.images)} images")

config = ToolkitConfig()
print(f"score threshold {config.score_min} (strict)")

selected = select_all(detections, config.score_min)
kept = sum(len(per_image) for per_image in selected.values())
print(f"kept after per-part selection: {kept} (distractors at 0.2 are gone)")

for iou_threshold in (0.3, 0.5, 0.7, 0.9):
    report = compute_pcp(selected, gt, iou_threshold=iou_threshold)
    per_kind = " ".join(
        f"{kind.value}={entry.pcp:.2f}"
        for kind, entry in sorted(report.per_kind.items(), key=lambda kv: kv[0].value)
    )
    print(f"overlap >= {iou_threshold:.1f}: {per_kind}")

report = compute_pcp(selected, gt, iou_threshold=0.5)
print("\nreport as TSV:")
print(report.to_tsv(), end="")

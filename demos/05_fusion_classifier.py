#!/usr/bin/env python3
"""Feature fusion, the linear classifier, and the combination experiment.

Builds a synthetic feature store where only the head group carries class
signal, shows zero filling for a missing part, trains the classifier on
the fused matrix of each split, and walks the incremental part-combination
schedule.
"""

from partkit.dataset_io import Split, split_dataset
from partkit.features import (
    BASELINE_GROUPS,
    FeatureStore,
    evaluate_accuracy,
    fuse,
    run_combination_experiment,
    train_svm,
)
from partkit.parts import GROUP_ORDER, PartKind
from partkit.synth import SynthConfig, synth_dataset, synth_features

cfg = SynthConfig(
    num_classes=4,
    images_per_class=10,
    feature_dim=8,
    signal_groups=frozenset({PartKind.HEAD}),
    dropout_overrides={"leg": 1.0},
    seed=11,
)
dataset = synth_dataset(cfg)
records = synth_features(cfg, dataset)
store = FeatureStore({(iid, kind): vec for iid, kind, vec in records}, cfg.feature_dim)
labels = {iid: rec.class_id for iid, rec in dataset.images.items()}
print(f"store: {len(store)} records of dimension {store.dim}")

# legs were forced invisible, so every fused row gets a zero leg block
fused = fuse(store, [1], GROUP_ORDER)
print(f"fused row for image 1: {fused.vectors.shape[1]} components "
      f"({len(GROUP_ORDER)} blocks of {store.dim})")
leg = GROUP_ORDER.index(PartKind.LEG)
leg_block = fused.vectors[0, leg * store.dim : (leg + 1) * store.dim]
print(f"leg block all zero: {bool((leg_block == 0.0).all())}")
present = [g.value for g, p in zip(fused.groups, fused.present[0]) if p]
print(f"groups present: {', '.join(sorted(present))}")

split = split_dataset(dataset, (0.5, 0.25, 0.25), seed=3)
train_ids = sorted(i for i, s in split.items() if s is Split.TRAIN)
test_ids = sorted(i for i, s in split.items() if s is Split.TEST)
print(f"\nsplit: {len(train_ids)} train / {len(test_ids)} test")

train = fuse(store, train_ids, GROUP_ORDER)
test = fuse(store, test_ids, GROUP_ORDER)
print(f"fused matrices: train {train.vectors.shape}, test {test.vectors.shape}")
model = train_svm(train, labels, c=0.1, epochs=50, seed=0)
print(f"accuracy with every group fused: {evaluate_accuracy(model, test, labels):.4f}")

baseline_train = fuse(store, train_ids, BASELINE_GROUPS)
baseline_test = fuse(store, test_ids, BASELINE_GROUPS)
baseline_model = train_svm(baseline_train, labels, c=0.1, epochs=50, seed=0)
print(f"accuracy on whole-image groups only: "
      f"{evaluate_accuracy(baseline_model, baseline_test, labels):.4f}")

result = run_combination_experiment(store, labels, split, c=0.1, epochs=50, seed=0)
print("\nsingle-group accuracies used for ranking:")
for kind, acc in sorted(result.single_group_accuracy.items(), key=lambda kv: -kv[1]):
    print(f"  {kind.value:<8} {acc:.4f}")
print("\ncombination schedule:")
for row in result.rows:
    names = "+".join(g.value for g in row.spec.groups)
    print(f"  {names:<48} {row.accuracy:.4f}")
print("\nas TSV:")
print(result.to_tsv(), end="")

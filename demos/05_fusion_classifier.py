#!/usr/bin/env python3
"""Feature fusion, the linear classifier, and the combination experiment.

Builds a synthetic feature store where only the head group carries class
signal, shows zero filling for a missing part, trains the classifier on
the fused matrix of each split, then runs the CLI's classification driver
on single parts and on the incremental part-combination schedule.
"""

from partkit.cli import combination_study, combination_tsv, fit_group_sets
from partkit.dataset_io import Split, split_dataset
from partkit.features import BASELINE_GROUPS, FeatureStore, evaluate_accuracy, fuse, train_svm
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
# a fused split is an index into the store: one store row (or -1, absent)
# per block, each row gathered only while the classifier uses it
print(f"fused splits: train {len(train)} x {train.dim}, test {len(test)} x {test.dim}, "
      f"indexed by store rows {train.blocks.shape} and {test.blocks.shape}")
model = train_svm(train, labels, c=0.1, epochs=50, seed=0)
print(f"accuracy with every group fused: {evaluate_accuracy(model, test, labels):.4f}")

# the driver behind `partkit classify` and `partkit combination`: one
# fit per group set, trained on TRAIN and scored on TEST
svm = {"c": 0.1, "epochs": 50, "seed": 0}
(baseline,) = fit_group_sets(store, labels, split, [BASELINE_GROUPS], **svm)
print(f"accuracy on whole-image groups only: {baseline.accuracy:.4f}")

parts = [(g,) for g in GROUP_ORDER if g not in BASELINE_GROUPS]
solo = {fit.groups[0]: fit.accuracy for fit in fit_group_sets(store, labels, split, parts, **svm)}
print("\nsingle-group accuracies used for ranking:")
for kind, acc in sorted(solo.items(), key=lambda kv: -kv[1]):
    print(f"  {kind.value:<8} {acc:.4f}")
rows = combination_study(store, labels, split, **svm)
print("\ncombination schedule:")
for groups, accuracy in rows:
    names = "+".join(g.value for g in groups)
    print(f"  {names:<48} {accuracy:.4f}")
print("\nas TSV:")
print(combination_tsv(rows), end="")

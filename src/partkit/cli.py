"""Command-line pipeline driver.

Subcommands map one-to-one onto the library stages: ``validate`` and
``gen-regions`` / ``export-yolo`` cover dataset preparation, ``eval-pcp``
scores part localization, ``classify`` / ``combination`` run the fusion
classifier, and ``synth`` produces a full synthetic corpus.  Every
subcommand is deterministic given its inputs and config; ``--seed``
overrides the config seed and sub-streams are derived from it by labeled
hashing, never by sharing one RNG across stages.

Exit codes: 0 success, 1 input error (missing or malformed data), 2 config
or usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from .config import ToolkitConfig, load_config, parse_group_list
from .dataset_io import (
    Split,
    parse_dataset,
    parse_detections,
    read_labels,
    read_split,
)
from .detection import compute_pcp, select_all
from .errors import ConfigError, InputError, ToolkitError
from .features import (
    FeatureStore,
    evaluate_accuracy,
    fuse,
    run_combination_experiment,
    save_model,
    train_svm,
)
from .regions import (
    export_yolo_labels,
    generate_all,
    generate_region_set,  # noqa: F401  bench/tracing.py check_cli needs this name here
    read_region_sets,
    write_crop_manifest,
    write_region_sets,
)
from .seeding import derive_seed
from .synth import synth_corpus


def _resolve_root(args, config: ToolkitConfig) -> Path:
    raw = getattr(args, "root", None) or config.data_root
    if not raw:
        raise ConfigError("no dataset root given: pass it as an argument or set data_root")
    return Path(raw)


def _resolve_out(args, config: ToolkitConfig, required: bool = True) -> Optional[Path]:
    raw = args.out or config.out_dir
    if not raw:
        if required:
            raise ConfigError("no output directory given: pass --out or set out_dir")
        return None
    out = Path(raw)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_validate(args, config: ToolkitConfig) -> int:
    dataset = parse_dataset(_resolve_root(args, config))
    print(
        f"images={len(dataset.images)} keypoints={dataset.num_keypoints} "
        f"classes={len(dataset.class_names)} parts={len(dataset.part_names)}"
    )
    return 0


def cmd_gen_regions(args, config: ToolkitConfig) -> int:
    dataset = parse_dataset(_resolve_root(args, config))
    out = _resolve_out(args, config)
    region_cfg = config.region_config()
    region_sets = generate_all(dataset, region_cfg)
    # labels first: their path-collision check raises before any output exists
    export_yolo_labels(region_sets, dataset.images, out / "labels")
    write_region_sets(region_sets, out / "gt_regions.txt")
    write_crop_manifest(dataset, region_sets, region_cfg, out / "crop_manifest.txt")
    total = sum(len(rs.regions) for rs in region_sets.values())
    print(f"images={len(dataset.images)} regions={total}")
    return 0


def cmd_export_yolo(args, config: ToolkitConfig) -> int:
    dataset = parse_dataset(_resolve_root(args, config))
    out = _resolve_out(args, config)
    if args.regions is not None:
        region_sets = read_region_sets(args.regions)
        unknown = sorted(set(region_sets) - set(dataset.images))
        if unknown:
            raise InputError(f"region file references unknown images {unknown[:5]}")
    else:
        region_sets = generate_all(dataset, config.region_config())
    written = export_yolo_labels(region_sets, dataset.images, out / "labels")
    print(f"label_files={len(written)}")
    return 0


def cmd_eval_pcp(args, config: ToolkitConfig) -> int:
    ground_truth = read_region_sets(args.gt_regions)
    detections = parse_detections(args.detections)
    selected = select_all(detections, config.score_min)
    report = compute_pcp(selected, ground_truth, config.pcp_iou_min)
    tsv = report.to_tsv()
    out = _resolve_out(args, config, required=False)
    if out is not None:
        (out / "pcp.tsv").write_text(tsv, encoding="utf-8")
    sys.stdout.write(tsv)
    return 0


def _load_classification_inputs(args):
    store = FeatureStore.load(args.features)
    labels = read_labels(args.labels)
    split = read_split(args.split)
    unlabeled = sorted(i for i in store.image_ids if i not in labels)
    if unlabeled:
        raise InputError(f"feature store images without class labels: {unlabeled[:5]}")
    return store, labels, split


def cmd_classify(args, config: ToolkitConfig) -> int:
    store, labels, split = _load_classification_inputs(args)
    if args.groups is not None:
        try:
            groups = parse_group_list(args.groups)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    else:
        groups = config.group_order
    train_ids = sorted(i for i, s in split.items() if s == Split.TRAIN and i in store.image_ids)
    test_ids = sorted(i for i, s in split.items() if s == Split.TEST and i in store.image_ids)
    # one fused split at a time: the train matrix is dropped before the
    # test matrix is built
    train = fuse(store, train_ids, groups, config.group_order, config.l2_normalize)
    model = train_svm(
        train,
        labels,
        c=config.svm_c,
        epochs=config.svm_epochs,
        seed=derive_seed(config.seed, "svm"),
    )
    train_rows = len(train)
    del train
    test = fuse(store, test_ids, groups, config.group_order, config.l2_normalize)
    accuracy = evaluate_accuracy(model, test, labels)
    out = _resolve_out(args, config)
    save_model(model, out / "model.svm")
    (out / "accuracy.tsv").write_text(
        f"train\t{train_rows}\ntest\t{len(test)}\naccuracy\t{accuracy:.4f}\n",
        encoding="utf-8",
    )
    print(f"accuracy={accuracy:.4f}")
    return 0


def cmd_combination(args, config: ToolkitConfig) -> int:
    store, labels, split = _load_classification_inputs(args)
    result = run_combination_experiment(
        store,
        labels,
        split,
        c=config.svm_c,
        epochs=config.svm_epochs,
        seed=derive_seed(config.seed, "svm"),
        order=config.group_order,
        l2_normalize=config.l2_normalize,
    )
    tsv = result.to_tsv()
    out = _resolve_out(args, config, required=False)
    if out is not None:
        (out / "combination.tsv").write_text(tsv, encoding="utf-8")
    sys.stdout.write(tsv)
    return 0


def cmd_synth(args, config: ToolkitConfig) -> int:
    out = _resolve_out(args, config)
    paths = synth_corpus(
        config.synth_config(),
        out,
        region_cfg=config.region_config(),
        ratios=config.ratios(),
    )
    for key in sorted(paths):
        print(f"{key}={paths[key]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="key=value config file")
    common.add_argument("--out", default=None, help="output directory")
    common.add_argument("--seed", type=int, default=None, help="override the config seed")

    parser = argparse.ArgumentParser(
        prog="partkit",
        description="part-region generation, localization scoring and fused classification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common], help="parse and cross-check a dataset tree")
    p.add_argument("root", nargs="?", default=None, help="dataset root directory")
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser(
        "gen-regions",
        parents=[common],
        help="generate part regions, crop manifest and detector labels",
    )
    p.add_argument("root", nargs="?", default=None, help="dataset root directory")
    p.set_defaults(handler=cmd_gen_regions)

    p = sub.add_parser("export-yolo", parents=[common], help="write detector label files")
    p.add_argument("root", nargs="?", default=None, help="dataset root directory")
    p.add_argument("--regions", default=None, help="existing region file (default: generate)")
    p.set_defaults(handler=cmd_export_yolo)

    p = sub.add_parser("eval-pcp", parents=[common], help="score part localization")
    p.add_argument("gt_regions", help="ground-truth region file")
    p.add_argument("detections", help="detection file")
    p.set_defaults(handler=cmd_eval_pcp)

    p = sub.add_parser("classify", parents=[common], help="train and test the classifier")
    p.add_argument("features", help="feature TSV")
    p.add_argument("labels", help="image class label file")
    p.add_argument("split", help="split assignment file")
    p.add_argument("--groups", default=None, help="comma-separated group subset (default: all)")
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser(
        "combination", parents=[common], help="incremental part-combination experiment"
    )
    p.add_argument("features", help="feature TSV")
    p.add_argument("labels", help="image class label file")
    p.add_argument("split", help="split assignment file")
    p.set_defaults(handler=cmd_combination)

    p = sub.add_parser("synth", parents=[common], help="generate a synthetic corpus")
    p.set_defaults(handler=cmd_synth)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        config = load_config(args.config)
        if args.seed is not None:
            config = config.with_seed(args.seed)
        return args.handler(args, config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ToolkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

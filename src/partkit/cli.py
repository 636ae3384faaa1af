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
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .config import ToolkitConfig, load_config, parse_group_list
from .dataset_io import (
    Split,
    parse_dataset,
    parse_detections,
    read_labels,
    read_split,
)
from .detection import compute_pcp, select_all
from .errors import ConfigError, InputError, MalformedLine, ToolkitError
from .features import (
    BASELINE_GROUPS,
    FeatureStore,
    SvmModel,
    evaluate_accuracy,
    fuse,
    normalize_groups,
    save_model,
    train_svm,
)
from .parts import GROUP_ORDER, PartKind
from .regions import (
    export_yolo_labels,
    generate_all,
    generate_region_set,  # noqa: F401  bench/tracing.py check_cli needs this name here
    read_region_sets,
    region_outside_image,
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
    # each command makes the directory just before its first write, so one
    # that fails leaves none; a path that cannot be one fails here
    raw = args.out or config.out_dir
    if not raw:
        if required:
            raise ConfigError("no output directory given: pass --out or set out_dir")
        return None
    out = Path(raw)
    existing = next(path for path in (out, *out.parents) if path.exists())
    if not existing.is_dir():
        raise InputError(f"output directory {out} cannot be made: {existing} is not a directory")
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
    images = dataset.images  # all the writers read: the keypoints die here
    del dataset
    # labels first: their path-collision check raises before any output exists
    export_yolo_labels(region_sets, images, out / "labels")
    write_region_sets(region_sets, out / "gt_regions.txt")
    write_crop_manifest(images, region_sets, region_cfg, out / "crop_manifest.txt")
    print(f"images={len(images)} regions={region_sets.num_regions}")
    return 0


def cmd_export_yolo(args, config: ToolkitConfig) -> int:
    dataset = parse_dataset(_resolve_root(args, config))
    # before generating: a usage error must not wait for it
    out = _resolve_out(args, config)
    if args.regions is None:
        region_sets = generate_all(dataset, config.region_config())
    else:
        region_sets = read_region_sets(args.regions)
        unknown = sorted(set(region_sets) - set(dataset.images))
        if unknown:
            raise MalformedLine(args.regions, None, f"regions of images not in the dataset: {unknown[:5]}")
        # a label of such a region falls outside the normalized range
        outside = region_outside_image(region_sets, dataset.images)
        if outside is not None:
            image_id, kind = outside
            image = dataset.images[image_id]
            size = f"{image.width} x {image.height}"
            raise MalformedLine(
                args.regions, None, f"the {kind} region of image {image_id} reaches beyond its {size} image"
            )
    written = export_yolo_labels(region_sets, dataset.images, out / "labels")
    print(f"label_files={len(written)}")
    return 0


def cmd_eval_pcp(args, config: ToolkitConfig) -> int:
    # the candidates stream from the file into the selection, which holds
    # only the winners; they are read before the ground truth, so a bad
    # detection file is reported first
    selected = select_all(parse_detections(args.detections), config.score_min)
    ground_truth = read_region_sets(args.gt_regions)
    report = compute_pcp(selected, ground_truth, config.pcp_iou_min)
    tsv = report.to_tsv()
    out = _resolve_out(args, config, required=False)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        (out / "pcp.tsv").write_text(tsv, encoding="utf-8")
    sys.stdout.write(tsv)
    return 0


def _load_classification_inputs(args, config: ToolkitConfig):
    # the split first: only the vectors of TRAIN and TEST images are held
    split = read_split(args.split)
    hold = {i for i, s in split.items() if s != Split.VAL}
    store = FeatureStore.load(args.features, l2_normalize=config.l2_normalize, hold=hold)
    labels = read_labels(args.labels)
    unlabeled = sorted(i for i in store.image_ids if i not in labels)
    if unlabeled:
        raise MalformedLine(args.labels, None, f"no class label for feature store images {unlabeled[:5]}")
    # before any training: each side needs an image with feature records
    for side, samples in ((Split.TRAIN, "training"), (Split.TEST, "test")):
        if not any(s == side and i in store.image_ids for i, s in split.items()):
            raise MalformedLine(args.split, None, f"no {samples} samples")
    return store, labels, split


class Fit(NamedTuple):
    """One group set's classifier, trained on TRAIN and scored on TEST."""

    groups: tuple[PartKind, ...]  # in GROUP_ORDER
    model: SvmModel
    accuracy: float
    train_rows: int
    test_rows: int


def fit_group_sets(
    store: FeatureStore, labels: Mapping[int, int], split: Mapping[int, Split],
    group_sets: Iterable[Sequence[PartKind]],
    c: float = 1.0, epochs: int = 50, seed: int = 0,
) -> Iterator[Fit]:
    """Fuse the TRAIN images, train, fuse the TEST images and score, once
    per group set, yielding each set's ``Fit`` in turn.  Images of
    ``split`` with no feature records are left out."""
    train_ids = sorted(i for i, s in split.items() if s == Split.TRAIN and i in store.image_ids)
    test_ids = sorted(i for i, s in split.items() if s == Split.TEST and i in store.image_ids)
    for groups in map(normalize_groups, group_sets):
        # one fused split at a time: each dies with the call it is passed
        # to, so none is alive beside the next set's TRAIN matrix
        model = train_svm(fuse(store, train_ids, groups), labels, c=c, epochs=epochs, seed=seed)
        accuracy = evaluate_accuracy(model, fuse(store, test_ids, groups), labels)
        yield Fit(groups, model, accuracy, len(train_ids), len(test_ids))


def combination_study(
    store: FeatureStore, labels: Mapping[int, int], split: Mapping[int, Split],
    c: float = 1.0, epochs: int = 50, seed: int = 0,
) -> list[tuple[tuple[PartKind, ...], float]]:
    """The (groups, accuracy) rows of the whole-image baseline grown one
    part at a time, in descending order of each part's solo accuracy (ties
    keep canonical group order)."""
    parts = [g for g in GROUP_ORDER if g not in BASELINE_GROUPS]
    fits = fit_group_sets(store, labels, split, [(g,) for g in parts], c, epochs, seed)
    solo = {fit.groups[0]: fit.accuracy for fit in fits}
    ranked = sorted(parts, key=lambda g: -solo[g])
    grown = [BASELINE_GROUPS + tuple(ranked[:n]) for n in range(len(ranked) + 1)]
    fits = fit_group_sets(store, labels, split, grown, c, epochs, seed)
    return [(fit.groups, fit.accuracy) for fit in fits]


def combination_tsv(rows: Iterable[tuple[Sequence[PartKind], float]]) -> str:
    """A header, then per row its number, a 0/1 flag per group in
    ``GROUP_ORDER`` and its accuracy."""
    lines = ["seq\t" + "\t".join(g.value for g in GROUP_ORDER) + "\taccuracy"]
    for seq, (groups, accuracy) in enumerate(rows, start=1):
        flags = "\t".join(str(int(g in groups)) for g in GROUP_ORDER)
        lines.append(f"{seq}\t{flags}\t{accuracy:.4f}")
    return "".join(line + "\n" for line in lines)


def _svm_settings(config: ToolkitConfig) -> dict:
    return {"c": config.svm_c, "epochs": config.svm_epochs, "seed": derive_seed(config.seed, "svm")}


def cmd_classify(args, config: ToolkitConfig) -> int:
    # the groups first: a bad selection neither waits for the inputs nor
    # leaves an output directory
    groups = GROUP_ORDER
    if args.groups is not None:
        try:
            groups = normalize_groups(parse_group_list(args.groups))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    store, labels, split = _load_classification_inputs(args, config)
    # before training: a missing output directory must not wait for the fit
    out = _resolve_out(args, config)
    (fit,) = fit_group_sets(store, labels, split, [groups], **_svm_settings(config))
    out.mkdir(parents=True, exist_ok=True)
    save_model(fit.model, out / "model.svm")
    report = f"train\t{fit.train_rows}\ntest\t{fit.test_rows}\naccuracy\t{fit.accuracy:.4f}\n"
    (out / "accuracy.tsv").write_text(report, encoding="utf-8")
    print(f"accuracy={fit.accuracy:.4f}")
    return 0


def cmd_combination(args, config: ToolkitConfig) -> int:
    store, labels, split = _load_classification_inputs(args, config)
    out = _resolve_out(args, config, required=False)
    rows = combination_study(store, labels, split, **_svm_settings(config))
    tsv = combination_tsv(rows)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
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

"""Feature storage, zero-filled fusion, and linear SVM classification.

Per-image feature vectors exist per group (the two whole-image views plus
the five parts).  Fusion concatenates the selected groups' vectors in a
fixed order, substituting exact-zero blocks for groups with no stored
vector, so missing parts never shift block offsets.  Classification is a
one-vs-rest linear SVM trained by seeded epoch-wise subgradient descent on
the L2-regularized hinge loss.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatch,
    DuplicateKey,
    EmptyTestSet,
    EmptyTrainingSet,
    InputError,
    MalformedLine,
    MissingFile,
    SingleClass,
    UnknownImage,
)
from .parts import GROUP_ORDER, PartKind, kind_from_name

BASELINE_GROUPS: tuple[PartKind, ...] = (PartKind.ORIGINAL, PartKind.CROPPED)


class FeatureStore:
    """Read-only feature vectors keyed by (image_id, group), one shared
    dimension."""

    def __init__(self, records: Mapping[tuple[int, PartKind], np.ndarray], dim: int):
        self._records = dict(records)
        self.dim = dim
        self._image_ids = frozenset(image_id for image_id, _ in self._records)

    def __len__(self) -> int:
        return len(self._records)

    @property
    def image_ids(self) -> frozenset[int]:
        return self._image_ids

    def get(self, image_id: int, group: PartKind) -> Optional[np.ndarray]:
        return self._records.get((image_id, group))

    @classmethod
    def load(cls, path) -> "FeatureStore":
        """Parse a feature TSV: '<image_id>\\t<group>\\t<v1> <v2> ...'."""
        path = Path(path)
        if not path.is_file():
            raise MissingFile(path)
        records: dict[tuple[int, PartKind], np.ndarray] = {}
        dim: Optional[int] = None
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, raw in enumerate(fh, start=1):
                line = raw.rstrip("\n")
                if not line.strip():
                    continue
                fields = line.split("\t")
                if len(fields) != 3:
                    raise MalformedLine(path, line_no, "expected 3 tab-separated fields")
                try:
                    image_id = int(fields[0])
                except ValueError:
                    raise MalformedLine(path, line_no, f"bad image_id {fields[0]!r}") from None
                if image_id < 1:
                    raise MalformedLine(path, line_no, f"image_id must be >= 1, got {image_id}")
                try:
                    group = kind_from_name(fields[1])
                except KeyError:
                    raise MalformedLine(path, line_no, f"unknown group {fields[1]!r}") from None
                try:
                    vector = np.array([float(v) for v in fields[2].split()], dtype=np.float64)
                except ValueError:
                    raise MalformedLine(path, line_no, "non-numeric feature component") from None
                if vector.size == 0:
                    raise MalformedLine(path, line_no, "empty feature vector")
                if not np.all(np.isfinite(vector)):
                    raise MalformedLine(path, line_no, "non-finite feature component")
                if dim is None:
                    dim = int(vector.size)
                elif vector.size != dim:
                    raise DimensionMismatch(
                        f"{path}:{line_no}: vector length {vector.size}, store dimension {dim}"
                    )
                key = (image_id, group)
                if key in records:
                    raise DuplicateKey(f"{path}:{line_no}: repeated record for {image_id}/{group}")
                records[key] = vector
        if dim is None:
            raise InputError(f"{path}: feature store is empty")
        return cls(records, dim)


def write_feature_records(
    records: Iterable[tuple[int, PartKind, np.ndarray]], path
) -> None:
    """Write feature TSV rows with 6-decimal fixed component rendering."""
    with open(path, "w", encoding="utf-8") as fh:
        for image_id, group, vector in records:
            values = " ".join(f"{v:.6f}" for v in vector)
            fh.write(f"{image_id}\t{group.value}\t{values}\n")


@dataclass(frozen=True)
class FusedVector:
    image_id: int
    groups: tuple[PartKind, ...]
    vector: np.ndarray
    present: frozenset[PartKind]

    def block(self, group: PartKind) -> np.ndarray:
        i = self.groups.index(group)
        dim = self.vector.size // len(self.groups)
        return self.vector[i * dim : (i + 1) * dim]


def normalize_groups(
    groups: Sequence[PartKind], order: Sequence[PartKind] = GROUP_ORDER
) -> tuple[PartKind, ...]:
    """Validate a group selection and put it in canonical order."""
    if not groups:
        raise ConfigError("group selection is empty")
    if len(set(groups)) != len(groups):
        raise ConfigError("group selection contains duplicates")
    for g in groups:
        if g not in order:
            raise ConfigError(f"unknown group {g}")
    return tuple(g for g in order if g in set(groups))


def fuse(
    store: FeatureStore,
    image_id: int,
    groups: Sequence[PartKind],
    order: Sequence[PartKind] = GROUP_ORDER,
    l2_normalize: bool = False,
) -> FusedVector:
    """Concatenate one image's group vectors, zero-filling absent groups.

    Block i of the result covers offsets [i*D, (i+1)*D) for the i-th
    selected group in canonical order.  ``l2_normalize`` rescales each
    stored vector to unit length before concatenation (zero blocks stay
    zero).  Raises UnknownImage when the store holds nothing at all for
    the image.
    """
    selected = normalize_groups(groups, order)
    if image_id not in store.image_ids:
        raise UnknownImage(f"image {image_id} has no feature records")
    blocks = []
    present = []
    for group in selected:
        vector = store.get(image_id, group)
        if vector is None:
            blocks.append(np.zeros(store.dim, dtype=np.float64))
        else:
            if l2_normalize:
                norm = float(np.linalg.norm(vector))
                vector = vector / norm if norm > 0 else vector
            blocks.append(np.asarray(vector, dtype=np.float64))
            present.append(group)
    return FusedVector(
        image_id=image_id,
        groups=selected,
        vector=np.concatenate(blocks),
        present=frozenset(present),
    )


@dataclass(frozen=True)
class CombinationSpec:
    """A row of the incremental-combination experiment; always contains the
    whole-image baseline groups."""

    groups: tuple[PartKind, ...]

    def __post_init__(self):
        object.__setattr__(self, "groups", normalize_groups(self.groups))
        for required in BASELINE_GROUPS:
            if required not in self.groups:
                raise ConfigError(f"combination must include baseline group {required}")

    def flags(self) -> dict[PartKind, int]:
        return {g: int(g in self.groups) for g in GROUP_ORDER}


# --- linear SVM ---------------------------------------------------------------


@dataclass
class SvmModel:
    classes: tuple[int, ...]
    weights: np.ndarray  # (num_classes, dim)
    biases: np.ndarray  # (num_classes,)
    c: float
    epochs: int
    seed: int

    @property
    def dim(self) -> int:
        return int(self.weights.shape[1])


def train_svm(
    samples: Sequence[FusedVector],
    labels: Mapping[int, int],
    c: float = 1.0,
    epochs: int = 50,
    seed: int = 0,
    workers: int = 1,
) -> SvmModel:
    """One-vs-rest linear SVM via seeded epoch-wise subgradient descent.

    The sample list is canonicalized by image id before shuffling, so the
    result is a pure function of (data, hyperparameters, seed) regardless
    of input order.  Every per-class problem shares the samples, the
    seeded epoch orders and the step schedule, so all classes train in one
    pass over a (classes, dim) weight matrix; each class's rows get exactly
    the arithmetic a separate per-class Pegasos run would give them.
    ``workers`` is accepted for compatibility and has no effect.
    """
    if c <= 0:
        raise ConfigError("svm regularization parameter must be > 0")
    if epochs < 1:
        raise ConfigError("epochs must be >= 1")
    ordered = sorted(samples, key=lambda s: s.image_id)
    if not ordered:
        raise EmptyTrainingSet("no training samples")
    missing = [s.image_id for s in ordered if s.image_id not in labels]
    if missing:
        raise InputError(f"no class label for images {missing[:5]}")
    dims = {s.vector.size for s in ordered}
    if len(dims) != 1:
        raise DimensionMismatch(f"inconsistent fused dimensions: {sorted(dims)}")
    x = np.stack([s.vector for s in ordered])
    y_ids = [labels[s.image_id] for s in ordered]
    classes = tuple(sorted(set(int(v) for v in y_ids)))
    if len(classes) < 2:
        raise SingleClass(f"training set has {len(classes)} class(es); need at least 2")

    n, dim = x.shape
    class_index = {class_id: k for k, class_id in enumerate(classes)}
    positive = [class_index[int(v)] for v in y_ids]
    reg = 1.0 / (c * n)
    weights = np.zeros((len(classes), dim), dtype=np.float64)
    biases = np.zeros(len(classes), dtype=np.float64)
    rng = random.Random(seed)
    t = 1
    for _ in range(epochs):
        order = list(range(n))
        rng.shuffle(order)
        for i in order:
            step = 1.0 / (reg * t)
            y = np.full(len(classes), -1.0)
            y[positive[i]] = 1.0
            violated = y * (weights @ x[i] + biases) < 1.0
            weights *= 1.0 - step * reg
            step_y = step * y[violated]
            weights[violated] += step_y[:, None] * x[i]
            biases[violated] += step_y
            t += 1
    return SvmModel(classes=classes, weights=weights, biases=biases, c=c, epochs=epochs, seed=seed)


def decision_scores(model: SvmModel, vector: np.ndarray) -> np.ndarray:
    if vector.size != model.dim:
        raise DimensionMismatch(f"vector length {vector.size}, model dimension {model.dim}")
    return model.weights @ vector + model.biases


def predict(model: SvmModel, vector: np.ndarray) -> int:
    """Argmax over per-class scores; exact ties go to the smallest class id."""
    scores = decision_scores(model, vector)
    return model.classes[int(np.argmax(scores))]


def evaluate_accuracy(
    model: SvmModel, samples: Sequence[FusedVector], labels: Mapping[int, int]
) -> float:
    if not samples:
        raise EmptyTestSet("no test samples")
    correct = sum(1 for s in samples if predict(model, s.vector) == labels[s.image_id])
    return correct / len(samples)


# --- model file ---------------------------------------------------------------


def save_model(model: SvmModel, path) -> None:
    """Text format: 'svm v1 <classes> <dim> <C> <epochs> <seed>' header, then
    one '<class_id> <bias> <w...>' line per class at 9 significant digits."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"svm v1 {len(model.classes)} {model.dim} {model.c:.9g} {model.epochs} {model.seed}\n"
        )
        for idx, class_id in enumerate(model.classes):
            weights = " ".join(f"{w:.9g}" for w in model.weights[idx])
            fh.write(f"{class_id} {model.biases[idx]:.9g} {weights}\n")


def load_model(path) -> SvmModel:
    """Read a model written by ``save_model``.  Every value must be one the
    trainer can produce: C > 0 and finite, epochs >= 1, finite biases and
    weights, and class ids >= 1 in strictly increasing order (the order
    ``predict``'s smallest-id tie rule relies on)."""
    path = Path(path)
    if not path.is_file():
        raise MissingFile(path)
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(no, line.rstrip("\n")) for no, line in enumerate(fh, start=1) if line.strip()]
    if not lines:
        raise MalformedLine(path, 1, "empty model file")
    header_no, header_line = lines[0]
    header = header_line.split()
    if len(header) != 7 or header[0] != "svm" or header[1] != "v1":
        raise MalformedLine(
            path, header_no, "expected 'svm v1 <classes> <dim> <C> <epochs> <seed>'"
        )
    try:
        num_classes, dim = int(header[2]), int(header[3])
        c, epochs, seed = float(header[4]), int(header[5]), int(header[6])
    except ValueError:
        raise MalformedLine(path, header_no, "bad header field") from None
    if num_classes < 1 or dim < 1:
        raise MalformedLine(path, header_no, "class count and dimension must be >= 1")
    if not (math.isfinite(c) and c > 0):
        raise MalformedLine(path, header_no, f"C must be finite and > 0, got {header[4]!r}")
    if epochs < 1:
        raise MalformedLine(path, header_no, f"epochs must be >= 1, got {epochs}")
    if len(lines) - 1 != num_classes:
        raise MalformedLine(
            path, header_no, f"expected {num_classes} class lines, found {len(lines) - 1}"
        )
    classes: list[int] = []
    weights = np.zeros((num_classes, dim), dtype=np.float64)
    biases = np.zeros(num_classes, dtype=np.float64)
    for row, (line_no, line) in enumerate(lines[1:]):
        fields = line.split()
        if len(fields) != dim + 2:
            raise MalformedLine(path, line_no, f"expected {dim + 2} fields, found {len(fields)}")
        try:
            class_id = int(fields[0])
            biases[row] = float(fields[1])
            weights[row] = [float(v) for v in fields[2:]]
        except ValueError:
            raise MalformedLine(path, line_no, "non-numeric model value") from None
        if class_id < 1:
            raise MalformedLine(path, line_no, f"class id must be >= 1, got {class_id}")
        if classes and class_id <= classes[-1]:
            raise MalformedLine(
                path, line_no, f"class id {class_id} repeats or follows the larger {classes[-1]}"
            )
        if not (np.isfinite(biases[row]) and np.all(np.isfinite(weights[row]))):
            raise MalformedLine(path, line_no, "non-finite model value")
        classes.append(class_id)
    return SvmModel(
        classes=tuple(classes), weights=weights, biases=biases, c=c, epochs=epochs, seed=seed
    )


# --- incremental combination experiment ----------------------------------------


@dataclass
class ExperimentRow:
    spec: CombinationSpec
    accuracy: float


@dataclass
class ExperimentResult:
    rows: list[ExperimentRow]
    single_group_accuracy: dict[PartKind, float]

    def to_tsv(self) -> str:
        header = "seq\t" + "\t".join(g.value for g in GROUP_ORDER) + "\taccuracy"
        lines = [header]
        for seq, row in enumerate(self.rows, start=1):
            flags = row.spec.flags()
            cells = "\t".join(str(flags[g]) for g in GROUP_ORDER)
            lines.append(f"{seq}\t{cells}\t{row.accuracy:.4f}")
        return "".join(line + "\n" for line in lines)


def _fused_split(store, ids, groups, order, l2_normalize):
    return [fuse(store, image_id, groups, order, l2_normalize) for image_id in ids]


def run_combination_experiment(
    store: FeatureStore,
    labels: Mapping[int, int],
    split: Mapping[int, object],
    c: float = 1.0,
    epochs: int = 50,
    seed: int = 0,
    order: Sequence[PartKind] = GROUP_ORDER,
    l2_normalize: bool = False,
    workers: int = 1,
) -> ExperimentResult:
    """Incremental part-combination study.

    Each part is first classified on its own to rank its usefulness; the
    whole-image baseline is then grown one part at a time in descending
    single-part accuracy order (ties keep canonical group order), training
    and evaluating a fresh model per combination.  ``split`` maps image ids
    to Split values; training uses TRAIN, evaluation uses TEST.  ``workers``
    is accepted for compatibility and has no effect.
    """
    from .dataset_io import Split

    train_ids = sorted(i for i, s in split.items() if s == Split.TRAIN and i in store.image_ids)
    test_ids = sorted(i for i, s in split.items() if s == Split.TEST and i in store.image_ids)

    part_groups = [g for g in order if g not in BASELINE_GROUPS]

    def accuracy_for(groups: Sequence[PartKind]) -> float:
        train = _fused_split(store, train_ids, groups, order, l2_normalize)
        test = _fused_split(store, test_ids, groups, order, l2_normalize)
        model = train_svm(train, labels, c=c, epochs=epochs, seed=seed)
        return evaluate_accuracy(model, test, labels)

    single = {kind: accuracy_for((kind,)) for kind in part_groups}
    ranked = sorted(part_groups, key=lambda k: (-single[k], order.index(k)))

    rows: list[ExperimentRow] = []
    current: list[PartKind] = list(BASELINE_GROUPS)
    rows.append(ExperimentRow(CombinationSpec(tuple(current)), accuracy_for(current)))
    for kind in ranked:
        current.append(kind)
        rows.append(ExperimentRow(CombinationSpec(tuple(current)), accuracy_for(current)))
    return ExperimentResult(rows=rows, single_group_accuracy=single)

"""Feature storage, zero-filled fusion, and linear SVM classification.

Per-image feature vectors exist per group (the two whole-image views plus
the five parts), read from a feature file by ``np.loadtxt``, whose number
grammar is the file format's.  Fusion concatenates the selected groups'
vectors in a fixed order, substituting exact-zero blocks for groups with no
stored vector, so missing parts never shift block offsets; a fused matrix
is an index into the store, and each row is gathered only when it is used.
Classification is a one-vs-rest linear SVM trained by seeded epoch-wise
subgradient descent on the L2-regularized hinge loss.
"""

from __future__ import annotations

import math
import random
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Container, Iterable, Iterator, Mapping, Optional, Sequence

from .errors import ConfigError, InputError, MalformedLine, MissingFile, ToolkitError
from .parsing import _first_non_utf8_line, _records
from .parts import GROUP_ORDER, PartKind, kind_from_name

if TYPE_CHECKING:
    import numpy as np

BASELINE_GROUPS: tuple[PartKind, ...] = (PartKind.ORIGINAL, PartKind.CROPPED)


class FeatureStore:
    """Read-only feature vectors keyed by (image_id, group), one shared
    dimension, held as the rows of one read-only (held records + 1, dim) matrix.

    The last row is all zero: it is the block ``fuse`` gives an absent
    group, and ``len``, ``get`` and ``image_ids`` never show it.  With
    ``l2_normalize`` every stored vector is rescaled to unit length once,
    before the matrix is frozen.  ``load`` checks every record of its file
    but may hold only some: ``image_ids`` lists the image of a record not
    held, ``get`` raises for the record and ``fuse`` for the image.
    """

    def __init__(
        self,
        records: Mapping[tuple[int, PartKind], np.ndarray],
        dim: int,
        l2_normalize: bool = False,
    ):
        import numpy as np

        rows: dict[int, int] = {}
        index = array("i")
        for n, (image_id, group) in enumerate(records):
            at = _index_row(rows, index, image_id) * len(GROUP_ORDER) + GROUP_ORDER.index(group)
            index[at] = n
        matrix = np.array([*records.values(), np.zeros(dim)], dtype=np.float64)
        self._adopt(rows, index, matrix.reshape(len(records) + 1, dim), l2_normalize)

    def _adopt(
        self, rows: dict[int, int], index: array, matrix: np.ndarray, l2_normalize: bool
    ) -> None:
        import numpy as np

        if l2_normalize:
            for row in matrix:  # the zero row has norm 0 and stays zero
                # the 1-D norm of each row: a norm along an axis sums in another order
                norm = np.linalg.norm(row)
                if norm > 0:
                    row /= norm
        matrix.flags.writeable = False
        # image_id -> its row of the index; index[row, GROUP_ORDER position]
        # is the matrix row of that group, -1 if absent, _NOT_HELD if not held
        self._rows = rows
        self._index = np.frombuffer(index, dtype=np.intc).reshape(len(rows), len(GROUP_ORDER))
        self._index.flags.writeable = False
        self._matrix = matrix
        self.dim = int(matrix.shape[1])
        self._image_ids = frozenset(rows)

    def __len__(self) -> int:
        return int(self._matrix.shape[0]) - 1

    @property
    def image_ids(self) -> frozenset[int]:
        return self._image_ids

    def get(self, image_id: int, group: PartKind) -> Optional[np.ndarray]:
        row = self._rows.get(image_id)
        if row is None or group not in GROUP_ORDER:
            return None
        at = int(self._index[row, GROUP_ORDER.index(group)])
        if at == _NOT_HELD:
            raise InputError(f"the feature records of image {image_id} were not held")
        return None if at < 0 else self._matrix[at]

    @classmethod
    def load(
        cls, path, l2_normalize: bool = False, hold: Optional[Container[int]] = None
    ) -> "FeatureStore":
        """Parse a feature TSV: '<image_id>\\t<group>\\t<v1> <v2> ...'.

        Only the vectors of the images in ``hold`` are kept (all when it
        is None), but every record is checked.  The keys are checked line
        by line and the held value fields are streamed to one
        ``np.loadtxt`` call; the others go to ``loadtxt`` in batches of 64.
        The stream ends with a line of zeros, so ``loadtxt`` writes the
        store's zero row itself.  When any check fails, the file is read
        once more, holding nothing and checking each value field by
        itself, to raise the located error of its first bad line.
        """
        import numpy as np

        path = Path(path)
        if not path.is_file():
            raise MissingFile(path)
        rows: dict[int, int] = {}
        index = array("i")
        try:
            with open(path, "r", encoding="utf-8") as fh:
                fields = _value_fields(path, fh, rows, index, hold)
                matrix = np.loadtxt(fields, dtype=np.float64, ndmin=2, comments=None)
        except (ToolkitError, ValueError):  # UnicodeDecodeError is a ValueError
            matrix = None
        held = len(index) - index.count(-1) - index.count(_NOT_HELD)
        if matrix is None or matrix.shape[0] != held + 1 or not np.isfinite(matrix).all():
            _raise_first_error(path)
        store = cls.__new__(cls)
        store._adopt(rows, index, matrix, l2_normalize)
        return store


# index entries: a group absent, and a record checked but not held
_ABSENT = array("i", [-1] * len(GROUP_ORDER))
_NOT_HELD = -2


def _index_row(rows: dict[int, int], index: array, image_id: int) -> int:
    """The index row of ``image_id``, appended (every group absent) if new."""
    row = rows.get(image_id)
    if row is None:
        row = rows[image_id] = len(rows)
        index.extend(_ABSENT)
    return row


def _record_key(path: Path, line_no: int, fields: list[str]) -> tuple[int, PartKind]:
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
    return image_id, group


def _value_fields(
    path: Path,
    lines: Iterable[str],
    rows: dict[int, int],
    index: array,
    hold: Optional[Container],
    batch: int = 64,
) -> Iterator[str]:
    """Yield the value field of each held record, recording its matrix row
    in ``index`` (``_NOT_HELD`` for the others), then one line of zeros as
    long as the first record's field.

    Raises the located error of a line whose key is bad or repeated or
    whose value field is empty (``loadtxt`` skips it, and warns when no
    data is left), and an error for a file with no records or a batch of
    ``batch`` records not held that ``loadtxt`` does not read as finite
    vectors of the first record's length; with batches of one, that error
    is located too.  A held record whose length ``loadtxt`` counts
    otherwise than ``str.split`` differs from the zero line, so ``loadtxt``
    raises for it.
    """
    held = 0
    zeros = None
    unheld: list[str] = []  # value fields not held, checked in batches
    for line_no, raw in enumerate(lines, start=1):
        if raw.isspace():
            continue
        fields = raw.split("\t")
        image_id, group = _record_key(path, line_no, fields)
        if not fields[2] or fields[2].isspace():
            raise MalformedLine(path, line_no, "empty feature vector")
        at = _index_row(rows, index, image_id) * len(GROUP_ORDER) + GROUP_ORDER.index(group)
        if index[at] != -1:
            raise MalformedLine(path, line_no, f"repeated record for {image_id}/{group}")
        if zeros is None:
            zeros = ["0"] * len(fields[2].split())
        if hold is None or image_id in hold:
            index[at] = held
            held += 1
            yield fields[2]
        else:
            index[at] = _NOT_HELD
            unheld.append(fields[2])
            if len(unheld) == batch:
                _check_vectors(path, line_no, unheld, len(zeros))
    if zeros is None:
        raise MalformedLine(path, None, "feature store is empty")
    if unheld:
        _check_vectors(path, line_no, unheld, len(zeros))
    yield " ".join(zeros)


def _check_vectors(path: Path, line_no: int, fields: list[str], dim: int) -> None:
    """Raise unless ``loadtxt`` reads ``dim`` finite numbers from each value
    field, then empty ``fields``.  The error names ``line_no``, so it is
    located only when ``fields`` holds one field, the one read at that
    line."""
    import numpy as np

    try:
        values = np.loadtxt(fields, dtype=np.float64, ndmin=2, comments=None)
    except ValueError:
        raise MalformedLine(path, line_no, "non-numeric feature component") from None
    if not np.isfinite(values).all():
        raise MalformedLine(path, line_no, "non-finite feature component")
    if values.shape != (len(fields), dim):
        raise MalformedLine(path, line_no, f"vector length {values.shape[1]}, store dimension {dim}")
    fields.clear()


def _raise_first_error(path: Path) -> None:
    """Read a feature file that failed a check again, holding nothing and
    checking each value field as it is read, and raise the error of its
    first bad line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for _ in _value_fields(path, fh, {}, array("i"), hold=(), batch=1):
                pass
    except UnicodeDecodeError:
        raise MalformedLine(path, _first_non_utf8_line(path), "not valid UTF-8 text") from None
    raise MalformedLine(path, None, "the feature file changed while it was read")


def write_feature_records(
    records: Iterable[tuple[int, PartKind, np.ndarray]], path
) -> None:
    """Write feature TSV rows with 6-decimal fixed component rendering."""
    formats: dict[int, str] = {}  # vector length -> the values' % format
    with open(path, "w", encoding="utf-8") as fh:
        for image_id, group, vector in records:
            values = vector.tolist()
            fmt = formats.get(len(values))
            if fmt is None:
                fmt = formats[len(values)] = " ".join(["%.6f"] * len(values))
            fh.write(f"{image_id}\t{group.value}\t{fmt % tuple(values)}\n")


@dataclass(frozen=True, eq=False)
class FusedMatrix:
    """The fused vectors of a set of images, one row per image, held as an
    index into a feature store's matrix rather than as a copy.

    Row r holds image ``image_ids[r]``; its block i covers columns
    [i*D, (i+1)*D) for the i-th group of ``groups`` and is the store row
    ``blocks[r, i]``, or exact zero where that is -1 (the group is absent):
    ``source``'s last row is all zero, and ``mode="wrap"`` maps -1 to it.
    Ids are strictly ascending, so anything computed row by row is a
    function of the id set, not of an input order.
    """

    image_ids: tuple[int, ...]
    groups: tuple[PartKind, ...]
    source: np.ndarray  # (store records + 1, D), the last row all zero
    blocks: np.ndarray  # (images, len(groups)) store rows, -1 for an absent group

    def __post_init__(self):
        ids = self.image_ids
        if any(a >= b for a, b in zip(ids, ids[1:])):
            raise InputError("fused image ids must be strictly ascending")
        if len(self.blocks) != len(ids):
            raise InputError(f"{len(self.blocks)} fused rows for {len(ids)} image ids")

    def __len__(self) -> int:
        return len(self.image_ids)

    @property
    def dim(self) -> int:
        return len(self.groups) * int(self.source.shape[1])

    @property
    def present(self) -> np.ndarray:
        """(images, len(groups)) bool: which blocks come from a stored vector."""
        return self.blocks >= 0

    @property
    def vectors(self) -> np.ndarray:
        """A new (images, dim) array of every fused row, for inspection;
        training and scoring gather one row at a time instead."""
        return self.source.take(self.blocks, axis=0, mode="wrap").reshape(len(self), self.dim)

    def gathered(self, rows: Iterable[int]) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(r, vector)`` for each row index r of ``rows``, the fused
        vector gathered into one buffer that the next step overwrites."""
        import numpy as np

        buffer = np.empty((len(self.groups), self.source.shape[1]), dtype=np.float64)
        vector = buffer.reshape(-1)  # the same memory, as one contiguous row
        source, blocks = self.source, self.blocks
        for r in rows:
            # "wrap" maps -1 to the zero row and, unlike "raise", does not
            # buffer ``out``
            source.take(blocks[r], axis=0, out=buffer, mode="wrap")
            yield r, vector


def normalize_groups(groups: Sequence[PartKind]) -> tuple[PartKind, ...]:
    """Validate a group selection and put it in ``GROUP_ORDER``."""
    if not groups:
        raise ConfigError("group selection is empty")
    if len(set(groups)) != len(groups):
        raise ConfigError("group selection contains duplicates")
    for g in groups:
        if g not in GROUP_ORDER:
            raise ConfigError(f"unknown group {g}")
    return tuple([g for g in GROUP_ORDER if g in groups])


def fuse(store: FeatureStore, image_ids: Iterable[int], groups: Sequence[PartKind]) -> FusedMatrix:
    """Index each image's group vectors in the store, zero-filling absent groups.

    Rows follow ascending image id.  Block i of a row covers offsets
    [i*D, (i+1)*D) for the i-th selected group in ``GROUP_ORDER``.  No
    vector is copied: the result holds one store row index per block.
    Raises InputError when the store has no record of an image or did not
    hold its records.
    """
    import numpy as np

    selected = normalize_groups(groups)
    ids = sorted(image_ids)
    rows = [store._rows.get(image_id, -1) for image_id in ids]
    if -1 in rows:
        raise InputError(f"image {ids[rows.index(-1)]} has no feature records")
    index = store._index[np.array(rows, dtype=np.intp)]
    not_held = (index == _NOT_HELD).any(axis=1).nonzero()[0]
    if len(not_held):
        raise InputError(f"the feature records of image {ids[not_held[0]]} were not held")
    slots = [GROUP_ORDER.index(group) for group in selected]
    return FusedMatrix(
        image_ids=tuple(ids),
        groups=selected,
        source=store._matrix,
        blocks=index[:, slots].astype(np.intp),
    )


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


def _check_svm_settings(c: float, epochs: int) -> None:
    """The range rule of ``train_svm``'s C and epochs; the config checks
    ``svm_c`` and ``svm_epochs`` by it at load time."""
    if not math.isfinite(c):
        raise ConfigError(f"svm regularization parameter must be finite, got {c}")
    if c <= 0:
        raise ConfigError("svm regularization parameter must be > 0")
    if epochs < 1:
        raise ConfigError("epochs must be >= 1")


def train_svm(
    samples: FusedMatrix,
    labels: Mapping[int, int],
    c: float = 1.0,
    epochs: int = 50,
    seed: int = 0,
) -> SvmModel:
    """One-vs-rest linear SVM via seeded epoch-wise subgradient descent.

    The rows are in ascending image id order (``FusedMatrix`` enforces
    it), so the result is a pure function of (data, hyperparameters, seed).
    Every per-class problem shares the samples, the seeded epoch orders and
    the step schedule, so all classes train in one pass over a
    (classes, dim) weight matrix; each class's rows get exactly the
    arithmetic a separate per-class Pegasos run would give them.  Each
    visited sample is gathered from the store into one reused buffer.
    """
    import numpy as np

    _check_svm_settings(c, epochs)
    if not len(samples):
        raise InputError("no training samples")
    _check_labels(samples, labels)
    y_ids = [labels[image_id] for image_id in samples.image_ids]
    classes = tuple(sorted(set(int(v) for v in y_ids)))
    if len(classes) < 2:
        raise InputError(f"training set has {len(classes)} class(es); need at least 2")

    n, dim = len(samples), samples.dim
    if not math.isfinite(c * n):
        raise ConfigError(f"svm regularization parameter {c} times {n} training samples overflows")
    class_index = {class_id: k for k, class_id in enumerate(classes)}
    positive = [class_index[int(v)] for v in y_ids]
    reg = 1.0 / (c * n)
    weights = np.zeros((len(classes), dim), dtype=np.float64)
    biases = np.zeros(len(classes), dtype=np.float64)
    scores = np.empty(len(classes), dtype=np.float64)  # reused every step
    rng = random.Random(seed)
    t = 1
    for _ in range(epochs):
        order = list(range(n))
        rng.shuffle(order)
        for i, xi in samples.gathered(order):
            step = 1.0 / (reg * t)
            k_pos = positive[i]
            np.dot(weights, xi, out=scores)
            scores += biases
            # class k violates the margin when y_k * score_k < 1; with
            # y = -1 on every class but the positive one, that is
            # score > -1 once the positive score is negated (exactly)
            scores[k_pos] = -scores[k_pos]
            violated = (scores > -1.0).nonzero()[0].tolist()
            weights *= 1.0 - step * reg
            # usually one class violates, so a row update beats a
            # gather and scatter over the violated rows
            for k in violated:
                step_y = step if k == k_pos else -step
                weights[k] += step_y * xi
                biases[k] += step_y
            t += 1
    return SvmModel(classes=classes, weights=weights, biases=biases, c=c, epochs=epochs, seed=seed)


def decision_scores(model: SvmModel, vector: np.ndarray) -> np.ndarray:
    if vector.size != model.dim:
        raise InputError(f"vector length {vector.size}, model dimension {model.dim}")
    return model.weights @ vector + model.biases


def predict(model: SvmModel, vector: np.ndarray) -> int:
    """Argmax over per-class scores; exact ties go to the smallest class id."""
    import numpy as np

    scores = decision_scores(model, vector)
    return model.classes[int(np.argmax(scores))]


def evaluate_accuracy(
    model: SvmModel, samples: FusedMatrix, labels: Mapping[int, int]
) -> float:
    """Share of rows whose prediction matches the label, one ``predict`` per
    row, each row gathered from the store into one reused buffer."""
    if not len(samples):
        raise InputError("no test samples")
    _check_labels(samples, labels)
    ids = samples.image_ids
    correct = sum(
        1
        for r, vector in samples.gathered(range(len(samples)))
        if predict(model, vector) == labels[ids[r]]
    )
    return correct / len(samples)


def _check_labels(samples: FusedMatrix, labels: Mapping[int, int]) -> None:
    missing = [image_id for image_id in samples.image_ids if image_id not in labels]
    if missing:
        raise InputError(f"no class label for images {missing[:5]}")


# --- model file ---------------------------------------------------------------


def save_model(model: SvmModel, path) -> None:
    """Text format: 'svm v1 <classes> <dim> <C> <epochs> <seed>' header, then
    one '<class_id> <bias> <w...>' line per class at 9 significant digits."""
    values = " ".join(["%.9g"] * (model.dim + 1))  # a class line's bias and weights
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"svm v1 {len(model.classes)} {model.dim} {model.c:.9g} {model.epochs} {model.seed}\n"
        )
        for class_id, bias, weights in zip(model.classes, model.biases.tolist(), model.weights):
            fh.write(f"{class_id} {values % (bias, *weights.tolist())}\n")


def load_model(path) -> SvmModel:
    """Read a model written by ``save_model``.  Every value must be one the
    trainer can produce: C > 0 and finite, epochs >= 1, finite biases and
    weights, and class ids >= 1 in strictly increasing order (the order
    ``predict``'s smallest-id tie rule relies on)."""
    import numpy as np

    path = Path(path)
    records = list(_records(path))
    if not records:
        raise MalformedLine(path, None, "empty model file")
    (header_no, header), *rows = records
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
    if len(rows) != num_classes:
        raise MalformedLine(path, header_no, f"expected {num_classes} class lines, found {len(rows)}")
    # every field count before the arrays: the header alone may claim any size
    for line_no, fields in rows:
        if len(fields) != dim + 2:
            raise MalformedLine(path, line_no, f"expected {dim + 2} fields, found {len(fields)}")
    classes: list[int] = []
    weights = np.zeros((num_classes, dim), dtype=np.float64)
    biases = np.zeros(num_classes, dtype=np.float64)
    for row, (line_no, fields) in enumerate(rows):
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

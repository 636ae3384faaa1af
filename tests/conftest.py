"""Shared builders for on-disk annotation trees and region sets, and the
per-token reference reader of feature files, used across test modules."""

from __future__ import annotations

from pathlib import Path
from typing import Container, Mapping, Optional, Sequence

import numpy as np

from partkit.errors import InputError, MalformedLine, MissingFile
from partkit.features import _record_key
from partkit.geometry import Box
from partkit.parsing import _first_non_utf8_line
from partkit.parts import CUB_PART_NAMES, GROUP_ORDER, REGION_KINDS, PartKind
from partkit.regions import PackedRegionSets


def packed_regions(regions: Mapping[int, Mapping[PartKind, Box]]) -> PackedRegionSets:
    """Region sets holding each image's boxes, whatever the order of
    ``regions``."""
    ids = sorted(regions)
    return PackedRegionSets.from_rows(ids, (regions[i] for i in ids))


def boxes_of(sets: PackedRegionSets, image_id: int) -> dict[PartKind, Box]:
    """One image's regions as boxes, in ``REGION_KINDS`` order."""
    return {REGION_KINDS[k]: Box(x1, y1, x2, y2) for k, x1, y1, x2, y2 in sets.corners(image_id)}


def keypoint_position(part_id: int) -> tuple[float, float]:
    """Distinct, non-collinear spot per part id, inside a 200x200 image."""
    return (10.0 + 5.0 * part_id, 10.0 + 7.0 * part_id)


def default_part_rows(image_ids: Sequence[int]) -> list[str]:
    rows = []
    for image_id in image_ids:
        for part_id in range(1, len(CUB_PART_NAMES) + 1):
            x, y = keypoint_position(part_id)
            rows.append(f"{image_id} {part_id} {x} {y} 1")
    return rows


def build_tree(
    root: Path,
    images: Sequence[tuple[int, str, int, int, int]],
    part_rows: Optional[Sequence[str]] = None,
    part_names: Sequence[str] = CUB_PART_NAMES,
) -> Path:
    """Write a complete annotation tree.

    ``images`` rows are (image_id, relative_path, class_id, width, height);
    ``part_rows`` are raw part_locs.txt lines (defaults to every part
    visible at its canonical toy position).
    """
    root = Path(root)
    (root / "parts").mkdir(parents=True, exist_ok=True)
    lines = lambda rows: "".join(f"{row}\n" for row in rows)

    (root / "images.txt").write_text(
        lines(f"{i} {path}" for i, path, _, _, _ in images), encoding="utf-8"
    )
    (root / "image_sizes.txt").write_text(
        lines(f"{i} {w} {h}" for i, _, _, w, h in images), encoding="utf-8"
    )
    (root / "image_class_labels.txt").write_text(
        lines(f"{i} {c}" for i, _, c, _, _ in images), encoding="utf-8"
    )
    class_ids = sorted({c for _, _, c, _, _ in images})
    (root / "classes.txt").write_text(
        lines(f"{c} {c:03d}.Class_{c:03d}" for c in class_ids), encoding="utf-8"
    )
    (root / "parts" / "parts.txt").write_text(
        lines(f"{i} {name}" for i, name in enumerate(part_names, start=1)), encoding="utf-8"
    )
    if part_rows is None:
        part_rows = default_part_rows([i for i, _, _, _, _ in images])
    (root / "parts" / "part_locs.txt").write_text(lines(part_rows), encoding="utf-8")
    return root


def toy_images(n: int = 3, size: int = 200) -> list[tuple[int, str, int, int, int]]:
    return [(i, f"{1:03d}.Class_001/img_{i:04d}.jpg", 1, size, size) for i in range(1, n + 1)]


def load_features_reference(
    path, hold: Optional[Container[int]] = None, l2_normalize: bool = False
) -> tuple[int, int, dict]:
    """What ``FeatureStore.load`` makes of a feature file, read a line and a
    token at a time: ``(held records, dim, records)``, where ``records``
    maps each record's ``(image_id, group)`` to its vector's bytes, or to
    "not held" for an image outside ``hold``.  Or the error of the first
    bad line, checked in ``load``'s order.

    A component is read by ``float()``, less the syntax numpy's ``loadtxt``
    does not read: ``_`` separators and non-ASCII characters.
    """
    path = Path(path)
    if not path.is_file():
        raise MissingFile(path)
    dim: Optional[int] = None
    records: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, raw in enumerate(fh, start=1):
                if not raw.strip():
                    continue
                fields = raw.rstrip("\n").split("\t")
                key = _record_key(path, line_no, fields)
                tokens = fields[2].split()
                if not tokens:
                    raise MalformedLine(path, line_no, "empty feature vector")
                if key in records:
                    raise MalformedLine(path, line_no, f"repeated record for {key[0]}/{key[1]}")
                if dim is None:
                    dim = len(tokens)
                try:
                    if any("_" in token or not token.isascii() for token in tokens):
                        raise ValueError("a component loadtxt does not read")
                    vector = np.array([float(token) for token in tokens], dtype=np.float64)
                except ValueError:
                    raise MalformedLine(path, line_no, "non-numeric feature component") from None
                if not np.isfinite(vector).all():
                    raise MalformedLine(path, line_no, "non-finite feature component")
                if len(vector) != dim:
                    message = f"vector length {len(vector)}, store dimension {dim}"
                    raise MalformedLine(path, line_no, message)
                if l2_normalize and np.linalg.norm(vector) > 0:
                    vector = vector / np.linalg.norm(vector)
                records[key] = vector.tobytes() if hold is None or key[0] in hold else "not held"
    except UnicodeDecodeError:
        raise MalformedLine(path, _first_non_utf8_line(path), "not valid UTF-8 text") from None
    if dim is None:
        raise MalformedLine(path, None, "feature store is empty")
    return sum(1 for row in records.values() if row != "not held"), dim, records


def store_records(store) -> tuple[int, int, dict]:
    """A feature store in the form ``load_features_reference`` returns."""
    records = {}
    for image_id in store.image_ids:
        for group in GROUP_ORDER:
            try:
                row = store.get(image_id, group)
            except InputError:  # the record was not held
                records[(image_id, group)] = "not held"
                continue
            if row is not None:
                records[(image_id, group)] = row.tobytes()
    return len(store), store.dim, records

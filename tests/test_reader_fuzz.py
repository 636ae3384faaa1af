"""Every reader ends a damaged file in a result or a ``ToolkitError``.

Bytes inserted into, written over or cut from a valid file must never let
a ``KeyError``, ``IndexError``, bare ``ValueError`` or
``UnicodeDecodeError`` escape: the CLI turns a ``ToolkitError`` into one
``error:`` line and an exit code, anything else into a traceback.  The
files of an annotation tree are damaged one at a time and read through
``partkit validate``.  A damaged feature file must load as the per-token
reference reader reads it, or raise its error.
"""

from __future__ import annotations

import io
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import build_tree, load_features_reference, store_records, toy_images
from partkit.cli import main
from partkit.config import load_config
from partkit.dataset_io import parse_detections, read_labels, read_split
from partkit.errors import InvertedBox, MalformedLine, ToolkitError
from partkit.features import FeatureStore, load_model
from partkit.regions import read_region_sets, read_yolo_labels

# reader -> a valid file it reads
READERS = {
    "parse_detections": (lambda path: list(parse_detections(path)), "1 head 0.9 0 0 10 10\n2 wing 0.35 5.5 1 20 8\n"),
    "read_region_sets": (read_region_sets, "1 head 0.00 0.00 10.00 10.00\n1 leg 2.50 1.00 4.00 8.00\n"),
    "read_split": (read_split, "1 0\n2 1\n3 2\n"),
    "read_labels": (read_labels, "1 1\n2 3\n"),
    "read_yolo_labels": (
        lambda path: read_yolo_labels(path, 200, 100),
        "0 0.500000 0.500000 0.200000 0.100000\n3 0.25 0.75 0.1 0.3\n",
    ),
    "load_model": (load_model, "svm v1 2 3 1 5 0\n1 -0.5 0.1 0.2 0.3\n2 0.25 1e-3 -2 0\n"),
    "load_config": (load_config, "seed = 3\nscore_min = 0.4  # strict\nsynth_signal_groups = head,wing\n"),
}

# a valid feature file; long value fields, so that most damage lands in one
FEATURES = (
    "1\toriginal\t0.5 -1 2e-3 4.75 -0.0 6 1e-7 88\n"
    "1\thead\t0 0 0 0 0 0 0 0\n"
    "2\twing\t1.25 3 -0.0 .5 7. +2 3E2 -9\n"
    "3\ttail\t7 8 9 10 11 12 13 14\n"
)

# the files of an annotation tree, each damaged alone
DATASET_FILES = [
    "images.txt",
    "image_sizes.txt",
    "classes.txt",
    "image_class_labels.txt",
    "parts/parts.txt",
    "parts/part_locs.txt",
]

# pieces a damaged file tends to hold: separators, signs, bytes that are not
# UTF-8, numbers that overflow or are not finite, names of the wrong kind
PIECES = [
    b"\x00", b"\xff", b"\xc3", b" ", b"\t", b"\n", b"\r", b"\x0b", b"#", b"=", b"-", b"0", b"9",
    b".", b"e", b"nan", b"inf", b"1e400", b"-1", b"99999999999999999999", b"head", b"original",
    b"svm", b"\xe2\x80\xa8",
]

# pieces that keep a feature file loadable more often: whitespace of every
# kind, digits, signs, exponents, and float syntax ``loadtxt`` does not read
FEATURE_PIECES = [
    b" ", b"\t", b"\n", b"\r", b"\x0c", b"\x0b", b"\xc2\xa0", b"\xe2\x80\xa8", b"0", b"7", b"-", b"+",
    b".", b"e", b"E", b"_", b"1e5", b"inf", b"nan", b"#",
]

# the header of a model that claims more weights than numpy can allocate
HUGE_MODEL = b"svm v1 2 399999999999999999999 1 5 0\n1 0 0\n2 0 0\n"


@st.composite
def edits(draw, pieces=PIECES) -> list[tuple[str, int, bytes, int]]:
    return draw(
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "overwrite", "cut"]),
                st.integers(0, 200),
                st.sampled_from(pieces) | st.binary(min_size=1, max_size=3),
                st.integers(1, 12),
            ),
            min_size=1,
            max_size=4,
        )
    )


def damaged(text: str, changes) -> bytes:
    data = bytearray(text.encode("utf-8"))
    for op, at, piece, length in changes:
        at %= len(data) + 1
        if op == "insert":
            data[at:at] = piece
        elif op == "overwrite":
            data[at : at + len(piece)] = piece
        else:
            del data[at : at + length]
    return bytes(data)


def read(name: str, raw: bytes) -> None:
    reader, _ = READERS[name]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.txt"
        path.write_bytes(raw)
        try:
            reader(path)
        except ToolkitError:
            pass


@pytest.mark.parametrize("name", sorted(READERS))
def test_the_valid_files_read(name):
    reader, text = READERS[name]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.txt"
        path.write_text(text, encoding="utf-8")
        reader(path)


@pytest.mark.parametrize("name", sorted(READERS))
@settings(max_examples=150, deadline=None)
@given(changes=edits())
@example(changes=[("cut", 0, b"", 1000), ("insert", 0, HUGE_MODEL, 1)])  # HUGE_MODEL alone
def test_damaged_bytes_give_a_result_or_a_toolkit_error(name, changes):
    read(name, damaged(READERS[name][1], changes))


@pytest.mark.parametrize("name", DATASET_FILES)
@settings(max_examples=150, deadline=None)
@given(changes=edits())
def test_a_damaged_dataset_file_exits_with_at_most_one_error_line(name, changes):
    with tempfile.TemporaryDirectory() as tmp:
        root = build_tree(Path(tmp), toy_images(3))
        path = root / name
        path.write_bytes(damaged(path.read_text(encoding="utf-8"), changes))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["validate", str(root)])
    assert code in (0, 1)
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
        assert out.getvalue() == ""


def _at(piece: str) -> int:
    return FEATURES.index(piece)


@settings(max_examples=300, deadline=None)
@given(changes=edits(FEATURE_PIECES), l2_normalize=st.booleans())
# damage both readers accept: a blank line, a CR line end, no final newline,
# and separators other than a space; and digits ``float()`` alone reads
@example(changes=[("insert", 0, b" \n", 1)], l2_normalize=True)
@example(changes=[("insert", _at("\n1\thead"), b"\r", 1)], l2_normalize=False)
@example(changes=[("cut", len(FEATURES) - 1, b"", 1)], l2_normalize=True)
@example(changes=[("overwrite", _at(" 88"), b"\x0c", 1)], l2_normalize=False)
@example(changes=[("overwrite", _at(" 88"), b"\xc2\xa0", 1)], l2_normalize=True)
@example(changes=[("insert", _at("88") + 1, b"_", 1)], l2_normalize=False)
@example(changes=[("overwrite", _at("88"), "\u0663".encode(), 1)], l2_normalize=False)
def test_a_damaged_feature_file_loads_as_the_per_line_reader_reads_it(changes, l2_normalize):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "features.tsv"
        path.write_bytes(damaged(FEATURES, changes))
        try:
            got = store_records(FeatureStore.load(path, l2_normalize=l2_normalize))
        except ToolkitError as exc:
            got = type(exc), str(exc)
        try:
            want = load_features_reference(path, l2_normalize=l2_normalize)
        except ToolkitError as exc:
            want = type(exc), str(exc)
    # the same length, dimension and rows, or the same error
    assert got == want


def test_a_model_header_too_large_to_allocate_is_a_malformed_line(tmp_path):
    path = tmp_path / "model.svm"
    path.write_bytes(HUGE_MODEL)
    with pytest.raises(MalformedLine, match=r"model\.svm:2: expected 400000000000000000001 fields"):
        load_model(path)


@pytest.mark.parametrize(
    "name, text",
    [
        ("parse_detections", "1 head 0.9 0 0 10 10\n1 wing 0.5 4 0 4 10\n"),
        ("read_region_sets", "1 head 0 0 10 10\n1 wing 4 0 4 10\n"),
        ("read_yolo_labels", "0 0.5 0.5 0.2 0.1\n3 0.5 0.5 0 0.1\n"),
    ],
)
def test_a_box_without_area_names_its_line(tmp_path, name, text):
    path = tmp_path / "input.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(InvertedBox, match=rf"^{re.escape(str(path))}:2: invalid box \("):
        READERS[name][0](path)

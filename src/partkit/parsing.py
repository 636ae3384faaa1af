"""Record reading and token parsing shared by every text-format reader.

``_parse_int``, ``_parse_float`` and ``_parse_region_kind`` parse one token
and raise the ``MalformedLine`` that names its file, line and field.
``_memo_float`` runs ``_parse_float`` once per distinct token and keeps the
value in a per-call dict, so records built from repeated tokens share one
float object; a rejected token is never stored, so it raises again, with the
field name of the lookup that met it.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterator

from .errors import MalformedLine, MissingFile
from .parts import REGION_KIND_OF_NAME, PartKind

#: The largest image id: region sets and detections hold ids as signed 64-bit
#: integers
MAX_IMAGE_ID = 2**63 - 1


def _records(path: Path, fmt: str | None = None, maxsplit: int = -1) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(line_no, fields)`` for each non-blank line of ``path``, split
    at whitespace into at most ``maxsplit + 1`` fields.  With ``fmt`` a line
    must hold one field per ``<name>`` in it, and ``fmt`` is the message of
    the ``MalformedLine`` raised for one that does not."""
    if not path.is_file():
        raise MissingFile(path)
    width = None if fmt is None else fmt.count("<")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, raw in enumerate(fh, start=1):
                # a bounded split keeps the trailing whitespace of its last field
                fields = raw.split() if maxsplit < 0 else raw.strip().split(None, maxsplit)
                if not fields:
                    continue
                if width is not None and len(fields) != width:
                    raise MalformedLine(path, line_no, f"expected '{fmt}'")
                yield line_no, fields
    except UnicodeDecodeError:
        raise MalformedLine(path, _first_non_utf8_line(path), "not valid UTF-8 text") from None


def _first_non_utf8_line(path: Path) -> int:
    # text-mode reads decode in chunks, so the failing read does not know
    # its line; find it in the raw bytes
    data = path.read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return data.count(b"\n", 0, exc.start) + 1
    return 1  # the file changed after the failed read


def _parse_int(
    path: Path, line_no: int, token: str, what: str, minimum: int | None = None, maximum: int | None = None
) -> int:
    try:
        value = int(token)
    except ValueError:
        raise MalformedLine(path, line_no, f"{what} is not an integer: {token!r}") from None
    if minimum is not None and value < minimum:
        raise MalformedLine(path, line_no, f"{what} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise MalformedLine(path, line_no, f"{what} must be <= {maximum}, got {value}")
    return value


def _parse_float(path: Path, line_no: int, token: str, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise MalformedLine(path, line_no, f"{what} is not a number: {token!r}") from None
    if not math.isfinite(value):
        raise MalformedLine(path, line_no, f"{what} is not finite: {token!r}")
    return value


def _parse_region_kind(path: Path, line_no: int, token: str) -> PartKind:
    kind = REGION_KIND_OF_NAME.get(token)
    if kind is None:
        names = sorted(REGION_KIND_OF_NAME)
        raise MalformedLine(path, line_no, f"part_name must be one of {names}, got {token!r}")
    return kind


def _memo_float(memo: dict, path: Path, line_no: int, token: str, what: str) -> float:
    value = memo.get(token)
    if value is None:
        value = memo[token] = _parse_float(path, line_no, token, what)
    return value

"""Exception types raised across the toolkit.

A caller tells apart only the two families: ``InputError`` for bad data
files or bad arguments derived from them (CLI exit code 1), and
``ConfigError`` for out-of-range or unknown configuration (CLI exit code
2).  An error found in an input file is a ``MalformedLine`` or one of its
kin, which carry that file as ``path`` and the line at fault as
``line_no`` (None for a fault of the whole file).
"""

from __future__ import annotations


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


class InputError(ToolkitError):
    """Invalid input data."""


class ConfigError(ToolkitError):
    """Invalid configuration value or key."""


# --- file parsing -----------------------------------------------------------


class MissingFile(InputError):
    def __init__(self, path):
        super().__init__(f"missing required file: {path}")


class _RecordError(InputError):
    """Bad record at ``path:line_no``, or of the whole file when ``line_no`` is None."""

    def __init__(self, path, line_no, message: str):
        where = path if line_no is None else f"{path}:{line_no}"
        super().__init__(f"{where}: {message}")
        self.path = path
        self.line_no = line_no


class MalformedLine(_RecordError):
    """A line, or with a ``line_no`` of None a file, that breaks a rule."""


class DanglingReference(_RecordError):
    def __init__(self, path, line_no, kind: str, ref_id):
        super().__init__(path, line_no, f"dangling {kind} reference: {ref_id}")


class DuplicateId(_RecordError):
    def __init__(self, path, line_no: int, kind: str, ref_id):
        super().__init__(path, line_no, f"duplicate {kind} id: {ref_id}")


class KeypointOutOfBounds(_RecordError):
    def __init__(self, path, line_no: int, image_id: int, part_id: int):
        message = f"visible keypoint (image {image_id}, part {part_id}) lies outside the image"
        super().__init__(path, line_no, message)

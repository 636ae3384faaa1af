"""Exception types raised across the toolkit.

Two broad families matter to callers: ``InputError`` for bad data files or
bad arguments derived from them (CLI exit code 1), and ``ConfigError`` for
out-of-range or unknown configuration (CLI exit code 2).
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
    """Bad record at ``path:line_no``; a ``line_no`` of None blames the file
    as a whole, for a record it lacks."""

    def __init__(self, path, line_no, message: str):
        where = path if line_no is None else f"{path}:{line_no}"
        super().__init__(f"{where}: {message}")
        self.path = path
        self.line_no = line_no


class MalformedLine(_RecordError):
    """A line that breaks its format or one of its fields' rules."""


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


class InvertedBox(InputError):
    """Box with non-positive width or height where a valid box is required."""


class ScoreOutOfRange(InputError):
    """Detection score outside [0, 1]."""


# --- splitting --------------------------------------------------------------


class BadRatios(ConfigError):
    """Split ratios not positive or not summing to one."""


# --- geometry ---------------------------------------------------------------


class DegeneratePointSet(ToolkitError):
    """Point set whose raw extent has zero width or height."""


class NonPositiveSide(ToolkitError):
    """Square side must be strictly positive."""


# --- region generation ------------------------------------------------------


class EmptyCandidates(ToolkitError):
    """Redundancy elimination called with no candidate boxes."""


# --- feature store / SVM ----------------------------------------------------


class DimensionMismatch(InputError):
    """Feature vector length differs from the store or model dimension."""


class DuplicateKey(InputError):
    """Repeated (image, group) key in a feature store."""


class UnknownImage(InputError):
    """Image id absent from the feature store."""


class SingleClass(InputError):
    """Training set contains fewer than two classes."""


class EmptyTrainingSet(InputError):
    pass


class EmptyTestSet(InputError):
    pass

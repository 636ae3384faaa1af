"""Plain-text key=value configuration.

One flat namespace, `#` comments, no nesting.  Every key has a default and
every value is range-checked at load time (a float must be finite); unknown
keys are rejected so typos surface immediately instead of silently running
with defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, get_type_hints

from .errors import BadRatios, ConfigError, MissingFile
from .parsing import _first_non_utf8_line
from .parts import GROUP_ORDER, PartKind, kind_from_name
from .regions import RegionConfig
from .synth import SynthConfig

_CANONICAL_GROUP_NAMES = tuple(g.value for g in GROUP_ORDER)


def _parse_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {raw!r}")
    return value


def _parse_optional_float(raw: str) -> Optional[float]:
    if raw.lower() == "none":
        return None
    return _parse_float(raw)


def parse_group_list(raw: str) -> tuple[PartKind, ...]:
    if not raw.strip():
        return ()
    groups = []
    for token in raw.split(","):
        name = token.strip()
        try:
            groups.append(kind_from_name(name))
        except KeyError:
            raise ValueError(f"unknown group name {name!r}") from None
    return tuple(groups)


@dataclass(frozen=True)
class ToolkitConfig:
    # region generation
    pad_w: float = 0.2
    pad_h: float = 0.2
    breast_pad_w: Optional[float] = None
    breast_pad_h: Optional[float] = None
    envelope_scale_tail: float = 1.0
    envelope_scale_wing: float = 1.0
    envelope_scale_leg: float = 0.6
    head_fallback_fraction: float = 0.1
    center_crop_fraction: float = 0.875
    tie_seed: int = 0
    # detection thresholds and localization scoring
    train_iou_min: float = 0.6
    score_min: float = 0.3
    pcp_iou_min: float = 0.5
    # classification
    svm_c: float = 1.0
    svm_epochs: int = 50
    l2_normalize: bool = False
    group_order: tuple[PartKind, ...] = GROUP_ORDER
    # randomness and splitting
    seed: int = 0
    train_frac: float = 0.5
    val_frac: float = 0.2
    test_frac: float = 0.3
    # synthetic corpus
    synth_classes: int = 4
    synth_images_per_class: int = 10
    synth_image_size: int = 200
    synth_jitter: float = 0.0
    synth_score_noise: float = 0.0
    synth_part_dropout: float = 0.0
    synth_feature_dim: int = 16
    synth_signal_groups: tuple[PartKind, ...] = GROUP_ORDER
    # default paths (positional CLI arguments take precedence)
    data_root: str = ""
    out_dir: str = ""

    def __post_init__(self):
        if not 0.0 <= self.train_iou_min <= 1.0:
            raise ConfigError("train_iou_min must be in [0, 1]")
        if not 0.0 <= self.score_min <= 1.0:
            raise ConfigError("score_min must be in [0, 1]")
        if not 0.0 < self.pcp_iou_min < 1.0:
            raise ConfigError("pcp_iou_min must be in (0, 1)")
        if sorted(g.value for g in self.group_order) != sorted(_CANONICAL_GROUP_NAMES):
            raise ConfigError(
                f"group_order must be a permutation of {', '.join(_CANONICAL_GROUP_NAMES)}"
            )
        ratios = (self.train_frac, self.val_frac, self.test_frac)
        if any(r <= 0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
            raise BadRatios(f"split fractions must be positive and sum to 1, got {ratios}")
        # delegate the remaining range checks to the owning configs
        self.region_config()
        self.synth_config()

    def region_config(self) -> RegionConfig:
        return RegionConfig(
            pad_w=self.pad_w,
            pad_h=self.pad_h,
            breast_pad_w=self.breast_pad_w,
            breast_pad_h=self.breast_pad_h,
            envelope_scales={
                PartKind.TAIL: self.envelope_scale_tail,
                PartKind.WING: self.envelope_scale_wing,
                PartKind.LEG: self.envelope_scale_leg,
            },
            head_fallback_fraction=self.head_fallback_fraction,
            center_crop_fraction=self.center_crop_fraction,
            tie_seed=self.tie_seed,
        )

    def synth_config(self) -> SynthConfig:
        return SynthConfig(
            num_classes=self.synth_classes,
            images_per_class=self.synth_images_per_class,
            image_size=self.synth_image_size,
            jitter_px=self.synth_jitter,
            score_noise=self.synth_score_noise,
            part_dropout=self.synth_part_dropout,
            feature_dim=self.synth_feature_dim,
            signal_groups=frozenset(self.synth_signal_groups),
            seed=self.seed,
        )

    def ratios(self) -> tuple[float, float, float]:
        return (self.train_frac, self.val_frac, self.test_frac)

    def with_seed(self, seed: int) -> "ToolkitConfig":
        return replace(self, seed=seed)


# each key's value is parsed by the parser of its field type
_PARSER_OF_TYPE = {
    float: _parse_float,
    Optional[float]: _parse_optional_float,
    int: int,
    bool: _parse_bool,
    tuple[PartKind, ...]: parse_group_list,
    str: str,
}
_PARSERS = {name: _PARSER_OF_TYPE[hint] for name, hint in get_type_hints(ToolkitConfig).items()}


def parse_config_text(text: str, source: str = "<config>") -> ToolkitConfig:
    """Parse `key = value` lines; `#` starts a comment, blank lines ignored."""
    values: dict[str, object] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{line_no}: expected 'key = value', got {raw.strip()!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if key not in _PARSERS:
            raise ConfigError(f"{source}:{line_no}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{source}:{line_no}: duplicate key {key!r}")
        try:
            values[key] = _PARSERS[key](raw_value)
        except ValueError as exc:
            raise ConfigError(f"{source}:{line_no}: bad value for {key}: {exc}") from None
    try:
        return ToolkitConfig(**values)
    except ConfigError as exc:
        raise type(exc)(f"{source}: {exc}") from None


def load_config(path=None) -> ToolkitConfig:
    """Defaults when ``path`` is None, otherwise the parsed file."""
    if path is None:
        return ToolkitConfig()
    path = Path(path)
    if not path.is_file():
        raise MissingFile(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise ConfigError(f"{path}:{_first_non_utf8_line(path)}: not valid UTF-8 text") from None
    return parse_config_text(text, source=str(path))

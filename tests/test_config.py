"""Config text parsing: one parser per field type, errors that name the file."""

from __future__ import annotations

import re
from dataclasses import fields

import pytest

from partkit.config import ToolkitConfig, load_config, parse_config_text
from partkit.errors import ConfigError
from partkit.regions import RegionConfig
from partkit.synth import SynthConfig


def render(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(kind.value for kind in value)
    return str(value)


def test_every_default_round_trips_through_its_field_type_parser():
    default = ToolkitConfig()
    text = "".join(f"{f.name} = {render(getattr(default, f.name))}\n" for f in fields(default))
    assert parse_config_text(text) == default


def test_defaults_restated_by_the_config_agree_with_the_components():
    assert ToolkitConfig().region_config() == RegionConfig()
    assert ToolkitConfig().synth_config() == SynthConfig()


def test_range_error_keeps_its_class_and_names_the_source():
    message = r"^bad\.cfg:1: bad value for train_frac: split fractions must be positive"
    with pytest.raises(ConfigError, match=message):
        parse_config_text("train_frac = 0.9\n", source="bad.cfg")


@pytest.mark.parametrize("separator", ["\x0b", "\x0c", "\x1c", "\x85", "\u2028"], ids=ascii)
def test_only_a_newline_ends_a_config_line(tmp_path, separator):
    # str.splitlines() also breaks at these, which numbered the key below as line 3
    path = tmp_path / "vt.cfg"
    path.write_text(f"seed = 1{separator}# note\nscore_min = 1.5\n", encoding="utf-8")
    message = rf"^{re.escape(str(path))}:2: bad value for score_min: score_min must be in \[0, 1\]"
    with pytest.raises(ConfigError, match=message):
        load_config(path)

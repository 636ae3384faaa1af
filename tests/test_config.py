"""Config text parsing: one parser per field type, errors that name the file."""

from __future__ import annotations

from dataclasses import fields

import pytest

from partkit.config import ToolkitConfig, parse_config_text
from partkit.errors import BadRatios


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


def test_range_error_keeps_its_class_and_names_the_source():
    with pytest.raises(BadRatios, match=r"^bad\.cfg:1: split fractions must be positive"):
        parse_config_text("train_frac = 0.9\n", source="bad.cfg")

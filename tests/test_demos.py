"""Every demo script and README code block runs to completion against the library as it is."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
DEMOS = sorted((REPO / "demos").glob("*.py"))


def run(argv, cwd):
    env = dict(os.environ, PYTHON=sys.executable)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


def readme_block(heading: str, fence: str) -> str:
    """The first ``fence`` code block after the README line ``heading``."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    after = text[text.index(f"\n{heading}\n") :]
    start = after.index(f"```{fence}\n") + len(fence) + 4
    return after[start : after.index("```\n", start)]


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    result = run([sys.executable, str(demo)], tmp_path)
    assert result.returncode == 0, result.stderr


def test_readme_library_quick_start(tmp_path):
    code = readme_block("## Quick start (library)", "python")
    result = run([sys.executable, "-c", code], tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("#iou_threshold=0.5\n")


def test_readme_end_to_end_block(tmp_path):
    # the console script is `partkit`; here it is the module entry point
    script = 'partkit() { "$PYTHON" -m partkit.cli "$@"; }\n' + readme_block(
        "End-to-end on synthetic data:", "sh"
    )
    result = run(["bash", "-ec", script], tmp_path)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "artifacts" / "model.svm").is_file()

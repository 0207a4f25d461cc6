"""Every script under ``demos/`` runs to completion in a fresh interpreter.

The demos call the library's public API directly, so an API change that
breaks one fails here rather than in front of a reader.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import child_pythonpath

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
DEMO_TIMEOUT_S = 120


def test_demos_present():
    assert DEMOS, "no demo scripts found"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    try:
        proc = subprocess.run(
            [sys.executable, str(demo)],
            cwd=tmp_path,
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": child_pythonpath()},
            timeout=DEMO_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        pytest.fail(f"{demo.name} did not finish within {DEMO_TIMEOUT_S} s; stderr: {exc.stderr}")
    assert proc.returncode == 0, f"{demo.name} exited {proc.returncode}:\n{proc.stderr}"

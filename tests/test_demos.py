"""Every demo script runs to completion against the current API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import specgap

SRC = Path(specgap.__file__).resolve().parent.parent
DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True, text=True, cwd=tmp_path, timeout=600,
        env={**os.environ, "PYTHONPATH": str(SRC), "MPLBACKEND": "Agg"},
    )
    assert proc.returncode == 0, proc.stderr

"""Smoke test: every demo script runs to completion on the public API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import photonmol

SRC = Path(photonmol.__file__).resolve().parents[1]
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[script.name for script in DEMOS])
def test_demo_runs(tmp_path, script):
    # A fresh interpreter in an empty directory, where the demos write.
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr

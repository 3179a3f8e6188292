"""Smoke runs of the demo scripts: each one exits cleanly."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ttagg

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("0*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_runs(demo, tmp_path):
    # a copy in tmp_path, so whatever the demo writes next to itself lands there
    script = shutil.copy(demo, tmp_path)
    # the child imports the same package as this process, however it was found
    src = os.path.dirname(os.path.dirname(ttagg.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, script],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        timeout=300,
    )
    assert result.returncode == 0, result.stderr

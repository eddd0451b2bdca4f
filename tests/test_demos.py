"""The demos run to completion and print what they printed when recorded."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDED = Path(__file__).resolve().parent / "demo_stdout"


@pytest.mark.parametrize("name", sorted(p.stem for p in (ROOT / "demos").glob("*.py")))
def test_demo_stdout_matches_recording(name):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (RECORDED / f"{name}.txt").read_text()

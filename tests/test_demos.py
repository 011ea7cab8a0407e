"""Every script under demos/ runs to completion against the package under test."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import lp_extremal

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
SRC = str(Path(lp_extremal.__file__).resolve().parents[1])


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_exits_0(script, tmp_path):
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])),
    }
    proc = subprocess.run(
        # a numpy overflow or underflow warning fails a demo, as it fails a test
        [sys.executable, "-W", "error::RuntimeWarning", str(script)], capture_output=True,
        text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]

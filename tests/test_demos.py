"""Every script under demos/ runs to completion in a fresh interpreter,
with warnings as errors."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_present():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_cleanly(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    # Run from an empty directory so a demo cannot rely on, or litter, the
    # working directory, and with warnings as errors, as the suite runs.
    out = subprocess.run([sys.executable, "-W", "error", str(demo)],
                         capture_output=True, text=True, env=env,
                         cwd=tmp_path, timeout=120)
    assert out.returncode == 0, out.stderr[-2000:]

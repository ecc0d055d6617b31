"""A fresh interpreter that imports tensormin, or runs its CLI's --help,
loads none of SciPy's heavier subpackages: set-up time stays small."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
HEAVY = ("scipy.optimize", "scipy.sparse", "scipy.integrate",
         "scipy.interpolate", "scipy.stats")

IMPORT = "import tensormin"
# What `python -m tensormin --help` runs, with sys.modules printed after it.
CLI_HELP = """
import runpy, sys
sys.argv = ["tensormin", "--help"]
try:
    runpy.run_module("tensormin", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code == 0, exc.code
"""


def loaded_modules(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    script = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, env=env, timeout=60, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("code", [IMPORT, CLI_HELP], ids=["import", "cli-help"])
def test_fresh_interpreter_skips_heavy_scipy_subpackages(code):
    modules = loaded_modules(code)
    assert "tensormin" in modules
    heavy = [m for m in modules if ".".join(m.split(".")[:2]) in HEAVY]
    assert heavy == []

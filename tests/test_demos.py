"""The demo scripts run to completion from a clean working directory.

Each demo is a subprocess in a fresh temporary cwd, with the package that
these tests import put on its PYTHONPATH.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ccroots

DEMOS = Path(__file__).resolve().parents[1] / "demos"
PACKAGE_ROOT = Path(ccroots.__file__).resolve().parents[1]


@pytest.mark.parametrize("script", ["truncation_homotopy_pairing.py",
                                    "all_roots_dimer.py",
                                    "quadratic_lift_bounds.py",
                                    "newton_fractal.py"])
def test_demo_exits_cleanly(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE_ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    r = subprocess.run([sys.executable, str(DEMOS / script)], cwd=tmp_path,
                       capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip()

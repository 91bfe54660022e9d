"""Every name a ccroots module imports is used in that module, and the
command line stays light to import.

Static check with the standard-library ``ast``: the package's re-exports
live in ``__init__.py``, which is excluded, so any other unused import is
dead weight.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ccroots"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _used_names(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        # quoted forward references such as -> "PolynomialSystem"
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= _used_names(ast.parse(ann.value, mode="eval"))
    return used


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    used = _used_names(tree)
    return sorted(name for name in set(_imported_names(tree)) if name not in used)


def test_modules_found():
    assert len(MODULES) >= 8


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_unused_and_accepts_used():
    source = ("from __future__ import annotations\n"
              "import numpy as np\nimport scipy.sparse as sp\n"
              "from dataclasses import dataclass, field\n"
              "from typing import Any\n"
              "def f(x) -> 'Any':\n    return np.abs(x)\n")
    assert unused_imports(source) == ["dataclass", "field", "sp"]


def _python(code, *args, cwd=None):
    """Run code in a fresh interpreter on this checkout; returns stdout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent)] + ([os.environ["PYTHONPATH"]]
                                 if os.environ.get("PYTHONPATH") else [])))
    r = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                       capture_output=True, text=True, env=env, cwd=cwd)
    assert r.returncode == 0, r.stderr
    return r.stdout


def test_cli_import_skips_dense_and_sparse_linalg():
    # scipy.linalg and scipy.sparse.linalg would add about 80 ms and 6 MB to
    # every command, and scipy.sparse about 0.2 s and 20 MB; numpy.linalg
    # serves the tracker and basin scans, and only a sparse product loads
    # scipy.sparse
    out = _python("import sys\n"
                  "import ccroots\n"
                  "print(' '.join(sorted(sys.modules)))\n"
                  "import ccroots.cli\n"
                  "print(' '.join(sorted(sys.modules)))\n")
    package, cli = (set(line.split()) for line in out.splitlines())
    assert "ccroots" in package and "ccroots.cli" in cli
    for loaded in (package, cli):
        assert not loaded & {"scipy.linalg", "scipy.sparse", "scipy.sparse.linalg"}


# model -> system (plain and quadratized) -> solve -> verify -> fractal on the
# Hubbard dimer, in one process; then kp, which runs sparse products
_CHAIN = """
import sys
from ccroots.cli import main

runs = [
    ["model", "--hubbard", "2,1,4", "--nelec", "1,1", "-o", "m.json"],
    ["system", "--model", "m.json", "--rank", "full", "-o", "s.json"],
    ["system", "--model", "m.json", "--rank", "2", "--quadratize", "-o", "q.json"],
    ["solve", "--system", "s.json", "--seed", "3", "--workers", "1", "-o", "sol.json"],
    ["verify", "--model", "m.json", "--solutions", "sol.json", "-o", "v.json"],
    ["fractal", "--poly", "z^3-1", "--res", "16", "-o", "p.ppm"],
    ["fractal", "--system", "s.json", "--slice", "1,1,1", "--res", "16", "-o", "s.ppm"],
]
for argv in runs:
    assert main(argv) == 0, argv
print("sparse loaded:", "scipy.sparse" in sys.modules)
assert main(["kp", "--model", "m.json", "--rho", "2", "--workers", "1", "-o", "kp"]) == 0
print("sparse loaded:", "scipy.sparse" in sys.modules)
"""


def test_only_kp_loads_scipy_sparse(tmp_path):
    out = _python(_CHAIN, cwd=tmp_path)
    flags = [line for line in out.splitlines() if line.startswith("sparse loaded:")]
    assert flags == ["sparse loaded: False", "sparse loaded: True"]

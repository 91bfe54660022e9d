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


def test_cli_import_skips_dense_and_sparse_linalg():
    # scipy.linalg and scipy.sparse.linalg would add about 80 ms and 6 MB to
    # every command; numpy.linalg serves the tracker and basin scans
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent)] + ([os.environ["PYTHONPATH"]]
                                 if os.environ.get("PYTHONPATH") else [])))
    r = subprocess.run(
        [sys.executable, "-c", "import sys, ccroots.cli; print(' '.join(sorted(sys.modules)))"],
        capture_output=True, text=True, env=env, check=True)
    loaded = set(r.stdout.split())
    assert "ccroots.cli" in loaded
    assert not loaded & {"scipy.linalg", "scipy.sparse.linalg"}

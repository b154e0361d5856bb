"""Source hygiene: each package module uses every name it imports.

A deletion that leaves an import behind fails here. ``__init__.py`` is
skipped, since its imports are the package's public names.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gcilab"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _names_in_annotation(node) -> set[str]:
    """Names in an annotation; a quoted forward reference is parsed too."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        node = ast.parse(node.value, mode="eval")
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} if node else set()


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read, in order of first import."""
    tree = ast.parse(source)
    imported: list[str] = []
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            used |= _names_in_annotation(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            used |= _names_in_annotation(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _names_in_annotation(node.annotation)
    return [name for name in dict.fromkeys(imported) if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def test_checker_flags_leftovers():
    source = (
        "from __future__ import annotations\n"
        "import os, numpy as np\n"
        "import scipy.optimize\n"
        "from .errors import DimensionMismatch, ModelMismatch\n"
        "def f(x: 'Body') -> np.ndarray:\n"
        "    raise DimensionMismatch(scipy.optimize)\n"
    )
    assert unused_imports(source) == ["os", "ModelMismatch"]

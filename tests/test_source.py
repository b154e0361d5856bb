"""Source hygiene: each package module uses every name it imports, and none imports
``scipy.integrate``.

A deletion that leaves an import behind fails here. ``__init__.py`` is
skipped by the unused-import rule, since its imports are the package's public
names. Every integral in the package runs on its own Gauss-Legendre panels,
so ``scipy.integrate`` (and the ``scipy.optimize`` it pulls in) stays out of
the process.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gcilab"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ALL_MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))


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


def imports_of(source: str, package: str) -> list[int]:
    """Line numbers of the import statements that load `package` or a submodule of it."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        if any(name == package or name.startswith(package + ".") for name in names):
            lines.append(node.lineno)
    return sorted(lines)


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


@pytest.mark.parametrize("module", ALL_MODULES)
def test_no_scipy_integrate(module):
    assert imports_of((PACKAGE / module).read_text(), "scipy.integrate") == []


def test_import_checker_sees_every_form():
    source = (
        "import scipy.special\n"
        "import scipy.integrate as si\n"
        "from scipy import integrate, fft\n"
        "def f():\n"
        "    from scipy.integrate import quad\n"
        "from .integrate import g\n"
    )
    assert imports_of(source, "scipy.integrate") == [2, 3, 5]

"""Source hygiene: no module under src/uvstat imports a name it never uses."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "uvstat"
# __init__.py imports only to re-export
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by an import (other than from __future__) and never read."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(f"line {line}: {name}" for name, line in imported.items() if name not in used)


def test_unused_imports_detected():
    source = (
        "from __future__ import annotations\n"
        "import os, sys as system\n"
        "from math import pi, tau\n"
        "print(tau, os.sep)\n"
    )
    assert unused_imports(source) == ["line 2: system", "line 3: pi"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# the one module that expands kernels: everything else reads the compiled view
EXPANDING_MODULE = "kernels.py"


def expansion_calls(source: str) -> list:
    """Calls of separable_terms(...) or of a .sep_terms() method, by line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            fn = node.func
            name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
            if name in ("separable_terms", "sep_terms"):
                found.append(f"line {node.lineno}: {name}")
    return sorted(found)


def test_expansion_calls_detected():
    source = (
        "from uvstat import kernels\n"
        "from uvstat.kernels import separable_terms\n"
        "terms = separable_terms(k)\n"
        "more = kernels.separable_terms(k)\n"
        "raw = k.L.sep_terms()\n"
        "view = k._compiled.terms\n"
        "fn = separable_terms\n"
    )
    assert expansion_calls(source) == [
        "line 3: separable_terms", "line 4: separable_terms", "line 5: sep_terms"
    ]


@pytest.mark.parametrize(
    "path", [p for p in sorted(SRC.glob("*.py")) if p.name != EXPANDING_MODULE], ids=lambda p: p.name
)
def test_only_kernels_expands_kernels(path):
    assert expansion_calls(path.read_text(encoding="utf-8")) == []

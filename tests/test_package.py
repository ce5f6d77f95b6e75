"""Package-wide rules: the source imports only the standard library and
itself, and every exported name exists."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import cubicforms

MODULES = sorted(Path(cubicforms.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_cubicforms(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots = [node.module.split(".")[0]]
        else:  # not an import, or a relative one inside the package
            continue
        for root in roots:
            assert root == "cubicforms" or root in sys.stdlib_module_names, (
                path.name,
                node.lineno,
                root,
            )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_names_resolve(path):
    name = "cubicforms" if path.stem == "__init__" else f"cubicforms.{path.stem}"
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []

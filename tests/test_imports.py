"""The package imports nothing at run time beyond the standard library and numpy."""

import ast
import sys
from pathlib import Path

import pytest

import lp_extremal

PACKAGE = Path(lp_extremal.__file__).resolve().parent
ALLOWED = {"numpy", "lp_extremal"}


def imported_roots(path):
    """(line, top-level package) of every absolute import in the module at ``path``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.split(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_runtime_imports_are_stdlib_or_numpy(path):
    stray = [
        (line, root) for line, root in imported_roots(path)
        if root not in ALLOWED and root not in sys.stdlib_module_names
    ]
    assert stray == [], f"{path.name} imports outside the standard library and numpy"

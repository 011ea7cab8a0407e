"""The package imports nothing at run time beyond the standard library and
numpy, every import it makes is used, and the README's module map names
exactly each module's public names."""

import ast
import importlib
import re
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


def unused_imports(path):
    """(line, name) of each module-level import in ``path`` that the module
    neither reads nor lists in ``__all__``.

    ``from __future__`` and ``*`` imports bind no name the code reads, so
    they are left out.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names if a.name != "*"]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                read |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return [(line, name) for line, name in bound if name not in read]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path) == [], f"{path.name} imports names it never uses"


README = Path(__file__).resolve().parents[1] / "README.md"
NAMES = r"(?:`\w+`(?:,\s+)?)+"
BULLET = re.compile(rf"^- `(\w+)`: ({NAMES})", re.MULTILINE)


def readme_module_map():
    """{module: names} from the README's module map, whose bullets each open
    with their module's public names, and the names that open the paragraph
    after the map."""
    section = README.read_text(encoding="utf-8").split("Module map", 1)[1].split("\n## ", 1)[0]
    bullets, after = section.split("\n\n", 2)[1:]
    listed = {module: re.findall(r"\w+", names) for module, names in BULLET.findall(bullets)}
    assert len(listed) == bullets.count("\n- ") + 1, "a module-map bullet opens without names"
    return listed, re.findall(r"\w+", re.match(NAMES, after)[0])


def library_modules():
    """{name: module} of every module of the package but ``__init__`` and ``__main__``."""
    return {
        path.stem: importlib.import_module(f"lp_extremal.{path.stem}")
        for path in PACKAGE.glob("*.py")
        if not path.stem.startswith("__")
    }


def test_readme_module_map_is_each_modules_all():
    listed, after_map = readme_module_map()
    documented = dict(listed, errors=after_map)
    modules = library_modules()
    assert set(documented) == set(modules)
    for name, module in modules.items():
        assert sorted(documented[name]) == sorted(module.__all__), name


def test_package_republishes_each_modules_all():
    # every module but the command-line front end
    modules = [m for name, m in library_modules().items() if name != "cli"]
    published = {name: m for m in modules for name in m.__all__}
    assert sorted(lp_extremal.__all__) == sorted(["__version__", *published])
    for name, module in published.items():
        assert getattr(lp_extremal, name) is getattr(module, name)

"""Static checks on the package source, with the stdlib ast module only.

Every import a module makes is used in it, no module imports another
module's underscore name (a name shared between modules is public), every
package outside the stdlib that the source imports is declared in
pyproject.toml, and every instance is built by its class's constructor.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cotriage"
MODULES = sorted(PACKAGE.glob("*.py"))


def _imports(tree: ast.Module):
    """(bound name, imported name, from-module or None) of each import in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], alias.name, None
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            module = "." * node.level + (node.module or "")
            for alias in node.names:
                yield alias.asname or alias.name, alias.name, module


def test_the_package_has_modules():
    assert len(MODULES) > 10


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [bound for bound, _, _ in _imports(tree) if bound not in used] == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_imports_a_private_name_of_another(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    private = [
        f"{module}.{name}"
        for _, name, module in _imports(tree)
        if module is not None
        and (module.startswith(".") or module.split(".")[0] == "cotriage")
        and name.startswith("_")
        and not name.startswith("__")
    ]
    assert private == []


def test_every_third_party_import_is_a_declared_dependency():
    """Imports inside functions count too; a requirement's name must be its import name."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as fh:
        requirements = tomllib.load(fh)["project"]["dependencies"]
    declared = {re.split(r"[\s<>=!~;\[]", req, maxsplit=1)[0].lower().replace("-", "_")
                for req in requirements}
    imported = set()
    for path in MODULES:
        for _, name, module in _imports(ast.parse(path.read_text(encoding="utf-8"))):
            imported.add((name if module is None else module).split(".")[0])  # "" if relative
    assert imported - {""} - set(sys.stdlib_module_names) - declared == set()
    assert {"numpy", "orjson", "requests"} <= imported


_DICT_WRITES = {"update", "setdefault", "pop", "popitem", "clear", "__setitem__", "__delitem__"}


def _bypasses(tree: ast.Module):
    """Lines that call object.__new__ or write through an instance's __dict__."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            func, owner = node.func, node.func.value
            if func.attr == "__new__" and isinstance(owner, ast.Name) and owner.id == "object":
                yield node.lineno
            elif func.attr in _DICT_WRITES and isinstance(owner, ast.Attribute) and owner.attr == "__dict__":
                yield node.lineno
        elif (isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load)
              and isinstance(node.value, ast.Attribute) and node.value.attr == "__dict__"):
            yield node.lineno


def test_every_instance_is_built_by_its_constructor():
    """No module makes an instance without running its checks, or changes one behind them."""
    found = {path.name: sorted(_bypasses(ast.parse(path.read_text(encoding="utf-8")))) for path in MODULES}
    assert {name: lines for name, lines in found.items() if lines} == {}

"""Static checks on the package source, with the stdlib ast module only.

Every import a module makes is used in it, and no module imports another
module's underscore name: a name shared between modules is public.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cotriage"
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

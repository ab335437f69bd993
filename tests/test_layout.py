"""The module layering: each module of src/galcodes imports only modules
listed above it in README's Layout block, and only at module top, so an
import cycle cannot form."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "galcodes"


def _layout() -> list[str]:
    """Module names in the order README's Layout block lists them."""
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Layout", 1)[1].split("```")[1]
    return re.findall(r"^  (\w+)\.py ", block, flags=re.MULTILINE)


def _imports(tree: ast.Module):
    """(node, imported galcodes module) for each import of a package module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "galcodes"
                                                 or (node.module or "").startswith("galcodes.")):
            base = (node.module or "").removeprefix("galcodes").lstrip(".")
            if base:
                yield node, base.split(".")[0]
            else:  # from . import x, y
                for alias in node.names:
                    yield node, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("galcodes."):
                    yield node, alias.name.split(".")[1]


def test_every_module_is_in_the_layout():
    assert sorted(_layout()) == sorted(path.stem for path in PACKAGE.glob("*.py"))


@pytest.mark.parametrize("name", sorted(path.stem for path in PACKAGE.glob("*.py")))
def test_module_imports_only_modules_above_it_at_module_top(name):
    order = _layout()
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    for node, target in _imports(tree):
        assert node in tree.body, f"{name}.py imports {target} inside a body, line {node.lineno}"
        assert target in order[:order.index(name)], (
            f"{name}.py imports {target}, which is not above it in README's Layout")

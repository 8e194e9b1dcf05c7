"""Each module of the package imports only modules of earlier layers."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "permsel"
LAYERS = ("errors", "selectors", "coupon", "build", "radio", "cli")


def relative_imports(path: Path) -> set[str]:
    """The package modules that `path` imports with `from .x import ...` or
    `from . import x, y`."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            if node.module:
                names.add(node.module.split(".")[0])
            else:
                names.update(alias.name for alias in node.names)
    return names


def test_every_module_has_a_layer():
    assert {p.stem for p in SRC.glob("*.py")} - {"__init__"} == set(LAYERS)


@pytest.mark.parametrize("module", LAYERS)
def test_module_imports_only_earlier_layers(module):
    earlier = set(LAYERS[:LAYERS.index(module)])
    assert relative_imports(SRC / f"{module}.py") <= earlier


def test_coupon_imports_only_errors():
    assert relative_imports(SRC / "coupon.py") == {"errors"}

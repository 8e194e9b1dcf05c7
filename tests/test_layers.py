"""Each module of the package imports only modules of earlier layers, and
the package exports one fixed set of names."""

import ast
from pathlib import Path

import pytest

import permsel

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


def test_coupon_imports_no_package_module():
    assert relative_imports(SRC / "coupon.py") == set()


# One public entry per computation: the per-target verifier bodies and the
# plain-pattern coupon forms are reached through `verify` and `p_jump_*`.
PUBLIC_NAMES = [
    "AttemptsExhaustedError", "BudgetExceededError", "BuildConfig", "GossipIncompleteError",
    "Network", "NotStronglyConnectedError", "PermselError", "QuasiGossipFailedError",
    "Selector", "SimState", "SizeParams", "VERIFY_TARGETS", "Verdict", "broadcast", "build",
    "build_verified", "check_quasi_gossip_done", "choose_kappa", "coupon", "derive_size_params",
    "disperse", "errors", "gossip", "is_strongly_connected", "lis_length", "load_selector",
    "minimal_m_search", "p_jump_bound", "p_jump_exact", "p_monte_carlo", "quasi_gossip",
    "radio", "random_selector", "random_strongly_connected", "save_selector", "selectors",
    "step", "union_bound_value", "verify",
]


def test_public_api():
    assert sorted(permsel.__all__) == PUBLIC_NAMES

"""Each module of the package imports only modules of earlier layers and
leaves numpy to the functions that draw, and the package exports one fixed
set of names."""

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


def test_no_module_rebinds_a_global():
    # A module variable that code rebinds is shared by every caller in the process.
    rebinding = [path.name for path in sorted(SRC.glob("*.py"))
                 if any(isinstance(node, ast.Global)
                        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))]
    assert rebinding == []


def import_time_nodes(tree: ast.Module):
    """The nodes that importing the module runs: all but function bodies
    (their decorators and defaults run at import)."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack += [*getattr(node, "decorator_list", ()), *node.args.defaults,
                      *filter(None, node.args.kw_defaults)]
        else:
            stack.extend(ast.iter_child_nodes(node))


def imports_numpy(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] == "numpy" for a in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy"


def called_name(node: ast.AST) -> str:
    func = node.func if isinstance(node, ast.Call) else None
    return getattr(func, "id", None) or getattr(func, "attr", "")


def test_no_module_imports_numpy_or_builds_a_numpy_object_at_import():
    # The CLI's start-up time: only the functions that draw load numpy.  A
    # function uses numpy if it imports it or calls one that does; no module
    # may import numpy, name it or call such a function while it is imported.
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    functions = [node for tree in trees.values() for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)]
    numpy_users = {f.name for f in functions if any(map(imports_numpy, ast.walk(f)))}
    assert numpy_users >= {"substream_seed", "_draw_sets", "p_monte_carlo",
                           "random_strongly_connected"}
    while new := {f.name for f in functions if f.name not in numpy_users
                  and any(called_name(n) in numpy_users for n in ast.walk(f))}:
        numpy_users |= new
    offending = [(name, ast.unparse(node)) for name, tree in trees.items()
                 for node in import_time_nodes(tree)
                 if imports_numpy(node) or called_name(node) in numpy_users
                 or isinstance(node, ast.Name) and node.id in ("np", "numpy")]
    assert offending == []


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

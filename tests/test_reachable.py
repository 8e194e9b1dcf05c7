"""Every top-level name of the package is used by the package itself.

A `def`, `class` or module constant that no other code in `src/permsel`
names is reached only from tests, demos or the benchmark; such code
belongs in `tests/oracles.py` or nowhere.  A name counts as used when it
appears as a `Name` or an `Attribute` (such as `selectors.save_selector`)
outside its own definition, in any module of the package.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "permsel"

# Kept although nothing in the package names them, each with its reason.
ALLOWED = {
    "p_exact": "perfbench/tracer.py wraps it by name",
    "p_bound": "perfbench/tracer.py wraps it by name",
    "network_to_text": "it writes the format network_from_text reads, so radio "
                       "stays the one owner of the network file format",
}


def defined_names(stmt: ast.stmt) -> set[str]:
    """The names a top-level statement defines: a def, a class or a constant."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        return {t.id for t in stmt.targets if isinstance(t, ast.Name)}
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return {stmt.target.id}
    return set()


def used_names(node: ast.AST) -> set[str]:
    """The names read under node, as a `Name` or as an `Attribute`."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def unused_top_level_names() -> set[str]:
    modules = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    defined, used = set(), set()
    for path, tree in modules.items():
        for stmt in tree.body:
            own = defined_names(stmt)
            if path.name != "__init__.py":
                defined |= own
            used |= used_names(stmt) - own
    return defined - used


def test_every_top_level_name_is_used_in_the_package():
    assert unused_top_level_names() == set(ALLOWED)

"""The package keeps only what it reads.

Four `ast` scans of `src/permsel`:

- every top-level `def`, `class` or module constant is named by other
  code of the package, as a `Name` or an `Attribute` (such as
  `selectors.save_selector`); code that only tests, demos or the
  benchmark reach belongs in `tests/oracles.py` or nowhere;
- every parameter of a function or lambda is read in its body;
- every attribute a class stores (a dataclass field, `self.x = ...` or
  `object.__setattr__(self, "x", ...)`) is loaded somewhere in the
  package.  Filling an item of it (`obj.x[key] = ...`) is a store, not a
  load;
- every function that returns a value has a use in the package other
  than a call whose value is dropped (a bare expression statement).

Each allow-list names what is kept although its scan flags it, and why.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "permsel"

ALLOWED = {
    "p_exact": "perfbench/tracer.py wraps it by name",
    "p_bound": "perfbench/tracer.py wraps it by name",
    "network_to_text": "it writes the format network_from_text reads, so radio "
                       "stays the one owner of the network file format",
}
ALLOWED_UNREAD_PARAMETERS = {
    "cmd_simulate.<lambda>(k)": "the --selector provider: quasi_gossip calls every "
                                "provider with (kappa, n), and a loaded selector "
                                "needs neither",
    "cmd_simulate.<lambda>(n)": "the same --selector provider",
}
ALLOWED_UNLOADED_ATTRIBUTES = {
    "RoundRecord.collisions": "perfbench/tracer.py counts radio.step.collisions "
                              "from it and tests/oracles.audit_trace checks it",
}
ALLOWED_DROPPED_RETURNS = {
    "disperse": "perfbench/tracer.py counts radio.disperse.selections from it "
                "and the tests check it",
}


def modules() -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}


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
    defined, used = set(), set()
    for path, tree in modules().items():
        for stmt in tree.body:
            own = defined_names(stmt)
            if path.name != "__init__.py":
                defined |= own
            used |= used_names(stmt) - own
    return defined - used


def functions(node: ast.AST, scope: str = ""):
    """(qualified name, node) of every function and lambda under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = scope + child.name
            if not isinstance(child, ast.ClassDef):
                yield name, child
            yield from functions(child, name + ".")
        elif isinstance(child, ast.Lambda):
            yield scope + "<lambda>", child
            yield from functions(child, scope + "<lambda>.")
        else:
            yield from functions(child, scope)


def unread_parameters() -> list[str]:
    """One entry per unread parameter, so an allowed entry covers one only."""
    found = []
    for tree in modules().values():
        for name, func in functions(tree):
            a = func.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
            body = func.body if isinstance(func, ast.Lambda) else ast.Module(func.body, [])
            read = {sub.id for sub in ast.walk(body)
                    if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
            found += [f"{name}({p.arg})" for p in params if p is not None and p.arg not in read]
    return found


def stored_attributes(cls: ast.ClassDef) -> set[str]:
    """The attributes a class stores: dataclass fields, and what its methods
    assign on self."""
    stored = set()
    if any("dataclass" in ast.unparse(d) for d in cls.decorator_list):
        stored |= {s.target.id for s in cls.body
                   if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)}
    for sub in ast.walk(cls):
        if (isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                and isinstance(sub.value, ast.Name) and sub.value.id == "self"):
            stored.add(sub.attr)
        elif (isinstance(sub, ast.Call) and ast.unparse(sub.func) == "object.__setattr__"
              and isinstance(sub.args[1], ast.Constant)):
            stored.add(sub.args[1].value)
    return stored


def loaded_attributes(tree: ast.Module) -> set[str]:
    """Attribute names loaded in tree, not counting `obj.x` as the container
    of an item store (`obj.x[key] = ...`)."""
    filled = {id(sub.value) for sub in ast.walk(tree)
              if isinstance(sub, ast.Subscript) and not isinstance(sub.ctx, ast.Load)}
    return {sub.attr for sub in ast.walk(tree)
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
            and id(sub) not in filled}


def unloaded_attributes() -> set[str]:
    stored, loaded = set(), set()
    for tree in modules().values():
        loaded |= loaded_attributes(tree)
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                stored |= {(cls.name, attr) for attr in stored_attributes(cls)}
    return {f"{cls}.{attr}" for cls, attr in stored if attr not in loaded}


def dropped_returns() -> set[str]:
    """Functions with a `return <value>` although every use of their name
    in the package (as a `Name` or an `Attribute`) calls them and drops the
    value."""
    returning, read, dropped = set(), set(), set()
    for tree in modules().values():
        for _, func in functions(tree):
            if not isinstance(func, ast.Lambda) and any(
                    isinstance(sub, ast.Return) and sub.value is not None
                    for sub in ast.walk(func)):
                returning.add(func.name)
        bare = {id(s.value.func) for s in ast.walk(tree)
                if isinstance(s, ast.Expr) and isinstance(s.value, ast.Call)}
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                name = sub.id
            elif isinstance(sub, ast.Attribute):
                name = sub.attr
            else:
                continue
            (dropped if id(sub) in bare else read).add(name)
    return returning & (dropped - read)


def test_every_top_level_name_is_used_in_the_package():
    assert unused_top_level_names() == set(ALLOWED)


def test_every_parameter_is_read():
    assert sorted(unread_parameters()) == sorted(ALLOWED_UNREAD_PARAMETERS)


def test_every_stored_attribute_is_loaded():
    assert unloaded_attributes() == set(ALLOWED_UNLOADED_ATTRIBUTES)


def test_every_returned_value_is_used():
    assert dropped_returns() == set(ALLOWED_DROPPED_RETURNS)

"""Static checks over the package source that need no linter."""

import ast
from collections import Counter
from pathlib import Path

import mge

SRC = Path(mge.__file__).parent


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    imported: dict[str, int] = {}
    exported: set[str] = set()
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= {e.value for e in node.value.elts}
    return [
        f"{path.name}:{line} {name}"
        for name, line in sorted(imported.items(), key=lambda kv: kv[1])
        if name not in used and name not in exported
    ]


def test_package_has_no_unused_imports():
    unused = [u for path in sorted(SRC.glob("*.py")) for u in _unused_imports(path)]
    assert unused == []


def _private_defs(tree: ast.Module):
    """Undecorated private ``def`` and ``class`` nodes at module or class level."""
    for node in tree.body:
        inner = node.body if isinstance(node, ast.ClassDef) else []
        for d in [node, *inner]:
            if (
                isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and d.name.startswith("_")
                and not d.name.startswith("__")
                and not d.decorator_list
            ):
                yield d


def _referenced_names(node: ast.AST) -> Counter:
    names: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            names[sub.name] += 1
    return names


def test_package_has_no_unreferenced_private_functions():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used: Counter = Counter()
    for tree in trees.values():
        used += _referenced_names(tree)
    unreferenced = [
        f"{name}:{d.lineno} {d.name}"
        for name, tree in trees.items()
        for d in _private_defs(tree)
        # a definition's references to itself do not keep it alive
        if used[d.name] == _referenced_names(d)[d.name]
    ]
    assert unreferenced == []


# the one lazy import: registry imports groups at module level
_LAZY_IMPORTS = {("groups.py", "_resolve_named")}


def test_package_has_no_local_imports():
    local = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if (path.name, fn.name) in _LAZY_IMPORTS:
                continue
            local += [
                f"{path.name}:{node.lineno} {fn.name}"
                for node in ast.walk(fn)
                if isinstance(node, (ast.Import, ast.ImportFrom))
            ]
    assert local == []


# the routines that read the derivations bfs_closure returns
_DERIVATION_READERS = {("groups.py", "along_generators"), ("morphisms.py", "_search_levels")}


def _derivation_readers(path: Path) -> set[tuple[str, str]]:
    """(file, function) for each ``bfs_closure`` call whose derivations are
    kept: anything but ``bfs_closure(...)[0]`` or ``elems, _ = bfs_closure(...)``."""
    tree = ast.parse(path.read_text())
    parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    readers = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "bfs_closure"):
            continue
        up = parent[node]
        if isinstance(up, ast.Subscript) and getattr(up.slice, "value", None) == 0:
            continue
        if isinstance(up, ast.Assign) and all(
            isinstance(t, ast.Tuple) and getattr(t.elts[-1], "id", None) == "_"
            for t in up.targets
        ):
            continue
        while not isinstance(up, (ast.FunctionDef, ast.Module)):
            up = parent[up]
        readers.add((path.name, getattr(up, "name", "<module>")))
    return readers


def test_only_along_generators_and_the_search_levels_read_derivations():
    readers = set().union(*(_derivation_readers(path) for path in sorted(SRC.glob("*.py"))))
    assert readers == _DERIVATION_READERS


def test_package_has_no_size_bounded_memo():
    # a memo holds shipped data only, so it needs no bound; a bounded one
    # would hold whatever its callers name
    bounded = [path.name for path in sorted(SRC.glob("*.py"))
               if _referenced_names(ast.parse(path.read_text()))["lru_cache"]]
    assert bounded == []


def test_only_order_allowed_takes_a_tier():
    # the active tier is read from MGE_TIER where a gate needs it, never passed down
    takers = [
        f"{path.name}:{fn.lineno} {fn.name}"
        for path in sorted(SRC.glob("*.py"))
        for fn in ast.walk(ast.parse(path.read_text()))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and "tier" in {a.arg for a in (*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs)}
    ]
    assert [t.split(" ")[1] for t in takers] == ["order_allowed"], takers

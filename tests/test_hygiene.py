"""Source hygiene: every name a module imports is used where it is imported,
every module-level private function or class is referenced somewhere in
the package, and no source or test line holds a tab."""

import ast
from pathlib import Path

import matchwidth

SCOPES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)


def unused_imports(path: Path) -> list[str]:
    """Imported names never read in the module or function that imports them;
    names a module lists in `__all__` count as used."""
    tree = ast.parse(path.read_text())
    parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        scope = parent[node]
        while not isinstance(scope, SCOPES):
            scope = parent[scope]
        read = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in read and name not in exported:
                out.append(f"{path.name}:{node.lineno}: {name}")
    return out


def test_every_import_is_used():
    src = Path(matchwidth.__file__).parent
    assert [msg for path in sorted(src.glob("*.py")) for msg in unused_imports(path)] == []


def unreferenced_private_defs(paths: list[Path]) -> list[str]:
    """Module-level `_name` functions and classes that no module of the
    package reads by name, as an attribute or in an import."""
    trees = {path: ast.parse(path.read_text()) for path in paths}
    referenced: set[str] = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced |= {alias.name for alias in node.names}
    out = []
    for path, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("_") and not name.startswith("__") and name not in referenced:
                out.append(f"{path.name}:{node.lineno}: {name}")
    return out


def test_every_private_definition_is_referenced():
    src = Path(matchwidth.__file__).parent
    assert unreferenced_private_defs(sorted(src.glob("*.py"))) == []


def tab_lines(paths: list[Path]) -> list[str]:
    """`file:line` of every line holding a tab character."""
    return [
        f"{path.name}:{number}"
        for path in paths
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if "\t" in line
    ]


def test_no_tab_characters():
    src = Path(matchwidth.__file__).parent
    tests = Path(__file__).parent
    assert tab_lines(sorted(src.glob("*.py")) + sorted(tests.glob("*.py"))) == []

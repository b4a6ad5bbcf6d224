"""Source hygiene: every name a module imports is used where it is imported,
every module-level function or class is referenced somewhere else in the
package unless it is a kept oracle or paper check, and no source or test
line holds a tab."""

import ast
from collections import Counter
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


# Public module-level definitions that no package module references, each
# kept for the production route it gates (an oracle) or for the paper
# statement it checks.  Any other unreferenced definition is dead code.
KEPT_UNREFERENCED = {
    "bipartite_isomorphic": "oracle for the graphs `gen` and `split` build",
    "digraph_isomorphic": "oracle for the M-directions `direction` builds",
    "contains_kuratowski_subdivision": "oracle for `planarity_test` (`strongplanar`)",
    "cop_number_game_exact": "oracle for the cop search of `dtw_exact_small`",
    "cycd_width": "oracle for the width `cycw_exact_small` gives `cops`",
    "pmd_width": "oracle for the width `pm decomp` reports",
    "matching_porosity_bruteforce": "oracle for `matching_porosity` (`pm width`, `cut`)",
    "verify_guard_bruteforce": "oracle for `verify_guard` (`guard`)",
    "simple_directed_cycles": "oracle for `directed_cycle_hitting_set` (`cops`)",
    "find_model_bruteforce": "paper: matching minors are the graphs with a model",
    "residual_matching": "paper: a model's perfect matching induces one of the pattern",
    "model_cgq_in_cg3k": "paper: the quadrangulation of order k is a matching minor of CG_3k",
    "square_grid_model": "paper: the quadrangulation of order k holds the k x k grid",
    "is_limited": "paper: solution linkages are (k, w)-limited",
}


def unreferenced_defs(paths: list[Path]) -> list[tuple[str, int, str]]:
    """(file, line, name) of each module-level function or class, dunders
    aside, that no module of the package reads by name, as an attribute or
    in an import, outside the definition's own body."""
    trees = {path: ast.parse(path.read_text()) for path in paths}

    def names(root: ast.AST) -> Counter:
        out: Counter = Counter()
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                out[node.id] += 1
            elif isinstance(node, ast.Attribute):
                out[node.attr] += 1
            elif isinstance(node, ast.ImportFrom):
                out.update(alias.name for alias in node.names)
        return out

    referenced = sum((names(tree) for tree in trees.values()), Counter())
    out = []
    for path, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") or referenced[name] > names(node)[name]:
                continue
            out.append((path.name, node.lineno, name))
    return out


def test_every_private_definition_is_referenced():
    src = Path(matchwidth.__file__).parent
    found = unreferenced_defs(sorted(src.glob("*.py")))
    assert [f"{f}:{line}: {name}" for f, line, name in found if name.startswith("_")] == []


def test_every_public_definition_is_referenced_or_kept():
    src = Path(matchwidth.__file__).parent
    public = [d for d in unreferenced_defs(sorted(src.glob("*.py"))) if not d[2].startswith("_")]
    assert [f"{f}:{line}: {name}" for f, line, name in public if name not in KEPT_UNREFERENCED] == []
    # an entry whose definition is gone or now referenced must go as well
    assert sorted(set(KEPT_UNREFERENCED) - {name for _, _, name in public}) == []


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

"""Source hygiene: every name a module imports is used where it is imported,
every name a function binds is read, every module-level function or class
is referenced somewhere else in the package unless it is a kept oracle or
paper check, every optional parameter is set by some call in the package,
every parameter is read, an import inside a function breaks an import
cycle, no module imports another's underscore name beyond one kept
exception, no source or test line holds a tab, and every nested function
that recursion can reach again is listed with what bounds its depth."""

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


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def own_nodes(fn: ast.AST) -> list[ast.AST]:
    """The nodes of a function's body outside its nested functions, lambdas
    and classes (those nodes themselves included)."""
    out = []
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        out.append(node)
        if not isinstance(node, FUNCTIONS + (ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))
    return out


def unread_locals(path: Path) -> list[str]:
    """Names a function binds that neither it nor a function nested in it
    ever reads; `_`-prefixed names and names declared `global` or
    `nonlocal` are exempt."""
    out = []
    for fn in ast.walk(ast.parse(path.read_text())):
        if not isinstance(fn, FUNCTIONS):
            continue
        outer: set[str] = set()
        bound: dict[str, int] = {}
        for node in own_nodes(fn):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                outer.update(node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                bound.setdefault(node.id, node.lineno)
        read = {
            n.id for n in ast.walk(fn) if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)
        }
        out += [
            f"{path.name}:{line}: {fn.name} {name}"
            for name, line in bound.items()
            if name not in read and name not in outer and not name.startswith("_")
        ]
    return out


def test_every_local_is_read():
    src = Path(matchwidth.__file__).parent
    assert [msg for path in sorted(src.glob("*.py")) for msg in unread_locals(path)] == []


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
    "butterfly_minor_bruteforce": "paper: matching minors are butterfly minors of M-directions",
    "antichain_member": "paper: the excluding anti-chain lemma",
    "prepare_dtd": "bench/layers.py still names it as a trace target",
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


# Optional parameters that no package call sets, each kept for the callers
# outside the package that do.  Any other such parameter is a knob nothing
# turns.
KEPT_UNSET = {
    "bipartite_isomorphic(m1)": "oracle; its tests pass matchings",
    "bipartite_isomorphic(m2)": "oracle; its tests pass matchings",
    "bipartite_isomorphic(allow_swap)": "oracle; a test fixes the colour classes",
    "count_pm_bruteforce(limit)": "the bench checker sets it",
    "dapp_bruteforce(limit)": "the bench checker sets it",
    "count_pm_decomp(stats)": "the bench tracer and the tests read it",
    "main(argv)": "the CLI entry point; the tests and the bench pass argv",
}


def unset_optional_parameters(paths: list[Path]) -> list[str]:
    """`name(param)` of each defaulted parameter of a function or method,
    dunders aside, that no call in the given modules sets by position or by
    keyword.  Calls match definitions by name; a call with `*args` or
    `**kwargs` counts as setting every parameter."""
    nodes = [node for path in paths for node in ast.walk(ast.parse(path.read_text()))]
    parent = {child: node for node in nodes for child in ast.iter_child_nodes(node)}
    # (function, parameter) -> index among the call's positional arguments,
    # or None for a keyword-only parameter
    wanted: dict[tuple[str, str], int | None] = {}
    for node in nodes:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name.startswith("__") and node.name.endswith("__"):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        # a method's first parameter is bound, not passed in the call
        bound = isinstance(parent[node], ast.ClassDef) and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list
        )
        for i in range(len(positional) - len(args.defaults), len(positional)):
            wanted[node.name, positional[i].arg] = i - bound
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                wanted[node.name, arg.arg] = None
    done = set()
    for node in nodes:
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        keywords = {k.arg for k in node.keywords}
        spread = None in keywords or any(isinstance(a, ast.Starred) for a in node.args)
        for (fname, param), index in wanted.items():
            if fname == name and (
                spread or param in keywords or (index is not None and index < len(node.args))
            ):
                done.add((fname, param))
    return sorted(f"{f}({p})" for f, p in set(wanted) - done)


def test_every_optional_parameter_is_set():
    src = Path(matchwidth.__file__).parent
    unset = unset_optional_parameters(sorted(src.glob("*.py")))
    assert [name for name in unset if name not in KEPT_UNSET] == []
    # an entry whose parameter is gone or now set must go as well
    assert sorted(set(KEPT_UNSET) - set(unset)) == []


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


def top_level_imports(tree: ast.Module) -> set[str]:
    """The package modules a module imports at module level."""
    return {
        node.module
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
    }


def needless_local_imports(paths: list[Path]) -> list[str]:
    """`file:line: module` of each import inside a function that is not from
    a package module importing the importing one at module level, the one
    cycle that forces an import into the function; `cli.py` aside, which
    imports each command's modules when it runs."""
    trees = {path.stem: ast.parse(path.read_text()) for path in paths}
    out = []
    for name, tree in trees.items():
        if name == "cli":
            continue
        for fn in ast.walk(tree):
            if not isinstance(fn, FUNCTIONS):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Import):
                    out += [f"{name}.py:{node.lineno}: {alias.name}" for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    source = node.module if node.level == 1 else None
                    if source not in trees or name not in top_level_imports(trees[source]):
                        out.append(f"{name}.py:{node.lineno}: {'.' * node.level}{node.module}")
    return sorted(set(out))


def test_function_level_imports_break_a_cycle():
    src = Path(matchwidth.__file__).parent
    assert needless_local_imports(sorted(src.glob("*.py"))) == []


def unread_parameters(path: Path) -> list[str]:
    """`file:line: function(param)` of each parameter of a function or
    lambda that its body, nested functions included, never reads; `self`,
    `cls` and `_`-prefixed names are exempt."""
    out = []
    for fn in ast.walk(ast.parse(path.read_text())):
        if not isinstance(fn, FUNCTIONS + (ast.Lambda,)):
            continue
        args = fn.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        read = {
            n.id
            for stmt in body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        name = getattr(fn, "name", "<lambda>")
        out += [
            f"{path.name}:{fn.lineno}: {name}({a.arg})"
            for a in params
            if a.arg not in read and a.arg not in ("self", "cls") and not a.arg.startswith("_")
        ]
    return out


def test_every_parameter_is_read():
    src = Path(matchwidth.__file__).parent
    assert [msg for path in sorted(src.glob("*.py")) for msg in unread_parameters(path)] == []


# `from .module import _name` lines kept in the package, each with why the
# name cannot be made public yet.  Any other such import reaches into
# another module's internals.
KEPT_PRIVATE_IMPORTS = {
    "minors.py: linkage._solve_full": "bench/layers.py traces it by this name, so only a "
    "change to the benchmark can rename it",
}


def private_imports(paths: list[Path]) -> list[str]:
    """`file: module.name` of each underscore name imported from a package
    module, at module level or inside a function."""
    out = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                out += [
                    f"{path.name}: {node.module}.{alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    return sorted(out)


def test_no_private_name_is_imported_across_modules():
    src = Path(matchwidth.__file__).parent
    # an entry whose import is gone must go as well
    assert private_imports(sorted(src.glob("*.py"))) == sorted(KEPT_PRIVATE_IMPORTS)


# Nested functions that call themselves, directly or through a sibling
# closure, each with what bounds its depth.  Python recursion stops near
# 1,000 frames, so an unlisted one may be a `RecursionError` waiting for a
# large input; where the depth grows with the input, the entry says so.
KEPT_RECURSIVE_CLOSURES = {
    "bigraph.enumerate_perfect_matchings.rec": "n1 <= ORACLE_VERTEX_LIMIT / 2 levels",
    "decomp._branch_dp.build": "the elements, <= PMW_ORACLE_LIMIT",
    "decomp._monotone_win.win": "each move shrinks the robber's territory: <= DTW_ORACLE_LIMIT",
    "digraph.simple_directed_cycles.dfs": "grows with the input: d.n (a test oracle)",
    "direction.conformal_cycles.dfs": "grows with the input: b.n (oracles only)",
    "grids.square_grid_model.ring_splits.rec": "grows with the input: the order k",
    "grids.square_grid_model.solve": "grows with the input: the order k",
    "isomorphism.bipartite_isomorphisms.extend": "n2; pattern symmetries stop at 12 vertices",
    "linkage._alternating_paths.rec": "b.n / 2 <= DAPP_VERTEX_LIMIT / 2 (`dapp_bruteforce`)",
    "linkage.dapp_bruteforce.try_pairs": "the pairs, <= DAPP_PAIR_LIMIT",
    "linkage.make_proxies.rec": "grows with the input: the pairs",
    "linkage._routes.enumerate_h": "grows with the input: k + w crossings",
    "linkage._routes.assemble.advance": "grows with the input: k + w segments a side",
    "linkage._routes.assemble.route_all": "grows with the input: the pairs, <= k + w",
    "linkage._solve_full.w_candidates": "grows with the input: the terminals",
    "minors._check_with_mh.guess": "one level per pattern vertex, <= 24 pattern vertices",
    "minors._check_with_mh.place": "one level per anchor, <= 24 pattern vertices",
    "minors._check_with_mh.mh_rec": "one level per m_h edge, <= 24 pattern vertices",
    "minors.butterfly_minor_bruteforce.search": "each step shrinks d, d.n <= BM_ORACLE_LIMIT",
    "minors.find_model_bruteforce.assign_vertices": "h's vertices, b.n <= MM_ORACLE_LIMIT",
    "minors.find_model_bruteforce.extend": "h's edges, b.n <= MM_ORACLE_LIMIT",
    "minors.matching_minor_bruteforce.search": "each step shrinks the graph, b.n <= limit",
    "planarity.contains_kuratowski_subdivision.disjoint_paths": "<= 10 pairs, K5's edges",
}


def recursive_closures(paths: list[Path]) -> list[str]:
    """`module.outer.name` of each nested function that can reach itself
    through calls to itself or to functions nested in the same function;
    any read of a sibling's name counts as a call."""
    out = []
    for path in paths:
        todo = [(node, path.stem) for node in ast.parse(path.read_text()).body]
        while todo:
            fn, prefix = todo.pop()
            if not isinstance(fn, FUNCTIONS + (ast.ClassDef,)):
                continue
            qualname = f"{prefix}.{fn.name}"
            nested = own_nodes(fn)
            todo += [(node, qualname) for node in nested]
            inner = {node.name: node for node in nested if isinstance(node, FUNCTIONS)}
            if isinstance(fn, ast.ClassDef):
                continue
            calls = {
                name: {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and n.id in inner}
                for name, node in inner.items()
            }
            for name in inner:
                reached: set[str] = set()
                frontier = list(calls[name])
                while frontier:
                    callee = frontier.pop()
                    if callee not in reached:
                        reached.add(callee)
                        frontier += calls[callee]
                if name in reached:
                    out.append(f"{qualname}.{name}")
    return sorted(out)


def test_every_recursive_closure_is_listed_with_its_bound():
    src = Path(matchwidth.__file__).parent
    found = recursive_closures(sorted(src.glob("*.py")))
    assert [name for name in found if name not in KEPT_RECURSIVE_CLOSURES] == []
    # an entry whose closure is gone or no longer recursive must go as well
    assert sorted(set(KEPT_RECURSIVE_CLOSURES) - set(found)) == []

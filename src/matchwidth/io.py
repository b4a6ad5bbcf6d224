"""Shared text formats: graphs (`b`/`d` headers), matchings (`m`), and the
JSON decomposition schemas."""

from __future__ import annotations

import sys
from typing import Iterable

from .bigraph import BipartiteGraph, Edge, Matching, check_matching
from .decomp import DirectedTreeDecomposition, LeafTree
from .digraph import Digraph, digraph_from_arcs
from .errors import ParseError

SCHEMA_VERSION = 1


def parse_graph_text(text: str) -> BipartiteGraph | Digraph:
    """Parse the shared graph format: `b <n1> <n2>` with `e <u> <v>` lines,
    or `d <n>` with `a <u> <v>` lines; `#` comments ignored.  An edge may
    name its V2 end first.  Each line is checked and its edge or arc
    stored as it is read."""
    header: tuple | None = None
    edges: set[tuple[int, int]] = set()
    want = ""
    lo = hi = 0  # an edge's V1 end lies in [1, lo], its V2 end in (lo, hi]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if header is None:
            if parts[0] == "b" and len(parts) == 3:
                want = "e"
                try:
                    header = (int(parts[1]), int(parts[2]))
                except ValueError:
                    raise ParseError("malformed header counts", lineno)
                lo, hi = header[0], header[0] + header[1]
            elif parts[0] == "d" and len(parts) == 2:
                want = "a"
                try:
                    header = (int(parts[1]),)
                except ValueError:
                    raise ParseError("malformed header count", lineno)
                hi = header[0]
            else:
                raise ParseError("expected header `b <n1> <n2>` or `d <n>`", lineno)
            if min(header) < 0:
                raise ParseError("negative vertex count", lineno)
            continue
        if parts[0] != want or len(parts) != 3:
            raise ParseError(f"expected `{want} <u> <v>`", lineno)
        try:
            u, v = int(parts[1]), int(parts[2])
        except ValueError:
            raise ParseError("malformed endpoint", lineno)
        if want == "a":
            if not (0 < u <= hi and 0 < v <= hi) or u == v:
                raise ParseError(f"arc ({u},{v}) out of range", lineno)
            edges.add((u, v))
            continue
        edge = (u, v) if u < v else (v, u)
        if not 0 < edge[0] <= lo < edge[1] <= hi:
            raise ParseError(f"edge ({u},{v}) does not join V1 to V2", lineno)
        edges.add(edge)
    if header is None:
        raise ParseError("empty input")
    if want == "e":
        return BipartiteGraph(header[0], header[1], frozenset(edges))
    return digraph_from_arcs(header[0], edges)


def read_text(path: str) -> str:
    """The text of a file, or of stdin for `-`; undecodable bytes raise
    `ParseError`, and a file that cannot be opened `OSError`."""
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path) as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not a text file ({exc.reason} at byte {exc.start})") from None


def parse_graph_file(path: str) -> BipartiteGraph | Digraph:
    return parse_graph_text(read_text(path))


def write_graph_text(g: BipartiteGraph | Digraph) -> str:
    lines = []
    if isinstance(g, BipartiteGraph):
        lines.append(f"b {g.n1} {g.n2}")
        for u, v in sorted(g.edges):
            lines.append(f"e {u} {v}")
    else:
        lines.append(f"d {g.n}")
        for u, v in sorted(g.arcs):
            lines.append(f"a {u} {v}")
    return "\n".join(lines) + "\n"


def parse_matching_text(text: str, host: BipartiteGraph) -> Matching:
    edges = []
    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if not header_seen:
            if parts[0] != "m":
                raise ParseError("expected `m` header", lineno)
            header_seen = True
            continue
        if parts[0] != "e" or len(parts) != 3:
            raise ParseError("expected `e <u> <v>`", lineno)
        try:
            edges.append((int(parts[1]), int(parts[2])))
        except ValueError:
            raise ParseError("malformed endpoint", lineno)
    if not header_seen:
        raise ParseError("empty matching file")
    return check_matching(host, edges)


def write_matching_text(m: Iterable[Edge]) -> str:
    lines = ["m"]
    for u, v in sorted(m):
        lines.append(f"e {u} {v}")
    return "\n".join(lines) + "\n"


def dtd_to_json(dec: DirectedTreeDecomposition) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "nodes": [
            {
                "id": t,
                "parent": dec.parent[t],
                "bag": sorted(dec.bags[t]),
                "guard": sorted(dec.guards[t]),
            }
            for t in range(dec.m)
        ],
    }


def dtd_from_json(data: dict) -> DirectedTreeDecomposition:
    try:
        nodes = data["nodes"]
        m = len(nodes)
        parent = [0] * m
        bags: list[frozenset[int]] = [frozenset()] * m
        guards: list[frozenset[int]] = [frozenset()] * m
        ids = [int(entry["id"]) for entry in nodes]
        if sorted(ids) != list(range(m)):
            raise ParseError(f"node ids are not 0..{m - 1}, each once")
        for t, entry in zip(ids, nodes):
            parent[t] = int(entry["parent"])
            if not (-1 <= parent[t] < m):
                raise ParseError(f"parent {parent[t]} of node {t} out of range")
            bags[t] = frozenset(int(x) for x in entry.get("bag", []))
            guards[t] = frozenset(int(x) for x in entry.get("guard", []))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed decomposition: {exc!r}") from None
    return DirectedTreeDecomposition(tuple(parent), tuple(bags), tuple(guards))


def leaf_tree_to_json(dec: LeafTree) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "tree": [sorted(adj) for adj in dec.adj],
        "leaf_map": {str(k): v for k, v in sorted(dec.leaf_map.items())},
        "root": dec.root,
    }


def leaf_tree_from_json(data: dict) -> LeafTree:
    try:
        adj = tuple(frozenset(int(x) for x in row) for row in data["tree"])
        leaf_map = {int(k): int(v) for k, v in data["leaf_map"].items()}
        root = data.get("root")
        return LeafTree(adj, leaf_map, None if root is None else int(root))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed decomposition: {exc!r}") from None

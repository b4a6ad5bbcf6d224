import contextlib
import io
import json
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from matchwidth.cli import main
from matchwidth.io import (
    dtd_from_json,
    dtd_to_json,
    leaf_tree_from_json,
    leaf_tree_to_json,
    parse_graph_text,
    parse_matching_text,
    write_graph_text,
)
from matchwidth.errors import ParseError
from matchwidth.decomp import PMW_ORACLE_LIMIT, pmd_width
from matchwidth.grids import cylindrical_grid, square_grid
from matchwidth.isomorphism import bipartite_isomorphic, digraph_isomorphic

from common import even_cycle, random_bipartite_with_pm, random_cubic_tree


def run_cli(args, stdin="", flags=()):
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "matchwidth.cli", *args],
        input=stdin,
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_parse_examples():
    c4 = parse_graph_text("b 2 2\ne 1 3\ne 1 4\ne 2 3\ne 2 4\n")
    assert bipartite_isomorphic(c4, even_cycle(2))
    d = parse_graph_text("d 2\na 1 2\na 2 1\n")
    assert d.arcs == frozenset({(1, 2), (2, 1)})
    with pytest.raises(ParseError):
        parse_graph_text("b 1 1\ne 1 1\n")


def test_graph_round_trip():
    c6 = even_cycle(3)
    assert parse_graph_text(write_graph_text(c6)) == c6


def test_matching_round_trip():
    c4 = even_cycle(2)
    m = parse_matching_text("m\ne 1 3\ne 2 4\n", c4)
    assert m == frozenset({(1, 3), (2, 4)})


def test_cli_count(tmp_path):
    f = tmp_path / "c6.b"
    f.write_text(write_graph_text(even_cycle(3)))
    code, out, _ = run_cli(["pm", "count", str(f)])
    assert code == 0 and out.strip() == "2"


def test_cli_strongplanar_k33():
    bk3 = "d 3\na 1 2\na 2 1\na 1 3\na 3 1\na 2 3\na 3 2\n"
    code, out, _ = run_cli(["strongplanar", "-"], stdin=bk3)
    assert code == 1 and out.strip() == "no"


def test_cli_gen_pipe_width():
    code, out, _ = run_cli(["gen", "cg", "2"])
    assert code == 0
    code2, out2, _ = run_cli(["pm", "width", "-"], stdin=out)
    assert code2 == 0 and out2.strip().isdigit()


def test_cli_dapp():
    c6 = write_graph_text(even_cycle(3))
    code, out, _ = run_cli(["dapp", "-", "--pairs", "1:5"], stdin=c6)
    assert code == 0 and out.strip() == "yes"
    code, out, _ = run_cli(["--json", "dapp", "-", "--pairs", "1:5"], stdin=c6)
    assert code == 0
    data = json.loads(out)
    assert data["solvable"] is True and data["schema"] == 1
    # both ends in V1, and a chunk without a colon: errors, not "no"
    for spec in ("1:2", "x"):
        code, out, err = run_cli(["dapp", "-", "--pairs", spec], stdin=c6)
        assert code == 2 and out == "" and err.startswith("error:")
        assert "Traceback" not in err


def test_cli_guard_and_cut():
    c4 = write_graph_text(even_cycle(2))
    code, out, _ = run_cli(["cut", "porosity", "-", "1,3"], stdin=c4)
    assert code == 0 and out.strip() == "2"
    code, out, _ = run_cli(["guard", "-", "1,3"], stdin=c4)
    assert code == 0 and out.startswith("m")
    # shore vertex 9 is not in the 4-vertex graph; `a` is no vertex id
    for cmd in (["cut", "porosity"], ["guard"]):
        for shore in ("1,9", "a"):
            code, out, err = run_cli([*cmd, "-", shore], stdin=c4)
            assert code == 2 and out == "" and err.startswith("error:")


def test_cli_generator_round_trips():
    for spec in (["gen", "cg", "2"], ["gen", "cgq", "2"], ["gen", "grid", "2", "4"]):
        code, out, _ = run_cli(spec)
        assert code == 0
        g = parse_graph_text(out)
        assert parse_graph_text(write_graph_text(g)) == g


def test_cli_dtw_roundtrip(tmp_path):
    d_text = "d 3\na 1 2\na 2 3\na 3 1\n"
    code, out, _ = run_cli(["dtw", "-"], stdin=d_text)
    assert code == 0
    data = json.loads(out)
    dec = dtd_from_json(data)
    assert dtd_to_json(dec)["nodes"] == data["nodes"]
    f = tmp_path / "dec.json"
    f.write_text(json.dumps(data))
    code2, out2, _ = run_cli(["dtw", "-", "--dtd", str(f)], stdin=d_text)
    assert code2 == 0 and out2.startswith("valid")


def test_cli_decomp_json_roundtrip(tmp_path):
    c6 = write_graph_text(even_cycle(3))
    code, out, _ = run_cli(["pm", "decomp", "-"], stdin=c6)
    assert code == 0
    data = json.loads(out)
    tree = leaf_tree_from_json(data)
    assert leaf_tree_to_json(tree)["tree"] == data["tree"]
    # dev mode reports files left open as ResourceWarning on stderr
    f = tmp_path / "dec.json"
    f.write_text(out)
    g = tmp_path / "c6.b"
    g.write_text(c6)
    code, out, err = run_cli(["pm", "count", str(g), "--decomp", str(f)], flags=("-X", "dev"))
    assert code == 0 and out.strip() == "2" and "ResourceWarning" not in err
    # malformed decompositions are errors, not "no"; the asymmetric tree
    # passes the edge-count and connectivity checks, and a walk that roots
    # it never ends
    k2_file = tmp_path / "k2.b"
    k2_file.write_text("b 1 1\ne 1 2\n")
    d2_file = tmp_path / "d2.d"
    d2_file.write_text("d 2\na 1 2\na 2 1\n")
    for i, text in enumerate((
        '{"tree": 1',
        '{"schema": 1}',
        '{"tree": [[1, 2], [2], [0]], "leaf_map": {"1": 1, "2": 2}, "root": 0}',
        '{"nodes": [{"id": 0, "parent": 7}]}',
    )):
        bad = tmp_path / f"bad{i}.json"
        bad.write_text(text)
        for cmd in (
            ["pm", "count", str(k2_file), "--decomp", str(bad)],
            ["dtw", str(d2_file), "--dtd", str(bad)],
        ):
            code, out, err = run_cli(cmd)
            assert code == 2 and out == "" and err.startswith("error:")
            assert "Traceback" not in err
    # a valid cubic tree with four leaves over the 2 x 2 grid, its root id in
    # range, then out of range
    grid_file = tmp_path / "grid.b"
    grid_file.write_text(write_graph_text(square_grid(2, 2)))
    tree = {
        "tree": [[1, 2, 3], [0, 4, 5], [0], [0], [1], [1]],
        "leaf_map": {"2": 1, "3": 3, "4": 2, "5": 4},
    }
    rooted = tmp_path / "rooted.json"
    for root, want in ((0, 0), (99, 2), (-1, 2), (-3, 2)):
        rooted.write_text(json.dumps({**tree, "root": root}))
        code, out, err = run_cli(["pm", "count", str(grid_file), "--decomp", str(rooted)])
        assert code == want and "Traceback" not in err, (root, err)
        if want == 0:
            assert out == "2\n"
        else:
            assert out == "" and err.startswith("error:"), root


# the first 64 bytes of an x86-64 ELF executable; byte 40 (0xf0) is no UTF-8
ELF_HEAD = (
    b"\x7fELF\x02\x01\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x03\x00>\x00\x01\x00"
    b"\x00\x00`\x10\x00\x00\x00\x00\x00\x00@\x00\x00\x00\x00\x00\x00\x00\xf0:\x00\x00"
    b"\x00\x00\x00\x00\x00\x00\x00\x00@\x008\x00\r\x00@\x00'\x00&\x00"
)


def test_cli_error_exit(tmp_path):
    code, _, err = run_cli(["pm", "count", "/nonexistent/file"])
    assert code == 2 and "error" in err
    binary = tmp_path / "elf"
    binary.write_bytes(ELF_HEAD)
    code, out, err = run_cli(["pm", "count", str(binary)])
    assert code == 2 and out == "" and err.startswith("error:")
    assert "Traceback" not in err
    proc = subprocess.run(
        [sys.executable, "-m", "matchwidth.cli", "pm", "count", "-"],
        input=ELF_HEAD,
        capture_output=True,
    )
    assert proc.returncode == 2 and proc.stdout == b""
    assert proc.stderr.startswith(b"error:") and b"Traceback" not in proc.stderr


def test_cli_malformed_matching_file(tmp_path):
    graph = tmp_path / "c4.txt"
    graph.write_text(write_graph_text(even_cycle(2)))
    bad_endpoint = tmp_path / "m.txt"
    bad_endpoint.write_text("m\ne x 3\ne 2 4\n")
    binary = tmp_path / "elf"
    binary.write_bytes(ELF_HEAD)
    # pairs that are no edge of C4: inside V1, a zero end, a negative end
    no_edges = [tmp_path / f"no_edge{i}.txt" for i in range(3)]
    for f, pair in zip(no_edges, ("1 2", "0 3", "-1 3")):
        f.write_text(f"m\ne {pair}\n")
    for matching in (bad_endpoint, binary, *no_edges):
        for cmd in (
            ["guard", str(graph), "1", "--matching", str(matching)],
            ["direction", str(graph), "--matching", str(matching)],
            ["dapp", str(graph), "--pairs", "1:3", "--extend", str(matching)],
        ):
            code, out, err = run_cli(cmd)
            assert code == 2 and out == "" and err.startswith("error:"), (cmd, err)
            assert "Traceback" not in err
    with pytest.raises(ParseError, match="line 2: malformed endpoint"):
        parse_matching_text("m\ne x 3\n", even_cycle(2))


def test_cli_ears_and_cops_and_dm():
    c6 = write_graph_text(even_cycle(3))
    code, out, _ = run_cli(["ears", "-"], stdin=c6)
    assert code == 0 and out.startswith("stage 1")
    code, out, _ = run_cli(["cops", "-"], stdin="d 2\na 1 2\na 2 1\n")
    assert code == 0 and "caught" in out
    code, out, _ = run_cli(["dm", "-"], stdin="b 2 2\ne 1 3\ne 2 3\ne 2 4\n")
    assert code == 0 and "component" in out


def test_cli_cops_json(tmp_path, capsys):
    # `cops_play` returns only on capture, so "caught" is always true
    cases = [
        ("d 1\n", 0, 1, 1),
        ("d 2\na 1 2\na 2 1\n", 1, 2, 2),
        ("d 3\na 1 2\na 2 3\n", 0, 1, 4),
        ("d 4\na 1 2\na 2 3\na 3 4\na 4 1\n", 1, 2, 6),
        ("d 3\na 1 2\na 2 1\na 2 3\na 3 2\na 1 3\na 3 1\n", 1, 3, 2),
        ("d 6\na 1 2\na 2 3\na 3 1\na 3 4\na 4 5\na 5 6\na 6 4\na 5 2\n", 1, 2, 10),
    ]
    f = tmp_path / "d.txt"
    for text, width, most, rounds in cases:
        f.write_text(text)
        assert main(["--json", "cops", str(f)]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "caught": True,
            "cycle_width": width,
            "max_cops": most,
            "rounds": rounds,
            "schema": 1,
        }


def test_cli_minor(tmp_path):
    c6 = write_graph_text(even_cycle(3))
    c4 = write_graph_text(even_cycle(2))
    # two stdin sources are unsupported: the first one reads all of stdin
    code, _, err = run_cli(["minor", "-", "/dev/stdin"], stdin=c6)
    assert code == 2 and err.strip() == "error: empty input"
    fb = tmp_path / "b.txt"
    fh = tmp_path / "h.txt"
    fb.write_text(c6)
    fh.write_text(c4)
    fb, fh = str(fb), str(fh)
    code, out, _ = run_cli(["minor", fb, fh])
    assert code == 0 and out.strip() == "yes"
    code, out, _ = run_cli(["minor", fb, fh, "--oracle"])
    assert code == 0 and out.strip() == "yes"
    code, out, _ = run_cli(["bminor", fh, fh])
    # bminor expects digraphs: exit 2
    assert code == 2


def test_cli_main_keeps_no_state_between_calls(tmp_path, capsys):
    # `main` reuses one parser within a process; nothing of one call's
    # arguments may reach the next
    fb = tmp_path / "b.txt"
    fh = tmp_path / "h.txt"
    fb.write_text(write_graph_text(even_cycle(3)))
    fh.write_text(write_graph_text(even_cycle(2)))
    fb, fh = str(fb), str(fh)
    assert main(["--json", "minor", fb, fh, "--oracle"]) == 0
    assert json.loads(capsys.readouterr().out)["contains"] is True
    assert main(["minor", fb, fh]) == 0
    assert capsys.readouterr().out == "yes\n"
    with pytest.raises(SystemExit) as exc:
        main(["--json", "minor", fb])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["minor", fh, fb]) == 1
    assert capsys.readouterr().out == "no\n"
    assert main(["minor", fb, fh]) == 0
    assert capsys.readouterr().out == "yes\n"


def test_cli_minor_calls_share_one_pattern(tmp_path, capsys):
    # in-process calls on one pattern file reuse its analysis; the answers
    # still equal the oracle's, and a pattern that is not matching covered
    # is refused on every call
    rng = random.Random(4)
    fh = tmp_path / "h.txt"
    fh.write_text(write_graph_text(even_cycle(3)))
    answers = []
    for i in range(6):
        fb = tmp_path / f"b{i}.txt"
        b = random_bipartite_with_pm(rng, rng.randint(3, 5), rng.randint(3, 8))
        fb.write_text(write_graph_text(b))
        code = main(["minor", str(fb), str(fh)])
        assert code == main(["minor", str(fb), str(fh), "--oracle"]), fb.read_text()
        answers.append(code)
    assert set(answers) == {0, 1}
    capsys.readouterr()
    path = tmp_path / "path.txt"
    path.write_text("b 2 2\ne 1 3\ne 2 3\ne 2 4\n")
    for _ in range(2):
        assert main(["minor", str(fb), str(path)]) == 2
        assert capsys.readouterr().err == "error: pattern must be matching covered\n"


def test_cli_empty_graph(tmp_path, capsys):
    # the empty graph has exactly one perfect matching, the empty one
    f = tmp_path / "empty.b"
    f.write_text("b 0 0\n")
    assert main(["pm", "count", str(f)]) == 0
    assert capsys.readouterr().out == "1\n"
    assert main(["pm", "count", "--oracle", str(f)]) == 0
    assert capsys.readouterr().out == "1\n"
    for what in ("width", "decomp"):
        assert main(["pm", what, str(f)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the empty graph has no decomposition\n"


def test_cli_count_beyond_the_search_limit_by_components(tmp_path, capsys):
    # five C6 copies chained by one edge from copy i's V1 to copy i+1's V2:
    # no chain edge is admissible, so n1 = 15 splits into five C6 components,
    # each within the exact decomposition search
    edges = []
    for i in range(5):
        a, b = 3 * i, 15 + 3 * i
        edges += [(a + k, b + k) for k in (1, 2, 3)]
        edges += [(a + 1, b + 2), (a + 2, b + 3), (a + 3, b + 1)]
        if i < 4:
            edges.append((a + 1, b + 4))
    f = tmp_path / "chain.b"
    f.write_text("".join(["b 15 15\n"] + [f"e {u} {v}\n" for u, v in edges]))
    assert main(["pm", "count", str(f)]) == 0
    assert capsys.readouterr().out == "32\n"


def test_cli_count_without_perfect_matching(tmp_path, capsys):
    # a V2 vertex of degree 0, and unbalanced colour classes
    for text in ("b 2 2\ne 1 3\ne 2 3\n", "b 2 1\ne 1 3\ne 2 3\n"):
        f = tmp_path / "g.b"
        f.write_text(text)
        for flags in ([], ["--oracle"]):
            assert main(["pm", "count", *flags, str(f)]) == 0
            assert capsys.readouterr().out == "0\n"


def test_cli_questions_on_a_matching_refuse_a_graph_without_one(tmp_path, capsys):
    # K_{6,5} plus an isolated V2 vertex: 12 vertices, past the exact width
    # search, and no perfect matching
    path = tmp_path / "g.b"
    path.write_text("".join(["b 6 6\n"] + [f"e {u} {v}\n" for u in range(1, 7) for v in range(7, 12)]))
    f = str(path)
    for argv in (["pm", "width", f], ["pm", "decomp", f], ["guard", f, "1"], ["direction", f]):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: graph has no perfect matching\n")


def test_cli_pm_runs_hopcroft_karp_once_per_question(tmp_path, capsys, monkeypatch):
    # the 3 x 4 grid has 12 vertices, past the exact width search; each
    # question finds one perfect matching, and the decomposition, its width
    # and the count all use that one
    import matchwidth.bigraph as bigraph

    runs = [0]
    max_matching = bigraph.max_matching

    def counted(*args):
        runs[0] += 1
        return max_matching(*args)

    monkeypatch.setattr(bigraph, "max_matching", counted)
    f = tmp_path / "grid.b"
    f.write_text(write_graph_text(square_grid(3, 4)))
    for what in ("count", "width", "decomp"):
        runs[0] = 0
        assert main(["pm", what, str(f)]) == 0
        capsys.readouterr()
        assert runs[0] == 1, what


def test_cli_pm_width_is_the_decomp_width(tmp_path, capsys):
    # past the exact width search, `pm width` and `pm decomp` report the
    # width of the one tree the pipeline builds, and `pmd_width` agrees
    widths = []
    for b in (square_grid(3, 4), cylindrical_grid(2)[0]):
        assert b.n > PMW_ORACLE_LIMIT
        f = tmp_path / "g.b"
        f.write_text(write_graph_text(b))
        assert main(["pm", "decomp", str(f)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert main(["--json", "pm", "width", str(f)]) == 0
        answer = json.loads(capsys.readouterr().out)
        assert answer["exact"] is False
        assert data["width"] == pmd_width(b, leaf_tree_from_json(data)) == answer["width"]
        widths.append(answer["width"])
    assert widths == [2, 4]


def test_cli_rejects_ignored_flags(tmp_path, capsys):
    # each flag here used to be dropped without a word; a missing --decomp
    # file must not matter, since the flags are checked first
    c4 = tmp_path / "c4.b"
    c4.write_text(write_graph_text(even_cycle(2)))
    d2 = tmp_path / "d2.d"
    d2.write_text("d 2\na 1 2\na 2 1\n")
    m = tmp_path / "m.txt"
    m.write_text("m\ne 1 3\ne 2 4\n")
    missing = str(tmp_path / "missing.json")
    witness = tmp_path / "w.json"
    cases = [
        (["pm", "width", str(c4), "--oracle"], "--oracle applies to pm count only"),
        (["pm", "width", str(c4), "--decomp", missing], "--decomp applies to pm count only"),
        (["pm", "decomp", str(c4), "--decomp", missing], "--decomp applies to pm count only"),
        (["pm", "count", str(c4), "--oracle", "--decomp", str(c4)], "--oracle and --decomp exclude each other"),
        (["dapp", str(c4), "--pairs", "1:4", "--oracle", "--extend", str(m)], "--oracle and --extend exclude each other"),
        (["dapp", str(c4), "--pairs", "1:4", "--witness", str(witness)], "--witness needs --oracle"),
        (["dtw", str(d2), "--proto"], "--proto needs --dtd"),
    ]
    for argv, message in cases:
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n", argv
    assert not witness.exists()


def test_cli_gen_rejects_bad_parameters(tmp_path, capsys):
    h = tmp_path / "h.d"
    h.write_text("d 2\na 1 2\na 2 1\n")
    cases = [
        (["gen", "cg", "0"], "order 0 is not positive"),
        (["gen", "cg", "-1"], "order -1 is not positive"),
        (["gen", "cgq", "0"], "order 0 is not positive"),
        (["gen", "random", "-3"], "vertex count -3 is negative"),
        (["gen", "random", "2", "--p", "5"], "edge probability 5.0 is not in [0, 1]"),
        (["gen", "random", "2", "--p", "-0.5"], "edge probability -0.5 is not in [0, 1]"),
        (["gen", "ep-gadget", str(h), "1", "1", "1"], "(1, 1) is not an arc of the pattern"),
        (["gen", "ep-gadget", str(h), "1", "2", "0"], "order 0 is not positive"),
    ]
    for argv, message in cases:
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n", argv


_small = st.integers(min_value=-2, max_value=4)
_token = st.one_of(_small.map(str), st.sampled_from(["", "x", "1.5", "-", "#"]))
# mostly well-formed lines with small, zero and negative counts and ends
_line = st.one_of(
    st.tuples(st.sampled_from(["b", "e", "a"]), _small, _small).map(lambda t: "%s %d %d" % t),
    st.tuples(st.just("d"), _small).map(lambda t: "%s %d" % t),
    st.lists(_token, max_size=4).map(" ".join),
)
_graph_text = st.lists(_line, min_size=1, max_size=7).map("\n".join)
_argv_tail = st.one_of(
    st.tuples(st.sampled_from(["count", "width", "decomp"]), st.sampled_from([[], ["--oracle"]])).map(
        lambda t: ["pm", t[0], "GRAPH", *t[1]]
    ),
    st.lists(_token, max_size=3).map(lambda xs: ["cut", "porosity", "GRAPH", ",".join(xs)]),
    st.tuples(st.sampled_from(["cg", "cgq", "random"]), _small).map(lambda t: ["gen", t[0], str(t[1])]),
    st.tuples(_small, _small).map(lambda t: ["gen", "grid", str(t[0]), str(t[1])]),
    st.tuples(_small, _small, _small).map(lambda t: ["gen", "ep-gadget", "GRAPH", *map(str, t)]),
)
# well-formed bipartite graphs on n + n vertices, so that questions such as
# `minor` get past the parser and its size exits
_bipartite_text = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(
        st.tuples(st.integers(1, n), st.integers(n + 1, 2 * n)), max_size=3 * n
    ).map(lambda es: "".join([f"b {n} {n}\n"] + [f"e {u} {v}\n" for u, v in es]))
)

# digraphs on 2-4 vertices without loops, for the digraph questions
_digraph_text = st.integers(min_value=2, max_value=4).flatmap(
    lambda n: st.lists(
        st.tuples(st.integers(1, n), st.integers(1, n - 1)).map(
            lambda t: (t[0], t[1] + (t[1] >= t[0]))
        ),
        max_size=2 * n,
    ).map(lambda arcs: "".join([f"d {n}\n"] + [f"a {u} {v}\n" for u, v in arcs]))
)
_pairs = st.one_of(
    st.lists(st.tuples(_small, _small), max_size=3).map(
        lambda ps: ",".join(f"{s}:{t}" for s, t in ps)
    ),
    st.lists(_token, max_size=3).map(",".join),
)
# the other subcommands, each with the kind of graph text it reads
_other_questions = st.one_of(
    st.tuples(
        st.one_of(_graph_text, _bipartite_text),
        st.one_of(
            st.tuples(_pairs, st.sampled_from([[], ["--oracle"], ["--extend", "GRAPH"]])).map(
                lambda t: ["dapp", "GRAPH", "--pairs", t[0], *t[1]]
            ),
            st.tuples(
                st.lists(_token, max_size=3), st.sampled_from([[], ["--matching", "GRAPH"]])
            ).map(lambda t: ["guard", "GRAPH", ",".join(t[0]), *t[1]]),
            st.sampled_from(
                [
                    ["pm", "count", "GRAPH", "--decomp", "GRAPH"],
                    ["direction", "GRAPH"],
                    ["dm", "GRAPH"],
                    ["ears", "GRAPH"],
                ]
            ),
        ),
    ),
    st.tuples(
        st.one_of(_graph_text, _digraph_text),
        st.sampled_from(
            [
                ["dtw", "GRAPH"],
                ["dtw", "GRAPH", "--dtd", "GRAPH"],
                ["cops", "GRAPH"],
                ["split", "GRAPH"],
                ["bminor", "GRAPH", "GRAPH"],
                ["antichain", "GRAPH", "GRAPH"],
                ["strongplanar", "GRAPH"],
            ]
        ),
    ),
)


def _assert_exit_contract(text, argv, second=""):
    # whatever the input, the CLI answers 0, 1 or 2 and raises nothing else;
    # GRAPH in argv stands for a file holding text, SECOND for one holding
    # second, C4 for one holding C4
    with tempfile.TemporaryDirectory() as tmp:
        graph = Path(tmp) / "g.txt"
        graph.write_text(text)
        other = Path(tmp) / "second.txt"
        other.write_text(second)
        c4 = Path(tmp) / "c4.txt"
        c4.write_text(write_graph_text(even_cycle(2)))
        files = {"GRAPH": str(graph), "SECOND": str(other), "C4": str(c4)}
        argv = [files.get(a, a) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
    assert code in (0, 1, 2), (argv, text, second)
    if code == 2 and not err.getvalue().startswith("usage:"):
        assert err.getvalue().startswith("error: "), (argv, text, second)


@settings(max_examples=100, deadline=None)
@given(text=_graph_text, argv=_argv_tail)
def test_cli_fuzz_keeps_exit_contract(text, argv):
    _assert_exit_contract(text, argv)


@settings(max_examples=50, deadline=None)
@given(
    text=st.one_of(_graph_text, _bipartite_text),
    argv=st.sampled_from([["minor", "GRAPH", "GRAPH"], ["minor", "GRAPH", "C4"]]),
)
def test_cli_fuzz_minor_keeps_exit_contract(text, argv):
    _assert_exit_contract(text, argv)


@settings(max_examples=100, deadline=None)
@given(question=_other_questions)
def test_cli_fuzz_other_subcommands_keep_exit_contract(question):
    _assert_exit_contract(*question)


# well-formed matching files whose ends are small, zero, negative or in one
# colour class, for the questions that read a matching
_matching_question = st.tuples(
    st.one_of(st.just(write_graph_text(even_cycle(2))), _bipartite_text),
    st.sampled_from(
        [
            ["direction", "GRAPH", "--matching", "SECOND"],
            ["guard", "GRAPH", "1", "--matching", "SECOND"],
            ["dapp", "GRAPH", "--pairs", "1:3", "--extend", "SECOND"],
        ]
    ),
    st.lists(st.tuples(_small, st.integers(-1, 6)), max_size=3).map(
        lambda es: "".join(["m\n"] + [f"e {u} {v}\n" for u, v in es])
    ),
)


@st.composite
def _decomp_question(draw):
    """A bipartite graph on n + n vertices and decomposition JSON for it: a
    cubic tree over its vertices or rows of small node ids, with leaf and
    root ids in and out of range."""
    text = draw(_bipartite_text)
    n = int(text.split()[1])
    if draw(st.booleans()):
        tree = random_cubic_tree(draw(st.randoms(use_true_random=False)), range(1, 2 * n + 1), None)
        rows = [sorted(nbrs) for nbrs in tree.adj]
        leaf_map = {str(x): v for x, v in tree.leaf_map.items()}
    else:
        m = draw(st.integers(min_value=1, max_value=6))
        ids = st.integers(min_value=-1, max_value=m)
        rows = draw(st.lists(st.lists(ids, max_size=3), min_size=m, max_size=m))
        leaf_map = draw(st.dictionaries(ids.map(str), st.integers(-1, 2 * n + 1), max_size=m))
    data = {"tree": rows, "leaf_map": leaf_map}
    root = draw(st.one_of(st.none(), st.integers(min_value=-3, max_value=len(rows) + 2)))
    if root is not None:
        data["root"] = root
    return text, ["pm", "count", "GRAPH", "--decomp", "SECOND"], json.dumps(data)


@settings(max_examples=100, deadline=None)
@given(question=_matching_question)
def test_cli_fuzz_matching_files_keep_exit_contract(question):
    _assert_exit_contract(*question)


@settings(max_examples=100, deadline=None)
@given(question=_decomp_question())
def test_cli_fuzz_decomposition_json_keeps_exit_contract(question):
    _assert_exit_contract(*question)


def test_cli_negative_header_count(tmp_path, capsys):
    f = tmp_path / "g.txt"
    for text in ("b -1 2\n", "d -1\n"):
        f.write_text(text)
        assert main(["cut", "porosity", str(f), ""]) == 2
        assert capsys.readouterr().err == "error: line 1: negative vertex count\n"

"""Self-tests of the benchmark.  Run with `python3 -m pytest -q bench`."""

from __future__ import annotations

import inspect
import json
import sys
from pathlib import Path

import pytest

import layers
import program
import workloads
from check import Checker, domino_tilings, ladder_count
from run import END_TO_END_UNITS, SRC, UNLISTED, WORKLOADS, ask
from speed import NOMINAL_S, factors
import spans
from spans import Tracer, self_times

cli = program.load(SRC)

from matchwidth import bigraph, counting, decomp, linkage  # noqa: E402
from matchwidth.grids import cylindrical_grid, square_grid  # noqa: E402
from matchwidth.isomorphism import bipartite_isomorphic  # noqa: E402


def _bigraph(g):
    return bigraph.graph_from_edges(*g)


def _pool(workload, seed, root):
    questions = workloads.build_questions(workload, seed)
    files = workloads.write_pool(questions, root)
    return questions, {p.name: p.read_bytes() for p in files}


# -- generator ----------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_identical_files(workload, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    (tmp_path / "c").mkdir()
    _, first = _pool(workload, 7, tmp_path / "a")
    _, again = _pool(workload, 7, tmp_path / "b")
    _, other = _pool(workload, 8, tmp_path / "c")
    assert first == again
    assert first != other


def test_families_match_the_package_generators():
    assert bipartite_isomorphic(_bigraph(workloads.square_grid(3, 4)), square_grid(3, 4))
    cg, _, _ = cylindrical_grid(2)
    assert bipartite_isomorphic(_bigraph(workloads.cylindrical_grid(2)), cg)


def test_dapp_pairs_are_non_adjacent_with_distinct_terminals():
    for q in workloads.build_questions("dapp", 3):
        edges = set(q.graph[2])
        assert all(p not in edges for p in q.pairs)
        terminals = [x for p in q.pairs for x in p]
        assert len(terminals) == len(set(terminals))


def test_grid_oracles():
    for rows, cols in ((2, 4), (3, 4), (4, 4), (4, 6)):
        assert domino_tilings(rows, cols) == counting.count_pm_bruteforce(
            _bigraph(workloads.square_grid(rows, cols)), limit=24
        )
    assert [ladder_count(k) for k in range(1, 7)] == [1, 2, 3, 5, 8, 13]


# -- checker ------------------------------------------------------------------


def _answered(workload, kind, tmp_path):
    questions = workloads.build_questions(workload, 1)
    workloads.write_pool(questions, tmp_path)
    index = next(i for i, q in enumerate(questions) if q.kind == kind)
    return Checker(questions), index, ask(cli, questions[index].argv)


def test_checker_rejects_a_wrong_count(tmp_path):
    checker, index, (code, out, exc) = _answered("pm-sparse", "count", tmp_path)
    assert checker.check(index, (code, out, exc)) is None
    wrong = json.dumps({"count": str(int(json.loads(out)["count"]) + 1)})
    assert checker.check(index, (code, wrong, exc)) == "WrongAnswer"


def test_checker_rejects_a_flipped_answer(tmp_path):
    checker, index, (code, out, exc) = _answered("dapp", "dapp", tmp_path)
    assert checker.check(index, (code, out, exc)) is None
    got = json.loads(out)["solvable"]
    flipped = json.dumps({"solvable": not got})
    assert checker.check(index, (1 - code, flipped, exc)) == "WrongAnswer"


def test_checker_rejects_an_invalid_decomposition(tmp_path):
    checker, index, (code, out, exc) = _answered("pm-sparse", "decomp", tmp_path)
    assert checker.check(index, (code, out, exc)) is None
    payload = json.loads(out)
    wider = dict(payload, width=payload["width"] + 1)
    assert checker.check(index, (code, json.dumps(wider), exc)) == "WrongWidth"
    lost_leaf = dict(payload, leaf_map=dict(list(payload["leaf_map"].items())[1:]))
    assert checker.check(index, (code, json.dumps(lost_leaf), exc)) == "InvalidDecomposition"


def test_checker_certifies_a_width_only_by_an_accepted_decomposition(tmp_path):
    questions = workloads.build_questions("pm-sparse", 1)
    workloads.write_pool(questions, tmp_path)
    decomp = next(i for i, q in enumerate(questions) if q.kind == "decomp")
    width = next(
        i
        for i, q in enumerate(questions)
        if q.kind == "width" and q.graph == questions[decomp].graph
    )
    checker = Checker(questions)
    answer = ask(cli, questions[width].argv)
    assert checker.check(width, answer) == "Uncertified"
    assert checker.check(decomp, ask(cli, questions[decomp].argv)) is None
    fresh = Checker(questions)
    assert fresh.check(decomp, ask(cli, questions[decomp].argv)) is None
    assert fresh.check(width, answer) is None


def test_checker_reports_errors_and_exceptions(tmp_path):
    checker, index, _ = _answered("minor", "minor", tmp_path)
    assert checker.check(index, (2, "", None)) == "exit2"
    assert checker.check(index, (None, "", "NotNice")) == "NotNice"


# -- speed scaling ------------------------------------------------------------


def test_speed_factors_follow_the_probes_around_each_position():
    assert factors([NOMINAL_S] * 5) == [1.0] * 5
    slow = factors([2 * NOMINAL_S] * 100 + [NOMINAL_S] * 100)
    assert slow[0] == pytest.approx(0.5)
    assert slow[-1] == pytest.approx(1.0)
    # one slow probe among fast ones does not move the factor
    assert factors([NOMINAL_S] * 10 + [5 * NOMINAL_S] + [NOMINAL_S] * 10)[10] == 1.0


# -- tracer -------------------------------------------------------------------


def test_self_time_of_a_nested_call():
    spans = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 3.0, 0),
        ("c", 2.0, 2.5, 1),
        ("b", 4.0, 6.0, 0),
        ("c", 7.0, 9.0, 0),
    ]
    totals = self_times(spans)
    assert totals["a"].self_s == pytest.approx(4.0)
    assert totals["b"].self_s == pytest.approx(3.5)
    assert totals["b"].calls == 2
    assert totals["c"].self_s == pytest.approx(2.5)
    assert sum(t.self_s for t in totals.values()) == pytest.approx(10.0)


def _function_bindings():
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name.startswith("matchwidth")
        for attr, value in vars(module).items()
        if inspect.isfunction(value)
    }


def test_bindings_are_restored_after_a_traced_run(tmp_path):
    before = _function_bindings()
    g = _bigraph(workloads.square_grid(2, 4))
    with Tracer(layers.span_targets() + ["decomp.no_such_function"]) as tracer:
        # names imported across modules are rebound together
        assert linkage.dtw_exact_small is decomp.dtw_exact_small
        assert linkage.dtw_exact_small is not before[("matchwidth.decomp", "dtw_exact_small")]
        assert counting.count_pm(g) == 5
        tracer.flush()
    assert _function_bindings() == before
    assert tracer.missing == ["decomp.no_such_function"]
    assert tracer.totals["decomp.dtw_exact_small"].calls == 1
    assert tracer.counters["counting.table_entries"] > 0


def test_traced_self_times_cover_the_question(tmp_path):
    (tmp_path / "g.txt").write_text(workloads.graph_text(workloads.square_grid(3, 4)))
    with Tracer(layers.span_targets()) as tracer:
        code, out, _ = ask(cli, ["--json", "pm", "count", str(tmp_path / "g.txt")])
        root = [s for s in tracer.spans if s[3] == -1]
        tracer.flush()
    assert (code, json.loads(out)["count"]) == (0, "11")
    assert len(root) == 1 and root[0][0] == "cli.main"
    total = sum(t.self_s for t in tracer.totals.values())
    assert total == pytest.approx(root[0][2] - root[0][1])


# -- BENCHMARK.json -----------------------------------------------------------


def test_benchmark_json_lists_what_the_runner_reports():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == [w for w in WORKLOADS if w not in UNLISTED]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _ in layers.PER_LAYER
    ]


def test_a_hook_whose_parameter_is_gone_starts_no_counter():
    def count_pm_decomp(g, dec, width=None):  # a later signature without `stats`
        return 0

    tracer = Tracer([])
    assert spans._count_stats(tracer, count_pm_decomp) is None
    assert "counting.table_entries" not in tracer.counters

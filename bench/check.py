"""Answer checker.  Runs outside the timed region.

Counts are checked against the in-repo permanent oracle or, for grids and
ladders, against a broken-profile domino DP and Fibonacci numbers written
here.  Decompositions are re-validated and their width recomputed; `pm
width` must not exceed the width certified by an accepted `pm decomp`
answer on the same graph, checked earlier, and fails as "Uncertified"
without one; `dapp` and `minor` answers are compared with the in-repo
exhaustive oracles.
"""

from __future__ import annotations

import json
import time
from functools import lru_cache

from workloads import Graph, Question

# A CLI answer: (exit code or None when it raised, stdout, exception class).
Answer = tuple[int | None, str, str | None]

# Verdicts that mean the program printed a wrong answer, as opposed to
# failing with an error (exit 2, given as "exit2") or an exception (its class).
WRONG_OUTPUT = {"WrongAnswer", "WrongWidth", "InvalidDecomposition", "Unparsable", "WrongExit"}


def domino_tilings(rows: int, cols: int) -> int:
    """Perfect matchings of the rows x cols grid (broken-profile DP)."""
    if rows * cols % 2:
        return 0

    @lru_cache(maxsize=None)
    def rec(cell: int, profile: int) -> int:
        if cell == rows * cols:
            return 1 if profile == 0 else 0
        r, c = divmod(cell, cols)
        if profile & 1:
            return rec(cell + 1, profile >> 1)
        total = 0
        if r + 1 < rows:
            total += rec(cell + 1, (profile >> 1) | (1 << (cols - 1)))
        if c + 1 < cols and not (profile >> 1) & 1:
            total += rec(cell + 2, profile >> 2)
        return total

    return rec(0, 0)


def ladder_count(k: int) -> int:
    """Perfect matchings of the 2 x k ladder: the Fibonacci number F(k+1)."""
    a, b = 1, 1
    for _ in range(k - 1):
        a, b = b, a + b
    return b


def _bigraph(g: Graph):
    from matchwidth.bigraph import graph_from_edges

    n1, n2, edges = g
    return graph_from_edges(n1, n2, edges)


class Checker:
    """Checks answers, caching the oracle's verdict per distinct question.

    `oracle_s` sums the time of in-repo oracle calls per question index, for
    the oracle-to-production ratio.
    """

    def __init__(self, questions: list[Question]):
        self.questions = questions
        self.oracle_s: dict[int, float] = {}
        self._expected: dict[int, object] = {}
        self._verdicts: dict[tuple[int, Answer], str | None] = {}
        self._certified: dict[Graph, int] = {}

    def check(self, index: int, answer: Answer) -> str | None:
        """None if the answer is right, else the reason it is rejected."""
        key = (index, answer)
        if key not in self._verdicts:
            self._verdicts[key] = self._check(index, answer)
        return self._verdicts[key]

    def _check(self, index: int, answer: Answer) -> str | None:
        code, out, exc = answer
        if exc is not None:
            return exc
        q = self.questions[index]
        yes_no = q.kind in ("dapp", "minor")
        if code == 2:
            return "exit2"
        if code not in ((0, 1) if yes_no else (0,)):
            return "WrongExit"
        try:
            payload = json.loads(out.strip().splitlines()[-1])
            if yes_no:
                got = payload["solvable" if q.kind == "dapp" else "contains"]
                if got is not (code == 0):
                    return "WrongAnswer"
                return None if got == self._oracle(index) else "WrongAnswer"
            if q.kind == "count":
                return None if int(payload["count"]) == self._oracle(index) else "WrongAnswer"
            if q.kind == "decomp":
                return self._check_decomp(q, payload)
            certified = self._certified.get(q.graph)
            if certified is None:
                return "Uncertified"
            width = payload["width"]
            if not isinstance(width, int) or not 0 <= width <= certified:
                return "WrongAnswer"
            return None
        except (ValueError, KeyError, TypeError, IndexError, AttributeError):
            return "Unparsable"

    def _check_decomp(self, q: Question, payload: dict) -> str | None:
        from matchwidth.decomp import pmd_width
        from matchwidth.errors import MatchwidthError
        from matchwidth.io import leaf_tree_from_json

        b = _bigraph(q.graph)
        try:
            tree = leaf_tree_from_json(payload)
            tree.validate(b.vertices)
            width = pmd_width(b, tree)
        except MatchwidthError:
            return "InvalidDecomposition"
        if width != payload["width"]:
            return "WrongWidth"
        self._certified.setdefault(q.graph, width)
        return None

    def _oracle(self, index: int):
        if index in self._expected:
            return self._expected[index]
        q = self.questions[index]
        start = time.perf_counter()
        timed = True
        if q.kind == "count" and q.oracle[0] == "ladder":
            value, timed = ladder_count(q.oracle[1]), False
        elif q.kind == "count" and q.oracle[0] == "grid":
            value, timed = domino_tilings(*q.oracle[1:]), False
        elif q.kind == "count":
            from matchwidth.counting import count_pm_bruteforce

            value = count_pm_bruteforce(_bigraph(q.graph), limit=24)
        elif q.kind == "dapp":
            from matchwidth.linkage import dapp_bruteforce

            b = _bigraph(q.graph)
            value = dapp_bruteforce(b, list(q.pairs), limit=b.n)[0]
        else:
            from matchwidth.minors import matching_minor_bruteforce

            value = matching_minor_bruteforce(_bigraph(q.graph), _bigraph(q.pattern))
        if timed:
            self.oracle_s[index] = time.perf_counter() - start
        self._expected[index] = value
        return value

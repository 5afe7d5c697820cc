"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s`` to see
them).  Every expected value here was produced by at least two independent
routes before being frozen: graph-level counts by an exhaustive scan and by
the diagonal method on the actually constructed graphs, formula values by
the recurrence and by the derived closed form.
"""

from __future__ import annotations

import json
import random
import re
import time
from functools import lru_cache
from pathlib import Path

from blowup_census import (
    FORMULAS,
    Family,
    Rational,
    Variant,
    base_graph,
    base_invariants,
    blowup_levels,
    c4_closed_T,
    c4_partial_sums,
    count_induced_c4_diagonal,
    count_induced_c4_enum,
    cycle_graph,
    nested_blowup,
    non_edges,
    read_edge_list,
    theta_222,
    theta_closed_T,
    theta_partial_sums,
    write_edge_list,
)
from blowup_census.cli import main as cli_main
from helpers import random_graph, relabel

from math import comb


@lru_cache(maxsize=None)
def _level(family: Family, n: int):
    return nested_blowup(base_graph(family), n)


def _rule(family: str, n: int):
    """Level n of the family by the composition rule."""
    return blowup_levels(FORMULAS[family].base, n)[n]


def _report(num: int, detail: str) -> None:
    print(f"ACCEPTANCE {num}: PASS ({detail})")


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_1_base_case_values():
    # warm the numpy paths on a graph that is not under test
    count_induced_c4_enum(cycle_graph(5))
    c4 = cycle_graph(4)
    theta = theta_222()

    assert count_induced_c4_enum(c4).value == 1
    assert count_induced_c4_enum(theta).value == 3
    assert c4.non_edge_count == 2
    assert theta.non_edge_count == 4

    times = {
        "enum(c4)": _best_of(lambda: count_induced_c4_enum(c4)),
        "enum(theta)": _best_of(lambda: count_induced_c4_enum(theta)),
        "nonedges(c4)": _best_of(lambda: c4.non_edge_count),
        "nonedges(theta)": _best_of(lambda: theta.non_edge_count),
    }
    for name, elapsed in times.items():
        assert elapsed < 1e-3, f"{name} took {elapsed:.6f}s"
    worst = max(times.values())
    _report(1, f"1, 3, 2, 4 exact; slowest call {worst * 1e6:.0f}us < 1ms")


def test_criterion_2_c4_nonedges_vs_graph():
    expected = [2, 40, 672, 10880]
    t0 = time.perf_counter()
    for n in range(4):
        from_graph = _level(Family.C4, n).non_edge_count
        from_formula = _rule("c4", n).m
        assert from_graph == from_formula == expected[n]
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(2, f"graph == closed form == {expected} for N=0..3 in {elapsed:.3f}s < 1s")


def test_criterion_3_theta_nonedges_and_edges_vs_graph():
    expected_nonedges = [4, 120, 3100]
    expected_edges = [6, 180, 4650]
    t0 = time.perf_counter()
    for n in range(3):
        g = _level(Family.THETA222, n)
        assert g.non_edge_count == _rule("theta222", n).m == expected_nonedges[n]
        assert g.edge_count == _rule("theta222", n).edges == expected_edges[n]
        assert len(list(non_edges(g))) == expected_nonedges[n]
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(
        3,
        f"non-edges {expected_nonedges}, edges {expected_edges} dual-checked in "
        f"{elapsed:.3f}s < 1s",
    )


def test_criterion_4_c4_oracle_chain():
    expected = [1, 404, 114512]
    enum_n2_elapsed = None
    for n in range(3):
        g = _level(Family.C4, n)
        enum_result = count_induced_c4_enum(g)
        diag_result = count_induced_c4_diagonal(g)
        if n == 2:
            enum_n2_elapsed = enum_result.elapsed
        values = {
            enum_result.value,
            diag_result.value,
            _rule("c4", n).T,
            c4_closed_T(n, Variant.DERIVED),
        }
        assert values == {expected[n]}
    assert enum_n2_elapsed < 5.0
    _report(
        4,
        f"enum == diagonal == recurrence == derived == {expected}; "
        f"enum over C(64,4) took {enum_n2_elapsed:.2f}s < 5s",
    )


def test_criterion_5_c4_level_three():
    # reconfirmed through the recurrence and the derived closed form before
    # freezing; the graph-level counts below check it on the real 256-vertex
    # graph from two independent directions
    expected = 30051648
    assert _rule("c4", 3).T == expected
    assert c4_closed_T(3, Variant.DERIVED) == expected

    g = _level(Family.C4, 3)
    diag = count_induced_c4_diagonal(g)
    assert diag.value == expected
    enum = count_induced_c4_enum(g)
    assert enum.value == expected
    assert enum.elapsed < 120.0
    _report(
        5,
        f"diagonal {diag.value} == recurrence == enumeration; enum over "
        f"C(256,4)~1.7e8 took {enum.elapsed:.1f}s < 120s",
    )


def test_criterion_6_theta_oracle_chain():
    expected = [3, 2886, 1947705]
    enum_n2_elapsed = None
    for n in range(3):
        g = _level(Family.THETA222, n)
        enum_result = count_induced_c4_enum(g)
        diag_result = count_induced_c4_diagonal(g)
        if n == 2:
            enum_n2_elapsed = enum_result.elapsed
        values = {
            enum_result.value,
            diag_result.value,
            _rule("theta222", n).T,
            theta_closed_T(n, Variant.DERIVED),
        }
        assert values == {expected[n]}
    assert enum_n2_elapsed < 10.0

    g3 = _level(Family.THETA222, 3)
    diag3 = count_induced_c4_diagonal(g3)
    assert diag3.value == _rule("theta222", 3).T == 1235757900
    assert diag3.elapsed < 60.0
    _report(
        6,
        f"chain == {expected}, enum at N=2 {enum_n2_elapsed:.2f}s < 10s; "
        f"diagonal on 625 vertices {diag3.value} in {diag3.elapsed:.1f}s < 60s",
    )


def test_criterion_7_discrepancy_findings(tmp_path):
    c4_stated = c4_closed_T(0, Variant.STATED)
    assert isinstance(c4_stated, Rational)
    assert c4_stated.numerator % c4_stated.denominator != 0
    assert c4_stated.value != 1

    theta_stated = theta_closed_T(0, Variant.STATED)
    assert isinstance(theta_stated, Rational)
    assert theta_stated.value < 0
    assert theta_stated.value != 3

    flagged = {}
    for family in ("c4", "theta222"):
        out = tmp_path / f"{family}.json"
        code = cli_main(
            ["verify", "--family", family, "--max-level", "0", "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        flags = report["levels"][0]["match_flags"]
        assert flags.pop("closed_stated_vs_recurrence") is False
        assert all(flag is True for flag in flags.values())
        assert any(
            f["comparison"] == "closed_stated_vs_recurrence" for f in report["findings"]
        )
        flagged[family] = report["levels"][0]["T_closed_stated"]
    _report(
        7,
        f"stated variants {flagged['c4']} and {flagged['theta222']} flagged as "
        "findings, verify exits 0",
    )


def test_criterion_8_pure_formula_sweep():
    t0 = time.perf_counter()
    c4 = blowup_levels(FORMULAS["c4"].base, 31)
    theta = blowup_levels(FORMULAS["theta222"].base, 31)
    for n in range(31):
        # the paper's two non-edge shapes
        order = 4 ** (n + 1)
        assert 6 * c4[n].m == order * (order - 1)
        assert c4[n].m == comb(order, 2) - order * sum(4**i for i in range(n + 1))
        c4_sums = c4_partial_sums(n)
        assert c4_sums.q.agree and c4_sums.r.agree and c4_sums.s.agree
        assert c4_sums.total_summation == c4[n].T
        theta_sums = theta_partial_sums(n)
        assert theta_sums.q.agree and theta_sums.r.agree and theta_sums.s.agree
        assert theta_sums.total_summation == theta[n].T
        # divisibility: the derived closed forms come back as ints and match
        assert c4_closed_T(n, Variant.DERIVED) == c4[n].T
        assert theta_closed_T(n, Variant.DERIVED) == theta[n].T
        # induction steps of the non-edge formulas
        assert c4[n + 1].m == comb(4 ** (n + 2), 2) - 4 * c4[n].edges - 4 * order**2
        assert theta[n + 1].m == comb(5 ** (n + 2), 2) - theta[n + 1].edges
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(8, f"all formula identities hold exactly for N=0..30 in {elapsed:.3f}s < 1s")


def test_criterion_9_method_equivalence_and_invariance():
    t0 = time.perf_counter()
    densities = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    for seed in range(1000):
        n = 4 + seed % 29  # 4..32
        p = densities[seed % len(densities)]
        g = random_graph(n, p, seed)
        enum_value = count_induced_c4_enum(g).value
        diag_value = count_induced_c4_diagonal(g).value
        assert enum_value == diag_value, f"seed={seed} n={n} p={p}"

    for family, expected in [(Family.C4, 404), (Family.THETA222, 2886)]:
        g = _level(family, 1)
        for trial in range(100):
            perm = list(range(g.n))
            random.Random(trial).shuffle(perm)
            assert count_induced_c4_diagonal(relabel(g, perm)).value == expected
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(
        9,
        f"1000 seeded graphs agree across methods; 100 relabelings per family "
        f"invariant; {elapsed:.1f}s < 30s",
    )


def test_criterion_10_c4_level_four_diagonal():
    # no subset scan reaches C(1024, 4) ~ 4.6e10 under the default cap, so
    # the diagonal counter is the only graph-level check of this level
    expected = 7740798208
    assert _rule("c4", 4).T == c4_closed_T(4, Variant.DERIVED) == expected

    g = nested_blowup(base_graph(Family.C4), 4)
    assert (g.n, g.edge_count, g.non_edge_count) == (1024, 349184, 174592)
    diag = count_induced_c4_diagonal(g)
    assert diag.value == expected
    assert diag.elapsed < 60.0
    _report(
        10,
        f"diagonal on 1024 vertices {diag.value} == recurrence == derived in "
        f"{diag.elapsed:.1f}s < 60s",
    )


def test_criterion_11_level_four_edge_lists():
    # build -> write -> read at level 4 for both families; theta L4 has
    # 2.9e6 edge lines
    t0 = time.perf_counter()
    c4 = nested_blowup(base_graph(Family.C4), 4)
    assert read_edge_list(write_edge_list(c4)) == c4
    theta = nested_blowup(base_graph(Family.THETA222), 4)
    theta_text = write_edge_list(theta)
    edge_lines = theta_text.count("\n") - 1
    assert edge_lines == _rule("theta222", 4).edges == 2928750
    assert read_edge_list(theta_text) == theta
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(
        11,
        f"c4 L4 and theta L4 ({edge_lines} edge lines) round trips exact; "
        f"{elapsed:.1f}s < 10s",
    )


def test_criterion_12_theta_level_three_both_counters():
    # the default cap refuses C(625, 4) ~ 6.3e9 subsets; raised explicitly,
    # the subset scan confirms theta L3 beside the diagonal counter
    expected = 1235757900
    g = _level(Family.THETA222, 3)
    enum = count_induced_c4_enum(g, subset_cap=comb(625, 4))
    diag = count_induced_c4_diagonal(g)
    assert enum.value == diag.value == _rule("theta222", 3).T == expected
    assert enum.elapsed < 120.0
    _report(
        12,
        f"enumeration == diagonal == recurrence == {expected} on 625 vertices; "
        f"enum over C(625,4)~6.3e9 took {enum.elapsed:.1f}s < 120s",
    )


def test_criterion_13_theta_level_four_diagonal():
    # theta L4 has 3125 vertices in 1250 classes of equal rows; the diagonal
    # counter merges runs of product rows that share a common neighbourhood
    # (313250 rows, 4250 after merging), then multiplies once per stack of
    # classes whose union of columns barely grows, on those columns of the
    # quotient
    expected = 774665211375
    assert _rule("theta222", 4).T == theta_closed_T(4, Variant.DERIVED) == expected

    g = nested_blowup(base_graph(Family.THETA222), 4)
    assert (g.n, g.edge_count, g.non_edge_count) == (3125, 2928750, 1952500)
    diag = count_induced_c4_diagonal(g)
    assert diag.value == expected
    assert diag.elapsed < 60.0
    _report(
        13,
        f"diagonal on 3125 vertices ({diag.work['neighbourhoods']} distinct "
        f"neighbourhoods, {diag.work['columns']} class columns multiplied, "
        f"{diag.work['rows']} product rows merged to {diag.work['distinct']}) "
        f"{diag.value} == recurrence == derived in {diag.elapsed:.1f}s < 60s",
    )


def test_criterion_14_level_six_and_five_builds():
    # the packed build composes and validates c4 N=6 (16384 vertices) and
    # theta N=5 (15625 vertices), each level built once from the one below
    built = {}
    for family, level in [(Family.C4, 6), (Family.THETA222, 5)]:
        t0 = time.perf_counter()
        g = nested_blowup(base_graph(family), level)
        elapsed = time.perf_counter() - t0
        rule = _rule(family.value, level)
        assert (g.n, g.edge_count, g.non_edge_count) == (rule.n, rule.edges, rule.m)
        assert elapsed < 60.0
        built[f"{family.value} N={level}"] = (g.n, elapsed)
        del g
    _report(
        14,
        ", ".join(f"{name} ({n} vertices) built in {t:.2f}s" for name, (n, t) in built.items())
        + "; sizes == rule, each < 60s",
    )


def test_criterion_15_c4_level_four_both_counters():
    # the default cap refuses C(1024, 4) ~ 4.6e10 subsets; raised explicitly,
    # the subset scan confirms c4 L4 beside the diagonal counter
    expected = 7740798208
    g = _level(Family.C4, 4)
    enum = count_induced_c4_enum(g, subset_cap=comb(1024, 4))
    diag = count_induced_c4_diagonal(g)
    assert enum.value == diag.value == _rule("c4", 4).T == expected
    assert enum.elapsed < 120.0
    _report(
        15,
        f"enumeration == diagonal == recurrence == {expected} on 1024 vertices; "
        f"enum over C(1024,4)~4.6e10 took {enum.elapsed:.1f}s < 120s",
    )


def test_criterion_17_c4_level_five_diagonal():
    # c4 N=5 has 4096 vertices in 2048 classes of equal rows; the non-edges
    # from a class to the members of one far blob share one common
    # neighbourhood, so their consecutive product rows merge into one, and
    # the classes of one blob share one pass on nearly the same columns.
    # C(4096, 4) ~ 1.2e13 subsets are out of the scan's reach
    expected = 1984696210432
    assert _rule("c4", 5).T == c4_closed_T(5, Variant.DERIVED) == expected

    g = nested_blowup(base_graph(Family.C4), 5)
    assert (g.n, g.edge_count, g.non_edge_count) == (4096, 5591040, 2795520)
    diag = count_induced_c4_diagonal(g)
    assert diag.value == expected
    assert diag.work["distinct"] < diag.work["rows"]
    assert diag.elapsed < 60.0
    _report(
        17,
        f"diagonal on 4096 vertices ({diag.work['rows']} product rows merged to "
        f"{diag.work['distinct']}) {diag.value} == recurrence == derived in "
        f"{diag.elapsed:.1f}s < 60s",
    )


def test_criterion_18_c5_level_four_diagonal():
    # C5 N=4 has 3125 vertices and no two equal rows, so every vertex is a
    # class of its own; its product rows merge 2440625 to 15561, and the
    # vertices of one innermost blob share one pass.  C(3125, 4) ~ 4e12
    # subsets are out of the scan's reach
    expected = 239864625000
    rule = blowup_levels(base_invariants(cycle_graph(5)), 4)[4]
    assert rule.T == expected

    g = nested_blowup(cycle_graph(5), 4)
    assert (g.n, g.edge_count, g.non_edge_count) == (rule.n, rule.edges, rule.m) == (3125, 2440625, 2440625)
    diag = count_induced_c4_diagonal(g)
    assert diag.value == expected
    assert diag.work["neighbourhoods"] == g.n
    assert diag.work["distinct"] < diag.work["rows"]
    assert diag.elapsed < 60.0
    _report(
        18,
        f"diagonal on 3125 twin-free vertices ({diag.work['rows']} product rows merged to "
        f"{diag.work['distinct']}, {diag.work['passes']} passes) {diag.value} == recurrence in "
        f"{diag.elapsed:.1f}s < 60s",
    )


# A row of README's ground-truth table: family, N, vertices, edges,
# non-edges, induced 4-cycles.
_TABLE_ROW = re.compile(r"^\| (c4|theta222) +\|" + r" *([0-9]+) *\|" * 5 + r"$", re.MULTILINE)


def test_criterion_16_readme_ground_truth_table():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    rows = {(family, int(n)): tuple(map(int, rest)) for family, n, *rest in _TABLE_ROW.findall(readme)}
    assert sorted(rows) == [("c4", n) for n in range(6)] + [("theta222", n) for n in range(5)]
    for (family, n), row in rows.items():
        rule = _rule(family, n)
        assert row == (rule.n, rule.edges, rule.m, rule.T), (family, n)
    _report(16, f"README's {len(rows)} ground-truth rows == rule for c4 N=0..5 and theta222 N=0..4")

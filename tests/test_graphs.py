"""Construction, composition, blow-up structure, and edge-list round trips."""

from __future__ import annotations

import random
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowup_census import graphs as graphs_module
from blowup_census import (
    Family,
    Graph,
    GraphFormatError,
    VertexCapExceeded,
    base_graph,
    compose,
    cycle_graph,
    nested_blowup,
    non_edges,
    read_edge_list,
    theta_222,
    write_edge_list,
)
from helpers import (
    blob_of,
    child_env,
    complete_graph,
    degree_sequence,
    digit_rule_edge_list,
    edges,
    empty_graph,
    has_edge,
    neighbors,
    random_graph,
    reference_compose,
    reference_read_edge_list,
    reference_validation_error,
    relabel,
)

THETA_CANONICAL = "5\n0 1\n0 2\n0 3\n1 4\n2 4\n3 4\n"


# ---------------------------------------------------------------------------
# Base graphs
# ---------------------------------------------------------------------------


def test_cycle_graph_c4():
    g = cycle_graph(4)
    assert g.n == 4
    assert g.edge_count == 4
    assert g.non_edge_count == 2
    assert list(non_edges(g)) == [(0, 2), (1, 3)]


def test_cycle_graph_triangle_is_complete():
    g = cycle_graph(3)
    assert g.non_edge_count == 0
    assert g == complete_graph(3)


def test_cycle_graph_c5():
    g = cycle_graph(5)
    assert g.n == 5
    assert g.edge_count == 5
    assert g.non_edge_count == comb(5, 2) - 5 == 5


@pytest.mark.parametrize("k", [-1, 0, 1, 2])
def test_cycle_graph_rejects_small(k):
    with pytest.raises(ValueError):
        cycle_graph(k)


def test_theta_222_shape():
    g = theta_222()
    assert g.n == 5
    assert g.edge_count == 6
    assert degree_sequence(g) == (2, 2, 2, 3, 3)
    assert g.non_edge_count == 4
    # hubs 0 and 4 see all midpoints, midpoints pairwise non-adjacent
    assert neighbors(g, 0) == [1, 2, 3]
    assert neighbors(g, 4) == [1, 2, 3]
    assert not has_edge(g, 0, 4)


# ---------------------------------------------------------------------------
# Graph invariants and validation
# ---------------------------------------------------------------------------


def test_rejects_self_loop_row():
    with pytest.raises(ValueError, match="self-loop"):
        Graph(2, (0b01, 0b01))


def test_rejects_asymmetric_rows():
    with pytest.raises(ValueError, match="asymmetric"):
        Graph(3, (0b010, 0b000, 0b000))
    # unmatched lower-triangle bit
    with pytest.raises(ValueError, match="asymmetric"):
        Graph(3, (0b000, 0b001, 0b000))


def test_rejects_out_of_range_bits():
    with pytest.raises(ValueError, match="outside"):
        Graph(2, (0b100, 0b000))


def _corrupt(g: Graph, *, add=(), drop=(), set_rows=()) -> list[int]:
    """g's rows with single bits set (``add``) or cleared (``drop``) as (row,
    bit) pairs, then whole rows replaced (``set_rows``) as (row, value)."""
    rows = list(g.rows)
    for u, v in add:
        rows[u] |= 1 << v
    for u, v in drop:
        rows[u] &= ~(1 << v)
    for u, value in set_rows:
        rows[u] = value
    return rows


STRIPE_N = 40  # with 8-row stripes: five stripes, boundaries at 8, 16, 24, 32


@pytest.mark.parametrize(
    "corruption, message",
    [
        # bit (3, 35) set, its mirror (35, 3) lies in the last stripe
        ({"add": [(3, 35)], "drop": [(35, 3)]}, r"^asymmetric adjacency at \(3, 35\)$"),
        # across one stripe boundary: row 7 is the last row of stripe 0
        ({"add": [(7, 8)], "drop": [(8, 7)]}, r"^asymmetric adjacency at \(7, 8\)$"),
        # only the lower-triangle bit (35, 3) is set
        (
            {"add": [(35, 3)], "drop": [(3, 35)]},
            r"^asymmetric adjacency at \(35, 3\) \(unmatched lower-triangle bit\)$",
        ),
        # two faults in different stripes: the first in row order is named
        (
            {"add": [(30, 39), (9, 20)], "drop": [(39, 30), (20, 9)]},
            r"^asymmetric adjacency at \(9, 20\)$",
        ),
        ({"add": [(STRIPE_N - 1, STRIPE_N - 1)]}, r"^self-loop at vertex 39$"),
        ({"add": [(12, STRIPE_N)]}, r"^row 12 has bits outside the vertex range$"),
        ({"set_rows": [(17, -1)]}, r"^row 17 has bits outside the vertex range$"),
        # the rows of a graph of STRIPE_N vertices, with another vertex count
        ({"n": -1}, r"^vertex count must be nonnegative$"),
        ({"n": STRIPE_N + 1}, r"^expected 41 adjacency rows, got 40$"),
    ],
)
def test_validation_across_stripes(monkeypatch, corruption, message):
    g = random_graph(STRIPE_N, 0.5, 11)
    monkeypatch.setattr(graphs_module, "_VALIDATE_BLOCK_BYTES", 8 * STRIPE_N)
    corruption = dict(corruption)
    n = corruption.pop("n", STRIPE_N)
    rows = _corrupt(g, **corruption)
    with pytest.raises(ValueError, match=message):
        Graph(n, rows)


def test_narrow_stripes_accept_valid_graphs(monkeypatch):
    sizes = [(33, 0.3), (40, 0.7), (57, 0.5)]
    graphs = [random_graph(n, p, seed) for seed, (n, p) in enumerate(sizes)]
    monkeypatch.setattr(graphs_module, "_VALIDATE_BLOCK_BYTES", 1)
    for g in graphs:
        assert Graph(g.n, g.rows).edge_count == g.edge_count == len(edges(g))


def test_validation_across_default_stripes():
    # theta L4 has 3125 vertices, several stripes at the default block size
    g = nested_blowup(base_graph(Family.THETA222), 4)
    assert g.n * g.n > graphs_module._VALIDATE_BLOCK_BYTES
    assert Graph(g.n, g.rows) == g
    far = next(v for v in range(g.n - 1, 0, -1) if not has_edge(g, 0, v))
    with pytest.raises(ValueError, match=rf"^asymmetric adjacency at \(0, {far}\)$"):
        Graph(g.n, _corrupt(g, add=[(0, far)]))
    with pytest.raises(ValueError, match="lower-triangle"):
        Graph(g.n, _corrupt(g, add=[(far, 0)]))
    with pytest.raises(ValueError, match=f"self-loop at vertex {g.n - 1}"):
        Graph(g.n, _corrupt(g, add=[(g.n - 1, g.n - 1)]))


def _validation_outcome(packed: np.ndarray) -> str | None:
    try:
        Graph._from_packed(packed)
    except ValueError as exc:
        return str(exc)
    return None


def _block_edge(rng: random.Random, n: int) -> int:
    """A vertex id on the edge of an 8 x 8 block: 8a or 8a + 7, below n."""
    return min(8 * rng.randrange((n + 7) // 8) + rng.choice((0, 7)), n - 1)


def test_packed_validator_matches_reference(monkeypatch):
    # seeded graphs of 0..70 vertices, each with single bits flipped above
    # and below the diagonal, on it, in the padding past n and on the edges
    # of 8 x 8 blocks, and with one mirrored pair flipped, which keeps the
    # graph simple; every third graph is checked in 8-row stripes
    rng = random.Random(4417)
    kinds: Counter[str] = Counter()
    for seed in range(330):
        n = seed % 71
        g = random_graph(n, rng.random(), seed)
        monkeypatch.setattr(graphs_module, "_VALIDATE_BLOCK_BYTES", 1 if seed % 3 == 0 else 1 << 22)
        assert _validation_outcome(g.packed.copy()) is reference_validation_error(g.packed) is None
        flips: list[tuple[str, list[tuple[int, int]]]] = []
        if n >= 2:
            u, v = sorted(rng.sample(range(n), 2))
            flips += [("above", [(u, v)]), ("below", [(v, u)]), ("mirrored", [(u, v), (v, u)])]
            u, v = _block_edge(rng, n), _block_edge(rng, n)
            if u != v:
                flips.append(("block edge", [(u, v)]))
        if n >= 1:
            flips.append(("diagonal", [(rng.randrange(n), None)]))
        if n & 7:
            flips.append(("padding", [(rng.randrange(n), rng.randrange(n, (n + 7) // 8 * 8))]))
        for kind, cells in flips:
            packed = g.packed.copy()
            for u, v in cells:
                v = u if v is None else v
                packed[u, v >> 3] ^= 1 << (v & 7)
            expected = reference_validation_error(packed)
            assert (expected is None) == (kind == "mirrored"), (n, kind, cells)
            assert _validation_outcome(packed) == expected, (n, kind, cells)
            kinds[kind] += 1
    assert min(kinds.values()) >= 150 and len(kinds) == 6, kinds


def test_halved_validation_matches_reference(monkeypatch):
    # validation compares each pair once, in the row stripe of its smaller
    # end; single bits flipped inside a stripe's diagonal block, in the
    # first and last row or column of a stripe and in the last, partial
    # byte of a row (in range and past n) must be named as the full
    # reference comparison names them, and a flipped mirrored pair must
    # leave a simple graph whose edge count is its bits over two
    rng = random.Random(9120)
    kinds: Counter[str] = Counter()
    for seed in range(240):
        n = rng.randrange(9, 90)
        g = random_graph(n, rng.random(), seed)
        columns = rng.choice((1, 2, 3, 100))
        monkeypatch.setattr(graphs_module, "_VALIDATE_BLOCK_BYTES", 8 * n * columns)
        width = (n + 7) // 8
        r0 = 8 * columns * rng.randrange(-(-width // columns))
        r1 = min(r0 + 8 * columns, n)
        block = range(r0, r1)
        flips: list[tuple[str, int, int]] = []
        if len(block) >= 2:
            u, v = rng.sample(block, 2)
            flips.append(("diagonal block", u, v))
        edge = rng.choice((r0, r1 - 1))
        other = rng.choice([v for v in range(n) if v != edge])
        flips.append(("stripe edge", *rng.sample((edge, other), 2)))
        last = rng.randrange(8 * (width - 1), n)
        other = rng.choice([v for v in range(n) if v != last])
        flips.append(("last byte", *rng.sample((last, other), 2)))
        if n & 7:
            flips.append(("padding", rng.randrange(n), rng.randrange(n, 8 * width)))
        u, v = rng.sample(range(n), 2)
        flips.append(("mirrored", u, v))
        for kind, u, v in flips:
            packed = g.packed.copy()
            cells = [(u, v), (v, u)] if kind == "mirrored" else [(u, v)]
            for a, b in cells:
                packed[a, b >> 3] ^= 1 << (b & 7)
            expected = reference_validation_error(packed)
            assert (expected is None) == (kind == "mirrored"), (n, kind, u, v)
            assert _validation_outcome(packed) == expected, (n, columns, kind, u, v)
            if expected is None:
                bits = int(np.bitwise_count(packed).sum())
                assert Graph._from_packed(packed).edge_count == bits // 2
            kinds[kind] += 1
    assert min(kinds.values()) >= 150 and len(kinds) == 5, kinds


def test_validation_survives_python_optimize():
    # the checks raise ValueError, never bare asserts that -O would strip
    code = (
        "import numpy as np\n"
        "from blowup_census import Graph\n"
        "for make in (lambda: Graph(3, (0b010, 0, 0)),\n"
        "             lambda: Graph._from_packed(np.array([[0], [1], [0]], np.uint8))):\n"
        "    try:\n"
        "        make()\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "asymmetric adjacency at (0, 1)",
        "asymmetric adjacency at (1, 0) (unmatched lower-triangle bit)",
    ]


@pytest.mark.parametrize(
    "packed, message",
    [
        pytest.param(np.zeros((4, 1), np.int64), "packed adjacency of 4 vertices must be (4, 1) uint8", id="int64"),
        pytest.param(np.zeros((4, 2), np.uint8), "packed adjacency of 4 vertices must be (4, 1) uint8", id="column"),
        pytest.param(np.zeros((9, 1), np.uint8), "packed adjacency of 9 vertices must be (9, 2) uint8", id="row"),
    ],
)
def test_from_packed_refuses_a_wrong_shape_or_dtype(packed, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Graph._from_packed(packed)


def test_from_edges_rejects_bad_input():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 1), (1, 0)])
    # the int64 id arrays would truncate 1.5 to 1; numpy integers are ids
    with pytest.raises(TypeError):
        Graph.from_edges(3, [(0, 1.5)])
    assert Graph.from_edges(3, [(np.int64(0), np.int32(2))]) == Graph.from_edges(3, [(0, 2)])


def test_edge_plus_non_edge_is_binomial():
    for seed in range(10):
        g = random_graph(12, 0.4, seed)
        assert g.edge_count + g.non_edge_count == comb(12, 2)


def test_non_edges_ascending_and_consistent():
    g = random_graph(14, 0.5, 99)
    pairs = list(non_edges(g))
    assert pairs == sorted(pairs)
    assert all(u < v and not has_edge(g, u, v) for u, v in pairs)
    assert len(pairs) == g.non_edge_count


def test_non_edges_of_complete_graph():
    assert list(non_edges(complete_graph(4))) == []
    assert complete_graph(4).non_edge_count == 0


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------


def test_compose_k2_k2_is_k4():
    k2 = Graph.from_edges(2, [(0, 1)])
    assert compose(k2, k2) == complete_graph(4)


def test_compose_identity_blowup():
    c4 = cycle_graph(4)
    assert compose(c4, empty_graph(1)) == c4


def test_compose_c4_c4_counts():
    g = compose(cycle_graph(4), cycle_graph(4))
    assert g.n == 16
    assert g.edge_count == 80
    assert g.non_edge_count == 40


def test_compose_rejects_empty():
    with pytest.raises(ValueError):
        compose(empty_graph(0), cycle_graph(3))
    with pytest.raises(ValueError):
        compose(cycle_graph(3), empty_graph(0))


def test_compose_edge_rule_exhaustive():
    g = random_graph(4, 0.5, 7)
    h = random_graph(3, 0.6, 8)
    gh = compose(g, h)
    assert gh.n == 12
    for i in range(g.n):
        for x in range(h.n):
            for j in range(g.n):
                for y in range(h.n):
                    if (i, x) == (j, y):
                        continue
                    expected = has_edge(g, i, j) if i != j else has_edge(h, x, y)
                    assert has_edge(gh, i * h.n + x, j * h.n + y) == expected


def test_compose_matches_int_row_reference():
    # random pairs of unequal orders, so copies start at every bit offset
    # within a byte, and the same pairs relabelled
    rng = random.Random(7331)
    for trial in range(120):
        g = random_graph(rng.randint(1, 12), rng.random(), rng.randrange(1 << 30))
        h = random_graph(rng.randint(1, 19), rng.random(), rng.randrange(1 << 30))
        if trial % 2:
            g = relabel(g, rng.sample(range(g.n), g.n))
            h = relabel(h, rng.sample(range(h.n), h.n))
        assert compose(g, h) == reference_compose(g, h), (trial, g.rows, h.rows)


# ---------------------------------------------------------------------------
# Nested blow-up
# ---------------------------------------------------------------------------


def test_blowup_spec_orders():
    # base order n, blob size n^N and total order n^(N+1) of level N
    base = base_graph(Family.C4)
    assert (base.n, base.n**2, nested_blowup(base, 2).n) == (4, 16, 64)
    assert nested_blowup(base_graph(Family.THETA222), 1).n == 25


def test_nested_blowup_rejects_negative_level():
    with pytest.raises(ValueError, match="nonnegative"):
        nested_blowup(cycle_graph(4), -1)


def test_base_graph_accepts_family_strings():
    assert base_graph("c4") is base_graph(Family.C4)
    assert base_graph("theta222") == theta_222()
    with pytest.raises(ValueError):
        base_graph("c5")


def test_nested_blowup_level_zero_is_base():
    assert nested_blowup(base_graph(Family.C4), 0) == cycle_graph(4)
    assert nested_blowup(base_graph(Family.THETA222), 0) == theta_222()


def test_nested_blowup_orders():
    assert nested_blowup(base_graph(Family.C4), 2).n == 64
    g = nested_blowup(base_graph(Family.THETA222), 1)
    assert (g.n, g.edge_count) == (25, 180)


@pytest.mark.parametrize("family", [Family.C4, Family.THETA222])
@pytest.mark.parametrize("level", [1, 2])
def test_nested_blowup_matches_compose(family, level):
    base = base_graph(family)
    assert nested_blowup(base, level) == compose(base, nested_blowup(base, level - 1))


@pytest.mark.parametrize("family", [Family.C4, Family.THETA222])
def test_blob_structure(family):
    # blob b of level N is an index-shifted copy of level N-1, and cross-blob
    # adjacency mirrors the base graph exactly; exhaustive at this scale
    base = base_graph(family)
    g = nested_blowup(base, 2)
    prev = nested_blowup(base, 1)
    size = base.n**2
    for b in range(base.n):
        lo = b * size
        for x in range(size):
            row = (g.rows[lo + x] >> lo) & ((1 << size) - 1)
            assert row == prev.rows[x]
    for u in range(g.n):
        bu = blob_of(u, base.n, 2)
        for v in range(u + 1, g.n):
            bv = blob_of(v, base.n, 2)
            if bu != bv:
                assert has_edge(g, u, v) == has_edge(base, bu, bv)


def test_blob_of_examples():
    assert blob_of(0, 4, 1) == 0
    assert blob_of(15, 4, 1) == 3
    assert blob_of(24, 5, 1) == 4
    with pytest.raises(IndexError):
        blob_of(16, 4, 1)


def test_nested_blowup_vertex_cap():
    with pytest.raises(VertexCapExceeded, match="level 2 has 64 vertices, above the cap of 16"):
        nested_blowup(base_graph(Family.C4), 2, vertex_cap=16)
    # override allows it
    assert nested_blowup(base_graph(Family.C4), 2, vertex_cap=64).n == 64


def test_nested_blowup_custom_base():
    path3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    g = nested_blowup(base_graph(Family.CUSTOM, path3), 1)
    assert g.n == 9
    # edges: 3 copies of P3 (2 each) + 2 base edges * 9 = 24
    assert g.edge_count == 24


def test_custom_family_requires_base():
    with pytest.raises(GraphFormatError, match="requires a base graph"):
        base_graph(Family.CUSTOM)
    with pytest.raises(GraphFormatError, match="at least one vertex"):
        base_graph(Family.CUSTOM, empty_graph(0))
    assert base_graph("custom", empty_graph(1)) == empty_graph(1)


def test_named_family_rejects_foreign_base():
    # any base, even the canonical one, is refused: a named family takes none
    for base in (theta_222(), cycle_graph(4)):
        with pytest.raises(GraphFormatError, match="fixed base graph"):
            base_graph(Family.C4, base)


def test_theta_nonedge_count_level_one():
    g = nested_blowup(base_graph(Family.THETA222), 1)
    assert g.non_edge_count == 120
    assert len(list(non_edges(g))) == 120


# ---------------------------------------------------------------------------
# Relabeling
# ---------------------------------------------------------------------------


def test_relabel_roundtrip_and_degrees():
    g = random_graph(10, 0.5, 3)
    perm = list(range(10))
    random.Random(0).shuffle(perm)
    h = relabel(g, perm)
    assert degree_sequence(h) == degree_sequence(g)
    inverse = [0] * 10
    for i, p in enumerate(perm):
        inverse[p] = i
    assert relabel(h, inverse) == g


def test_relabel_rejects_non_permutation():
    with pytest.raises(ValueError):
        relabel(cycle_graph(4), [0, 1, 2, 2])


# ---------------------------------------------------------------------------
# Edge-list text format
# ---------------------------------------------------------------------------


def test_read_canonical_c4():
    assert read_edge_list("4\n0 1\n1 2\n2 3\n0 3\n") == cycle_graph(4)


def test_write_theta_canonical():
    assert write_edge_list(theta_222()) == THETA_CANONICAL


def test_read_ignores_comments_and_blanks():
    text = "# a comment\n\n4\n0 1\n# another\n1 2\n\n2 3\n0 3\n"
    assert read_edge_list(text) == cycle_graph(4)


@pytest.mark.parametrize(
    "text, message",
    [
        ("3\n0 0\n", "self-loop"),
        ("3\n1 0\n", "u < v"),
        ("3\n0 3\n", "out of range"),
        ("3\n0 1\n0 1\n", "duplicate"),
        ("3\n0 1 2\n", "expected"),
        ("3\n0 x\n", "non-integer"),
        ("x\n", "vertex count"),
        ("", "vertex count"),
        ("-2\n", "nonnegative"),
    ],
)
def test_read_edge_list_errors(text, message):
    with pytest.raises(GraphFormatError, match=message):
        read_edge_list(text)


@pytest.mark.parametrize(
    "body, line, message",
    [
        (["0 1"], 9, r"duplicate edge \(0, 1\)"),
        # the earliest line that repeats an edge, not the smallest repeated pair
        (["2 3", "2 3", "0 1"], 10, r"duplicate edge \(2, 3\)"),
        (["2 4"], 9, "vertex id out of range for n=4"),
        (["-1 2"], 9, "vertex id out of range for n=4"),
        (["3 2"], 9, "edges must satisfy u < v"),
    ],
)
def test_read_edge_list_error_line_numbers(body, line, message):
    # line 5 holds "0 1", line 9 the first line of body
    head = ["# header", "", "4", "# edges", "0 1", "", "1 2", "  # indented comment"]
    text = "\n".join(head + body) + "\n"
    with pytest.raises(GraphFormatError, match=rf"^line {line}: {message}"):
        read_edge_list(text)


@pytest.mark.parametrize(
    "body, message",
    [
        # a faulty line wins over an earlier duplicate
        (["0 1", "0 1", "2 2"], "line 4: self-loop at vertex 2"),
        (["0 1", "0 1 2", "0 1"], "line 3: expected 'u v', got '0 1 2'"),
        # the earlier of a syntax fault and an id fault wins, in either order
        (["0 x", "1 0"], "line 2: non-integer vertex id in '0 x'"),
        (["1 0", "0 x"], "line 2: edges must satisfy u < v, got 1 0"),
        (["0 9", "3 3"], "line 2: vertex id out of range for n=4"),
        (["2 3", "-1 2", "0 0"], "line 3: vertex id out of range for n=4"),
        (["0 1", "1 2 # c", "2 3", "3 3"], "line 3: expected 'u v', got '1 2 # c'"),
    ],
)
def test_read_edge_list_reports_the_first_faulty_line(body, message):
    with pytest.raises(GraphFormatError, match=f"^{re.escape(message)}$"):
        read_edge_list("\n".join(["4"] + body) + "\n")


def test_read_edge_list_accepted_syntax():
    text = "# c\r\n\r\n\t4 \r\n0\t1\r\n  # indented\r\n \t1 \t 2 \t\r\n\t\r\n  2 3\n000 0003"
    assert read_edge_list(text) == Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    # leading zeros do not count towards the 18-digit bound
    assert read_edge_list("2\n0 " + "0" * 40 + "1\n") == complete_graph(2)


@pytest.mark.parametrize(
    "text, message",
    [
        # ids that do not fit the digit bound are still reported by value
        ("4\n0 " + "9" * 19 + "\n", "line 2: vertex id out of range for n=4"),
        ("4\n0 9223372036854775808\n", "line 2: vertex id out of range for n=4"),
        ("4\n" + "9" * 40 + " 1\n", "line 2: edges must satisfy u < v"),
        # int() and str.split() read these, the format does not
        ("4\n+1 2\n", "line 2: expected a blank line"),
        ("4\n-0 1\n", "line 2: expected a blank line"),
        ("20\n1_0 12\n", "line 2: expected a blank line"),
        ("4\n0 \u0661\n", "line 2: expected a blank line"),
        ("4\n0\x0b1\n", "line 2: expected a blank line"),
        ("4\n0 1\n\x0c\n", "line 3: expected a blank line"),
        ("4\n0 1\x0c\n", "line 2: expected a blank line"),
        ("4\n0 1\r1 2\n", "line 2: expected 'u v'"),
        ("\x0c\n4\n", "line 1: vertex count expected"),
    ],
)
def test_read_edge_list_rejects_outside_the_format(text, message):
    with pytest.raises(GraphFormatError, match=f"^{re.escape(message)}"):
        read_edge_list(text)


def test_read_edge_list_vertex_cap():
    with pytest.raises(VertexCapExceeded, match="2000000 vertices"):
        read_edge_list("2000000\n")
    # refused at the vertex count, before the faulty line after it is read
    with pytest.raises(VertexCapExceeded, match="above the cap of 4"):
        read_edge_list("# c\n5\n0 0\n", vertex_cap=4)
    assert read_edge_list("5\n0 1\n", vertex_cap=5).n == 5


def test_read_edge_list_refuses_rows_beyond_physical_memory(monkeypatch):
    # 91 rows of 12 bytes need 1092 bytes; nothing is allocated to find out
    monkeypatch.setattr(graphs_module, "_physical_memory", lambda: 1091)
    with pytest.raises(
        VertexCapExceeded,
        match=r"^line 2: the edge list has 91 vertices, whose packed rows would take "
        r"1092 bytes \(0\.0 GiB\), more than the 1091 bytes of physical memory$",
    ):
        read_edge_list("# c\n91\n0 0\n")
    assert read_edge_list("90\n0 1\n").n == 90
    # an 8-byte text at the default vertex cap asks for 128 GiB
    monkeypatch.setattr(graphs_module, "_physical_memory", lambda: 8 << 30)
    with pytest.raises(VertexCapExceeded, match=r"137438953472 bytes \(128\.0 GiB\)"):
        read_edge_list("1048576\n")
    # no check where the platform does not say
    monkeypatch.setattr(graphs_module, "_physical_memory", lambda: None)
    assert read_edge_list("91\n0 1\n").n == 91


def _fail_allocations(monkeypatch) -> None:
    """Make numpy's allocators and the reader's parse unusable, so that a
    refusal which allocates first shows as a TypeError."""
    for name in ("zeros", "empty", "unpackbits", "fromstring"):
        monkeypatch.setattr(np, name, None)


def test_build_refusals_allocate_nothing(monkeypatch):
    # c4 level 2 has 64 rows of 8 bytes
    base = base_graph(Family.C4)
    monkeypatch.setattr(graphs_module, "_physical_memory", lambda: 511)
    with monkeypatch.context() as m:
        _fail_allocations(m)
        with pytest.raises(VertexCapExceeded, match=r"^level 2 has 64 vertices, whose packed rows would take 512"):
            nested_blowup(base, 2)
        with pytest.raises(VertexCapExceeded, match=r"^level 2 has 64 vertices, above the cap of 63"):
            nested_blowup(base, 2, vertex_cap=63)
    monkeypatch.setattr(graphs_module, "_physical_memory", lambda: 512)
    assert nested_blowup(base, 2).n == 64


def test_read_refusals_allocate_nothing(monkeypatch):
    # 91 rows of 12 bytes; the text after the vertex count is never parsed
    text = write_edge_list(cycle_graph(91))
    monkeypatch.setattr(graphs_module, "_physical_memory", lambda: 1091)
    with monkeypatch.context() as m:
        _fail_allocations(m)
        with pytest.raises(VertexCapExceeded, match=r"^line 1: the edge list has 91 vertices, whose packed rows"):
            read_edge_list(text)
        with pytest.raises(VertexCapExceeded, match=r"^line 1: the edge list has 91 vertices, above the cap of 90"):
            read_edge_list(text, vertex_cap=90)
    monkeypatch.setattr(graphs_module, "_physical_memory", lambda: 1092)
    assert read_edge_list(text) == cycle_graph(91)


def test_from_edges_refusals_allocate_nothing(monkeypatch):
    # 91 rows of 12 bytes, as in the read refusal above; the edges are
    # never looked at
    cycle = [(v, (v + 1) % 91) for v in range(91)]
    monkeypatch.setattr(graphs_module, "_physical_memory", lambda: 1091)
    with monkeypatch.context() as m:
        _fail_allocations(m)
        with pytest.raises(ValueError, match=r"^vertex count must be nonnegative$"):
            Graph.from_edges(-1, [])
        with pytest.raises(VertexCapExceeded, match=r"^a graph of 91 vertices, whose packed rows would take 1092"):
            Graph.from_edges(91, cycle)
    monkeypatch.setattr(graphs_module, "_physical_memory", lambda: 1092)
    assert Graph.from_edges(91, cycle) == cycle_graph(91)


def test_physical_memory_is_a_byte_count():
    memory = graphs_module._physical_memory()
    assert memory is None or memory > 1 << 20


_CORRUPTIONS = "0123456789-x# \t\n"
_SIGNED_ZERO = re.compile(r"(?<![^ \t\n])-0+(?![^ \t\r\n])")


def _decorated_edge_list(rng: random.Random, g: Graph) -> str:
    """g as edge-list text with its edges shuffled, comment and blank lines,
    indentation, tabs and a mix of "\n" and "\r\n" endings."""
    pad = ["", " ", "\t", " \t"]
    sep = [" ", "\t", "  ", " \t "]
    filler = ["", " \t", "# note", "  # indented", "\t#"]
    lines = [rng.choice(filler) for _ in range(rng.randint(0, 2))]
    lines.append(rng.choice(pad) + str(g.n) + rng.choice(pad))
    pairs = edges(g)
    rng.shuffle(pairs)
    for u, v in pairs:
        while rng.random() < 0.15:
            lines.append(rng.choice(filler))
        lines.append(rng.choice(pad) + str(u) + rng.choice(sep) + str(v) + rng.choice(pad))
    return "".join(line + rng.choice(["\n", "\r\n"]) for line in lines)


def _corrupt_text(rng: random.Random, text: str) -> str:
    """text with one character from _CORRUPTIONS inserted or put in place of
    another.  Every "\r" keeps its "\n": a lone "\r" ends no line of the
    format, though str.splitlines breaks there."""
    spots = [p for p in range(len(text) + 1) if text[p - 1 : p] != "\r"]
    p = rng.choice(spots)
    ch = rng.choice(_CORRUPTIONS)
    if p < len(text) and rng.random() < 0.5:
        return text[:p] + ch + text[p + 1 :]
    return text[:p] + ch + text[p:]


def _outcome(read, text: str) -> Graph | str:
    try:
        return read(text)
    except GraphFormatError as exc:
        return str(exc)


def _is_canonical(text: str) -> bool:
    """Whether read_edge_list skips the syntax scan on text whose vertex
    count is its first line."""
    head = graphs_module._HEADER.search(text)
    return head is not None and graphs_module._canonical_body(text, head.end()) is not None


def test_read_edge_list_matches_reference_parser():
    # each seed's graph as decorated text and as the plain text the writer
    # emits, which skips the syntax scan, each also with one corruption
    rng, plain_rng = random.Random(515), random.Random(516)
    faults = narrowed = canonical_faults = 0
    for seed in range(400):
        g = random_graph(rng.randint(0, 14), rng.random(), seed)
        text = _decorated_edge_list(rng, g)
        plain = write_edge_list(g)
        assert _is_canonical(plain)
        for good, bad in ((text, _corrupt_text(rng, text)), (plain, _corrupt_text(plain_rng, plain))):
            assert read_edge_list(good) == reference_read_edge_list(good) == g
            expected = _outcome(reference_read_edge_list, bad)
            got = _outcome(read_edge_list, bad)
            signed = _SIGNED_ZERO.search(bad)
            if isinstance(expected, Graph) and signed:
                # int() reads "-0" as 0; an id of the format has no sign
                line = bad.count("\n", 0, signed.start()) + 1
                assert got.startswith(f"line {line}: expected a blank line"), bad
                narrowed += 1
                continue
            assert got == expected, bad
            faults += isinstance(got, str)
            canonical_faults += isinstance(got, str) and _is_canonical(bad)
    # the corruptions reach the error paths, on canonical text too, and the
    # narrowing case is rare
    assert faults > 400 and canonical_faults > 100 and narrowed < 20, (faults, canonical_faults)


@pytest.mark.parametrize(
    "text, canonical",
    [
        ("4", True),
        ("4\n", True),
        ("4\n0 1\n1 2", True),
        ("4\n0 1\n1 2\n\n", False),
        ("4\r\n0 1\r\n1 2\r\n", False),
        ("4\n0 1\r\n1 2\n", False),
        ("4\n0 " + "0" * 39 + "3\n", True),
        ("4\n0 1\n2 " + "1" + "0" * 18 + "\n", True),
        # fromstring reads this id as the largest int64
        ("4\n0 1\n2 " + "9" * 19 + "\n1 2\n", True),
        ("4\n0 1\n" + "9" * 19 + " 3\n", True),
        ("4\n0 1\n1 \n", False),
        ("4\n0 1\n 2\n", False),
        ("4\n0 1\n12\n", False),
        ("4\n0  1\n", False),
        ("4\n0 1\n1 2\n0 1\n", True),
        ("4\n0 1 2\n", False),
    ],
)
def test_read_edge_list_canonical_cases(text, canonical):
    assert _is_canonical(text) == canonical
    assert _outcome(read_edge_list, text) == _outcome(reference_read_edge_list, text)


def _reference_edge_list(g: Graph) -> str:
    """The edge-list format spelled out with the per-edge iterator."""
    return "\n".join([str(g.n)] + [f"{u} {v}" for u, v in edges(g)]) + "\n"


def _numpy_random_graph(n: int, p: float, seed: int) -> Graph:
    """Seeded G(n, p) drawn with numpy, quick enough for n in the thousands."""
    upper = np.triu(np.random.default_rng(seed).random((n, n)) < p, 1)
    packed = np.packbits(upper | upper.T, axis=1, bitorder="little")
    return Graph(n, tuple(int.from_bytes(row.tobytes(), "little") for row in packed))


def _with_isolated(g: Graph, n: int) -> Graph:
    """g with isolated vertices g.n, ..., n - 1 appended."""
    return Graph(n, g.rows + (0,) * (n - g.n))


def _first_repeat_outcome(n: int, pairs: list[tuple[int, int]]) -> str | None:
    """The duplicate Graph.from_edges must name: the first pair, in input
    order, that an earlier one equals."""
    seen = set()
    for pair in pairs:
        if pair in seen:
            return f"duplicate edge {pair}"
        seen.add(pair)
    return None


@pytest.mark.parametrize(
    "n, p, stripe_rows, stripes",
    [
        (3000, 0.004, None, 3),  # the default block size
        (1500, 0.01, None, 1),  # one stripe, mirrored like several
        (2047, 0.004, None, 1),  # one stripe, 7 bits in the last byte column
        (65, 0.3, None, 1),  # one bit in the last byte column
        (63, 0.3, None, 1),
        (5, 0.5, None, 1),  # less than one byte column
        (1, 0.5, None, 1),
        (0, 0.5, None, 0),
        (1001, 0.02, 64, 16),
        (200, 0.2, 8, 25),
        (61, 0.5, 1, 61),
    ],
)
def test_rows_from_pairs_sorted_and_shuffled(monkeypatch, n, p, stripe_rows, stripes):
    # the pairs are grouped into row stripes: sorted pairs come grouped,
    # shuffled ones are sorted by stripe; the lower triangle is the upper
    # one transposed, however many stripes; the first or the last pair in
    # row order, from the first or the last stripe that holds any, repeated
    # anywhere, is named at its second occurrence
    if stripe_rows is not None:
        monkeypatch.setattr(graphs_module, "_VALIDATE_BLOCK_BYTES", stripe_rows * n)
    step = max(1, graphs_module._VALIDATE_BLOCK_BYTES // max(n, 1))
    assert -(-n // step) == stripes
    g = _numpy_random_graph(n, p, n)
    pairs = edges(g)
    assert bool(pairs) == (n >= 2)
    rng = random.Random(n)
    shuffled = rng.sample(pairs, len(pairs))
    for order in (pairs, shuffled):
        assert Graph.from_edges(n, order) == g
        text = "\n".join([str(n)] + [f"{u} {v}" for u, v in order]) + "\n"
        assert read_edge_list(text) == g
        for repeated in pairs[:1] + pairs[-1:]:
            at = rng.randrange(len(order) + 1)
            twice = order[:at] + [repeated] + order[at:]
            with pytest.raises(ValueError) as caught:
                Graph.from_edges(n, twice)
            assert str(caught.value) == _first_repeat_outcome(n, twice)
            text = "\n".join([str(n)] + [f"{u} {v}" for u, v in twice]) + "\n"
            expected = _outcome(reference_read_edge_list, text)
            assert expected.endswith(f"duplicate edge {repeated}")
            assert _outcome(read_edge_list, text) == expected


def test_write_edge_list_matches_reference_random():
    rng = random.Random(2024)
    cases = [random_graph(rng.randint(0, 60), rng.random(), seed) for seed in range(60)]
    for n in (0, 1, 8, 9):
        cases += [empty_graph(n), complete_graph(n)]
    # the id width grows at n = 11, 101 and 1001, and from n = 257 on the
    # writer splits the rows into several stripes
    for n in (9, 10, 11, 99, 100, 101, 999, 1000, 1001, 1025):
        cases += [_numpy_random_graph(n, p, n) for p in (0.002, 0.05, 0.5)]
        cases += [empty_graph(n), complete_graph(n)]
        # a star has no edge above the diagonal after row 0, so every later
        # stripe is empty; the padded graphs end in isolated vertices
        cases.append(Graph.from_edges(n, [(0, v) for v in range(1, n)]))
        cases.append(_with_isolated(_numpy_random_graph(n // 3, 0.5, n), n))
        cases.append(_with_isolated(_numpy_random_graph(n - 1, 0.05, n), n))
    for g in cases:
        text = write_edge_list(g)
        assert text == _reference_edge_list(g), g
        assert read_edge_list(text) == g


def test_edge_list_chunks_stream_in_bounded_memory():
    # theta L4's text is 27 MB; the writer holds one row stripe at a time
    g = nested_blowup(base_graph(Family.THETA222), 4)
    size = len(f"{g.n}\n") + 2 * g.edge_count
    size += sum(row.bit_count() * len(str(u)) for u, row in enumerate(g.rows))
    tracemalloc.start()
    try:
        written = sum(len(chunk) for chunk in graphs_module._edge_list_chunks(g))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert written == size
    assert peak < 8 << 20


@pytest.mark.parametrize("family", [Family.C4, Family.THETA222])
@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_write_edge_list_matches_reference_blowups(family, level):
    g = nested_blowup(base_graph(family), level)
    assert write_edge_list(g) == _reference_edge_list(g)


@pytest.mark.parametrize("family", [Family.C4, Family.THETA222])
def test_write_edge_list_matches_digit_rule(family):
    base = base_graph(family)
    assert write_edge_list(nested_blowup(base, 3)) == digit_rule_edge_list(base, 3)


@given(st.integers(0, 123456))
@settings(max_examples=60, deadline=None)
def test_edge_list_roundtrip(seed):
    rng = random.Random(seed)
    g = random_graph(rng.randint(1, 20), rng.random(), seed)
    back = read_edge_list(write_edge_list(g))
    assert back == g
    # equal graphs hash alike and are one element of a set
    assert hash(back) == hash(g)
    assert len({back, g}) == 1


def test_write_edge_list_sorted_pairs():
    g = nested_blowup(base_graph(Family.C4), 1)
    lines = write_edge_list(g).strip().splitlines()[1:]
    pairs = [tuple(map(int, line.split())) for line in lines]
    assert pairs == sorted(pairs)
    assert all(u < v for u, v in pairs)

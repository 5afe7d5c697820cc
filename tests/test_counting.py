"""Both counters against each other, the reference oracle, and frozen values."""

from __future__ import annotations

import os
import random
from itertools import combinations
from math import comb
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowup_census import (
    CountParityError,
    Family,
    Graph,
    Method,
    SubsetCapExceeded,
    VertexCapExceeded,
    base_graph,
    complete_graph,
    compose,
    count_induced_c4,
    count_induced_c4_diagonal,
    count_induced_c4_enum,
    cycle_graph,
    empty_graph,
    nested_blowup,
    theta_222,
)
from blowup_census import counting
from blowup_census.counting import _diagonal_raw, _diagonal_raw_sum, _pool_size, _twin_classes
from helpers import (
    brute_force_c4_count,
    dense_adjacency,
    edges,
    random_graph,
    reference_diagonal_raw,
    relabel,
    substitute,
)


def test_c4_base_counts():
    g = cycle_graph(4)
    assert count_induced_c4_enum(g).value == 1
    assert count_induced_c4_diagonal(g).value == 1


def test_theta_base_count():
    assert count_induced_c4_enum(theta_222()).value == 3
    assert count_induced_c4_diagonal(theta_222()).value == 3


def test_k4_has_none():
    assert count_induced_c4_enum(complete_graph(4)).value == 0
    assert count_induced_c4_diagonal(complete_graph(4)).value == 0


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_tiny_graphs_count_zero(n):
    for g in (complete_graph(n), empty_graph(n), random_graph(n, 0.5, n)):
        assert count_induced_c4_enum(g).value == 0
        assert count_induced_c4_diagonal(g).value == 0


@pytest.mark.parametrize("n", range(4, 17))
def test_complete_and_empty_have_none(n):
    for g in (complete_graph(n), empty_graph(n)):
        assert count_induced_c4_enum(g).value == 0
        assert count_induced_c4_diagonal(g).value == 0


def test_removing_any_c4_edge_kills_the_cycle():
    edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
    for drop in edges:
        g = Graph.from_edges(4, [e for e in edges if e != drop])
        assert count_induced_c4_enum(g).value == 0
        assert count_induced_c4_diagonal(g).value == 0


_C4 = [(0, 1), (1, 2), (2, 3), (0, 3)]


@pytest.mark.parametrize(
    "n, edges, expected",
    [
        # isolated vertex 5 and degree-1 vertices 2, 3, 4: fewer than 2 neighbours
        (6, [(0, 1), (0, 2), (0, 3), (1, 4)], 0),
        # a C4 with a pendant vertex and an isolated one
        (6, _C4 + [(3, 4)], 1),
        # vertex 0 is adjacent to every v > 0, so it has no non-edge to scan
        (5, [(0, v) for v in range(1, 5)] + [(a + 1, b + 1) for a, b in _C4], 1),
        # K_{3,3}: every pair of one side with every pair of the other
        (6, [(a, b) for a in range(3) for b in range(3, 6)], 9),
        # two disjoint C4s joined by one edge
        (8, _C4 + [(a + 4, b + 4) for a, b in _C4] + [(3, 4)], 2),
    ],
)
def test_diagonal_edge_cases_match_enumeration(n, edges, expected):
    g = Graph.from_edges(n, edges)
    assert count_induced_c4_enum(g).value == expected
    assert count_induced_c4_diagonal(g).value == expected


def test_diagonal_matches_enumeration_across_densities():
    rng = random.Random(2024)
    for seed in range(200):
        n = rng.randint(4, 40)
        p = 0.05 + 0.9 * seed / 199
        g = random_graph(n, p, seed)
        assert count_induced_c4_diagonal(g).value == count_induced_c4_enum(g).value, (
            f"seed={seed} n={n} p={p:.2f}"
        )


# Sizes around the 64-bit word boundaries of the bit-sliced subset scan.
_WORD_EDGE_SIZES = [62, 63, 64, 65, 66, 127, 128, 129]


def test_enumeration_matches_brute_force():
    # Graphs that fit the brute-force oracle whole, at densities 0.05-0.95,
    # plus graphs on the word-boundary sizes whose edges lie on a small
    # support straddling the boundaries; an isolated vertex lies on no
    # induced 4-cycle, so the oracle runs on the support alone.
    rng = random.Random(4064)
    checked = 0
    for seed in range(140):
        n = rng.randint(4, 22)
        p = 0.05 + 0.9 * seed / 139
        g = random_graph(n, p, seed)
        assert count_induced_c4_enum(g).value == brute_force_c4_count(g), (
            f"seed={seed} n={n} p={p:.2f}"
        )
        checked += 1
    for n in _WORD_EDGE_SIZES:
        boundary = [v for v in (0, 1, 62, 63, 64, 65, 126, 127, 128) if v < n]
        for k, p in enumerate([0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95]):
            rest = rng.sample([v for v in range(n) if v not in boundary], 16 - len(boundary))
            labels = boundary + rest
            rng.shuffle(labels)
            small = random_graph(16, p, 1000 * n + k)
            g = Graph.from_edges(n, [(labels[u], labels[v]) for u, v in edges(small)])
            assert count_induced_c4_enum(g).value == brute_force_c4_count(small), (
                f"n={n} p={p} labels={labels}"
            )
            checked += 1
        for g in (empty_graph(n), complete_graph(n)):
            # every 4-subset induces no edge or all six, never a 4-cycle
            assert count_induced_c4_enum(g).value == 0
    for n in range(4, 12):
        for g in (empty_graph(n), complete_graph(n)):
            assert count_induced_c4_enum(g).value == brute_force_c4_count(g) == 0
            checked += 1
    assert checked >= 200


def test_enumeration_across_chunks(monkeypatch):
    graphs = [
        nested_blowup(base_graph(Family.C4), 2),
        nested_blowup(base_graph(Family.THETA222), 2),
        random_graph(130, 0.6, 5),
    ]
    expected = [count_induced_c4_enum(g).value for g in graphs]
    assert expected[:2] == [114512, 1947705]
    for budget in (1, 8 * 3 * 64):
        # one b row per chunk, then a few, with chunk edges falling mid-way
        # through the words
        monkeypatch.setattr(counting, "_ENUM_BLOCK_BYTES", budget)
        for g, value in zip(graphs, expected):
            assert count_induced_c4_enum(g).value == value, f"budget={budget} n={g.n}"


def test_enumeration_chunks_stay_under_the_budget(monkeypatch):
    # every gathered operand is handed to the popcount; the scan fills them
    # up to the budget and never past it
    g = random_graph(200, 0.5, 3)
    budget = 1 << 14
    largest = 0
    real_bitwise_count = np.bitwise_count

    def spy(x, *args, **kwargs):
        nonlocal largest
        largest = max(largest, x.nbytes)
        return real_bitwise_count(x, *args, **kwargs)

    monkeypatch.setattr(counting, "_ENUM_BLOCK_BYTES", budget)
    monkeypatch.setattr(np, "bitwise_count", spy)
    value = count_induced_c4_enum(g).value
    monkeypatch.undo()
    assert value == count_induced_c4_enum(g).value
    assert budget // 4 < largest <= budget


def _path_centres(g: Graph) -> list[str]:
    """For each induced 4-cycle {a < b < c < d} of g, found by brute force,
    the centre of the induced path on {a, b, c}: the one of them d does not see."""
    centres = []
    rows = g.rows
    for quad in combinations(range(g.n), 4):
        degrees = [sum((rows[u] >> v) & 1 for v in quad) for u in quad]
        if degrees == [2, 2, 2, 2]:
            *path, d = quad
            centres.append("abc"[next(i for i, x in enumerate(path) if not (rows[x] >> d) & 1)])
    return centres


@pytest.mark.parametrize("centre", ["a", "b", "c"])
def test_enumeration_by_path_centre(centre, monkeypatch):
    # seeded small graphs whose induced 4-cycles all have this path centre,
    # then all of them at once on interleaved labels of a 140-vertex graph
    # (order kept within each part, so every centre stays the same), with
    # the word boundaries 63/64 and 127/128 among the labels
    rng = random.Random(f"path-centre-{centre}")
    parts = []
    while len(parts) < 16:
        g = random_graph(rng.randint(5, 9), rng.uniform(0.2, 0.8), rng.randrange(10**9))
        centres = _path_centres(g)
        if centres and set(centres) == {centre}:
            assert count_induced_c4_enum(g).value == brute_force_c4_count(g) == len(centres)
            parts.append(g)
    n = 140
    sizes = [g.n for g in parts]
    boundary = [63, 64, 127, 128]
    slots = boundary + rng.sample([v for v in range(n) if v not in boundary], sum(sizes) - 4)
    rng.shuffle(slots)
    pairs = []
    for g, start in zip(parts, np.cumsum([0] + sizes[:-1]).tolist()):
        labels = sorted(slots[start : start + g.n])
        pairs += [(labels[u], labels[v]) for u, v in edges(g)]
    whole = Graph.from_edges(n, pairs)
    expected = sum(brute_force_c4_count(g) for g in parts)
    assert expected >= 16
    assert count_induced_c4_enum(whole).value == expected
    for budget in (1, 8 * 3 * 64):
        monkeypatch.setattr(counting, "_ENUM_BLOCK_BYTES", budget)
        assert count_induced_c4_enum(whole).value == expected, f"budget={budget}"


def _planted_twin_graphs() -> list[Graph]:
    """Seeded graphs full of twins, each also relabelled so that no class of
    equal rows is consecutive: false twins from compose(G, empty_k) and
    compose(H, G), true twins (adjacent, rows equal but for each other) from
    compose(G, K_k), isolated vertices appended, classes of sizes 2 and 3
    side by side from compose(G, K_{2,3}), classes of unequal sizes inside
    one neighbourhood from substitutions of unequal empty, complete and
    random blobs, and twin-free graphs."""
    rng = random.Random("planted-twins")
    graphs = []
    for _ in range(24):
        g = random_graph(rng.randint(1, 8), rng.uniform(0.1, 0.9), rng.randrange(10**9))
        h = random_graph(rng.randint(1, 5), rng.uniform(0.1, 0.9), rng.randrange(10**9))
        k = rng.randint(2, 4)
        loose = Graph(g.n + k, g.rows + (0,) * k)
        blobs = [
            rng.choice((empty_graph, complete_graph))(rng.randint(1, 4))
            if rng.random() < 0.7
            else random_graph(rng.randint(1, 4), 0.5, rng.randrange(10**9))
            for _ in range(g.n)
        ]
        for x in (
            compose(g, empty_graph(k)),
            compose(g, complete_graph(k)),
            compose(h, g),
            loose,
            compose(g, theta_222()),
            substitute(g, blobs),
            substitute(g, [empty_graph(rng.randint(1, 5)) for _ in range(g.n)]),
        ):
            perm = list(range(x.n))
            rng.shuffle(perm)
            graphs += [x, relabel(x, perm)]
    while len(graphs) < 380:
        g = random_graph(rng.randint(4, 30), rng.uniform(0.1, 0.9), rng.randrange(10**9))
        if len(set(g.rows)) == g.n:
            graphs.append(g)
    return graphs


def _unequal_classes(g: Graph) -> bool:
    """Some neighbourhood holds two classes of equal rows of unequal sizes."""
    rows = g.rows
    size = {row: rows.count(row) for row in rows}
    return any(len({size[rows[w]] for w in range(g.n) if (row >> w) & 1}) > 1 for row in rows)


def test_grouped_diagonal_matches_per_vertex_reference():
    graphs = _planted_twin_graphs()
    grouped = unequal = 0
    for g in graphs:
        raw = _diagonal_raw(g.packed)
        assert raw == reference_diagonal_raw(dense_adjacency(g)), f"n={g.n} rows={g.rows}"
        if g.n <= 14:
            assert raw // 2 == count_induced_c4_diagonal(g).value == brute_force_c4_count(g)
        grouped += len(set(g.rows)) < g.n
        unequal += _unequal_classes(g)
    assert grouped >= 200
    assert unequal >= 100


@pytest.mark.parametrize(
    "g, expected",
    [
        (compose(complete_graph(3), empty_graph(2)), 3),  # K_{2,2,2}: one C4 per pair of parts
        (compose(complete_graph(2), empty_graph(3)), 9),  # K_{3,3}
        (compose(empty_graph(2), compose(complete_graph(2), empty_graph(2))), 2),  # 2 C4s
        (Graph.from_edges(6, [(0, v) for v in range(1, 6)]), 0),  # star K_{1,5}
        (Graph.from_edges(7, [(6, v) for v in range(6)]), 0),  # star, centre last
        (Graph.from_edges(4, [(1, 2), (1, 3)]), 0),  # star K_{1,2} and an isolated vertex
    ],
)
def test_grouped_diagonal_on_twin_classes(g, expected):
    perm = list(range(g.n))
    random.Random(g.n).shuffle(perm)
    for h in (g, relabel(g, perm)):
        raw = _diagonal_raw(h.packed)
        assert raw == reference_diagonal_raw(dense_adjacency(h)) == 2 * expected
        assert count_induced_c4_diagonal(h).value == brute_force_c4_count(h) == expected


def _row_classes(g: Graph) -> list[list[int]]:
    classes: dict[int, list[int]] = {}
    for v, row in enumerate(g.rows):
        classes.setdefault(row, []).append(v)
    return sorted(classes.values())


def test_neighbourhood_classes_keep_the_smallest_id():
    for g in _planted_twin_graphs():
        reps, size = _twin_classes(g.packed)
        classes = _row_classes(g)
        assert reps.tolist() == [ids[0] for ids in classes]
        assert dict(zip(reps.tolist(), size.tolist())) == {ids[0]: len(ids) for ids in classes}
        assert size.sum() == g.n


def test_diagonal_work_counters():
    # one product row per later class u does not see, plus u's own row when
    # its class has two or more members, and one column per class of N(u),
    # for every u with two neighbours
    for g in _planted_twin_graphs():
        classes = _row_classes(g)
        reps = [ids[0] for ids in classes]
        adjacency = g.rows
        rows = columns = 0
        for i, ids in enumerate(classes):
            row = adjacency[ids[0]]
            if row.bit_count() < 2:
                continue
            product = sum(1 for v in reps[i + 1 :] if not (row >> v) & 1) + (len(ids) > 1)
            rows += product
            columns += sum(1 for c in reps if (row >> c) & 1) if product else 0
        assert count_induced_c4_diagonal(g).work == {
            "neighbourhoods": len(classes),
            "rows": rows,
            "columns": columns,
        }
        if len(classes) == g.n:
            # twin-free: a row per non-edge {u, v > u} with deg(u) >= 2, as
            # per vertex, and deg(u) columns for every u that gets a product
            far = [
                [v for v in range(u + 1, g.n) if not (adjacency[u] >> v) & 1]
                if adjacency[u].bit_count() >= 2
                else []
                for u in range(g.n)
            ]
            assert rows == sum(map(len, far))
            assert columns == sum(adjacency[u].bit_count() for u in range(g.n) if far[u])
    assert count_induced_c4_enum(cycle_graph(5)).work == {"subsets": 5}
    assert count_induced_c4_enum(cycle_graph(3)).work == {"subsets": 0}


def test_odd_raw_sum_raises(monkeypatch):
    monkeypatch.setattr(counting, "_diagonal_raw_sum", lambda g, work: 3)
    with pytest.raises(CountParityError, match="odd"):
        count_induced_c4_diagonal(cycle_graph(4))


def test_asymmetric_adjacency_breaks_handshake_parity():
    # the C4 0-1-3-2-0 plus a one-way entry 1 -> 2 inside N(0)
    adj = np.zeros((4, 4), dtype=np.uint8)
    for a, b in [(0, 1), (0, 2), (1, 3), (2, 3)]:
        adj[a, b] = adj[b, a] = 1
    assert _diagonal_raw(np.packbits(adj, axis=1, bitorder="little")) == 2
    adj[1, 2] = 1
    with pytest.raises(CountParityError, match="handshake"):
        _diagonal_raw(np.packbits(adj, axis=1, bitorder="little"))


def test_weighted_step_is_exact_beyond_float32():
    # K_{4097,4097,4097}: three classes of 4097 false twins.  A vertex has
    # degree 8194, and a product |N(w) & S_v| * m_c' = 4097 * 4097 of the
    # weighted step is above 2**24, where float32 would round it.  Every
    # induced C4 takes two vertices from each of two parts.
    part = 4097
    full = (1 << 3 * part) - 1
    rows = tuple(full ^ (((1 << part) - 1) << part * (v // part)) for v in range(3 * part))
    result = count_induced_c4_diagonal(Graph(3 * part, rows))
    assert result.value == 3 * comb(part, 2) ** 2 == 211209324331008
    assert result.work == {"neighbourhoods": 3, "rows": 3, "columns": 6}


def test_float32_exactness_guard_refuses_before_allocating():
    # a stub with no adjacency at all: the guard must fire on n alone
    with pytest.raises(VertexCapExceeded, match="16777216"):
        count_induced_c4_diagonal(SimpleNamespace(n=1 << 24))
    with pytest.raises(VertexCapExceeded, match="16777216"):
        count_induced_c4_diagonal(SimpleNamespace(n=10**9))


# frozen values: first computed by an independent brute-force scan of every
# 4-subset of the constructed graphs, then cross-checked by both methods here


def test_c4_level_one_count():
    g = nested_blowup(base_graph(Family.C4), 1)
    assert count_induced_c4_enum(g).value == 404
    assert count_induced_c4_diagonal(g).value == 404


def test_c4_level_two_count():
    g = nested_blowup(base_graph(Family.C4), 2)
    for method in Method:
        result = count_induced_c4(g, method)
        assert (result.value, result.method) == (114512, method)


def test_theta_level_one_count():
    g = nested_blowup(base_graph(Family.THETA222), 1)
    assert [count_induced_c4(g, method).value for method in Method] == [2886, 2886]


def test_theta_level_two_diagonal():
    g = nested_blowup(base_graph(Family.THETA222), 2)
    assert count_induced_c4_diagonal(g).value == 1947705


def test_subset_cap_refusal():
    g = nested_blowup(base_graph(Family.C4), 1)
    with pytest.raises(SubsetCapExceeded, match="1820"):
        count_induced_c4_enum(g, subset_cap=1000)
    with pytest.raises(SubsetCapExceeded):
        count_induced_c4(g, "enum", subset_cap=1000)
    # the cap binds the enumeration counter only
    assert count_induced_c4(g, "diagonal", subset_cap=1000).value == 404


def test_dispatch_reads_the_counters_at_call_time(monkeypatch):
    # replacing a counter on the module, as the benchmark's spans do, must
    # reach every caller of the dispatch
    calls = []
    for name in ("count_induced_c4_enum", "count_induced_c4_diagonal"):
        original = getattr(counting, name)
        monkeypatch.setattr(
            counting, name, lambda g, _f=original, _n=name, **kw: calls.append(_n) or _f(g, **kw)
        )
    g = cycle_graph(4)
    assert count_induced_c4(g, Method.ENUMERATION, workers=2).value == 1
    assert count_induced_c4(g, Method.DIAGONAL).value == 1
    assert calls == ["count_induced_c4_enum", "count_induced_c4_diagonal"]


def test_diagonal_raw_sum_even():
    for seed in range(20):
        g = random_graph(4 + seed, 0.45, seed)
        raw = _diagonal_raw_sum(g)
        assert raw % 2 == 0
        assert raw // 2 == count_induced_c4_diagonal(g).value


@given(st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_methods_match_reference_oracle(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 11)
    p = rng.uniform(0.1, 0.9)
    g = random_graph(n, p, seed)
    expected = brute_force_c4_count(g)
    assert count_induced_c4_enum(g).value == expected
    assert count_induced_c4_diagonal(g).value == expected


def test_method_equivalence_medium_graphs():
    for seed in range(50):
        g = random_graph(16 + seed % 17, 0.1 + 0.08 * (seed % 10), seed)
        assert count_induced_c4_enum(g).value == count_induced_c4_diagonal(g).value


def test_isomorphism_invariance_spot():
    for family, expected in [(Family.C4, 404), (Family.THETA222, 2886)]:
        g = nested_blowup(base_graph(family), 1)
        for seed in range(5):
            perm = list(range(g.n))
            random.Random(seed).shuffle(perm)
            h = relabel(g, perm)
            assert count_induced_c4_enum(h).value == count_induced_c4_diagonal(h).value == expected


def test_worker_count_does_not_change_results():
    g = nested_blowup(base_graph(Family.C4), 1)
    base_enum = count_induced_c4_enum(g).value
    assert count_induced_c4_enum(g, workers=2).value == base_enum
    assert count_induced_c4_enum(g, workers=3).value == base_enum


def test_pool_size_is_clamped():
    cores = os.cpu_count() or 1
    assert _pool_size(1, 100) == 1
    assert _pool_size(2, 100) == min(2, cores)
    assert _pool_size(10**9, 100) == min(100, cores)
    assert _pool_size(10**9, 1) == 1
    assert _pool_size(4, 0) == 1

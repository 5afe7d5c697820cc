"""Both counters against each other, the reference oracle, and frozen values."""

from __future__ import annotations

import random
import tracemalloc
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
    compose,
    count_induced_c4,
    count_induced_c4_diagonal,
    count_induced_c4_enum,
    cycle_graph,
    nested_blowup,
    theta_222,
)
from blowup_census import counting
from blowup_census import graphs as graphs_module
from blowup_census.counting import _diagonal_raw, _twin_classes
from helpers import (
    brute_force_c4_count,
    complete_graph,
    dense_adjacency,
    edges,
    empty_graph,
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


# Sizes around multiples of 64.
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
    for budget in (1, 1 << 12):
        # one c per product, then runs of a few c
        monkeypatch.setattr(counting, "_ENUM_RUN_BYTES", budget)
        for g, value in zip(graphs, expected):
            assert count_induced_c4_enum(g).value == value, f"budget={budget} n={g.n}"


def test_enumeration_chunks_stay_under_the_budget(monkeypatch):
    # every run's product goes through np.matmul as its largest operand;
    # the runs cover every third vertex once, and a run of several c keeps
    # its product within the budget and fills it past a quarter
    g = random_graph(200, 0.5, 3)
    budget = 1 << 16
    monkeypatch.setattr(counting, "_ENUM_RUN_BYTES", budget)
    runs = counting._enum_runs(g.n)
    assert [c for c0, c1 in runs for c in range(c0, c1)] == list(range(2, g.n - 1))
    products = []
    real_matmul = np.matmul

    def spy(a, b, *args, **kwargs):
        out = real_matmul(a, b, *args, **kwargs)
        products.append(out.nbytes)
        return out

    monkeypatch.setattr(np, "matmul", spy)
    result = count_induced_c4_enum(g)
    monkeypatch.undo()
    assert result.work["passes"] == len(runs) > 1
    # four products a run: the paths, deg_U, the sums over e and o, and
    # |N(x) & e|
    largest = products[::4]
    assert len(largest) == len(runs)
    several = [size for size, (c0, c1) in zip(largest, runs) if c1 - c0 > 1]
    assert several and max(several) <= budget
    assert budget // 4 < max(several)
    assert result.value == count_induced_c4_diagonal(g).value


@pytest.mark.parametrize("budget", ["one", "default"])
def test_enumeration_at_both_run_budgets(monkeypatch, budget):
    # Interleaved small parts (brute force on each part), seeded G(n, p)
    # across densities and randomly relabelled nested blow-ups, from a few
    # dozen vertices to a few hundred: each counted by the scan and by the
    # diagonal counter, at a run budget of 1 byte (one c a product) and at
    # the default
    if budget == "one":
        monkeypatch.setattr(counting, "_ENUM_RUN_BYTES", 1)
    rng = random.Random(f"run-budgets-{budget}")
    graphs = [_interleaved_parts(n, f"run-budgets-{n}") for n in (40, 100, 127, 128, 129, 195)]
    for k, p in enumerate((0.05, 0.3, 0.6, 0.95)):
        for n in (30, 126, 130):
            graphs.append((random_graph(n, p, 100 * n + k), None))
    for family, level in ((Family.C4, 3), (Family.THETA222, 2)):
        g = nested_blowup(base_graph(family), level)
        perm = list(range(g.n))
        rng.shuffle(perm)
        graphs.append((relabel(g, perm), None))
    for g, expected in graphs:
        value = count_induced_c4_enum(g).value
        assert value == count_induced_c4_diagonal(g).value, g.n
        if expected is not None:
            assert value == expected >= 20, g.n
    assert count_induced_c4_enum(graphs[-2][0]).value == 30051648


@pytest.mark.parametrize("budget", ["one", "default"])
def test_enumeration_bytes_bound_the_traced_peak(monkeypatch, budget):
    # every array the scan allocates is traced; its peak stays within the
    # reported bound, at 1-byte runs and at the default, on graphs of 16 to
    # 300 vertices
    if budget == "one":
        monkeypatch.setattr(counting, "_ENUM_RUN_BYTES", 1)
    graphs = [
        nested_blowup(base_graph(Family.C4), 3),
        random_graph(200, 0.5, 200),
        random_graph(128, 0.1, 7),
        nested_blowup(base_graph(Family.C4), 1),
        _interleaved_parts(300, "traced")[0],
    ]
    for g in graphs:
        count_induced_c4_enum(g)  # numpy's first-call caches
        tracemalloc.start()
        try:
            result = count_induced_c4_enum(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 5 * g.n * g.n < peak <= result.work["bytes"], (g.n, budget)


@pytest.mark.parametrize(
    "float32_order, int64_order, sums, int64_sums",
    [
        (counting._FLOAT32_SUM_ORDER, counting._INT64_DOT_ORDER, np.float32, True),
        (-1, counting._INT64_DOT_ORDER, np.float64, True),
        (-1, -1, np.float64, False),
    ],
    ids=["float32-sums-int64-runs", "float64-sums-int64-runs", "float64-sums-python-ints"],
)
def test_enumeration_arithmetic_regimes(monkeypatch, float32_order, int64_order, sums, int64_sums):
    # the orders at which the products' row sums leave float32 and the run
    # sums leave int64, moved below every test graph to run the arithmetic
    # that graphs beyond them take; small graphs are checked by brute force
    graphs = [random_graph(n, p, seed) for seed, (n, p) in enumerate([(9, 0.5), (14, 0.3), (16, 0.7), (20, 0.5)])]
    graphs += [g for g in _planted_twin_graphs()[:40:3] if g.n >= 4]
    graphs += [nested_blowup(base_graph(Family.C4), 3), random_graph(150, 0.4, 150)]
    expected = [count_induced_c4_diagonal(g).value for g in graphs]
    dtypes = set()
    sums_taken = 0
    real_matmul = np.matmul

    def spy_matmul(a, b, *args, **kwargs):
        dtypes.add(b.dtype.type)
        return real_matmul(a, b, *args, **kwargs)

    def spy_sum(values, *args):
        nonlocal sums_taken
        sums_taken += isinstance(values, list)  # a run's terms, as Python ints
        return sum(values, *args)

    monkeypatch.setattr(counting, "_FLOAT32_SUM_ORDER", float32_order)
    monkeypatch.setattr(counting, "_INT64_DOT_ORDER", int64_order)
    monkeypatch.setattr(np, "matmul", spy_matmul)
    monkeypatch.setattr(counting, "sum", spy_sum, raising=False)
    for g, value in zip(graphs, expected):
        assert count_induced_c4_enum(g).value == value, g.rows if g.n <= 30 else g.n
        if g.n <= 16:
            assert value == brute_force_c4_count(g)
    monkeypatch.undo()
    assert (sums in dtypes) and (np.float64 in dtypes) == (sums is np.float64)
    assert (sums_taken == 0) == int64_sums


def test_enumeration_checks_parity():
    # the C4 0-2-1-3-0 plus a one-way entry 0 -> 1 inside U = {0, 1} of
    # c = 2, both seen by d = 3: the edges among them, counted once as an
    # ordered pair instead of twice, make the doubled count odd
    adj = np.zeros((4, 4), dtype=np.uint8)
    for a, b in [(0, 2), (1, 2), (0, 3), (1, 3)]:
        adj[a, b] = adj[b, a] = 1
    assert counting._enum_count(np.packbits(adj, axis=1, bitorder="little")) == (1, 1)
    adj[0, 1] = 1
    with pytest.raises(CountParityError, match="odd"):
        counting._enum_count(np.packbits(adj, axis=1, bitorder="little"))


def test_enumeration_beyond_physical_memory(monkeypatch):
    # a scan estimated above _ENUM_UNCHECKED_BYTES is refused from its
    # estimate before anything is unpacked or allocated, the subset cap
    # being checked first; a scan estimated at or below it is not checked
    n = 200
    g = random_graph(n, 0.5, 11)
    need = counting._enum_bytes(n)
    assert need == 8192 + 5 * n**2 + max(counting._enum_run_bytes(n, *run) for run in counting._enum_runs(n))
    small = random_graph(100, 0.5, 12)
    assert counting._enum_bytes(small.n) <= counting._ENUM_UNCHECKED_BYTES < need
    expected = [count_induced_c4_diagonal(h).value for h in (g, small)]
    monkeypatch.setattr(graphs_module, "_physical_memory", lambda: need - 1)
    with monkeypatch.context() as m:
        m.setattr(np, "unpackbits", None)
        tracemalloc.start()
        try:
            with pytest.raises(VertexCapExceeded, match=f"exhaustive scan of {n} vertices would take {need} bytes"):
                count_induced_c4_enum(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10 < need
        with pytest.raises(SubsetCapExceeded):
            count_induced_c4_enum(g, subset_cap=comb(n, 4) - 1)
    monkeypatch.setattr(graphs_module, "_physical_memory", lambda: 1)
    assert count_induced_c4_enum(small).value == expected[1]
    monkeypatch.setattr(graphs_module, "_physical_memory", lambda: need)
    assert count_induced_c4_enum(g).value == expected[0]


# The diagonal counter's byte budgets: at 1 byte each, every window and
# every stack is one representative.
_DIAGONAL_BUDGETS = ("_DIAGONAL_BLOCK_BYTES", "_DIAGONAL_WIDE_BYTES", "_DIAGONAL_WINDOW_BYTES")


def _set_budgets(monkeypatch, budget: int) -> None:
    for name in _DIAGONAL_BUDGETS:
        monkeypatch.setattr(counting, name, budget)


def test_diagonal_stacks_stay_under_the_budget(monkeypatch):
    # every product of the diagonal counter goes through np.matmul; on a
    # graph where no representative's rows alone exceed the budget, stacks
    # of several representatives fill Q's block, Y and the product up to
    # the budget (the block and wide budgets both) and never past it
    g = random_graph(150, 0.2, 3)
    budget = 1 << 16
    largest = products = 0
    real_matmul = np.matmul

    def spy(a, b, *args, **kwargs):
        nonlocal largest, products
        out = real_matmul(a, b, *args, **kwargs)
        largest = max(largest, a.nbytes, b.nbytes, out.nbytes)
        products += 1
        return out

    lone: dict[str, int] = {}
    _set_budgets(monkeypatch, 1)
    expected = _diagonal_raw(g.packed, lone)
    monkeypatch.undo()
    monkeypatch.setattr(counting, "_DIAGONAL_BLOCK_BYTES", budget)
    monkeypatch.setattr(counting, "_DIAGONAL_WIDE_BYTES", budget)
    monkeypatch.setattr(np, "matmul", spy)
    work: dict[str, int] = {}
    assert _diagonal_raw(g.packed, work) == expected
    monkeypatch.undo()
    assert products == work["passes"] < lone["passes"] // 2
    assert budget // 4 < largest <= budget


def _interleaved_parts(n: int, seed: str) -> tuple[Graph, int]:
    """A disjoint union of seeded random graphs on 8 to 15 vertices whose
    labels, each part's in order, interleave over all n vertices; and its
    induced 4-cycle count, by brute force on each part (a 4-cycle is
    connected, so it lies in one part)."""
    rng = random.Random(seed)
    sizes = [8] * (n // 8)
    sizes[-1] += n % 8
    parts = [random_graph(k, rng.uniform(0.3, 0.7), rng.randrange(10**9)) for k in sizes]
    slots = list(range(n))
    rng.shuffle(slots)
    pairs = []
    for g, start in zip(parts, np.cumsum([0] + sizes[:-1]).tolist()):
        labels = sorted(slots[start : start + g.n])
        pairs += [(labels[u], labels[v]) for u, v in edges(g)]
    return Graph.from_edges(n, pairs), sum(map(brute_force_c4_count, parts))


@pytest.mark.parametrize("n", [63, 64, 65, 127, 128, 129])
def test_enumeration_runs_at_word_boundaries(n, monkeypatch):
    # run budgets of one c a product, of a few c and the default, on sizes
    # around multiples of 64
    g, expected = _interleaved_parts(n, f"runs-{n}")
    assert expected >= 20
    lengths = set()
    for budget in (1, 1 << 12, 1 << 15, counting._ENUM_RUN_BYTES):
        monkeypatch.setattr(counting, "_ENUM_RUN_BYTES", budget)
        runs = counting._enum_runs(n)
        assert [c for c0, c1 in runs for c in range(c0, c1)] == list(range(2, n - 1))
        lengths |= {c1 - c0 for c0, c1 in runs}
        assert count_induced_c4_enum(g).value == expected, f"budget={budget}"
    assert 1 in lengths and max(lengths) > 2


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
    for budget in (1, 1 << 12):
        monkeypatch.setattr(counting, "_ENUM_RUN_BYTES", budget)
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


def test_diagonal_stacks_across_budgets(monkeypatch):
    # every budget at 1 byte: every window and stack one representative,
    # the per-representative products; 256 to 2048 bytes: stacks cut
    # between representatives, windows of a few rows; 2**40: the whole
    # quotient in one pass
    graphs = _planted_twin_graphs()
    expected = [reference_diagonal_raw(dense_adjacency(g)) for g in graphs]
    lone = []
    for budget in (1, 256, 1024, 2048, 1 << 40):
        _set_budgets(monkeypatch, budget)
        passes = []
        for g, raw in zip(graphs, expected):
            work: dict[str, int] = {}
            assert _diagonal_raw(g.packed, work) == raw, f"budget={budget} rows={g.rows}"
            if g.n <= 14:
                assert count_induced_c4_diagonal(g).value == brute_force_c4_count(g) == raw // 2
            passes.append(work["passes"])
        if budget == 1:
            lone = passes
            assert passes == [len(_diagonal_members(g)) for g in graphs]
        elif budget < 1 << 40:
            # several passes, some of several representatives
            assert sum(1 < p < q for p, q in zip(passes, lone)) >= 50, budget
        else:
            assert set(passes) <= {0, 1}


def _diagonal_settings() -> list[dict[str, int]]:
    """Every budget at 1 byte (a window and a stack per representative),
    every budget at its default, and windows of 1 byte under default
    stacks (stacks that span windows)."""
    defaults = {name: getattr(counting, name) for name in _DIAGONAL_BUDGETS}
    return [dict.fromkeys(_DIAGONAL_BUDGETS, 1), defaults, {**defaults, "_DIAGONAL_WINDOW_BYTES": 1}]


def test_merged_rows_on_nested_blowups(monkeypatch):
    # nested blow-ups of seeded random bases on 2 to 5 vertices, to the
    # deepest level of at most 125 vertices: as built, the rows from one
    # class to the members of one far blob are consecutive and merge; a
    # seeded relabelling breaks most of those runs.  Then seeded twin-free
    # G(n, p) up to 200 vertices, where every row is its own run but for
    # rare equal neighbourhoods.  Each under every setting of the budgets
    rng = random.Random("merged-rows")
    distinct = {"built": 0, "relabelled": 0}
    rows = 0
    cases = []
    for _ in range(16):
        base = random_graph(rng.randint(2, 5), rng.uniform(0.2, 0.8), rng.randrange(10**9))
        level = 1
        while base.n ** (level + 2) <= 125:
            level += 1
        g = nested_blowup(base, level)
        perm = list(range(g.n))
        rng.shuffle(perm)
        cases += [("built", g), ("relabelled", relabel(g, perm))]
    twin_free = 0
    for n in (20, 45, 80, 120, 160, 200):
        for p in (0.1, 0.3, 0.6):
            g = random_graph(n, p, rng.randrange(10**9))
            twin_free += len(set(g.rows)) == n
            cases.append(("random", g))
    assert twin_free >= 16
    for name, h in cases:
        raw = reference_diagonal_raw(dense_adjacency(h))
        assert raw == 2 * count_induced_c4_enum(h).value, (name, h.rows)
        for budgets in _diagonal_settings():
            for budget, value in budgets.items():
                monkeypatch.setattr(counting, budget, value)
            work: dict[str, int] = {}
            assert _diagonal_raw(h.packed, work) == raw, (name, h.rows, budgets)
            if name != "random":
                distinct[name] += work["distinct"]
                rows += work["rows"]
        monkeypatch.undo()
    assert distinct["built"] < distinct["relabelled"] < rows // 2
    assert 10 * distinct["built"] < rows // 2


def test_run_spans_two_members_of_a_stack(monkeypatch):
    # 0 and 1 see each other and the false twins 2 and 3, which 4 sees too:
    # the rows (0, 4) and (1, 4) are both on S = {2, 3}, the last of
    # member 0 and the first of member 1, then 2's own row on {0, 1, 4}.
    # One window merges the first two, and its stack counts the merged row
    # for both; a window per member cannot, whether each member is a stack
    # (every budget at 1 byte) or the three share one (windows of 1 byte)
    g = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 4)])
    raw = reference_diagonal_raw(dense_adjacency(g))
    assert raw // 2 == brute_force_c4_count(g) == count_induced_c4_enum(g).value == 2
    for budgets, passes, distinct in zip(_diagonal_settings(), (3, 1, 1), (3, 2, 3)):
        for budget, value in budgets.items():
            monkeypatch.setattr(counting, budget, value)
        work: dict[str, int] = {}
        assert _diagonal_raw(g.packed, work) == raw
        assert (work["rows"], work["distinct"], work["passes"]) == (3, distinct, passes)


@pytest.mark.parametrize(
    "float32_order, int64_order, sums, int64_dot",
    [
        (counting._FLOAT32_SUM_ORDER, counting._INT64_DOT_ORDER, np.float32, True),
        (-1, counting._INT64_DOT_ORDER, np.float64, True),
        (-1, -1, np.float64, False),
    ],
    ids=["float32-sums-int64-dot", "float64-sums-int64-dot", "float64-sums-python-ints"],
)
def test_diagonal_arithmetic_regimes(monkeypatch, float32_order, int64_order, sums, int64_dot):
    # the orders at which the weighted sums leave float32 and the row
    # weighting leaves int64, moved below every test graph to run the
    # arithmetic that larger graphs take
    graphs = _planted_twin_graphs()
    expected = [reference_diagonal_raw(dense_adjacency(g)) for g in graphs]
    dtypes = set()
    products = 0
    real_einsum = np.einsum

    def spy_einsum(*args, **kwargs):
        dtypes.add(kwargs["dtype"])
        return real_einsum(*args, **kwargs)

    def spy_mul(a, b):
        nonlocal products
        products += 1
        return a * b

    monkeypatch.setattr(counting, "_FLOAT32_SUM_ORDER", float32_order)
    monkeypatch.setattr(counting, "_INT64_DOT_ORDER", int64_order)
    monkeypatch.setattr(np, "einsum", spy_einsum)
    monkeypatch.setattr(counting, "mul", spy_mul)
    for g, raw in zip(graphs, expected):
        assert _diagonal_raw(g.packed) == raw, f"rows={g.rows}"
        value = count_induced_c4_diagonal(g).value
        assert value == count_induced_c4_enum(g).value == raw // 2
        if g.n <= 14:
            assert value == brute_force_c4_count(g)
    assert dtypes == {sums}
    assert (products == 0) == int64_dot


def test_diagonal_quotient_beyond_physical_memory(monkeypatch):
    # c4 L1 has 8 classes of equal rows, packed in one word: 9 * (25 * 8 +
    # 192) = 3528 bytes of quotient, refused from that estimate before any
    # matrix is allocated
    g = nested_blowup(base_graph(Family.C4), 1)
    peak = count_induced_c4_diagonal(g).work["bytes"]
    monkeypatch.setattr(graphs_module, "_physical_memory", lambda: 3527)
    with monkeypatch.context() as m:
        m.setattr(np, "zeros", None)
        with pytest.raises(VertexCapExceeded, match="8 classes of equal rows would take 3528 bytes"):
            count_induced_c4_diagonal(g)
    monkeypatch.setattr(graphs_module, "_physical_memory", lambda: peak)
    assert count_induced_c4_diagonal(g).value == 404


def test_diagonal_pass_beyond_physical_memory(monkeypatch):
    # c4 L1 fits its quotient in 3528 bytes; its one window, the 16 product
    # rows of all members, in 3528 + 16 (2 * 8 + 48) + 2 * 16 * 24 = 5320;
    # its one stack, 12 merged rows on the 9 columns of both classes and
    # the class of ones, in 3528 + 12 * 24 + 9 * (16 * 8 + 5 * 9 + 8) +
    # 12 * (2 * 8 + 10 * 9 + 40) = 7197.  Each is refused from its estimate
    # before any of its arrays exists: no window merged, no column
    # unpacked, no product
    g = nested_blowup(base_graph(Family.C4), 1)
    assert count_induced_c4_diagonal(g).work["bytes"] == 7197
    for memory, poisoned, message in (
        (3528, (np, "matmul"), "window of 16 rows on 8 classes would take 5320 bytes"),
        (3528, (counting, "_merged_rows"), "window of 16 rows on 8 classes would take 5320 bytes"),
        (7196, (np, "unpackbits"), "stack of 12 rows on 9 classes would take 7197 bytes"),
        (7196, (np, "matmul"), "stack of 12 rows on 9 classes would take 7197 bytes"),
    ):
        with monkeypatch.context() as m:
            m.setattr(graphs_module, "_physical_memory", lambda: memory)
            m.setattr(*poisoned, None)
            with pytest.raises(VertexCapExceeded, match=message):
                count_induced_c4_diagonal(g)
    monkeypatch.setattr(graphs_module, "_physical_memory", lambda: 7197)
    assert count_induced_c4_diagonal(g).value == 404


@pytest.mark.parametrize("budget", ["one", "default"])
def test_diagonal_bytes_bound_the_traced_peak(monkeypatch, budget):
    # every array the counter allocates is traced; its peak stays within
    # the largest estimate plus what the estimate leaves out: the
    # representatives' packed rows, hashed and gathered, the vertices'
    # class labels and a fixed allowance for the bookkeeping
    if budget == "one":
        _set_budgets(monkeypatch, 1)
    graphs = [
        nested_blowup(base_graph(Family.THETA222), 3),
        nested_blowup(cycle_graph(5), 3),
        nested_blowup(base_graph(Family.C4), 4),
        random_graph(300, 0.3, 300),
    ]
    assert len(set(graphs[-1].rows)) == 300
    for g in graphs:
        _diagonal_raw(g.packed)  # numpy's first-call caches
        work: dict[str, int] = {}
        tracemalloc.start()
        try:
            _diagonal_raw(g.packed, work)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        k, width = work["neighbourhoods"], g.packed.shape[1]
        assert peak <= work["bytes"] + 2 * k * (width + 64) + 64 * g.n + (64 << 10), (g.n, budget)


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


Member = tuple[list[frozenset[int]], set[int]]


def _diagonal_members(g: Graph) -> list[Member]:
    """The product rows, each as its common neighbourhood by class, and the
    neighbourhood by class of each representative that gets a product, in
    order: its own row first when its class has two or more members, then
    one row per later class it does not see, for every representative with
    two neighbours."""
    classes = _row_classes(g)
    reps = [ids[0] for ids in classes]
    members = []
    for i, ids in enumerate(classes):
        row = g.rows[ids[0]]
        if row.bit_count() < 2:
            continue
        far = [ids[0]] * (len(ids) > 1) + [v for v in reps[i + 1 :] if not (row >> v) & 1]
        if far:
            rows = [frozenset(c for c in reps if (row & g.rows[v]) >> c & 1) for v in far]
            members.append((rows, {c for c in reps if (row >> c) & 1}))
    return members


def _runs(rows: list[frozenset[int]]) -> int:
    """Runs of equal consecutive rows."""
    return sum(1 for i, row in enumerate(rows) if i == 0 or row != rows[i - 1])


def _estimate(k: int, rows: int = 0, held: int = 0, width: int = 0, stacked: int = 0) -> int:
    """The diagonal counter's byte estimate, restated: packed rows of
    b = 8 ceil((k + 1) / 64) bytes; the quotient, (k + 1) (25 b + 192);
    a window's gathered rows, 2 b + 48 bytes each; merged rows held, 24
    bytes each; and a stack on w columns with r merged rows,
    w (16 b + 5 w + 8) + r (2 b + 10 w + 40)."""
    b = 8 * -(-(k + 1) // 64)
    quotient = (k + 1) * (25 * b + 192)
    stack = width * (16 * b + 5 * width + 8) + stacked * (2 * b + 10 * width + 40)
    return quotient + rows * (2 * b + 48) + held * 24 + stack


def _diagonal_work(g: Graph, block: int, wide: int, window: int) -> dict[str, int]:
    """The diagonal counter's work counters, replayed on the members'
    product rows: windows of consecutive members whose rows fit the window
    budget, merged runs of equal rows within each, counted where they start;
    stacks of consecutive members that grow while their union (with the
    class of ones) and merged rows fit the block budget, or stay within
    1/32 and 8 columns of the first member's width and fit the wide budget;
    each window merged when the stack growing into it first needs its rows,
    unless the next member fails with the rows held alone."""
    k = len(_row_classes(g))
    members = _diagonal_members(g)
    b = 8 * -(-(k + 1) // 64)
    cap = max(1, window // b)
    windows, kept = [], []
    while len(kept) < len(members):
        first = end = len(kept)
        rows: list[frozenset[int]] = []
        while end < len(members) and (end == first or len(rows) + len(members[end][0]) <= cap):
            rows += members[end][0]
            end += 1
        windows.append((end, len(rows)))
        starts = [i for i, row in enumerate(rows) if i == 0 or row != rows[i - 1]]
        offset = 0
        for own, _ in members[first:end]:
            kept.append(sum(1 for s in starts if offset <= s < offset + len(own)))
            offset += len(own)

    def width(a: int, z: int) -> int:
        return len(set().union(*(nbrs for _, nbrs in members[a:z]))) + 1

    estimates = [_estimate(k)]
    passes = columns = start = loaded = held = pending = done = 0

    def merge() -> None:  # the next window
        nonlocal done, held, loaded, pending
        end, rows = windows[done]
        done += 1
        estimates.append(_estimate(k, rows, held + pending + 2 * rows))
        pending += sum(kept[loaded:end])
        held, loaded = pending, end

    while start < len(members):
        stop, first = start + 1, width(start, start + 1)
        near = first + first // 32 + 8

        def joins(w: int, r: int) -> bool:
            return 4 * w * max(r, w) <= block or w <= near and 4 * w * r <= wide

        while loaded <= start:
            merge()
        while stop < len(members):
            if loaded == stop:
                if stop == start + 1 and not joins(width(start, stop + 1), kept[start]):
                    break  # the next member fails with the first's rows alone
                merge()
            elif joins(width(start, stop + 1), sum(kept[start : stop + 1])):
                stop += 1
            else:
                break
        merged = sum(kept[start:stop])
        pending -= merged
        if merged:
            estimates.append(_estimate(k, 0, held, width(start, stop), merged))
            passes += 1
            columns += width(start, stop) - 1
        start = stop
    return {
        "neighbourhoods": k,
        "rows": sum(len(r) for r, _ in members),
        "distinct": sum(kept),
        "columns": columns,
        "passes": passes,
        "bytes": max(estimates),
    }

def test_diagonal_work_counters(monkeypatch):
    # rows are the members' product rows, merged in windows of consecutive
    # members; each stack is one pass on the union of its members' classes.
    # At budgets of 1 byte every window and every stack is one
    # representative, on the classes of its own neighbourhood, and no run
    # spans two members; at the defaults runs span the members of a window;
    # with windows of 1 byte and default stacks, stacks span windows
    settings = _diagonal_settings()
    merged = spanned = across = 0
    for g in _planted_twin_graphs():
        classes = _row_classes(g)
        members = _diagonal_members(g)
        rows = sum(len(r) for r, _ in members)
        works = []
        for budgets in settings:
            for name, value in budgets.items():
                monkeypatch.setattr(counting, name, value)
            works.append(count_induced_c4_diagonal(g).work)
            assert works[-1] == _diagonal_work(g, *budgets.values()), budgets
            merged += works[-1]["distinct"] < rows
            spanned += works[-1]["distinct"] < sum(_runs(r) for r, _ in members)
        monkeypatch.undo()
        across += works[2]["passes"] < works[0]["passes"]
        if len(classes) == g.n:
            # twin-free: a row per non-edge {u, v > u} with deg(u) >= 2, as
            # per vertex, and one pass on deg(u) columns for every u that
            # gets a product at budgets of 1 byte
            adjacency = g.rows
            far = [
                [v for v in range(u + 1, g.n) if not (adjacency[u] >> v) & 1]
                if adjacency[u].bit_count() >= 2
                else []
                for u in range(g.n)
            ]
            assert rows == sum(map(len, far))
            assert works[0]["passes"] == sum(1 for u in range(g.n) if far[u])
            assert works[0]["columns"] == sum(adjacency[u].bit_count() for u in range(g.n) if far[u])
    assert merged >= 300 and spanned >= 50 and across >= 50
    # the scan: one pass a run of products, and numpy's buffers and the
    # adjacency in bool and float32 beside the largest run; graphs under 4
    # vertices take no run
    assert count_induced_c4_enum(cycle_graph(5)).work == {
        "subsets": 5,
        "passes": 1,
        "bytes": 8192 + 5 * 5**2 + counting._enum_run_bytes(5, 2, 4),
    }
    for g in (empty_graph(0), empty_graph(1), complete_graph(2), cycle_graph(3)):
        result = count_induced_c4_enum(g)
        assert (result.value, result.work) == (0, {"subsets": 0, "passes": 0, "bytes": 8192 + 5 * g.n**2})
    for g, passes in ((random_graph(100, 0.5, 1), 5), (nested_blowup(base_graph(Family.C4), 3), 52)):
        runs = counting._enum_runs(g.n)
        assert len(runs) == passes
        assert count_induced_c4_enum(g).work == {
            "subsets": comb(g.n, 4),
            "passes": passes,
            "bytes": 8192 + 5 * g.n**2 + max(counting._enum_run_bytes(g.n, *run) for run in runs),
        }


def test_odd_raw_sum_raises(monkeypatch):
    monkeypatch.setattr(counting, "_diagonal_raw", lambda packed, work: 3)
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
    # four such C4s, counted in one stack of eight representatives; one-way
    # entries inside N(8) and N(12), of later members, make two rows odd
    # and leave the total even, so only a check per row sees them
    adj[1, 2] = 0
    adj = np.kron(np.eye(4, dtype=np.uint8), adj)
    work: dict[str, int] = {}
    assert _diagonal_raw(np.packbits(adj, axis=1, bitorder="little"), work) == 8
    assert work["passes"] == 1 and work["rows"] > 8
    adj[9, 10] = adj[13, 14] = 1
    with pytest.raises(CountParityError, match="handshake"):
        _diagonal_raw(np.packbits(adj, axis=1, bitorder="little"))
    # the C4s 0-1-3-2-0 and 0-1-4-2-0, with 3 and 4 adjacent and a pendant
    # 5 on 4: the rows (0, 3) and (0, 4), both on S = {1, 2}, merge into
    # one of weight 2, and no other row holds both 1 and 2.  A one-way
    # entry 1 -> 2 inside S makes that merged row's pair count odd
    adj = np.zeros((6, 6), dtype=np.uint8)
    for a, b in [(0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4), (4, 5)]:
        adj[a, b] = adj[b, a] = 1
    work = {}
    raw = _diagonal_raw(np.packbits(adj, axis=1, bitorder="little"), work)
    assert raw == reference_diagonal_raw(adj) == 4
    assert work["distinct"] < work["rows"]
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
    # one stack: each class's own row, on the union of the three classes;
    # the three rows name three different neighbourhoods, so none merge.
    # Its estimate is the peak: 4 * (25 * 8 + 192) of quotient, 3 merged
    # rows held, 4 columns and 3 rows on them
    assert result.work == {
        "neighbourhoods": 3,
        "rows": 3,
        "distinct": 3,
        "columns": 3,
        "passes": 1,
        "bytes": 1568 + 3 * 24 + 4 * (16 * 8 + 5 * 4 + 8) + 3 * (2 * 8 + 10 * 4 + 40),
    }


def test_float32_sums_would_be_inexact_beyond_their_order(monkeypatch):
    # K_{4097,4097,4098}: above _FLOAT32_SUM_ORDER the weighted sums run in
    # float64 and the count is exact; with the order moved up to n they run
    # in float32, where 4097 * 4098 and |S_v| (|S_v| - 1) round, and the
    # count comes out wrong
    sizes = (4097, 4097, 4098)
    full = (1 << sum(sizes)) - 1
    rows = []
    for first, size in zip((0, 4097, 8194), sizes):
        rows += [full ^ (((1 << size) - 1) << first)] * size
    g = Graph(len(rows), tuple(rows))
    expected = sum(comb(x, 2) * comb(y, 2) for x, y in combinations(sizes, 2))
    assert count_induced_c4_diagonal(g).value == expected == 211278077366272
    monkeypatch.setattr(counting, "_FLOAT32_SUM_ORDER", g.n)
    assert count_induced_c4_diagonal(g).value != expected


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
    assert count_induced_c4(g, Method.ENUMERATION).value == 1
    assert count_induced_c4(g, Method.DIAGONAL).value == 1
    assert calls == ["count_induced_c4_enum", "count_induced_c4_diagonal"]


def test_diagonal_raw_sum_even():
    for seed in range(20):
        g = random_graph(4 + seed, 0.45, seed)
        raw = _diagonal_raw(g.packed)
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

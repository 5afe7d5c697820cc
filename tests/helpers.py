"""Shared test utilities: a seeded random-graph model, a deliberately naive
induced-4-cycle oracle and a per-line edge-list parser, both sharing no code
with the package beyond the Graph type, the per-vertex diagonal sum the
package's quotient one must equal, substitution of unequal blobs, and small
adjacency queries on a Graph's rows."""

from __future__ import annotations

import random
from itertools import combinations
from typing import Iterable

import numpy as np

from blowup_census import BlowupSpec, Graph, GraphFormatError


def random_graph(n: int, p: float, seed: int) -> Graph:
    """Seeded G(n, p); deterministic across platforms (Mersenne Twister)."""
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def has_edge(g: Graph, u: int, v: int) -> bool:
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise IndexError(f"vertex pair ({u}, {v}) out of range")
    return bool((g.rows[u] >> v) & 1)


def neighbors(g: Graph, v: int) -> list[int]:
    """Neighbours of v, ascending."""
    return [u for u in range(g.n) if (g.rows[v] >> u) & 1]


def degree_sequence(g: Graph) -> tuple[int, ...]:
    return tuple(sorted(row.bit_count() for row in g.rows))


def blob_of(v: int, spec: BlowupSpec) -> int:
    """Index of the blob (base vertex) whose copy contains vertex v."""
    if not 0 <= v < spec.total_order:
        raise IndexError(f"vertex {v} out of range for order {spec.total_order}")
    return v // spec.blob_order


def relabel(g: Graph, perm: Iterable[int]) -> Graph:
    """Apply a vertex permutation: vertex v of g becomes perm[v]."""
    mapping = list(perm)
    if sorted(mapping) != list(range(g.n)):
        raise ValueError("relabeling must be a permutation of the vertex ids")
    rows = [0] * g.n
    for u, v in g.edges():
        pu, pv = mapping[u], mapping[v]
        rows[pu] |= 1 << pv
        rows[pv] |= 1 << pu
    return Graph(g.n, tuple(rows))


def substitute(q: Graph, blobs: list[Graph]) -> Graph:
    """The substitution q[blobs[0], ..., blobs[k-1]]: vertex i of q becomes a
    copy of blobs[i], and two copies are joined completely iff their vertices
    are adjacent in q.  compose(q, h) is the case of k equal blobs."""
    if len(blobs) != q.n:
        raise ValueError("one blob per vertex of q")
    starts = [0]
    for blob in blobs:
        starts.append(starts[-1] + blob.n)
    edges = [(starts[i] + a, starts[i] + b) for i, blob in enumerate(blobs) for a, b in blob.edges()]
    for i, j in q.edges():
        edges += [(a, b) for a in range(starts[i], starts[i + 1]) for b in range(starts[j], starts[j + 1])]
    return Graph.from_edges(starts[-1], edges)


def dense_adjacency(g: Graph) -> np.ndarray:
    """Adjacency as an (n, n) uint8 0/1 matrix, for the reference diagonal sum."""
    adj = np.zeros((g.n, g.n), dtype=np.uint8)
    for u, v in g.edges():
        adj[u, v] = adj[v, u] = 1
    return adj


def brute_force_c4_count(g: Graph) -> int:
    """Reference oracle: test every 4-subset directly against the definition."""
    count = 0
    for quad in combinations(range(g.n), 4):
        degs = dict.fromkeys(quad, 0)
        edges = 0
        for u, v in combinations(quad, 2):
            if (g.rows[u] >> v) & 1:
                edges += 1
                degs[u] += 1
                degs[v] += 1
        if edges == 4 and all(d == 2 for d in degs.values()):
            count += 1
    return count


def reference_read_edge_list(text: str) -> Graph:
    """Reference edge-list parser: one Python loop over the lines, with the
    checks and messages of ``read_edge_list``.  It reads ids with ``int()``
    and splits lines with ``str.splitlines`` and ``str.split``, so it also
    accepts the signs, ``_``, non-ASCII digits and other whitespace that the
    format rejects."""
    n: int | None = None
    pairs: list[tuple[int, int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if n is None:
            try:
                n = int(raw)
            except ValueError:
                raise GraphFormatError(
                    f"line {lineno}: vertex count expected, got {raw.strip()!r}"
                )
            if n < 0:
                raise GraphFormatError(f"line {lineno}: vertex count must be nonnegative")
            continue
        if len(parts) != 2:
            raise GraphFormatError(f"line {lineno}: expected 'u v', got {raw.strip()!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: non-integer vertex id in {raw.strip()!r}")
        if u == v:
            raise GraphFormatError(f"line {lineno}: self-loop at vertex {u}")
        if u > v:
            raise GraphFormatError(f"line {lineno}: edges must satisfy u < v, got {u} {v}")
        if not 0 <= u < n or not v < n:
            raise GraphFormatError(f"line {lineno}: vertex id out of range for n={n}")
        pairs.append((lineno, u, v))
    if n is None:
        raise GraphFormatError("empty edge-list text: vertex count line missing")
    seen = set()
    rows = [0] * n
    for lineno, u, v in pairs:
        if (u, v) in seen:
            raise GraphFormatError(f"line {lineno}: duplicate edge ({u}, {v})")
        seen.add((u, v))
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def reference_diagonal_raw(adj: np.ndarray) -> int:
    """Reference diagonal raw sum: one float32 product per vertex u over all
    of its non-edges {u, v > u}, each row weighted 1, with no grouping of
    equal rows; the sum over non-edges of the non-adjacent pairs in
    N(u) & N(v)."""
    raw = 0
    for u, row in enumerate(adj):
        nbrs = np.flatnonzero(row)
        if len(nbrs) < 2:
            continue
        far = np.flatnonzero(row[u + 1 :] == 0) + (u + 1)
        if not len(far):
            continue
        common = adj[far][:, nbrs].astype(np.float32)
        paths = common @ adj[nbrs][:, nbrs].astype(np.float32)
        sizes = common.sum(axis=1, dtype=np.int64)
        twice_edges = (paths * common).sum(axis=1, dtype=np.int64)
        if (twice_edges & 1).any():
            raise ValueError("handshake parity violated: adjacency is not symmetric")
        raw += sum((sizes * (sizes - 1) // 2 - twice_edges // 2).tolist())
    return raw

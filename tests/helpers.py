"""Shared test utilities: a seeded random-graph model, the complete and
empty graphs, a deliberately naive induced-4-cycle oracle and a per-line
edge-list parser, both sharing no code with the package beyond the Graph
type, the per-vertex diagonal sum the package's quotient one must equal,
substitution of unequal blobs, small adjacency queries on a Graph's rows,
and the oracles for the packed layers: validation on unpacked row stripes,
composition on Python-int rows, and blow-up edge lists by the digit rule;
and the environment of a child interpreter that imports the package."""

from __future__ import annotations

import os
import random
from itertools import combinations
from pathlib import Path
from typing import Iterable

import numpy as np

from blowup_census import Graph, GraphFormatError


def child_env() -> dict[str, str]:
    """os.environ with PYTHONPATH set to this checkout's src/, so a child
    interpreter imports the package under test without it installed."""
    return {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}


def random_graph(n: int, p: float, seed: int) -> Graph:
    """Seeded G(n, p); deterministic across platforms (Mersenne Twister)."""
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def complete_graph(n: int) -> Graph:
    return Graph._from_packed(np.packbits(~np.eye(n, dtype=bool), axis=1, bitorder="little"))


def empty_graph(n: int) -> Graph:
    return Graph._from_packed(np.zeros((n, (n + 7) >> 3), dtype=np.uint8))


def has_edge(g: Graph, u: int, v: int) -> bool:
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise IndexError(f"vertex pair ({u}, {v}) out of range")
    return bool((g.packed[u, v >> 3] >> (v & 7)) & 1)


def neighbors(g: Graph, v: int) -> list[int]:
    """Neighbours of v, ascending."""
    row = g.rows[v]
    return [u for u in range(g.n) if (row >> u) & 1]


def degree_sequence(g: Graph) -> tuple[int, ...]:
    return tuple(sorted(row.bit_count() for row in g.rows))


def blob_of(v: int, base_n: int, level: int) -> int:
    """Index of the blob (base vertex) whose copy contains vertex v at this
    level of the blow-up of a base_n-vertex base."""
    order = base_n ** (level + 1)
    if not 0 <= v < order:
        raise IndexError(f"vertex {v} out of range for order {order}")
    return v // base_n**level


def relabel(g: Graph, perm: Iterable[int]) -> Graph:
    """Apply a vertex permutation: vertex v of g becomes perm[v]."""
    mapping = list(perm)
    if sorted(mapping) != list(range(g.n)):
        raise ValueError("relabeling must be a permutation of the vertex ids")
    rows = [0] * g.n
    for u, v in edges(g):
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
    pairs = [(starts[i] + a, starts[i] + b) for i, blob in enumerate(blobs) for a, b in edges(blob)]
    for i, j in edges(q):
        pairs += [(a, b) for a in range(starts[i], starts[i + 1]) for b in range(starts[j], starts[j + 1])]
    return Graph.from_edges(starts[-1], pairs)


def dense_adjacency(g: Graph) -> np.ndarray:
    """Adjacency as an (n, n) uint8 0/1 matrix."""
    return np.unpackbits(g.packed, axis=1, count=g.n, bitorder="little")


def edges(g: Graph) -> list[tuple[int, int]]:
    """Edges as (u, v) with u < v, ascending."""
    u, v = np.nonzero(np.triu(dense_adjacency(g), 1))
    return list(zip(u.tolist(), v.tolist()))


def brute_force_c4_count(g: Graph) -> int:
    """Reference oracle: test every 4-subset directly against the definition."""
    count = 0
    rows = g.rows
    for quad in combinations(range(g.n), 4):
        degs = dict.fromkeys(quad, 0)
        edges = 0
        for u, v in combinations(quad, 2):
            if (rows[u] >> v) & 1:
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


def reference_check_symmetric(packed: np.ndarray, step: int = 8) -> None:
    """Reference symmetry check: raise unless the packed n x n bit matrix
    equals its transpose.

    Rows [i, i + step) are unpacked as a stripe and compared with columns
    [i, i + step) of every row, unpacked and transposed; the first set bit
    without a mirror, in row-major order, is reported.
    """
    n = len(packed)
    for i in range(0, n, step):
        j = min(i + step, n)
        stripe = np.unpackbits(packed[i:j], axis=1, count=n, bitorder="little")
        mirror = np.unpackbits(
            packed[:, i // 8 : (j + 7) // 8], axis=1, count=j - i, bitorder="little"
        )
        unmatched = stripe > mirror.T
        if unmatched.any():
            u, v = divmod(int(unmatched.argmax()), n)
            u += i
            if u < v:
                raise ValueError(f"asymmetric adjacency at ({u}, {v})")
            raise ValueError(f"asymmetric adjacency at ({u}, {v}) (unmatched lower-triangle bit)")


def reference_validation_error(packed: np.ndarray) -> str | None:
    """The message a Graph built from these (n, ceil(n/8)) packed rows must
    raise, or None for a valid simple graph: bits past n first, then
    self-loops, then asymmetry, each at its first row."""
    n = len(packed)
    cells = np.unpackbits(packed, axis=1, bitorder="little")
    outside = cells[:, n:].any(axis=1)
    if outside.any():
        return f"row {int(outside.argmax())} has bits outside the vertex range"
    loops = np.diagonal(cells)[:n]
    if loops.any():
        return f"self-loop at vertex {int(loops.argmax())}"
    try:
        reference_check_symmetric(packed)
    except ValueError as exc:
        return str(exc)
    return None


def reference_compose(g: Graph, h: Graph) -> Graph:
    """The composition g[h] built on Python-int rows: row i * |V(h)| + x is
    h's row x shifted into copy i, OR-ed with the blocks of every copy j
    adjacent to i in g."""
    nh = h.n
    block = (1 << nh) - 1
    g_rows, h_rows = g.rows, h.rows
    rows = []
    for i in range(g.n):
        cross = 0
        for j in range(g.n):
            if (g_rows[i] >> j) & 1:
                cross |= block << (j * nh)
        rows += [(row << (i * nh)) | cross for row in h_rows]
    return Graph(g.n * nh, tuple(rows))


def digit_rule_edge_list(base: Graph, level: int) -> str:
    """Edge-list text of level ``level`` of base's nested blow-up, from the
    digit rule: vertex ids are base-n numbers of level + 1 digits, and two
    vertices are adjacent iff the base vertices at the most significant
    digit where they differ are adjacent.  Uses no composition."""
    n = base.n
    order = n ** (level + 1)
    adj = np.array([[has_edge(base, a, b) for b in range(n)] for a in range(n)], dtype=bool)
    u, v = np.triu_indices(order, 1)
    keep = np.zeros(len(u), dtype=bool)
    decided = np.zeros(len(u), dtype=bool)
    for k in range(level, -1, -1):
        du, dv = u // n**k % n, v // n**k % n
        here = ~decided & (du != dv)
        keep[here] = adj[du[here], dv[here]]
        decided |= here
    lines = [str(order)] + [f"{a} {b}" for a, b in zip(u[keep].tolist(), v[keep].tolist())]
    return "\n".join(lines) + "\n"

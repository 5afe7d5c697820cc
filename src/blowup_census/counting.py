"""Induced 4-cycle counters: exhaustive subset scan and the diagonal-pair method.

Two deliberately independent algorithms, each exact:

* enumeration visits every 4-vertex subset and keeps those whose induced
  subgraph has exactly 4 edges with every induced degree 2 (equivalent to
  being an induced 4-cycle);
* the diagonal method sums, over non-edges {u, v}, the number of unordered
  non-adjacent pairs inside N(u) & N(v), then halves.  An induced 4-cycle has
  exactly two non-adjacent diagonal pairs, so it is counted once per diagonal
  and the raw sum is always even.  It handles all non-edges {u, v > u} of
  one vertex u with a single float32 matrix product, exact below 2**24
  vertices (see ``_diagonal_raw_sum``).

Blow-up graphs are dense with comparatively few non-edges, which is what
makes the diagonal method the scalable one here.  Enumeration may split its
subsets across worker processes; partial counts combine by integer
addition, so results are bit-identical for any worker count.  The diagonal
method runs in one process and gets its parallelism from BLAS threads.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from math import comb

import numpy as np

from .graphs import Graph, VertexCapExceeded, _packed_rows

__all__ = [
    "DEFAULT_SUBSET_CAP",
    "CheckedCount",
    "CountParityError",
    "CountResult",
    "CounterMismatchError",
    "Method",
    "SubsetCapExceeded",
    "count_both_and_check",
    "count_induced_c4_diagonal",
    "count_induced_c4_enum",
]

# Refusal threshold for the exhaustive counter, in 4-subsets.
DEFAULT_SUBSET_CAP = 10**9


class SubsetCapExceeded(RuntimeError):
    """The exhaustive scan was refused because C(n, 4) exceeds the work cap."""


class CountParityError(RuntimeError):
    """A parity invariant of the diagonal counter failed: a bug, never a data issue."""


class CounterMismatchError(RuntimeError):
    """The two counters disagreed: an implementation bug, never a data issue."""

    def __init__(self, enum_value: int, diagonal_value: int):
        self.enum_value = enum_value
        self.diagonal_value = diagonal_value
        super().__init__(
            f"internal counter disagreement: enumeration={enum_value}, "
            f"diagonal={diagonal_value}"
        )


class Method(str, Enum):
    ENUMERATION = "enum"
    DIAGONAL = "diagonal"


@dataclass(frozen=True)
class CountResult:
    value: int
    method: Method
    elapsed: float


@dataclass(frozen=True)
class CheckedCount:
    """Agreed value from both counters, with per-method timings."""

    value: int
    enumeration: CountResult
    diagonal: CountResult


def _dense_adjacency(g: Graph) -> np.ndarray:
    """Adjacency as an (n, n) uint8 0/1 matrix."""
    return np.unpackbits(_packed_rows(g.n, g.rows), axis=1, count=g.n, bitorder="little")


# ---------------------------------------------------------------------------
# Exhaustive subset scan
# ---------------------------------------------------------------------------
#
# Subsets {a < b < c < d} are partitioned by their second-smallest vertex b;
# for fixed b the (c, d) pairs are vectorized and all a < b are handled as a
# 2-D batch.  This is a literal evaluation of the induced-C4 predicate on
# every one of the C(n, 4) subsets, just without a per-subset Python loop.


def _enum_count_for_b(adj: np.ndarray, b: int) -> int:
    n = adj.shape[0]
    m = n - b - 1
    if b < 1 or m < 2:
        return 0
    ci, di = np.triu_indices(m, 1)
    c_idx = ci + b + 1
    d_idx = di + b + 1
    ecd = adj[c_idx, d_idx]
    ebc = adj[b, c_idx]
    ebd = adj[b, d_idx]
    bc_bd = ebc + ebd
    tail_edges = bc_bd + ecd
    c_tail = ebc + ecd
    eab = adj[:b, b][:, None]
    eac = adj[:b][:, c_idx]
    ead = adj[:b][:, d_idx]
    dega = eab + eac + ead
    good = dega == 2
    good &= dega + tail_edges == 4
    good &= eab + bc_bd == 2
    good &= eac + c_tail == 2
    return int(np.count_nonzero(good))


def _enum_count(adj: np.ndarray, b_values) -> int:
    return sum(_enum_count_for_b(adj, b) for b in b_values)


def _enum_worker(args) -> int:
    adj, b_values = args
    return _enum_count(adj, b_values)


def _pool_size(workers: int, tasks: int) -> int:
    """Processes worth starting: at most one per usable core and per task."""
    return max(1, min(workers, os.cpu_count() or 1, tasks))


def count_induced_c4_enum(
    g: Graph,
    *,
    subset_cap: int = DEFAULT_SUBSET_CAP,
    workers: int = 1,
) -> CountResult:
    """Count induced 4-cycles by scanning all C(n, 4) vertex subsets.

    Refuses (raises SubsetCapExceeded) when C(n, 4) exceeds ``subset_cap``;
    a refusal is explicit, never a silently truncated count.
    """
    start = time.perf_counter()
    if g.n < 4:
        return CountResult(0, Method.ENUMERATION, time.perf_counter() - start)
    subsets = comb(g.n, 4)
    if subsets > subset_cap:
        raise SubsetCapExceeded(
            f"enumeration over {subsets} subsets exceeds the cap of {subset_cap}; "
            "raise --subset-cap or use the diagonal method"
        )
    adj = _dense_adjacency(g)
    bs = range(1, g.n - 2)
    size = _pool_size(workers, len(bs))
    if size == 1:
        value = _enum_count(adj, bs)
    else:
        chunks = [bs[w::size] for w in range(size)]
        with ProcessPoolExecutor(max_workers=size) as pool:
            value = sum(pool.map(_enum_worker, [(adj, c) for c in chunks]))
    return CountResult(value, Method.ENUMERATION, time.perf_counter() - start)


# ---------------------------------------------------------------------------
# Diagonal-pair method
# ---------------------------------------------------------------------------
#
# For a fixed u, every non-edge {u, v} with v > u has common neighbourhood
# S_v inside N(u).  With X the 0/1 rows of those v restricted to the columns
# N(u), and A_u the adjacency matrix restricted to N(u), row v of X @ A_u
# holds |N(w) & S_v| for each w in N(u); masking it with X and summing gives
# twice the number of edges inside S_v.  One matmul per u covers all of its
# non-edges {u, v > u}.

# float32 represents every integer below 2**24 exactly.
FLOAT32_EXACT_LIMIT = 1 << 24


def _diagonal_raw(adj: np.ndarray) -> int:
    """Sum over non-edges {u, v} of the non-adjacent pairs in N(u) & N(v),
    computed per u as C(s_v, 2) - (1/2) * rowsum_v((X @ A_u) * X)."""
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
            raise CountParityError("handshake parity violated: adjacency is not symmetric")
        raw += sum((sizes * (sizes - 1) // 2 - twice_edges // 2).tolist())
    return raw


def _diagonal_raw_sum(g: Graph) -> int:
    """Raw diagonal sum, before halving; even for every simple graph.

    The matrix products run in float32.  Entry (v, w) of X @ A_u is
    |N(w) & S_v| <= deg(u) < n, and it is reached through partial sums of
    0/1 products that never exceed it; masking by X keeps the same bound.
    While n < 2**24 each of these values is an integer that float32
    represents exactly, so larger graphs are refused before any matrix is
    allocated.  Row sums and C(s, 2) terms are reduced in int64 (each below
    2**48) and added up as Python ints.
    """
    if g.n >= FLOAT32_EXACT_LIMIT:
        raise VertexCapExceeded(
            f"the diagonal counter is exact only below {FLOAT32_EXACT_LIMIT} "
            f"(2**24) vertices, got {g.n}"
        )
    return _diagonal_raw(_dense_adjacency(g))


def count_induced_c4_diagonal(g: Graph) -> CountResult:
    """Count induced 4-cycles via common neighborhoods of non-edges.

    Refuses graphs of 2**24 or more vertices (VertexCapExceeded), on which
    the float32 products could be inexact.
    """
    start = time.perf_counter()
    raw = _diagonal_raw_sum(g)
    if raw % 2:
        raise CountParityError(f"diagonal raw sum {raw} is odd: counting bug")
    return CountResult(raw // 2, Method.DIAGONAL, time.perf_counter() - start)


def count_both_and_check(
    g: Graph,
    *,
    subset_cap: int = DEFAULT_SUBSET_CAP,
    workers: int = 1,
) -> CheckedCount:
    """Run both counters and insist they agree.

    A disagreement raises CounterMismatchError carrying both values; it
    signals a bug in this package, not a property of the input graph.
    """
    enum_result = count_induced_c4_enum(g, subset_cap=subset_cap, workers=workers)
    diag_result = count_induced_c4_diagonal(g)
    if enum_result.value != diag_result.value:
        raise CounterMismatchError(enum_result.value, diag_result.value)
    return CheckedCount(enum_result.value, enum_result, diag_result)

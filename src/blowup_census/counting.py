"""Induced 4-cycle counters: exhaustive subset scan and the diagonal-pair method.

Two deliberately independent algorithms, each exact:

* enumeration visits every 4-vertex subset {a < b < c < d} and keeps those
  in which {a, b, c} induces a path and d sees the path's two ends but not
  its centre (equivalent to being an induced 4-cycle).  For each c it lists
  the induced paths on pairs a < b < c by their centre, then tests every
  candidate d > c of a path at once, 64 per uint64 word of the adjacency
  rows, with one AND and a popcount;
* the diagonal method sums, over non-edges {u, v}, the number of unordered
  non-adjacent pairs inside N(u) & N(v), then halves.  An induced 4-cycle has
  exactly two non-adjacent diagonal pairs, so it is counted once per diagonal
  and the raw sum is always even.  The summand depends only on the rows of
  u and v, and vertices with equal rows (false twins) have equal columns
  too, so the method works on the quotient: one vertex per class of equal
  rows, each weighted by its class size.  One float32 matrix product per
  class, on the class columns of its neighbourhood, covers the non-edges of
  the class with the later classes and within itself, each product row
  weighted by the number of non-edges it stands for.  The products are
  exact below 2**24 vertices, and the size-weighted step after them runs in
  float64 (see ``_diagonal_raw_sum``).  The method reads only the built
  graph and uses no blow-up identity.

The two share nothing but the graph's packed rows, ``Graph.packed``.
Blow-up graphs are dense with comparatively few non-edges, which is what
makes the diagonal method the scalable one here.  Enumeration may split its
values of c across worker processes; partial counts combine by integer
addition, so results are bit-identical for any worker count.  The diagonal
method runs in one process and gets its parallelism from BLAS threads.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from enum import Enum
from math import comb
from operator import mul

import numpy as np

from .graphs import Graph, VertexCapExceeded

__all__ = [
    "DEFAULT_SUBSET_CAP",
    "CountParityError",
    "CountResult",
    "Method",
    "SubsetCapExceeded",
    "count_induced_c4",
    "count_induced_c4_diagonal",
    "count_induced_c4_enum",
]

# Refusal threshold for the exhaustive counter, in 4-subsets.
DEFAULT_SUBSET_CAP = 10**9


class SubsetCapExceeded(RuntimeError):
    """The exhaustive scan was refused because C(n, 4) exceeds the work cap."""


class CountParityError(RuntimeError):
    """A parity invariant of the diagonal counter failed: a bug, never a data issue."""


class Method(str, Enum):
    ENUMERATION = "enum"
    DIAGONAL = "diagonal"


@dataclass(frozen=True)
class CountResult:
    """A count with its wall time and work counters: ``subsets`` scanned for
    enumeration; distinct ``neighbourhoods``, product ``rows`` and class
    ``columns`` multiplied (summed over products) for the diagonal method."""

    value: int
    method: Method
    elapsed: float
    work: dict[str, int] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Exhaustive subset scan
# ---------------------------------------------------------------------------
#
# A 4-set {a < b < c < d} induces a 4-cycle iff {a, b, c} induces a path
# (exactly two of ab, ac and bc are edges) and d is adjacent to the path's
# two ends and not to its centre.  Deleting any vertex of an induced 4-cycle
# leaves an induced path whose ends are that vertex's two cycle neighbours
# and whose centre is its opposite, which it does not see.  Conversely, a
# path x - y - z with d adjacent to x and z but not to y has the edges xy,
# yz, zd and dx and, the path being induced, neither xz nor yd: the cycle
# x - y - z - d - x, induced.
#
# Subsets are grouped by their third vertex c, which is looped over in
# Python.  For one c the pairs a < b < c form the lower triangle of a (b, a)
# grid, unpacked from the adjacency rows a chunk of consecutive b at a time;
# cells with a >= b are masked off.  The missing edge of a path names its
# centre, so the cells split into three masks, one per centre, and no cell
# is in two.  Each mask becomes (a, b) pairs through its flat nonzero
# indices and a division by the chunk width.  The candidates d are
# bit-sliced, 64 per uint64 word of the row-major rows W, and with
# P = W & W[c] and Q = W & ~W[c], both masked to d > c, each centre is one
# popcount over gathered rows:
#
#   centre b (ab, bc; no ac):  |P[a] & ~W[b]|
#   centre a (ab, ac; no bc):  |~W[a] & P[b]|
#   centre c (ac, bc; no ab):  |Q[a] & W[b]|
#
# Every term holds P or Q, which have no bits at or below c and none beyond
# n, so the set padding bits of ~W never count.  Each of the C(n, 4) subsets
# is decided once, by the test of the path on its three smallest vertices,
# and np.bitwise_count adds up the survivors.

# A chunk of the scan unpacks at most this many (b, a) cells, one byte each,
# and each gathered (pairs, words) uint64 operand holds at most this many
# bytes: the pairs of a mask are gathered in slices that fill it.  At least
# one b row and one pair whatever the budget.
_ENUM_BLOCK_BYTES = 1 << 17


def _enum_count_for_c(packed: np.ndarray, words: np.ndarray, far: np.ndarray, c: int) -> int:
    """Induced 4-cycles {a < b < c < d} with this third vertex c; far is ~words."""
    w0 = (c + 1) >> 6
    tail, far = words[:, w0:], far[:, w0:]
    x_c = tail[c]
    first = ~np.uint64(0) << np.uint64((c + 1) & 63)
    ends = tail & x_c  # P
    ends[:, 0] &= first
    off = tail & ~x_c  # Q
    off[:, 0] &= first
    cap = max(1, _ENUM_BLOCK_BYTES // (8 * tail.shape[1]))
    row_c = np.unpackbits(packed[c], count=c, bitorder="little").view(bool)  # ac and bc
    step = max(1, _ENUM_BLOCK_BYTES // c)
    total = 0
    for b0 in range(1, c, step):
        b1 = min(b0 + step, c)
        width = b1 - 1
        below = np.arange(width) < np.arange(b0, b1)[:, None]
        ab = np.unpackbits(packed[b0:b1], axis=1, count=width, bitorder="little").view(bool)
        ab &= below
        ac = row_c[:width] & below
        bc = row_c[b0:b1, None]
        for mask, at_a, at_b in (
            (np.greater(ab & bc, ac), ends, far),  # centre b: |P[a] & ~W[b]|
            (np.greater(ab & ac, bc), far, ends),  # centre a: |~W[a] & P[b]|
            (np.greater(ac & bc, ab), off, tail),  # centre c: |Q[a] & W[b]|
        ):
            a = mask.ravel().nonzero()[0]
            b = a // width  # counts from b0
            a -= b * width
            at_b = at_b[b0:]
            for s in range(0, len(a), cap):
                both = at_a.take(a[s : s + cap], axis=0)
                both &= at_b.take(b[s : s + cap], axis=0)
                total += int(np.bitwise_count(both).sum())
    return total


def _enum_count(packed: np.ndarray, c_values) -> int:
    """Induced 4-cycles whose third vertex lies in c_values."""
    n, width = packed.shape
    padded = np.zeros((n, -(-width // 8) * 8), dtype=np.uint8)
    padded[:, :width] = packed
    words = padded.view("<u8")  # row v holds bits 64w .. 64w + 63 of v in word w
    far = ~words
    return sum(_enum_count_for_c(packed, words, far, c) for c in c_values)


def _enum_worker(args) -> int:
    packed, c_values = args
    return _enum_count(packed, c_values)


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
        return CountResult(0, Method.ENUMERATION, time.perf_counter() - start, {"subsets": 0})
    subsets = comb(g.n, 4)
    if subsets > subset_cap:
        raise SubsetCapExceeded(
            f"enumeration over {subsets} subsets exceeds the cap of {subset_cap}; "
            "raise --subset-cap or use the diagonal method"
        )
    packed = g.packed
    cs = range(2, g.n - 1)
    size = _pool_size(workers, len(cs))
    if size == 1:
        value = _enum_count(packed, cs)
    else:
        # imported here: it pulls in multiprocessing, which a one-process run never needs
        from concurrent.futures import ProcessPoolExecutor

        chunks = [cs[w::size] for w in range(size)]
        with ProcessPoolExecutor(max_workers=size) as pool:
            value = sum(pool.map(_enum_worker, [(packed, chunk) for chunk in chunks]))
    return CountResult(
        value, Method.ENUMERATION, time.perf_counter() - start, {"subsets": subsets}
    )


# ---------------------------------------------------------------------------
# Diagonal-pair method
# ---------------------------------------------------------------------------
#
# For a fixed u, every non-edge {u, v} with v > u has common neighbourhood
# S_v inside N(u), and its summand C(|S_v|, 2) - e(S_v) depends only on the
# rows N(u) and N(v).  Vertices with equal rows (false twins) are therefore
# grouped into classes, and only the smallest id of each class, its
# representative, is looped over.  Two vertices with equal rows are never
# adjacent (u in N(v) = N(u) would be a self-loop), so every pair inside a
# class of size m is a non-edge, C(m, 2) of them with S = N(u).  Two classes
# are all adjacent or all not: v in N(u) puts v in the equal row of every
# member of u's class.  The rows of one class being equal, so are its
# columns, and the graph is the k x k quotient Q on the representatives,
# each standing for the m_c vertices of its class.
#
# For a representative u, the product rows are the later classes v it does
# not see, each standing for m_u * m_v non-edges, and u's own class, standing
# for C(m_u, 2), when m_u > 1.  Y holds those rows of Q restricted to the
# classes of N(u), column c scaled by m_c, so row v of Y is S_v by class and
# sums to |S_v|.  Row v of Y @ Q[N(u), N(u)] holds |N(w) & S_v| for a w in
# each class c' of N(u), and its sum weighted by row v of Y is 2 e(S_v); a
# column of ones appended to Q[N(u), N(u)] gives |S_v| from the same product.
# One product per representative covers all of its class's non-edges to
# later classes and inside the class.  In a twin-free graph every class is a
# single vertex and this is the per-vertex loop with every weight 1.

# float32 represents every integer below 2**24 exactly.
FLOAT32_EXACT_LIMIT = 1 << 24


def _twin_classes(packed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vertices grouped by equal packed rows: the representatives (smallest
    id of each class) in ascending order, and the class sizes in the same
    order.  Rows are hashed, never sorted or unpacked."""
    first: dict[bytes, int] = {}
    label = [first.setdefault(key, v) for v, key in enumerate(map(bytes, packed))]
    reps = np.fromiter(first.values(), dtype=np.intp, count=len(first))
    return reps, np.bincount(label, minlength=len(packed)).take(reps)


def _diagonal_raw(packed: np.ndarray, work: dict[str, int] | None = None) -> int:
    """Sum over non-edges {u, v} of the non-adjacent pairs in N(u) & N(v),
    from the packed (n, ceil(n/8)) rows, computed per representative u as
    the weighted sum of C(s_v, 2) - e(S_v) over its product rows.

    ``work``, when given, receives the number of distinct neighbourhoods,
    of product rows and of class columns multiplied."""
    reps, size = _twin_classes(packed)
    k = len(reps)
    rep_rows = packed.take(reps, 0)
    # adj[i, j]: representative i sees representative j.  The last column is
    # all ones, so that each product also sums its rows.
    adj = np.ones((k, k + 1), dtype=bool)
    adj[:, :k] = rep_rows.take(reps >> 3, 1) >> (reps & 7).astype(np.uint8) & 1
    ones = adj.astype(np.float32)
    weighted = ones * np.append(size, 1).astype(np.float32) if k < len(packed) else ones
    # far[i]: the later classes i does not see, and i itself when it has twins
    far = np.triu(~adj[:, :k])
    far.flat[:: k + 1] = size > 1
    degree = np.bitwise_count(rep_rows).sum(axis=1, dtype=np.int64)
    doubled = rows = columns = 0
    for i, (m, deg) in enumerate(zip(size.tolist(), degree.tolist())):
        if deg < 2:
            continue
        far_i = far[i].nonzero()[0]
        if not len(far_i):
            continue
        weights = (size.take(far_i) * m).tolist()
        if m > 1:
            weights[0] = comb(m, 2)  # i itself comes first
        cols = adj[i].nonzero()[0]  # N(u) by class, then the ones column
        nbrs = cols[:-1]
        y = weighted.take(far_i, 0).take(nbrs, 1)
        paths = y @ ones.take(nbrs, 0).take(cols, 1)
        s = paths[:, -1]  # |S_v|
        twice_edges = np.einsum("ij,ij->i", paths[:, :-1], y, dtype=np.float64)
        # twice the non-adjacent pairs in each S_v: |S_v| (|S_v| - 1) - 2 e(S_v)
        pairs = (np.multiply(s, s - 1, dtype=np.float64) - twice_edges).astype(np.int64)
        pairs = pairs.tolist()
        if any(p & 1 for p in pairs):
            raise CountParityError("handshake parity violated: adjacency is not symmetric")
        doubled += sum(map(mul, weights, pairs))
        rows += len(far_i)
        columns += len(nbrs)
    if work is not None:
        work.update(neighbourhoods=k, rows=rows, columns=columns)
    return doubled // 2


def _diagonal_raw_sum(g: Graph, work: dict[str, int] | None = None) -> int:
    """Raw diagonal sum, before halving; even for every simple graph.

    The matrix products run in float32.  Y's entries are class sizes m_c and
    Q is 0/1, so entry (v, c') of Y @ Q[N(u), N(u)] is |N(w) & S_v| <= deg(u)
    < n, and the ones column gives |S_v| <= deg(u); both are reached through
    partial sums of non-negative integers that never exceed them.  While
    n < 2**24 each of these values is an integer that float32 represents
    exactly, so larger graphs are refused before any matrix is allocated.
    The weighted step sum_c' paths * Y is not: a single product
    |N(w) & S_v| * m_c' can reach deg(u)**2 / 4 (w's class is outside N(w),
    so the two factors sum to at most |S_v|), above 2**24 once deg(u) > 2**13.
    It runs in float64, where every product, partial sum and the result
    2 e(S_v) <= deg(u)**2 < 2**48 is an integer below 2**53, so exact; so are
    |S_v| (|S_v| - 1) < 2**48 and the difference, converted to int64.  A
    row's weight, m_u * m_v or C(m_u, 2) non-edges, is below n**2 <= 2**48,
    so a weighted term could overflow int64: the weights multiply and add up
    as Python ints.
    """
    if g.n >= FLOAT32_EXACT_LIMIT:
        raise VertexCapExceeded(
            f"the diagonal counter is exact only below {FLOAT32_EXACT_LIMIT} "
            f"(2**24) vertices, got {g.n}"
        )
    return _diagonal_raw(g.packed, work)


def count_induced_c4_diagonal(g: Graph) -> CountResult:
    """Count induced 4-cycles via common neighborhoods of non-edges.

    Refuses graphs of 2**24 or more vertices (VertexCapExceeded), on which
    the float32 products could be inexact.
    """
    start = time.perf_counter()
    work: dict[str, int] = {}
    raw = _diagonal_raw_sum(g, work)
    if raw % 2:
        raise CountParityError(f"diagonal raw sum {raw} is odd: counting bug")
    return CountResult(raw // 2, Method.DIAGONAL, time.perf_counter() - start, work)


def count_induced_c4(
    g: Graph,
    method: Method | str,
    *,
    subset_cap: int = DEFAULT_SUBSET_CAP,
    workers: int = 1,
) -> CountResult:
    """Count induced 4-cycles by ``method``, with that counter's refusals.

    The counters are looked up as module globals on every call, so a caller
    that replaces ``count_induced_c4_enum`` or ``count_induced_c4_diagonal``
    on this module (as the benchmark's spans do) is seen here.
    """
    if Method(method) is Method.ENUMERATION:
        return count_induced_c4_enum(g, subset_cap=subset_cap, workers=workers)
    return count_induced_c4_diagonal(g)

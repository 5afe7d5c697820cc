"""Induced 4-cycle counters: exhaustive subset scan and the diagonal-pair method.

Two deliberately independent algorithms, each exact:

* enumeration visits every 4-vertex subset {a < b < c < d} and keeps those
  in which {a, b, c} induces a path and d sees the path's two ends but not
  its centre (equivalent to being an induced 4-cycle).  For a run of
  consecutive c at a time, sized to a memory budget, it lists the induced
  paths on a < b < c by their centre with one broadcast numpy pass, then
  tests every candidate d > c of a path at once, 64 per uint64 word of the
  adjacency rows, with one AND and a popcount;
* the diagonal method sums, over non-edges {u, v}, the number of unordered
  non-adjacent pairs inside N(u) & N(v), then halves.  An induced 4-cycle has
  exactly two non-adjacent diagonal pairs, so it is counted once per diagonal
  and the raw sum is always even.  The summand depends only on the rows of
  u and v, and vertices with equal rows (false twins) have equal columns
  too, so the method works on the quotient: one vertex per class of equal
  rows, each weighted by its class size.  One float32 matrix product per
  stack, a run of consecutive classes sized to a memory budget, on the
  union of their neighbourhoods, covers the non-edges of each class with
  the later classes and within itself, each product row weighted by the
  number of non-edges it stands for.  Consecutive product rows that name
  the same common neighbourhood are merged first, one row per run weighted
  by the run's non-edges: in a blow-up the non-edges from one class to the
  members of one far blob share one.  The products are exact below 2**24
  vertices; the weighted sums after them run in float32 up to 4096
  vertices and in float64 beyond, and the rows are weighted in int64 up to
  2**15 vertices and in Python ints beyond, each where a written bound
  keeps it exact (see ``count_induced_c4_diagonal``).  The method reads
  only the built graph and uses no blow-up identity: the merge compares
  sets the method has already computed, and nothing else.

The two share nothing but the graph's packed rows, ``Graph.packed``.
Blow-up graphs are dense with comparatively few non-edges, which is what
makes the diagonal method the scalable one here.  Both counters run in the
calling process; the diagonal method gets its parallelism from BLAS threads.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from math import comb
from operator import mul

import numpy as np

from . import graphs
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
    """A count with its wall time and work counters: ``subsets`` scanned and
    chunk ``passes`` made for enumeration; distinct ``neighbourhoods``,
    product ``rows``, the rows left after merging runs of equal
    consecutive rows (``distinct``, summed over products), the union
    ``columns`` of each stack's classes (summed over products), the
    products (``passes``) and a bound on the peak
    ``bytes`` of the large arrays (the quotient's and the largest pass's,
    see ``_diagonal_bytes``) for the diagonal method."""

    value: int
    method: Method
    elapsed: float
    work: dict[str, int]


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
# Subsets are grouped by their third vertex c, and the values of c are cut
# into runs of consecutive c that numpy scans together.  The cells (b, c, a)
# of a run [c0, c1), for b, a < c1 - 1, form one grid unpacked from the
# adjacency rows, with c1 - c0 values of c per b; cells with a >= b or
# b >= c are masked off by broadcasting.  The missing edge of a path names
# its centre, so the cells split into three masks, one per centre, and no
# cell is in two.  The candidates d are bit-sliced, 64 per uint64 word of
# the row-major rows W, and with P = W & W[c] and Q = W & ~W[c], both
# masked to d > c and stacked over the run's values of c, each centre is
# one popcount over gathered rows:
#
#   centre b (ab, bc; no ac):  |P[a] & ~W[b]|
#   centre a (ab, ac; no bc):  |~W[a] & P[b]|
#   centre c (ac, bc; no ab):  |Q[a] & W[b]|
#
# Every term holds P or Q, which have no bits at or below c and none beyond
# n, so the set padding bits of ~W never count.  Each of the C(n, 4) subsets
# is decided once, by the test of the path on its three smallest vertices,
# and np.bitwise_count adds up the survivors.
#
# A run takes as many values of c as fit the budget below, cells and stacked
# operands alike, so that small c share a pass: a graph of 100 vertices
# takes a few passes, not one per c.  A c too large to share a run is
# scanned alone, in chunks of consecutive b that each fit the budget.  In a
# chunk of r values of c, with b0 <= b < b1 and a < w = b1 - 1, cell
# (b, c, a) has the flat index i = ((b - b0) r + c - c0) w + a.  Then i // w
# is the row of P stacked by (b, c) from b0 on, and i // (r w) is b - b0
# with remainder the row of P or Q stacked by (c, a) with w rows per c: the
# stride of a run's one chunk, and of no account when r = 1.  So a mask's
# flat nonzero indices address both gathers after one division.

# A chunk of the scan unpacks at most this many (b, c, a) cells, one byte
# each; each operand stacked over a run of several c, and each gathered
# (pairs, words) uint64 operand, holds at most this many bytes: the pairs of
# a mask are gathered in slices that fill it.  At least one c, one b row and
# one pair whatever the budget.
_ENUM_BLOCK_BYTES = 1 << 17


def _enum_runs(n: int) -> list[tuple[int, int]]:
    """The third vertices 2 <= c < n - 1 cut into runs [c0, c1) of
    consecutive c, each as long as its cells and stacked operands fit
    _ENUM_BLOCK_BYTES, and at least one c long."""
    words = -(-n // 64)
    runs = []
    c0 = 2
    while c0 < n - 1:
        # a run [c0, c1 + 1) has c1 rows of b and of a, on the words from c0's
        row_bytes = 8 * (words - ((c0 + 1) >> 6))
        c1 = c0 + 1
        while c1 < n - 1 and (c1 + 1 - c0) * c1 * max(c1, row_bytes) <= _ENUM_BLOCK_BYTES:
            c1 += 1
        runs.append((c0, c1))
        c0 = c1
    return runs


def _run_operands(words: np.ndarray, c0: int, c1: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """P stacked by (b, c) on rows b < c1 - 1, then P and Q stacked by
    (c, a) on rows a < c1 - 2, for the run [c0, c1), on the words from the
    first that holds a bit above c0."""
    w0 = (c0 + 1) >> 6
    tail = words[:, w0:]
    cs = np.arange(c0, c1)
    later = np.arange(64 * w0, 64 * words.shape[1]) > cs[:, None]
    later = np.packbits(later, axis=1, bitorder="little").view("<u8")  # bits d > c
    x_c = tail[c0:c1]
    ends, off = x_c & later, ~x_c & later
    rows, width = c1 - 1, tail.shape[1]
    by_b = (tail[:rows, None] & ends).reshape(-1, width)
    by_a = tail[: rows - 1]
    return by_b, (by_a & ends[:, None]).reshape(-1, width), (by_a & off[:, None]).reshape(-1, width)


def _enum_count_run(
    packed: np.ndarray, words: np.ndarray, far: np.ndarray, c0: int, c1: int
) -> tuple[int, int]:
    """Induced 4-cycles {a < b < c < d} with c0 <= c < c1, and the chunk
    passes that took; far is ~words."""
    w0 = (c0 + 1) >> 6
    tail, far = words[:, w0:], far[:, w0:]
    ends_by_b, ends, off = _run_operands(words, c0, c1)
    span, rows = c1 - c0, c1 - 1  # b < rows
    cap = max(1, _ENUM_BLOCK_BYTES // (8 * tail.shape[1]))
    inside = np.arange(rows) < np.arange(c0, c1)[:, None]
    bits = np.unpackbits(packed[c0:c1], axis=1, count=rows, bitorder="little").view(bool)
    sees, misses = bits & inside, ~bits & inside  # (c, v): cv or not, for v < c
    bc_all, no_bc_all = sees.T[:, :, None], misses.T[:, :, None]  # (b, c)
    # a run of several c is one chunk; a c alone takes its b in chunks
    step = rows if span > 1 else max(1, _ENUM_BLOCK_BYTES // rows)
    total = passes = 0
    for b0 in range(1, rows, step):
        b1 = min(b0 + step, rows)
        width = b1 - 1
        below = np.arange(width) < np.arange(b0, b1)[:, None]
        ab = np.unpackbits(packed[b0:b1], axis=1, count=width, bitorder="little").view(bool)
        ab, no_ab = (ab & below)[:, None], np.greater(below, ab)[:, None]
        ac, no_ac = sees[:, :width], misses[:, :width]
        bc, no_bc = bc_all[b0:b1], no_bc_all[b0:b1]
        plane = span * width
        for x, y, z, at_a, at_b, per in (
            (ab, bc, no_ac, ends, far[b0:], plane),  # centre b: |P[a] & ~W[b]|
            (ab, ac, no_bc, far, ends_by_b[b0 * span :], width),  # centre a: |~W[a] & P[b]|
            (ac, bc, no_ab, off, tail[b0:], plane),  # centre c: |Q[a] & W[b]|
        ):
            a = (x & y & z).ravel().nonzero()[0]  # one mask alive at a time
            b = a // per
            a -= b * per
            for s in range(0, len(a), cap):
                both = at_a.take(a[s : s + cap], axis=0)
                both &= at_b.take(b[s : s + cap], axis=0)
                total += int(np.bitwise_count(both).sum())
        passes += 1
    return total, passes


def _enum_count(packed: np.ndarray) -> tuple[int, int]:
    """Induced 4-cycles of the graph with these packed rows, and the chunk
    passes that took."""
    n, width = packed.shape
    padded = np.zeros((n, -(-width // 8) * 8), dtype=np.uint8)
    padded[:, :width] = packed
    words = padded.view("<u8")  # row v holds bits 64w .. 64w + 63 of v in word w
    far = ~words
    total = passes = 0
    for c0, c1 in _enum_runs(n):
        found, took = _enum_count_run(packed, words, far, c0, c1)
        total += found
        passes += took
    return total, passes


def count_induced_c4_enum(
    g: Graph,
    *,
    subset_cap: int = DEFAULT_SUBSET_CAP,
) -> CountResult:
    """Count induced 4-cycles by scanning all C(n, 4) vertex subsets.

    Refuses (raises SubsetCapExceeded) when C(n, 4) exceeds ``subset_cap``;
    a refusal is explicit, never a silently truncated count.
    """
    start = time.perf_counter()
    subsets = comb(g.n, 4)
    if subsets > subset_cap:
        raise SubsetCapExceeded(
            f"enumeration over {subsets} subsets exceeds the cap of {subset_cap}; "
            "raise --subset-cap or use the diagonal method"
        )
    value, passes = _enum_count(g.packed)
    work = {"subsets": subsets, "passes": passes}
    return CountResult(value, Method.ENUMERATION, time.perf_counter() - start, work)


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
# for C(m_u, 2), when m_u > 1.  Row v of Y holds the classes of S_v, entry c
# scaled by m_c, so it sums to |S_v|.  On a set C of classes that holds N(u),
# row v of Y @ Q[C, C] holds |N(w) & S_v| for a w in each class of C, and
# its sum weighted by row v of Y is 2 e(S_v); a column of ones appended to
# Q[C, C] gives |S_v| from the same product.  In a twin-free graph every
# class is a single vertex and every weight 1.
#
# Representatives are taken in stacks, runs of consecutive representatives
# that get product rows, and each stack is one product.  C is the union of
# its members' neighbourhoods by class, and member u's row v of Y is
# Q[v, C] & Q[u, C]: S_v stays inside N(u), and the classes of C outside
# N(u) only add zeros.  A lone member's C is N(u), where Q[u, C] is all
# ones.  A stack is as long as Y and the product, rows x (|C| + 1) float32
# each, and the (|C| + 1)^2 block of Q fit the budget below, and at least
# one representative: one whose rows alone exceed the budget is a stack by
# itself, on the classes of its own neighbourhood.  Stack ends come from
# the cumulative row count and a cumulative OR of the members' packed
# quotient rows, over the window of members whose rows fit the budget at
# the first member's width.  Each pass copies Q[:, C], the columns C of
# every class, once, as the transpose of the rows Q[C, :]: Q is symmetric,
# so Y's rows, the mask rows and Q's block are then row gathers from it,
# never column gathers.
#
# Product rows are ordered by u, then v.  Once a pass has Y's bool rows, it
# compares each with the row before it and keeps the first of every run of
# equal rows, weighted by the sum of the run's weights (np.add.reduceat);
# the float32 copy, the product, the row sums and the parity check then run
# on those rows alone.  This is exact: equal rows of Y over C name the same
# class set S, hence the same |S| and e(S), so every row of a run stands
# for the same summand, and the run's summed weight times it adds up the
# same terms as the run's rows one by one.
# Runs may span two members of a stack.  Only consecutive rows are merged:
# grouping every equal row of a pass by sorting or hashing finds more, but
# costs more than it saves on twin-free graphs, where equal rows are rare.
# The merge needs no blow-up identity, only equality of sets the pass has
# built, so the two counters stay independent.

# float32 represents every integer below 2**24 exactly.
FLOAT32_EXACT_LIMIT = 1 << 24

# A stack's float32 operands, Y, Q's block and their product, each hold at
# most this many bytes, unless the stack is one representative.  Chosen by
# a sweep from 128 KiB to 1 MiB (BENCH_diagonal_pass.json): larger stacks
# save passes, but the operands are most of the counter's peak memory.
_DIAGONAL_BLOCK_BYTES = 3 << 16

# The largest order whose weighted sums 2 e(S_v) <= deg(u)^2 stay below
# 2**24, so that they are taken in float32; above it, in float64.
_FLOAT32_SUM_ORDER = 1 << 12

# The largest order whose doubled count 4 T < n^4 / 6 stays below 2**63, so
# that the rows are weighted by one int64 dot; above it, in Python ints.
_INT64_DOT_ORDER = 1 << 15


def _twin_classes(packed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vertices grouped by equal packed rows: the representatives (smallest
    id of each class) in ascending order, and the class sizes in the same
    order.  Rows are hashed, never sorted or unpacked."""
    first: dict[bytes, int] = {}
    label = [first.setdefault(key, v) for v, key in enumerate(map(bytes, packed))]
    reps = np.fromiter(first.values(), dtype=np.intp, count=len(first))
    return reps, np.bincount(label, minlength=len(packed)).take(reps)


def _diagonal_bytes(k: int, width: int = 0, rows: int = 0) -> int:
    """A bound on the bytes of the diagonal counter's large arrays on a
    quotient of k classes: the bool quotient and far matrices and one
    temporary beside them, at most (k + 1)^2 each; plus, for a pass on
    ``width`` union columns (the class of ones among them) and ``rows``
    product rows, every array the pass makes as if all were live at once:
    the rows Q[C, :] and their transposed copy, (k + 1) x width bool each;
    Y's two row gathers (rows x width) and Q's block (width^2) in bool and
    again in float32; the gather of Y's first row of each run, in bool;
    the product in float32; and the row-length arrays: at most nine of 8
    bytes and one of 1 at a time, plus the row comparison's flags and
    their copy with the first row, of 1 byte, and the run starts and run
    weights, of 8 bytes.  Arrays of merged rows are counted at the full
    row count.  The representatives' packed rows, the stack bookkeeping
    and buffers inside numpy and BLAS are not counted."""
    return 3 * (k + 1) ** 2 + 2 * (k + 1) * width + 5 * width * (2 * rows + width) + (width + 91) * rows


def _diagonal_raw(packed: np.ndarray, work: dict[str, int] | None = None) -> int:
    """Sum over non-edges {u, v} of the non-adjacent pairs in N(u) & N(v),
    from the packed (n, ceil(n/8)) rows, computed per stack of
    representatives as the weighted sum of C(s_v, 2) - e(S_v) over its
    product rows.

    Refuses (VertexCapExceeded) a quotient whose matrices would exceed
    physical memory, before they are allocated.  ``work``, when given,
    receives the number of distinct neighbourhoods, of product rows, of
    product rows left after merging runs of equal rows (``distinct``,
    summed over products), of union columns multiplied (summed over
    products), of products
    (``passes``) and the bound ``_diagonal_bytes`` on the peak ``bytes``:
    the quotient's and the largest pass's."""
    n = len(packed)
    # the arithmetic after the products, chosen from n alone (see
    # count_induced_c4_diagonal for the bounds)
    sums = np.float32 if n <= _FLOAT32_SUM_ORDER else np.float64
    int64_dot = n <= _INT64_DOT_ORDER
    reps, size = _twin_classes(packed)
    k = len(reps)
    need = _diagonal_bytes(k)
    graphs._check_memory(f"the diagonal counter's quotient on {k} classes of equal rows", need)
    rep_rows = packed.take(reps, 0)
    # adj[i, j]: representative i sees representative j.  Row and column k,
    # a class of size 0 that sees every class, give each product a column
    # of ones, so that it also sums its rows.
    adj = np.zeros((k + 1, k + 1), dtype=bool)
    adj[:k, :k] = rep_rows.take(reps >> 3, 1) >> (reps & 7).astype(np.uint8) & 1
    adj[:k, k] = adj[k, :k] = True
    scale = np.append(size, 0).astype(np.float32)
    inside = size * (size - 1) // 2  # C(m, 2) non-edges within a class
    # far[i]: the later classes i does not see, and i itself when it has
    # twins; none when i has fewer than two neighbours
    ids = np.arange(k)
    far = np.greater(ids, ids[:, None]) > adj[:k, :k]
    far.flat[:: k + 1] = size > 1
    far[np.bitwise_count(rep_rows).sum(axis=1) < 2] = False
    counts = far.sum(axis=1)
    members = counts.nonzero()[0]  # the representatives that get product rows
    ends = np.cumsum(np.append(0, counts.take(members)))  # rows before each member
    bits = np.packbits(adj.take(members, 0), axis=1, bitorder="little")
    alone = np.bitwise_count(bits).sum(axis=1, dtype=np.int64).tolist()
    budget = _DIAGONAL_BLOCK_BYTES
    doubled = distinct = columns = passes = start = 0
    peak = need
    while start < len(members):
        # the union is at least the first member's columns, which bounds the window
        before = ends[start]
        stop = np.searchsorted(ends, before + budget // (4 * alone[start]), "right") - 1
        stop = max(start + 1, int(stop))
        union = np.bitwise_or.accumulate(bits[start:stop], axis=0)
        width = np.bitwise_count(union).sum(axis=1, dtype=np.int64)
        rows = ends[start + 1 : stop + 1] - before
        fits = 4 * width * np.maximum(rows, width) <= budget  # rows and width only grow
        stop = start + max(1, int(fits.sum()))
        cols = np.unpackbits(union[stop - start - 1], count=k + 1, bitorder="little")
        cols = cols.nonzero()[0]  # C, then the class k
        lo = members[start]  # far is empty on the rows between members
        u, v = far[lo : members[stop - 1] + 1].nonzero()
        u += lo
        g = np.ascontiguousarray(adj.take(cols, 0).T)  # Q[:, C], by symmetry
        y = g.take(v, 0)
        if stop - start > 1:
            y &= g.take(u, 0)
        # one product row per run of equal consecutive rows of Y, weighted
        # by the run's non-edges
        key = y.view(np.dtype((np.void, y.shape[1])))[:, 0]  # each row's bytes as one value
        new = np.ones(len(v), dtype=bool)
        new[1:] = key[1:] != key[:-1]
        runs = new.nonzero()[0]
        weights = np.where(u == v, inside.take(u), size.take(u) * size.take(v))
        weights = np.add.reduceat(weights, runs)
        y = y.take(runs, 0).astype(np.float32)
        y *= scale.take(cols)
        paths = np.matmul(y, g.take(cols, 0).astype(np.float32))
        s = paths[:, -1].astype(sums)  # |S_v|
        twice_edges = np.einsum("ij,ij->i", paths, y, dtype=sums)
        # twice the non-adjacent pairs in each S_v: |S_v| (|S_v| - 1) - 2 e(S_v)
        pairs = (s * (s - 1) - twice_edges).astype(np.int64)
        if (pairs & 1).any():
            raise CountParityError("handshake parity violated: adjacency is not symmetric")
        doubled += int(weights @ pairs) if int64_dot else sum(map(mul, weights.tolist(), pairs.tolist()))
        columns += len(cols) - 1
        distinct += len(runs)
        peak = max(peak, _diagonal_bytes(k, len(cols), len(v)))
        passes += 1
        start = stop
    if work is not None:
        work.update(
            neighbourhoods=k, rows=int(ends[-1]), distinct=distinct, columns=columns, passes=passes, bytes=peak
        )
    return doubled // 2


def count_induced_c4_diagonal(g: Graph) -> CountResult:
    """Count induced 4-cycles via common neighborhoods of non-edges.

    Refuses graphs of 2**24 or more vertices (VertexCapExceeded), on which
    the float32 products could be inexact, before any matrix is allocated;
    and, on the estimate of ``_diagonal_bytes``, a quotient whose matrices
    would not fit in physical memory.

    Every step below 2**24 vertices is exact integer arithmetic:

    * The products, in float32.  Y's entries are class sizes m_c or 0 and
      Q is 0/1.  A stack's classes C may reach beyond N(u), but Y's row v
      for a row of u is 0 outside S_v, which lies in N(u), so entry
      (v, c') of Y @ Q[C, C] is |N(w) & S_v| <= deg(u) < n for every c' in
      C, and the column of ones gives |S_v| <= deg(u).  Both are reached
      through partial sums of non-negative integers that never exceed
      them, in any order of summation, and float32 represents each
      exactly while n < 2**24.
    * The weighted sum 2 e(S_v) = sum_c' paths * Y of each row, in float32
      up to n = 4096 (``_FLOAT32_SUM_ORDER``), else in float64.  A term
      |N(w) & S_v| * m_c' is nonzero only for c' in S_v, where the two
      factors sum to at most |S_v| (w's class is outside N(w)), and every
      partial sum is at most 2 e(S_v) <= |S_v| (|S_v| - 1) < deg(u)**2.
      That is below 4095**2 < 2**24 up to n = 4096, and below 2**48 <
      2**53 beyond, so the sums, |S_v| (|S_v| - 1) and their difference
      are exact integers before they are converted to int64.
    * The row weighting, one int64 dot up to n = 2**15
      (``_INT64_DOT_ORDER``), else Python ints.  A merged row's weight is
      the sum of its run's weights m_u * m_v or C(m_u, 2), each run's rows
      having one pair count; it is at most the number of non-edges, below
      n**2 / 2.  Each term, a merged row's weight times its even pair
      count, is non-negative, and the terms are those of the unmerged rows
      regrouped, so they add up to twice the raw sum, 4 T <= 4 C(n, 4) <
      n**4 / 6, which is below 2**63 while n <= 2**15.
    """
    start = time.perf_counter()
    if g.n >= FLOAT32_EXACT_LIMIT:
        raise VertexCapExceeded(
            f"the diagonal counter is exact only below {FLOAT32_EXACT_LIMIT} "
            f"(2**24) vertices, got {g.n}"
        )
    work: dict[str, int] = {}
    raw = _diagonal_raw(g.packed, work)
    if raw % 2:
        raise CountParityError(f"diagonal raw sum {raw} is odd: counting bug")
    return CountResult(raw // 2, Method.DIAGONAL, time.perf_counter() - start, work)


def count_induced_c4(
    g: Graph,
    method: Method | str,
    *,
    subset_cap: int = DEFAULT_SUBSET_CAP,
) -> CountResult:
    """Count induced 4-cycles by ``method``, with that counter's refusals.

    The counters are looked up as module globals on every call, so a caller
    that replaces ``count_induced_c4_enum`` or ``count_induced_c4_diagonal``
    on this module (as the benchmark's spans do) is seen here.
    """
    if Method(method) is Method.ENUMERATION:
        return count_induced_c4_enum(g, subset_cap=subset_cap)
    return count_induced_c4_diagonal(g)

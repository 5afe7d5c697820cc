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
  rows, each weighted by its class size.  A product row per non-edge of a
  class with a later class or within itself stands for its common
  neighbourhood; the rows are built packed, from the quotient's packed
  rows, and consecutive rows that name the same neighbourhood are merged
  before anything is unpacked, one row per run weighted by the run's
  non-edges: in a blow-up the non-edges from one class to the members of
  one far blob share one.  One float32 matrix product per stack, a run of
  consecutive classes whose merged rows and union of neighbourhoods fit a
  memory budget, multiplies the merged rows, unpacked onto that union, by
  the quotient's block on it; where the union barely grows from one class
  to the next, as it does at depth, one block serves the whole stack.  The
  products are exact below 2**24 vertices; the weighted sums after them
  run in float32 up to 4096 vertices and in float64 beyond, and the rows
  are weighted in int64 up to 2**15 vertices and in Python ints beyond,
  each where a written bound keeps it exact (see
  ``count_induced_c4_diagonal``).  The method reads
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
    """A count with its wall time and work counters: ``subsets`` scanned,
    chunk ``passes`` made and a bound on the peak ``bytes`` of the large
    arrays (see ``_enum_bytes``) for enumeration; distinct
    ``neighbourhoods``, product ``rows``, the rows left after merging runs
    of equal consecutive rows (``distinct``), the union ``columns`` of each
    stack's classes (summed over products), the products (``passes``) and
    a bound on the peak ``bytes`` of the large arrays (the largest estimate
    of the quotient, a window or a stack, see ``_diagonal_bytes``) for the
    diagonal method."""

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


def _enum_bytes(n: int) -> int:
    """A bound on the bytes of the exhaustive scan's large arrays on n
    vertices: the padded word rows and their complement, p = 8 ceil(n / 64)
    bytes a vertex each, and one chunk's arrays, 24 of at most
    _ENUM_BLOCK_BYTES each, or of p n for a c too large to share a run:
    its run's stacked operands, its cells and masks, the flat indices of a
    mask (16 bytes a cell) and its gathered operands."""
    rows = 8 * -(-n // 64) * n
    return 2 * rows + 24 * max(_ENUM_BLOCK_BYTES, rows)


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
    work = {"subsets": subsets, "passes": passes, "bytes": _enum_bytes(g.n)}
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
# Product rows are ordered by u, then v, and made in windows of consecutive
# members, the representatives that get product rows.  A window builds its
# rows of Y packed, qp[v] & qp[u] on the packed quotient rows qp: the bits
# of S_v and of the class of ones.  It compares each row with the row
# before it, a word at a time, and keeps the first of every run of equal
# rows, weighted by the sum of the run's weights (np.add.reduceat).  This is
# exact: equal packed rows name the same class set S, hence the same |S|
# and e(S), so every row of a run stands for the same summand, and the
# run's summed weight times it adds up the same terms as the run's rows one
# by one.  A run is the member's where it starts; runs span the members of
# a window, never two windows.  Only consecutive rows are merged: grouping
# every equal row by sorting or hashing finds more, but costs more than it
# saves on twin-free graphs, where equal rows are rare.  The merge needs no
# blow-up identity, only equality of sets the counter has built, so the two
# counters stay independent.
#
# Members are multiplied in stacks, runs of consecutive members, one product
# each, on C, the union of the members' neighbourhoods by class and the
# class of ones: member u's row v of Y is Q[v, C] & Q[u, C], as S_v lies in
# N(u) and the classes of C outside N(u) only add zeros.  A stack grows
# while its merged rows and width fit (``_joins``): Y and the product, rows
# x |C| float32 each, and Q's |C|^2 block within a small budget; or, while
# C stays within a few columns of the first member's own width, Y and the
# product within a wide one.  At depth a member has a few merged rows on
# about two thirds of the quotient, and the neighbourhoods of one blob's
# classes differ in a few classes, so one block of Q serves the blob.  A
# member that fits neither is a stack by itself, on its own neighbourhood.
# Stacks span windows: the merged rows not yet multiplied are held, a window
# is merged when a stack first needs its rows, and the next member is first
# tested with the rows already held, so that a stack that cannot grow
# merges no window.  Stack ends come from a cumulative OR of the members'
# packed quotient rows and the counts of merged rows.
#
# Only merged rows are unpacked, and only onto C.  Q's block is the rows
# qp[C] unpacked, at the columns C.  With fewer merged rows than half the
# classes, Y's rows are rebuilt packed and read on C a byte and a mask per
# column; with more, they are row gathers from the unpacked rows of C
# transposed, Q[:, C] by symmetry, whose one copy then costs less than a
# column gather per row.

# float32 represents every integer below 2**24 exactly.
FLOAT32_EXACT_LIMIT = 1 << 24

# A stack grows while its float32 operands, Y's merged rows, Q's block and
# their product, each hold at most this many bytes.  Chosen by a sweep from
# 128 KiB to 1 MiB (BENCH_diagonal_pass.json).
_DIAGONAL_BLOCK_BYTES = 3 << 16

# A stack also grows while its union stays within 1/32 and 8 columns of its
# first member's width, and Y's merged rows and the product each hold at
# most this many bytes: Q's block is then barely larger than the first
# member's own, and serves every member.  A sweep from 2 to 32 MiB
# (BENCH_packed_diagonal.json) moved no level below 5 by more than noise;
# from 4 MiB on, the width bounds the stacks.
_DIAGONAL_WIDE_BYTES = 8 << 20

# The product rows are gathered, packed, and merged in windows of
# consecutive members whose packed rows hold at most this many bytes, and
# at least one member.  Stacks span windows, so a sweep from 1 to 16 MiB
# moved the time by no more than noise and the peak by the window.
_DIAGONAL_WINDOW_BYTES = 2 << 20

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


def _diagonal_bytes(k: int, rows: int = 0, held: int = 0, width: int = 0, stacked: int = 0) -> int:
    """A bound on the bytes of the diagonal counter's large arrays on a
    quotient of k classes, whose packed rows take b = 8 ceil((k + 1) / 64)
    bytes: the bool quotient and two temporaries beside it, (k + 1) x 8 b
    each, the packed quotient, the members' packed rows and their pairwise
    unions, and 192 bytes a class for the per-class arrays and lists; plus
    a window that gathers ``rows`` product rows, 2 b + 48 bytes a row: Y's
    packed rows and the gathered mask rows, then the comparison flags in
    their place, the classes u and v, the run starts and the weights; plus
    ``held`` merged rows, 24 bytes each: their classes and weights; plus a
    stack on ``width`` union columns (the class of ones among them) and
    ``stacked`` merged rows: the union's rows unpacked and their transposed
    copy, 8 b x width bytes each, Q's block in bytes and in float32, and
    2 b + 10 x width + 40 bytes a row for Y's packed rows, its bytes on C
    and their float32 copy, the product and the row sums.  The
    representatives' packed rows (hashed and gathered), the vertices' class
    labels, the stack bookkeeping and buffers inside numpy and BLAS are not
    counted."""
    b = 8 * -(-(k + 1) // 64)
    return (
        (k + 1) * (25 * b + 192)
        + rows * (2 * b + 48)
        + held * 24
        + width * (16 * b + 5 * width + 8)
        + stacked * (2 * b + 10 * width + 40)
    )


def _merged_rows(
    qp: np.ndarray, far: np.ndarray, size: np.ndarray, members: np.ndarray, ends: np.ndarray, start: int, end: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The product rows of members [start, end), one per run of equal
    consecutive rows of Y, compared packed: the classes u and v of the
    run's first row and the run's weight; and the merged rows up to the end
    of each member.  A run spanning two members is the first one's."""
    before = ends[start]
    rows = int(ends[end] - before)
    lo = members[start]  # far is empty on the rows between members
    u, v = far[lo : members[end - 1] + 1].nonzero()
    u += lo
    y = qp.take(v, 0)
    y &= qp.take(u, 0)  # Y's rows, packed
    new = np.empty(rows, dtype=bool)
    new[0] = True
    np.any(y[1:] != y[:-1], axis=1, out=new[1:])
    runs = new.nonzero()[0]
    del new
    weights = size.take(u)
    weights *= size.take(v)
    # a member with twins has its own class first, C(m, 2) non-edges
    twins = np.flatnonzero(size.take(members[start:end]) > 1)
    m = size.take(members.take(start + twins))
    weights[ends.take(start + twins) - before] = m * (m - 1) // 2
    weights = np.add.reduceat(weights, runs)
    kept = np.searchsorted(runs, ends[start + 1 : end + 1] - before)
    return u.take(runs), v.take(runs), weights, kept


def _joins(width, rows, near: int):
    """Whether a stack on ``width`` columns (the class of ones among them)
    with ``rows`` merged rows fits: its float32 operands each within
    _DIAGONAL_BLOCK_BYTES, or its width at most ``near`` and Y's rows and
    the product each within _DIAGONAL_WIDE_BYTES.  Elementwise on arrays."""
    small = 4 * width * np.maximum(rows, width) <= _DIAGONAL_BLOCK_BYTES
    return small | (width <= near) & (4 * width * rows <= _DIAGONAL_WIDE_BYTES)


def _on_columns(rows: np.ndarray, cols: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """Bits ``cols`` of the packed rows (uint64 words, bit c in byte c >> 3)
    as float32, column j multiplied by factor[j]."""
    bit = np.left_shift(1, cols & 7).astype(np.uint8)
    cells = rows.view(np.uint8).take(cols >> 3, axis=1)
    cells &= bit  # 0 or 2**(c & 7)
    out = cells.astype(np.float32)
    out *= factor / bit  # exact: a power of two
    return out


def _diagonal_raw(packed: np.ndarray, work: dict[str, int] | None = None) -> int:
    """Sum over non-edges {u, v} of the non-adjacent pairs in N(u) & N(v),
    from the packed (n, ceil(n/8)) rows, computed per stack of
    representatives as the weighted sum of C(s_v, 2) - e(S_v) over its
    merged product rows.

    Refuses (VertexCapExceeded) the quotient, a window or a stack whose
    arrays would exceed physical memory, each on its estimate
    ``_diagonal_bytes`` before any of its arrays is allocated.  ``work``,
    when given, receives the number of distinct neighbourhoods, of product
    rows, of product rows left after merging runs of equal rows
    (``distinct``), of union columns multiplied (summed over products), of
    products (``passes``) and the largest estimate checked, a bound on the
    peak ``bytes``."""
    n = len(packed)
    # the arithmetic after the products, chosen from n alone (see
    # count_induced_c4_diagonal for the bounds)
    sums = np.float32 if n <= _FLOAT32_SUM_ORDER else np.float64
    int64_dot = n <= _INT64_DOT_ORDER
    reps, size = _twin_classes(packed)
    k = len(reps)
    peak = _diagonal_bytes(k)
    graphs._check_memory(f"the diagonal counter's quotient on {k} classes of equal rows", peak)
    rep_rows = packed.take(reps, 0)
    # adj[i, j]: representative i sees representative j.  Row and column k,
    # a class of size 0 that sees every class, give each product a column
    # of ones, so that it also sums its rows.  Rows are padded to words.
    words = -(-(k + 1) // 64)
    adj = np.zeros((k + 1, 64 * words), dtype=bool)
    adj[:k, :k] = rep_rows.take(reps >> 3, 1) >> (reps & 7).astype(np.uint8) & 1
    adj[:k, k] = adj[k, :k] = True
    qp = np.packbits(adj, axis=1, bitorder="little").view("<u8")  # bit j of row i in word j >> 6
    scale = np.append(size, 0).astype(np.float32)
    # far[i]: the later classes i does not see, and i itself when it has
    # twins; none when i has fewer than two neighbours
    ids = np.arange(k)
    far = np.greater(ids, ids[:, None]) > adj[:k, :k]
    del adj
    far.flat[:: k + 1] = size > 1
    far[np.bitwise_count(rep_rows).sum(axis=1) < 2] = False
    counts = far.sum(axis=1)
    members = counts.nonzero()[0]  # the representatives that get product rows
    ends = np.cumsum(np.append(0, counts.take(members)))  # rows before each member
    bits = qp.take(members, 0)
    alone = np.bitwise_count(bits).sum(axis=1, dtype=np.int64).tolist()
    pair = np.bitwise_count(bits[:-1] | bits[1:]).sum(axis=1, dtype=np.int64).tolist()
    window = max(1, _DIAGONAL_WINDOW_BYTES // (8 * words))  # product rows
    # the merged rows of members [start, loaded), with the number before
    # each of them and after the last, from the first held row
    u = v = weights = np.empty(0, dtype=np.int64)
    kept, held = [0], 0
    doubled = distinct = columns = passes = start = loaded = 0
    while start < len(members):
        # members join a stack while the union and the merged rows fit
        union, stop, span = bits[start], start + 1, alone[start]
        near = span + span // 32 + 8
        grow = True
        while grow:
            while loaded <= stop and loaded < len(members):
                if loaded == stop == start + 1 and not _joins(pair[start], kept[-1], near):
                    break  # the next member fails with the first's rows alone: not merged yet
                # merge the next window, each row gathered once
                end = max(loaded + 1, int(np.searchsorted(ends, ends[loaded] + window, "right")) - 1)
                rows = int(ends[end] - ends[loaded])
                need = _diagonal_bytes(k, rows, held + len(u) + 2 * rows)
                graphs._check_memory(f"the diagonal counter's window of {rows} rows on {k} classes", need)
                peak = max(peak, need)
                *more, counted = _merged_rows(qp, far, size, members, ends, loaded, end)
                if len(u):  # rows of the stack so far, before the window's
                    more = [np.concatenate(both) for both in zip((u, v, weights), more)]
                u, v, weights = more
                kept += (counted + kept[-1]).tolist()
                held, loaded = len(u), end
            if loaded <= stop or stop == start + 1 and not _joins(pair[start], kept[2], near):
                break  # the next member does not fit, or there is none
            acc = np.bitwise_or.accumulate(bits[stop : min(stop + 32, loaded)], axis=0)
            acc |= union
            width = np.bitwise_count(acc).sum(axis=1, dtype=np.int64)
            merged = np.array(kept[stop - start + 1 : stop - start + 1 + len(acc)])
            fits = int(_joins(width, merged, near).sum())  # widths and rows only grow
            if fits:
                union, span = acc[fits - 1], int(width[fits - 1])
            stop += fits
            grow = fits == len(acc)
        r1 = kept[stop - start]
        kept = [x - r1 for x in kept[stop - start :]]
        start = stop
        if not r1:
            continue  # every row continues a run of an earlier stack
        need = _diagonal_bytes(k, 0, held, span, r1)
        graphs._check_memory(f"the diagonal counter's stack of {r1} rows on {span} classes", need)
        peak = max(peak, need)
        cols = np.unpackbits(union.view(np.uint8), count=k + 1, bitorder="little").nonzero()[0]
        # the rows of C, unpacked: Q[C, :], and by symmetry Q[:, C]
        block = np.unpackbits(qp.take(cols, 0).view(np.uint8), axis=1, count=k + 1, bitorder="little")
        if 2 * r1 < k + 1:  # Y on C from its packed rows
            yp = qp.take(v[:r1], 0)
            yp &= qp.take(u[:r1], 0)
            yf = _on_columns(yp, cols, scale.take(cols))  # C, then the class k
            del yp
        else:  # from row gathers of Q[:, C], cheaper for many rows
            g = np.ascontiguousarray(block.T)
            yf = g.take(v[:r1], 0)
            yf &= g.take(u[:r1], 0)
            yf = yf.astype(np.float32)
            yf *= scale.take(cols)
            del g
        paths = np.matmul(yf, block[:, cols].astype(np.float32))
        del block
        s = paths[:, -1].astype(sums)  # |S_v|
        twice_edges = np.einsum("ij,ij->i", paths, yf, dtype=sums)
        del paths, yf
        # twice the non-adjacent pairs in each S_v: |S_v| (|S_v| - 1) - 2 e(S_v)
        pairs = (s * (s - 1) - twice_edges).astype(np.int64)
        if (pairs & 1).any():
            raise CountParityError("handshake parity violated: adjacency is not symmetric")
        w = weights[:r1]
        doubled += int(w @ pairs) if int64_dot else sum(map(mul, w.tolist(), pairs.tolist()))
        u, v, weights = u[r1:], v[r1:], weights[r1:]
        columns += len(cols) - 1
        distinct += r1
        passes += 1
    if work is not None:
        work.update(
            neighbourhoods=k, rows=int(ends[-1]), distinct=distinct, columns=columns, passes=passes, bytes=peak
        )
    return doubled // 2


def count_induced_c4_diagonal(g: Graph) -> CountResult:
    """Count induced 4-cycles via common neighborhoods of non-edges.

    Refuses graphs of 2**24 or more vertices (VertexCapExceeded), on which
    the float32 products could be inexact, before any matrix is allocated;
    and, each on its estimate of ``_diagonal_bytes`` before its arrays
    exist, a quotient, a window of product rows or a stack whose arrays
    would not fit in physical memory.

    Every step below 2**24 vertices is exact integer arithmetic:

    * The products, in float32.  Y's entries are class sizes m_c or 0,
      read from a byte masked to 2**j and scaled by m_c / 2**j, both exact
      in float32, and Q is 0/1.  A stack's classes C may reach far beyond
      N(u), however many members share it, but Y's row v for a row of u is
      0 outside S_v, which lies in N(u), so entry (v, c') of Y @ Q[C, C] is
      |N(w) & S_v| <= deg(u) < n for every c' in C, and the column of ones
      gives |S_v| <= deg(u).  Both are reached through partial sums of
      non-negative integers that never exceed them, in any order of
      summation, and float32 represents each exactly while n < 2**24.  A
      row's bounds are its own member's, so the width of a stack changes
      none of them.
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
      having one pair count, whichever members of a window the run spans;
      it is at most the number of non-edges, below n**2 / 2.  Each term, a
      merged row's weight times its even pair count, is non-negative, and
      the terms are those of the unmerged rows regrouped, so they add up to
      twice the raw sum, 4 T <= 4 C(n, 4) < n**4 / 6, which is below 2**63
      while n <= 2**15.
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

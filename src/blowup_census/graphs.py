"""Simple graphs with packed bit-row adjacency, compositions, and nested blow-ups.

The composition G[H] replaces every vertex of G by a copy of H and joins all
vertices across two copies whenever the originals were adjacent.  Iterating
this with H = G yields the nested blow-up hierarchy G_0 = G, G_N = G[G_{N-1}].
Vertices use block-major indexing: the copy of G_{N-1} sitting over base
vertex b (a "blob") occupies the contiguous id interval
[b * |V(G_{N-1})|, (b+1) * |V(G_{N-1})|), and vertex (b, x) gets id
b * |V(G_{N-1})| + x.  Any consistent labeling gives the same induced-subgraph
counts, so this one is fixed as the canonical contract.

Adjacency rows are plain Python ints used as bitsets, which keeps all set
algebra exact and makes row intersection a single AND.  Bulk work over every
row (validation, edge-list I/O, the counters' dense matrices) goes through
the same rows packed into an (n, ceil(n/8)) uint8 numpy matrix.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import islice
from math import comb
from typing import Iterable, Iterator, NamedTuple

import numpy as np

__all__ = [
    "DEFAULT_VERTEX_CAP",
    "BlowupSpec",
    "Family",
    "Graph",
    "GraphFormatError",
    "NonEdge",
    "VertexCapExceeded",
    "complete_graph",
    "compose",
    "cycle_graph",
    "empty_graph",
    "nested_blowup",
    "non_edges",
    "read_edge_list",
    "theta_222",
    "write_edge_list",
]

# Guard against accidentally requesting a blow-up level whose adjacency would
# not fit in memory; CLI flag --vertex-cap overrides.
DEFAULT_VERTEX_CAP = 1 << 20

# Validation unpacks the adjacency in row stripes of at most this many bytes,
# so checking symmetry never allocates n^2 bytes at once.
_VALIDATE_BLOCK_BYTES = 1 << 22

# The edge-list writer unpacks row stripes of about this many cells (at least
# one row), small enough that a stripe's bits and tokens stay in cache:
# stripes of _VALIDATE_BLOCK_BYTES cells wrote theta L4 1.3x slower.
_WRITE_STRIPE_CELLS = 1 << 16


class GraphFormatError(ValueError):
    """Malformed edge-list text."""


class VertexCapExceeded(RuntimeError):
    """A construction would exceed the configured vertex cap."""


class NonEdge(NamedTuple):
    """Unordered non-adjacent pair, stored with u < v."""

    u: int
    v: int


def _bits(x: int) -> Iterator[int]:
    """Indices of set bits, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


@dataclass(frozen=True, repr=False)
class Graph:
    """Immutable simple graph on vertex ids 0..n-1.

    ``rows[u]`` has bit v set iff {u, v} is an edge.  Construction validates
    the representation invariants (no self-loops, symmetry, no bits beyond
    the vertex range), so every live Graph is well-formed and safe to share
    across threads.  The checks run on the packed rows, n^2/8 bytes whatever
    the edge count, plus row stripes of at most ``_VALIDATE_BLOCK_BYTES``.
    """

    n: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        if not isinstance(self.rows, tuple):
            object.__setattr__(self, "rows", tuple(self.rows))
        if len(self.rows) != self.n:
            raise ValueError(f"expected {self.n} adjacency rows, got {len(self.rows)}")
        for u, row in enumerate(self.rows):
            if row < 0 or row >> self.n:
                raise ValueError(f"row {u} has bits outside the vertex range")
        packed = _packed_rows(self.n, self.rows)
        ids = np.arange(self.n)
        loops = (packed[ids, ids >> 3] >> (ids & 7)) & 1
        if loops.any():
            raise ValueError(f"self-loop at vertex {int(loops.argmax())}")
        _check_symmetric(packed)
        total_bits = sum(row.bit_count() for row in self.rows)
        object.__setattr__(self, "_edge_count", total_bits // 2)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        lo, hi = [], []
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            lo.append(min(u, v))
            hi.append(max(u, v))
        lo_ids, hi_ids = np.array(lo, dtype=np.int64), np.array(hi, dtype=np.int64)
        rows = _rows_from_pairs(n, lo_ids, hi_ids)
        if rows is None:
            k = _first_repeat(lo_ids, hi_ids)
            raise ValueError(f"duplicate edge ({lo[k]}, {hi[k]})")
        return cls(n, rows)

    # -- queries ------------------------------------------------------------

    @property
    def edge_count(self) -> int:
        return self._edge_count  # type: ignore[attr-defined]

    @property
    def non_edge_count(self) -> int:
        return comb(self.n, 2) - self.edge_count

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, ascending."""
        for u in range(self.n):
            for off in _bits(self.rows[u] >> (u + 1)):
                yield u, u + 1 + off

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count})"


def _packed_rows(n: int, rows: tuple[int, ...]) -> np.ndarray:
    """Rows as an (n, ceil(n/8)) uint8 matrix, bit j of a row = byte j>>3, bit j&7.

    Every row must lie in [0, 2**n).
    """
    width = max(1, (n + 7) // 8)
    data = bytearray(n * width)
    for u, row in enumerate(rows):
        data[u * width : (u + 1) * width] = row.to_bytes(width, "little")
    return np.frombuffer(data, dtype=np.uint8).reshape(n, width)


# _BIT[j] is the byte with bit j set, j = 0..7.
_BIT = np.left_shift(1, np.arange(8)).astype(np.uint8)


def _rows_from_pairs(n: int, lo: np.ndarray, hi: np.ndarray) -> tuple[int, ...] | None:
    """Rows of the graph on n vertices whose edges are {lo[i], hi[i]}, or None
    when some pair occurs twice.

    Needs 0 <= lo[i] < hi[i] < n: then distinct pairs set distinct bits, two
    each, and a repeat shows as fewer than 2 * len(lo) set bits.
    """
    width = max(1, (n + 7) // 8)
    flat = np.zeros(n * width, dtype=np.uint8)
    for r, c in ((lo, hi), (hi, lo)):
        byte = r * width
        byte += c >> 3
        np.bitwise_or.at(flat, byte, _BIT[c & 7])
    if int(np.bitwise_count(flat).sum()) < 2 * len(lo):
        return None
    data = flat.tobytes()
    return tuple(int.from_bytes(data[k : k + width], "little") for k in range(0, len(data), width))


def _first_repeat(lo: np.ndarray, hi: np.ndarray) -> int | None:
    """Smallest index i such that pair i equals some pair j < i, or None."""
    order = np.lexsort((hi, lo))
    a, b = lo[order], hi[order]
    repeats = order[1:][(a[1:] == a[:-1]) & (b[1:] == b[:-1])]
    return int(repeats.min()) if repeats.size else None


def _check_symmetric(packed: np.ndarray) -> None:
    """Raise unless the packed n x n bit matrix equals its transpose.

    Rows [i, j) are unpacked as a stripe and compared with columns [i, j) of
    every row, transposed; the first set bit without a mirror, in row-major
    order, is reported.
    """
    n = len(packed)
    step = max(8, _VALIDATE_BLOCK_BYTES // max(n, 1) // 8 * 8)
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


# ---------------------------------------------------------------------------
# Base graphs
# ---------------------------------------------------------------------------


def cycle_graph(k: int) -> Graph:
    """The k-cycle 0-1-...-(k-1)-0."""
    if k < 3:
        raise ValueError(f"a cycle needs at least 3 vertices, got {k}")
    return Graph.from_edges(k, [(i, (i + 1) % k) for i in range(k)])


def theta_222() -> Graph:
    """Two hubs joined by three internally disjoint length-2 paths (= K_{2,3}).

    Canonical labeling: hubs 0 and 4, path midpoints 1, 2, 3.
    """
    return Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def empty_graph(n: int) -> Graph:
    return Graph(n, (0,) * n)


# ---------------------------------------------------------------------------
# Composition and nested blow-up
# ---------------------------------------------------------------------------


def compose(g: Graph, h: Graph) -> Graph:
    """The composition (lexicographic product) g[h].

    Vertex (i, x) gets id i * |V(h)| + x.  Within copy i the edges are those
    of h; between copies i != j every pair is joined iff {i, j} is an edge
    of g.
    """
    if g.n == 0 or h.n == 0:
        raise ValueError("compose requires non-empty graphs")
    nh = h.n
    block = (1 << nh) - 1
    cross = []
    for i in range(g.n):
        mask = 0
        for j in _bits(g.rows[i]):
            mask |= block << (j * nh)
        cross.append(mask)
    rows = []
    for i in range(g.n):
        shift = i * nh
        mask = cross[i]
        for x in range(nh):
            rows.append((h.rows[x] << shift) | mask)
    return Graph(g.n * nh, tuple(rows))


class Family(str, Enum):
    """Named base-graph families for blow-up hierarchies."""

    C4 = "c4"
    THETA222 = "theta222"
    CUSTOM = "custom"


@lru_cache(maxsize=None)
def _named_base(family: Family) -> Graph:
    if family is Family.C4:
        return cycle_graph(4)
    if family is Family.THETA222:
        return theta_222()
    raise ValueError("custom family requires an explicit base graph")


@dataclass(frozen=True)
class BlowupSpec:
    """Names one graph in a nested blow-up hierarchy: base family plus level.

    Level N of an n-vertex base has n^N vertices per blob and n^(N+1) total.
    """

    family: Family
    level: int
    base: Graph | None = None

    def __post_init__(self) -> None:
        if self.level < 0:
            raise ValueError("blow-up level must be nonnegative")
        family = Family(self.family)
        object.__setattr__(self, "family", family)
        if self.base is None:
            object.__setattr__(self, "base", _named_base(family))
        elif family is not Family.CUSTOM and self.base != _named_base(family):
            raise ValueError(f"family {family.value} has a fixed canonical base graph")
        if self.base.n == 0:
            raise ValueError("base graph must be non-empty")

    @property
    def base_order(self) -> int:
        return self.base.n

    @property
    def blob_order(self) -> int:
        return self.base.n**self.level

    @property
    def total_order(self) -> int:
        return self.base.n ** (self.level + 1)


def nested_blowup(spec: BlowupSpec, *, vertex_cap: int = DEFAULT_VERTEX_CAP) -> Graph:
    """Build G_N for the given spec: G_0 = base, G_N = base[G_{N-1}]."""
    if spec.total_order > vertex_cap:
        raise VertexCapExceeded(
            f"level {spec.level} of the {spec.family.value} family has "
            f"{spec.total_order} vertices, above the cap of {vertex_cap}; "
            "raise --vertex-cap to proceed"
        )
    g = spec.base
    for _ in range(spec.level):
        g = compose(spec.base, g)
    return g


# ---------------------------------------------------------------------------
# Non-edges
# ---------------------------------------------------------------------------


def non_edges(g: Graph) -> Iterator[NonEdge]:
    """All non-adjacent pairs (u, v) with u < v, ascending."""
    full = (1 << g.n) - 1
    for u in range(g.n):
        above = (full >> (u + 1)) << (u + 1)
        for v in _bits(above & ~g.rows[u]):
            yield NonEdge(u, v)


# ---------------------------------------------------------------------------
# Edge-list text format
# ---------------------------------------------------------------------------
#
# The first line that is neither blank nor a comment holds the vertex count n.
# Every later line is blank (spaces and tabs), a comment ('#' after optional
# spaces and tabs) or an edge "u v" with 0 <= u < v < n: ids in ASCII digits,
# separated and optionally surrounded by spaces and tabs.  Lines end in "\n"
# or "\r\n".  Writing emits "u v" lines with one space, in ascending (u, v)
# order.


def _edge_list_chunks(g: Graph) -> Iterator[bytes]:
    """The edge-list text of g as ASCII bytes in pieces, each ending in a
    newline: the vertex-count line, then the lines "u v" of one row stripe.

    Every id has two fixed-width tokens, "u " and "v\\n", NUL-padded to the
    width of the longest.  A stripe's bits above the diagonal select the
    "v\\n" tokens row-major, and each row's "u " token is repeated once per
    selected bit, into "u v" records in ascending (u, v) order; deleting the
    NULs leaves the text.
    """
    n = g.n
    yield b"%d\n" % n
    if n < 2:
        return
    packed = _packed_rows(n, g.rows)
    width = len(str(n - 1)) + 1
    heads = np.array([b"%d " % u for u in range(n)], dtype=f"S{width}")
    tails = np.array([b"%d\n" % v for v in range(n)], dtype=f"S{width}")
    line = np.dtype([("u", heads.dtype), ("v", tails.dtype)])
    step = min(n, max(1, _WRITE_STRIPE_CELLS // n))
    # keep[r, c]: column i + 1 + c lies above the diagonal in row i + r
    keep = np.triu(np.ones((step, step), dtype=bool))
    for i in range(0, n, step):
        j = min(i + step, n)
        stripe = np.unpackbits(packed[i:j], axis=1, count=n, bitorder="little").view(bool)
        above = stripe[:, i + 1 :]
        corner = above[:, :step]
        corner &= keep[: j - i, : corner.shape[1]]
        per_row = np.count_nonzero(above, axis=1)
        lines = np.empty(int(per_row.sum()), dtype=line)
        if lines.size:
            lines["u"] = np.repeat(heads[i:j], per_row)
            lines["v"] = np.broadcast_to(tails[i + 1 :], above.shape)[above]
            yield lines.tobytes().translate(None, b"\0")


def write_edge_list(g: Graph) -> str:
    return b"".join(_edge_list_chunks(g)).decode("ascii")


# The vertex-count line: the first line that is neither blank nor a comment.
_HEADER = re.compile(r"^(?![ \t]*(?:#.*)?\r?$).*", re.MULTILINE)
# An id is ASCII digits with at most 18 after any leading zeros, so every id
# parses into int64 without overflow.
_ID = r"0*[0-9]{1,18}"
# A newline followed by a line that is not blank, a comment or an edge.  The
# first alternative, the "u v" that write_edge_list emits, is a subset of
# the second and only spares the scan its slower branches on most lines.
_BAD_LINE = re.compile(
    rf"\n(?!(?:[0-9]{{1,18}} [0-9]{{1,18}}|[ \t]*(?:#.*|{_ID}[ \t]+{_ID}[ \t]*)?\r?)(?:\n|\Z))"
)
_COMMENT = re.compile(r"#.*")
# The start of an edge line; blank and comment lines never match.
_EDGE_LINE = re.compile(r"^[ \t]*[0-9]", re.MULTILINE)


def _line_at(text: str, pos: int) -> tuple[int, str]:
    """Number (from 1) and text of the line that starts at pos."""
    end = text.find("\n", pos)
    return text.count("\n", 0, pos) + 1, text[pos : end if end >= 0 else len(text)]


def _edge_line_error(lineno: int, raw: str, n: int) -> GraphFormatError:
    """The error for a line after the vertex count that the scan or the id
    checks rejected, worded by the per-line checks of the format."""
    parts = raw.split()
    if parts and not parts[0].startswith("#"):
        if len(parts) != 2:
            return GraphFormatError(f"line {lineno}: expected 'u v', got {raw.strip()!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            return GraphFormatError(f"line {lineno}: non-integer vertex id in {raw.strip()!r}")
        if u == v:
            return GraphFormatError(f"line {lineno}: self-loop at vertex {u}")
        if u > v:
            return GraphFormatError(f"line {lineno}: edges must satisfy u < v, got {u} {v}")
        if not 0 <= u < n or not v < n:
            return GraphFormatError(f"line {lineno}: vertex id out of range for n={n}")
    # int() and str.split() accept more than the format: signs, '_', non-ASCII
    # digits and other whitespace
    return GraphFormatError(
        f"line {lineno}: expected a blank line, a comment or 'u v' in ASCII digits "
        f"separated by spaces or tabs, got {raw!r}"
    )


def read_edge_list(text: str, *, vertex_cap: int = DEFAULT_VERTEX_CAP) -> Graph:
    """Parse edge-list text (see the format above) into a Graph.

    A malformed text raises GraphFormatError naming its first faulty line; a
    repeated edge, reported at its second occurrence, counts only when no
    line is faulty.  A vertex count above ``vertex_cap`` raises
    VertexCapExceeded before anything is allocated.
    """
    head = _HEADER.search(text)
    if head is None:
        raise GraphFormatError("empty edge-list text: vertex count line missing")
    lineno, raw = _line_at(text, head.start())
    try:
        n = int(raw)
    except ValueError:
        raise GraphFormatError(f"line {lineno}: vertex count expected, got {raw.strip()!r}")
    if n < 0:
        raise GraphFormatError(f"line {lineno}: vertex count must be nonnegative")
    if n > vertex_cap:
        raise VertexCapExceeded(
            f"line {lineno}: the edge list has {n} vertices, above the cap of "
            f"{vertex_cap}; raise --vertex-cap to proceed"
        )
    start = head.end()
    bad = _BAD_LINE.search(text, start)
    # every line of body passed the scan; a '#' in it starts a comment
    body = text[start : len(text) if bad is None else bad.start()]
    if "#" in body:
        body = _COMMENT.sub("", body)
    if body.isspace():
        # fromstring reads a text of whitespace alone as one 0
        ids = np.empty(0, dtype=np.int64)
    else:
        with warnings.catch_warnings():
            # on text it cannot read, fromstring warns and returns what it read so far
            warnings.simplefilter("error")
            ids = np.fromstring(body, dtype=np.int64, sep=" ")
    del body
    lo, hi = ids[0::2], ids[1::2]

    def edge_line(k: int) -> tuple[int, str]:
        return _line_at(text, next(islice(_EDGE_LINE.finditer(text, start), k, None)).start())

    faulty = (lo >= hi) | (hi >= n)
    if faulty.any():
        raise _edge_line_error(*edge_line(int(faulty.argmax())), n)
    if bad is not None:
        raise _edge_line_error(*_line_at(text, bad.start() + 1), n)
    rows = _rows_from_pairs(n, lo, hi)
    if rows is None:
        k = _first_repeat(lo, hi)
        raise GraphFormatError(f"line {edge_line(k)[0]}: duplicate edge ({lo[k]}, {hi[k]})")
    return Graph(n, rows)

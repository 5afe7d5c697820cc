"""Simple graphs with packed bit-row adjacency, compositions, and nested blow-ups.

The composition G[H] replaces every vertex of G by a copy of H and joins all
vertices across two copies whenever the originals were adjacent.  Iterating
this with H = G yields the nested blow-up hierarchy G_0 = G, G_N = G[G_{N-1}].
Vertices use block-major indexing: the copy of G_{N-1} sitting over base
vertex b (a "blob") occupies the contiguous id interval
[b * |V(G_{N-1})|, (b+1) * |V(G_{N-1})|), and vertex (b, x) gets id
b * |V(G_{N-1})| + x.  Any consistent labeling gives the same induced-subgraph
counts, so this one is fixed as the canonical contract.

A graph is stored once, as its adjacency rows packed into a read-only
(n, ceil(n/8)) uint8 numpy matrix: bit j of row u (byte j >> 3, bit j & 7)
is set iff {u, j} is an edge.  Composition, validation, the edge-list reader
and writer and both counters work on that matrix directly.
"""

from __future__ import annotations

import operator
import os
import re
import warnings
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from math import comb
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "DEFAULT_VERTEX_CAP",
    "Family",
    "Graph",
    "GraphFormatError",
    "VertexCapExceeded",
    "base_graph",
    "compose",
    "cycle_graph",
    "nested_blowup",
    "non_edges",
    "read_edge_list",
    "theta_222",
    "write_edge_list",
]

# Guard against accidentally requesting a blow-up level whose adjacency would
# not fit in memory; CLI flag --vertex-cap overrides.
DEFAULT_VERTEX_CAP = 1 << 20

# Validation checks symmetry in row stripes of at most this many cells, so
# it never copies the whole packed matrix.
_VALIDATE_BLOCK_BYTES = 1 << 22

# The edge-list writer unpacks row stripes of about this many cells (at least
# one row), small enough that a stripe's bits and tokens stay in cache:
# stripes of _VALIDATE_BLOCK_BYTES cells wrote theta L4 1.3x slower.
_WRITE_STRIPE_CELLS = 1 << 16


class GraphFormatError(ValueError):
    """Malformed edge-list text, or a base graph the family cannot take."""


class VertexCapExceeded(RuntimeError):
    """A construction would exceed the configured vertex cap."""


def _width(n: int) -> int:
    """Bytes in a packed row of an n-vertex graph."""
    return (n + 7) >> 3


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


def _check_memory(subject: str, need: int) -> None:
    """Refuse (VertexCapExceeded) ``need`` bytes, for what ``subject``
    names in the message, when they exceed physical memory; called before
    any of them is allocated."""
    memory = _physical_memory()
    if memory is not None and need > memory:
        raise VertexCapExceeded(
            f"{subject} would take {need} bytes ({need / 2**30:.1f} GiB), "
            f"more than the {memory} bytes of physical memory"
        )


@dataclass(frozen=True, init=False, eq=False, repr=False)
class Graph:
    """Immutable simple graph on vertex ids 0..n-1.

    ``packed`` is the read-only (n, ceil(n/8)) uint8 adjacency matrix, the
    only copy of the graph.  Construction validates it (no self-loops, no
    bits beyond the vertex range, symmetry), so every live Graph is
    well-formed and safe to share across threads.  ``Graph(n, rows)`` takes
    rows as Python ints used as bitsets, packs them once and validates.
    """

    n: int
    packed: np.ndarray
    edge_count: int

    def __init__(self, n: int, rows: Iterable[int]) -> None:
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        rows = tuple(rows)
        if len(rows) != n:
            raise ValueError(f"expected {n} adjacency rows, got {len(rows)}")
        for u, row in enumerate(rows):
            if row < 0 or row >> n:
                raise ValueError(f"row {u} has bits outside the vertex range")
        data = b"".join(row.to_bytes(_width(n), "little") for row in rows)
        self._adopt(np.frombuffer(data, dtype=np.uint8).reshape(n, _width(n)))

    @classmethod
    def _from_packed(cls, packed: np.ndarray) -> "Graph":
        """The graph whose packed adjacency is ``packed``, validated.  The
        caller hands the array over and keeps no writable reference to it."""
        g = cls.__new__(cls)
        g._adopt(packed)
        return g

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        _check_memory(f"a graph of {n} vertices, whose packed rows", n * _width(n))
        lo, hi = [], []
        for u, v in edges:
            u, v = operator.index(u), operator.index(v)
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            lo.append(min(u, v))
            hi.append(max(u, v))
        lo_ids, hi_ids = np.array(lo, dtype=np.int64), np.array(hi, dtype=np.int64)
        g = cls._from_packed(_rows_from_pairs(n, lo_ids, hi_ids))
        if g.edge_count < len(lo):
            k = _first_repeat(lo_ids, hi_ids)
            raise ValueError(f"duplicate edge ({lo[k]}, {hi[k]})")
        return g

    def _adopt(self, packed: np.ndarray) -> None:
        n = len(packed)
        if packed.dtype != np.uint8 or packed.shape != (n, _width(n)):
            raise ValueError(f"packed adjacency of {n} vertices must be ({n}, {_width(n)}) uint8")
        packed = np.ascontiguousarray(packed)
        edge_count = _validate(packed)
        packed.flags.writeable = False
        for name, value in (("n", n), ("packed", packed), ("edge_count", edge_count)):
            object.__setattr__(self, name, value)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.packed, other.packed)

    def __hash__(self) -> int:
        return hash((self.n, self.packed.tobytes()))

    # -- queries ------------------------------------------------------------

    @property
    def rows(self) -> tuple[int, ...]:
        """Adjacency rows as Python ints: bit v of ``rows[u]`` is set iff
        {u, v} is an edge.  Derived from ``packed`` on every access."""
        data, width = self.packed.tobytes(), self.packed.shape[1]
        return tuple(int.from_bytes(data[k : k + width], "little") for k in range(0, len(data), width))

    @property
    def non_edge_count(self) -> int:
        return comb(self.n, 2) - self.edge_count

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count})"


def _rows_from_pairs(n: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Packed rows of the graph on n vertices whose edges are {lo[i], hi[i]}.

    Needs 0 <= lo[i] < hi[i] < n: then distinct pairs set distinct bits,
    and a repeated pair shows as an edge count below len(lo).  The pairs are
    grouped into row stripes of at most _VALIDATE_BLOCK_BYTES cells by a
    stable sort of their stripe numbers, unless they come grouped (as
    sorted pairs do); each stripe's cells above the diagonal are set by one
    fancy assignment and packed.  The lower triangle is the transpose of
    the upper one.
    """
    width = _width(n)
    packed = np.zeros((n, width), dtype=np.uint8)
    step = max(1, _VALIDATE_BLOCK_BYTES // max(n, 1))
    count = -(-n // step)
    ends = [len(lo)]
    if count > 1:
        stripes = np.empty(len(lo), dtype=np.min_scalar_type(count - 1))
        np.floor_divide(lo, step, out=stripes, casting="unsafe")
        if (stripes[1:] < stripes[:-1]).any():
            order = np.argsort(stripes, kind="stable")
            lo, hi = lo[order], hi[order]
        ends = np.cumsum(np.bincount(stripes, minlength=count)).tolist()
        del stripes
    cells = np.zeros((min(step, n), n), dtype=bool)
    start = 0
    for r0, end in zip(range(0, n, step), ends):
        if end > start:
            block = cells[: min(step, n - r0)]
            block[lo[start:end] - r0, hi[start:end]] = True
            packed[r0 : r0 + len(block)] = np.packbits(block, axis=1, bitorder="little")
            block.fill(False)
            start = end
    del cells
    # Byte columns [c0, c1) hold no bit below row 8 c1; their transpose is
    # the lower triangle of rows [8 c0, 8 c1), left of byte column c1,
    # which no later column stripe reads.
    columns = max(1, _VALIDATE_BLOCK_BYTES // max(8 * n, 1))
    for c0 in range(0, width, columns):
        c1 = min(c0 + columns, width)
        mirror = _transposed_rows(packed[: 8 * c1, c0:c1])
        packed[8 * c0 : 8 * c1, :c1] |= mirror[: n - 8 * c0]
    return packed


def _first_repeat(lo: np.ndarray, hi: np.ndarray) -> int | None:
    """Smallest index i such that pair i equals some pair j < i, or None."""
    order = np.lexsort((hi, lo))
    a, b = lo[order], hi[order]
    repeats = order[1:][(a[1:] == a[:-1]) & (b[1:] == b[:-1])]
    return int(repeats.min()) if repeats.size else None


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------
#
# Symmetry is checked on 8 x 8 bit blocks: block (p, q), byte q of rows
# 8p .. 8p + 7 read as one little-endian uint64, has cell (8p + k, 8q + j) at
# bit 8k + j, and three delta swaps (Warren, Hacker's Delight, section 7-3)
# turn it into block (q, p) of the transpose.  Byte columns [c0, c1) so
# transposed are rows [8 c0, 8 c1) of the transpose, compared with the same
# rows of the matrix.

_DELTA_SWAPS = tuple(
    (np.uint64(shift), np.uint64(mask))
    for shift, mask in ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0))
)


def _transposed_rows(columns: np.ndarray) -> np.ndarray:
    """Rows [8 c0, 8 c1) of the transpose of an n x n packed bit matrix, as
    (8 (c1 - c0), ceil(n/8)) packed rows, from its byte columns [c0, c1)."""
    n, r = columns.shape
    width = _width(n)
    padded = np.zeros((8 * width, r), dtype=np.uint8)
    padded[:n] = columns
    # x[p, q]: block (p, c0 + q)
    x = np.ascontiguousarray(padded.reshape(width, 8, r).transpose(0, 2, 1)).view("<u8")[..., 0]
    for shift, mask in _DELTA_SWAPS:
        t = ((x >> shift) ^ x) & mask
        x ^= t ^ (t << shift)
    # block (p, q) now holds block (c0 + q, p) of the transpose
    rows = np.ascontiguousarray(x.T).view(np.uint8).reshape(r, width, 8).transpose(0, 2, 1)
    return rows.reshape(8 * r, width)


def _validate(packed: np.ndarray) -> int:
    """Number of edges of the graph with these packed rows; raises
    ValueError unless the rows are those of a simple graph: no bit at or
    past n, no self-loop, every bit mirrored, checked in that order.  An
    asymmetry is reported at the first unmirrored bit in row-major order.

    Each pair {u, v} is compared once, in the stripe of rows that holds
    min(u, v): rows [8 c0, 8 c1) right of byte column c0 against the
    transpose of byte columns [c0, c1) below row 8 c0.
    """
    n, width = packed.shape
    if n & 7:
        outside = packed[:, -1] >> (n & 7)
        if outside.any():
            raise ValueError(f"row {int(outside.argmax())} has bits outside the vertex range")
    ids = np.arange(n)
    loops = (packed[ids, ids >> 3] >> (ids & 7)) & 1
    if loops.any():
        raise ValueError(f"self-loop at vertex {int(loops.argmax())}")
    step = max(1, _VALIDATE_BLOCK_BYTES // max(8 * n, 1))
    edges = 0
    for c0 in range(0, width, step):
        c1 = min(c0 + step, width)
        stripe = packed[8 * c0 : 8 * c1, c0:]
        if (stripe != _transposed_rows(packed[8 * c0 :, c0:c1])[: len(stripe)]).any():
            _raise_first_asymmetry(packed)
        # the stripe's diagonal block holds each of its edges twice
        bits = np.bitwise_count(stripe)
        edges += int(bits.sum()) - int(bits[:, : c1 - c0].sum()) // 2
    return edges


def _raise_first_asymmetry(packed: np.ndarray) -> None:
    """Raise ValueError at the first unmirrored bit, in row-major order, of
    a packed matrix that is not symmetric: each row stripe against the
    transpose of its byte columns in full."""
    n, width = packed.shape
    step = max(1, _VALIDATE_BLOCK_BYTES // max(8 * n, 1))
    for c0 in range(0, width, step):
        c1 = min(c0 + step, width)
        stripe = packed[8 * c0 : 8 * c1]
        mirror = _transposed_rows(packed[:, c0:c1])
        unmatched = stripe & ~mirror[: len(stripe)]
        if unmatched.any():
            cells = np.unpackbits(unmatched, axis=1, count=n, bitorder="little")
            u, v = divmod(int(cells.argmax()), n)
            u += 8 * c0
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


# ---------------------------------------------------------------------------
# Composition and nested blow-up
# ---------------------------------------------------------------------------


def compose(g: Graph, h: Graph) -> Graph:
    """The composition (lexicographic product) g[h].

    Vertex (i, x) gets id i * |V(h)| + x.  Within copy i the edges are those
    of h; between copies i != j every pair is joined iff {i, j} is an edge
    of g.  Copy i's rows are g's row i with every bit widened to |V(h)|
    bits, OR-ed with h's rows shifted to bit i * |V(h)|.
    """
    if g.n == 0 or h.n == 0:
        raise ValueError("compose requires non-empty graphs")
    nh, n = h.n, g.n * h.n
    width, inner = _width(n), h.packed.shape[1]
    cells = np.unpackbits(g.packed, axis=1, count=g.n, bitorder="little")
    out = np.empty((g.n, nh, width), dtype=np.uint8)
    out[:] = np.packbits(cells.repeat(nh, axis=1), axis=1, bitorder="little")[:, None]
    for i, rows in enumerate(out):
        byte, bit = divmod(i * nh, 8)
        rows[:, byte : byte + inner] |= h.packed << bit
        if bit:
            spill = rows[:, byte + 1 : byte + 1 + inner]
            spill |= (h.packed >> (8 - bit))[:, : spill.shape[1]]
    return Graph._from_packed(out.reshape(n, width))


class Family(str, Enum):
    """Named base-graph families for blow-up hierarchies."""

    C4 = "c4"
    THETA222 = "theta222"
    CUSTOM = "custom"


_CANONICAL_BASES = {Family.C4: cycle_graph(4), Family.THETA222: theta_222()}


def base_graph(family: Family | str, custom: Graph | None = None) -> Graph:
    """The base graph of ``family``: the canonical one of a named family, or
    ``custom`` for the custom family.  The one place that refuses a base,
    with GraphFormatError: a custom family without one, a named family given
    one, and an empty one."""
    family = Family(family)
    if family is not Family.CUSTOM:
        if custom is not None:
            raise GraphFormatError(
                f"family {family.value} has a fixed base graph; a base (--input) "
                "is only valid with the custom family"
            )
        return _CANONICAL_BASES[family]
    if custom is None:
        raise GraphFormatError("the custom family requires a base graph (--input)")
    if custom.n == 0:
        raise GraphFormatError("the base graph must have at least one vertex")
    return custom


def _check_order(subject: str, n: int, vertex_cap: int) -> None:
    """Refuse (VertexCapExceeded) a graph of n vertices, named ``subject``
    in the message, above ``vertex_cap`` or whose packed rows would not fit
    in physical memory; called before anything of it is allocated."""
    if n > vertex_cap:
        raise VertexCapExceeded(
            f"{subject} has {n} vertices, above the cap of {vertex_cap}; raise --vertex-cap to proceed"
        )
    _check_memory(f"{subject} has {n} vertices, whose packed rows", n * _width(n))


def nested_blowup(base: Graph, level: int, *, vertex_cap: int = DEFAULT_VERTEX_CAP) -> Graph:
    """G_N for N = ``level``: G_0 = base, G_N = base[G_{N-1}], with
    |V(base)|^(N+1) vertices; refused (VertexCapExceeded) above
    ``vertex_cap``, or when its packed rows would not fit in physical
    memory, before anything is built."""
    if level < 0:
        raise ValueError("blow-up level must be nonnegative")
    _check_order(f"level {level}", base.n ** (level + 1), vertex_cap)
    g = base
    for _ in range(level):
        g = compose(base, g)
    return g


# ---------------------------------------------------------------------------
# Non-edges
# ---------------------------------------------------------------------------


def non_edges(g: Graph) -> Iterator[tuple[int, int]]:
    """All non-adjacent pairs (u, v) with u < v, ascending."""
    for u, row in enumerate(g.packed):
        cells = np.unpackbits(row, count=g.n, bitorder="little")
        for v in np.flatnonzero(cells[u + 1 :] == 0).tolist():
            yield u, u + 1 + v


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
    NULs leaves the text.  A stripe whose first row id has the full width
    has none to delete, since every later id has it too.
    """
    n = g.n
    yield b"%d\n" % n
    if n < 2:
        return
    packed = g.packed
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
            text = lines.tobytes()
            yield text if len(str(i)) + 1 == width else text.translate(None, b"\0")


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


def _canonical_body(text: str, start: int) -> bytes | None:
    """text[start:], the text after the vertex-count line, as ASCII bytes
    if it is what write_edge_list emits there: lines "u v" of ASCII digits
    with one space between, each after a "\\n", and at most one "\\n" after
    the last; None otherwise."""
    body = text[start:]
    if not body.isascii():
        return None
    data = body.encode("ascii")
    del body
    rest = data.translate(None, b"0123456789")
    odd = len(rest) & 1
    if rest != b"\n " * (len(rest) >> 1) + b"\n" * odd:
        return None
    del rest
    # no id is empty: no two separators meet, and the text ends in a digit
    # or in a "\n" after the last "u v"
    sep = np.frombuffer(data, dtype=np.uint8) < ord("0")
    if data and (sep[-1] != odd or (sep[1:] & sep[:-1]).any()):
        return None
    return data


def read_edge_list(text: str, *, vertex_cap: int = DEFAULT_VERTEX_CAP) -> Graph:
    """Parse edge-list text (see the format above) into a Graph.

    A malformed text raises GraphFormatError naming its first faulty line; a
    repeated edge, reported at its second occurrence, counts only when no
    line is faulty.  A vertex count above ``vertex_cap``, or one whose
    packed rows would not fit in physical memory, raises VertexCapExceeded
    before anything is allocated.  Text after the vertex count that is
    exactly what write_edge_list emits skips the line-by-line syntax scan.
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
    _check_order(f"line {lineno}: the edge list", n, vertex_cap)
    start = head.end()
    # Canonical text has no line the scan would reject but one with an id of
    # 19 or more digits after any leading zeros; that id is at least 10**18,
    # beyond every n that fits in memory, so the range check below names
    # the same first faulty line.
    body = _canonical_body(text, start)
    bad = None
    if body is None:
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
    g = Graph._from_packed(_rows_from_pairs(n, lo, hi))
    if g.edge_count < len(lo):
        k = _first_repeat(lo, hi)
        raise GraphFormatError(f"line {edge_line(k)[0]}: duplicate edge ({lo[k]}, {hi[k]})")
    return g

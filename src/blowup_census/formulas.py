"""Exact integer formulas for induced 4-cycle counts in nested blow-ups.

Everything here is evaluated over Python's arbitrary-precision integers
(counts grow like n^(4N)).

One composition rule gives the sizes and the induced-4-cycle count of every
level, for any base graph.  An induced 4-cycle of H[K] has its vertices in
the blobs (copies of K) in one of four ways: all four in one blob; four in
distinct blobs; 2+2 in two adjacent blobs, each pair a non-edge of K; or
2+1+1, the pair a non-edge of K in a blob whose two neighbouring blobs are
not adjacent.  No other split is possible: three vertices in one blob, or
two that are neighbours on the cycle, would need an outside vertex that
sees some of the blob but not all.  With n vertices, m non-edges, e edges,
T induced 4-cycles and P the sum over vertices i of the non-adjacent pairs
in N(i):

    T(H[K]) = n_H*T_K + T_H*n_K^4 + P_H*m_K*n_K^2 + e_H*m_K^2
    m(H[K]) = n_H*m_K + m_H*n_K^2

Level N of the nested blow-up is G_N = H[G_{N-1}] with G_0 = H, so the
invariants of H (``base_invariants``) are all the rule needs, and
``blowup_levels`` iterates it.  The 4-cycle has (n, m, T, e, P) =
(4, 2, 1, 4, 4) and the theta graph (5, 4, 3, 6, 9): the coefficients of the
paper's two recurrences.

For the two named families the module also keeps the paper's claims under
test, hand-typed and independent of the rule:

* the Q/R/S partial sums of the unrolled recurrence, each in two
  independently evaluated shapes (literal summation over the rule's
  non-edge sequence, and geometric-sum closed form) so transcription errors
  are observable;
* the final closed form for T_N in two coefficient variants, "stated" and
  "derived", which disagree.  Both are evaluated verbatim over exact
  rationals; a non-integer result is returned as data, not raised, so the
  discrepancy can be reported instead of being hidden by a crash.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Callable, NamedTuple, Union

import numpy as np

from .counting import count_induced_c4_diagonal
from .graphs import Family, Graph, base_graph

__all__ = [
    "FORMULA_LEVEL_CAP",
    "FORMULAS",
    "BaseInvariants",
    "FamilyFormulas",
    "LevelCounts",
    "PartialSums",
    "Rational",
    "SumPair",
    "TermBreakdown",
    "Variant",
    "base_invariants",
    "blowup_levels",
    "c4_closed_T",
    "c4_partial_sums",
    "compose_counts",
    "theta_closed_T",
    "theta_partial_sums",
]

# Pure-formula checks sweep levels 0..30; values there are ~4^124, still cheap
# exactly, and far beyond any graph that could be built and counted.
FORMULA_LEVEL_CAP = 30


class Variant(str, Enum):
    """The two circulating coefficient sets for the final closed form."""

    STATED = "stated"
    DERIVED = "derived"


@dataclass(frozen=True)
class Rational:
    """Exact ratio kept unreduced so reports can show the raw evaluation."""

    numerator: int
    denominator: int

    @property
    def value(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)

    @property
    def is_integer(self) -> bool:
        return self.numerator % self.denominator == 0

    def __str__(self) -> str:
        return f"{self.numerator}/{self.denominator}"


ClosedValue = Union[int, Rational]


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"inexact division {num}/{den} (transcription bug)")
    return q


def _int_or_rational(num: int, den: int) -> ClosedValue:
    q, r = divmod(num, den)
    return q if r == 0 else Rational(num, den)


# ---------------------------------------------------------------------------
# The composition rule
# ---------------------------------------------------------------------------


class BaseInvariants(NamedTuple):
    """What the composition rule needs of the outer graph H of H[K]."""

    n: int  # vertices
    m: int  # non-edges
    T: int  # induced 4-cycles
    e: int  # edges
    P: int  # sum over vertices i of the non-adjacent pairs in N(i)


def base_invariants(g: Graph, T: int | None = None) -> BaseInvariants:
    """(n, m, T, e, P) of g, from its packed rows; ``T`` is g's induced
    4-cycle count when the caller has one, else the diagonal counter's.

    P = sum_i C(deg i, 2) - sum_i e(N(i)), and sum_i e(N(i)) is half the sum
    over vertices u and v in N(u) of |N(u) & N(v)|: the first counts every
    triangle three times, the second six.
    """
    packed = g.packed
    cells = np.unpackbits(packed, axis=1, count=g.n, bitorder="little").view(bool)
    common = sum(int(np.bitwise_count(packed[nbrs] & row).sum()) for nbrs, row in zip(cells, packed))
    pairs = sum(comb(d, 2) for d in cells.sum(axis=1).tolist())
    T = count_induced_c4_diagonal(g).value if T is None else T
    return BaseInvariants(g.n, g.non_edge_count, T, g.edge_count, pairs - common // 2)


@dataclass(frozen=True)
class TermBreakdown:
    """The four summands of T(H[K]) in the composition rule, in its order:
    n_H*T_K, T_H*n_K^4, P_H*m_K*n_K^2 and e_H*m_K^2.  At level 0 of a
    nested blow-up the base count rides in the copies slot and the rest
    are 0.
    """

    copies_term: int
    all_blob_term: int
    one_nonedge_term: int
    two_nonedge_term: int

    @property
    def total(self) -> int:
        return (
            self.copies_term
            + self.all_blob_term
            + self.one_nonedge_term
            + self.two_nonedge_term
        )


class LevelCounts(NamedTuple):
    """Vertices, non-edges and induced 4-cycles of one graph by the rule."""

    n: int
    m: int
    T: int
    breakdown: TermBreakdown

    @property
    def edges(self) -> int:
        return comb(self.n, 2) - self.m


def compose_counts(h: BaseInvariants, k: BaseInvariants | LevelCounts) -> LevelCounts:
    """The counts of H[K] from the invariants of H and K's n, m and T."""
    terms = TermBreakdown(h.n * k.T, h.T * k.n**4, h.P * k.m * k.n**2, h.e * k.m**2)
    return LevelCounts(h.n * k.n, h.n * k.m + h.m * k.n**2, terms.total, terms)


def blowup_levels(base: BaseInvariants, max_level: int) -> list[LevelCounts]:
    """Levels 0..max_level of the nested blow-up of ``base``, by the rule."""
    if max_level < 0:
        raise ValueError("level must be nonnegative")
    levels = [LevelCounts(base.n, base.m, base.T, TermBreakdown(base.T, 0, 0, 0))]
    for _ in range(max_level):
        levels.append(compose_counts(base, levels[-1]))
    return levels


# ---------------------------------------------------------------------------
# Partial sums of the unrolled recurrence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SumPair:
    """One quantity computed two ways; agreement is the caller's check."""

    summation: int
    closed: int

    @property
    def agree(self) -> bool:
        return self.summation == self.closed


class PartialSums(NamedTuple):
    q: SumPair
    r: SumPair
    s: SumPair

    @property
    def total_summation(self) -> int:
        return self.q.summation + self.r.summation + self.s.summation

    @property
    def total_closed(self) -> int:
        return self.q.closed + self.r.closed + self.s.closed


def c4_partial_sums(N: int) -> PartialSums:
    """Q/R/S for the 4-cycle family; empty sums at N = 0 give R = S = 0.

    Q collects the cascaded copies and all-blob terms, R the single-non-edge
    terms, S the squared-non-edge terms:

        Q_N = 4^N * sum_{i=0..N} 4^(3i)
        R_N = sum_{i=1..N} 4^(N+i+1) * m_{i-1}
        S_N = sum_{i=1..N} 4^i * m_{N-i}^2
    """
    p = 4**N
    p2 = 4 ** (2 * N)
    p3 = 4 ** (3 * N)
    m = [level.m for level in blowup_levels(FORMULAS["c4"].base, N)]
    q_sum = p * sum(4 ** (3 * i) for i in range(N + 1))
    r_sum = sum(4 ** (N + i + 1) * m[i - 1] for i in range(1, N + 1))
    s_sum = sum(4**i * m[N - i] ** 2 for i in range(1, N + 1))
    q_closed = _exact_div(p * (64 * p3 - 1), 63)
    r_closed = _exact_div(4 * p * (320 * p3 - 336 * p2 + 16), 1890)
    s_closed = _exact_div(4 * p * (80 * p3 - 168 * p2 + 105 * p - 17), 2835)
    return PartialSums(
        SumPair(q_sum, q_closed), SumPair(r_sum, r_closed), SumPair(s_sum, s_closed)
    )


def theta_partial_sums(N: int) -> PartialSums:
    """Q/R/S for the theta family.

        Q_N = 3 * 5^N * sum_{i=0..N} 5^(3i)
        R_N = 6 * sum_{i=1..N} 5^(i-1) * m_{N-i}^2
        S_N = 9 * sum_{i=1..N} 5^(N+i) * m_{i-1}
    """
    p = 5**N
    p2 = 5 ** (2 * N)
    p3 = 5 ** (3 * N)
    m = [level.m for level in blowup_levels(FORMULAS["theta222"].base, N)]
    q_sum = 3 * p * sum(5 ** (3 * i) for i in range(N + 1))
    r_sum = 6 * sum(5 ** (i - 1) * m[N - i] ** 2 for i in range(1, N + 1))
    s_sum = 9 * sum(5 ** (N + i) * m[i - 1] for i in range(1, N + 1))
    q_closed = _exact_div(3 * p * (125 * p3 - 1), 124)
    r_closed = _exact_div(p * (150 * p3 - 310 * p2 + 186 * p - 26), 620)
    s_closed = _exact_div(3 * p * (750 * p3 - 775 * p2 + 25), 1240)
    return PartialSums(
        SumPair(q_sum, q_closed), SumPair(r_sum, r_closed), SumPair(s_sum, s_closed)
    )


# ---------------------------------------------------------------------------
# Final closed forms, both coefficient variants
# ---------------------------------------------------------------------------


def c4_closed_T(N: int, variant: Variant) -> ClosedValue:
    """T_N closed form for the 4-cycle family.

    The derived variant equals the unrolled recurrence identically; the
    stated variant has a flipped second coefficient and a different constant
    and never evaluates to an integer (5670 = 2 * 3^4 * 5 * 7, but the stated
    numerator only carries a single factor of 3 beyond powers of 2).
    """
    p = 4**N
    p2 = 4 ** (2 * N)
    p3 = 4 ** (3 * N)
    if Variant(variant) is Variant.STATED:
        num = 8 * p * (1280 * p3 + 672 * p2 + 105 * p - 713)
    else:
        num = p * (10240 * p3 - 5376 * p2 + 840 * p - 34)
    return _int_or_rational(num, 5670)


def theta_closed_T(N: int, variant: Variant) -> ClosedValue:
    """T_N closed form for the theta family.

    The variants differ only in the trailing constant (-3877 vs -7); the
    stated one is negative at N = 0 and non-integer at every level.
    """
    tail = -3877 if Variant(variant) is Variant.STATED else -7
    p = 5**N
    p2 = 5 ** (2 * N)
    p3 = 5 ** (3 * N)
    num = p * (6300 * p3 - 2945 * p2 + 372 * p + tail)
    return _int_or_rational(num, 1240)


# ---------------------------------------------------------------------------
# Per-family dispatch table
# ---------------------------------------------------------------------------


class FamilyFormulas(NamedTuple):
    """The hand-typed claims for one named family, keyed by Family.value."""

    family: Family
    partial_sums: Callable[[int], PartialSums]
    closed_T: Callable[[int, Variant], ClosedValue]

    @property
    def base(self) -> BaseInvariants:
        return _named_invariants(self.family)

    # level sizes by the rule, under the names perfbench/worker.py reads

    @property
    def base_order(self) -> int:
        return self.base.n

    def nonedges_closed(self, N: int) -> int:
        return blowup_levels(self.base, N)[N].m

    def edges_closed(self, N: int) -> int:
        return blowup_levels(self.base, N)[N].edges


@lru_cache(maxsize=None)
def _named_invariants(family: Family) -> BaseInvariants:
    return base_invariants(base_graph(family))


FORMULAS: dict[str, FamilyFormulas] = {
    "c4": FamilyFormulas(Family.C4, c4_partial_sums, c4_closed_T),
    "theta222": FamilyFormulas(Family.THETA222, theta_partial_sums, theta_closed_T),
}

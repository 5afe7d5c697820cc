"""Formula values, dual evaluations, and the level-0..30 property sweeps.

Frozen non-edge and count values were first computed from the constructed
graphs by an independent brute-force scan, then frozen here; the formula
routes must reproduce them exactly.  The paper's two printed recurrences and
non-edge forms are transcribed below, so the composition rule that replaced
them is checked against the paper and not only against itself.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

import pytest

from blowup_census import (
    FORMULA_LEVEL_CAP,
    FORMULAS,
    Family,
    Rational,
    TermBreakdown,
    Variant,
    base_graph,
    base_invariants,
    blowup_levels,
    c4_closed_T,
    c4_partial_sums,
    compose,
    compose_counts,
    cycle_graph,
    nested_blowup,
    theta_222,
    theta_closed_T,
    theta_partial_sums,
)
from blowup_census.formulas import _exact_div
from helpers import brute_force_c4_count, random_graph

SWEEP = range(FORMULA_LEVEL_CAP + 1)
C4 = FORMULAS["c4"].base
THETA = FORMULAS["theta222"].base


def _rule(base, N):
    return blowup_levels(base, N)[N]


# ---------------------------------------------------------------------------
# The paper's printed forms, transcribed
# ---------------------------------------------------------------------------


def _printed_c4_nonedges(N):
    order = 4 ** (N + 1)
    return _exact_div(order * (order - 1), 6)


def _printed_theta_nonedges(N):
    return 5**N * (5 ** (N + 1) - 1)


def _printed_c4_T(N):
    t = 1
    for level in range(1, N + 1):
        p, m = 4**level, _printed_c4_nonedges(level - 1)
        t = 4 * t + p**4 + 4 * m * p**2 + 4 * m**2
    return t


def _printed_theta_T(N):
    t = 3
    for level in range(1, N + 1):
        p, m = 5**level, _printed_theta_nonedges(level - 1)
        t = 5 * t + 3 * p**4 + 6 * m**2 + 9 * m * p**2
    return t


def test_base_invariants_pin_paper_coefficients():
    assert tuple(base_invariants(cycle_graph(4))) == (4, 2, 1, 4, 4)
    assert tuple(base_invariants(theta_222())) == (5, 4, 3, 6, 9)
    assert C4 == base_invariants(cycle_graph(4))
    assert THETA == base_invariants(theta_222())


def test_rule_equals_printed_recurrences_and_nonedge_forms():
    c4_levels = blowup_levels(C4, FORMULA_LEVEL_CAP)
    theta_levels = blowup_levels(THETA, FORMULA_LEVEL_CAP)
    for n in SWEEP:
        assert c4_levels[n].m == _printed_c4_nonedges(n)
        assert c4_levels[n].T == _printed_c4_T(n)
        assert theta_levels[n].m == _printed_theta_nonedges(n)
        assert theta_levels[n].T == _printed_theta_T(n)


def test_composition_rule_random_pairs():
    # H != K of different orders, so every term of the rule sees unequal
    # sides; K = K_1 and edgeless or complete graphs turn up among them
    rng = random.Random(20261018)
    for trial in range(300):
        nh, nk = rng.sample(range(1, 6), 2)
        h = random_graph(nh, rng.random(), rng.randrange(1 << 30))
        k = random_graph(nk, rng.random(), rng.randrange(1 << 30))
        g = compose(h, k)
        counts = compose_counts(base_invariants(h), base_invariants(k))
        where = f"trial={trial} H={h.rows} K={k.rows}"
        assert counts.n == g.n, where
        assert counts.m == g.non_edge_count, where
        assert counts.edges == g.edge_count, where
        assert counts.T == counts.breakdown.total == brute_force_c4_count(g), where


# ---------------------------------------------------------------------------
# Non-edge and edge counts
# ---------------------------------------------------------------------------


def test_c4_nonedges_values():
    assert [level.m for level in blowup_levels(C4, 3)] == [2, 40, 672, 10880]


def test_c4_nonedges_dual_forms_agree():
    # the paper's binomial-minus-edges shape: C(4^(N+1), 2) - 4^(N+1) * sum(4^i)
    for n in SWEEP:
        order = 4 ** (n + 1)
        binomial = comb(order, 2) - order * sum(4**i for i in range(n + 1))
        assert _rule(C4, n).m == binomial


def test_c4_nonedges_match_graphs():
    for n in range(3):
        g = nested_blowup(base_graph(Family.C4), n)
        assert g.non_edge_count == _rule(C4, n).m
        assert g.edge_count == _rule(C4, n).edges


def test_theta_nonedges_values():
    assert [level.m for level in blowup_levels(THETA, 2)] == [4, 120, 3100]


def test_theta_edges_values():
    assert [level.edges for level in blowup_levels(THETA, 2)] == [6, 180, 4650]


def test_theta_formulas_match_graphs():
    for n in range(3):
        g = nested_blowup(base_graph(Family.THETA222), n)
        assert g.non_edge_count == _rule(THETA, n).m
        assert g.edge_count == _rule(THETA, n).edges


def test_theta_edge_nonedge_split():
    # the paper's edge form 6 * 5^N * sum(5^i) and the per-blob non-edge
    # shape 4 * 5^N * sum(5^i)
    for n in SWEEP:
        level = _rule(THETA, n)
        blobs = 5**n * sum(5**i for i in range(n + 1))
        assert level.edges == 6 * blobs
        assert level.m == 4 * blobs
        assert level.edges + level.m == comb(5 ** (n + 1), 2)


def test_c4_nonedge_induction_step():
    # m_{N+1} = C(4^{N+2}, 2) - 4*|E(G_N)| - 4*(4^{N+1})^2
    levels = blowup_levels(C4, FORMULA_LEVEL_CAP + 1)
    for n in SWEEP:
        order = 4 ** (n + 1)
        expected = comb(4 ** (n + 2), 2) - 4 * levels[n].edges - 4 * order * order
        assert levels[n + 1].m == expected


def test_theta_nonedge_induction_step():
    levels = blowup_levels(THETA, FORMULA_LEVEL_CAP + 1)
    for n in SWEEP:
        assert levels[n + 1].m == comb(5 ** (n + 2), 2) - levels[n + 1].edges


# ---------------------------------------------------------------------------
# Recurrences and breakdowns
# ---------------------------------------------------------------------------


def test_c4_recurrence_values():
    assert [level.T for level in blowup_levels(C4, 3)] == [1, 404, 114512, 30051648]


def test_theta_recurrence_values():
    assert [level.T for level in blowup_levels(THETA, 3)] == [3, 2886, 1947705, 1235757900]


def test_recurrence_rejects_negative():
    with pytest.raises(ValueError):
        blowup_levels(C4, -1)
    with pytest.raises(ValueError):
        blowup_levels(THETA, -1)


@pytest.mark.parametrize(
    "form",
    [
        c4_partial_sums,
        theta_partial_sums,
        lambda N: c4_closed_T(N, Variant.DERIVED),
        lambda N: theta_closed_T(N, Variant.STATED),
    ],
    ids=["c4_partial_sums", "theta_partial_sums", "c4_closed_T", "theta_closed_T"],
)
@pytest.mark.parametrize("N", [-1, -2])
def test_hand_typed_forms_refuse_negative_levels(form, N):
    # 4**-1 is a float: c4_closed_T(-1, "derived") evaluated to 0.0
    with pytest.raises(ValueError, match="nonnegative"):
        form(N)


def test_c4_breakdown_level_one():
    assert _rule(C4, 1).breakdown == TermBreakdown(4, 256, 128, 16)


def test_theta_breakdown_level_one():
    # P*m*n^2 = 9*4*25 and e*m^2 = 6*16, in the rule's slot order
    assert _rule(THETA, 1).breakdown == TermBreakdown(15, 1875, 900, 96)


def test_breakdown_level_zero_convention():
    assert _rule(C4, 0).breakdown == TermBreakdown(1, 0, 0, 0)
    assert _rule(THETA, 0).breakdown == TermBreakdown(3, 0, 0, 0)


def test_breakdown_totals_equal_recurrence():
    for base in (C4, THETA):
        for level in blowup_levels(base, FORMULA_LEVEL_CAP):
            assert level.breakdown.total == level.T


# ---------------------------------------------------------------------------
# Partial sums
# ---------------------------------------------------------------------------


def test_c4_partial_sums_level_one():
    sums = c4_partial_sums(1)
    assert (sums.q.summation, sums.r.summation, sums.s.summation) == (260, 128, 16)


def test_c4_partial_sums_level_zero_empty_sums():
    sums = c4_partial_sums(0)
    assert (sums.q.summation, sums.r.summation, sums.s.summation) == (1, 0, 0)


def test_theta_partial_sums_level_one():
    sums = theta_partial_sums(1)
    assert (sums.q.summation, sums.r.summation, sums.s.summation) == (1890, 96, 900)


def test_theta_partial_sums_level_zero():
    sums = theta_partial_sums(0)
    assert (sums.q.summation, sums.r.summation, sums.s.summation) == (3, 0, 0)


@pytest.mark.parametrize(
    "partial_sums, base",
    [(c4_partial_sums, C4), (theta_partial_sums, THETA)],
    ids=["c4", "theta"],
)
def test_partial_sum_properties(partial_sums, base):
    for n, level in enumerate(blowup_levels(base, FORMULA_LEVEL_CAP)):
        sums = partial_sums(n)
        assert sums.q.agree and sums.r.agree and sums.s.agree
        assert sums.total_summation == level.T
        assert sums.total_closed == level.T


def test_partial_sums_level_two_match_recurrence():
    assert c4_partial_sums(2).total_summation == 114512
    assert theta_partial_sums(2).total_summation == 1947705


# ---------------------------------------------------------------------------
# Closed forms, both variants
# ---------------------------------------------------------------------------


def test_c4_derived_closed_values():
    assert [c4_closed_T(n, Variant.DERIVED) for n in range(3)] == [1, 404, 114512]


def test_theta_derived_closed_values():
    assert [theta_closed_T(n, Variant.DERIVED) for n in range(3)] == [3, 2886, 1947705]


def test_derived_equals_recurrence_sweep():
    # divisibility by 5670 resp. 1240 holds implicitly: an int comes back
    for n in SWEEP:
        assert c4_closed_T(n, Variant.DERIVED) == _rule(C4, n).T
        assert theta_closed_T(n, Variant.DERIVED) == _rule(THETA, n).T


def test_c4_stated_is_noninteger_at_zero():
    value = c4_closed_T(0, Variant.STATED)
    assert isinstance(value, Rational)
    assert value == Rational(10752, 5670)
    assert str(value) == "10752/5670"
    assert value.numerator % value.denominator != 0
    assert value.value != 1


def test_theta_stated_is_negative_at_zero():
    value = theta_closed_T(0, Variant.STATED)
    assert isinstance(value, Rational)
    assert str(value) == "-150/1240"
    assert value.value == Fraction(-15, 124)
    assert value.value < 0 and value.value != 3


def test_stated_never_matches_sweep():
    for n in SWEEP:
        c4_stated = c4_closed_T(n, Variant.STATED)
        theta_stated = theta_closed_T(n, Variant.STATED)
        assert isinstance(c4_stated, Rational)
        assert isinstance(theta_stated, Rational)
        assert c4_stated.value != _rule(C4, n).T
        assert theta_stated.value != _rule(THETA, n).T


def test_variant_accepts_strings():
    assert c4_closed_T(1, "derived") == 404
    assert isinstance(theta_closed_T(1, "stated"), Rational)


def test_exact_div_guards():
    assert _exact_div(10, 5) == 2
    with pytest.raises(ArithmeticError):
        _exact_div(10, 4)

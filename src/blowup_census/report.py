"""Cross-verification reports.

For each blow-up level this builds the graph (when it fits under the vertex
cap), counts non-edges and induced 4-cycles by every affordable method,
evaluates all formulas in both variants, and records one explicit match flag
per comparison.  A value skipped because of a cap is marked "skipped: cap";
a skip is never conflated with a match.

Exit-status contract (see ``VerificationReport.passed``): disagreement in
any comparison backed by the graph oracle or the derived-variant formulas is
a failure; a stated-variant mismatch is an expected finding and does not
fail the run.
"""

from __future__ import annotations

import json
import os
import platform
import re
import time
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from math import comb
from typing import Any

import numpy as np

from ._version import __version__
from .counting import (
    DEFAULT_SUBSET_CAP,
    count_induced_c4_diagonal,
    count_induced_c4_enum,
)
from .formulas import (
    FORMULAS,
    LevelCounts,
    Rational,
    TermBreakdown,
    Variant,
    base_invariants,
    blowup_levels,
)
from .graphs import DEFAULT_VERTEX_CAP, BlowupSpec, Family, Graph, compose

__all__ = [
    "SKIPPED_CAP",
    "SKIPPED_NOT_REQUESTED",
    "Finding",
    "LevelRecord",
    "RunConfig",
    "VerificationReport",
    "build_report",
    "render_summary",
]

SKIPPED_CAP = "skipped: cap"
SKIPPED_NOT_REQUESTED = "skipped: not requested"

_RATIONAL_RE = re.compile(r"-?\d+/\d+")


@dataclass(frozen=True)
class RunConfig:
    family: Family
    max_level: int
    methods: tuple[str, ...] = ("enum", "diagonal")
    vertex_cap: int = DEFAULT_VERTEX_CAP
    subset_cap: int = DEFAULT_SUBSET_CAP
    workers: int = 1
    input_path: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "family", Family(self.family))
        object.__setattr__(self, "methods", tuple(self.methods))
        if self.max_level < 0:
            raise ValueError("max_level must be nonnegative")
        if self.vertex_cap <= 0 or self.subset_cap <= 0:
            raise ValueError("caps must be positive")


@dataclass
class Finding:
    level: int
    comparison: str
    observed: str
    expected: str
    note: str


@dataclass
class LevelRecord:
    N: int
    vertices: int
    edges: int | str
    non_edges_graph: int | str
    non_edges_formula: int | None
    T_enum: int | str | None
    T_diagonal: int | str | None
    T_recurrence: int | None
    T_closed_stated: int | Rational | None
    T_closed_derived: int | Rational | None
    breakdown: TermBreakdown | None
    match_flags: dict[str, bool | str] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)
    work: dict[str, dict[str, int]] = field(default_factory=dict)


@dataclass
class VerificationReport:
    family: str
    config: RunConfig
    levels: list[LevelRecord]
    findings: list[Finding]
    meta: dict[str, Any]

    @property
    def passed(self) -> bool:
        """True iff no oracle-backed comparison failed (stated-variant
        mismatches are findings, not failures)."""
        for rec in self.levels:
            for key, flag in rec.match_flags.items():
                if flag is False and not key.startswith("closed_stated"):
                    return False
        return True

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "family": self.family,
            "config": _encode_config(self.config),
            "levels": [_encode_level(rec) for rec in self.levels],
            "findings": [asdict(f) for f in self.findings],
            "meta": dict(self.meta),
        }

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)

    @classmethod
    def from_json_dict(cls, d: dict[str, Any]) -> "VerificationReport":
        return cls(
            family=d["family"],
            config=_decode_config(d["config"]),
            levels=[_decode_level(rec) for rec in d["levels"]],
            findings=[Finding(**f) for f in d["findings"]],
            meta=dict(d["meta"]),
        )

    @classmethod
    def from_json(cls, text: str) -> "VerificationReport":
        return cls.from_json_dict(json.loads(text))

    def comparable_dict(self) -> dict[str, Any]:
        """The deterministic substance: everything except timings, work
        counters and meta."""
        d = self.to_json_dict()
        d.pop("meta")
        for rec in d["levels"]:
            rec.pop("timings")
            rec.pop("work")
        return d


def _encode_value(v: Any) -> Any:
    if isinstance(v, Rational):
        return str(v)
    return v


def _decode_value(v: Any) -> Any:
    if isinstance(v, str) and _RATIONAL_RE.fullmatch(v):
        num, den = v.split("/")
        return Rational(int(num), int(den))
    return v


def _encode_level(rec: LevelRecord) -> dict[str, Any]:
    return {
        "N": rec.N,
        "vertices": rec.vertices,
        "edges": rec.edges,
        "non_edges_graph": rec.non_edges_graph,
        "non_edges_formula": rec.non_edges_formula,
        "T_enum": rec.T_enum,
        "T_diagonal": rec.T_diagonal,
        "T_recurrence": rec.T_recurrence,
        "T_closed_stated": _encode_value(rec.T_closed_stated),
        "T_closed_derived": _encode_value(rec.T_closed_derived),
        "breakdown": None if rec.breakdown is None else asdict(rec.breakdown),
        "match_flags": dict(rec.match_flags),
        "timings": dict(rec.timings),
        "work": {method: dict(counts) for method, counts in rec.work.items()},
    }


def _decode_level(d: dict[str, Any]) -> LevelRecord:
    breakdown = d["breakdown"]
    return LevelRecord(
        N=d["N"],
        vertices=d["vertices"],
        edges=d["edges"],
        non_edges_graph=d["non_edges_graph"],
        non_edges_formula=d["non_edges_formula"],
        T_enum=d["T_enum"],
        T_diagonal=d["T_diagonal"],
        T_recurrence=d["T_recurrence"],
        T_closed_stated=_decode_value(d["T_closed_stated"]),
        T_closed_derived=_decode_value(d["T_closed_derived"]),
        breakdown=None if breakdown is None else TermBreakdown(**breakdown),
        match_flags=dict(d["match_flags"]),
        timings=dict(d["timings"]),
        # reports written before work counters existed have none
        work={method: dict(counts) for method, counts in d.get("work", {}).items()},
    )


def _encode_config(cfg: RunConfig) -> dict[str, Any]:
    return {
        "family": cfg.family.value,
        "max_level": cfg.max_level,
        "methods": list(cfg.methods),
        "vertex_cap": cfg.vertex_cap,
        "subset_cap": cfg.subset_cap,
        "workers": cfg.workers,
        "input_path": cfg.input_path,
    }


def _decode_config(d: dict[str, Any]) -> RunConfig:
    return RunConfig(
        family=Family(d["family"]),
        max_level=d["max_level"],
        methods=tuple(d["methods"]),
        vertex_cap=d["vertex_cap"],
        subset_cap=d["subset_cap"],
        workers=d["workers"],
        input_path=d["input_path"],
    )


# ---------------------------------------------------------------------------
# Report construction
# ---------------------------------------------------------------------------


def _compare(a: Any, b: Any) -> bool | str:
    """Match flag for two values; a skip marker on either side propagates."""
    if isinstance(a, str):
        return a
    if isinstance(b, str):
        return b
    return a == b


def _closed_matches(closed: int | Rational, reference: int) -> bool:
    if isinstance(closed, Rational):
        return False
    return closed == reference


def _build_level(
    spec: BlowupSpec, below: Graph | None, config: RunConfig, rules: list[LevelCounts], findings: list[Finding]
) -> tuple[LevelRecord, Graph | None]:
    """One level's record and graph (None over the vertex cap): the base
    composed with ``below``, the graph of the level under it.  ``rules``, the
    counts of every level by the composition rule, is filled at level 0 from
    the base's own counts there, so each counter runs once on the base."""
    bundle = FORMULAS.get(spec.family.value)
    order = spec.total_order
    timings: dict[str, float] = {}
    work: dict[str, dict[str, int]] = {}
    n = spec.level

    if bundle is not None:
        t0 = time.perf_counter()
        stated = bundle.closed_T(n, Variant.STATED)
        derived = bundle.closed_T(n, Variant.DERIVED)
        timings["formulas"] = time.perf_counter() - t0
    else:
        stated = derived = None

    graph: Graph | None = None
    if order <= config.vertex_cap:
        t0 = time.perf_counter()
        graph = spec.base if n == 0 else compose(spec.base, below)
        timings["build"] = time.perf_counter() - t0

    t_enum: int | str
    if "enum" not in config.methods:
        t_enum = SKIPPED_NOT_REQUESTED
    elif graph is None or comb(order, 4) > config.subset_cap:
        t_enum = SKIPPED_CAP
    else:
        result = count_induced_c4_enum(
            graph, subset_cap=config.subset_cap, workers=config.workers
        )
        t_enum = result.value
        timings["enum"] = result.elapsed
        work["enum"] = result.work

    t_diag: int | str
    if "diagonal" not in config.methods:
        t_diag = SKIPPED_NOT_REQUESTED
    elif graph is None:
        t_diag = SKIPPED_CAP
    else:
        result = count_induced_c4_diagonal(graph)
        t_diag = result.value
        timings["diagonal"] = result.elapsed
        work["diagonal"] = result.work

    if not rules:
        base_T = next((t for t in (t_enum, t_diag) if isinstance(t, int)), None)
        rules.extend(blowup_levels(base_invariants(spec.base, base_T), config.max_level))
    rule = rules[n]
    ne_graph: int | str = SKIPPED_CAP if graph is None else graph.non_edge_count
    edges: int | str = rule.edges if graph is None else graph.edge_count

    comparisons: dict[str, tuple[Any, Any, str]] = {
        "enum_vs_diagonal": (t_enum, t_diag, "internal counter disagreement"),
        "non_edges_formula_vs_graph": (
            ne_graph,
            rule.m,
            "non-edge count of the composition rule disagrees with the constructed graph",
        ),
        "edges_formula_vs_graph": (
            edges if graph is not None else SKIPPED_CAP,
            rule.edges,
            "edge count of the composition rule disagrees with the constructed graph",
        ),
        "enum_vs_recurrence": (
            t_enum,
            rule.T,
            "enumeration count disagrees with the recurrence",
        ),
        "diagonal_vs_recurrence": (
            t_diag,
            rule.T,
            "diagonal count disagrees with the recurrence",
        ),
    }
    if bundle is not None:
        comparisons["closed_derived_vs_recurrence"] = (
            derived,
            rule.T,
            "derived-variant closed form disagrees with the recurrence",
        )
        comparisons["closed_stated_vs_recurrence"] = (stated, rule.T, _stated_note(stated))

    flags: dict[str, bool | str] = {}
    for key, (observed, expected, note) in comparisons.items():
        if key.startswith("closed_"):
            flags[key] = _closed_matches(observed, expected)
        else:
            flags[key] = _compare(observed, expected)
        if flags[key] is False:
            findings.append(Finding(n, key, str(observed), str(expected), note))

    return LevelRecord(
        N=n,
        vertices=order,
        edges=edges,
        non_edges_graph=ne_graph,
        non_edges_formula=rule.m,
        T_enum=t_enum,
        T_diagonal=t_diag,
        T_recurrence=rule.T,
        T_closed_stated=stated,
        T_closed_derived=derived,
        breakdown=rule.breakdown,
        match_flags=flags,
        timings=timings,
        work=work,
    ), graph


def _stated_note(stated: int | Rational) -> str:
    note = "stated-variant closed form disagrees with the recurrence oracle"
    quals = []
    if isinstance(stated, Rational):
        quals.append("non-integer")
        if stated.value < 0:
            quals.append("negative")
    if quals:
        note += f" ({', '.join(quals)})"
    return note


def _blas_meta() -> dict[str, str | None]:
    """Name and version of the BLAS numpy was built against, from its build
    configuration; None where the build does not record them."""
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"blas": blas.get("name"), "blas_version": blas.get("version")}


def build_report(config: RunConfig, custom_base: Graph | None = None) -> VerificationReport:
    """Run the full verification pipeline described by ``config``."""
    if config.family is Family.CUSTOM and custom_base is None:
        raise ValueError("custom family requires a base graph")
    base = custom_base if config.family is Family.CUSTOM else None
    findings: list[Finding] = []
    rules: list[LevelCounts] = []
    levels: list[LevelRecord] = []
    graph: Graph | None = None
    for n in range(config.max_level + 1):
        record, graph = _build_level(BlowupSpec(config.family, n, base), graph, config, rules, findings)
        levels.append(record)
    meta = {
        "tool": "blowup-census",
        "version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        **_blas_meta(),
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    return VerificationReport(
        family=config.family.value,
        config=config,
        levels=levels,
        findings=findings,
        meta=meta,
    )


# ---------------------------------------------------------------------------
# Human-readable summary
# ---------------------------------------------------------------------------


def _flag_cell(flag: bool | str, *, finding_only: bool = False) -> str:
    if flag is True:
        return "ok"
    if flag is False:
        return "differs" if finding_only else "FAIL"
    return "skip"


def render_summary(report: VerificationReport) -> str:
    headers = [
        "N",
        "vertices",
        "edges",
        "nonedges",
        "T_enum",
        "T_diag",
        "T_rec",
        "derived",
        "stated",
    ]
    rows = [headers]
    for rec in report.levels:
        rows.append(
            [
                str(rec.N),
                str(rec.vertices),
                str(rec.edges),
                str(rec.non_edges_graph),
                str(rec.T_enum),
                str(rec.T_diagonal),
                str(rec.T_recurrence),
                _flag_cell(rec.match_flags.get("closed_derived_vs_recurrence", "-")),
                _flag_cell(
                    rec.match_flags.get("closed_stated_vs_recurrence", "-"),
                    finding_only=True,
                ),
            ]
        )
    widths = [max(len(r[i]) for r in rows) for i in range(len(headers))]
    lines = [f"family={report.family}  levels=0..{report.config.max_level}"]
    for r in rows:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(r, widths)))
    fails = [
        (rec.N, key)
        for rec in report.levels
        for key, flag in rec.match_flags.items()
        if flag is False and not key.startswith("closed_stated")
    ]
    if report.findings:
        lines.append("findings:")
        for f in report.findings:
            lines.append(
                f"  level {f.level}: {f.comparison}: {f.observed} != {f.expected} ({f.note})"
            )
    lines.append("result: " + ("PASS" if report.passed else f"FAIL {fails}"))
    return "\n".join(lines)

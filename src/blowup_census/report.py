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
import time
from dataclasses import dataclass, fields, is_dataclass
from datetime import datetime, timezone
from enum import Enum
from typing import Any

import numpy as np

from ._version import __version__
from .counting import (
    DEFAULT_SUBSET_CAP,
    Method,
    SubsetCapExceeded,
    count_induced_c4,
)
from .formulas import (
    FORMULA_LEVEL_CAP,
    FORMULAS,
    LevelCounts,
    Rational,
    TermBreakdown,
    Variant,
    base_invariants,
    blowup_levels,
)
from .graphs import DEFAULT_VERTEX_CAP, Family, Graph, VertexCapExceeded, _check_order, base_graph, compose

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


@dataclass(frozen=True)
class RunConfig:
    family: Family
    max_level: int
    methods: tuple[Method, ...] = (Method.ENUMERATION, Method.DIAGONAL)
    vertex_cap: int = DEFAULT_VERTEX_CAP
    subset_cap: int = DEFAULT_SUBSET_CAP
    input_path: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "family", Family(self.family))
        # Method() refuses a name that is not a counter's
        object.__setattr__(self, "methods", tuple(Method(m) for m in self.methods))
        if not self.methods:
            raise ValueError("methods must name at least one counter")
        if not 0 <= self.max_level <= FORMULA_LEVEL_CAP:
            raise ValueError(f"max_level must be in 0..{FORMULA_LEVEL_CAP}, got {self.max_level}")
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
    edges: int
    non_edges_graph: int | str
    non_edges_formula: int
    T_enum: int | str
    T_diagonal: int | str
    T_recurrence: int
    T_closed_stated: int | Rational | None
    T_closed_derived: int | Rational | None
    breakdown: TermBreakdown
    match_flags: dict[str, bool | str]
    timings: dict[str, float]
    work: dict[str, dict[str, int]]


@dataclass
class VerificationReport:
    family: str
    config: RunConfig
    levels: list[LevelRecord]
    findings: list[Finding]
    meta: dict[str, Any]

    def failures(self) -> list[tuple[int, str]]:
        """(level, comparison) of every oracle-backed comparison that failed;
        stated-variant mismatches are findings, not failures."""
        return [
            (rec.N, key)
            for rec in self.levels
            for key, flag in rec.match_flags.items()
            if flag is False and not key.startswith("closed_stated")
        ]

    @property
    def passed(self) -> bool:
        """True iff ``failures()`` is empty."""
        return not self.failures()

    # -- serialization ------------------------------------------------------
    # The JSON layout is the field order of the dataclasses above.

    def to_json_dict(self) -> dict[str, Any]:
        return _plain(self)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    def comparable_dict(self) -> dict[str, Any]:
        """The deterministic substance: everything except timings, work
        counters and meta."""
        d = self.to_json_dict()
        d.pop("meta")
        for rec in d["levels"]:
            rec.pop("timings")
            rec.pop("work")
        return d


def _plain(v: Any) -> Any:
    """``v`` as JSON values: dataclasses by their fields in order, a
    Rational as "p/q", an enum as its value, a tuple as a list."""
    if isinstance(v, Rational):
        return str(v)
    if is_dataclass(v):
        return {f.name: _plain(getattr(v, f.name)) for f in fields(v)}
    if isinstance(v, Enum):
        return v.value
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    if isinstance(v, dict):
        return {k: _plain(x) for k, x in v.items()}
    return v


# ---------------------------------------------------------------------------
# Report construction
# ---------------------------------------------------------------------------


def _compare(a: Any, b: Any) -> bool | str:
    """Match flag for two values; a skip marker on either side propagates.
    A non-integer closed form, a Rational, never equals an integer count."""
    if isinstance(a, str):
        return a
    if isinstance(b, str):
        return b
    return a == b


def _build_level(
    base: Graph, n: int, below: Graph | None, config: RunConfig, rules: list[LevelCounts], findings: list[Finding]
) -> tuple[LevelRecord, Graph | None]:
    """Level ``n``'s record and graph (None over the vertex cap or physical
    memory): ``base`` composed with ``below``, the graph of the level under
    it.  ``rules``, the counts of every level by the composition rule, is
    filled at level 0 from the base's own counts there, so each counter runs
    once on the base."""
    bundle = FORMULAS.get(config.family.value)
    order = base.n ** (n + 1)
    timings: dict[str, float] = {}
    work: dict[str, dict[str, int]] = {}

    if bundle is not None:
        t0 = time.perf_counter()
        stated = bundle.closed_T(n, Variant.STATED)
        derived = bundle.closed_T(n, Variant.DERIVED)
        timings["formulas"] = time.perf_counter() - t0
    else:
        stated = derived = None

    graph: Graph | None = None
    try:
        _check_order(f"level {n}", order, config.vertex_cap)
    except VertexCapExceeded:
        pass
    else:
        t0 = time.perf_counter()
        graph = base if n == 0 else compose(base, below)
        timings["build"] = time.perf_counter() - t0

    counts: list[int | str] = []
    for method in Method:
        if method not in config.methods:
            counts.append(SKIPPED_NOT_REQUESTED)
        elif graph is None:
            counts.append(SKIPPED_CAP)
        else:
            try:
                result = count_induced_c4(graph, method, subset_cap=config.subset_cap)
            except (SubsetCapExceeded, VertexCapExceeded):
                counts.append(SKIPPED_CAP)
                continue
            counts.append(result.value)
            timings[method.value] = result.elapsed
            work[method.value] = result.work
    t_enum, t_diag = counts

    if not rules:
        base_T = next((t for t in counts if isinstance(t, int)), None)
        rules.extend(blowup_levels(base_invariants(base, base_T), config.max_level))
    rule = rules[n]
    ne_graph: int | str = SKIPPED_CAP if graph is None else graph.non_edge_count
    edges = rule.edges if graph is None else graph.edge_count

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


# The environment variables that set the BLAS thread count, by library.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_meta() -> dict[str, Any]:
    """Name and version of the BLAS numpy was built against, from its build
    configuration (None where the build does not record them), and the
    thread settings in the environment (None where unset)."""
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": {name: os.environ.get(name) for name in _BLAS_THREAD_VARIABLES},
    }


def usable_cores() -> int:
    """The cores this process may run on: its affinity mask where the
    platform has one, else the machine's core count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def build_report(config: RunConfig, custom_base: Graph | None = None) -> VerificationReport:
    """Run the full verification pipeline described by ``config``."""
    base = base_graph(config.family, custom_base)
    findings: list[Finding] = []
    rules: list[LevelCounts] = []
    levels: list[LevelRecord] = []
    graph: Graph | None = None
    for n in range(config.max_level + 1):
        record, graph = _build_level(base, n, graph, config, rules, findings)
        levels.append(record)
    meta = {
        "tool": "blowup-census",
        "version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "usable_cores": usable_cores(),
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


def _flag_cell(flag: bool | None, *, finding_only: bool = False) -> str:
    """A closed form's match flag as a cell; "-" for a base without one."""
    if flag is None:
        return "-"
    if flag:
        return "ok"
    return "differs" if finding_only else "FAIL"


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
                _flag_cell(rec.match_flags.get("closed_derived_vs_recurrence")),
                _flag_cell(
                    rec.match_flags.get("closed_stated_vs_recurrence"),
                    finding_only=True,
                ),
            ]
        )
    widths = [max(len(r[i]) for r in rows) for i in range(len(headers))]
    lines = [f"family={report.family}  levels=0..{report.config.max_level}"]
    for r in rows:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(r, widths)))
    if report.findings:
        lines.append("findings:")
        for f in report.findings:
            lines.append(
                f"  level {f.level}: {f.comparison}: {f.observed} != {f.expected} ({f.note})"
            )
    fails = report.failures()
    lines.append("result: " + (f"FAIL {fails}" if fails else "PASS"))
    return "\n".join(lines)

"""Report construction, JSON encoding, determinism, and skip markers."""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

from blowup_census import (
    SKIPPED_CAP,
    SKIPPED_NOT_REQUESTED,
    Family,
    Graph,
    GraphFormatError,
    Rational,
    RunConfig,
    TermBreakdown,
    build_report,
    cycle_graph,
    render_summary,
)
from blowup_census.report import usable_cores
from helpers import empty_graph


def _config(**overrides) -> RunConfig:
    base = dict(family=Family.C4, max_level=1)
    base.update(overrides)
    return RunConfig(**base)


def test_c4_report_flags_and_findings():
    report = build_report(_config())
    assert report.family == "c4"
    assert len(report.levels) == 2
    for rec in report.levels:
        flags = rec.match_flags
        assert flags["enum_vs_diagonal"] is True
        assert flags["non_edges_formula_vs_graph"] is True
        assert flags["edges_formula_vs_graph"] is True
        assert flags["enum_vs_recurrence"] is True
        assert flags["diagonal_vs_recurrence"] is True
        assert flags["closed_derived_vs_recurrence"] is True
        assert flags["closed_stated_vs_recurrence"] is False
    # the stated mismatch is a finding, not a failure
    assert report.passed
    assert [f.level for f in report.findings] == [0, 1]
    assert all(f.comparison == "closed_stated_vs_recurrence" for f in report.findings)
    assert "non-integer" in report.findings[0].note


def test_level_record_values():
    report = build_report(_config())
    rec = report.levels[1]
    assert rec.vertices == 16
    assert rec.edges == 80
    assert rec.non_edges_graph == rec.non_edges_formula == 40
    assert rec.T_enum == rec.T_diagonal == rec.T_recurrence == 404
    assert rec.T_closed_derived == 404
    assert isinstance(rec.T_closed_stated, Rational)
    assert rec.breakdown.total == 404
    assert set(rec.timings) == {"formulas", "build", "enum", "diagonal"}


def test_theta_report_passes():
    report = build_report(RunConfig(family=Family.THETA222, max_level=1))
    assert report.passed
    assert report.levels[1].T_recurrence == 2886


def test_json_text_is_the_json_dict():
    report = build_report(_config())
    text = report.to_json()
    assert json.loads(text) == report.to_json_dict()
    # valid JSON with the documented top level, indented by two spaces
    assert sorted(json.loads(text)) == ["config", "family", "findings", "levels", "meta"]
    assert text.startswith('{\n  "family": "c4",\n  "config": {\n    "family": "c4",')


def test_json_layout_is_frozen():
    # the key order is the dataclass field order; the text was written by an
    # earlier encoder that listed every key by hand
    golden = Path(__file__).with_name("data") / "verify_c4_max_level_2.json"
    report = build_report(_config(max_level=2))
    assert json.dumps(report.comparable_dict(), indent=2) + "\n" == golden.read_text()
    d = json.loads(report.to_json())
    assert d == report.to_json_dict()
    # a non-integer closed form is written as its exact "p/q"
    assert [type(rec.T_closed_stated) for rec in report.levels] == [Rational] * 3
    assert [rec["T_closed_stated"] for rec in d["levels"]] == [str(rec.T_closed_stated) for rec in report.levels]


def test_meta_contents():
    report = build_report(_config(max_level=0))
    assert report.meta["tool"] == "blowup-census"
    assert "version" in report.meta and "python" in report.meta
    # RFC 3339: date, 'T', time, explicit offset
    assert "T" in report.meta["timestamp"]
    assert report.meta["timestamp"].endswith("+00:00")


def test_meta_records_cores_and_blas(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
    report = build_report(_config(max_level=0))
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    assert report.meta["cpu_count"] == os.cpu_count()
    assert report.meta["usable_cores"] == 2  # the affinity mask, not the core count
    assert report.meta["blas"] == blas["name"]
    assert report.meta["blas_version"] == blas["version"]
    assert report.meta["blas_threads"] == {
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "2",
        "MKL_NUM_THREADS": None,
    }
    assert json.loads(report.to_json())["meta"] == report.to_json_dict()["meta"] == report.meta
    assert json.loads(report.to_json())["meta"]["blas_threads"]["MKL_NUM_THREADS"] is None
    # the environment is not part of the substance two runs are compared by
    other = build_report(_config(max_level=0))
    other.meta.update(cpu_count=-1, usable_cores=-1, blas="other", blas_version="0", blas_threads={})
    assert other.comparable_dict() == report.comparable_dict()
    assert "cpu_count" not in json.dumps(report.comparable_dict())
    assert "OPENBLAS_NUM_THREADS" not in json.dumps(report.comparable_dict())
    # without an affinity mask, the machine's core count, and 1 if unknown
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert usable_cores() == 8
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert usable_cores() == 1


def test_work_counters_outside_the_substance():
    report = build_report(_config())
    # c4 L1: 8 classes of 2 false twins; each class is multiplied against its
    # own row and, in copies 0 and 1, against the two classes of the copy
    # opposite, which share one common neighbourhood (copies 1 and 3 or 0
    # and 2), so those 8 rows merge into 4; all 16 rows are one window and
    # one pass on the union of the neighbourhoods, all 8 classes.  Its
    # bytes are the stack's estimate: the quotient's 9 * (25 * 8 + 192),
    # packed rows of one word; the 12 merged rows held, 24 bytes each; the
    # union's 9 columns (the class of ones among them), 9 * (16 * 8 + 5 *
    # 9 + 8); and the 12 rows on them, 12 * (2 * 8 + 10 * 9 + 40).  The
    # scan's bytes are 8 KiB for numpy's buffers, its adjacency in bool and
    # float32, 5 * 16**2, and its one run of products, c = 2..14 on 15 rows
    # and 13 columns a c: 4 * (15**2 + 15 * 13 + 2 * 15 * 13 * 13) + 128 *
    # 13 * (15 + 13)
    assert report.levels[1].work == {
        "enum": {
            "subsets": 1820,
            "passes": 1,
            "bytes": 8192 + 5 * 16**2 + 4 * (15**2 + 15 * 13 + 2 * 15 * 13 * 13) + 128 * 13 * (15 + 13),
        },
        "diagonal": {
            "neighbourhoods": 8,
            "rows": 16,
            "distinct": 12,
            "columns": 8,
            "passes": 1,
            "bytes": 3528 + 12 * 24 + 9 * (16 * 8 + 5 * 9 + 8) + 12 * (2 * 8 + 10 * 9 + 40),
        },
    }
    assert [rec["work"] for rec in json.loads(report.to_json())["levels"]] == [rec.work for rec in report.levels]
    other = build_report(_config())
    other.levels[1].work["diagonal"]["rows"] = -1
    assert other.comparable_dict() == report.comparable_dict()
    assert "neighbourhoods" not in json.dumps(report.comparable_dict())


def test_determinism_modulo_timings():
    a = build_report(_config())
    b = build_report(_config())
    assert a.comparable_dict() == b.comparable_dict()


def test_subset_cap_marks_skipped():
    report = build_report(_config(subset_cap=100))
    rec = report.levels[1]  # C(16, 4) = 1820 > 100
    assert rec.T_enum == SKIPPED_CAP
    assert set(rec.work) == {"diagonal"}
    assert rec.match_flags["enum_vs_diagonal"] == SKIPPED_CAP
    assert rec.match_flags["enum_vs_recurrence"] == SKIPPED_CAP
    # the diagonal side still ran and still verifies
    assert rec.T_diagonal == 404
    assert rec.match_flags["diagonal_vs_recurrence"] is True
    assert report.passed


def test_vertex_cap_marks_whole_level_skipped():
    report = build_report(_config(vertex_cap=10))
    rec = report.levels[1]
    assert rec.non_edges_graph == SKIPPED_CAP
    assert rec.T_enum == SKIPPED_CAP
    assert rec.T_diagonal == SKIPPED_CAP
    # formulas still evaluate; edges falls back to the composition rule
    assert rec.non_edges_formula == 40
    assert rec.edges == 80
    assert rec.match_flags["edges_formula_vs_graph"] == SKIPPED_CAP
    assert report.passed


def test_methods_not_requested_marker():
    report = build_report(_config(methods=("diagonal",)))
    rec = report.levels[0]
    assert rec.T_enum == SKIPPED_NOT_REQUESTED
    assert rec.T_diagonal == 1
    assert rec.match_flags["enum_vs_recurrence"] == SKIPPED_NOT_REQUESTED


_RULE_FLAGS = {
    "enum_vs_diagonal",
    "non_edges_formula_vs_graph",
    "edges_formula_vs_graph",
    "enum_vs_recurrence",
    "diagonal_vs_recurrence",
}


def test_custom_family_report():
    # P3 has (n, m, T, e, P) = (3, 1, 0, 2, 1): P3[P3] has 1*1*9 + 2*1 = 11
    # induced 4-cycles
    base = Graph.from_edges(3, [(0, 1), (1, 2)])
    config = RunConfig(family=Family.CUSTOM, max_level=1, input_path="p3.edges")
    report = build_report(config, custom_base=base)
    assert report.passed
    assert report.findings == []
    rec = report.levels[1]
    assert rec.vertices == 9
    assert rec.non_edges_graph == rec.non_edges_formula == 12
    assert rec.T_enum == rec.T_diagonal == rec.T_recurrence == 11
    assert rec.breakdown == TermBreakdown(0, 0, 9, 2)
    # no hand-typed closed form exists for a custom base; the summary shows
    # "-" for it, since a skip would mean a cap
    assert rec.T_closed_stated is None and rec.T_closed_derived is None
    rows = render_summary(report).splitlines()[2:-1]
    assert [row.split()[-2:] for row in rows] == [["-", "-"], ["-", "-"]]
    for level in report.levels:
        assert set(level.match_flags) == _RULE_FLAGS
        assert all(flag is True for flag in level.match_flags.values())
    assert json.loads(report.to_json()) == report.to_json_dict()


def test_custom_family_over_vertex_cap_uses_the_rule():
    base = Graph.from_edges(3, [(0, 1), (1, 2)])
    config = RunConfig(family=Family.CUSTOM, max_level=2, vertex_cap=9)
    report = build_report(config, custom_base=base)
    assert report.passed
    rec = report.levels[2]  # 27 vertices > 9
    assert rec.non_edges_graph == rec.T_enum == rec.T_diagonal == SKIPPED_CAP
    # m_2 = 3*12 + 1*81 and edges C(27, 2) - m_2, from the rule
    assert rec.non_edges_formula == 117
    assert rec.edges == 234
    assert rec.T_recurrence == 1293
    assert set(rec.match_flags) == _RULE_FLAGS
    assert all(flag == SKIPPED_CAP for flag in rec.match_flags.values())


def test_custom_family_requires_base():
    with pytest.raises(GraphFormatError, match="requires a base graph"):
        build_report(RunConfig(family=Family.CUSTOM, max_level=0))
    with pytest.raises(GraphFormatError, match="at least one vertex"):
        build_report(RunConfig(family=Family.CUSTOM, max_level=0), custom_base=empty_graph(0))
    with pytest.raises(GraphFormatError, match="fixed base graph"):
        build_report(_config(), custom_base=cycle_graph(4))


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(family=Family.C4, max_level=-1)
    # level 1800's counts have more digits than Python converts to str
    with pytest.raises(ValueError, match="max_level must be in 0..30, got 1800"):
        RunConfig(family=Family.C4, max_level=1800, vertex_cap=300)
    with pytest.raises(ValueError):
        RunConfig(family=Family.C4, max_level=0, vertex_cap=0)
    # a report with no counter, or a misspelt one, would pass unchecked
    with pytest.raises(ValueError):
        RunConfig(family=Family.C4, max_level=1, methods=())
    with pytest.raises(ValueError):
        RunConfig(family=Family.C4, max_level=1, methods=("enumeration",))


def test_render_summary_mentions_findings_and_result():
    report = build_report(_config(max_level=0))
    text = render_summary(report)
    assert "result: PASS" in text
    assert "closed_stated_vs_recurrence" in text
    assert "10752/5670" in text


def _spy(monkeypatch, module, name: str, calls: list[str]) -> None:
    original = getattr(module, name)

    def spy(*args, **kwargs):
        result = original(*args, **kwargs)
        # a call the counter refuses (SubsetCapExceeded) counts nothing
        calls.append(name)
        return result

    monkeypatch.setattr(module, name, spy)


def _spy_on_builds_and_counts(monkeypatch) -> list[str]:
    from blowup_census import counting, formulas, report

    calls: list[str] = []
    for module, name in [
        (report, "compose"),
        (counting, "count_induced_c4_enum"),
        (counting, "count_induced_c4_diagonal"),
        (formulas, "count_induced_c4_diagonal"),
    ]:
        _spy(monkeypatch, module, name, calls)
    return calls


def test_each_level_is_composed_once_and_counted_once(monkeypatch):
    # level N is the base composed with level N - 1, and the base's count
    # for the rule is level 0's enumeration count, not a count of its own
    calls = _spy_on_builds_and_counts(monkeypatch)
    report = build_report(_config(max_level=3))
    assert calls.count("compose") == 3
    assert calls.count("count_induced_c4_enum") == calls.count("count_induced_c4_diagonal") == 4
    assert report.passed
    assert [rec.T_enum for rec in report.levels] == [1, 404, 114512, 30051648]
    assert [set(rec.timings) >= {"build", "enum", "diagonal"} for rec in report.levels] == [True] * 4


def test_base_count_falls_back_to_the_diagonal_counter(monkeypatch):
    # C(8, 4) = 70 subsets exceed the cap: the rule takes the base's count
    # from level 0's diagonal count, and level 0 still agrees with the rule
    # at every level checked
    base = Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4), (0, 4)])
    calls = _spy_on_builds_and_counts(monkeypatch)
    report = build_report(_config(family=Family.CUSTOM, subset_cap=69), custom_base=base)
    assert calls.count("count_induced_c4_enum") == 0
    assert calls.count("count_induced_c4_diagonal") == 2
    assert report.passed
    assert [rec.T_enum for rec in report.levels] == [SKIPPED_CAP] * 2
    assert report.levels[0].T_diagonal == report.levels[0].T_recurrence == 2


def test_refused_enumeration_alone_leaves_the_base_to_the_diagonal_counter(monkeypatch):
    # only enumeration is requested and the subset cap refuses it at level 0,
    # so the rule counts the base with the diagonal counter, not with an
    # enumeration beyond --subset-cap
    base = Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4), (0, 4)])
    calls = _spy_on_builds_and_counts(monkeypatch)
    config = _config(family=Family.CUSTOM, methods=("enum",), subset_cap=69)
    report = build_report(config, custom_base=base)
    assert calls.count("count_induced_c4_enum") == 0
    assert calls.count("count_induced_c4_diagonal") == 1
    assert [rec.T_enum for rec in report.levels] == [SKIPPED_CAP] * 2
    assert [rec.T_diagonal for rec in report.levels] == [SKIPPED_NOT_REQUESTED] * 2
    assert report.levels[0].T_recurrence == 2
    assert [set(rec.timings) & {"enum", "diagonal"} for rec in report.levels] == [set()] * 2

"""In-memory spans around the package's public calls, and the per-layer
metrics derived from them.

A span records name, start, end, parent span and the id of the operation it
belongs to.  Probe spans re-run a piece of work on a built graph (``Graph``
validation, ``non_edges`` listing) to measure it on its own; their time is
removed from every enclosing span, so probes never inflate the layers they
sit inside.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from math import comb


class Recorder:
    """Collects spans in memory; the caller writes them out at the end."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.op = ""
        self._open: list[dict] = []

    @contextmanager
    def span(self, name: str, *, probe: bool = False):
        rec = {
            "id": len(self.spans),
            "name": name,
            "op": self.op,
            "parent": self._open[-1]["id"] if self._open else None,
            "probe": probe,
            "probe_s": 0.0,
            "counts": {},
        }
        self.spans.append(rec)
        self._open.append(rec)
        cpu = time.process_time()
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            rec["cpu_s"] = time.process_time() - cpu
            self._open.pop()
            if probe:
                for outer in self._open:
                    outer["probe_s"] += rec["end"] - rec["start"]

    def probe_total(self) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["probe"])


def install(rec: Recorder) -> None:
    """Replace the package's public calls by span-recording wrappers.

    Every module that imported a function by name gets the same wrapper, so
    calls made inside the package (``report`` calling ``nested_blowup``,
    ``nested_blowup`` calling ``compose``) are recorded too.
    """
    import blowup_census
    from blowup_census import cli, counting, graphs, report

    def after_compose(span, out, args):
        span["counts"]["vertices"] = out.n
        with rec.span("graphs.validate", probe=True):
            graphs.Graph(out.n, out.rows)

    def after_write(span, out, args):
        span["counts"]["bytes"] = len(out)

    def after_read(span, out, args):
        span["counts"]["bytes"] = len(args[0])
        span["counts"]["edges"] = out.edge_count

    def after_enum(span, out, args):
        n = args[0].n
        span["counts"]["subsets"] = comb(n, 4) if n >= 4 else 0
        span["counts"]["found"] = out.value

    def after_diagonal(span, out, args):
        g = args[0]
        span["counts"]["nonedges"] = g.non_edge_count
        with rec.span("graphs.non_edges", probe=True) as probe:
            probe["counts"]["non_edges"] = sum(1 for _ in graphs.non_edges(g))

    def after_to_json(span, out, args):
        span["counts"]["bytes"] = len(out)

    targets = [
        (graphs, "compose", "graphs.compose", after_compose),
        (graphs, "nested_blowup", "graphs.nested_blowup", None),
        (graphs, "write_edge_list", "graphs.write_edge_list", after_write),
        (graphs, "read_edge_list", "graphs.read_edge_list", after_read),
        (counting, "count_induced_c4_enum", "counting.enum", after_enum),
        (counting, "count_induced_c4_diagonal", "counting.diagonal", after_diagonal),
        (report, "build_report", "report.build_report", None),
    ]
    modules = (blowup_census, graphs, counting, report, cli)
    for home, attr, name, after in targets:
        original = getattr(home, attr)
        wrapper = _wrap(rec, original, name, after)
        for module in modules:
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)
    cls = report.VerificationReport
    cls.to_json = _wrap(rec, cls.to_json, "report.to_json", after_to_json)


def _wrap(rec: Recorder, fn, name: str, after):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with rec.span(name) as span:
            out = fn(*args, **kwargs)
        if after is not None:
            after(span, out, args)
        return out

    return wrapper


# ---------------------------------------------------------------------------
# Derivation
# ---------------------------------------------------------------------------


def _duration(span: dict) -> float:
    """Span time without the probes run inside it."""
    return span["end"] - span["start"] - span["probe_s"]


def check_nesting(spans: list[dict]) -> list[str]:
    """Problems where a child span is not contained in its parent, or the
    children together take longer than the parent."""
    by_id = {s["id"]: s for s in spans}
    child_total: dict[int, float] = {}
    problems = []
    for s in spans:
        if s["parent"] is None:
            continue
        parent = by_id[s["parent"]]
        if s["start"] < parent["start"] or s["end"] > parent["end"]:
            problems.append(f"span {s['name']} lies outside its parent {parent['name']}")
        child_total[parent["id"]] = child_total.get(parent["id"], 0.0) + s["end"] - s["start"]
    for pid, total in child_total.items():
        parent = by_id[pid]
        if total > parent["end"] - parent["start"]:
            problems.append(f"children of {parent['name']} exceed it")
    return problems


def derive(spans: list[dict], reports: list[dict]) -> dict[str, float]:
    """Per-layer metrics for one job, from its spans and the JSON reports it
    produced."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None and not s["probe"]:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + _duration(s)

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name):
        return sum(_duration(s) for s in named(name))

    def self_time(name):
        return sum(_duration(s) - child_time.get(s["id"], 0.0) for s in named(name))

    def count(name, key):
        return sum(s["counts"].get(key, 0) for s in named(name))

    def cpu(name):
        return sum(s["cpu_s"] for s in named(name))

    def ratio(a, b):
        return a / b if b else 0.0

    blowup_s = total("graphs.nested_blowup")
    validate_s = total("graphs.validate")
    read_s = total("graphs.read_edge_list")
    enum_s = total("counting.enum")
    subsets = count("counting.enum", "subsets")
    diagonal_s = total("counting.diagonal")
    nonedges = count("counting.diagonal", "nonedges")
    levels = [rec for r in reports for rec in r["levels"]]
    formula_levels = [rec["timings"]["formulas"] for rec in levels if "formulas" in rec["timings"]]
    return {
        "graphs.nested_blowup_s": blowup_s,
        "graphs.validate_s": validate_s,
        "graphs.compose_self_s": blowup_s - validate_s,
        "graphs.vertices_built": count("graphs.compose", "vertices"),
        "graphs.write_edge_list_s": total("graphs.write_edge_list"),
        "graphs.read_edge_list_s": read_s,
        "graphs.edge_list_bytes": count("graphs.write_edge_list", "bytes")
        + count("graphs.read_edge_list", "bytes"),
        "graphs.read_edges_per_s": ratio(count("graphs.read_edge_list", "edges"), read_s),
        "graphs.non_edges_s": total("graphs.non_edges"),
        "graphs.non_edges": count("graphs.non_edges", "non_edges"),
        "counting.enum_s": enum_s,
        "counting.enum.cpu_s": cpu("counting.enum"),
        "counting.enum.subsets": subsets,
        "counting.enum.subsets_per_s": ratio(subsets, enum_s),
        "counting.enum.refused": sum(1 for rec in levels if rec["T_enum"] == "skipped: cap"),
        "counting.enum.hit_ratio": ratio(count("counting.enum", "found"), subsets),
        "counting.diagonal_s": diagonal_s,
        "counting.diagonal.cpu_s": cpu("counting.diagonal"),
        "counting.diagonal.nonedges": nonedges,
        "counting.diagonal.us_per_nonedge": ratio(diagonal_s * 1e6, nonedges),
        "formulas.sweep_s": sum(formula_levels),
        "formulas.levels": len(formula_levels),
        "report.build_report_s": total("report.build_report"),
        "report.self_s": self_time("report.build_report"),
        "report.to_json_s": total("report.to_json"),
        "report.json_bytes": count("report.to_json", "bytes"),
        "cli.self_s": self_time("cli.main"),
    }

"""Command-line front end.

Subcommands: generate, count, formula, verify, sequence.  Counts and formula
values are exact integers printed in plain decimal (never scientific
notation); non-integer closed-form evaluations print as "p/q".
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from typing import Callable, Sequence

from .counting import DEFAULT_SUBSET_CAP, CountParityError, Method, SubsetCapExceeded, count_induced_c4
from .formulas import FORMULA_LEVEL_CAP, FORMULAS, Rational, Variant, blowup_levels
from .graphs import (
    DEFAULT_VERTEX_CAP,
    Family,
    Graph,
    GraphFormatError,
    VertexCapExceeded,
    _edge_list_chunks,
    base_graph,
    nested_blowup,
    read_edge_list,
)
from .report import RunConfig, build_report, render_summary

__all__ = ["main"]


def _add_cap_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--vertex-cap",
        type=_int_at_least(1),
        default=DEFAULT_VERTEX_CAP,
        help="refuse to build graphs with more vertices than this (default %(default)s)",
    )
    p.add_argument(
        "--subset-cap",
        type=_int_at_least(1),
        default=DEFAULT_SUBSET_CAP,
        help="refuse enumeration over more 4-subsets than this (default %(default)s)",
    )


def _int_at_least(low: int) -> Callable[[str], int]:
    """An argparse type for integers of at least ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _add_workers_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--workers",
        type=_int_at_least(1),
        default=1,
        help="worker processes for the enumeration counter, capped at the core "
        "count; results are identical for any count",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blowup-census",
        description="Build nested blow-up graphs, count induced 4-cycles, "
        "and cross-verify the exact counting formulas.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a blow-up graph as an edge-list file")
    p.add_argument("--family", choices=[f.value for f in Family], required=True)
    p.add_argument("--level", type=_int_at_least(0), required=True)
    p.add_argument("--input", help="base-graph edge list (custom family only)")
    p.add_argument("--out", required=True, help="output edge-list path")
    _add_cap_flags(p)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("count", help="count induced 4-cycles in a graph")
    p.add_argument("--family", choices=[f.value for f in Family])
    p.add_argument("--level", type=_int_at_least(0))
    p.add_argument("--input", help="edge-list file to count on (or custom base with --level)")
    p.add_argument("--method", choices=["enum", "diagonal", "both"], default="both")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out", help="also write the JSON record here")
    _add_cap_flags(p)
    _add_workers_flag(p)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("formula", help="tabulate the exact formulas per level")
    p.add_argument("--family", choices=list(FORMULAS), required=True)
    p.add_argument("--max-level", type=_int_at_least(0), required=True)
    p.add_argument("--variant", choices=["stated", "derived", "both"], default="both")
    p.add_argument("--format", choices=["text", "csv"], default="text")
    p.add_argument("--out", help="write the table here instead of stdout")
    p.set_defaults(func=_cmd_formula)

    p = sub.add_parser("verify", help="cross-verify formulas against graph counts")
    p.add_argument("--family", choices=[f.value for f in Family], required=True)
    p.add_argument("--max-level", type=_int_at_least(0), required=True)
    p.add_argument("--input", help="base-graph edge list (custom family only)")
    p.add_argument("--method", choices=["enum", "diagonal", "both"], default="both")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out", help="write the JSON report here")
    _add_cap_flags(p)
    _add_workers_flag(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sequence", help="CSV of per-level counts from the formulas")
    p.add_argument("--family", choices=list(FORMULAS), required=True)
    p.add_argument("--max-level", type=_int_at_least(0), required=True)
    p.add_argument("--out", help="write the CSV here instead of stdout")
    p.set_defaults(func=_cmd_sequence)

    return parser


def _load_graph(path: str, vertex_cap: int) -> Graph:
    # surrogateescape keeps each byte >= 0x80 as one code point, so the
    # error can name its line
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        text = fh.read()
    if not text.isascii():
        pos = re.search("[^\x00-\x7f]", text).start()
        byte = ord(text[pos]) - 0xDC00
        line = text.count("\n", 0, pos) + 1
        raise GraphFormatError(f"line {line}: non-ASCII byte 0x{byte:02x}")
    return read_edge_list(text, vertex_cap=vertex_cap)


def _custom_base(args) -> Graph | None:
    """The graph read from ``--input``, None without one; ``base_graph``
    decides whether the family takes it."""
    return _load_graph(args.input, args.vertex_cap) if args.input else None


def _methods(choice: str) -> tuple[Method, ...]:
    """The counters that ``--method`` names."""
    return tuple(Method) if choice == "both" else (Method(choice),)


def _check_formula_level(max_level: int) -> None:
    if max_level > FORMULA_LEVEL_CAP:
        raise VertexCapExceeded(
            f"--max-level is capped at {FORMULA_LEVEL_CAP}, got {max_level}"
        )


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_generate(args) -> int:
    base = base_graph(args.family, _custom_base(args))
    g = nested_blowup(base, args.level, vertex_cap=args.vertex_cap)
    with open(args.out, "wb") as fh:
        fh.writelines(_edge_list_chunks(g))
    print(f"{args.family} level {args.level}: {g.n} vertices, {g.edge_count} edges -> {args.out}")
    return 0


def _cmd_count(args) -> int:
    if args.input and args.level is None:
        graph = _load_graph(args.input, args.vertex_cap)
        source = {"input": args.input}
    elif args.family:
        if args.level is None:
            raise GraphFormatError("count needs --level together with --family")
        base = base_graph(args.family, _custom_base(args))
        graph = nested_blowup(base, args.level, vertex_cap=args.vertex_cap)
        source = {"family": args.family, "level": args.level}
    elif args.input:
        raise GraphFormatError("--level with --input needs --family custom")
    else:
        raise GraphFormatError("count needs either --input or --family/--level")

    results = [
        count_induced_c4(graph, method, subset_cap=args.subset_cap, workers=args.workers)
        for method in _methods(args.method)
    ]

    agreed = len({r.value for r in results}) == 1
    record = {
        "graph": {**source, "vertices": graph.n, "edges": graph.edge_count},
        "results": [
            {"method": r.method.value, "value": r.value, "elapsed": r.elapsed, "work": r.work}
            for r in results
        ],
        "agreed": agreed,
    }
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            json.dump(record, fh, indent=2)
    if args.format == "json":
        print(json.dumps(record, indent=2))
    else:
        for r in results:
            print(f"{r.method.value}: {r.value} [{r.elapsed:.3f}s]")
        if len(results) > 1:
            print(f"methods agree: {str(agreed).lower()}")
    if not agreed:
        print("error: internal counter disagreement", file=sys.stderr)
        return 1
    return 0


def _formula_rows(family: str, max_level: int, variants: list[Variant]):
    bundle = FORMULAS[family]
    header = ["N", "vertices", "non_edges", "Q", "R", "S", "T_recurrence"]
    header += [f"T_closed_{v.value}" for v in variants]
    if len(variants) == 2:
        header.append("variants_agree")
    rows = [header]
    for n, level in enumerate(blowup_levels(bundle.base, max_level)):
        cells = [str(n), str(level.n), str(level.m)]
        for pair in bundle.partial_sums(n):
            cells.append(str(pair.summation) if pair.agree else f"{pair.summation}!={pair.closed}")
        cells.append(str(level.T))
        values = [bundle.closed_T(n, v) for v in variants]
        for v in values:
            cells.append(str(v) + (" (non-integer)" if isinstance(v, Rational) else ""))
        if len(variants) == 2:
            cells.append(str(values[0] == values[1]).lower())
        rows.append(cells)
    return rows


def _cmd_formula(args) -> int:
    _check_formula_level(args.max_level)
    variants = (
        [Variant.STATED, Variant.DERIVED]
        if args.variant == "both"
        else [Variant(args.variant)]
    )
    rows = _formula_rows(args.family, args.max_level, variants)
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerows(rows)
        _write_text(args.out, buf.getvalue())
    else:
        widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
        text = "\n".join("  ".join(c.rjust(w) for c, w in zip(r, widths)) for r in rows)
        _write_text(args.out, text + "\n")
    return 0


def _cmd_verify(args) -> int:
    _check_formula_level(args.max_level)
    config = RunConfig(
        family=args.family,
        max_level=args.max_level,
        methods=_methods(args.method),
        vertex_cap=args.vertex_cap,
        subset_cap=args.subset_cap,
        workers=args.workers,
        input_path=args.input,
    )
    report = build_report(config, custom_base=_custom_base(args))
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(report.to_json())
    if args.format == "json":
        print(report.to_json())
    else:
        print(render_summary(report))
    if not report.passed:
        print("error: verification failed (see findings)", file=sys.stderr)
        return 1
    return 0


def _cmd_sequence(args) -> int:
    _check_formula_level(args.max_level)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["N", "vertices", "edges", "non_edges", "induced_c4"])
    for n, level in enumerate(blowup_levels(FORMULAS[args.family].base, args.max_level)):
        writer.writerow([n, level.n, level.edges, level.m, level.T])
    _write_text(args.out, buf.getvalue())
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphFormatError, VertexCapExceeded, SubsetCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CountParityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""CLI behavior: subcommand outputs, file formats, and exit codes."""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import subprocess
import sys

import pytest

from blowup_census import (
    Family,
    VerificationReport,
    base_graph,
    nested_blowup,
    read_edge_list,
    write_edge_list,
)
from blowup_census import cli, counting, graphs
from blowup_census.cli import main
from helpers import child_env, complete_graph


def test_main_builds_its_parser_once(capsys):
    # verify, count, a usage error and verify again in one process print and
    # exit as each does with a parser of its own
    calls = [
        ["verify", "--family", "c4", "--max-level", "1"],
        ["count", "--family", "c4", "--level", "1"],
        ["count", "--level", "-1"],
        ["verify", "--family", "c4", "--max-level", "1"],
    ]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return code, re.sub(r"\[\d+\.\d+s\]", "[time]", out), err

    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(run(argv))
    cli._build_parser.cache_clear()
    assert [run(argv) for argv in calls] == fresh
    assert cli._build_parser.cache_info().misses == 1
    assert [code for code, _, _ in fresh] == [0, 0, 2, 0]
    assert "must be at least 0" in fresh[2][2]


def test_generate_roundtrips(tmp_path):
    out = tmp_path / "c4_level1.edges"
    assert main(["generate", "--family", "c4", "--level", "1", "--out", str(out)]) == 0
    g = read_edge_list(out.read_text())
    assert g == nested_blowup(base_graph(Family.C4), 1)


def test_generate_level_zero_c4(tmp_path, capsys):
    out = tmp_path / "c4.edges"
    assert main(["generate", "--family", "c4", "--level", "0", "--out", str(out)]) == 0
    assert out.read_text() == "4\n0 1\n0 3\n1 2\n2 3\n"
    assert "4 vertices, 4 edges" in capsys.readouterr().out


@pytest.mark.parametrize(
    "family, level", [("c4", 2), ("theta222", 2), ("theta222", 3), ("c4", 4)]
)
def test_generate_writes_the_edge_list_text(tmp_path, family, level):
    # generate streams the file; it must equal the text write_edge_list returns.
    # c4 L4's ids pass 1000, so the writer's id width changes inside the file.
    out = tmp_path / f"{family}.edges"
    assert main(["generate", "--family", family, "--level", str(level), "--out", str(out)]) == 0
    g = nested_blowup(base_graph(Family(family)), level)
    data = out.read_bytes()
    assert data == write_edge_list(g).encode("ascii")
    assert b"\r" not in data and data.count(b"\n") == g.edge_count + 1


def test_generate_respects_vertex_cap(tmp_path, capsys):
    out = tmp_path / "never.edges"
    code = main(
        ["generate", "--family", "c4", "--level", "3", "--out", str(out), "--vertex-cap", "100"]
    )
    assert code == 2
    assert not out.exists()
    assert "cap" in capsys.readouterr().err


def test_count_family_level(capsys):
    assert main(["count", "--family", "theta222", "--level", "0", "--method", "enum"]) == 0
    out = capsys.readouterr().out
    assert "enum: 3" in out


def test_count_both_agree(capsys):
    assert main(["count", "--family", "c4", "--level", "1"]) == 0
    out = capsys.readouterr().out
    assert "enum: 404" in out
    assert "diagonal: 404" in out
    assert "methods agree: true" in out


def test_count_from_file(tmp_path, capsys):
    path = tmp_path / "k4.edges"
    path.write_text(write_edge_list(complete_graph(4)))
    assert main(["count", "--input", str(path), "--method", "diagonal"]) == 0
    assert "diagonal: 0" in capsys.readouterr().out


def test_count_json_record(tmp_path, capsys):
    out = tmp_path / "record.json"
    code = main(
        ["count", "--family", "c4", "--level", "1", "--format", "json", "--out", str(out)]
    )
    assert code == 0
    record = json.loads(out.read_text())
    assert record["agreed"] is True
    assert {r["method"]: r["value"] for r in record["results"]} == {
        "enum": 404,
        "diagonal": 404,
    }
    assert {r["method"]: r["work"] for r in record["results"]} == {
        "enum": {"subsets": 1820, "passes": 1, "bytes": 78024},
        "diagonal": {
            "neighbourhoods": 8,
            "rows": 16,
            "distinct": 12,
            "columns": 8,
            "passes": 1,
            "bytes": 7197,
        },
    }
    assert capsys.readouterr().out == out.read_text() + "\n"


def test_count_reads_its_graph_like_generate(tmp_path, capsys):
    # --family defaults to custom, --level to 0, and --input is the custom base
    path = tmp_path / "c4.edges"
    path.write_text(write_edge_list(base_graph(Family.C4)))
    keys = ("family", "level", "input", "vertices", "edges")
    for args, graph, value in (
        (["--family", "c4"], ("c4", 0, None, 4, 4), 1),
        (["--input", str(path)], ("custom", 0, str(path), 4, 4), 1),
        (["--input", str(path), "--level", "1"], ("custom", 1, str(path), 16, 80), 404),
    ):
        assert main(["count", *args, "--format", "json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["graph"] == dict(zip(keys, graph))
        assert [r["value"] for r in record["results"]] == [value, value]


def test_count_cap_refusal_exit_code(capsys):
    code = main(
        ["count", "--family", "c4", "--level", "1", "--method", "enum", "--subset-cap", "10"]
    )
    assert code == 2
    assert "cap" in capsys.readouterr().err


def test_count_requires_a_source(capsys):
    assert main(["count", "--method", "enum"]) == 2


def test_formula_derived_column(capsys):
    code = main(
        ["formula", "--family", "c4", "--max-level", "2", "--variant", "derived",
         "--format", "csv"]
    )
    assert code == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[0].split(",")[-1] == "T_closed_derived"
    assert [r.split(",")[-1] for r in rows[1:]] == ["1", "404", "114512"]


def test_formula_stated_flags_noninteger(capsys):
    code = main(["formula", "--family", "theta222", "--max-level", "0", "--variant", "stated"])
    assert code == 0
    out = capsys.readouterr().out
    assert "-150/1240" in out
    assert "non-integer" in out


def test_formula_both_variants_disagree(capsys):
    code = main(["formula", "--family", "c4", "--max-level", "0", "--format", "csv"])
    assert code == 0
    rows = capsys.readouterr().out.strip().splitlines()
    header = rows[0].split(",")
    row = rows[1].split(",")
    assert row[header.index("variants_agree")] == "false"


@pytest.mark.parametrize("command", ["formula", "sequence", "verify"])
def test_negative_max_level_is_a_usage_error(command, capsys):
    # both bounds are parse rules; from about c4 level 1780 a count has more
    # digits than Python converts to str
    for level, rule in (("-1", "at least 0"), ("31", "at most 30"), ("1800", "at most 30")):
        with pytest.raises(SystemExit) as exc:
            main([command, "--family", "c4", "--max-level", level])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument --max-level: must be {rule}, got {level}\n" in err


def test_sequence_c4(capsys):
    assert main(["sequence", "--family", "c4", "--max-level", "3"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[0] == "N,vertices,edges,non_edges,induced_c4"
    assert rows[1] == "0,4,4,2,1"
    assert [r.split(",")[-1] for r in rows[1:]] == ["1", "404", "114512", "30051648"]


def test_sequence_theta(tmp_path):
    out = tmp_path / "theta.csv"
    assert main(["sequence", "--family", "theta222", "--max-level", "2", "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()
    assert [r.split(",")[-1] for r in rows[1:]] == ["3", "2886", "1947705"]


def test_verify_exit_zero_with_findings(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", "--family", "c4", "--max-level", "1", "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "result: PASS" in stdout
    report = json.loads(out.read_text())
    # the two findings are level 0's and level 1's stated-variant mismatches
    assert [(f["level"], f["comparison"]) for f in report["findings"]] == [
        (0, "closed_stated_vs_recurrence"),
        (1, "closed_stated_vs_recurrence"),
    ]


def test_verify_json_stdout(tmp_path, capsys, monkeypatch):
    serialized = []
    to_json = VerificationReport.to_json
    monkeypatch.setattr(VerificationReport, "to_json", lambda self: serialized.append(1) or to_json(self))
    out = tmp_path / "report.json"
    argv = ["verify", "--family", "theta222", "--max-level", "0", "--format", "json", "--out", str(out)]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    # one serialization, written to the file and printed
    assert serialized == [1] and stdout == out.read_text() + "\n"
    data = json.loads(stdout)
    assert data["family"] == "theta222"
    assert data["levels"][0]["T_enum"] == 3
    # where the report went and how it was shown are not part of the report
    assert "out" not in data["config"] and "format" not in data["config"]


# the composition rule's checks run for a custom base; no closed_* flag, as
# no hand-typed closed form exists for it
_CUSTOM_FLAGS = {
    "enum_vs_diagonal": True,
    "non_edges_formula_vs_graph": True,
    "edges_formula_vs_graph": True,
    "enum_vs_recurrence": True,
    "diagonal_vs_recurrence": True,
}


def test_verify_custom_family(tmp_path, capsys):
    base = tmp_path / "p3.edges"
    base.write_text("3\n0 1\n1 2\n")
    code = main(
        ["verify", "--family", "custom", "--input", str(base), "--max-level", "1",
         "--format", "json"]
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    level = data["levels"][1]
    assert level["vertices"] == 9
    assert level["T_enum"] == level["T_diagonal"] == level["T_recurrence"] == 11
    assert level["match_flags"] == _CUSTOM_FLAGS


def test_verify_custom_requires_input(capsys):
    assert main(["verify", "--family", "custom", "--max-level", "0"]) == 2
    assert "requires a base graph" in capsys.readouterr().err


def test_input_with_named_family_rejected(tmp_path, capsys):
    base = tmp_path / "p3.edges"
    base.write_text("3\n0 1\n1 2\n")
    for argv in (
        ["verify", "--family", "c4", "--max-level", "0"],
        ["generate", "--family", "theta222", "--level", "0", "--out", os.devnull],
        ["count", "--family", "c4", "--level", "0"],
        ["count", "--family", "theta222"],
    ):
        assert main([*argv, "--input", str(base)]) == 2
        assert "family" in capsys.readouterr().err
    assert main(["verify", "--family", "c4", "--max-level", "0", "--input", "x"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["verify", "--family", "custom", "--max-level", "1"], id="verify"),
        pytest.param(["generate", "--family", "custom", "--level", "1", "--out", os.devnull],
                     id="generate"),
        pytest.param(["count", "--family", "custom", "--level", "1"], id="count"),
        pytest.param(["count"], id="count-level-0"),
    ],
)
def test_empty_custom_base_exit_code(tmp_path, capsys, argv):
    # a base of no vertices is a refused request (2), not a failed verification (1)
    base = tmp_path / "empty.edges"
    base.write_text("0\n")
    assert main([*argv, "--input", str(base)]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: the base graph must have at least one vertex\n")


def test_count_disagreement_exits_one(monkeypatch, capsys):
    from blowup_census import counting

    wrong = counting.CountResult(0, counting.Method.DIAGONAL, 0.0, {})
    monkeypatch.setattr(counting, "count_induced_c4_diagonal", lambda g: wrong)
    assert main(["count", "--family", "c4", "--level", "1"]) == 1
    out, err = capsys.readouterr()
    assert "enum: 404" in out and "methods agree: false" in out
    assert "internal counter disagreement" in err


def test_verify_counter_disagreement_exits_one(monkeypatch, capsys):
    from blowup_census import counting

    diagonal = counting.count_induced_c4_diagonal

    def one_too_many_at_16(g):
        result = diagonal(g)
        return dataclasses.replace(result, value=result.value + 1) if g.n == 16 else result

    monkeypatch.setattr(counting, "count_induced_c4_diagonal", one_too_many_at_16)
    assert main(["verify", "--family", "c4", "--max-level", "1"]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines()[-1] == "result: FAIL [(1, 'enum_vs_diagonal'), (1, 'diagonal_vs_recurrence')]"
    assert err == "error: verification failed (see findings)\n"


def test_verify_derived_mismatch_fails_and_stated_stays_a_finding(monkeypatch, capsys):
    from blowup_census import Variant, formulas

    c4 = formulas.FORMULAS["c4"]

    def derived_off_at_level_1(n, variant):
        value = c4.closed_T(n, variant)
        return value + 1 if (n, variant) == (1, Variant.DERIVED) else value

    monkeypatch.setitem(formulas.FORMULAS, "c4", c4._replace(closed_T=derived_off_at_level_1))
    assert main(["verify", "--family", "c4", "--max-level", "1"]) == 1
    out, err = capsys.readouterr()
    lines = out.splitlines()
    # columns: N vertices edges nonedges T_enum T_diag T_rec derived stated
    assert lines[2].split() == ["0", "4", "4", "2", "1", "1", "1", "ok", "differs"]
    assert lines[3].split() == ["1", "16", "80", "40", "404", "404", "404", "FAIL", "differs"]
    assert "level 1: closed_derived_vs_recurrence: 405 != 404" in out
    assert lines[-1] == "result: FAIL [(1, 'closed_derived_vs_recurrence')]"
    assert err == "error: verification failed (see findings)\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--family", "c4", "--level", "1", "--method", "diagonal"],
        ["verify", "--family", "c4", "--max-level", "0", "--method", "diagonal"],
    ],
)
def test_odd_diagonal_raw_sum_exits_one(monkeypatch, capsys, argv):
    from blowup_census import counting

    monkeypatch.setattr(counting, "_diagonal_raw", lambda packed, work=None: 3)
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: diagonal raw sum 3 is odd: counting bug\n")


def test_malformed_edge_list_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.edges"
    path.write_text("3\n0 0\n")
    assert main(["count", "--input", str(path)]) == 2
    assert "self-loop" in capsys.readouterr().err


def test_non_ascii_edge_list_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.edges"
    path.write_bytes(b"4\n0 1\n# caf\xc3\xa9\n1 2\n")
    assert main(["count", "--input", str(path)]) == 2
    assert "line 3: non-ASCII byte 0xc3" in capsys.readouterr().err


def test_input_vertex_cap_exit_code(tmp_path, capsys):
    path = tmp_path / "c4.edges"
    path.write_text(write_edge_list(nested_blowup(base_graph(Family.C4), 1)))
    assert main(["count", "--input", str(path), "--vertex-cap", "15"]) == 2
    assert "16 vertices, above the cap of 15" in capsys.readouterr().err
    assert main(["count", "--input", str(path), "--vertex-cap", "16"]) == 0


def test_input_beyond_physical_memory_exit_code(tmp_path, capsys, monkeypatch):
    path = tmp_path / "c4.edges"
    path.write_text(write_edge_list(nested_blowup(base_graph(Family.C4), 1)))
    monkeypatch.setattr(graphs, "_physical_memory", lambda: 31)
    assert main(["count", "--input", str(path)]) == 2
    assert "16 vertices, whose packed rows would take 32 bytes" in capsys.readouterr().err
    # 32 bytes hold the rows; the diagonal counter's quotient needs more
    monkeypatch.setattr(graphs, "_physical_memory", lambda: 32)
    assert main(["count", "--input", str(path), "--method", "enum"]) == 0


def test_build_beyond_physical_memory(tmp_path, capsys, monkeypatch):
    # c4 level 2 has 64 vertices, 64 packed rows of 8 bytes
    out = tmp_path / "c4.edges"
    argv = ["generate", "--family", "c4", "--level", "2", "--out", str(out)]
    monkeypatch.setattr(graphs, "_physical_memory", lambda: 511)
    assert main(argv) == 2
    assert not out.exists()
    assert capsys.readouterr().err == (
        "error: level 2 has 64 vertices, whose packed rows would take 512 bytes (0.0 GiB), "
        "more than the 511 bytes of physical memory\n"
    )
    assert main(["verify", "--family", "c4", "--max-level", "2", "--format", "json"]) == 0
    levels = json.loads(capsys.readouterr().out)["levels"]
    # the scan counts the levels that are built; the diagonal counter's
    # quotient estimates (1176 and 3528 bytes) are refused too
    assert [rec["T_enum"] for rec in levels] == [1, 404, "skipped: cap"]
    assert [rec["T_diagonal"] for rec in levels] == ["skipped: cap"] * 3
    assert levels[2]["match_flags"]["edges_formula_vs_graph"] == "skipped: cap"
    monkeypatch.setattr(graphs, "_physical_memory", lambda: 512)
    assert main(argv) == 0
    assert read_edge_list(out.read_text()) == nested_blowup(base_graph(Family.C4), 2)


def test_diagonal_beyond_physical_memory(capsys, monkeypatch):
    # c4 level 1: 16 vertices in 8 classes of equal rows, whose quotient
    # matrices take 9 * (25 * 8 + 192) = 3528 bytes; the refusal comes from
    # that estimate, before any quotient matrix is allocated.  Its one
    # window takes 5320 bytes and its one stack 7197, each refused the same
    # way: count exits 2 and verify records the cap
    for memory, subject, need in (
        (3527, "quotient on 8 classes of equal rows", 3528),
        (5319, "window of 16 rows on 8 classes", 5320),
        (7196, "stack of 12 rows on 9 classes", 7197),
    ):
        monkeypatch.setattr(graphs, "_physical_memory", lambda: memory)
        assert main(["count", "--family", "c4", "--level", "1", "--method", "diagonal"]) == 2
        assert capsys.readouterr().err == (
            f"error: the diagonal counter's {subject} would take {need} bytes "
            f"(0.0 GiB), more than the {memory} bytes of physical memory\n"
        )
        assert main(["verify", "--family", "c4", "--max-level", "1", "--format", "json"]) == 0
        levels = json.loads(capsys.readouterr().out)["levels"]
        assert [(rec["T_enum"], rec["T_diagonal"]) for rec in levels] == [(1, 1), (404, "skipped: cap")]
        assert "diagonal" not in levels[1]["work"]
    monkeypatch.setattr(graphs, "_physical_memory", lambda: 7197)
    assert main(["count", "--family", "c4", "--level", "1", "--method", "diagonal"]) == 0
    assert "diagonal: 404" in capsys.readouterr().out


def test_enumeration_beyond_physical_memory(capsys, monkeypatch):
    # c4 level 3's scan (256 vertices) is estimated above 1 MiB, so it is
    # refused from its estimate (the adjacency in bool and float32 and the
    # largest run): count exits 2 and verify records the cap there, while
    # levels 0-2, estimated under 1 MiB, are not checked and the diagonal
    # counter's 684581 bytes fit
    need = counting._enum_bytes(256)
    monkeypatch.setattr(graphs, "_physical_memory", lambda: need - 1)
    assert main(["count", "--family", "c4", "--level", "3", "--method", "enum"]) == 2
    assert capsys.readouterr().err == (
        f"error: the exhaustive scan of 256 vertices would take {need} bytes "
        f"(0.0 GiB), more than the {need - 1} bytes of physical memory\n"
    )
    assert main(["verify", "--family", "c4", "--max-level", "3", "--format", "json"]) == 0
    levels = json.loads(capsys.readouterr().out)["levels"]
    assert [rec["T_enum"] for rec in levels] == [1, 404, 114512, "skipped: cap"]
    assert [rec["T_diagonal"] for rec in levels] == [1, 404, 114512, 30051648]
    monkeypatch.setattr(graphs, "_physical_memory", lambda: need)
    assert main(["count", "--family", "c4", "--level", "3", "--method", "enum"]) == 0
    assert "enum: 30051648" in capsys.readouterr().out


def test_missing_file_exit_code(capsys):
    assert main(["count", "--input", "/nonexistent/g.edges"]) == 2


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


_LEVEL_ARGS = {
    "generate": ["--level", "0", "--out", os.devnull],
    "count": ["--level", "0"],
    "verify": ["--max-level", "0"],
}


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("generate", "--level", "-1"),
        ("count", "--level", "-2"),
        ("verify", "--vertex-cap", "0"),
        ("verify", "--subset-cap", "0"),
    ],
)
def test_out_of_range_level_and_caps_rejected(command, flag, value, capsys):
    # a later occurrence of --level is parsed too, so it is refused
    argv = [command, "--family", "c4", *_LEVEL_ARGS[command], flag, value]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err


def test_generate_takes_no_enumeration_flags(capsys):
    # --subset-cap belongs to count and verify, which enumerate
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--family", "c4", *_LEVEL_ARGS["generate"], "--subset-cap", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --subset-cap 5" in capsys.readouterr().err


class _ReadRecorder:
    """Parsed arguments that note which of them are read."""

    def __init__(self, values: dict) -> None:
        self._values, self.read = values, set()

    def __getattr__(self, name: str):
        if name not in self._values:
            raise AttributeError(name)
        self.read.add(name)
        return self._values[name]


def test_every_parsed_flag_is_read(tmp_path, capsys):
    argvs = {
        "generate": ["--family", "c4", "--level", "0", "--out", str(tmp_path / "g.edges")],
        "count": ["--family", "c4", "--level", "0"],
        "formula": ["--family", "c4", "--max-level", "0"],
        "verify": ["--family", "c4", "--max-level", "0"],
        "sequence": ["--family", "c4", "--max-level", "0"],
    }
    parser = cli._build_parser()
    (commands,) = [a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(argvs) == set(commands)
    unread = {}
    for command, argv in argvs.items():
        values = vars(parser.parse_args([command, *argv]))
        args = _ReadRecorder(values)
        assert values["func"](args) == 0
        unread[command] = set(values) - args.read - {"command", "func"}
    capsys.readouterr()
    assert unread == {command: set() for command in argvs}


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "blowup_census", "sequence", "--family", "c4",
         "--max-level", "1"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().splitlines()[-1] == "1,16,80,40,404"
    proc = subprocess.run(
        [sys.executable, "-m", "blowup_census", "verify", "--family", "c4",
         "--max-level", "31", "--format", "json"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    # under -O the checks still run: they are comparisons, not asserts
    base = tmp_path / "p3.edges"
    base.write_text("3\n0 1\n1 2\n")
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "blowup_census", "verify", "--family", "custom",
         "--input", str(base), "--max-level", "1", "--format", "json"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    levels = json.loads(proc.stdout)["levels"]
    assert [level["match_flags"] for level in levels] == [_CUSTOM_FLAGS] * 2


def test_import_leaves_multiprocessing_unloaded():
    # the enumeration pool is imported only when a run asks for more than one worker
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, blowup_census.cli; print('multiprocessing' in sys.modules)"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"

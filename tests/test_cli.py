"""CLI behavior: subcommand outputs, file formats, and exit codes."""

from __future__ import annotations

import json
import os
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
    complete_graph,
)
from blowup_census.cli import main


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
        "enum": {"subsets": 1820},
        "diagonal": {"neighbourhoods": 8, "rows": 16, "columns": 40},
    }
    assert json.loads(capsys.readouterr().out) == record


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


def test_formula_rejects_levels_beyond_cap(capsys):
    assert main(["formula", "--family", "c4", "--max-level", "31"]) == 2


def test_verify_rejects_levels_beyond_cap():
    # from about c4 level 1780 a count has more digits than Python converts
    # to str; verify refuses such levels up front, as formula and sequence do
    for level in ("31", "1800"):
        proc = subprocess.run(
            [sys.executable, "-m", "blowup_census", "verify", "--family", "c4",
             "--max-level", level, "--vertex-cap", "300", "--format", "json"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr == f"error: --max-level is capped at 30, got {level}\n"


@pytest.mark.parametrize("command", ["formula", "sequence", "verify"])
def test_negative_max_level_is_a_usage_error(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--family", "c4", "--max-level", "-1"])
    assert exc.value.code == 2
    assert "argument --max-level: must be at least 0, got -1" in capsys.readouterr().err


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
    report = VerificationReport.from_json(out.read_text())
    assert report.passed
    assert len(report.findings) == 2


def test_verify_json_stdout(capsys):
    code = main(["verify", "--family", "theta222", "--max-level", "0", "--format", "json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
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
    ):
        assert main([*argv, "--input", str(base)]) == 2
        assert "family" in capsys.readouterr().err
    assert main(["verify", "--family", "c4", "--max-level", "0", "--input", "x"]) == 2


_BASE_ARGS = {
    "verify": ["--max-level", "1"],
    "generate": ["--level", "1", "--out", os.devnull],
    "count": ["--level", "1"],
}


@pytest.mark.parametrize("command", list(_BASE_ARGS))
def test_empty_custom_base_exit_code(tmp_path, capsys, command):
    # a base of no vertices is a refused request (2), not a failed verification (1)
    base = tmp_path / "empty.edges"
    base.write_text("0\n")
    argv = [command, "--family", "custom", "--input", str(base), *_BASE_ARGS[command]]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: the base graph must have at least one vertex\n")


def test_count_disagreement_exits_one(monkeypatch, capsys):
    from blowup_census import counting

    wrong = counting.CountResult(0, counting.Method.DIAGONAL, 0.0)
    monkeypatch.setattr(counting, "count_induced_c4_diagonal", lambda g: wrong)
    assert main(["count", "--family", "c4", "--level", "1"]) == 1
    out, err = capsys.readouterr()
    assert "enum: 404" in out and "methods agree: false" in out
    assert "internal counter disagreement" in err


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
        pytest.param(command, "--workers", workers, id=f"{workers}-{command}")
        for workers in ["0", "-3", "two"]
        for command in ["count", "verify"]
    ]
    + [
        ("generate", "--level", "-1"),
        ("count", "--level", "-2"),
        ("verify", "--vertex-cap", "0"),
        ("verify", "--subset-cap", "0"),
    ],
)
def test_workers_below_one_rejected(command, flag, value, capsys):
    # a later occurrence of --level is parsed too, so it is refused
    argv = [command, "--family", "c4", *_LEVEL_ARGS[command], flag, value]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "blowup_census", "sequence", "--family", "c4",
         "--max-level", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().splitlines()[-1] == "1,16,80,40,404"
    # under -O the checks still run: they are comparisons, not asserts
    base = tmp_path / "p3.edges"
    base.write_text("3\n0 1\n1 2\n")
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "blowup_census", "verify", "--family", "custom",
         "--input", str(base), "--max-level", "1", "--format", "json"],
        capture_output=True,
        text=True,
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
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"

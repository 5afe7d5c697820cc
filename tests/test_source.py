"""Rules the package source keeps."""

from __future__ import annotations

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).parents[1] / "src" / "blowup_census").glob("*.py"))


def test_no_bare_assert_in_the_package():
    # python -O strips assert statements, so invariant checks must raise
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and found == []

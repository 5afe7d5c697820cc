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


# The package does its work in the calling process: parallelism comes from
# BLAS threads inside numpy, never from processes or threads it starts.
_CONCURRENCY_MODULES = {"multiprocessing", "concurrent", "subprocess", "threading"}


def test_no_process_or_thread_modules_in_the_package():
    # imports inside functions count too: they start the same processes
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in names
                      if name.split(".")[0] in _CONCURRENCY_MODULES]
    assert SOURCES and found == []

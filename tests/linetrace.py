"""Pytest plugin: list the function-body statements of the package that no test ran.

Run it as ``PYTHONPATH=src:tests python -m pytest -q -p linetrace``. It uses only
``sys.settrace``, and slows the suite about fourfold. At exit it prints
``unexecuted=<n>``, then ``path:line`` of each such statement. A statement counts
as run when any line it owns (not a nested statement's) produced a line event.
``__main__.py`` is left out: only subprocess tests run it, and the tracer does
not follow subprocesses. Tier-1 does not collect this file; it gates nothing.
"""

import ast
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = {str(p): p for p in (ROOT / "src" / "qbraitenberg").glob("*.py") if p.name != "__main__.py"}
_seen: set[tuple[str, int]] = set()
_kept: dict[str, str | None] = {}  # co_filename -> absolute source path, or None when not traced


def _local(frame, event, arg):
    if event == "line":
        _seen.add((_kept[frame.f_code.co_filename], frame.f_lineno))
    return _local


def _call(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in _kept:
        path = os.path.realpath(name)
        _kept[name] = path if path in SOURCES else None
    return _local if _kept[name] else None


def _statements(path: Path):
    """Yield (line, owned lines) for each statement inside a function, docstrings and declarations aside."""
    for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        doc = fn.body[0] if ast.get_docstring(fn, clean=False) is not None else None
        for node in ast.walk(fn):
            if isinstance(node, ast.stmt) and node not in (fn, doc) and not isinstance(node, (ast.Global, ast.Nonlocal)):
                owned = set(range(node.lineno, node.end_lineno + 1))
                for inner in ast.walk(node):
                    if isinstance(inner, ast.stmt) and inner is not node:
                        owned -= set(range(inner.lineno, inner.end_lineno + 1))
                yield node.lineno, owned


def pytest_configure(config):
    sys.settrace(_call)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    missed = sorted({(path.relative_to(ROOT).as_posix(), line)
                     for key, path in SOURCES.items() for line, owned in _statements(path)
                     if not any((key, n) in _seen for n in owned)})
    terminalreporter.write_line(f"unexecuted={len(missed)}")
    for name, line in missed:
        terminalreporter.write_line(f"{name}:{line}")

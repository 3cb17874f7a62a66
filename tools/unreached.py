"""List each statement of ``src/fadenet`` that no tier-1 test runs.

The tier-1 suite runs in this process under a standard-library line tracer:
``sys.settrace`` for the main thread and ``threading.settrace`` for the
threads it starts (a sweep's workers).  A statement counts as run when a
line event fires on its header: its own lines for a simple statement, and
for a compound one (``if``, ``for``, ``def``, ...) its decorators and the
lines before its body.  Docstrings, ``try:``, ``global`` and ``nonlocal``
run no code of their own and are left out.  A module that no test imports
is named once instead of statement by statement.

Run from the repository root; any arguments are passed on to pytest:

    python tools/unreached.py
    python tools/unreached.py tests/test_cli.py

Tracing slows the suite (60-75 s against about 40 s untraced on 2 cores),
so Hypothesis runs without its deadline.  Lines that only a subprocess runs
(``tests/test_startup.py``'s interpreters) are not seen.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fadenet"
TIER_1 = ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
# statements that compile to no code of their own
_NO_CODE = (ast.Try, ast.Global, ast.Nonlocal)
_UNSEEN = object()


def statements(source: str) -> dict[int, range]:
    """Per statement of a module, keyed by its first line: the lines whose
    line events mean that it ran."""
    tree = ast.parse(source)
    docstrings = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.Expr):
            if isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str):
                docstrings.add(body[0])
    out = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, _NO_CODE) or node in docstrings:
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        out[node.lineno] = range(first, max(last, node.lineno) + 1)
    return out


class _NoDeadline:
    """A pytest plugin that lifts Hypothesis's per-example deadline, once
    pytest has loaded Hypothesis (imported before, it could not be
    rewritten)."""

    @staticmethod
    def pytest_configure(config) -> None:
        import hypothesis

        hypothesis.settings.register_profile("unreached", deadline=None)
        hypothesis.settings.load_profile("unreached")


def main(argv: list[str]) -> int:
    prefix = str(PACKAGE) + os.sep
    hits: dict[str, set[int]] = {}
    # per code filename as given, the line set of its absolute path, or None
    # outside the package
    files: dict[str, set[int] | None] = {}

    def trace_call(frame, event, arg):
        filename = frame.f_code.co_filename
        lines = files.get(filename, _UNSEEN)
        if lines is _UNSEEN:
            path = os.path.abspath(filename)
            lines = files[filename] = hits.setdefault(path, set()) if path.startswith(prefix) else None
        if lines is None:
            return None

        def trace_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return trace_line

        return trace_line

    import pytest

    os.chdir(ROOT)
    threading.settrace(trace_call)
    sys.settrace(trace_call)
    try:
        pytest.main(TIER_1 + argv, plugins=[_NoDeadline()])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    count = 0
    print()
    for path in sorted(PACKAGE.glob("*.py")):
        name = path.relative_to(ROOT)
        if str(path) not in hits:
            print(f"{name}: never imported")
            continue
        source = path.read_text()
        lines = source.splitlines()
        seen = hits[str(path)]
        for lineno, header in sorted(statements(source).items()):
            if seen.isdisjoint(header):
                count += 1
                print(f"{name}:{lineno}: {lines[lineno - 1].strip()}")
    print(f"{count} statements unreached")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""List each `raise` in src/leda that the tier-1 tests never reach.

Run from the repository root:

    PYTHONPATH=src python tests/unreached_raises.py

It runs the tier-1 suite in-process under a line trace (`sys.settrace`, and
`threading.settrace` for the threads the suite starts), then prints each
`raise` statement of src/leda/*.py none of whose lines ran, as
`path:line: source`. `cli.py`'s `raise SystemExit(main())` is left out: it
runs only as `python -m leda.cli`. The exit status is 0 when every `raise`
was reached and every test passed, and 1 otherwise. The trace slows the
suite about 2.5-fold.

What the trace does not see:
- forked children, as `split_repeats` starts: each inherits the trace, but
  the lines it runs are recorded in its own memory and lost at its exit;
- subprocesses, which run their own interpreter;
- frames entered while `tracemalloc` traces, as a traced frame's line
  records would count against a test's allocation bound.

A `raise` reached only in those places is listed as unreached.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "leda"
# runs only when the module is the program, never under the suite
IGNORED = {("cli.py", "raise SystemExit(main())")}


def raise_spans() -> dict[str, list[tuple[int, int]]]:
    """{realpath of each src file: [(first, last) line of each raise]}."""
    spans = {}
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        spans[os.path.realpath(path)] = [
            (node.lineno, node.end_lineno)
            for node in ast.walk(ast.parse(text, str(path)))
            if isinstance(node, ast.Raise) and (path.name, ast.unparse(node)) not in IGNORED
        ]
    return spans


def traced_run(files: set[str], args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest.main(args)'s exit code, and the lines run in each of `files`."""
    ran = {path: set() for path in files}
    source_of = {}  # a code object's co_filename: its entry of `ran`, or None

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in source_of:
            source_of[name] = ran.get(os.path.realpath(name))
        lines = source_of[name]
        if lines is None or tracemalloc.is_tracing():
            return None

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line

        return line

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def main() -> int:
    spans = raise_spans()
    code, ran = traced_run(set(spans), ["-q", str(ROOT / "tests")])
    unreached = [
        (path, first)
        for path, found in spans.items()
        for first, last in found
        if ran[path].isdisjoint(range(first, last + 1))
    ]
    print(f"\n{len(unreached)} of {sum(map(len, spans.values()))} raise statements in src/leda unreached")
    for path, first in unreached:
        source = Path(path).read_text().splitlines()[first - 1].strip()
        print(f"{os.path.relpath(path, ROOT)}:{first}: {source}")
    if code != 0:
        print(f"the tier-1 tests failed (pytest exit code {code})")
    return 1 if unreached or code != 0 else 0


if __name__ == "__main__":
    sys.exit(main())

"""Statement coverage of ``src/layoutkit`` by the test suite, with the
standard library alone.

Usage::

    python3 tools/coverage.py

Each ``tests/test_*.py`` runs under pytest in a process of its own, traced
with :func:`sys.settrace` from before ``layoutkit`` is imported, so module
and class bodies count as well.  Hypothesis's ``explain`` phase, which
installs a tracer of its own, is switched off, and so is its deadline, which
tracing makes some examples miss.  A statement ran when some line it spans
(for a compound statement, some line of its header) reported a line event;
a docstring is no statement.  The first line printed is a summary, then each
statement that never ran follows as ``path:line: text``.  The interpreter
removes a tracer whose call fails, as at the recursion limit, and what runs
after that goes unseen; a test file whose tracer is gone when pytest returns
fails.  The exit status is that of the first failing test file, else 0.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "layoutkit"


def statements(path: Path) -> dict:
    """The first line of each statement in ``path``, mapped to the lines
    whose line events show that it ran."""
    tree = ast.parse(path.read_text(), filename=str(path))
    out = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            if isinstance(node.value.value, str):
                continue  # a docstring
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        out[node.lineno] = range(first, max(first, last) + 1)
    return out


def _worker(test_file: str, out_path: str) -> int:
    """Run one test file traced; write the lines of ``layoutkit`` that ran."""
    files = {str(p) for p in PACKAGE.glob("*.py")}
    ran = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_filename in files:
            ran.add((frame.f_code.co_filename, frame.f_lineno))
            return local
        return None

    # this script's directory gives way, so no import finds it as ``coverage``
    sys.path[0] = str(SRC)
    threading.settrace(tracer)
    sys.settrace(tracer)
    import layoutkit  # noqa: F401  (traced from its first line)
    import pytest
    from hypothesis import Phase, settings

    settings.register_profile(
        "coverage", phases=[p for p in Phase if p is not Phase.explain], deadline=None
    )
    settings.load_profile("coverage")
    code = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT), test_file])
    if sys.gettrace() is not tracer:
        print(f"{test_file}: tracing was switched off", file=sys.stderr)
        code = code or 1
    sys.settrace(None)
    with open(out_path, "w") as fh:
        json.dump(sorted(ran), fh)
    return int(code)


def main(argv) -> int:
    if len(argv) == 3 and argv[0] == "--worker":
        return _worker(*argv[1:])
    if argv:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    start = time.perf_counter()
    # the tests that start the CLI in a process of their own find it here
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(SRC))
    ran, status = set(), 0
    tests = sorted((ROOT / "tests").glob("test_*.py"))
    with tempfile.TemporaryDirectory() as tmp:
        for i, test in enumerate(tests):
            out_path = os.path.join(tmp, f"ran{i}.json")
            argv_w = [sys.executable, __file__, "--worker", str(test), out_path]
            proc = subprocess.run(argv_w, env=env, cwd=ROOT, stdout=subprocess.DEVNULL)
            if proc.returncode != 0:
                print(f"{test.name} exited {proc.returncode}", file=sys.stderr)
                status = status or proc.returncode
            with open(out_path) as fh:
                ran.update((f, line) for f, line in json.load(fh))
    missed, total = [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = path.read_text().splitlines()
        for first, span in sorted(statements(path).items()):
            total += 1
            if not any((str(path), line) in ran for line in span):
                text = lines[first - 1].strip()
                missed.append(f"{path.relative_to(ROOT)}:{first}: {text}")
    print(
        f"coverage: {total - len(missed):,} of {total:,} statements in "
        f"src/layoutkit ran under {len(tests)} test files, {len(missed)} never ran; "
        f"{time.perf_counter() - start:.0f} s"
    )
    for line in missed:
        print(line)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

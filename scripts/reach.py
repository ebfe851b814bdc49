#!/usr/bin/env python3
"""List every line of src/ddsearch that the tier-1 tests never run.

Runs the suite under tests/ in this process with a ``sys.settrace`` tracer
that records each line executed in a ``src/ddsearch`` file, and prints every
executable line that no test ran, as ``path:line: text  [reason]``.  Exits 0
when each of them has its reason in ``ALLOWED``, and 1 when a line has none,
when an entry of ``ALLOWED`` names no unrun line (drop it), or when a test
fails under the tracer.  Besides the standard library it uses only the
suite's runner, pytest.

The tests in ``SKIPPED`` are deselected by name: they run the package in a
child process, which the tracer does not see.  Each starts it through
``_fresh_python`` in tests/test_cli.py, the suite's one launcher of a child
process.  A collection hook deselects them, not ``-k``, so that a caller's
``-k``, which replaces any earlier one, cannot bring them back.  The tracer
hooks the frames of src/ddsearch only, so the ``tracemalloc`` bounds and
the time bounds of the suite hold under it, and those tests run.

Usage: python scripts/reach.py [extra pytest arguments]
"""

from __future__ import annotations

import ast
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ddsearch"

#: Fragment of the names of the tests that run the package in a child process.
SKIPPED = ("fresh_process",)

_TYPE_CHECKING = "imported for type checkers only"
_REDRAW = "an n-D standard normal vector is zero with probability 0, and no test scripts n-D draws"
_DIRECTION_10 = "unreachable until direction 10 adds an n-D registry entry"

#: Unrun lines that no in-process test can reach, as (file, innermost
#: enclosing def or class, or "<module>", stripped text) -> reason.
ALLOWED = {
    ("analysis.py", "<module>", "import numpy as np"): _TYPE_CHECKING,
    ("engine.py", "<module>", "import numpy as np"): _TYPE_CHECKING,
    ("steps.py", "<module>", "import numpy as np"): _TYPE_CHECKING,
    ("cli.py", "<module>", "sys.exit(main())"): "runs only as `python -m ddsearch.cli`",
    ("steps.py", "sample_ball_uniform", "gauss[degenerate] = rng.standard_normal((int(degenerate.sum()), dimension))"): _REDRAW,
    ("steps.py", "sample_ball_uniform", "norms = np.sqrt(np.sum(gauss * gauss, axis=1))"): _REDRAW,
    ("steps.py", "sample_ball_uniform", "degenerate = norms == 0.0"): _REDRAW,
    ("cli.py", "_format_vector", 'return "[" + ", ".join(repr(c) for c in v) + "]"'): _DIRECTION_10,
    ("cli.py", "cmd_sample", 'return _fail(f"objective {args.objective!r} is not one-dimensional", EXIT_INPUT_ERROR)'): _DIRECTION_10,
}


def _code_lines(code: types.CodeType) -> set[int]:
    """The line numbers of the instructions of ``code`` and its nested code."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _code_lines(const)
    return lines


def _scopes(tree: ast.Module) -> dict[int, str]:
    """Line -> name of the innermost def or class whose body holds it."""
    scope: dict[int, str] = {}
    # ast.walk visits an outer definition before the ones inside it.
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope.update(dict.fromkeys(range(node.body[0].lineno, node.end_lineno + 1), node.name))
    return scope


class _DeselectSkipped:
    """pytest plugin that deselects every test whose id holds a fragment of ``SKIPPED``."""

    def pytest_collection_modifyitems(self, config, items) -> None:
        skipped = [item for item in items if any(fragment in item.nodeid for fragment in SKIPPED)]
        if skipped:
            config.hook.pytest_deselected(items=skipped)
            items[:] = [item for item in items if item not in skipped]


def main(argv: list[str]) -> int:
    import pytest

    files = {str(path) for path in PACKAGE.glob("*.py")}
    ran: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_filename not in files:
            return None
        ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    sys.path.insert(0, str(PACKAGE.parent))
    sys.settrace(tracer)
    try:
        status = pytest.main(
            ["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *argv], plugins=[_DeselectSkipped()]
        )
    finally:
        sys.settrace(None)
    if status != 0:
        print(f"reach: the tests failed under the tracer (pytest exit code {status})")
        return 1

    report, unallowed, seen = [], 0, set()
    for name in sorted(files):
        path = Path(name)
        source = path.read_text(encoding="utf-8")
        text, scope = source.splitlines(), _scopes(ast.parse(source))
        for line in sorted(_code_lines(compile(source, name, "exec")) - {n for f, n in ran if f == name}):
            key = (path.name, scope.get(line, "<module>"), text[line - 1].strip())
            reason = ALLOWED.get(key)
            seen.add(key)
            unallowed += reason is None
            report.append(f"src/ddsearch/{path.name}:{line}: {key[2]}  [{reason or 'NOT ALLOWED'}]")
    print(f"reach: {len(report)} lines of src/ddsearch never ran, {unallowed} of them without a reason")
    print("\n".join(report))
    stale = [key for key in ALLOWED if key not in seen]
    for key in stale:
        print(f"reach: no unrun line is {key}; drop its entry")
    return 1 if unallowed or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""List the statements of src/gupsqueeze that a pytest run never executes.

Runs pytest in this process (by default ``-q tests``) under a
``sys.settrace`` recorder that follows only frames whose code lives in
src/gupsqueeze, then prints each AST statement none of whose own lines ran,
as ``module:line (function) source``.  A compound statement's own lines are
its header and clause lines; its nested statements count for themselves.
Docstrings, ``def`` and ``class`` lines, imports and ``global``/``nonlocal``
declarations run no code of their own and are skipped.

Some statements run only in a child process, which the recorder cannot
follow.  SUBPROCESS_ONLY names them by module, enclosing function and the
first line of the statement, or of an enclosing statement or ``except``
clause, so that line numbers may move.  The tool exits 1 if any statement
that never ran is not named there, or with pytest's own code if the run
failed, else 0.  The whole suite takes longer traced than plain, so this is
a tool to run by hand, not a test:

    python tools/line_hits.py
    python tools/line_hits.py -q tests/test_cli.py -k figure
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gupsqueeze"

# (module, enclosing function, first line of the statement or of an
# enclosing one) -> why no in-process test runs it
SUBPROCESS_ONLY = {
    ("cli", "main", "except BrokenPipeError:"):
        "stdout's reader leaving is a closed pipe, tested on a child process",
    ("cli", "<module>", 'if __name__ == "__main__":'):
        "runs only as `python -m gupsqueeze.cli`",
    ("table", "_resolved", 'if head == "/proc" or head.startswith("/proc/"):'):
        "a link into /proc names the child's own stdout, tested on a child process",
}

_SILENT = (ast.Import, ast.ImportFrom, ast.Global, ast.Nonlocal)


@dataclass(frozen=True)
class Statement:
    module: str
    function: str
    line: int
    text: str  # the statement's first line, stripped
    scopes: tuple[str, ...]  # its own first line, then each enclosing block's


def _is_docstring(node: ast.AST) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def unrun_statements(module: str, source: str, hits: set[int]) -> list[Statement]:
    """The statements of the module's source none of whose own lines is in
    hits, in source order."""
    lines = source.splitlines()
    found = []

    def visit(body, function, scopes):
        for i, node in enumerate(body):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(node.body, node.name, ())
                continue
            if isinstance(node, ast.ClassDef):
                visit(node.body, function, scopes)
                continue
            if isinstance(node, _SILENT) or (i == 0 and _is_docstring(node)):
                continue
            text = lines[node.lineno - 1].strip()
            # nested statement lists, each with its except clause's line
            blocks = [(getattr(node, name), ()) for name in ("body", "orelse", "finalbody")
                      if isinstance(getattr(node, name, None), list)]
            blocks += [(handler.body, (lines[handler.lineno - 1].strip(),))
                       for handler in getattr(node, "handlers", ())]
            nested = {line for block, _ in blocks for child in block
                      for line in range(child.lineno, child.end_lineno + 1)}
            own = set(range(node.lineno, node.end_lineno + 1)) - nested or {node.lineno}
            if not own & hits:
                found.append(Statement(module, function, node.lineno, text,
                                       (text, *scopes)))
            for block, clause in blocks:
                visit(block, function, (*clause, text, *scopes))

    visit(ast.parse(source).body, "<module>", ())
    return sorted(found, key=lambda statement: statement.line)


def excused(statement: Statement) -> bool:
    return any((statement.module, statement.function, scope) in SUBPROCESS_ONLY
               for scope in statement.scopes)


def report(hits: dict[str, set[int]]) -> list[Statement]:
    """Print every statement of the package that never ran, each one not
    excused by SUBPROCESS_ONLY marked; return those."""
    unexcused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for statement in unrun_statements(path.stem, path.read_text(),
                                          hits.get(str(path), set())):
            mark = "subprocess-only" if excused(statement) else "NEVER RUN"
            print(f"{mark}  {statement.module}:{statement.line} "
                  f"({statement.function}) {statement.text}")
            if mark == "NEVER RUN":
                unexcused.append(statement)
    return unexcused


def record(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest here with a line recorder on the package's frames."""
    import pytest

    prefix = str(PACKAGE) + "/"
    hits: dict[str, set[int]] = {}

    def local(frame, event, _arg):
        if event == "line":
            hits.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    def calls(frame, _event, _arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(calls)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
    return int(code), hits


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv) or ["-q", str(ROOT / "tests")]
    sys.path.insert(0, str(ROOT / "src"))
    code, hits = record(args)
    unexcused = report(hits)
    print(f"{len(unexcused)} statement(s) never run outside SUBPROCESS_ONLY")
    if code:
        print(f"pytest exited {code}; its hits are a failing run's")
        return code
    return 1 if unexcused else 0


if __name__ == "__main__":
    sys.exit(main())

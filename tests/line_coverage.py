"""Which function-body lines of ``src/hocofin`` the tier-1 suite never runs.

Runs the tests in this process under a stdlib ``sys.settrace`` hook that
records the lines run in ``src/hocofin``, then compares the statements of
every function body that never ran against ``tests/never_run.txt``, which
gives a reason for each.  It fails when an unrun line has no reason, or
when a listed line now runs (the reason no longer holds, so the entry
goes).  No line counts as run by being listed: the list is checked
against the trace, in both directions.

A line is the first line of a statement inside a function body (at any
depth, methods and nested functions included), leaving out docstrings
and ``global``/``nonlocal``, which run no code.  An entry is keyed by
module, function and the statement's source text, so that it survives
edits elsewhere in the file; a text that occurs twice unrun in one
function is listed twice.

Hypothesis runs derandomized and without its example database, so two
runs trace the same lines.  The file is not collected by pytest, and
tracing makes the suite about four times slower, so it stays out of
tier-1.  It always traces the whole ``tests/`` suite.  Run it from the
repository root::

    python tests/line_coverage.py
"""

import ast
import os
import sys
import threading
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hocofin"
REASONS = Path(__file__).resolve().parent / "never_run.txt"


def body_lines(path):
    """{line: (function qualname, source text)} for the statements of
    every function body in the module at ``path``."""
    text = path.read_text(encoding="utf-8")
    source = text.splitlines()
    out = {}

    def visit(node, qualname, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if in_function:
                    out[child.lineno] = (qualname, source[child.lineno - 1].strip())
                name = child.name if not qualname else qualname + "." + child.name
                visit(child, name, isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)))
                continue
            if in_function and isinstance(child, ast.stmt) and not _runs_nothing(child):
                out[child.lineno] = (qualname, source[child.lineno - 1].strip())
            visit(child, qualname, in_function)

    visit(ast.parse(text), "", False)
    return out


def _runs_nothing(stmt):
    """Docstrings, other bare constants and scope declarations."""
    if isinstance(stmt, (ast.Global, ast.Nonlocal)):
        return True
    return isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)


def read_reasons(path=REASONS):
    """{(module, function, text): reason}, with a Counter of how many
    times each key is listed.  A ``## `` line starts a reason; each entry
    below it reads ``module | function | source text``."""
    reasons, listed = {}, Counter()
    reason = None
    for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if line.startswith("## "):
            reason = line[3:].strip()
        elif line.strip() and not line.startswith("#"):
            parts = [p.strip() for p in line.split(" | ", 2)]
            if len(parts) != 3 or reason is None:
                raise SystemExit("%s:%d: expected 'module | function | text' under a '## ' reason"
                                 % (path.name, n))
            key = tuple(parts)
            reasons[key] = reason
            listed[key] += 1
    return reasons, listed


def trace_tests(pytest_args):
    """Run pytest under the tracer; returns ({file: lines run}, exit code)."""
    import pytest

    hits = {str(p.resolve()): set() for p in PACKAGE.glob("*.py")}
    by_name = {}  # co_filename -> its set in hits, or None outside the package

    def local(frame, event, arg):
        if event == "line":
            by_name[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in by_name:
            by_name[name] = hits.get(os.path.realpath(name))
        return local if by_name[name] is not None else None

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(call)
    sys.settrace(call)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return hits, code


def main():
    # the same examples on every run, so that a line that only generated
    # inputs reach is run on every run or on none
    from hypothesis import settings

    settings.register_profile("line-coverage", derandomize=True, database=None)
    # hypothesis is imported before pytest can rewrite its asserts
    hits, code = trace_tests([str(ROOT / "tests"), "-q", "-p", "no:cacheprovider",
                              "--hypothesis-profile=line-coverage",
                              "-W", "ignore::pytest.PytestAssertRewriteWarning"])
    reasons, listed = read_reasons()
    unrun = Counter()
    total = 0
    per_module = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        lines = body_lines(path)
        total += len(lines)
        for line, (func, text) in sorted(lines.items()):
            if line not in hits[str(path.resolve())]:
                unrun[(path.stem, func, text)] += 1
                per_module[path.stem] += 1
    missing = unrun - listed
    stale = listed - unrun
    print("%d function-body lines in src/hocofin, %d never ran" % (total, sum(unrun.values())))
    print("per module: " + ", ".join("%s %d" % kv for kv in sorted(per_module.items())))
    by_reason = Counter()
    for key, k in (unrun & listed).items():
        by_reason[reasons[key]] += k
    for reason, k in sorted(by_reason.items(), key=lambda kv: -kv[1]):
        print("  %3d  %s" % (k, reason))
    for key, k in sorted(missing.items()):
        print("no reason:  " + " | ".join(key) + ("  (x%d)" % k if k > 1 else ""))
    for key, k in sorted(stale.items()):
        print("now runs:   " + " | ".join(key) + ("  (x%d)" % k if k > 1 else ""))
    if code != 0:
        print("the tests did not pass (pytest exit %s)" % int(code))
    return 1 if missing or stale or code != 0 else 0


if __name__ == "__main__":
    sys.exit(main())

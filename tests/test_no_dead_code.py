"""Every function, class and method of hocofin is used by the program.

A name counts as used when it occurs as a code token in ``src/`` anywhere
but on its own ``def``/``class`` line, or as a whole word in
``perfbench/`` or ``README.md``.  Comments and strings in ``src/`` do not
count, and neither do the tests: code that only tests reach belongs in
``tests/oracles.py``.  Dunder methods are exempt.
"""

import ast
import io
import re
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hocofin"


def _definitions(path):
    """(name, line) of the module-level functions and classes and of the
    methods of those classes."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, kinds):
                    yield item.name, item.lineno


def _code_names(text):
    """(name, line) of every NAME token, so comments and strings are skipped."""
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.NAME:
            yield tok.string, tok.start[0]


def _words(text):
    return re.findall(r"\w+", text)


def test_every_definition_is_referenced():
    defs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for name, line in _definitions(path):
            if not (name.startswith("__") and name.endswith("__")):
                defs[(path, line)] = name
    count = Counter()
    for path in sorted((ROOT / "src").rglob("*.py")):
        for name, line in _code_names(path.read_text(encoding="utf-8")):
            if defs.get((path, line)) != name:
                count[name] += 1
    for path in [ROOT / "README.md"] + sorted((ROOT / "perfbench").rglob("*.py")):
        count.update(_words(path.read_text(encoding="utf-8")))
    unused = ["%s:%d %s" % (path.name, line, name)
              for (path, line), name in defs.items() if not count[name]]
    assert not unused, "defined but never referenced: " + ", ".join(unused)

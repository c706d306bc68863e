"""Every function, class and method of hocofin is used somewhere.

A name counts as used when it occurs as a whole word in ``src/``,
``tests/``, ``perfbench/`` or ``README.md`` anywhere but on its own
``def``/``class`` line.  Dunder methods are exempt.
"""

import ast
import re
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


def _words(text):
    return re.findall(r"\w+", text)


def test_every_definition_is_referenced():
    files = [ROOT / "README.md"]
    for top in ("src", "tests", "perfbench"):
        files += sorted((ROOT / top).rglob("*.py"))
    count = Counter(w for f in files for w in _words(f.read_text(encoding="utf-8")))
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        for name, line in _definitions(path):
            if name.startswith("__") and name.endswith("__"):
                continue
            if count[name] == _words(lines[line - 1]).count(name):
                unused.append("%s:%d %s" % (path.name, line, name))
    assert not unused, "defined but never referenced: " + ", ".join(unused)

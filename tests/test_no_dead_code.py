"""Every function, class and method of hocofin is used by the program.

A name counts as used when it occurs as a code token in ``src/`` anywhere
but on its own ``def``/``class`` line, or as a whole word in
``perfbench/`` or ``README.md``.  Comments and strings in ``src/`` do not
count, and neither do the tests: code that only tests reach belongs in
``tests/oracles.py``.  Dunder methods are exempt.

A word count cannot judge a method whose name several classes define:
``SSetMap.apply`` lost its last caller and still passed, because
``GroupHom.apply`` and ``DSet.apply`` are called.  Those names, with the
classes that define them, are checked in as ``SHARED_METHODS``, so that a
new one shows up for review: a method added under a shared name, and the
callers of every class listed, need reading by hand.
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
    """(name, line, owner) of the module-level functions and classes, owned
    by None, and of the methods of those classes, owned by "module.Class"."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds):
            yield node.name, node.lineno, None
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, kinds):
                    yield item.name, item.lineno, "%s.%s" % (path.stem, node.name)


# method name -> the classes (module.Class) that define it, for each name
# that more than one class defines; subclasses that override count too
SHARED_METHODS = {
    "_check": ("diagrams.Diagram", "fincat.FinCat", "fincat.Functor", "groups.GroupHom",
               "presheaf.DSet", "presheaf.DSetMorphism", "presheaf.SSetMap",
               "presheaf.TruncSSet"),
    "_check_ends": ("diagrams.AbDiagram", "diagrams.GroupDiagram", "hocolim.PointedDiagram"),
    "_check_value": ("diagrams.Diagram", "hocolim.PointedDiagram"),
    "apply": ("groups.GroupHom", "presheaf.DSet"),
    "compose": ("groups.GroupHom", "homalg.AbMap", "presheaf.SSetMap"),
    "equals": ("groups.GroupHom", "homalg.AbMap", "presheaf.SSetMap"),
    "hom": ("fincat.FinCat", "fincat._View"),
    "hom_count": ("fincat.FinCat", "fincat._View"),
    "identity": ("groups.GroupHom", "homalg.AbMap", "presheaf.SSetMap"),
    "predecessors": ("fincat.FinCat", "fincat._View"),
    "successors": ("fincat.FinCat", "fincat._View"),
}


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
        for name, line, _ in _definitions(path):
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


def test_the_method_names_that_several_classes_define_are_checked_in():
    owners = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for name, _, cls in _definitions(path):
            if cls and not (name.startswith("__") and name.endswith("__")):
                owners.setdefault(name, []).append(cls)
    shared = {name: tuple(sorted(classes)) for name, classes in owners.items()
              if len(classes) > 1}
    assert shared == SHARED_METHODS

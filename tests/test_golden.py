"""The JSON reports of ``factorization`` on every fixture category, of
``check-cofinal``, with and without ``--coinitial``, and of ``check-vdc``
on every fixture functor, of ``hocolim`` on every fixture pointed
diagram, of ``pi1`` on every fixture simplicial set and of ``verify`` on
every theorem fixture, byte for byte against ``tests/data/golden``:
stdout of each command in ``<command>.<entity>[.coinitial].json`` (for
``verify``, ``verify.<theorem>.<fixture>.json``) and the exit codes in
``exit_codes.json``.  The ``factorization`` and ``check-cofinal``
reports were recorded while the
factorization category was still built in full and every derived
category was listed at construction, so they pin the ids, order and
tables of the staged views; the ``hocolim`` and ``pi1`` reports were
recorded while every diagonal and nerve wrote its own face and degeneracy
tables, and the 17 ``check-vdc`` reports while the comma-fibre analysis
was still written twice, in ``diagrams`` and in ``cofinal``.  The 61
``verify`` reports were recorded while every simplicial set built all its
face and degeneracy tables at construction; the three ``confhomolBW``
reports were recorded again when they gained ``hypothesis_mode``.

    PYTHONPATH=src python tests/test_golden.py

records them again, only when a report is meant to change.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from hocofin import cli, fixtures

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"


def commands():
    out = [["factorization", "--category", c] for c in fixtures.BUILTINS["categories"]]
    for f in fixtures.BUILTINS["functors"]:
        out += [["check-cofinal", "--functor", f], ["check-cofinal", "--functor", f, "--coinitial"]]
    out += [["check-vdc", "--functor", f] for f in fixtures.BUILTINS["functors"]]
    out += [["hocolim", "--pointed-diagram", p] for p in fixtures.BUILTINS["pointed_diagrams"]]
    out += [["pi1", "--sset", s] for s in fixtures.BUILTINS["ssets"]]
    out += [["verify", "--theorem", t, "--fixture", f]
            for t in cli.THEOREMS for f in fixtures.fixture_names(t)]
    return out


def report(argv):
    """Exit code and JSON stdout of one command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["--format", "json"] + argv)
    return code, out.getvalue()


def golden_file(argv):
    """The command, then the value of each of its options."""
    parts = [argv[0]] + argv[2::2]
    return GOLDEN / ("%s%s.json" % (".".join(parts), ".coinitial" if "--coinitial" in argv else ""))


@pytest.mark.parametrize("argv", commands(), ids=" ".join)
def test_report_is_byte_identical(argv):
    codes = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    assert report(argv) == (codes[" ".join(argv)], golden_file(argv).read_text(encoding="utf-8"))


def test_every_recorded_command_still_runs():
    """11 factorizations, 17 functors checked three ways (``check-cofinal``
    with and without ``--coinitial``, ``check-vdc``), 5 pointed diagrams,
    2 simplicial sets and 61 theorem fixtures."""
    codes = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    assert sorted(codes) == sorted(" ".join(argv) for argv in commands())
    assert len(codes) == 11 + 2 * 17 + 17 + 5 + 2 + 61


if __name__ == "__main__":
    codes = {}
    for argv in commands():
        codes[" ".join(argv)], out = report(argv)
        golden_file(argv).write_text(out, encoding="utf-8")
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n",
                                            encoding="utf-8")
    sys.exit(0)

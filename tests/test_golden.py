"""The JSON reports of ``factorization`` on every fixture category and of
``check-cofinal``, with and without ``--coinitial``, on every fixture
functor, byte for byte against ``tests/data/golden``: stdout of each
command in ``<command>.<entity>[.coinitial].json`` and the exit codes in
``exit_codes.json``.  They were recorded while the factorization category
was still built in full and every derived category was listed at
construction, so they pin the ids, order and tables of the staged views.

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
    return out


def report(argv):
    """Exit code and JSON stdout of one command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["--format", "json"] + argv)
    return code, out.getvalue()


def golden_file(argv):
    return GOLDEN / ("%s.%s%s.json" % (argv[0], argv[2], ".coinitial" if "--coinitial" in argv else ""))


@pytest.mark.parametrize("argv", commands(), ids=" ".join)
def test_report_is_byte_identical(argv):
    codes = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    assert report(argv) == (codes[" ".join(argv)], golden_file(argv).read_text(encoding="utf-8"))


def test_every_recorded_command_still_runs():
    codes = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    assert sorted(codes) == sorted(" ".join(argv) for argv in commands())
    assert len(codes) == 11 + 2 * 17


if __name__ == "__main__":
    codes = {}
    for argv in commands():
        codes[" ".join(argv)], out = report(argv)
        golden_file(argv).write_text(out, encoding="utf-8")
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n",
                                            encoding="utf-8")
    sys.exit(0)

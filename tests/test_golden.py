"""The JSON reports of ``factorization`` on every fixture category, of
``check-cofinal``, with and without ``--coinitial``, and of ``check-vdc``
on every fixture functor, of ``hocolim`` on every fixture pointed
diagram, of ``pi1`` on every fixture simplicial set and of ``verify`` on
every theorem fixture, byte for byte against ``tests/data/golden``:
stdout of each command in ``<command>.<entity>[.coinitial].json`` and
the exit codes in ``exit_codes.json``, except for ``verify``, whose
reports and exit codes are read from their json entries in
``sweep.json`` below, so that each report is recorded once.  The
``factorization`` and ``check-cofinal`` reports were recorded while the
factorization category was still built in full and every derived
category was listed at construction, so they pin the ids, order and
tables of the staged views; the ``hocolim`` and ``pi1`` reports were
recorded while every diagonal and nerve wrote its own face and degeneracy
tables, and the 17 ``check-vdc`` reports while the comma-fibre analysis
was still written twice, in ``diagrams`` and in ``cofinal``.  The 61
``verify`` reports were first recorded while every simplicial set built
all its face and degeneracy tables at construction, in files of their
own, which matched their ``sweep.json`` entries byte for byte when they
were dropped; the three ``confhomolBW`` reports were recorded again when
they gained ``hypothesis_mode``.

``sweep.json`` pins exit code, stdout and stderr of every command of the
benchmark's sweep (``perfbench/workloads.py`` ``sweep_commands``: the
verify fixtures and the README commands) in json and in text mode, keyed
by ``<mode> <command line>``.  A few of them also run in fresh
interpreters, so that state kept between in-process calls (the cached
parser, the workspace builders) cannot hide a difference.  The README
commands read ``demo/``, so the sweep runs from the repository root.
Each ``verify`` command runs once in json mode per test session, and both
its report test and its sweep test read that run.

    PYTHONPATH=src python tests/test_golden.py

records them again, only when a report is meant to change.
"""

import contextlib
import functools
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hocofin import cli, fixtures

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden"
SWEEP = GOLDEN / "sweep.json"


def _workloads():
    """``perfbench/workloads.py``, loaded without putting ``perfbench`` on
    the import path."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sweep_runs():
    """(mode, argv) for every sweep command in json and in text mode."""
    return [(mode, argv) for mode in ("json", "text")
            for _, argv, _ in _workloads().sweep_commands()]


# an exit-3 gate, an exit-2 verdict and a command that reads a workspace file
FRESH = [
    ("text", "check-cofinal --functor final-in-two --coinitial".split()),
    ("json", "verify --theorem cofpointed --fixture noncofinal-a-in-2 --assume-hypothesis".split()),
    ("json", "gz --workspace demo/workspace.json --dset glued-cells --system z-coefficients".split()),
]


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


def run(mode, argv):
    """Exit code, stdout and stderr of one command in-process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["--format", mode] + argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@functools.cache
def run_once(mode, argv):
    """``run`` from the repository root, once per command line (a tuple)
    in a test session: the json run of each ``verify`` command serves both
    ``test_report_is_byte_identical`` and ``test_sweep_is_byte_identical``."""
    with contextlib.chdir(ROOT):
        return run(mode, list(argv))


def sweep_key(mode, argv):
    return "%s %s" % (mode, " ".join(argv))


@functools.cache
def sweep_record():
    return json.loads(SWEEP.read_text(encoding="utf-8"))


def run_id(part):
    return part if isinstance(part, str) else " ".join(part)


def golden_file(argv):
    """The command, then the value of each of its options."""
    parts = [argv[0]] + argv[2::2]
    return GOLDEN / ("%s%s.json" % (".".join(parts), ".coinitial" if "--coinitial" in argv else ""))


def recorded(argv):
    """Exit code and json stdout recorded for a command: a ``verify``
    report's from its json entry in ``sweep.json``, any other's from
    ``exit_codes.json`` and its golden file."""
    if argv[0] == "verify":
        entry = sweep_record()[sweep_key("json", argv)]
        return entry["exit"], entry["stdout"]
    codes = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    return codes[" ".join(argv)], golden_file(argv).read_text(encoding="utf-8")


@pytest.mark.parametrize("argv", commands(), ids=" ".join)
def test_report_is_byte_identical(argv):
    got = run_once("json", tuple(argv)) if argv[0] == "verify" else run("json", argv)
    assert (got["exit"], got["stdout"]) == recorded(argv)


def test_every_recorded_command_still_runs():
    """11 factorizations, 17 functors checked three ways (``check-cofinal``
    with and without ``--coinitial``, ``check-vdc``), 5 pointed diagrams
    and 2 simplicial sets in ``exit_codes.json``, and 61 theorem fixtures
    in ``sweep.json``, with no golden file of their own."""
    codes = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    verify = [argv for argv in commands() if argv[0] == "verify"]
    assert sorted(codes) == sorted(" ".join(argv) for argv in commands() if argv not in verify)
    assert len(codes) == 11 + 2 * 17 + 17 + 5 + 2
    assert len(verify) == 61
    assert all(sweep_key("json", argv) in sweep_record() for argv in verify)
    assert not list(GOLDEN.glob("verify.*"))


@pytest.mark.parametrize("mode, argv", sweep_runs(), ids=run_id)
def test_sweep_is_byte_identical(mode, argv):
    assert run_once(mode, tuple(argv)) == sweep_record()[sweep_key(mode, argv)]


@pytest.mark.parametrize("mode, argv", FRESH, ids=run_id)
def test_sweep_in_a_fresh_interpreter(mode, argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    got = subprocess.run([sys.executable, "-m", "hocofin.cli", "--format", mode] + argv,
                         cwd=ROOT, env=env, capture_output=True, text=True, check=False)
    assert ({"exit": got.returncode, "stdout": got.stdout, "stderr": got.stderr}
            == sweep_record()[sweep_key(mode, argv)])


def test_the_sweep_record_names_every_sweep_command():
    """61 verify fixtures and 19 README commands, each in two modes."""
    assert sorted(sweep_record()) == sorted(sweep_key(mode, argv) for mode, argv in sweep_runs())
    assert len(sweep_record()) == 2 * (61 + 19)


if __name__ == "__main__":
    os.chdir(ROOT)
    sweep = {sweep_key(mode, argv): run(mode, argv) for mode, argv in sweep_runs()}
    SWEEP.write_text(json.dumps(sweep, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    codes = {}
    for argv in commands():
        if argv[0] == "verify":
            continue
        got = run("json", argv)
        codes[" ".join(argv)] = got["exit"]
        golden_file(argv).write_text(got["stdout"], encoding="utf-8")
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n",
                                            encoding="utf-8")
    sys.exit(0)

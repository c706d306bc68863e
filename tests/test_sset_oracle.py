"""Simplicial sets built by construction skip the simplicial-identity
check: nerves (``presheaf.nerve``) and the diagonals of homotopy colimits
(``hocolim_pointed``, ``hocolim_unpointed``).  Here the check runs on
what they build, as the oracle: every set built while the sweep's hocolim
commands run, every fixture pointed diagram at levels 3 and 4, the nerves
of the fixture categories and of generated categories."""

import contextlib
import io
from unittest import mock

from hypothesis import given, settings
from test_cofinal_reduction import categories

from hocofin import cli, fixtures, presheaf
from hocofin.hocolim import bg_diagram, hocolim_pointed, hocolim_unpointed
from hocofin.presheaf import TruncSSet, nerve


def unchecked_sets(monkeypatch):
    """Record every simplicial set built without its check."""
    made = []

    class Recording(TruncSSet):
        __slots__ = ()

        def __init__(self, *args, _validate=True, **kwargs):
            super().__init__(*args, _validate=_validate, **kwargs)
            if not _validate:
                made.append(self)

    monkeypatch.setattr(presheaf, "TruncSSet", Recording)
    return made


def test_the_sweeps_hocolim_commands(monkeypatch):
    made = unchecked_sets(monkeypatch)
    argvs = [["hocolim", "--pointed-diagram", "bg-span-z2-z3", "--level", "3", "--nmax", "2"]]
    for theorem in ("lcodecar", "cofpointed", "main2-n0"):
        argvs += [["verify", "--theorem", theorem, "--fixture", name]
                  for name in fixtures.fixture_names(theorem)]
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [cli.main(argv) for argv in argvs]
    assert set(codes) <= {0, 2, 3}
    assert len(made) > len(argvs)
    for X in made:
        X._check()


def fixture_pointed_diagrams(level):
    with mock.patch.object(fixtures, "POINTED_LEVEL", level):
        out = [make() for make in fixtures.POINTED_DIAGRAMS.values()]
    for theorem in ("cofpointed", "main2-n0"):
        for name in fixtures.fixture_names(theorem):
            fx = fixtures.load_fixture(theorem, name)
            if "group_diagram" in fx:
                out.append(bg_diagram(fx["group_diagram"], level))
    return out


def test_the_fixture_pointed_diagrams_at_levels_3_and_4():
    for level in (3, 4):
        for PD in fixture_pointed_diagrams(level):
            hocolim_pointed(PD, level)._check()
            hocolim_unpointed(PD, level)._check()


def test_the_nerves_of_the_fixture_categories():
    for make in fixtures.CATEGORIES.values():
        C = make()
        nerve(C, 3)._check()
        nerve(C, 2, basepoint=C.objects[0])._check()


@settings(max_examples=60, deadline=None)
@given(categories)
def test_the_nerves_of_generated_categories(C):
    nerve(C, 3, basepoint=C.objects[0])._check()

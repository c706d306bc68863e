"""Tietze-simplified presentations, generator for generator and letter
for letter, against ``tests/data/golden/tietze.json``.

Fingerprints cannot tell two equivalent presentations apart, so the π₁
reports pin only hom counts.  This file pins the presentation itself
that ``tietze_simplify`` returns for

- the edge-path presentation of the level-3 nerve of every catalog group;
- the edge-path presentation of ``hocolim_pointed(bg_diagram(G, 4), 4)``
  for each ``main2-n0`` fixture;
- the edge-path presentation of ``hocolim_pointed(PD, POINTED_LEVEL)``
  for each fixture pointed diagram;

and ``colim0`` of every group-diagram fixture.  The file was recorded
while every elimination round still rewrote and canonicalized every
relator.

    PYTHONPATH=src python tests/test_tietze_golden.py

records it again, only when a presentation is meant to change.
"""

import json
from pathlib import Path

import pytest

from hocofin import fixtures
from hocofin.diagrams import colim0
from hocofin.groups import catalog, tietze_simplify
from hocofin.hocolim import bg_diagram, classifying_space, hocolim_pointed
from hocofin.presheaf import edge_path_group

GOLDEN = Path(__file__).resolve().parent / "data" / "golden" / "tietze.json"
MAIN2_LEVEL = 4


def _simplified(space):
    return lambda: tietze_simplify(edge_path_group(space()))


def _main2(name):
    G = fixtures.load_fixture("main2-n0", name)["group_diagram"]
    return hocolim_pointed(bg_diagram(G, MAIN2_LEVEL), MAIN2_LEVEL)


def _colim0(builder):
    def build():
        G = builder()
        return colim0(G.base, G)
    return build


def cases():
    """{key: builder of the presentation recorded under that key}."""
    out = {}
    for T in catalog():
        out["nerve/%s" % T.name] = _simplified(lambda T=T: classifying_space(T, 3)[1])
    for name in fixtures.THEOREM_FIXTURES["main2-n0"]:
        out["main2-n0/%s" % name] = _simplified(lambda name=name: _main2(name))
    for name, builder in fixtures.POINTED_DIAGRAMS.items():
        out["pointed/%s" % name] = _simplified(
            lambda b=builder: hocolim_pointed(b(), fixtures.POINTED_LEVEL))
    for name, builder in fixtures.DIAGRAMS.items():
        out["colim0/%s" % name] = _colim0(builder)
    return out


def as_json(P):
    return {"generators": list(P.generators),
            "relators": [[[g, e] for g, e in rel] for rel in P.relators]}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_every_case_is_recorded(golden):
    assert sorted(golden) == sorted(cases())


@pytest.mark.parametrize("key", sorted(cases()))
def test_presentation_is_identical(golden, key):
    assert as_json(cases()[key]()) == golden[key]


if __name__ == "__main__":
    # one presentation per line
    lines = ["%s: %s" % (json.dumps(key), json.dumps(as_json(build())))
             for key, build in sorted(cases().items())]
    GOLDEN.write_text("{\n%s\n}\n" % ",\n".join(lines), encoding="utf-8")
    print("recorded %d presentations in %s" % (len(lines), GOLDEN))

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hocofin import cli, fixtures
from hocofin._jsonio import InputError, Workspace
from hocofin.cli import main


DEMO = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "demo", "workspace.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# the point as a level-1 simplicial set: vertex v and its degenerate edge sv
POINT = {
    "level": 1,
    "simplices": [["v"], ["sv"]],
    "faces": {"1,0": {"sv": "v"}, "1,1": {"sv": "v"}},
    "degeneracies": {"0,0": {"v": "sv"}},
    "basepoint": "v",
}

GOOD_WORKSPACE = {
    "categories": {
        "two": {
            "objects": ["a", "b"],
            "morphisms": [{"id": "u", "dom": "a", "cod": "b"}],
            "composition": [],
        },
        "one": {"objects": ["*"], "morphisms": [], "composition": []},
    },
    "functors": {
        "inc-b": {"source": "one", "target": "two", "objects": {"*": "b"}},
    },
    "groups": {
        "z2": {
            "kind": "table",
            "elements": ["0", "1"],
            "unit": "0",
            "table": [["0", "1"], ["1", "0"]],
        }
    },
    "presentations": {
        "p": {"kind": "presentation", "generators": ["x"], "relators": [["x", "x"]]}
    },
    "diagrams": {
        "d": {
            "category": "two",
            "groups": {"a": {"ref": "z2", "label": "A"}, "b": {"ref": "z2", "label": "A"}},
            "homs": {"u": {"A.1": [["A", "1"]]}},
        }
    },
    "abdiagrams": {
        "m": {
            "category": "two",
            "values": {"a": {"gens": 1}, "b": {"gens": 1}},
            "maps": {"u": {"rows": 1, "cols": 1, "data": ["2"]}},
        }
    },
    "dsets": {
        "hb": {
            "category": "two",
            "sets": {"a": ["u"], "b": ["ib"]},
            "maps": {"u": {"ib": "u"}},
        }
    },
    "dsetmaps": {
        "idhb": {
            "source": "hb",
            "target": "hb",
            "components": {"a": {"u": "u"}, "b": {"ib": "ib"}},
        }
    },
    "ssets": {"pt": POINT},
    "pointed_diagrams": {
        "pd": {"category": "two", "level": 1, "values": {"a": POINT, "b": POINT},
               "maps": {"u": [{"v": "v"}, {"sv": "sv"}]}},
        "bgd": {"kind": "bg", "diagram": "d", "level": 2},
    },
    "systems": {
        "s": {"over": {"kind": "elements-op", "dset": "hb"}, "constant_abelian": {"gens": 1}},
        "ns": {"over": {"kind": "factorization-op", "category": "two"},
               "constant_abelian": {"gens": 1}},
    },
}


@pytest.fixture()
def ws_file(tmp_path):
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(GOOD_WORKSPACE), encoding="utf-8")
    return str(path)


def test_validate_good_workspace(capsys, ws_file):
    code, out = run(capsys, "validate", ws_file)
    assert code == 0
    assert "two" in out


def test_validate_missing_composite(capsys, tmp_path):
    bad = {
        "objects": ["a", "b", "c"],
        "morphisms": [
            {"id": "f", "dom": "a", "cod": "b"},
            {"id": "g", "dom": "b", "cod": "c"},
        ],
        "composition": [],
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(bad), encoding="utf-8")
    code = main(["validate", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "MissingComposite" in err


def test_validate_rejects_unknown_keys(capsys, tmp_path):
    bad = {"objects": ["a"], "morphisms": [], "composition": [], "extra": 1}
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(bad), encoding="utf-8")
    code = main(["validate", str(path)])
    assert code == 1
    assert "unknown keys" in capsys.readouterr().err


MALFORMED = {
    "top-level-array": ([GOOD_WORKSPACE], "must hold a JSON object"),
    "section-not-an-object": ({"categories": []}, "section categories must be a JSON object"),
    "morphisms-not-a-list": (
        {"objects": ["a"], "morphisms": 5, "composition": []},
        "category morphisms must be a JSON array",
    ),
    "system-diagram-key": (
        dict(GOOD_WORKSPACE, systems={"s": {
            "over": {"kind": "factorization-op", "category": "two"}, "diagram": {},
        }}),
        "system has unknown keys: diagram",
    ),
    "group-not-an-object": (
        dict(GOOD_WORKSPACE, groups={"z2": 5}),
        "group must be a JSON object",
    ),
    "matrix-data-length": (
        dict(GOOD_WORKSPACE, abdiagrams={"m": dict(
            GOOD_WORKSPACE["abdiagrams"]["m"], maps={"u": {"rows": 1, "cols": 1, "data": ["2", "3"]}},
        )}),
        "matrix data has 2 entries, rows*cols is 1",
    ),
    "gens-not-an-integer": (
        dict(GOOD_WORKSPACE, abdiagrams={"m": dict(
            GOOD_WORKSPACE["abdiagrams"]["m"], values={"a": {"gens": "x"}, "b": {"gens": 1}},
        )}),
        "abelian group gens must be an integer",
    ),
    "map-on-object-without-value": (
        dict(GOOD_WORKSPACE, abdiagrams={"m": dict(
            GOOD_WORKSPACE["abdiagrams"]["m"], values={"b": {"gens": 1}},
        )}),
        "abelian diagram misses a value at a",
    ),
    "functor-objects-not-an-object": (
        dict(GOOD_WORKSPACE, functors={"inc-b": dict(GOOD_WORKSPACE["functors"]["inc-b"], objects=5)}),
        "functor objects must be a JSON object",
    ),
    "functor-morphisms-not-an-object": (
        dict(GOOD_WORKSPACE, functors={"inc-b": dict(GOOD_WORKSPACE["functors"]["inc-b"], morphisms=[])}),
        "functor morphisms must be a JSON object",
    ),
    "dset-sets-not-an-object": (
        dict(GOOD_WORKSPACE, dsets={"hb": dict(GOOD_WORKSPACE["dsets"]["hb"], sets=5)}),
        "presheaf sets must be a JSON object",
    ),
    "dset-set-not-a-list": (
        dict(GOOD_WORKSPACE, dsets={"hb": dict(GOOD_WORKSPACE["dsets"]["hb"], sets={"a": 5, "b": ["ib"]})}),
        "presheaf set at a must be a JSON array",
    ),
    "dset-maps-not-an-object": (
        dict(GOOD_WORKSPACE, dsets={"hb": dict(GOOD_WORKSPACE["dsets"]["hb"], maps=5)}),
        "presheaf maps must be a JSON object",
    ),
    "dset-map-not-an-object": (
        dict(GOOD_WORKSPACE, dsets={"hb": dict(GOOD_WORKSPACE["dsets"]["hb"], maps={"u": 5})}),
        "presheaf map at u must be a JSON object",
    ),
    "dsetmap-components-not-an-object": (
        dict(GOOD_WORKSPACE, dsetmaps={"idhb": dict(GOOD_WORKSPACE["dsetmaps"]["idhb"], components=5)}),
        "presheaf morphism components must be a JSON object",
    ),
    "dsetmap-component-not-an-object": (
        dict(GOOD_WORKSPACE, dsetmaps={"idhb": dict(
            GOOD_WORKSPACE["dsetmaps"]["idhb"], components={"a": 5, "b": {"ib": "ib"}},
        )}),
        "component at a must be a JSON object",
    ),
    "presentation-generators-not-a-list": (
        dict(GOOD_WORKSPACE, presentations={"p": dict(GOOD_WORKSPACE["presentations"]["p"], generators=5)}),
        "presentation generators must be a JSON array",
    ),
    "presentation-relators-not-a-list": (
        dict(GOOD_WORKSPACE, presentations={"p": dict(GOOD_WORKSPACE["presentations"]["p"], relators=5)}),
        "presentation relators must be a JSON array",
    ),
    "relator-not-a-list": (
        dict(GOOD_WORKSPACE, presentations={"p": dict(GOOD_WORKSPACE["presentations"]["p"], relators=[5])}),
        "relator must be a JSON array",
    ),
    **{
        "relator-letter-" + case: (
            dict(GOOD_WORKSPACE, presentations={"p": dict(
                GOOD_WORKSPACE["presentations"]["p"], relators=[["x", letter]],
            )}),
            "relator letter must be a string or a [string, 1 or -1] pair",
        )
        for case, letter in (
            ("a-number", 5),
            ("null", None),
            ("short-pair", ["x"]),
            ("long-pair", ["x", 2, 3]),
            ("boolean-exponent", ["x", True]),
        )
    },
    **{
        "presentation-generator-" + case: (
            dict(GOOD_WORKSPACE, presentations={"p": {
                "kind": "presentation", "generators": [generator], "relators": [],
            }}),
            "presentation generator must be a string",
        )
        for case, generator in (("a-list", ["x"]), ("a-number", 5), ("null", None))
    },
    "group-element-a-list": (
        dict(GOOD_WORKSPACE, groups={"z2": dict(GOOD_WORKSPACE["groups"]["z2"], elements=["0", ["1"]])}),
        'group element must be a string or a number, not ["1"]',
    ),
    "group-table-entry-a-list": (
        dict(GOOD_WORKSPACE, groups={"z2": dict(
            GOOD_WORKSPACE["groups"]["z2"], table=[["0", "1"], ["1", ["0"]]],
        )}),
        'group table entry must be a string or a number, not ["0"]',
    ),
    "dset-set-element-a-list": (
        dict(GOOD_WORKSPACE, dsets={"hb": dict(GOOD_WORKSPACE["dsets"]["hb"], sets={"a": [["u"]], "b": ["ib"]})}),
        'presheaf set element at a must be a string or a number, not ["u"]',
    ),
    **{
        "dset-map-value-" + case: (
            dict(GOOD_WORKSPACE, dsets={"hb": dict(GOOD_WORKSPACE["dsets"]["hb"], maps={"u": {"ib": value}})}),
            "presheaf map at u value must be a string or a number, not " + json.dumps(value),
        )
        for case, value in (("a-list", ["u"]), ("an-object", {"u": 1}))
    },
    "dsetmap-component-value-a-list": (
        dict(GOOD_WORKSPACE, dsetmaps={"idhb": dict(
            GOOD_WORKSPACE["dsetmaps"]["idhb"], components={"a": {"u": ["u"]}, "b": {"ib": "ib"}},
        )}),
        'component at a value must be a string or a number, not ["u"]',
    ),
    "hom-key-naming-no-letter": (
        dict(GOOD_WORKSPACE, diagrams={"d": dict(
            GOOD_WORKSPACE["diagrams"]["d"], homs={"u": {"A.1": [["A", "1"]], "g": [["A", "1"]]}},
        )}),
        "hom at u has keys naming no letter of its source: g",
    ),
    **{
        "sset-" + case: (dict(GOOD_WORKSPACE, ssets={"pt": dict(POINT, **change)}), message)
        for case, change, message in (
            ("level-not-an-integer", {"level": "two"}, "simplicial set level must be an integer"),
            ("faces-not-an-object", {"faces": []}, "simplicial set faces must be a JSON object"),
            ("face-key-not-n-comma-i", {"faces": {"1": {"sv": "v"}, "1,1": {"sv": "v"}}},
             'simplicial set faces key \'1\' must be "n,i"'),
            ("simplices-not-a-list", {"simplices": 5}, "simplicial set simplices must be a JSON array"),
            ("simplex-not-a-string", {"simplices": [[["v"]], ["sv"]]},
             "simplices of degree 0 must be simplex ids"),
            ("face-value-not-a-string", {"faces": {"1,0": {"sv": ["v"]}, "1,1": {"sv": "v"}}},
             "simplicial set faces 1,0 must map to simplex ids"),
            ("face-key-above-the-level", {"faces": dict(POINT["faces"], **{"7,3": {"zz": "q"}})},
             "simplicial set faces key '7,3' names no map of a level-1 set"),
            ("face-index-above-the-degree", {"faces": dict(POINT["faces"], **{"1,2": {"sv": "v"}})},
             "simplicial set faces key '1,2' names no map of a level-1 set"),
            ("face-key-in-degree-0", {"faces": dict(POINT["faces"], **{"0,0": {"v": "v"}})},
             "simplicial set faces key '0,0' names no map of a level-1 set"),
            ("degeneracy-key-at-the-level", {"degeneracies": {"0,0": {"v": "sv"}, "1,0": {"sv": "s"}}},
             "simplicial set degeneracies key '1,0' names no map of a level-1 set"),
            ("degeneracy-index-above-the-degree", {"degeneracies": {"0,0": {"v": "sv"}, "0,1": {"v": "sv"}}},
             "simplicial set degeneracies key '0,1' names no map of a level-1 set"),
        )
    },
    "free-product-factor-without-label": (
        dict(GOOD_WORKSPACE, diagrams={"d": dict(GOOD_WORKSPACE["diagrams"]["d"], groups={
            "a": {"kind": "free_product", "factors": [{"group": GOOD_WORKSPACE["groups"]["z2"]}]},
            "b": {"ref": "z2", "label": "A"},
        })}),
        "free product factor misses keys: label",
    ),
    "hom-word-not-a-list": (
        dict(GOOD_WORKSPACE, diagrams={"d": dict(GOOD_WORKSPACE["diagrams"]["d"], homs={"u": {"A.1": 5}})}),
        "hom at u must be a JSON array",
    ),
    "hom-letter-not-a-pair": (
        dict(GOOD_WORKSPACE, diagrams={"d": dict(
            GOOD_WORKSPACE["diagrams"]["d"], homs={"u": {"A.1": [["A", ["1"]]]}},
        )}),
        "hom at u letter must be a [label, element] pair",
    ),
    "hom-letter-unknown-element": (
        dict(GOOD_WORKSPACE, diagrams={"d": dict(
            GOOD_WORKSPACE["diagrams"]["d"], homs={"u": {"A.1": [["A", "7"]]}},
        )}),
        "unknown element 7 in factor A",
    ),
    "pointed-diagram-map-on-unknown-morphism": (
        dict(GOOD_WORKSPACE, pointed_diagrams={"pd": dict(
            GOOD_WORKSPACE["pointed_diagrams"]["pd"], maps={"zz": [{"v": "v"}, {"sv": "sv"}]},
        )}),
        "pointed diagram references unknown morphism zz",
    ),
    "pointed-diagram-unknown-kind": (
        dict(GOOD_WORKSPACE, pointed_diagrams={"pd": dict(
            GOOD_WORKSPACE["pointed_diagrams"]["pd"], kind="no-such-kind",
        )}),
        'unknown pointed diagram kind "no-such-kind"',
    ),
    "pointed-diagram-level-not-an-integer": (
        dict(GOOD_WORKSPACE, pointed_diagrams={"pd": dict(GOOD_WORKSPACE["pointed_diagrams"]["pd"], level="z")}),
        "pointed diagram level must be an integer",
    ),
    "reference-not-a-string": (
        dict(GOOD_WORKSPACE, functors={"inc-b": dict(GOOD_WORKSPACE["functors"]["inc-b"], source=["one"])}),
        "categories are named by strings",
    ),
    **{
        "system-" + case: (
            dict(GOOD_WORKSPACE, systems={"s": {"over": over, "constant_abelian": {"gens": 1}}}),
            message,
        )
        for case, over, message in (
            ("elements-op-without-dset", {"kind": "elements-op"},
             "system base over elements misses keys: dset"),
            ("elements-op-with-a-category", {"kind": "elements-op", "dset": "hb", "category": "two"},
             "system base over elements has unknown keys: category"),
            ("factorization-op-with-a-dset", {"kind": "factorization-op", "category": "two", "dset": "hb"},
             "system base over a factorization has unknown keys: dset"),
        )
    },
    "category-object-not-a-string": (
        dict(GOOD_WORKSPACE, categories=dict(GOOD_WORKSPACE["categories"], one={
            "objects": [1], "morphisms": [], "composition": [],
        })),
        "category object must be a string, not 1",
    ),
    "morphism-id-not-a-string": (
        dict(GOOD_WORKSPACE, categories=dict(GOOD_WORKSPACE["categories"], two=dict(
            GOOD_WORKSPACE["categories"]["two"], morphisms=[{"id": ["u"], "dom": "a", "cod": "b"}],
        ))),
        'morphism id must be a string, not ["u"]',
    ),
    "composition-entry-not-a-string": (
        dict(GOOD_WORKSPACE, categories=dict(GOOD_WORKSPACE["categories"], two=dict(
            GOOD_WORKSPACE["categories"]["two"], composition=[{"g": ["u"], "f": "id_a", "eq": "u"}],
        ))),
        'composition entry g must be a string, not ["u"]',
    ),
    "functor-object-image-not-a-target-object": (
        dict(GOOD_WORKSPACE, functors={"inc-b": dict(GOOD_WORKSPACE["functors"]["inc-b"], objects={"*": "zz"})}),
        "UnknownObject: object * has no valid image",
    ),
    "functor-object-image-not-a-string": (
        dict(GOOD_WORKSPACE, functors={"inc-b": dict(GOOD_WORKSPACE["functors"]["inc-b"], objects={"*": ["b"]})}),
        'functor object image must be a string, not ["b"]',
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_workspace_is_a_one_line_error(case, capsys, tmp_path):
    data, message = MALFORMED[case]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code = main(["validate", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert message in err


def one_line_error(capsys, data, tmp_path, *argv):
    """Exit code and stderr of a command on a workspace file holding
    ``data``; ``validate`` when no command is given."""
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code = main(list(argv) + ["--workspace", str(path)] if argv else ["validate", str(path)])
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return code, err


def ab_values(value):
    return dict(GOOD_WORKSPACE, abdiagrams={"m": dict(
        GOOD_WORKSPACE["abdiagrams"]["m"], values={"a": value, "b": {"gens": 1}},
    )})


OVER_LIMIT = {
    "gens": (dict(GOOD_WORKSPACE, systems={"ns": {
        "over": {"kind": "factorization-op", "category": "two"},
        "constant_abelian": {"gens": 200000}}}),
        "abelian group gens is 200000, over the limit of 4096"),
    "matrix-rows": (ab_values({"gens": 1, "rels": {"rows": 5000, "cols": 0, "data": []}}),
                    "matrix rows is 5000, over the limit of 4096"),
    "matrix-cols": (ab_values({"gens": 1, "rels": {"rows": 1, "cols": 10 ** 9, "data": []}}),
                    "matrix cols is 1000000000, over the limit of 4096"),
    "sset-level": (dict(GOOD_WORKSPACE, ssets={"pt": dict(POINT, level=7)}),
                   "simplicial set level is 7, over the limit of 6"),
    "pointed-diagram-level": (
        dict(GOOD_WORKSPACE, pointed_diagrams={"pd": dict(GOOD_WORKSPACE["pointed_diagrams"]["pd"],
                                                          level=7)}),
        "pointed diagram level is 7, over the limit of 6"),
    "bg-level": (dict(GOOD_WORKSPACE, pointed_diagrams={"bgd": {"kind": "bg", "diagram": "d",
                                                                "level": 10 ** 6}}),
                 "pointed diagram level is 1000000, over the limit of 6"),
}


@pytest.mark.parametrize("case", sorted(OVER_LIMIT))
def test_a_size_over_its_limit_is_a_one_line_error(case, capsys, tmp_path):
    data, message = OVER_LIMIT[case]
    code, err = one_line_error(capsys, data, tmp_path)
    assert code == 1 and message in err


def test_sizes_at_their_limits_are_read(capsys, tmp_path):
    data = dict(GOOD_WORKSPACE, systems={"ns": {
        "over": {"kind": "factorization-op", "category": "two"},
        "constant_abelian": {"gens": 4096, "rels": {"rows": 4096, "cols": 0, "data": []}}}},
        pointed_diagrams={"bgd": {"kind": "bg", "diagram": "d", "level": 6}})
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["validate", str(path)]) == 0
    capsys.readouterr()


# derived ids formatted from names that hold separators of the id formats can
# coincide: "[x,y,z:id_*->0]" names both (x,y ; z) and (x ; y,z) in the
# factorization category, and "[u:(a|p)->(b|q)->(b|r)]" two morphisms of a
# category of elements
ZERO_MONOID = {"categories": {"zero": {
    "objects": ["*"],
    "morphisms": [{"id": e, "dom": "*", "cod": "*"} for e in ("x,y", "z", "x", "y,z", "0")],
    "composition": [{"g": a, "f": b, "eq": "0"}
                    for a in ("x,y", "z", "x", "y,z", "0") for b in ("x,y", "z", "x", "y,z", "0")],
}}}
ELEMENTS_THAT_COLLIDE = {
    "categories": {"two": GOOD_WORKSPACE["categories"]["two"]},
    "dsets": {"x": {"category": "two", "sets": {"a": ["p", "p)->(b|q"], "b": ["q)->(b|r", "r"]},
                    "maps": {"u": {"q)->(b|r": "p", "r": "p)->(b|q"}}}},
    "systems": {"s": {"over": {"kind": "elements-op", "dset": "x"},
                      "constant_abelian": {"gens": 1}}},
}


@pytest.mark.parametrize("data, argv, message", [
    (ZERO_MONOID, ["factorization", "--category", "zero"],
     "error: DanglingId: morphism id [x,y,z:id_*->0] duplicates another (identities are reserved)\n"),
    (ELEMENTS_THAT_COLLIDE, [],
     "error: DanglingId: morphism id [u:(a|p)->(b|q)->(b|r)] duplicates another\n"),
    (ELEMENTS_THAT_COLLIDE, ["gz", "--dset", "x", "--system", "s"],
     "error: DanglingId: morphism id [u:(a|p)->(b|q)->(b|r)] duplicates another\n"),
])
def test_derived_ids_that_coincide_are_a_one_line_error(data, argv, message, capsys, tmp_path):
    assert one_line_error(capsys, data, tmp_path, *argv) == (1, message)


def test_workspace_commands(capsys, ws_file):
    code, out = run(capsys, "colim0", "--workspace", ws_file, "--diagram", "d")
    assert code == 0
    code, out = run(capsys, "homology", "--workspace", ws_file, "--diagram", "m",
                    "--abelian", "--nmax", "2")
    assert code == 0
    assert "['Z', '0', '0']" in out
    code, out = run(capsys, "gz", "--workspace", ws_file, "--dset", "hb",
                    "--system", "s", "--nmax", "1")
    assert code == 0
    code, out = run(capsys, "bw", "--workspace", ws_file, "--category", "two",
                    "--system", "ns", "--nmax", "1")
    assert code == 0
    code, out = run(capsys, "check-cofinal", "--workspace", ws_file, "--functor", "inc-b")
    assert code == 0
    code, out = run(capsys, "fingerprint", "--workspace", ws_file, "--presentation", "p")
    assert code == 0


WRONG_BASE = {
    "bw-system-over-another-factorization": (
        ["bw", "--category", "one", "--system", "ns"],
        "error: system is not over the opposite factorization category of one\n",
    ),
    "bw-system-over-elements": (
        ["bw", "--category", "two", "--system", "s"],
        "error: system is not over the opposite factorization category of two\n",
    ),
    "gz-system-over-a-factorization": (
        ["gz", "--dset", "hb", "--system", "ns"],
        "error: system is not over the opposite category of elements of hb\n",
    ),
    "kan-extend-diagram-off-the-source": (
        ["kan-extend", "--functor", "inc-b", "--diagram", "m", "--abelian"],
        "error: DiagramError: diagram is not over the source category of inc-b\n",
    ),
    "andre-diagram-off-the-base": (
        ["andre", "--dset", "hb", "--diagram", "m1", "--abelian"],
        "error: DiagramError: diagram is not over the base category of hb\n",
    ),
}


@pytest.mark.parametrize("case", sorted(WRONG_BASE))
def test_coefficients_over_the_wrong_base_are_one_line_errors(case, capsys, tmp_path):
    argv, message = WRONG_BASE[case]
    data = dict(GOOD_WORKSPACE, abdiagrams=dict(
        GOOD_WORKSPACE["abdiagrams"], m1={"category": "one", "values": {"*": {"gens": 1}}, "maps": {}},
    ))
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code = main(argv + ["--workspace", str(path)])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err == message


def _nodes(value, path=()):
    """Paths to every node of a JSON value, the root included."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _nodes(child, path + (key,))


def _replaced(value, path, new):
    if not path:
        return new
    value = dict(value) if isinstance(value, dict) else list(value)
    value[path[0]] = _replaced(value[path[0]], path[1:], new)
    return value


# small integers only: a size such as gens or level is not capped by the
# reader, and a large one is a resource question, not a malformed input
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.floats(-2, 3, width=16)
    | st.sampled_from(["a", "b", "*", "u", "id_a", "two", "one", "z2", "A", "0", "1", "hb", "d", "v"])
    | st.text(max_size=3),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(list(_nodes(GOOD_WORKSPACE))), json_values)
def test_one_replaced_node_is_accepted_or_one_line_error(path, value):
    data = _replaced(GOOD_WORKSPACE, path, value)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        file = os.path.join(tmp, "ws.json")
        with open(file, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["validate", file])
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert code == 1 and out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, err.getvalue()


def test_workspace_errors_name_one_entry_of_the_section():
    ws = Workspace()
    ws.load_data(GOOD_WORKSPACE)
    with pytest.raises(InputError, match="^unknown category 'nope'$"):
        ws.get("categories", "nope")
    with pytest.raises(InputError, match="^unknown pointed diagram 'nope'$"):
        ws.get("pointed_diagrams", "nope")
    with pytest.raises(InputError, match="^duplicate category name 'two'$"):
        ws.load_data({"categories": {"two": GOOD_WORKSPACE["categories"]["two"]}})


def test_builtin_workspace_loads_everything():
    ws = Workspace()
    fixtures.register_builtins(ws)
    names = ws.validate_all()
    assert names == {section: sorted(table) for section, table in fixtures.BUILTINS.items()}
    for section in ws.SECTIONS:
        for name in names[section]:
            assert ws.get(section, name) is not None


def test_workspace_builds_an_entry_once_and_on_first_use():
    built = []
    ws = Workspace()
    ws.register("groups", "g", lambda: built.append("g") or "G")
    assert built == []
    assert ws.get("groups", "g") == ws.get("groups", "g") == "G"
    assert built == ["g"]


@pytest.mark.parametrize("order", ["file-first", "builtin-first"])
def test_a_name_in_a_file_and_in_the_builtins_is_refused(order, capsys, tmp_path):
    path = tmp_path / "two.json"
    path.write_text(json.dumps({"categories": {"two": GOOD_WORKSPACE["categories"]["two"]}}),
                    encoding="utf-8")
    sources = [str(path), "builtin"] if order == "file-first" else ["builtin", str(path)]
    argv = ["factorization", "--category", "two"]
    for source in sources:
        argv += ["--workspace", source]
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err == "error: InputError: duplicate category name 'two'\n"


def test_two_bare_category_files_clash_on_main(capsys, tmp_path):
    paths = []
    for name in ("one", "two"):
        path = tmp_path / ("%s.json" % name)
        path.write_text(json.dumps(GOOD_WORKSPACE["categories"][name]), encoding="utf-8")
        paths.append(str(path))
    code, out = run(capsys, "factorization", "--workspace", paths[0], "--category", "main")
    assert code == 0 and "category: main" in out
    code = main(["factorization", "--workspace", paths[0], "--workspace", paths[1],
                 "--category", "main"])
    assert code == 1
    assert capsys.readouterr().err == "error: InputError: duplicate category name 'main'\n"


def test_a_builtin_command_builds_only_what_it_names(capsys, monkeypatch):
    calls = []

    def spy(name, original):
        def wrapped(*args, **kwargs):
            calls.append((name, kwargs.get("name")))
            return original(*args, **kwargs)
        return wrapped

    for name in ("bg_diagram", "factorization", "validate_category"):
        monkeypatch.setattr(fixtures, name, spy(name, getattr(fixtures, name)))
    code, out = run(capsys, "colim0", "--diagram", "span-z2-z3")
    assert code == 0
    assert calls == [("validate_category", "span")]


def test_json_output_round_trips_and_is_stable(capsys):
    code, out1 = run(capsys, "--format", "json", "verify", "--theorem", "corfact",
                     "--fixture", "two")
    assert code == 0
    code, out2 = run(capsys, "--format", "json", "verify", "--theorem", "corfact",
                     "--fixture", "two")
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["verdict"] == "agree"
    assert payload["defaults"]["fingerprint_bound"] == 8


def test_format_flag_after_subcommand(capsys):
    code, out = run(capsys, "fingerprint", "--presentation", "x2", "--format", "json")
    assert code == 0
    json.loads(out)


def test_exit_codes(capsys):
    assert main(["verify", "--theorem", "main2-n0", "--fixture", "span-z2-z3"]) == 0
    capsys.readouterr()
    assert main(["verify", "--theorem", "homoliso", "--fixture", "noncofinal-a-in-2"]) == 3
    capsys.readouterr()
    assert main([
        "verify", "--theorem", "homoliso", "--fixture", "noncofinal-a-in-2",
        "--assume-hypothesis",
    ]) == 2
    capsys.readouterr()
    assert main(["verify", "--theorem", "main2-n0", "--fixture", "no-such"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["verify", "--theorem", "nope", "--fixture", "x"],
    ["verify", "--theorem", "main2-n0"],
    ["colim0"],
    [],
    ["validate", "--workspace", "/nonexistent.json", "demo/workspace.json"],
    ["verify", "--workspace", "builtin", "--theorem", "main2-n0", "--fixture", "two-z2"],
    ["list-fixtures", "--workspace", "builtin"],
    # --nmax is a count (at least 0) and --effort at least 1
    ["homology", "--diagram", "ab-z-z2cat", "--abelian", "--nmax", "-2"],
    ["homology", "--diagram", "ab-z-z2cat", "--abelian", "--nmax", "-1"],
    ["bw", "--category", "z2cat", "--system", "z-nsys-z2cat", "--nmax", "-2"],
    ["gz", "--dset", "interval-span", "--system", "z-el-interval", "--nmax", "-2"],
    ["andre", "--dset", "hb-two", "--diagram", "two-z2", "--nmax", "-2"],
    ["hocolim", "--pointed-diagram", "bg-span-z2-z3", "--level", "3", "--nmax", "-2"],
    ["check-cofinal", "--functor", "final-in-two", "--nmax", "-2"],
    ["verify", "--theorem", "homoliso", "--fixture", "cod-z2cat", "--nmax", "-2"],
    ["verify", "--theorem", "dliso", "--fixture", "id-hb", "--nmax", "-2"],
    ["verify", "--theorem", "dhiso", "--fixture", "two-cells-collapse", "--assume-hypothesis",
     "--nmax", "-2"],
    ["check-cofinal", "--functor", "final-in-two", "--effort", "0"],
    ["verify", "--theorem", "wefrac", "--fixture", "z2cat", "--effort", "-1"],
], ids=["bad-choice", "missing-option", "missing-diagram", "no-command",
        "validate-workspace", "verify-workspace", "list-fixtures-workspace",
        "homology-nmax", "homology-nmax-minus-1", "bw-nmax", "gz-nmax", "andre-nmax",
        "hocolim-nmax", "check-cofinal-nmax", "verify-homoliso-nmax", "verify-dliso-nmax",
        "verify-dhiso-nmax", "check-cofinal-effort-0", "verify-effort"])
def test_usage_errors_are_one_line_input_errors(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_help_exits_0(capsys):
    for name, command in cli.COMMANDS.items():
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0, name
        assert ("--workspace" in capsys.readouterr().out) == command.workspace, name


def test_theorem_fixtures_name_the_theorems_in_order():
    assert tuple(fixtures.THEOREM_FIXTURES) == cli.THEOREMS


def test_the_reused_parser_keeps_no_state(capsys):
    # a workspace file seen by one call is not seen by the next
    code, out = run(capsys, "colim0", "--workspace", DEMO, "--diagram", "free-amalgam")
    assert code == 0
    assert main(["colim0", "--diagram", "free-amalgam"]) == 1
    assert capsys.readouterr().err == "error: InputError: unknown diagram 'free-amalgam'\n"
    code, out = run(capsys, "colim0", "--diagram", "span-z2-z3")
    assert code == 0
    # --format after the subcommand holds for its own call only
    code, out = run(capsys, "fingerprint", "--presentation", "x2", "--format", "json")
    assert code == 0
    json.loads(out)
    code, out = run(capsys, "fingerprint", "--presentation", "x2")
    assert code == 0 and out.startswith("command: fingerprint\n")
    # --abelian reads abdiagrams for its call only
    code, out = run(capsys, "homology", "--diagram", "ab-z-z2cat", "--abelian", "--nmax", "1")
    assert code == 0
    code, out = run(capsys, "kan-extend", "--functor", "mono-incl-delta1-op",
                    "--diagram", "mono-delta1")
    assert code == 0 and "colim0_fingerprint" in out


def test_demo_workspace(capsys):
    import pathlib

    demo = str(pathlib.Path(__file__).resolve().parent.parent / "demo" / "workspace.json")
    code, out = run(capsys, "validate", demo)
    assert code == 0
    code, out = run(capsys, "colim0", "--workspace", demo, "--diagram", "free-amalgam")
    assert code == 0
    assert "[1, 2, 3, 2, 4, 1, 6, 12, 1, 2, 4, 8, 6, 2]" in out
    code, out = run(capsys, "homology", "--workspace", demo, "--diagram", "ab-amalgam",
                    "--abelian", "--nmax", "2")
    assert code == 0
    assert "['Z/6', '0', '0']" in out
    code, out = run(capsys, "gz", "--workspace", demo, "--dset", "glued-cells",
                    "--system", "z-coefficients")
    assert code == 0


def test_homology_abelianize_path(capsys):
    code, out = run(capsys, "homology", "--diagram", "two-z2", "--abelianize",
                    "--nmax", "2")
    assert code == 0
    assert "['Z/2', '0', '0']" in out
    # a group diagram without either flag is an input error
    code = main(["homology", "--diagram", "two-z2"])
    capsys.readouterr()
    assert code == 1


def test_derived_categories_are_deterministic():
    from hocofin.fincat import factorization, comma_left_fibre
    from hocofin import fixtures as fx

    S = fx.fun_final_in_two()
    a1, _, _ = comma_left_fibre(S, "b")
    a2, _, _ = comma_left_fibre(S, "b")
    assert a1 == a2
    f1 = factorization(fx.cat_span()).category
    f2 = factorization(fx.cat_span()).category
    assert f1 == f2


def test_kan_extend_command(capsys):
    code, out = run(capsys, "kan-extend", "--functor", "mono-incl-delta1-op",
                    "--diagram", "mono-delta1")
    assert code == 0
    assert "colim0_fingerprint" in out


def test_pi1_and_hocolim_commands(capsys):
    code, out = run(capsys, "pi1", "--sset", "bz2-l3")
    assert code == 0
    code, out = run(capsys, "hocolim", "--pointed-diagram", "bg-two-z2",
                    "--level", "3", "--nmax", "2")
    assert code == 0
    assert "Z/2" in out


def test_hocolim_level_is_a_count(capsys):
    # a negative level is a usage error; levels 0..2 are too low for the
    # default --nmax 2, which needs level 3
    assert main(["hocolim", "--pointed-diagram", "bg-span-z2-z3", "--level", "-1"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: ") and "--level: must be at least 0, got -1" in err
    for level in (0, 1, 2):
        assert main(["hocolim", "--pointed-diagram", "bg-span-z2-z3", "--level", str(level)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: LevelTooLow: need level >= 3, have %d\n" % level


def test_andre_command(capsys):
    code, out = run(capsys, "andre", "--dset", "hb-two", "--diagram", "two-z2")
    assert code == 0


@pytest.mark.parametrize("theorem", sorted(fixtures.THEOREM_FIXTURES))
def test_verify_all_fixtures(theorem, capsys):
    expected_nonzero = {
        ("homoliso", "noncofinal-a-in-2"): 3,
        ("discvirt", "not-vdc-par-fold"): 3,
        ("cofpointed", "noncofinal-a-in-2"): 3,
        ("dhiso", "two-cells-collapse"): 3,
        ("confhomolBW", "final-in-two"): 3,
    }
    for name in fixtures.fixture_names(theorem):
        code = main(["verify", "--theorem", theorem, "--fixture", name])
        capsys.readouterr()
        assert code == expected_nonzero.get((theorem, name), 0), (theorem, name)

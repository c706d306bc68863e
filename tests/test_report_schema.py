"""JSON reports conform to a published schema and are byte-stable."""

import json

import jsonschema
import pytest

from hocofin.cli import main

REPORT_SCHEMA = {
    "type": "object",
    "required": ["command", "defaults"],
    "properties": {
        "command": {"type": "string"},
        "defaults": {
            "type": "object",
            "required": ["fingerprint_bound", "chain_cap"],
            "properties": {
                "fingerprint_bound": {"type": "integer"},
                "chain_cap": {"type": "integer"},
                "nmax": {"type": "integer"},
                "effort": {"type": "integer"},
                "level": {"type": "integer"},
            },
        },
        "verdict": {"enum": ["agree", "disagree", "not certified"]},
        "exit": {"enum": [0, 2, 3]},
        "fingerprint": {"type": "array", "items": {"type": "integer", "minimum": 0}},
        "homology": {},
        "abelian": {"type": "array", "items": {"type": "string"}},
        "routes_agree": {"type": "boolean"},
    },
}


COMMANDS = [
    ["verify", "--theorem", "main2-n0", "--fixture", "span-z2-z3"],
    ["verify", "--theorem", "corfact", "--fixture", "two"],
    ["verify", "--theorem", "wefrac", "--fixture", "span"],
    ["colim0", "--diagram", "two-z2"],
    ["fingerprint", "--presentation", "x2"],
    ["homology", "--diagram", "ab-z-two", "--abelian", "--nmax", "2"],
    ["bw", "--category", "two", "--system", "z-nsys-two", "--nmax", "1"],
    ["gz", "--dset", "hb-two", "--system", "z-el-hb", "--nmax", "1"],
    ["check-vdc", "--functor", "final-in-two"],
    ["list-fixtures"],
]


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: a[0])
def test_json_reports_validate_against_schema(argv, capsys):
    code = main(["--format", "json"] + argv)
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, REPORT_SCHEMA)
    # canonical serialization: re-dumping with the same settings is stable
    assert json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n" == out

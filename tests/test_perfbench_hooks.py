"""The benchmark's tracer wraps hocofin functions by name; a renamed or
deleted layer function must fail here, not only when the benchmark runs."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_hooks_name_existing_functions(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    targets = sorted({t for ts in tracer.SPANS.values() for t in ts} | set(tracer.COUNTERS))
    missing = []
    for target in targets:
        module_name, _, qualname = target.partition(":")
        if qualname.endswith("*"):
            continue
        owner = importlib.import_module("hocofin." + module_name)
        if "." in qualname:
            # methods are rebound on the class that defines them
            cls_name, attr = qualname.split(".")
            owner = getattr(owner, cls_name, None)
            found = owner is not None and callable(vars(owner).get(attr))
        else:
            found = callable(getattr(owner, qualname, None))
        if not found:
            missing.append(target)
    assert targets and not missing, missing

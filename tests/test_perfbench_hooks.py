"""The benchmark's tracer wraps hocofin functions by name; a renamed or
deleted layer function must fail here, not only when the benchmark runs."""

import importlib
from collections import Counter
from pathlib import Path

from hocofin import fincat, fixtures
from hocofin.homalg import FGAb, normalized_complex
from hocofin.presheaf import elements_with_parts

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


def test_tracer_counters_read_a_normalized_complex(monkeypatch):
    # the counters read the dense views (AbMap.matrix, IntMatrix entries) of
    # what normalized_complex assembles; a traced run must keep working
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    # degree 0: a = Z, b = Z/2; degree 1: u = Z/2, v = Z; degree 2: w = Z
    blocks = [[FGAb.free(1), FGAb.cyclic(2)], [FGAb.cyclic(2), FGAb.free(1)], [FGAb.free(1)]]
    # u: d_0 = d_1 = b; v: d_0 = b through 2, d_1 = a; w: d_0 = d_1 = v, d_2 = u through 1
    faces = [[(), ()], [(1, 1), (1, 0)], [(1, 1, 0)]]
    transport = [None, [{}, {0: [{0: 2}]}], [{2: [{0: 1}]}]]
    K = normalized_complex(blocks, faces, transport)
    counts = Counter()
    tracer._count_complex(counts, (K, K.groups, K.boundaries), {}, K)
    # d_1 is 2x2 with columns u -> 0 (its faces cancel) and v -> (-1, 2);
    # d_2 is 2x1 with w -> (1, 0) (its faces at v cancel)
    assert K.boundaries[1].matrix.entries == [[0, -1], [0, 2]]
    assert K.boundaries[2].matrix.entries == [[1], [0]]
    assert counts["homalg.boundary_entries"] == 0 * 2 + 2 * 2 + 2 * 1
    assert counts["homalg.boundary_nnz"] == 3
    for d in K.boundaries.values():
        tracer._count_snf(counts, (d.matrix,), {}, None)
    assert counts["homalg.snf_calls"] == 3
    assert counts["homalg.snf_entries"] == 6
    assert counts["homalg.snf_max_cols"] == 2
    tracer._count_fgab(counts, (K.groups[0], 2), {}, None)
    assert counts["homalg.fgab_calls"] == 1


def test_the_derived_counter_reads_views_without_building_their_tables(monkeypatch):
    # fincat.derived_morphisms counts the morphisms of each derived
    # category; reading them lists a view, which counting may do, but it
    # must not build the table, and the count is the eager one
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    C = fixtures.cat_span()
    parts = fincat.objects_over((o,) for o in C.objects)
    S = fixtures.fun_span_to_one()
    D = fixtures.cat_delta1()
    builds = [
        lambda: fincat._comma_like(C, parts, lambda alpha, p1, p2: True, "span"),
        lambda: fincat.factor_slice(S, "id_*"),
        lambda: elements_with_parts(fixtures.dset_interval_span()),
        lambda: fincat.factorization(D),
    ]
    # the morphism counts of these categories built in full, before they were views
    eager = [5, 5, 5, 97]
    for build, count in zip(builds, eager):
        result = build()
        cat = result[0] if isinstance(result, tuple) else getattr(result, "category", result)
        fresh = build()
        fresh = fresh[0] if isinstance(fresh, tuple) else getattr(fresh, "category", fresh)
        counts = Counter()
        tracer._count_derived(counts, (), {}, result)
        assert counts["fincat.derived_morphisms"] == len(cat.morphisms) == count > len(cat.objects)
        assert count == sum(len(fresh.hom(x, y)) for x in fresh.objects for y in fresh.objects)
        assert type(cat) is fincat._View


def test_a_traced_cli_call_records_its_command(monkeypatch, capsys):
    # the second call reuses the parser built by the first; each must still
    # record one cli.command span inside its cli.main span
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    from hocofin import cli

    t = tracer.Tracer()
    t.install()
    t.enabled = True
    try:
        for argv in (["fingerprint", "--presentation", "x2"],
                     ["verify", "--theorem", "main2-n0", "--fixture", "span-z2-z3"]):
            first = len(t.spans)
            assert cli.main(argv) == 0
            spans = t.spans[first:]
            mains = [i for i, s in enumerate(spans, first) if s[0] == "cli.main"]
            commands = [s for s in spans if s[0] == "cli.command"]
            assert len(mains) == 1 and len(commands) == 1, argv
            assert commands[0][3] == mains[0]
    finally:
        t.enabled = False
        t.uninstall()
    capsys.readouterr()

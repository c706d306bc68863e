"""Outside-in spans around the public functions of each hocofin layer.

hocofin records no timings of its own yet, so the benchmark wraps the
functions that mark each layer boundary.  ``from .x import f`` copies the
binding of ``f`` into the importing module, so a wrapper is installed on
every ``hocofin.*`` module attribute that refers to the original function
(or on the class, for methods).  The benchmark's own code must call these
functions through their module (``groups.hom_count``), not through a name
it imported, or the call is not seen.

A span is ``[name, start, end, parent]``, its times read on refclock's
clock; ``parent`` is the index of the enclosing span or -1.  A layer's
self time is its spans' durations minus the durations of their direct
children.
"""

import sys

import refclock

# span name -> the functions whose calls it records; "module:Class.method"
# names a method, "module:function" a module-level function, and
# "module:prefix*" every module-level function whose name starts with prefix
SPANS = {
    "homalg.snf": ["homalg:smith_normal_form"],
    "homalg.complex_check": ["homalg:ChainComplex.__init__"],
    "homalg.homology": ["homalg:ChainComplex.homology"],
    "fincat.chains": ["fincat:composable_chains"],
    "fincat.validate": ["fincat:FinCat._check"],
    "fincat.derived": ["fincat:_comma_like", "fincat:factor_slice", "fincat:factorization"],
    "presheaf.elements": ["presheaf:elements_with_parts"],
    "diagrams.assembly": ["diagrams:srep_ab_complex"],
    "gz.assembly": ["gz:nerve_route_complex", "gz:lan_route_diagram"],
    "presheaf.assembly": ["presheaf:normalized_chain_complex"],
    "cofinal.certify": ["cofinal:certify_contractible"],
    "cofinal.vdc": ["cofinal:is_vdc"],
    "groups.homcount": ["groups:hom_count"],
    "groups.tietze": ["groups:tietze_simplify"],
    "diagrams.colim0": ["diagrams:colim0"],
    "diagrams.kan": ["diagrams:kan_extend_vdc"],
    "hocolim.bg": ["hocolim:bg_diagram"],
    "hocolim.diagonal": ["hocolim:hocolim_pointed", "hocolim:hocolim_unpointed"],
    "presheaf.nerve": ["presheaf:nerve"],
    "presheaf.pi1": ["presheaf:edge_path_group"],
    "cli.main": ["cli:main"],
    "cli.emit": ["cli:_emit"],
    "cli.command": ["cli:cmd_*"],
}

# span name -> per-layer time metric fed by its self time; spans missing
# here (the operation itself, cli.command) count as unattributed
TIME_METRICS = {
    "homalg.snf": "homalg.snf_s",
    "homalg.complex_check": "homalg.complex_check_s",
    "homalg.homology": "homalg.homology_s",
    "fincat.chains": "fincat.chains_s",
    "fincat.validate": "fincat.validate_s",
    "fincat.derived": "fincat.derived_s",
    "presheaf.elements": "presheaf.elements_s",
    "diagrams.assembly": "diagrams.assembly_s",
    "gz.assembly": "gz.assembly_s",
    "presheaf.assembly": "presheaf.assembly_s",
    "cofinal.certify": "cofinal.certify_s",
    "cofinal.vdc": "cofinal.vdc_s",
    "groups.homcount": "groups.homcount_s",
    "groups.tietze": "groups.tietze_s",
    "diagrams.colim0": "diagrams.colim0_s",
    "diagrams.kan": "diagrams.kan_s",
    "hocolim.bg": "hocolim.bg_s",
    "hocolim.diagonal": "hocolim.diagonal_s",
    "presheaf.nerve": "presheaf.nerve_s",
    "presheaf.pi1": "presheaf.pi1_s",
    # parser build, argument parsing and report emission
    "cli.main": "cli.overhead_s",
    "cli.emit": "cli.overhead_s",
}

COUNT_METRICS = (
    "homalg.snf_calls", "homalg.snf_entries", "homalg.snf_max_cols", "homalg.fgab_calls",
    "homalg.boundary_nnz", "homalg.boundary_entries",
    "fincat.chains", "fincat.validate_calls", "fincat.validated_morphisms",
    "fincat.derived_morphisms",
    "cofinal.by_cone", "cofinal.by_collapse", "cofinal.by_invariants", "cofinal.inconclusive",
    "groups.homcount_calls", "groups.homcount_assignments", "groups.tietze_gens_removed",
    "hocolim.simplices",
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_snf(counts, args, kwargs, result):
    A = _arg(args, kwargs, 0, "A")
    counts["homalg.snf_calls"] += 1
    counts["homalg.snf_entries"] += A.rows * A.cols
    counts["homalg.snf_max_cols"] = max(counts["homalg.snf_max_cols"], A.cols)


def _count_complex(counts, args, kwargs, result):
    for d in _arg(args, kwargs, 2, "boundaries").values():
        m = d.matrix
        counts["homalg.boundary_entries"] += m.rows * m.cols
        counts["homalg.boundary_nnz"] += sum(1 for row in m.entries for x in row if x)


def _count_fgab(counts, args, kwargs, result):
    counts["homalg.fgab_calls"] += 1


def _count_chains(counts, args, kwargs, result):
    counts["fincat.chains"] += len(result)


def _count_validate(counts, args, kwargs, result):
    counts["fincat.validate_calls"] += 1
    counts["fincat.validated_morphisms"] += len(args[0].morphisms)


def _count_derived(counts, args, kwargs, result):
    cat = result[0] if isinstance(result, tuple) else getattr(result, "category", result)
    counts["fincat.derived_morphisms"] += len(cat.morphisms)


def _count_certify(counts, args, kwargs, result):
    cert = result.certificate or {}
    if result.kind == "INCONCLUSIVE":
        counts["cofinal.inconclusive"] += 1
    elif cert.get("kind") == "cone":
        counts["cofinal.by_cone"] += 1
    elif cert.get("kind") == "collapse":
        counts["cofinal.by_collapse"] += 1
    else:
        counts["cofinal.by_invariants"] += 1


def _count_homcount(counts, args, kwargs, result):
    P, T = _arg(args, kwargs, 0, "P"), _arg(args, kwargs, 1, "T")
    counts["groups.homcount_calls"] += 1
    counts["groups.homcount_assignments"] += T.order() ** len(P.generators)


def _count_tietze(counts, args, kwargs, result):
    P = _arg(args, kwargs, 0, "P")
    counts["groups.tietze_gens_removed"] += len(P.generators) - len(result.generators)


def _count_diagonal(counts, args, kwargs, result):
    counts["hocolim.simplices"] += sum(len(layer) for layer in result.simplices)


COUNTERS = {
    "homalg:smith_normal_form": _count_snf,
    "homalg:ChainComplex.__init__": _count_complex,
    "homalg:FGAb.__init__": _count_fgab,
    "fincat:composable_chains": _count_chains,
    "fincat:FinCat._check": _count_validate,
    "fincat:_comma_like": _count_derived,
    "fincat:factor_slice": _count_derived,
    "fincat:factorization": _count_derived,
    "presheaf:elements_with_parts": _count_derived,
    "cofinal:certify_contractible": _count_certify,
    "groups:hom_count": _count_homcount,
    "groups:tietze_simplify": _count_tietze,
    "hocolim:hocolim_pointed": _count_diagonal,
    "hocolim:hocolim_unpointed": _count_diagonal,
}

# counters that scan their input run in a span of their own, so that their
# cost is not charged to the calling layer
SCANNING_COUNTERS = (_count_complex,)


class Tracer:
    """Records spans and counts while ``enabled``; ``install`` wraps the
    layer functions and ``uninstall`` puts the originals back."""

    def __init__(self):
        self.spans = []
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self.enabled = False
        self._stack = []
        self._undo = []

    def install(self):
        names = {}
        for span, targets in SPANS.items():
            for target in targets:
                module_name, _, prefix = target.partition(":")
                if not prefix.endswith("*"):
                    names[target] = span
                    continue
                module = sys.modules["hocofin." + module_name]
                for attr, value in vars(module).items():
                    if attr.startswith(prefix[:-1]) and callable(value):
                        names["%s:%s" % (module_name, attr)] = span
        for target in COUNTERS:
            names.setdefault(target, None)
        for target, span in names.items():
            self._wrap(target, span, COUNTERS.get(target))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []

    def _wrap(self, target, span_name, counter):
        module_name, _, qualname = target.partition(":")
        module = sys.modules["hocofin." + module_name]
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[attr]
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(original, span_name, counter))
            return
        original = getattr(module, qualname)
        wrapper = self._wrapper(original, span_name, counter)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "hocofin" or name.startswith("hocofin.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _wrapper(self, fn, span_name, counter):
        tracer = self
        counts = self.counts

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if span_name is None:
                result = fn(*args, **kwargs)
            else:
                record = tracer.open_span(span_name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close_span(record)
            if counter in SCANNING_COUNTERS:
                record = tracer.open_span("bench.count")
                counter(counts, args, kwargs, result)
                tracer.close_span(record)
            elif counter is not None:
                counter(counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def open_span(self, name):
        """Start a span that the caller ends with ``close_span``."""
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = refclock.now()
        return record

    def close_span(self, record):
        record[2] = refclock.now()
        self._stack.pop()


def self_times(spans, first=0):
    """Self time of every span from index ``first`` on, in span order."""
    own = [s[2] - s[1] for s in spans[first:]]
    for i in range(first, len(spans)):
        parent = spans[i][3]
        if parent >= first:
            own[parent - first] -= spans[i][2] - spans[i][1]
    return own


def layer_seconds(spans, first=0):
    """Per-layer time metrics and the unattributed rest, summed over the
    spans from index ``first`` on."""
    out = dict.fromkeys(sorted(set(TIME_METRICS.values())), 0.0)
    out["bench.unattributed_s"] = 0.0
    for span, own in zip(spans[first:], self_times(spans, first)):
        out[TIME_METRICS.get(span[0], "bench.unattributed_s")] += own
    return out

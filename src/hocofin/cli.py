"""Command-line front end.

Exit codes: 0 success/agreement, 1 input error (usage errors included), 2
mathematical disagreement (including route cross-check failures), 3
theorem hypothesis not certified.  Reports are deterministic: identical
inputs give byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import fixtures
from ._jsonio import InputError, Workspace, category_to_json, presentation_to_json
from .cofinal import certify_homotopy_cofinal, is_vdc
from .diagrams import (
    DEFAULT_CHAIN_CAP,
    DiagramError,
    ab_colim_derived,
    abelianize_diagram,
    colim0,
    kan_extend_vdc,
)
from .fincat import CategoryError, comma_left_fibre, factor_functor, factor_slice, factorization, iso_check
from .groups import BudgetExceeded, GroupError, fingerprint, tietze_simplify
from .gz import (
    GZError,
    RouteMismatch,
    andre_homology,
    bw_homology,
    bw_invariance_check,
    dhiso_check,
    direct_image,
    gz_homology,
)
from .homalg import HomalgError
from .hocolim import (
    HocolimError,
    bg_diagram,
    cofinal_hocolim_compare,
    hocolim_pointed,
    pointed_quotient_check,
)
from .presheaf import PresheafError, edge_path_group, homology_ss


EXIT_OK = 0
EXIT_INPUT = 1
EXIT_DISAGREE = 2
EXIT_HYPOTHESIS = 3

THEOREMS = (
    "homoliso", "discvirt", "cofpointed", "main2-n0", "contralan", "corfact",
    "factfibres", "wefrac", "lcodecar", "dliso", "dhiso", "confhomolBW",
)


def _defaults(args):
    out = {
        "fingerprint_bound": 8,
        "chain_cap": DEFAULT_CHAIN_CAP,
    }
    for key in ("nmax", "effort", "level"):
        if hasattr(args, key):
            out[key] = getattr(args, key)
    return out


def _emit(args, report):
    report = dict(report)
    report.setdefault("defaults", _defaults(args))
    if args.format == "json":
        sys.stdout.write(json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n")
    else:
        _emit_text(report)


def _emit_text(report, indent=0):
    pad = "  " * indent
    for key in sorted(report):
        value = report[key]
        if isinstance(value, dict):
            sys.stdout.write("%s%s:\n" % (pad, key))
            _emit_text(value, indent + 1)
        else:
            sys.stdout.write("%s%s: %s\n" % (pad, key, value))


def _load_workspace(paths):
    """One workspace holding every ``--workspace`` path in order; ``builtin``,
    also the default, names the built-in fixtures."""
    ws = Workspace()
    for path in paths or ["builtin"]:
        if path == "builtin":
            fixtures.register_builtins(ws)
        else:
            ws.load_file(path)
    return ws


def _fgab_strs(groups):
    return [str(g) for g in groups]


# -- plain commands -------------------------------------------------------------


def cmd_validate(args):
    ws = Workspace()
    ws.load_file(args.file)
    report = {"command": "validate", "file": args.file, "entities": ws.validate_all()}
    _emit(args, report)
    return EXIT_OK


def cmd_homology(args):
    ws = _load_workspace(args.workspace)
    report = {"command": "homology", "diagram": args.diagram, "nmax": args.nmax}
    if args.abelian:
        M = ws.get("abdiagrams", args.diagram)
    else:
        G = ws.get("diagrams", args.diagram)
        if not args.abelianize:
            raise InputError("group diagrams need --abelianize (or use --abelian for abelian diagrams)")
        M = abelianize_diagram(G)
    report["homology"] = _fgab_strs(ab_colim_derived(M.base, M, args.nmax))
    _emit(args, report)
    return EXIT_OK


def cmd_colim0(args):
    ws = _load_workspace(args.workspace)
    G = ws.get("diagrams", args.diagram)
    pres = colim0(G.base, G)
    report = {
        "command": "colim0",
        "diagram": args.diagram,
        "presentation": presentation_to_json(pres),
        "fingerprint": list(fingerprint(pres)),
    }
    _emit(args, report)
    return EXIT_OK


def cmd_check_cofinal(args):
    ws = _load_workspace(args.workspace)
    S = ws.get("functors", args.functor)
    rep = certify_homotopy_cofinal(S, effort=args.effort, n_max=args.nmax,
                                   coinitial=args.coinitial)
    report = {
        "command": "check-cofinal",
        "functor": args.functor,
        "coinitial": args.coinitial,
        "aggregate": rep["aggregate"],
        "per_object": {d: v.to_json() for d, v in rep["per_object"].items()},
    }
    _emit(args, report)
    return EXIT_OK if rep["aggregate"] == "CONTRACTIBLE" else EXIT_HYPOTHESIS


def cmd_check_vdc(args):
    ws = _load_workspace(args.workspace)
    S = ws.get("functors", args.functor)
    ok, witnesses = is_vdc(S)
    report = {"command": "check-vdc", "functor": args.functor, "vdc": ok,
              "witnesses": witnesses}
    _emit(args, report)
    return EXIT_OK if ok else EXIT_HYPOTHESIS


def cmd_kan_extend(args):
    ws = _load_workspace(args.workspace)
    S = ws.get("functors", args.functor)
    if args.abelian:
        diagram = ws.get("abdiagrams", args.diagram)
    else:
        diagram = ws.get("diagrams", args.diagram)
    extended = kan_extend_vdc(S, diagram)
    report = {"command": "kan-extend", "functor": args.functor, "diagram": args.diagram}
    if args.abelian:
        report["values"] = {d: str(v) for d, v in extended.value.items()}
    else:
        report["values"] = {
            d: " * ".join("%s" % grp.name for _, grp in v.nontrivial_factors()) or "1"
            for d, v in extended.value.items()
        }
        pres = colim0(extended.base, extended)
        report["colim0_fingerprint"] = list(fingerprint(pres))
    _emit(args, report)
    return EXIT_OK


def cmd_factorization(args):
    ws = _load_workspace(args.workspace)
    C = ws.get("categories", args.category)
    F = factorization(C)
    report = {
        "command": "factorization",
        "category": args.category,
        "factorization": category_to_json(F.category),
    }
    _emit(args, report)
    return EXIT_OK


def cmd_bw(args):
    ws = _load_workspace(args.workspace)
    C = ws.get("categories", args.category)
    system = ws.get("systems", args.system)
    res = bw_homology(C, system, args.nmax)
    report = {"command": "bw", "category": args.category, "system": args.system,
              "routes_agree": res["routes_agree"],
              "abelian": _fgab_strs(res["abelian"])}
    if "n0" in res:
        report["n0"] = {
            "presentation": presentation_to_json(res["n0"]["presentation"]),
            "fingerprint": res["n0"]["fingerprint"],
        }
    _emit(args, report)
    return EXIT_OK


def cmd_gz(args):
    ws = _load_workspace(args.workspace)
    X = ws.get("dsets", args.dset)
    system = ws.get("systems", args.system)
    res = gz_homology(X, system, args.nmax)
    report = {"command": "gz", "dset": args.dset, "system": args.system,
              "routes_agree": res["routes_agree"],
              "abelian": _fgab_strs(res["abelian"])}
    if "n0" in res:
        report["n0"] = {
            "presentation": presentation_to_json(res["n0"]["presentation"]),
            "fingerprint": res["n0"]["fingerprint"],
        }
    _emit(args, report)
    return EXIT_OK


def cmd_andre(args):
    ws = _load_workspace(args.workspace)
    X = ws.get("dsets", args.dset)
    if args.abelian:
        diagram = ws.get("abdiagrams", args.diagram)
    else:
        diagram = ws.get("diagrams", args.diagram)
    res = andre_homology(X, diagram, args.nmax)
    report = {"command": "andre", "dset": args.dset, "diagram": args.diagram,
              "abelian": _fgab_strs(res["abelian"])}
    if "n0" in res:
        report["n0"] = {"fingerprint": res["n0"]["fingerprint"]}
    _emit(args, report)
    return EXIT_OK


def cmd_hocolim(args):
    ws = _load_workspace(args.workspace)
    PD = ws.get("pointed_diagrams", args.pointed_diagram)
    H = hocolim_pointed(PD, args.level)
    report = {
        "command": "hocolim",
        "pointed_diagram": args.pointed_diagram,
        "level": args.level,
        "cardinalities": [len(s) for s in H.simplices],
        "homology": _fgab_strs(homology_ss(H, args.nmax)),
    }
    pres = tietze_simplify(edge_path_group(H))
    report["pi1_fingerprint"] = list(fingerprint(pres))
    _emit(args, report)
    return EXIT_OK


def cmd_pi1(args):
    ws = _load_workspace(args.workspace)
    X = ws.get("ssets", args.sset)
    pres = tietze_simplify(edge_path_group(X))
    report = {
        "command": "pi1",
        "sset": args.sset,
        "presentation": presentation_to_json(pres),
        "fingerprint": list(fingerprint(pres)),
    }
    _emit(args, report)
    return EXIT_OK


def cmd_fingerprint(args):
    ws = _load_workspace(args.workspace)
    P = ws.get("presentations", args.presentation)
    report = {
        "command": "fingerprint",
        "presentation": args.presentation,
        "fingerprint": list(fingerprint(P)),
    }
    _emit(args, report)
    return EXIT_OK


# -- theorem harness --------------------------------------------------------------


def _hyp_gate(report, aggregate, assume):
    """Shared exit logic: certified or assumed runs the comparison."""
    report["hypothesis"] = aggregate
    if assume:
        report["hypothesis_mode"] = "assumed"
        return True
    if aggregate == "CONTRACTIBLE":
        report["hypothesis_mode"] = "certified"
        return True
    if aggregate == "EVIDENCE":
        report["hypothesis_mode"] = "conditional"
        return True
    report["hypothesis_mode"] = "not certified"
    return False


def _verify_homoliso(fx, args, report):
    S = fx["functor"]
    hyp = certify_homotopy_cofinal(S, effort=args.effort, n_max=min(args.nmax, 2))
    report["per_object"] = {d: v.kind for d, v in hyp["per_object"].items()}
    if not _hyp_gate(report, hyp["aggregate"], args.assume_hypothesis):
        return EXIT_HYPOTHESIS
    M = fx["ab_diagram"]
    G = fx["group_diagram"]
    lhs = ab_colim_derived(S.source, M.restrict(S), args.nmax)
    rhs = ab_colim_derived(S.target, M, args.nmax)
    fp_l = fingerprint(colim0(S.source, G.restrict(S)))
    fp_r = fingerprint(colim0(S.target, G))
    report["abelian"] = {"lhs": _fgab_strs(lhs), "rhs": _fgab_strs(rhs)}
    report["fingerprints"] = {"lhs": list(fp_l), "rhs": list(fp_r)}
    agree = lhs == rhs and fp_l == fp_r
    report["verdict"] = "agree" if agree else "disagree"
    return EXIT_OK if agree else EXIT_DISAGREE


def _verify_discvirt(fx, args, report):
    S = fx["functor"]
    ok, witnesses = is_vdc(S)
    report["vdc"] = ok
    if not ok and not args.assume_hypothesis:
        report["hypothesis_mode"] = "not certified"
        report["witnesses"] = {
            d: w for d, w in witnesses.items() if not w["finally_discrete"]
        }
        return EXIT_HYPOTHESIS
    report["hypothesis_mode"] = "certified" if ok else "assumed"
    M = fx["ab_diagram"]
    G = fx["group_diagram"]
    lhs = ab_colim_derived(S.source, M, args.nmax)
    rhs = ab_colim_derived(S.target, kan_extend_vdc(S, M), args.nmax)
    fp_l = fingerprint(colim0(S.source, G))
    fp_r = fingerprint(colim0(S.target, kan_extend_vdc(S, G)))
    report["abelian"] = {"lhs": _fgab_strs(lhs), "rhs": _fgab_strs(rhs)}
    report["fingerprints"] = {"lhs": list(fp_l), "rhs": list(fp_r)}
    agree = lhs == rhs and fp_l == fp_r
    report["verdict"] = "agree" if agree else "disagree"
    return EXIT_OK if agree else EXIT_DISAGREE


def _verify_cofpointed(fx, args, report):
    S = fx["functor"]
    level = fx["level"]
    rep = cofinal_hocolim_compare(S, fx["pointed_diagram"], level,
                                  min(args.nmax, level - 1), effort=args.effort)
    report.update(rep)
    if rep["label"] == "unconditional comparison" and not args.assume_hypothesis:
        report["hypothesis_mode"] = "not certified"
        return EXIT_HYPOTHESIS
    report["hypothesis_mode"] = "assumed" if args.assume_hypothesis else rep["label"]
    return EXIT_OK if rep["verdict"] == "agree" else EXIT_DISAGREE


def _verify_main2_n0(fx, args, report):
    G = fx["group_diagram"]
    level = fx["level"]
    H = hocolim_pointed(bg_diagram(G, level), level)
    pi1 = fingerprint(tietze_simplify(edge_path_group(H)))
    c0 = fingerprint(colim0(G.base, G))
    report["fingerprints"] = {"pi1_hocolim": list(pi1), "colim0": list(c0)}
    report["verdict"] = "agree" if pi1 == c0 else "disagree"
    return EXIT_OK if pi1 == c0 else EXIT_DISAGREE


def _verify_contralan(fx, args, report):
    X = fx["dset"]
    outcomes = {}
    code = EXIT_OK
    for key in ("ab_system", "group_system"):
        system = fx.get(key)
        if system is None:
            continue
        try:
            res = gz_homology(X, system, args.nmax)
            outcomes[key] = {
                "routes_agree": res["routes_agree"],
                "abelian": _fgab_strs(res["abelian"]),
            }
        except RouteMismatch as exc:
            outcomes[key] = {"routes_agree": False, "error": str(exc)}
            code = EXIT_DISAGREE
    report["systems"] = outcomes
    report["verdict"] = "agree" if code == EXIT_OK else "disagree"
    return code


def _verify_corfact(fx, args, report):
    try:
        res = bw_homology(fx["category"], fx["ab_system"], min(args.nmax, 2))
        report["abelian"] = _fgab_strs(res["abelian"])
        report["routes_agree"] = res["routes_agree"]
        report["verdict"] = "agree"
        return EXIT_OK
    except RouteMismatch as exc:
        report["routes_agree"] = False
        report["error"] = str(exc)
        report["verdict"] = "disagree"
        return EXIT_DISAGREE


def _verify_factfibres(fx, args, report):
    S = fx["functor"]
    fc = factorization(S.source)
    fd = factorization(S.target)
    FS = factor_functor(S, fc, fd)
    results = {}
    ok = True
    for alpha in S.target.morphisms:
        lhs, _, _ = comma_left_fibre(FS, alpha)
        rhs = factorization(factor_slice(S, alpha)).category
        iso = iso_check(lhs, rhs, max_objects=24, max_morphisms=160)
        results[alpha] = iso is not None
        ok = ok and iso is not None
    report["isomorphic"] = results
    report["verdict"] = "agree" if ok else "disagree"
    return EXIT_OK if ok else EXIT_DISAGREE


def _verify_wefrac(fx, args, report):
    C = fx["category"]
    F = factorization(C)
    rep = certify_homotopy_cofinal(F.cod, effort=args.effort, n_max=min(args.nmax, 2),
                                   coinitial=True)
    report["per_object"] = {d: v.kind for d, v in rep["per_object"].items()}
    report["aggregate"] = rep["aggregate"]
    if rep["aggregate"] == "CONTRACTIBLE":
        report["verdict"] = "agree"
        return EXIT_OK
    if rep["aggregate"] == "NONCONTRACTIBLE":
        report["verdict"] = "disagree"
        return EXIT_DISAGREE
    report["verdict"] = "not certified"
    return EXIT_HYPOTHESIS


def _verify_lcodecar(fx, args, report):
    rep = pointed_quotient_check(fx["pointed_diagram"], fx["level"])
    report["pass"] = rep["pass"]
    if rep["witness"] is not None:
        report["witness"] = rep["witness"]
    report["verdict"] = "agree" if rep["pass"] else "disagree"
    return EXIT_OK if rep["pass"] else EXIT_DISAGREE


def _verify_dliso(fx, args, report):
    outcomes = {}
    code = EXIT_OK
    for key in ("ab_system", "group_system"):
        system = fx.get(key)
        if system is None:
            continue
        rep = direct_image(fx["dset_morphism"], system, args.nmax)
        outcomes[key] = rep["verdict"]
        if rep["verdict"] != "agree":
            code = EXIT_DISAGREE
    report["systems"] = outcomes
    report["verdict"] = "agree" if code == EXIT_OK else "disagree"
    return code


def _verify_dhiso(fx, args, report):
    rep = dhiso_check(fx["dset_morphism"], fx["ab_system"], args.nmax,
                      effort=args.effort)
    report["fibres"] = rep["fibres"]
    if not _hyp_gate(report, rep["hypothesis"], args.assume_hypothesis):
        return EXIT_HYPOTHESIS
    verdict = rep["verdict"]
    if verdict == "hypothesis fails":
        # assumed mode: recompute agreement from the reported sides
        verdict = "agree" if rep["lhs"]["abelian"] == rep["rhs"]["abelian"] else "disagree"
    report["verdict"] = verdict
    return EXIT_OK if verdict == "agree" else EXIT_DISAGREE


def _verify_confhomolbw(fx, args, report):
    outcomes = {}
    code = EXIT_OK
    hypothesis_failed = False
    for key in ("ab_system", "group_system"):
        system = fx.get(key)
        if system is None:
            continue
        rep = bw_invariance_check(fx["functor"], system, min(args.nmax, 2),
                                 effort=args.effort)
        outcomes[key] = {"hypothesis": rep["hypothesis"], "verdict": rep["verdict"]}
        if "witness" in rep:
            outcomes[key]["witness"] = rep["witness"]
        if rep["verdict"] == "hypothesis fails":
            hypothesis_failed = True
        elif rep["verdict"] != "agree":
            code = EXIT_DISAGREE
    report["systems"] = outcomes
    report["hypothesis_over"] = "target-category morphisms"
    if hypothesis_failed and not args.assume_hypothesis:
        report["verdict"] = "not certified"
        return EXIT_HYPOTHESIS
    report["verdict"] = "agree" if code == EXIT_OK else "disagree"
    return code


_VERIFIERS = {
    "homoliso": _verify_homoliso,
    "discvirt": _verify_discvirt,
    "cofpointed": _verify_cofpointed,
    "main2-n0": _verify_main2_n0,
    "contralan": _verify_contralan,
    "corfact": _verify_corfact,
    "factfibres": _verify_factfibres,
    "wefrac": _verify_wefrac,
    "lcodecar": _verify_lcodecar,
    "dliso": _verify_dliso,
    "dhiso": _verify_dhiso,
    "confhomolBW": _verify_confhomolbw,
}


def cmd_verify(args):
    try:
        fx = fixtures.load_fixture(args.theorem, args.fixture)
    except KeyError as exc:
        raise InputError(str(exc)) from None
    report = {"command": "verify", "theorem": args.theorem, "fixture": args.fixture}
    code = _VERIFIERS[args.theorem](fx, args, report)
    report["exit"] = code
    _emit(args, report)
    return code


def cmd_list_fixtures(args):
    report = {"command": "list-fixtures",
              "fixtures": {t: fixtures.fixture_names(t) for t in THEOREMS}}
    _emit(args, report)
    return EXIT_OK


# -- argument parsing ---------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors: one ``error:`` line and exit 1."""

    def error(self, message):
        raise InputError("%s: %s" % (self.prog, message))


def build_parser():
    parser = _Parser(
        prog="hocofin",
        description="Exact homology of group diagrams over finite categories",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, workspace=True, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        if workspace:
            p.add_argument("--workspace", action="append",
                           help="workspace JSON file, or 'builtin' (default: builtin)")
        p.add_argument("--format", dest="format_sub", choices=("text", "json"),
                       default=None, help=argparse.SUPPRESS)
        return p

    p = add("validate", cmd_validate, workspace=False, help="validate an input file")
    p.add_argument("file")

    p = add("homology", cmd_homology, help="derived colimits of a diagram")
    p.add_argument("--diagram", required=True)
    p.add_argument("--nmax", type=int, default=3)
    p.add_argument("--abelian", action="store_true",
                   help="the named diagram is an abelian diagram")
    p.add_argument("--abelianize", action="store_true",
                   help="abelianize a group diagram objectwise first")

    p = add("colim0", cmd_colim0, help="colimit presentation of a group diagram")
    p.add_argument("--diagram", required=True)

    p = add("check-cofinal", cmd_check_cofinal, help="certify homotopy cofinality")
    p.add_argument("--functor", required=True)
    p.add_argument("--coinitial", action="store_true")
    p.add_argument("--effort", type=int, default=1)
    p.add_argument("--nmax", type=int, default=2)

    p = add("check-vdc", cmd_check_vdc, help="check the virtual-discrete-cofibration property")
    p.add_argument("--functor", required=True)

    p = add("kan-extend", cmd_kan_extend, help="left Kan extension along a VDC")
    p.add_argument("--functor", required=True)
    p.add_argument("--diagram", required=True)
    p.add_argument("--abelian", action="store_true")

    p = add("factorization", cmd_factorization, help="factorization category of a category")
    p.add_argument("--category", required=True)

    p = add("bw", cmd_bw, help="natural-system homology of a category")
    p.add_argument("--category", required=True)
    p.add_argument("--system", required=True)
    p.add_argument("--nmax", type=int, default=2)

    p = add("gz", cmd_gz, help="presheaf homology with system coefficients")
    p.add_argument("--dset", required=True)
    p.add_argument("--system", required=True)
    p.add_argument("--nmax", type=int, default=2)

    p = add("andre", cmd_andre, help="presheaf homology with plain diagram coefficients")
    p.add_argument("--dset", required=True)
    p.add_argument("--diagram", required=True)
    p.add_argument("--nmax", type=int, default=2)
    p.add_argument("--abelian", action="store_true")

    p = add("hocolim", cmd_hocolim, help="pointed homotopy colimit invariants")
    p.add_argument("--pointed-diagram", dest="pointed_diagram", required=True)
    p.add_argument("--level", type=int, default=3)
    p.add_argument("--nmax", type=int, default=2)

    p = add("pi1", cmd_pi1, help="edge-path fundamental group of a pointed simplicial set")
    p.add_argument("--sset", required=True)

    p = add("fingerprint", cmd_fingerprint, help="hom-count fingerprint of a presentation")
    p.add_argument("--presentation", required=True)

    p = add("verify", cmd_verify, workspace=False, help="run a theorem check on a named fixture")
    p.add_argument("--theorem", required=True, choices=THEOREMS)
    p.add_argument("--fixture", required=True)
    p.add_argument("--nmax", type=int, default=3)
    p.add_argument("--effort", type=int, default=1)
    p.add_argument("--assume-hypothesis", dest="assume_hypothesis", action="store_true",
                   help="skip hypothesis certification and compare unconditionally")

    add("list-fixtures", cmd_list_fixtures, workspace=False, help="list built-in fixtures per theorem")
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        if args.format_sub:
            args.format = args.format_sub
        return args.fn(args)
    except (InputError, CategoryError, GroupError, PresheafError, HocolimError,
            DiagramError, HomalgError, BudgetExceeded, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write("error: %s: %s\n" % (type(exc).__name__, exc))
        return EXIT_INPUT
    except RouteMismatch as exc:
        sys.stderr.write("route mismatch: %s\n" % exc)
        return EXIT_DISAGREE
    except GZError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

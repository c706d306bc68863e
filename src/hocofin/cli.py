"""Command-line front end.

Exit codes: 0 success/agreement, 1 input error (usage errors included), 2
mathematical disagreement (including route cross-check failures), 3
theorem hypothesis not certified.  Reports are deterministic: identical
inputs give byte-identical output.

A command is declared once, in ``COMMANDS``: its handler, help, whether
it reads ``--workspace``, and its options.  ``main`` parses with a parser
built from that table on first use, loads the workspace and reads each
entity option from it (a diagram from ``abdiagrams`` under ``--abelian``)
before the handler runs.  The handler gets the entities as keyword
arguments and fills the report; it returns an exit code only when that
is not 0.  A ``verify`` theorem's verifier returns True (agree), False
(disagree) or None (not certified, with any verdict its own), and
``cmd_verify`` alone writes the verdict and exit code from that.  No
handler catches ``RouteMismatch``: ``main`` writes one ``route
mismatch:`` line and exits 2, for every command.
"""

from __future__ import annotations

import argparse
import collections
import functools
import json
import sys

from . import fixtures
from ._jsonio import InputError, Workspace, category_to_json, presentation_to_json
from .cofinal import CONTRACTIBLE, EVIDENCE, NONCONTRACTIBLE, certify_homotopy_cofinal, is_vdc, weakest
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
    agreement,
    andre_homology,
    bw_homology,
    bw_sides,
    certify_fibres,
    certify_slices,
    direct_image,
    gz_homology,
    inverse_image,
)
from .homalg import HomalgError
from .hocolim import (
    HocolimError,
    bg_diagram,
    compare_restriction,
    hocolim_pointed,
    pointed_quotient_check,
)
from .presheaf import PresheafError, edge_path_group, homology_ss


EXIT_OK = 0
EXIT_INPUT = 1
EXIT_DISAGREE = 2
EXIT_HYPOTHESIS = 3


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


def cmd_validate(args, report):
    ws = Workspace()
    ws.load_file(args.file)
    report["file"] = args.file
    report["entities"] = ws.validate_all()


def cmd_homology(args, report, diagram):
    report["nmax"] = args.nmax
    if not args.abelian:
        if not args.abelianize:
            raise InputError("group diagrams need --abelianize (or use --abelian for abelian diagrams)")
        diagram = abelianize_diagram(diagram)
    report["homology"] = _fgab_strs(ab_colim_derived(diagram.base, diagram, args.nmax))


def cmd_colim0(args, report, diagram):
    pres = colim0(diagram.base, diagram)
    report["presentation"] = presentation_to_json(pres)
    report["fingerprint"] = list(fingerprint(pres))


def cmd_check_cofinal(args, report, functor):
    rep = certify_homotopy_cofinal(functor, effort=args.effort, n_max=args.nmax,
                                   coinitial=args.coinitial)
    report["coinitial"] = args.coinitial
    report["aggregate"] = rep["aggregate"]
    report["per_object"] = {d: v.to_json() for d, v in rep["per_object"].items()}
    if rep["aggregate"] != CONTRACTIBLE:
        return EXIT_HYPOTHESIS


def cmd_check_vdc(args, report, functor):
    ok, report["witnesses"] = is_vdc(functor)
    report["vdc"] = ok
    if not ok:
        return EXIT_HYPOTHESIS


def cmd_kan_extend(args, report, functor, diagram):
    extended = kan_extend_vdc(functor, diagram)
    if args.abelian:
        report["values"] = {d: str(v) for d, v in extended.value.items()}
    else:
        # a factor without a name, such as a workspace's inline table, by its order
        report["values"] = {
            d: " * ".join("%s" % (grp.name or grp.order()) for _, grp in v.nontrivial_factors()) or "1"
            for d, v in extended.value.items()
        }
        pres = colim0(extended.base, extended)
        report["colim0_fingerprint"] = list(fingerprint(pres))


def cmd_factorization(args, report, category):
    report["factorization"] = category_to_json(factorization(category).category)


def _system_homology(report, res):
    """The report of ``bw`` and ``gz``: both routes' answer and, for group
    coefficients, the degree-0 presentation."""
    report["routes_agree"] = res["routes_agree"]
    report["abelian"] = _fgab_strs(res["abelian"])
    if "n0" in res:
        report["n0"] = {
            "presentation": presentation_to_json(res["n0"]["presentation"]),
            "fingerprint": res["n0"]["fingerprint"],
        }


def cmd_bw(args, report, category, system):
    _system_homology(report, bw_homology(category, system, args.nmax))


def cmd_gz(args, report, dset, system):
    _system_homology(report, gz_homology(dset, system, args.nmax))


def cmd_andre(args, report, dset, diagram):
    res = andre_homology(dset, diagram, args.nmax)
    report["abelian"] = _fgab_strs(res["abelian"])
    if "n0" in res:
        report["n0"] = {"fingerprint": res["n0"]["fingerprint"]}


def cmd_hocolim(args, report, pointed_diagram):
    H = hocolim_pointed(pointed_diagram, args.level)
    report["level"] = args.level
    report["cardinalities"] = [len(s) for s in H.simplices]
    report["homology"] = _fgab_strs(homology_ss(H, args.nmax))
    report["pi1_fingerprint"] = list(fingerprint(tietze_simplify(edge_path_group(H))))


def cmd_pi1(args, report, sset):
    pres = tietze_simplify(edge_path_group(sset))
    report["presentation"] = presentation_to_json(pres)
    report["fingerprint"] = list(fingerprint(pres))


def cmd_fingerprint(args, report, presentation):
    report["fingerprint"] = list(fingerprint(presentation))


# -- theorem harness --------------------------------------------------------------


# what a hypothesis aggregate earns by itself; any other aggregate, a
# failed hypothesis or a resource cap, is not certified
_EARNED = {CONTRACTIBLE: "certified", EVIDENCE: "conditional"}


def _hyp_gate(report, aggregate, assume):
    """The one gate of the conditional theorems: writes ``hypothesis_mode``
    and returns whether the comparison runs.  Under --assume-hypothesis it
    runs as "assumed"; otherwise only a certified or conditional
    hypothesis lets it run."""
    earned = _EARNED.get(aggregate)
    report["hypothesis_mode"] = "assumed" if assume else earned or "not certified"
    return assume or earned is not None


def _compare_colimits(report, nmax, lhs, rhs):
    """Whether two sides, each ``(base, abelian diagram, group diagram)``,
    agree in derived colimits and colim0 fingerprints."""
    ab_l, ab_r = (ab_colim_derived(C, M, nmax) for C, M, _ in (lhs, rhs))
    fp_l, fp_r = (fingerprint(colim0(C, G)) for C, _, G in (lhs, rhs))
    report["abelian"] = {"lhs": _fgab_strs(ab_l), "rhs": _fgab_strs(ab_r)}
    report["fingerprints"] = {"lhs": list(fp_l), "rhs": list(fp_r)}
    return ab_l == ab_r and fp_l == fp_r


def _systems(fx):
    """The system roles a fixture fills, abelian first."""
    return [key for key in ("ab_system", "group_system") if fx.get(key) is not None]


def _verify_homoliso(fx, args, report):
    S = fx["functor"]
    hyp = certify_homotopy_cofinal(S, effort=args.effort, n_max=min(args.nmax, 2))
    report["per_object"] = {d: v.kind for d, v in hyp["per_object"].items()}
    report["hypothesis"] = hyp["aggregate"]
    if not _hyp_gate(report, hyp["aggregate"], args.assume_hypothesis):
        return None
    M = fx["ab_diagram"]
    G = fx["group_diagram"]
    return _compare_colimits(report, args.nmax, (S.source, M.restrict(S), G.restrict(S)),
                             (S.target, M, G))


def _verify_discvirt(fx, args, report):
    S = fx["functor"]
    ok, witnesses = is_vdc(S)
    report["vdc"] = ok
    # is_vdc decides exactly: its answer is a certificate or a failure.  The
    # right side is a Kan extension that exists only along a VDC, so a
    # non-VDC is not certified even when the hypothesis is assumed
    if not _hyp_gate(report, CONTRACTIBLE if ok else NONCONTRACTIBLE,
                     args.assume_hypothesis and ok):
        report["witnesses"] = {
            d: w for d, w in witnesses.items() if not w["finally_discrete"]
        }
        return None
    M = fx["ab_diagram"]
    G = fx["group_diagram"]
    return _compare_colimits(report, args.nmax, (S.source, M, G),
                             (S.target, kan_extend_vdc(S, M), kan_extend_vdc(S, G)))


def _verify_cofpointed(fx, args, report):
    S = fx["functor"]
    level = fx["level"]
    n_max = min(args.nmax, level - 1)
    hyp = certify_homotopy_cofinal(S, effort=args.effort, n_max=n_max)
    report["hypothesis"] = {d: v.kind for d, v in hyp["per_object"].items()}
    # the certificate's own reading, whether or not it is assumed
    report["label"] = _EARNED.get(hyp["aggregate"], "unconditional comparison")
    go = _hyp_gate(report, hyp["aggregate"], args.assume_hypothesis)
    # the one comparison made past a closed gate: the sides and verdict of
    # verify.cofpointed.noncofinal-a-in-2.json pin it
    report.update(compare_restriction(S, fx["pointed_diagram"], level, n_max))
    if not go:
        return None
    return report["verdict"] == "agree"


def _verify_main2_n0(fx, args, report):
    G = fx["group_diagram"]
    level = fx["level"]
    H = hocolim_pointed(bg_diagram(G, level), level)
    pi1 = fingerprint(tietze_simplify(edge_path_group(H)))
    c0 = fingerprint(colim0(G.base, G))
    report["fingerprints"] = {"pi1_hocolim": list(pi1), "colim0": list(c0)}
    return pi1 == c0


def _verify_contralan(fx, args, report):
    outcomes = {}
    for key in _systems(fx):
        res = gz_homology(fx["dset"], fx[key], args.nmax)
        outcomes[key] = {
            "routes_agree": res["routes_agree"],
            "abelian": _fgab_strs(res["abelian"]),
        }
    report["systems"] = outcomes
    return True


def _verify_corfact(fx, args, report):
    res = bw_homology(fx["category"], fx["ab_system"], min(args.nmax, 2))
    report["abelian"] = _fgab_strs(res["abelian"])
    report["routes_agree"] = res["routes_agree"]
    return True


def _verify_factfibres(fx, args, report):
    S = fx["functor"]
    FS = factor_functor(S)
    results = {}
    for alpha in S.target.morphisms:
        lhs, _, _ = comma_left_fibre(FS, alpha)
        rhs = factorization(factor_slice(S, alpha)).category
        results[alpha] = iso_check(lhs, rhs) is not None
    report["isomorphic"] = results
    return all(results.values())


def _verify_wefrac(fx, args, report):
    C = fx["category"]
    F = factorization(C)
    rep = certify_homotopy_cofinal(F.cod, effort=args.effort, n_max=min(args.nmax, 2),
                                   coinitial=True)
    report["per_object"] = {d: v.kind for d, v in rep["per_object"].items()}
    report["aggregate"] = rep["aggregate"]
    # the conclusion is itself a certificate: only a decided one is a verdict
    if rep["aggregate"] in (CONTRACTIBLE, NONCONTRACTIBLE):
        return rep["aggregate"] == CONTRACTIBLE
    report["verdict"] = "not certified"
    return None


def _verify_lcodecar(fx, args, report):
    rep = pointed_quotient_check(fx["pointed_diagram"], fx["level"])
    report["pass"] = rep["pass"]
    if rep["witness"] is not None:
        report["witness"] = rep["witness"]
    return rep["pass"]


def _verify_dliso(fx, args, report):
    outcomes = {key: direct_image(fx["dset_morphism"], fx[key], args.nmax)["verdict"]
                for key in _systems(fx)}
    report["systems"] = outcomes
    return all(verdict == "agree" for verdict in outcomes.values())


def _verify_dhiso(fx, args, report):
    f = fx["dset_morphism"]
    system = fx["ab_system"]
    fibres = certify_fibres(f, args.nmax, effort=args.effort)
    report["fibres"] = {"%s@%s" % (y, d): v.kind for (d, y), v in fibres.items()}
    report["hypothesis"] = weakest(fibres.values()).kind
    if not _hyp_gate(report, report["hypothesis"], args.assume_hypothesis):
        return None
    lhs = gz_homology(f.source, inverse_image(f, system), args.nmax)
    rhs = gz_homology(f.target, system, args.nmax)
    return agreement(lhs, rhs) == "agree"


def _verify_confhomolbw(fx, args, report):
    S = fx["functor"]
    n_max = min(args.nmax, 2)
    slices = certify_slices(S, n_max, effort=args.effort)
    # what each system's outcome says of the hypothesis, shared by all
    outcome = {"hypothesis": weakest(slices.values()).kind}
    failed = [alpha for alpha, v in slices.items() if v.kind == NONCONTRACTIBLE]
    if failed:
        outcome["witness"] = "hypothesis fails at alpha=%s" % failed[0]
    report["hypothesis_over"] = "target-category morphisms"
    if not _hyp_gate(report, outcome["hypothesis"], args.assume_hypothesis):
        verdict = "hypothesis fails" if failed else "not certified"
        report["systems"] = {key: dict(outcome, verdict=verdict) for key in _systems(fx)}
        report["verdict"] = "not certified"
        return None
    report["systems"] = {key: dict(outcome, verdict=agreement(*bw_sides(S, fx[key], n_max)))
                         for key in _systems(fx)}
    return all(o["verdict"] == "agree" for o in report["systems"].values())


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


THEOREMS = tuple(_VERIFIERS)


def cmd_verify(args, report):
    """Runs the fixture's verifier and writes, from its outcome alone, the
    report's ``verdict`` and ``exit``."""
    try:
        fx = fixtures.load_fixture(args.theorem, args.fixture)
    except KeyError as exc:
        raise InputError(str(exc)) from None
    report["theorem"] = args.theorem
    report["fixture"] = args.fixture
    outcome = _VERIFIERS[args.theorem](fx, args, report)
    if outcome is None:
        report["exit"] = EXIT_HYPOTHESIS
    else:
        report["verdict"] = "agree" if outcome else "disagree"
        report["exit"] = EXIT_OK if outcome else EXIT_DISAGREE
    return report["exit"]


def cmd_list_fixtures(args, report):
    report["fixtures"] = {t: fixtures.fixture_names(t) for t in THEOREMS}


# -- the command table ----------------------------------------------------------------


def entity(section):
    """An option naming an entity of a workspace section; ``main`` reads
    the entity before the handler runs."""
    return {"required": True, "section": section}


def count(default, least=0):
    """An integer option below ``least`` is a usage error."""
    def at_least(text):
        try:
            value = int(text)
        except ValueError:  # argparse's own wording for type=int
            raise argparse.ArgumentTypeError("invalid int value: %r" % text) from None
        if value < least:
            raise argparse.ArgumentTypeError("must be at least %d, got %d" % (least, value))
        return value
    return {"type": at_least, "default": default}


FLAG = {"action": "store_true"}

# options map each flag to its argparse keyword arguments, in help order;
# an entity option also names its workspace section
Command = collections.namedtuple("Command", "handler help workspace options")

COMMANDS = {
    "validate": Command(cmd_validate, "validate an input file", False, {"file": {}}),
    "homology": Command(cmd_homology, "derived colimits of a diagram", True, {
        "--diagram": entity("diagrams"),
        "--nmax": count(3),
        "--abelian": dict(FLAG, help="the named diagram is an abelian diagram"),
        "--abelianize": dict(FLAG, help="abelianize a group diagram objectwise first"),
    }),
    "colim0": Command(cmd_colim0, "colimit presentation of a group diagram", True, {
        "--diagram": entity("diagrams"),
    }),
    "check-cofinal": Command(cmd_check_cofinal, "certify homotopy cofinality", True, {
        "--functor": entity("functors"),
        "--coinitial": FLAG,
        "--effort": count(1, least=1),
        "--nmax": count(2),
    }),
    "check-vdc": Command(cmd_check_vdc, "check the virtual-discrete-cofibration property", True, {
        "--functor": entity("functors"),
    }),
    "kan-extend": Command(cmd_kan_extend, "left Kan extension along a VDC", True, {
        "--functor": entity("functors"),
        "--diagram": entity("diagrams"),
        "--abelian": FLAG,
    }),
    "factorization": Command(cmd_factorization, "factorization category of a category", True, {
        "--category": entity("categories"),
    }),
    "bw": Command(cmd_bw, "natural-system homology of a category", True, {
        "--category": entity("categories"),
        "--system": entity("systems"),
        "--nmax": count(2),
    }),
    "gz": Command(cmd_gz, "presheaf homology with system coefficients", True, {
        "--dset": entity("dsets"),
        "--system": entity("systems"),
        "--nmax": count(2),
    }),
    "andre": Command(cmd_andre, "presheaf homology with plain diagram coefficients", True, {
        "--dset": entity("dsets"),
        "--diagram": entity("diagrams"),
        "--nmax": count(2),
        "--abelian": FLAG,
    }),
    "hocolim": Command(cmd_hocolim, "pointed homotopy colimit invariants", True, {
        "--pointed-diagram": entity("pointed_diagrams"),
        "--level": count(3),
        "--nmax": count(2),
    }),
    "pi1": Command(cmd_pi1, "edge-path fundamental group of a pointed simplicial set", True, {
        "--sset": entity("ssets"),
    }),
    "fingerprint": Command(cmd_fingerprint, "hom-count fingerprint of a presentation", True, {
        "--presentation": entity("presentations"),
    }),
    "verify": Command(cmd_verify, "run a theorem check on a named fixture", False, {
        "--theorem": {"required": True, "choices": THEOREMS},
        "--fixture": {"required": True},
        "--nmax": count(3),
        "--effort": count(1, least=1),
        "--assume-hypothesis": dict(
            FLAG, help="skip hypothesis certification and compare unconditionally; "
                       "discvirt still needs a VDC to build its right side, and on a "
                       "non-VDC exits 3 with the witnesses"),
    }),
    "list-fixtures": Command(cmd_list_fixtures, "list built-in fixtures per theorem", False, {}),
}


class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors: one ``error:`` line and exit 1."""

    def error(self, message):
        raise InputError("%s: %s" % (self.prog, message))


@functools.cache
def _parser():
    """The parser of ``COMMANDS``, built on first use and then reused."""
    parser = _Parser(
        prog="hocofin",
        description="Exact homology of group diagrams over finite categories",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        if command.workspace:
            p.add_argument("--workspace", action="append",
                           help="workspace JSON file, or 'builtin' (default: builtin)")
        p.add_argument("--format", dest="format_sub", choices=("text", "json"),
                       default=None, help=argparse.SUPPRESS)
        for flag, spec in command.options.items():
            p.add_argument(flag, **{k: v for k, v in spec.items() if k != "section"})
    return parser


def _one_line(exc):
    """The message of exc on one line: a line break in a name it quotes
    is written as ``\\n`` or ``\\r``."""
    return str(exc).replace("\r", "\\r").replace("\n", "\\n")


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
        if args.format_sub:
            args.format = args.format_sub
        command = COMMANDS[args.command]
        report = {"command": args.command}
        entities = {}
        if command.workspace:
            ws = _load_workspace(args.workspace)
            for flag, spec in command.options.items():
                if "section" in spec:
                    dest = flag[2:].replace("-", "_")
                    section = spec["section"]
                    if section == "diagrams" and getattr(args, "abelian", False):
                        section = "abdiagrams"
                    report[dest] = getattr(args, dest)
                    entities[dest] = ws.get(section, report[dest])
        # through the module attribute, which a tracer may have wrapped
        code = globals()[command.handler.__name__](args, report, **entities) or EXIT_OK
        _emit(args, report)
        return code
    except (InputError, CategoryError, GroupError, PresheafError, HocolimError,
            DiagramError, HomalgError, BudgetExceeded, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write("error: %s: %s\n" % (type(exc).__name__, _one_line(exc)))
        return EXIT_INPUT
    except RouteMismatch as exc:
        sys.stderr.write("route mismatch: %s\n" % _one_line(exc))
        return EXIT_DISAGREE
    except GZError as exc:
        sys.stderr.write("error: %s\n" % _one_line(exc))
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

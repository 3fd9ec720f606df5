"""Command-line surface.

Exit codes: 0 success, 1 usage/parse/discipline error, 2 fuel exhaustion,
3 an equality request involving Tr.

The default fuel is 10000 beta steps, overridable per call with --fuel or
globally with the OPERADFORGE_FUEL environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

from . import acceptance, braids, comb, operad, terms
from .normalize import DEFAULT_FUEL, FuelExhausted, Verdict, lam_equal, normalize
from .terms import Discipline, DisciplineError


class CliError(ValueError):
    """A usage error: `main` prints it and exits 1, as for every ValueError."""


def _default_fuel() -> int:
    raw = os.environ.get("OPERADFORGE_FUEL")
    if raw is None:
        return DEFAULT_FUEL
    try:
        fuel = int(raw)
    except ValueError:
        raise CliError(f"OPERADFORGE_FUEL must be an integer, got {raw!r}")
    if fuel < 1:
        raise CliError("OPERADFORGE_FUEL must be positive")
    return fuel


_DISCIPLINES = {d.value: d for d in Discipline}


def _discipline(name: str) -> Discipline:
    try:
        return _DISCIPLINES[name.lower()]
    except KeyError:
        raise CliError(f"unknown discipline {name!r} (choose from {sorted(_DISCIPLINES)})")


def _signature(name: str) -> comb.Signature:
    try:
        return comb.SIGNATURES[name.lower().replace("_", "").replace("-", "")]
    except KeyError:
        raise CliError(f"unknown signature {name!r} (choose from {sorted(comb.SIGNATURES)})")


def _read_input(text: str) -> str:
    if text == "-":
        return sys.stdin.read()
    return text


def _parse_lambda(text: str, d: Discipline) -> terms.LTerm:
    """Parse a lambda term, resolving free identifiers that name combinator
    primitives to their lambda images in the discipline; a primitive without
    one there is an error."""

    def image(name: str, depth: int) -> terms.LTerm | None:
        if name in comb.PRIM_NAMES:
            return comb.to_lambda(comb.Prim(name), d)
        return None

    return terms.replace_consts(terms.parse(text), image)


def _verdict_exit(v: Verdict) -> int:
    return 2 if v is Verdict.FUEL_EXHAUSTED else 0


# -- subcommands ------------------------------------------------------------------


def cmd_norm(args) -> int:
    d = _discipline(args.discipline)
    t = _parse_lambda(_read_input(args.term), d)
    try:
        nf = normalize(t, d, fuel=args.fuel)
    except DisciplineError as e:
        raise CliError(f"discipline error: {e}")
    if args.tree:
        print("\n".join(terms.tree_lines(nf)))
    else:
        print(terms.pretty(nf))
    return 0


def cmd_eq(args) -> int:
    if (args.discipline is None) == (args.signature is None):
        raise CliError("eq needs exactly one of -d/--discipline or -s/--signature")
    if args.signature is not None:
        sig = _signature(args.signature)
        c1 = comb.parse_cterm(_read_input(args.lhs))
        c2 = comb.parse_cterm(_read_input(args.rhs))
        v = comb.comb_equal(c1, c2, sig, fuel=args.fuel)
    else:
        d = _discipline(args.discipline)
        t1 = _parse_lambda(_read_input(args.lhs), d)
        t2 = _parse_lambda(_read_input(args.rhs), d)
        v = lam_equal(t1, t2, d, fuel=args.fuel)
    print(v)
    return _verdict_exit(v)


def cmd_abstract(args) -> int:
    sig = _signature(args.signature)
    poly = comb.parse_cterm(_read_input(args.poly))
    out = comb.bracket_abstract(poly, sig)
    print(comb.format_cterm(out))
    if args.certify:
        v = comb.beta_check_abstraction(poly, sig, samples=min(args.samples, 8), seed=args.seed, fuel=args.fuel)
        print(f"certified: {v}", file=sys.stderr)
        return _verdict_exit(v)
    return 0


def cmd_arity(args) -> int:
    sig = _signature(args.signature)
    t = comb.parse_cterm(_read_input(args.term))
    found = operad.infer_arity(t, bound=args.bound, sig=sig, fuel=args.fuel)
    if found is None:
        print(f"no arity within bound {args.bound}")
        return 0
    print(f"{found[0]} -> {found[1]}")
    return 0


def cmd_member(args) -> int:
    sig = _signature(args.signature)
    t = comb.parse_cterm(_read_input(args.term))
    v = operad.in_internal_operad(t, args.arity, sig, fuel=args.fuel)
    print(v)
    return _verdict_exit(v)


def cmd_compose(args) -> int:
    sig = _signature(args.signature)
    if args.bound < 0:
        raise CliError(f"negative arity bound {args.bound}")
    g_term = comb.parse_cterm(args.g)
    n = len(args.fs)
    g = operad.operad_elem(g_term, n, sig, fuel=args.fuel)
    fs = []
    for src in args.fs:
        t = comb.parse_cterm(src)
        found = None
        for m in range(args.bound + 1):
            if operad.in_internal_operad(t, m, sig, fuel=args.fuel) is Verdict.EQUAL:
                found = m
                break
        if found is None:
            raise CliError(f"{src!r} is not an operad element within arity bound {args.bound}")
        fs.append(operad.OperadElem(t, found))
    out = operad.operad_compose(g, fs, sig, verify=args.verify, fuel=args.fuel)
    print(comb.format_cterm(out.elem))
    print(f"arity: {out.m} -> 1", file=sys.stderr)
    return 0


# Argument counts each braid operation takes: (fewest, most or None).
_BRAID_ARGC = {
    "eq": (2, 2),
    "cable": (1, None),
    "perm": (1, 1),
    "sum": (1, None),
    "trivial": (1, 1),
    "inverse": (1, 1),
}


def cmd_braid(args) -> int:
    op = args.op
    fewest, most = _BRAID_ARGC[op]
    got = len(args.args)
    if got < fewest or (most is not None and got > most):
        want = f"{fewest}" if fewest == most else f"at least {fewest}"
        raise CliError(f"braid {op} takes {want} argument(s), got {got}")
    if op == "eq":
        u, v = braids.parse_braid(args.args[0]), braids.parse_braid(args.args[1])
        equal = braids.braid_equal(u, v)
        print("Equal" if equal else "NotEqual")
        return 0
    if op == "trivial":
        print("true" if braids.braid_is_trivial(braids.parse_braid(args.args[0])) else "false")
        return 0
    if op == "cable":
        u = braids.parse_braid(args.args[0])
        widths = [int(x) for x in args.args[1:]]
        print(braids.format_braid(braids.cable(u, widths)))
        return 0
    if op == "perm":
        u = braids.parse_braid(args.args[0])
        print(" ".join(str(k) for k in braids.underlying_permutation(u)))
        return 0
    if op == "sum":
        ws = [braids.parse_braid(a) for a in args.args]
        print(braids.format_braid(braids.direct_sum(ws)))
        return 0
    # op == "inverse": argparse admits only the keys of _BRAID_ARGC
    print(braids.format_braid(braids.braid_inverse(braids.parse_braid(args.args[0]))))
    return 0


def cmd_axioms(args) -> int:
    sig = _signature(args.signature)
    reports = comb.axiom_suite(sig, samples=args.samples, seed=args.seed, fuel=args.fuel)
    if args.json:
        print(json.dumps([asdict(r) for r in reports], indent=2))
    else:
        for r in reports:
            print(f"{r.status.upper():7s} {r.axiom}")
    return 0 if all(r.status == "pass" for r in reports) else 1


def cmd_trace(args) -> int:
    if args.what == "trefoil":
        cert = operad.trefoil()
    else:
        eta, eps = operad.eta_eps()
        cert = eta if args.what == "eta" else eps
    print(comb.format_cterm(cert.elem))
    print(f"arity: {cert.m} -> {cert.n} (stated)", file=sys.stderr)
    return 0


def cmd_suite(args) -> int:
    results = acceptance.run_all(args.samples, args.seed, args.fuel, progress=not args.json)
    if args.json:
        print(json.dumps([asdict(r) for r in sorted(results, key=lambda r: r.name)], indent=2))
    return 0 if all(r.ok for r in results) else 1


# -- argument parsing ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="operadforge",
        description="Symbolic workbench for combinatory algebras, lambda calculi, "
        "braid groups, and internal operads.",
    )
    p.add_argument("--fuel", type=int, default=None, help="beta-step budget (cartesian)")
    p.add_argument("--samples", type=int, default=32, help="samples per metavariable axiom")
    p.add_argument("--seed", type=int, default=0, help="sample seed")
    p.add_argument("--json", action="store_true", help="emit JSON reports")
    sub = p.add_subparsers(dest="command", required=True)

    norm = sub.add_parser("norm", help="normalize a lambda term")
    norm.add_argument("-d", "--discipline", required=True)
    norm.add_argument("--tree", action="store_true", help="print the term tree")
    norm.add_argument("term")
    norm.set_defaults(fn=cmd_norm)

    eq = sub.add_parser("eq", help="decide equality of two terms")
    eq.add_argument("-d", "--discipline")
    eq.add_argument("-s", "--signature")
    eq.add_argument("lhs")
    eq.add_argument("rhs")
    eq.set_defaults(fn=cmd_eq)

    ab = sub.add_parser("abstract", help="bracket abstraction of a polynomial")
    ab.add_argument("-s", "--signature", required=True)
    ab.add_argument("--certify", action="store_true")
    ab.add_argument("poly", help="polynomial with variables x0 x1 .. (x = x0)")
    ab.set_defaults(fn=cmd_abstract)

    ar = sub.add_parser("arity", help="least arity of a combinator expression")
    ar.add_argument("-s", "--signature", default="bciwk")
    ar.add_argument("--bound", type=int, default=4)
    ar.add_argument("term")
    ar.set_defaults(fn=cmd_arity)

    me = sub.add_parser("member", help="internal-operad membership at an arity")
    me.add_argument("-s", "--signature", required=True)
    me.add_argument("term")
    me.add_argument("arity", type=int)
    me.set_defaults(fn=cmd_member)

    co = sub.add_parser("compose", help="operadic multi-composition g(f1, .., fn)")
    co.add_argument("-s", "--signature", required=True)
    co.add_argument("--bound", type=int, default=4)
    co.add_argument("--verify", action="store_true")
    co.add_argument("g")
    co.add_argument("fs", nargs="+")
    co.set_defaults(fn=cmd_compose)

    br = sub.add_parser("braid", help="braid word operations")
    br.add_argument("op", choices=list(_BRAID_ARGC))
    br.add_argument("args", nargs="+")
    br.set_defaults(fn=cmd_braid)

    ax = sub.add_parser("axioms", help="run a signature's axiom suite")
    ax.add_argument("signature")
    ax.set_defaults(fn=cmd_axioms)

    tr = sub.add_parser("trace", help="print trace-combinator expressions")
    tr.add_argument("what", choices=["trefoil", "eta", "eps"])
    tr.set_defaults(fn=cmd_trace)

    su = sub.add_parser("suite", help="run the full acceptance battery")
    su.set_defaults(fn=cmd_suite)

    return p


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        # argparse printed the help (code 0) or its usage line and message
        # (code 2, which here means fuel exhaustion): a usage error is 1
        return 1 if e.code else 0
    try:
        if args.fuel is None:
            args.fuel = _default_fuel()
        if args.fuel < 1 or args.samples < 1:
            raise CliError("fuel and samples must be at least 1")
        return args.fn(args)
    except comb.UnsupportedTrace as e:
        print(f"Unknown: {e}", file=sys.stderr)
        return 3
    except FuelExhausted as e:
        print(f"FuelExhausted: {e}", file=sys.stderr)
        return 2
    except ValueError as e:  # every input error of the package is one
        print(f"error: {e}", file=sys.stderr)
        return 1
    except RecursionError:
        print("error: input nests too deeply", file=sys.stderr)
        return 1


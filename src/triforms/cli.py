"""Command-line front end: expansions, classification, scans, and
verification suites with machine-readable output.

Subcommands: expand, classify, verify, takeuchi.  Output is JSON
(canonical, sorted) or, for classify with --format csv, CSV; identical
invocations produce byte-identical output.  Exit status is nonzero on
usage errors or any verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from math import gcd

from .dwork import (
    dwork_set_condition,
    lemma_two_check,
    require_coprime,
    takeuchi_scan,
    theorem_classifier,
)
from .errors import OrderShortfall, TriformsError
from .halphen import (
    HGParams,
    TriangleType,
    eisenstein_one,
    eisenstein_two,
    hauptmodul_from_halphen,
    solve_halphen,
)
from .hypergeom import (
    frobenius_basis, mirror_map, schwarz_map, series_f, series_g)
from .lab import (
    checked_generators,
    cross_route_consistency,
    dieudonne_check,
    dwork_congruence_check,
    empirical_integrality,
    generator_integrality,
    mirror_integrality_check,
    schwarz_congruence_check,
)
from .rationals import QQ, primes, rational_to_str
from .series import TruncatedSeries, log_series, reversion

DEFAULT_ORDER = 120

CSV_COLUMNS = ["type", "p", "N", "verdict", "firstNegativeIndex", "minValuation"]

#: The options each verify suite reads; passing any other is a usage error.
SUITE_OPTIONS = {
    "cross-route": ("type", "N"),
    "dwork": ("type", "primes", "N"),
    "schwarz": ("type", "primes", "N"),
    "generators": ("type", "primes", "N"),
    "lemma2": ("primes",),
    "dieudonne": ("primes", "N"),
    "classifier": ("type", "primes"),
    "remark": ("long",),
}
VERIFY_ORDER = 60
DEFAULT_TYPES = (TriangleType(2, 3), TriangleType(2, 5), TriangleType(3, 4),
                 TriangleType(3, 3), TriangleType(2, None))


def parse_primes(spec: str):
    """Inclusive 'lo..hi' range filtered by primality, or one prime; a
    range without a prime, a non-prime and any other text are rejected."""
    lo, dots, hi = spec.partition("..")
    try:
        lo, hi = int(lo), int(hi if dots else lo)
    except ValueError:
        raise ValueError(
            f"expected a prime or lo..hi, got {spec!r}") from None
    found = primes(lo, hi)
    if dots and not found:
        raise ValueError(f"no prime in {spec}")
    if not dots and found != [lo]:
        raise ValueError(f"{lo} is not prime")
    return found


def emit(payload, fmt: str = "json"):
    """Print canonical JSON, or for fmt 'csv' payload["results"] as CSV."""
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        import csv  # only CSV output needs it; each CLI call starts afresh
        writer = csv.DictWriter(sys.stdout, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for row in payload["results"]:
            writer.writerow({k: row.get(k, "") for k in CSV_COLUMNS})


def _series_catalog(tri: TriangleType, name: str, n_order: int):
    name = name.lower()
    if name in ("t1", "t2", "t3"):
        return getattr(solve_halphen(tri, n_order), name).to_json()
    if name == "j":
        sol = solve_halphen(tri, n_order + 2)
        return hauptmodul_from_halphen(sol).to_json()
    if name[:3] in ("e1_", "e2_") and name[3:].removeprefix("-").isdecimal():
        k, odd = divmod(int(name[3:]), 2)
        if odd or k < 1:
            raise ValueError("generator weights are even and at least 2")
        sol = solve_halphen(tri, n_order)
        builder = eisenstein_one if name[1] == "1" else eisenstein_two
        return builder(range(k, k + 1), sol)[0].to_json()
    params = HGParams.for_type(tri)
    if name == "f":
        return series_f(params, n_order).to_json()
    if name == "g":
        return series_g(params, n_order).to_json()
    if name == "d":
        return schwarz_map(params, n_order).to_json()
    if name == "qmap":
        return mirror_map(params, n_order).to_json()
    if name == "zmap":
        return reversion(mirror_map(params, n_order)).to_json()
    raise ValueError(f"unknown series {name!r}; expected one of "
                     "t1,t2,t3,J,E1_2k,E2_2k,F,G,D,qmap,zmap")


def cmd_expand(args) -> int:
    tri = TriangleType.parse(args.type)
    if args.N < 0:
        raise ValueError(f"--N must be at least 0, not {args.N}")
    data = _series_catalog(tri, args.series, args.N)
    payload = {"command": "expand", "type": str(tri), "series": args.series,
               "N": args.N, "result": data}
    emit(payload)
    return 0


def cmd_classify(args) -> int:
    tri = TriangleType.parse(args.type)
    candidates = parse_primes(args.primes)
    if args.N is not None and args.N < 1:
        raise ValueError(f"--N must be at least 1, not {args.N}")
    q = None if args.N is None else mirror_map(
        HGParams.for_type(tri), args.N + 1)
    rows = []
    for p in candidates:
        if gcd(p, tri.conductor) > 1:
            continue
        entry = theorem_classifier(tri, p).to_json()
        if q is not None:
            profile = empirical_integrality(tri, p, q)
            entry.update(N=args.N, firstNegativeIndex=profile.first_failure,
                         minValuation=profile.min_valuation)
        rows.append(entry)
    payload = {"command": "classify", "type": str(tri), "results": rows}
    emit(payload, args.format)
    return 0


def _verify_cells(args):
    """Run the selected suite, one of SUITE_OPTIONS (argparse enforces
    it); yield (cell description, ok, extra).

    What depends only on the type is built once per type and shared by
    every prime."""
    suite = args.suite
    n_order = args.N
    types = [TriangleType.parse(args.type)] if args.type else DEFAULT_TYPES
    primes = parse_primes(args.primes) if args.primes else []

    if suite == "cross-route":
        for t in types:
            cross_route_consistency(t, n_order)
            yield f"cross-route {t}", True, {
                "kappa": rational_to_str(t.kappa)}
    elif suite == "dwork":
        for t in types:
            ps = _primes_for(t, primes)
            f, g = frobenius_basis(HGParams.for_type(t), n_order)
            for p in ps:
                r = dwork_congruence_check(t, p, f, g)
                yield f"dwork {t} p={p}", r.holds(), {}
    elif suite == "schwarz":
        for t in types:
            ps = _primes_for(t, primes)
            f, g = frobenius_basis(HGParams.for_type(t), n_order)
            for p in ps:
                # the index rule in lab.py: D(z^p) - p D fails at z^(p c)
                c = schwarz_congruence_check(t, p, f, g).first_failure
                if c is not None and p * c > n_order:
                    raise OrderShortfall(
                        f"schwarz-vs-empirical {t} p={p}: the congruence "
                        f"fails at z^{c}, so the mirror map's verdict needs "
                        f"--N >= {p * c} (p c), not {n_order}")
                integral = mirror_integrality_check(t, p, f, g)
                yield f"schwarz-vs-empirical {t} p={p}", \
                    (c is None) == integral.holds(), {
                        "congruence": c is None,
                        "verdict": _evidence(integral)}
    elif suite == "generators":
        for t in types:
            ps = _primes_for(t, primes)
            generators = checked_generators(t, n_order)
            for p in ps:
                cells = generator_integrality(t, p, generators)
                # one-sided: a truncated series can only show a failure,
                # and the cell fails on one the classifier does not predict
                predicted = theorem_classifier(t, p).witness is not None
                integral = all(v.holds() for _, v in cells)
                yield f"generators {t} p={p}", integral or not predicted, {
                    lbl: _evidence(v) for lbl, v in cells}
    elif suite == "lemma2":
        for p in primes or [5, 7]:
            counter = lemma_two_check(p)
            yield f"lemma2 p={p}", not counter, {"counterexamples": len(counter)}
    elif suite == "dieudonne":
        primes = primes or [5, 7]
        u = log_series(TruncatedSeries([1, 1], n_order))
        for p, sides in zip(primes, dieudonne_check(u, primes)):
            bad = TruncatedSeries([QQ(0), QQ(1, p)], n_order)
            (bad_sides,) = dieudonne_check(bad, [p])
            exp_integral, congruent = (s.holds() for s in sides)
            bad_exp, bad_congruent = (s.holds() for s in bad_sides)
            yield f"dieudonne p={p}", (
                exp_integral == congruent and bad_exp == bad_congruent), {
                    "exp_integral": exp_integral,
                    "congruence_holds": congruent}
    elif suite == "classifier":
        for t in types:
            for p in _primes_for(t, primes):
                predicted = theorem_classifier(t, p).witness is not None
                yield f"classifier {t} p={p}", \
                    predicted == dwork_set_condition(t, p), {}
    elif suite == "remark":
        t = TriangleType(2, 5)
        q = mirror_map(HGParams.for_type(t), 184)
        for p in (11, 19):
            v = empirical_integrality(t, p, q)
            yield f"remark (2,5) p={p} N=183", v.holds(), {
                "minValuation": v.min_valuation}


def _evidence(check) -> str:
    return "integralEvidence" if check.holds() else "nonIntegralEvidence"


def _primes_for(tri: TriangleType, primes):
    """The given primes, each checked coprime to the conductor before
    any per-type work, or the defaults coprime to it."""
    for p in primes:
        require_coprime(tri, p)
    return primes or [p for p in (11, 13, 19, 23)
                      if gcd(p, tri.conductor) == 1]


def cmd_verify(args) -> int:
    unread = [f"--{opt}" for opt in ("type", "primes", "N", "long")
              if getattr(args, opt) is not None
              and opt not in SUITE_OPTIONS[args.suite]]
    if unread:
        raise ValueError(f"suite {args.suite} does not read {', '.join(unread)}")
    if args.suite == "remark" and not args.long:
        raise ValueError("the 183-term reproduction runs only with --long")
    if args.N is None:
        args.N = VERIFY_ORDER
    if args.N < 1:
        raise ValueError(f"--N must be at least 1, not {args.N}")
    cells = []
    failures = []
    for name, ok, extra in _verify_cells(args):
        cells.append({"cell": name, "ok": ok, **extra})
        if not ok:
            failures.append(name)
    cells.sort(key=lambda c: c["cell"])
    payload = {"command": "verify", "suite": args.suite, "N": args.N,
               "cells": cells, "failures": failures}
    emit(payload)
    if failures:
        print(f"verification failed: failing cells: {failures}",
              file=sys.stderr)
        return 2
    return 0


EXPECTED_TAKEUCHI = ["(2,3)", "(2,4)", "(2,6)", "(2,inf)",
                     "(3,3)", "(3,inf)", "(4,4)", "(6,6)"]


def cmd_takeuchi(args) -> int:
    found = sorted(str(t) for t in takeuchi_scan(args.bound))
    payload = {"command": "takeuchi", "bound": args.bound, "types": found,
               "matches_expected": found == sorted(EXPECTED_TAKEUCHI)}
    emit(payload)
    return 0 if payload["matches_expected"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triforms",
        description="Exact q-expansions and p-integrality classification "
                    "for hyperbolic triangle groups with a cusp")
    sub = parser.add_subparsers(dest="command", required=True)

    p_expand = sub.add_parser("expand", help="print a q- or z-expansion")
    p_expand.add_argument("--type", required=True, help="m1,m2 ('inf' allowed)")
    p_expand.add_argument("--series", required=True,
                          help="t1|t2|t3|J|E1_2k|E2_2k|F|G|D|qmap|zmap")
    p_expand.add_argument("--N", type=int, default=DEFAULT_ORDER)
    p_expand.set_defaults(func=cmd_expand)

    p_classify = sub.add_parser("classify", help="congruence classifier")
    p_classify.add_argument("--type", required=True)
    p_classify.add_argument("--primes", required=True,
                            help="a prime or an inclusive range lo..hi")
    p_classify.add_argument("--format", choices=["json", "csv"], default="json")
    p_classify.add_argument("--N", type=int, default=None,
                            help="also profile the mirror map to this order")
    p_classify.set_defaults(func=cmd_classify)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", required=True, choices=list(SUITE_OPTIONS))
    p_verify.add_argument("--type", default=None)
    p_verify.add_argument("--primes", default=None)
    p_verify.add_argument("--N", type=int, default=None,
                          help=f"series order (default {VERIFY_ORDER})")
    p_verify.add_argument("--long", action="store_true", default=None,
                          help="enable long reproductions (183 terms)")
    p_verify.set_defaults(func=cmd_verify)

    p_tak = sub.add_parser("takeuchi", help="scan for almost-integral types")
    p_tak.add_argument("--bound", type=int, default=60)
    p_tak.set_defaults(func=cmd_takeuchi)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(sys, "set_int_max_str_digits"):  # every printed int is ours
        sys.set_int_max_str_digits(0)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at shutdown
        return status
    except BrokenPipeError:  # the reader left: devnull quiets the exit flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (TriformsError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

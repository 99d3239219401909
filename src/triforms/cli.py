"""Command-line front end: expansions, classification, scans, and
verification suites with machine-readable output.

Subcommands: expand, classify, verify, takeuchi.  Output is JSON
(canonical, sorted) or, for classify with --format csv, CSV; identical
invocations produce byte-identical output.  Exit status is nonzero on
usage errors or any verification failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from math import gcd

from .dwork import (
    Verdict,
    dwork_set_condition,
    lemma_two_check,
    require_coprime,
    takeuchi_scan,
    theorem_classifier,
)
from .errors import TriformsError, VerificationFailure
from .halphen import (
    HGParams,
    TriangleType,
    eisenstein_one,
    eisenstein_two,
    hauptmodul_from_halphen,
    solve_halphen,
)
from .hypergeom import mirror_map, schwarz_map, series_f, series_g
from .lab import (
    Classification,
    checked_generators,
    cross_route_consistency,
    dieudonne_check,
    dwork_congruence_check,
    empirical_integrality,
    generator_integrality,
    mirror_map_unit,
    schwarz_congruence_check,
)
from .rationals import QQ, primes, rational_to_str
from .series import TruncatedSeries, exp_series, log_series, reversion

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


def parse_primes(spec: str):
    """Inclusive 'lo..hi' range filtered by primality, or one prime; a
    range without a prime is rejected."""
    if ".." in spec:
        lo, hi = spec.split("..")
        found = primes(int(lo), int(hi))
        if not found:
            raise ValueError(f"no prime in {spec}")
        return found
    p = int(spec)
    if primes(p, p) != [p]:
        raise ValueError(f"{p} is not prime")
    return [p]


def emit(payload, fmt: str = "json", rows=None):
    """Print canonical JSON, or for fmt 'csv' the rows as a CSV table."""
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        out = io.StringIO()
        writer = csv.DictWriter(out, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k, "") for k in CSV_COLUMNS})
        sys.stdout.write(out.getvalue())


def _series_catalog(tri: TriangleType, name: str, n_order: int):
    name = name.lower()
    if name in ("t1", "t2", "t3"):
        sol = solve_halphen(tri, max(n_order, 2))
        return getattr(sol, name).retruncate(n_order).to_json()
    if name == "j":
        sol = solve_halphen(tri, n_order + 2)
        return hauptmodul_from_halphen(sol).to_json()
    if name.startswith("e1_") or name.startswith("e2_"):
        weight = int(name[3:])
        if weight % 2 != 0:
            raise ValueError("generator weights are even: use e.g. E2_4")
        sol = solve_halphen(tri, max(n_order, 2))
        builder = eisenstein_one if name[1] == "1" else eisenstein_two
        return builder(weight // 2, sol).retruncate(n_order).to_json()
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
    unit = None if args.N is None else mirror_map_unit(tri, args.N)
    rows = []
    for p in candidates:
        if gcd(p, tri.conductor) > 1:
            continue
        verdict = theorem_classifier(tri, p)
        entry = verdict.to_json()
        entry["belowTheoremRange"] = (
            verdict.verdict is Verdict.BELOW_THEOREM_RANGE)
        if unit is not None:
            profile = empirical_integrality(tri, p, unit)
            entry.update(N=args.N, firstNegativeIndex=profile.first_failure,
                         minValuation=profile.min_valuation)
        rows.append(entry)
    payload = {"command": "classify", "type": str(tri), "results": rows}
    emit(payload, args.format, rows=rows)
    return 0


def _verify_cells(args):
    """Run the selected suite, one of SUITE_OPTIONS (argparse enforces
    it); yield (cell description, ok, extra).

    What depends only on the type is built once per type and shared by
    every prime."""
    suite = args.suite
    n_order = args.N
    types = [TriangleType.parse(args.type)] if args.type else _default_types()
    primes = parse_primes(args.primes) if args.primes else []

    if suite == "cross-route":
        for t in types:
            cross_route_consistency(t, n_order)
            yield f"cross-route {t}", True, {
                "kappa": rational_to_str(t.kappa)}
    elif suite == "dwork":
        for t in types:
            ps = _primes_for(t, primes)
            base = schwarz_map(HGParams.for_type(t), n_order)
            for p in ps:
                r = dwork_congruence_check(t, p, base)
                yield f"dwork {t} p={p}", r.holds(), {}
    elif suite == "schwarz":
        for t in types:
            ps = _primes_for(t, primes)
            base = schwarz_map(HGParams.for_type(t), n_order)
            unit = exp_series(base)
            for p in ps:
                congruent = schwarz_congruence_check(t, p, base).holds()
                emp = empirical_integrality(t, p, unit)
                yield f"schwarz-vs-empirical {t} p={p}", \
                    congruent == emp.holds(), {
                        "congruence": congruent,
                        "verdict": Classification.of(emp).value}
    elif suite == "generators":
        for t in types:
            ps = _primes_for(t, primes)
            generators = checked_generators(t, n_order)
            for p in ps:
                cells = generator_integrality(t, p, generators)
                yield f"generators {t} p={p}", True, {
                    lbl: Classification.of(v).value for lbl, v in cells}
    elif suite == "lemma2":
        for p in primes or [5, 7]:
            ok, counter = lemma_two_check(p)
            yield f"lemma2 p={p}", ok, {"counterexamples": len(counter)}
    elif suite == "dieudonne":
        u = log_series(TruncatedSeries([1, 1], n_order))
        for p in primes or [5, 7]:
            bad = TruncatedSeries([QQ(0), QQ(1, p)], n_order)
            exp_integral, congruent = (s.holds() for s in dieudonne_check(u, p))
            bad_exp, bad_congruent = (s.holds() for s in dieudonne_check(bad, p))
            yield f"dieudonne p={p}", (
                exp_integral == congruent and bad_exp == bad_congruent), {
                    "exp_integral": exp_integral,
                    "congruence_holds": congruent}
    elif suite == "classifier":
        for t in types:
            for p in _primes_for(t, primes):
                verdict = theorem_classifier(t, p)
                cond = dwork_set_condition(HGParams.for_type(t), p)
                if verdict.verdict is Verdict.BELOW_THEOREM_RANGE:
                    agree = verdict.conjectural_integral == cond
                else:
                    agree = (verdict.verdict is Verdict.INTEGRAL) == cond
                yield f"classifier {t} p={p}", agree, {}
    elif suite == "remark":
        if not args.long:
            raise VerificationFailure(
                "the 183-term reproduction runs only with --long")
        t = TriangleType(2, 5)
        unit = mirror_map_unit(t, 183)
        for p in (11, 19):
            v = empirical_integrality(t, p, unit)
            yield f"remark (2,5) p={p} N=183", v.holds(), {
                "minValuation": v.min_valuation}


def _default_types():
    return [TriangleType(2, 3), TriangleType(2, 5), TriangleType(3, 4),
            TriangleType(3, 3), TriangleType(2, None)]


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
        raise VerificationFailure(f"failing cells: {failures}")
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
    try:
        return args.func(args)
    except VerificationFailure as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 2
    except (TriformsError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

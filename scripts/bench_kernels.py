#!/usr/bin/env python3
"""Kernel bench: process time of each series kernel at several orders.

Times mul (F G), divide (D = G/F), exp (exp D), log (log exp D),
compose (q(z(q)) for the mirror map q), reversion (z(q)) and the last
stage of the hypergeometric J, J = 1/z(kappa q) from q (hauptmodul
mirror), on the hypergeometric series of each type in TYPES at each
order in ORDERS, and the coefficient loops of tests/oracles.py beside divide and exp, so
the order where Newton iteration starts to pay is on record.  It also
times, for each type and order, the Halphen solve and the basis F, G,
each on integer numerators over one denominator and as the
reduced-rational loop of tests/oracles.py (none of them runs a packed
product), and the twisted Schwarz and Dwork congruences at the first
prime above the conductor that moves the pair (a, b): decided on
residues of F and G (impl schwarz-residue, dwork-residue) and on the
exact twisted D of tests/oracles.py (schwarz-exact, dwork-exact), and
the mirror map's integrality verdict at that prime through z^(N+1):
the valuation profile of q(a,b|z) = z exp(D) built by
hypergeom.mirror_map at order N + 1 (mirror-verdict exact) and on
residues of F and G through z^N (mirror-verdict residue).  Run from
the repository root:

    PYTHONPATH=src python3 scripts/bench_kernels.py --out BENCH.json

Each kernel is first run once untimed with TruncatedSeries.__mul__
wrapped, to record the coefficient heights: the largest bits of any
numerator and denominator of the result (of t1, t2 and t3 together for
a solve, of F and G together for a basis, and of the F and G that a
congruence or a mirror verdict takes as its input), and the largest
denominator den any series product packed an operand over (with its
excess over the largest single reduced denominator of that operand).
It is then timed unwrapped SAMPLES times: each row records the median
sample as seconds, beside the least and the greatest.
The JSON also records the rational backend, the Python version, the
platform and the src/ line count.
"""

import argparse
import json
import os
import platform
import sys
from pathlib import Path
from time import process_time

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from oracles import (  # noqa: E402
    divide_by_recurrence,
    dwork_congruence_profile,
    exp_by_recurrence,
    schwarz_congruence_profile,
    series_f_by_fractions,
    series_g_by_fractions,
    solve_halphen_by_fractions,
    twisted_map,
)
from triforms import series  # noqa: E402
from triforms.dwork import dwork_images  # noqa: E402
from triforms.halphen import (  # noqa: E402
    HGParams, TriangleType, solve_halphen)
from triforms.hypergeom import (  # noqa: E402
    frobenius_basis, hauptmodul_from_mirror, mirror_map)
from triforms.lab import (  # noqa: E402
    dwork_congruence_check,
    empirical_integrality,
    mirror_integrality_check,
    schwarz_congruence_check,
)
from triforms.rationals import RATIONAL_BACKEND, numden, primes  # noqa: E402

ORDERS = (30, 60, 120, 240)
TYPES = (TriangleType(2, 5), TriangleType(3, 4), TriangleType(2, None))
SAMPLES = 3


class Heights:
    """Largest denominator a series product packs an operand over, read
    from the operands' own den by wrapping TruncatedSeries.__mul__ for
    the duration of a with."""

    def __enter__(self):
        self.common_bits = self.excess_bits = None
        self._original = original = series.TruncatedSeries.__mul__

        def recording(a, b):
            if isinstance(b, series.TruncatedSeries):
                n = min(a.truncation, b.truncation)
                for packed in (a.retruncate(n), b.retruncate(n)):
                    bits = packed.den.bit_length()
                    single = max(numden(c)[1].bit_length()
                                 for c in packed.coeffs)
                    self.common_bits = max(self.common_bits or 0, bits)
                    self.excess_bits = max(self.excess_bits or 0,
                                           bits - single)
            return original(a, b)

        series.TruncatedSeries.__mul__ = recording
        return self

    def __exit__(self, *exc):
        series.TruncatedSeries.__mul__ = self._original


def max_bits(result):
    """Largest numerator and denominator bits of a series, or of a
    tuple of series (a Halphen solution, a basis F, G)."""
    parts = result if isinstance(result, tuple) else (result,)
    pairs = [numden(c) for s in parts for c in s.coeffs]
    return (max(abs(n).bit_length() for n, _ in pairs),
            max(d.bit_length() for _, d in pairs))


def timed(fn):
    """(median, least, greatest) process time of fn over SAMPLES runs."""
    samples = []
    for _ in range(SAMPLES):
        start = process_time()
        fn()
        samples.append(process_time() - start)
    samples.sort()
    return samples[len(samples) // 2], samples[0], samples[-1]


def moving_prime(tri):
    """The first prime above the conductor of tri whose Dwork image of
    the pair (a, b) is not (a, b) itself."""
    params = HGParams.for_type(tri)
    m = tri.conductor
    return next(p for p in primes(m + 1, 10 * m)
                if dwork_images(params, p) != params)


def basis_by_fractions(params, n):
    f = series_f_by_fractions(params, n)
    return f, series_g_by_fractions(params, f)


def kernels(tri, n):
    """(kernel, implementation, thunk) for every timed call on tri at
    order n, and for a congruence the basis F, G whose heights its row
    records; the operands are built once, outside the timing."""
    params = HGParams.for_type(tri)
    basis = f, g = frobenius_basis(params, n)
    p = moving_prime(tri)
    d = series.divide(g, f)
    unit = series.exp_series(d)
    q = unit.shift(1)
    z = series.reversion(q)
    return [
        ("mul", "packed", lambda: f * g),
        ("divide", "newton", lambda: series.divide(g, f)),
        ("divide", "loop", lambda: divide_by_recurrence(g, f)),
        ("exp", "newton", lambda: series.exp_series(d)),
        ("exp", "loop", lambda: exp_by_recurrence(d)),
        ("log", "newton", lambda: series.log_series(unit)),
        ("compose", "horner", lambda: series.compose(q, z)),
        ("reversion", "newton", lambda: series.reversion(q)),
        ("hauptmodul", "mirror", lambda: hauptmodul_from_mirror(q, tri.kappa)),
        ("halphen", "integer", lambda: solve_halphen(tri, n)),
        ("halphen", "loop", lambda: solve_halphen_by_fractions(tri, n)),
        ("fg", "integer", lambda: frobenius_basis(params, n)),
        ("fg", "loop", lambda: basis_by_fractions(params, n)),
        ("congruence", "schwarz-residue",
         lambda: schwarz_congruence_check(tri, p, f, g), basis),
        ("congruence", "schwarz-exact", lambda: schwarz_congruence_profile(
            d, twisted_map(tri, p, d), p), basis),
        ("congruence", "dwork-residue",
         lambda: dwork_congruence_check(tri, p, f, g), basis),
        ("congruence", "dwork-exact", lambda: dwork_congruence_profile(
            d, twisted_map(tri, p, d), p), basis),
        ("mirror-verdict", "exact", lambda: empirical_integrality(
            tri, p, mirror_map(params, n + 1)), basis),
        ("mirror-verdict", "residue",
         lambda: mirror_integrality_check(tri, p, f, g), basis),
    ]


def bench(types, orders):
    results = []
    for tri in types:
        for n in orders:
            for kernel, impl, thunk, *sized in kernels(tri, n):
                with Heights() as heights:
                    result = thunk()
                num_bits, den_bits = max_bits(sized[0] if sized else result)
                seconds, least, greatest = timed(thunk)
                results.append({
                    "kernel": kernel, "impl": impl, "type": str(tri), "N": n,
                    "seconds": round(seconds, 6), "min_s": round(least, 6),
                    "max_s": round(greatest, 6),
                    "max_num_bits": num_bits, "max_den_bits": den_bits,
                    "common_den_bits": heights.common_bits,
                    "common_den_excess_bits": heights.excess_bits,
                })
                print(f"{kernel:14} {impl:15} {tri} N={n:<4} "
                      f"{seconds:9.4f} s", file=sys.stderr)
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    payload = {
        "backend": RATIONAL_BACKEND,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "clock": "process_time",
        "samples": SAMPLES,
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted((ROOT / "src" / "triforms")
                                         .glob("*.py"))),
        "results": bench(TYPES, ORDERS),
    }
    Path(args.out).write_text(json.dumps(payload, indent=1) + "\n")


if __name__ == "__main__":
    main()

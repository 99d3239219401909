#!/usr/bin/env python3
"""Empirical p-integrality matrix for the mirror map of a triangle type.

Build q(a,b|z) once to the requested order, then for each prime
coprime to the conductor compute its exact valuation profile and print
one CSV row per prime, alongside the congruence classifier's verdict
for comparison.
Negative-valuation witnesses typically first appear near index p (near
2p when a parameter has denominator 2), so pick N accordingly.
"""

import argparse
import csv
import sys
from math import gcd

from triforms.dwork import theorem_classifier
from triforms.halphen import TriangleType
from triforms.lab import (
    Classification, empirical_integrality, mirror_map_unit)
from triforms.rationals import primes


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--type", default="2,5", help="m1,m2 ('inf' allowed)")
    parser.add_argument("--pmax", type=int, default=50)
    parser.add_argument("--N", type=int, default=120)
    args = parser.parse_args()

    tri = TriangleType.parse(args.type)
    unit = mirror_map_unit(tri, args.N)
    writer = csv.writer(sys.stdout)
    writer.writerow(["type", "p", "N", "verdict", "firstNegativeIndex",
                     "minValuation", "classifier"])
    for p in primes(2, args.pmax):
        if gcd(p, tri.conductor) > 1:
            continue
        v = empirical_integrality(tri, p, unit)
        cls = theorem_classifier(tri, p)
        writer.writerow([str(tri), p, args.N, Classification.of(v).value,
                         v.first_failure, v.min_valuation,
                         cls.verdict.value])


if __name__ == "__main__":
    main()

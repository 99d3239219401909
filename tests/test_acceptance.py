"""Acceptance gate: thirteen end-to-end criteria, one reported line each.

Every criterion is exact (no floating point anywhere in the package);
the two timed criteria also assert their runtime budgets.
"""

import time
from math import gcd

from triforms.dwork import (
    dwork_set_condition,
    hecke_classifier,
    lemma_two_check,
    takeuchi_scan,
    theorem_classifier,
)
from triforms.halphen import (
    HGParams,
    TriangleType,
    eisenstein_one,
    eisenstein_two,
    generator_range,
    hauptmodul_from_halphen,
    solve_halphen,
)
from triforms.hypergeom import frobenius_basis, mirror_map
from triforms.lab import (
    cross_route_consistency,
    dwork_congruence_check,
    empirical_integrality,
    generator_integrality,
    generators_via_j,
    mirror_integrality_check,
    schwarz_congruence_check,
)
from triforms.series import LaurentSeries, valuation_profile
from triforms.rationals import primes

from conftest import CLASSIFIER_MATRIX
from oracles import euler_identity_check, halphen_residuals


def _report(capsys, number, description, ok):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number:2d}: {description}"
    with capsys.disabled():
        print(line)
    assert ok, line


def test_criterion_01_takeuchi_scan(capsys):
    start = time.perf_counter()
    found = {str(t) for t in takeuchi_scan(60)}
    elapsed = time.perf_counter() - start
    expected = {"(2,3)", "(2,4)", "(2,6)", "(2,inf)",
                "(3,3)", "(3,inf)", "(4,4)", "(6,6)"}
    _report(capsys, 1,
            f"almost-integral scan to 60 gives the 8 known types "
            f"({elapsed:.2f}s)",
            found == expected and elapsed < 10)


def test_criterion_02_183_term_integrality(capsys):
    tri = TriangleType(2, 5)
    ok = True
    q = mirror_map(HGParams.for_type(tri), 184)
    for p in (11, 19):
        profile = empirical_integrality(tri, p, q)
        ok = ok and profile.holds() and profile.min_valuation >= 0
    _report(capsys, 2,
            "(2,5) mirror map p-integral to 183 terms for p = 11, 19", ok)


def test_criterion_03_non_integrality_witness(capsys):
    tri = TriangleType(2, 5)
    # frozen regression indices from the first exact run
    frozen = {13: 14, 17: 18}
    ok = True
    q = mirror_map(HGParams.for_type(tri), 101)
    for p, index in frozen.items():
        profile = empirical_integrality(tri, p, q)
        ok = ok and profile.first_failure == index
        ok = ok and index <= 100
    _report(capsys, 3,
            "(2,5) negative valuation at index 14 (p=13) and 18 (p=17)", ok)


def test_criterion_04_classifier_equivalence(capsys):
    start = time.perf_counter()
    ok, cells = True, 0
    for tri in CLASSIFIER_MATRIX:
        threshold = tri.conductor
        for p in primes(threshold + 1, 499):
            if gcd(p, tri.conductor) > 1:
                continue
            verdict = theorem_classifier(tri, p)
            cond = dwork_set_condition(tri, p)
            ok = ok and verdict.verdict != "belowTheoremRange"
            ok = ok and (verdict.verdict == "integral") == cond
            cells += 1
    elapsed = time.perf_counter() - start
    _report(capsys, 4,
            f"congruence classifier == Dwork set condition on "
            f"{cells} cells ({elapsed:.2f}s)",
            ok and cells > 0 and elapsed < 10)


def test_criterion_05_dwork_congruence(capsys):
    ok = True
    for tri in (TriangleType(2, 5), TriangleType(3, 7), TriangleType(2, 7)):
        f, g = frobenius_basis(HGParams.for_type(tri), 60)
        for p in (11, 13, 19, 23):
            if gcd(p, tri.conductor) > 1:
                continue
            ok = ok and dwork_congruence_check(tri, p, f, g).holds()
    _report(capsys, 5,
            "Dwork congruence valuation >= 1 to order 60 "
            "for (2,5), (3,7), (2,7), p in {11,13,19,23}", ok)


def test_criterion_06_schwarz_biconditional(capsys):
    # The congruence check runs at order 60; the empirical window is
    # widened to max(60, 2p + 20) because a truncated scan can only
    # witness non-integrality once the first failing index falls inside
    # the window -- observed near p in general, near 2p when a
    # parameter has denominator 2 (e.g. (5,5), where a = 1/2).
    n_order = 60
    ok, cells = True, 0
    for tri in CLASSIFIER_MATRIX:
        lo = tri.conductor
        coprime = [p for p in primes(lo + 1, 99) if gcd(p, lo) == 1]
        if not coprime:
            continue
        params = HGParams.for_type(tri)
        f, g = frobenius_basis(params, n_order)
        q = mirror_map(params, max(n_order, 2 * coprime[-1] + 20) + 1)
        for p in coprime:
            congruent = schwarz_congruence_check(tri, p, f, g).holds()
            integral = empirical_integrality(
                tri, p, q.retruncate(max(n_order, 2 * p + 20) + 1)).holds()
            ok = ok and congruent == integral
            cells += 1
    _report(capsys, 6,
            f"twisted-Schwarz congruence iff empirical integrality "
            f"on {cells} cells at order {n_order}", ok and cells > 0)


def test_criterion_07_cross_route(capsys):
    for tri in (TriangleType(2, 3), TriangleType(2, 5), TriangleType(3, 4),
                TriangleType(3, 3), TriangleType(2, None)):
        # raises unless both routes reach q^40 and agree through it
        cross_route_consistency(tri, 40)
    _report(capsys, 7,
            "Halphen and hypergeometric J agree exactly to order 40 "
            "for five types", True)


def test_criterion_08_hecke_equivalence(capsys):
    ok = True
    for n in (5, 7, 9):
        tri = TriangleType(2, n)
        for p in primes(4 * n + 1, 999):
            if gcd(p, 2 * n) > 1:
                continue
            residue = p % n in (1, n - 1)
            hecke = hecke_classifier(n, p)
            ok = ok and hecke == residue
            if p > tri.conductor:
                main = theorem_classifier(tri, p).verdict == "integral"
                ok = ok and hecke == main
    _report(capsys, 8,
            "Hecke-type classifier == p = +-1 mod n == main classifier "
            "for n in {5,7,9}, p < 1000", ok)


def test_criterion_09_lemma_two_exhaustive(capsys):
    ok = True
    for p in (5, 7, 11):
        ok = ok and lemma_two_check(p) == []
    _report(capsys, 9,
            "symmetric-function criterion exhaustive over F_p^4 "
            "for p in {5,7,11}, zero counterexamples", ok)


def test_criterion_10_structural_identities(capsys):
    ok = True
    # Euler-type reflection identity to order 50, three types
    for tri in (TriangleType(2, 3), TriangleType(3, 7), TriangleType(2, None)):
        ok = ok and euler_identity_check(HGParams.for_type(tri), 50)
    # E4^3/(E4^3 - E6^2) = J to order 30
    for tri in (TriangleType(2, 5), TriangleType(3, 4)):
        sol = solve_halphen(tri, 34)
        j = hauptmodul_from_halphen(sol)
        e4, e6 = eisenstein_two(range(2, 4), sol)
        lhs = LaurentSeries(e4 ** 3) / LaurentSeries(e4 ** 3 - e6 ** 2)
        ok = ok and lhs.agrees_with(j) is None
        ok = ok and min(lhs.truncation, j.truncation) >= 30
        # t-product generators equal the J-derivative formulas to order 30
        for kind, builder in ((1, eisenstein_one), (2, eisenstein_two)):
            ks = generator_range(tri, kind)
            for t_product, via_j in zip(builder(ks, sol),
                                        generators_via_j(kind, ks, j)):
                direct = LaurentSeries(t_product)
                ok = ok and via_j.agrees_with(direct) is None
                ok = ok and min(via_j.truncation, direct.truncation) >= 30
    # Halphen back-substitution residual vanishes identically
    for tri in (TriangleType(2, 3), TriangleType(3, 3), TriangleType(2, None)):
        for res in halphen_residuals(tri, solve_halphen(tri, 30)):
            ok = ok and not any(res.coeffs)
    _report(capsys, 10,
            "Euler identity (order 50), E4/E6 Hauptmodul identity and "
            "generator formulas (order 30), Halphen residuals zero", ok)


def test_criterion_11_generator_integrality(capsys, criterion_11_cells):
    # The modular-forms half of the theorem: above the conductor every
    # generator E^(i)_2k is p-integral through 2p + 20 exactly when the
    # classifier says INTEGRAL, and the earliest generator failure sits
    # at the mirror map's first negative index.
    ok, indexed = True, 0
    for tri, p, generators, _, q in criterion_11_cells:
        ok = ok and min(s.truncation for _, s in generators) >= 2 * p + 20
        failures = [v.first_failure for _, v in
                    generator_integrality(tri, p, generators)
                    if not v.holds()]
        integral = theorem_classifier(tri, p).verdict == "integral"
        mirror = empirical_integrality(tri, p, q)
        ok = ok and (not failures) == integral
        ok = ok and min(failures, default=None) == mirror.first_failure
        indexed += bool(failures)
    _report(capsys, 11,
            f"generators p-integral through 2p + 20 iff classifier INTEGRAL, "
            f"first failing index == mirror map's, on "
            f"{len(criterion_11_cells)} cells ({indexed} non-integral)",
            ok and indexed > 0)


def test_criterion_12_hecke_corollary_on_j(capsys):
    # The paper's Hecke corollary, stated with no range for p, against
    # the Halphen J itself, below 4m as well as above: J is p-integral
    # iff p = +-1 mod m, and a non-integral J first fails at q^(p-1).
    # The index rule is observed, not proved; a clean profile is
    # evidence to the order reached, never a proof.
    exceptions, cells, non_integral, reached = [], 0, 0, []
    for m in (5, 7, 9):
        j = hauptmodul_from_halphen(solve_halphen(TriangleType(2, m), 200))
        reached.append(j.truncation)
        for p in primes(5, 99):
            if gcd(p, 2 * m) > 1:
                continue
            profile = valuation_profile(j, p)
            hecke = p % m in (1, m - 1)
            if not (profile.holds() == hecke == hecke_classifier(m, p)):
                exceptions.append(f"(2,{m}) p={p}: verdict")
            elif not hecke and profile.first_failure != p - 1:
                exceptions.append(
                    f"(2,{m}) p={p}: first failure q^{profile.first_failure}")
            cells += 1
            non_integral += not hecke
    _report(capsys, 12,
            f"Hecke corollary on Halphen J through q^{min(reached)} for "
            f"m in {{5,7,9}}, 5 <= p < 100: {cells} cells ({non_integral} "
            f"non-integral, each first failing at q^(p-1)), exceptions "
            f"{exceptions or 'none'}", not exceptions and cells == 67)


def test_criterion_13_conjectural_flag_against_series(capsys,
                                                      criterion_13_cells):
    # Below the theorem range the classifier gives only a conjectural
    # flag, above it a verdict; both read the theorem's witness, which
    # is held against the Dieudonne-Dwork lemma for exp(D):
    # D(z^p) - p D(z) vanishes mod p through z^(2p + 20) exactly when
    # exp(D), the mirror map's unit, is p-integral there, decided on F
    # and G by mirror_integrality_check.  A clean profile is evidence
    # through the window, never a proof, and the verdict stays
    # belowTheoremRange.
    exceptions, below = [], 0
    for tri, p, window in criterion_13_cells:
        lemma = mirror_integrality_check(tri, p, *window)
        verdict = theorem_classifier(tri, p)
        below += verdict.verdict == "belowTheoremRange"
        if lemma.holds() != (verdict.witness is not None):
            exceptions.append(f"{tri} p={p}")
    cells = len(criterion_13_cells)
    top = max(f.truncation for _, _, (f, _) in criterion_13_cells)
    _report(capsys, 13,
            f"conjectural flag below range, verdict above == Dieudonne-Dwork "
            f"profile of D through z^(2p + 20) (z^{top} at most), "
            f"3 <= p <= 61: {cells} cells ({below} below range), "
            f"exceptions {exceptions or 'none'}",
            not exceptions and cells == 465)

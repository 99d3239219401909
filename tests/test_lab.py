import json
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
import hypothesis.strategies as st

from triforms import hypergeom, lab
from triforms.dwork import dwork_images, theorem_classifier
from triforms.errors import (
    InvariantViolation,
    OrderShortfall,
    RouteMismatch,
    SharedFactor,
)
from triforms.halphen import (
    HGParams, TriangleType, hauptmodul_from_halphen, solve_halphen)
from triforms.hypergeom import (
    frobenius_basis, hauptmodul_from_mirror, mirror_map, schwarz_map)
from triforms.lab import (
    checked_generators,
    congruence_on_residues,
    cross_route_consistency,
    dieudonne_check,
    dwork_congruence_check,
    empirical_integrality,
    generator_integrality,
    mirror_integrality_check,
    schwarz_congruence_check,
)
from triforms.rationals import QQ, int_valuation, primes
from triforms.series import (
    LaurentSeries,
    PAdicCheck,
    TruncatedSeries,
    exp_series,
    log_series,
    reversion,
    valuation_profile,
)

from conftest import GRID_TYPES, small_rationals
from oracles import (
    dwork_congruence_profile,
    exact_congruence,
    rational_valuation,
    schwarz_congruence_profile,
    substitute_power,
    twisted_map,
    valuation_entries,
)

TRI25 = TriangleType(2, 5)

# acceptance criterion 6's grid: m1 <= m2 <= 8, (2,inf) and (3,inf)
CLASSIFIER_MATRIX = [t for t in GRID_TYPES
                     if (t.m2 <= 8 if t.m2_finite else t.m1 <= 3)]

# the types of GRID_TYPES with conductor <= 60 that acceptance
# criterion 13's classifier matrix (m2 <= 8, (2,inf), (3,inf)) leaves out
BEYOND_CLASSIFIER_MATRIX = [
    TriangleType(2, m2) for m2 in range(9, 13)] + [
    TriangleType(3, 9), TriangleType(3, 10)] + [
    TriangleType(m1, None) for m1 in range(4, 13)]


def base_map(tri, n_order):
    """D(a,b|z) for the type's pair."""
    return schwarz_map(HGParams.for_type(tri), n_order)


def basis(tri, n_order):
    """(F, G) for the type's pair, the per-type series the congruence
    checks take."""
    return frobenius_basis(HGParams.for_type(tri), n_order)


def q_map(tri, n_order):
    """The mirror map q(a,b|z) of the type's pair through z^n_order."""
    return mirror_map(HGParams.for_type(tri), n_order)


@pytest.fixture(scope="module")
def criterion_13_cells():
    """Every cell of acceptance criterion 13, (tri, p, (F, G)): the types
    of CLASSIFIER_MATRIX, each prime 3 <= p <= 61 coprime to the
    conductor, and F and G of the type's pair through the window
    z^(2p + 20)."""
    cells = []
    for tri in CLASSIFIER_MATRIX:
        coprime = [p for p in primes(3, 61) if gcd(p, tri.conductor) == 1]
        f, g = basis(tri, 2 * coprime[-1] + 20)
        cells += [(tri, p, tuple(s.retruncate(2 * p + 20) for s in (f, g)))
                  for p in coprime]
    return cells


class TestEmpiricalIntegrality:
    def test_2_5_integral_primes(self):
        # indices are exponents of z: q has no constant term
        q = q_map(TRI25, 61)
        for p in (11, 19):
            v = empirical_integrality(TRI25, p, q)
            assert v.holds()
            assert v.first_failure is None
            assert v == PAdicCheck(p, 61, None, None, 0)
            assert valuation_entries(q, p)[:2] == (None, 0)

    def test_2_5_non_integral_primes(self):
        # first negative indices frozen from the exact computation
        q = q_map(TRI25, 101)
        for p, index in ((13, 14), (17, 18)):
            v = empirical_integrality(TRI25, p, q)
            assert not v.holds()
            assert v.first_failure == index

    def test_rejects_shared_factor(self):
        with pytest.raises(SharedFactor):
            empirical_integrality(TRI25, 5, q_map(TRI25, 21))

    @given(small_rationals.filter(lambda x: x != 0))
    def test_normalization_soundness(self, const):
        # multiplying by a constant shifts every valuation uniformly,
        # so min-shifted-to-zero classification is invariant
        p = 13
        q = q_map(TRI25, 31)
        base = valuation_profile(q, p)
        scaled = valuation_profile(const * q, p)
        shift = rational_valuation(const, p)
        finite = [(u, s) for u, s in zip(valuation_entries(q, p),
                                          valuation_entries(const * q, p))
                  if u is not None]
        assert all(s == u + shift for u, s in finite)
        relative = [v - scaled.min_valuation for _, v in finite]
        base_relative = [v - base.min_valuation for v, _ in finite]
        assert relative == base_relative


class TestDworkCongruence:
    def test_holds_without_integrality_hypothesis(self):
        # p = 13 is a non-integral prime for (2,5); the congruence still holds
        assert dwork_congruence_check(TRI25, 13, *basis(TRI25, 60)).holds()
        tri = TriangleType(3, 7)
        assert dwork_congruence_check(tri, 11, *basis(tri, 60)).holds()

    def test_rejects_shared_factor(self):
        with pytest.raises(SharedFactor):
            dwork_congruence_check(TRI25, 5, *basis(TRI25, 20))

    def test_index_one_bookkeeping(self):
        # non-multiples of p vanish on the z^p-substituted side, so the
        # check at index 1 is v_p(p*C1) >= 1; C1 is a p-unit denominator
        p = 13
        c1 = base_map(TRI25, 1).coeffs[1]
        assert rational_valuation(p * c1, p) >= 1


class TestSchwarzCongruence:
    def test_integral_case_holds(self):
        assert schwarz_congruence_check(TRI25, 11, *basis(TRI25, 60)).holds()

    def test_non_integral_case_fails(self):
        result = schwarz_congruence_check(TRI25, 13, *basis(TRI25, 60))
        assert (result.prime, result.order) == (13, 60)
        assert not result.holds()
        assert result.first_failure >= 1
        assert result.valuation < 1

    def test_fixed_parameters_trivial(self):
        # p = 1 mod 20 fixes a and b, so both sides are the same series
        result = schwarz_congruence_check(TRI25, 41, *basis(TRI25, 40))
        assert result.holds()
        assert (result.first_failure, result.valuation) == (None, None)

    def test_fixed_parameters_reuse_base(self, monkeypatch):
        # when the Dwork image of (a, b) is (a, b), the given basis is
        # the twisted one: no second F and G are built; otherwise the
        # Dwork form builds them only through z^(N // p)
        fg = basis(TRI25, 30)
        built = []
        monkeypatch.setattr(lab, "frobenius_basis", lambda params, n:
                            built.append((params, n))
                            or frobenius_basis(params, n))
        assert schwarz_congruence_check(TRI25, 41, *fg).holds()
        assert dwork_congruence_check(TRI25, 41, *fg).holds()
        assert built == []
        assert not schwarz_congruence_check(TRI25, 13, *fg).holds()
        assert dwork_congruence_check(TRI25, 13, *fg).holds()
        twisted = HGParams(QQ(19, 20), QQ(11, 20))
        assert built == [(twisted, 30), (twisted, 2)]

    def test_divides_no_series(self, monkeypatch):
        # both checks decide on F and G: no D = G/F, base or twisted,
        # is divided out
        fg = basis(TRI25, 40)

        def refuse(*args):
            raise AssertionError("a series division was run")

        monkeypatch.setattr(hypergeom, "divide", refuse)
        for p in (11, 13, 17):
            schwarz_congruence_check(TRI25, p, *fg)
            dwork_congruence_check(TRI25, p, *fg)

    def test_biconditional_with_empirical(self):
        fg = basis(TRI25, 50)
        q = q_map(TRI25, 51)
        for p in (11, 13, 19, 23, 29, 31):
            cong = schwarz_congruence_check(TRI25, p, *fg).holds()
            assert cong == empirical_integrality(TRI25, p, q).holds()


@st.composite
def random_cells(draw):
    """A type with m1 <= 12 and m2 <= 15 or infinite, and a prime
    3 <= p <= 113 coprime to its conductor."""
    m1 = draw(st.integers(2, 12))
    tri = TriangleType(m1, draw(st.one_of(
        st.none(), st.integers(max(m1, 3), 15))))
    p = draw(st.sampled_from([p for p in primes(3, 113)
                              if gcd(p, tri.conductor) == 1]))
    return tri, p


def assert_checks_match_oracle(tri, primes_, n_order):
    """Both residue checks of tri at each prime against the exact
    twisted Schwarz map, built over Q."""
    params = HGParams.for_type(tri)
    fg = frobenius_basis(params, n_order)
    d = schwarz_map(params, n_order)
    for p in primes_:
        twisted = twisted_map(tri, p, d)
        schwarz = schwarz_congruence_check(tri, p, *fg)
        assert schwarz.order == n_order
        assert schwarz == schwarz_congruence_profile(d, twisted, p)
        assert dwork_congruence_check(tri, p, *fg) == \
            dwork_congruence_profile(d, twisted, p)


class TestResidueCongruence:
    """The residue checks against the exact twisted D (tests/oracles.py)."""

    @pytest.mark.parametrize("tri", CLASSIFIER_MATRIX, ids=str)
    def test_criterion_6_grid(self, tri):
        # every cell of acceptance criterion 6: primes above the
        # conductor and below 100, order 60
        coprime = [p for p in primes(tri.conductor + 1, 99)
                   if gcd(p, tri.conductor) == 1]
        assert_checks_match_oracle(tri, coprime, 60)

    @pytest.mark.parametrize("tri, p, n_order", [
        (TRI25, 3, 60), (TriangleType(3, 4), 5, 60),
        (TriangleType(4, 5), 7, 120), (TriangleType(2, None), 3, 90),
        (TriangleType(3, None), 5, 60)], ids=str)
    def test_denominators_with_p_squared(self, tri, p, n_order):
        # s >= 2: the residues are taken mod p^3 or higher
        params = HGParams.for_type(tri)
        twisted = dwork_images(params, p)
        s = max(int_valuation(frobenius_basis(x, n_order)[1].den, p)
                for x in (params, twisted))
        assert s >= 2
        assert_checks_match_oracle(tri, [p], n_order)

    @given(random_cells(), st.integers(0, 120))
    def test_random_cells(self, cell, n_order):
        tri, p = cell
        assert_checks_match_oracle(tri, [p], n_order)

    def test_pair_that_is_not_the_dwork_image_fails(self):
        # (1-b, 1-a) in place of the Dwork image (19/20, 11/20) of the
        # (2,5) pair at p = 13: the Dwork form fails, at the exact index
        # and valuation
        p, n_order = 13, 60
        fg = basis(TRI25, n_order)
        wrong = HGParams(QQ(17, 20), QQ(13, 20))
        result = congruence_on_residues(
            p, fg, frobenius_basis(wrong, n_order // p), p)
        exact = dwork_congruence_profile(
            schwarz_map(HGParams.for_type(TRI25), n_order),
            schwarz_map(wrong, n_order), p)
        assert not result.holds()
        assert result == exact

    def test_modulus_from_the_taller_g(self):
        # a crafted twisted G' = G/p, one p taller than G: the residues
        # must be taken mod p^(s+2) for s = v_p of G's denominator, and
        # D' - D = (1/p - 1) D fails where D has valuation below 2
        p, n_order = 11, 40
        f, g = basis(TRI25, n_order)
        result = congruence_on_residues(p, (f, g), (f, g * QQ(1, p)), 1)
        exact = exact_congruence(
            (QQ(1, p) - 1) * schwarz_map(HGParams.for_type(TRI25), n_order),
            p)
        assert not result.holds()
        assert result == exact

    def test_non_integral_f_is_typed_error(self):
        # F and F' lie in 1 + z Z_p[[z]]; a crafted F with 1/p in it is a
        # broken invariant, on either side
        p = 11
        f, g = basis(TRI25, 10)
        bad = f + TruncatedSeries([0, 0, QQ(1, p)], 10)
        with pytest.raises(InvariantViolation):
            congruence_on_residues(p, (bad, g), (f, g), 1)
        with pytest.raises(InvariantViolation):
            congruence_on_residues(p, (f, g), (bad, g), 1)


def assert_mirror_check_matches_exp(tri, primes_, n_order):
    """The residue verdict on the mirror map of tri at each prime against
    the exact valuation profile of q = z exp(D) through z^(n_order + 1),
    built over Q: the same verdict, q's first failing exponent one above
    the failing z-index of D, and the exact reading of D(z^p) - p D."""
    params = HGParams.for_type(tri)
    fg = frobenius_basis(params, n_order)
    d = schwarz_map(params, n_order)
    q = mirror_map(params, n_order + 1)
    for p in primes_:
        result = mirror_integrality_check(tri, p, *fg)
        exact = empirical_integrality(tri, p, q)
        assert result.order == n_order
        assert result == exact_congruence(substitute_power(d, p) - p * d, p)
        assert result.holds() == exact.holds(), p
        if not result.holds():
            assert exact.first_failure == result.first_failure + 1, p


class TestMirrorIntegrality:
    """The mirror map's verdict on residues of F and G against the exact
    exp(D) of empirical_integrality, its oracle.  p is always odd here:
    the conductor 2 m1 m2 is even, so require_coprime rejects p = 2, and
    the additive Dieudonne-Dwork lemma needs p odd."""

    @pytest.mark.parametrize("tri", CLASSIFIER_MATRIX, ids=str)
    def test_criterion_6_grid(self, tri):
        # every type of acceptance criterion 6 at the schwarz suite's
        # order 82, every prime 3 <= p < 200 coprime to the conductor
        coprime = [p for p in primes(3, 199) if gcd(p, tri.conductor) == 1]
        assert_mirror_check_matches_exp(tri, coprime, 82)

    @given(random_cells(), st.integers(0, 120))
    def test_random_cells(self, cell, n_order):
        tri, p = cell
        assert_mirror_check_matches_exp(tri, [p], n_order)

    def test_rejects_shared_factor(self):
        with pytest.raises(SharedFactor):
            mirror_integrality_check(TRI25, 5, *basis(TRI25, 20))

    @pytest.mark.parametrize("tri", CLASSIFIER_MATRIX, ids=str)
    def test_is_the_dieudonne_form_of_d(self, tri):
        # the same Dwork form on residues, once from F and G and once
        # from D with F = 1: equal PAdicCheck values, order 82 included;
        # and exp(D) first fails integrality at the same index (the
        # lemma, on the data)
        params = HGParams.for_type(tri)
        fg = frobenius_basis(params, 82)
        coprime = [p for p in primes(3, 99) if gcd(p, tri.conductor) == 1]
        checks = dieudonne_check(schwarz_map(params, 82), coprime)
        for p, (exp_side, congruence) in zip(coprime, checks):
            assert congruence == mirror_integrality_check(tri, p, *fg), p
            assert exp_side.first_failure == congruence.first_failure, p

    def test_index_rule_on_criterion_13_cells(self, criterion_13_cells):
        # the lemma in lab.py on every cell of acceptance criterion 13:
        # Dwork's congruence holds through the window z^N (its
        # hypothesis), and D(z^p) - p D first fails at k = p c, where c
        # is the first failure of D - D' mod p through z^(N // p), with
        # the same valuation; k and c are None together
        cells, non_integral, c_counts = 0, 0, {}
        for tri, p, window in criterion_13_cells:
            assert dwork_congruence_check(tri, p, *window).holds(), (tri, p)
            mirror = mirror_integrality_check(tri, p, *window)
            schwarz = schwarz_congruence_check(
                tri, p, *[s.retruncate(window[0].truncation // p)
                          for s in window])
            k, c = mirror.first_failure, schwarz.first_failure
            assert (k is None) == (c is None), (tri, p)
            if c is not None:
                assert k == p * c, (tri, p)
                assert mirror.valuation == schwarz.valuation, (tri, p)
                c_counts[c] = c_counts.get(c, 0) + 1
            cells += 1
            non_integral += k is not None
        assert (cells, non_integral) == (465, 250)
        assert c_counts == {1: 210, 2: 31, 3: 5, 5: 2, 6: 2}

    def test_lemma_two_bounds_c_on_criterion_13_cells(
            self, criterion_13_cells):
        # Lemma 2's consequence: D - D' first fails mod p at c <= 2
        # (D_1 and D_2, the coefficients of the lemma) unless the Dwork
        # image {delta(a), delta(b)} agrees mod p with {a, b} or with
        # {1 - a, 1 - b}; two rationals agree mod p when the numerator
        # of their difference has v_p >= 1.  Nine cells have c > 2, so
        # the condition is tested, not vacuous
        def agree(xs, ys, p):
            return any(all((x - y).numerator % p == 0
                           for x, y in zip(xs, order))
                       for order in (ys, ys[::-1]))

        late = []
        for tri, p, window in criterion_13_cells:
            c = schwarz_congruence_check(tri, p, *window).first_failure
            if c is None or c <= 2:
                continue
            params = HGParams.for_type(tri)
            image = dwork_images(params, p)
            pair, twist = (params.a, params.b), (image.a, image.b)
            assert (agree(twist, pair, p)
                    or agree(twist, tuple(1 - x for x in pair), p)), (tri, p)
            late.append((str(tri), p, c))
        assert len(late) == 9, late

    def test_schwarz_suite_divides_no_series(self, capsys, monkeypatch):
        # the suite decides both columns on F and G: no D = G/F and no
        # exp(D) is built, and the verdicts are the exact ones
        import triforms.cli
        from triforms import series

        def refuse(*args):
            raise AssertionError("a series division or exp was run")

        for mod in (series, hypergeom, lab, triforms.cli):
            for name in ("divide", "exp_series"):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, refuse)
        checked = []
        monkeypatch.setattr(triforms.cli, "mirror_integrality_check",
                            lambda tri, p, f, g: checked.append(p) or
                            mirror_integrality_check(tri, p, f, g))
        code = triforms.cli.main(["verify", "--suite", "schwarz", "--type",
                                  "2,5", "--primes", "11..19", "--N", "40"])
        cells = json.loads(capsys.readouterr().out)["cells"]
        assert code == 0
        assert checked == [11, 13, 17, 19]
        assert [c["verdict"] for c in cells] == [
            "integralEvidence", "nonIntegralEvidence",
            "nonIntegralEvidence", "integralEvidence"]


class TestDieudonne:
    def test_log_one_plus_z(self):
        u = log_series(TruncatedSeries([1, 1], 30))
        [(exp_side, cong_side)] = dieudonne_check(u, [5])
        assert exp_side.holds() and cong_side.holds()
        assert exp_side.order == 30
        assert cong_side == PAdicCheck(5, 30, None, None)

    def test_z_over_p(self):
        p = 5
        u = TruncatedSeries([QQ(0), QQ(1, p)], 20)
        [(exp_side, cong_side)] = dieudonne_check(u, [p])
        assert not exp_side.holds() and not cong_side.holds()

    def test_zero(self):
        [(exp_side, cong_side)] = dieudonne_check(TruncatedSeries([], 10), [7])
        assert exp_side.holds() and cong_side.holds()

    def test_on_schwarz_map(self):
        # u = D(a,b|z) for an integral prime: both predicates true
        [(exp_side, cong_side)] = dieudonne_check(base_map(TRI25, 40), [11])
        assert exp_side.holds() and cong_side.holds()

    @given(st.sampled_from([2, 3, 5, 7]),
           st.lists(st.tuples(st.integers(-4, 4), st.integers(-1, 1)),
                    max_size=8))
    def test_additive_form_fails_where_exp_form_does(self, p, terms):
        # w = u(z^p) - p u(z) fails mod p at the same first index as
        # exp(w) - 1; u's coefficients c p^k mix valuations -1, 0 and 1
        u = TruncatedSeries([QQ(0)] + [c * QQ(p) ** k for c, k in terms], 8)
        w = substitute_power(u, p) - p * u
        [(_, additive)] = dieudonne_check(u, [p])
        exp_form = exact_congruence(exp_series(w) - 1, p)
        assert additive.first_failure == exp_form.first_failure

    @given(st.sampled_from([2, 3, 5, 7]), st.integers(0, 40), st.lists(
        st.tuples(st.integers(-9, 9), st.integers(-1, 1),
                  st.integers(1, 9)), max_size=41))
    def test_congruence_side_matches_exact(self, p, n_order, terms):
        # the residue decision equals the exact reading of u(z^p) - p u
        # over Q: index, valuation and order; the terms c p^k / d mix
        # valuations -1, 0 and 1 with units and zeros
        u = TruncatedSeries([QQ(0)] + [c * QQ(p) ** k / d
                                       for c, k, d in terms], n_order)
        [(_, congruence)] = dieudonne_check(u, [p])
        assert congruence == exact_congruence(
            substitute_power(u, p) - p * u, p)

    @pytest.mark.parametrize("tri", BEYOND_CLASSIFIER_MATRIX, ids=str)
    def test_lemma_matches_theorem_beyond_classifier_matrix(self, tri):
        # the theorem's witness is present exactly when D(z^p) - p D(z)
        # vanishes mod p through z^(2p + 20), decided on F and G, for
        # the first two primes above the conductor
        above = primes(tri.conductor + 1, 2 * tri.conductor + 20)[:2]
        f, g = basis(tri, 2 * above[-1] + 20)
        for p in above:
            window = [s.retruncate(2 * p + 20) for s in (f, g)]
            lemma = mirror_integrality_check(tri, p, *window)
            witness = theorem_classifier(tri, p).witness
            assert lemma.holds() == (witness is not None), p


class TestCrossRoute:
    @pytest.mark.parametrize("tri", [
        TriangleType(2, 3), TriangleType(2, 5), TriangleType(3, 3),
        TriangleType(2, None)])
    def test_agreement(self, tri):
        # returns only when both routes reach q^40 and agree through it
        assert cross_route_consistency(tri, 40) is None

    @pytest.mark.parametrize("tri", GRID_TYPES, ids=str)
    def test_agreement_on_grid(self, tri):
        assert cross_route_consistency(tri, 12) is None

    def test_short_route_is_typed_error(self, monkeypatch):
        # a mirror route one order short cannot certify the order asked
        monkeypatch.setattr(lab, "mirror_map", lambda params, n:
                            mirror_map(params, n - 1))
        with pytest.raises(OrderShortfall) as exc:
            cross_route_consistency(TriangleType(2, 3), 10)
        assert "cross-route (2,3)" in str(exc.value)

    def test_mismatch_is_hard_error(self, monkeypatch):
        # a mirror route scaled by -kappa disagrees from the pole on
        monkeypatch.setattr(lab, "hauptmodul_from_mirror", lambda q, kappa:
                            hauptmodul_from_mirror(q, -kappa))
        with pytest.raises(RouteMismatch) as exc:
            cross_route_consistency(TriangleType(2, 3), 8)
        kappa = TriangleType(2, 3).kappa
        assert (exc.value.index, exc.value.lhs, exc.value.rhs) == (
            -1, QQ(1, kappa), QQ(-1, kappa))
        assert "cross-route (2,3)" in str(exc.value)


class TestGeneratorIntegrality:
    def test_integral_prime(self):
        cells = generator_integrality(
            TRI25, 11, checked_generators(TRI25, 30))
        assert [lbl for lbl, _ in cells] == ["E2_4", "E2_6", "E2_8", "E2_10"]
        assert all(v.holds() for _, v in cells)

    def test_non_integral_prime(self):
        cells = generator_integrality(
            TRI25, 13, checked_generators(TRI25, 30))
        assert any(not v.holds() for _, v in cells)

    def test_cusp_double_generators(self):
        tri = TriangleType(3, None)
        cells = generator_integrality(tri, 5, checked_generators(tri, 20))
        assert [lbl for lbl, _ in cells] == ["E1_2", "E1_4", "E1_6"]

    def test_shared_generators_across_primes(self):
        # one per-type build serves every prime; each verdict covers the
        # order asked for
        generators = checked_generators(TRI25, 30)
        assert all(s.truncation == 30 for _, s in generators)
        for p in (11, 13):
            cells = generator_integrality(TRI25, p, generators)
            assert all(v.order == 30 and v.prime == p for _, v in cells)
        with pytest.raises(SharedFactor):
            generator_integrality(TRI25, 5, generators)

    def test_formula_mismatch_is_hard_error(self, monkeypatch):
        # a J-formula route that disagrees must stop the per-type build
        real = lab.generators_via_j
        monkeypatch.setattr(lab, "generators_via_j", lambda *args: [
            LaurentSeries(2 * s.body, s.lowest_exponent)
            for s in real(*args)])
        with pytest.raises(RouteMismatch) as exc:
            checked_generators(TRI25, 10)
        # the J-formula, doubled, against the t-product at q^0
        assert (exc.value.index, exc.value.lhs, exc.value.rhs) == (0, 2, 1)
        assert "E2_4 for (2,5)" in str(exc.value)

    def test_short_formula_window_is_typed_error(self, monkeypatch):
        # a J-formula route that stops below the order asked for cannot
        # certify it, even where it agrees
        real = lab.generators_via_j
        monkeypatch.setattr(lab, "generators_via_j", lambda *args: [
            LaurentSeries(s.body.retruncate(9 - s.lowest_exponent),
                          s.lowest_exponent)
            for s in real(*args)])
        with pytest.raises(OrderShortfall) as exc:
            checked_generators(TRI25, 10)
        assert "E2_4 for (2,5)" in str(exc.value)
        checked_generators(TRI25, 9)

    def test_two_sided_on_criterion_11_cells(self):
        # on acceptance criterion 11's cells, J (the Halphen J through
        # the type's top order) and every generator are p-integral
        # through 2p + 20 together or all fail, and then the earliest
        # generator failure sits two orders above J's
        cells, non_integral = 0, 0
        for tri in (TriangleType(2, 5), TriangleType(3, 4),
                    TriangleType(2, 7), TriangleType(3, None)):
            coprime = [p for p in primes(tri.conductor + 1, 49)
                       if gcd(p, tri.conductor) == 1]
            top = 2 * coprime[-1] + 20
            generators = checked_generators(tri, top)
            j = hauptmodul_from_halphen(solve_halphen(tri, top + 2))
            for p in coprime:
                window = 2 * p + 20
                j_fails = valuation_profile(j, p).first_failure
                fails = [v.first_failure for _, v in generator_integrality(
                    tri, p, [(lbl, s.retruncate(window))
                             for lbl, s in generators])]
                if j_fails is None:
                    assert set(fails) == {None}, (tri, p)
                else:
                    assert None not in fails, (tri, p)
                    assert min(fails) == j_fails + 2, (tri, p)
                cells += 1
                non_integral += j_fails is not None
        assert (cells, non_integral) == (31, 10)

    def test_e4_e6_identity(self):
        # E4^3/(E4^3 - E6^2) = J, exactly
        from triforms.halphen import eisenstein_two
        for tri in (TriangleType(2, 5), TriangleType(3, 4)):
            sol = solve_halphen(tri, 34)
            j = hauptmodul_from_halphen(sol)
            e4, e6 = eisenstein_two(range(2, 4), sol)
            lhs = LaurentSeries(e4 ** 3) / LaurentSeries(e4 ** 3 - e6 ** 2)
            assert lhs.agrees_with(j) is None
            assert min(lhs.truncation, j.truncation) >= 30


def _fractions_built(monkeypatch, call, *args):
    """How many Fractions call(*args) builds."""
    built = []
    new = Fraction.__new__

    def counting(cls, *a, **kw):
        built.append(cls)
        return new(cls, *a, **kw)

    with monkeypatch.context() as patched:
        patched.setattr(Fraction, "__new__", counting)
        call(*args)
    return len(built)


@pytest.mark.parametrize("check", [cross_route_consistency,
                                   checked_generators])
def test_agreement_is_decided_on_integers(monkeypatch, check):
    # the cross-checks compare the two routes' numerators and
    # denominators, so the rationals they build do not grow with the
    # order they certify
    assert (_fractions_built(monkeypatch, check, TRI25, 20)
            == _fractions_built(monkeypatch, check, TRI25, 40))


class TestIntegralityTransportJustification:
    """q(a,b|z) is the test object; these properties justify carrying
    its verdict over to J for primes coprime to the conductor."""

    def test_reversion_preserves_integrality(self):
        p = 7
        s = TruncatedSeries([0, 1, 3, -2, 5, 1, -4], 12)
        g = reversion(s)
        assert valuation_profile(s, p).holds()
        assert valuation_profile(g, p).holds()

    def test_reversion_reflects_non_integrality(self):
        # if the reversion were integral, re-reverting would make the
        # original integral too; spot-check one non-integral series
        p = 5
        s = TruncatedSeries([QQ(0), QQ(1), QQ(1, 5)], 10)
        g = reversion(s)
        assert not valuation_profile(g, p).holds()

    def test_kappa_is_p_unit(self):
        for p in (11, 13, 19, 23):
            assert rational_valuation(TRI25.kappa, p) == 0

    def test_transport_equivalence_small_order(self):
        # q(a,b|z) integral iff J integral, checked directly at N = 25
        q = q_map(TRI25, 26)
        j = hauptmodul_from_mirror(q, TRI25.kappa)
        for p in (11, 13):
            q_integral = empirical_integrality(TRI25, p, q).holds()
            assert valuation_profile(j, p).holds() == q_integral

import pytest
from hypothesis import given
import hypothesis.strategies as st

from triforms import lab
from triforms.dwork import Verdict, theorem_classifier
from triforms.errors import (
    FormulaMismatch,
    OrderShortfall,
    RouteMismatch,
    SharedFactor,
)
from triforms.halphen import (
    HGParams, TriangleType, hauptmodul_from_halphen, solve_halphen)
from triforms.hypergeom import hauptmodul_from_mirror, mirror_map, schwarz_map
from triforms.lab import (
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
from triforms.rationals import QQ, primes
from triforms.series import (
    LaurentSeries,
    TruncatedSeries,
    exp_series,
    log_series,
    reversion,
    substitute_power,
    valuation_profile,
)

from conftest import GRID_TYPES, small_rationals
from oracles import rational_valuation

TRI25 = TriangleType(2, 5)

# the types of GRID_TYPES with conductor <= 60 that acceptance
# criterion 13's classifier matrix (m2 <= 8, (2,inf), (3,inf)) leaves out
BEYOND_CLASSIFIER_MATRIX = [
    TriangleType(2, m2) for m2 in range(9, 13)] + [
    TriangleType(3, 9), TriangleType(3, 10)] + [
    TriangleType(m1, None) for m1 in range(4, 13)]


def base_map(tri, n_order):
    """D(a,b|z), the per-type series the congruence checks take."""
    return schwarz_map(HGParams.for_type(tri), n_order)


class TestEmpiricalIntegrality:
    def test_2_5_integral_primes(self):
        unit = mirror_map_unit(TRI25, 60)
        for p in (11, 19):
            v = empirical_integrality(TRI25, p, unit)
            assert Classification.of(v) is Classification.INTEGRAL_EVIDENCE
            assert v.first_failure is None
            assert (v.prime, v.bound, v.start_index) == (p, 0, 1)
            assert len(v.entries) == 61

    def test_2_5_non_integral_primes(self):
        # first negative indices frozen from the exact computation
        unit = mirror_map_unit(TRI25, 100)
        for p, index in ((13, 14), (17, 18)):
            v = empirical_integrality(TRI25, p, unit)
            assert Classification.of(v) is Classification.NON_INTEGRAL_EVIDENCE
            assert v.first_failure == index

    def test_rejects_shared_factor(self):
        with pytest.raises(SharedFactor):
            empirical_integrality(TRI25, 5, mirror_map_unit(TRI25, 20))

    @given(small_rationals.filter(lambda x: x != 0))
    def test_normalization_soundness(self, const):
        # multiplying by a constant shifts every valuation uniformly,
        # so min-shifted-to-zero classification is invariant
        p = 13
        unit = mirror_map_unit(TRI25, 30)
        base = valuation_profile(unit, p)
        scaled = valuation_profile(const * unit, p)
        shift = rational_valuation(const, p)
        finite = [(u, s) for u, s in zip(base.entries, scaled.entries)
                  if u is not None]
        assert all(s == u + shift for u, s in finite)
        relative = [v - scaled.min_valuation for _, v in finite]
        base_relative = [v - base.min_valuation for v, _ in finite]
        assert relative == base_relative


class TestDworkCongruence:
    def test_holds_without_integrality_hypothesis(self):
        # p = 13 is a non-integral prime for (2,5); the congruence still holds
        assert dwork_congruence_check(TRI25, 13, base_map(TRI25, 60)).holds()
        tri = TriangleType(3, 7)
        assert dwork_congruence_check(tri, 11, base_map(tri, 60)).holds()

    def test_rejects_shared_factor(self):
        with pytest.raises(SharedFactor):
            dwork_congruence_check(TRI25, 5, base_map(TRI25, 20))

    def test_index_one_bookkeeping(self):
        # non-multiples of p vanish on the z^p-substituted side, so the
        # check at index 1 is v_p(p*C1) >= 1; C1 is a p-unit denominator
        p = 13
        c1 = base_map(TRI25, 1).coeffs[1]
        assert rational_valuation(p * c1, p) >= 1


class TestSchwarzCongruence:
    def test_integral_case_holds(self):
        assert schwarz_congruence_check(TRI25, 11, base_map(TRI25, 60)).holds()

    def test_non_integral_case_fails(self):
        profile = schwarz_congruence_check(TRI25, 13, base_map(TRI25, 60))
        assert len(profile.entries) == 61
        assert profile.bound == 1
        assert not profile.holds()
        assert profile.first_failure >= 1

    def test_fixed_parameters_trivial(self):
        # p = 1 mod 20 fixes a and b, so both sides are the same series
        profile = schwarz_congruence_check(TRI25, 41, base_map(TRI25, 40))
        assert profile.holds()
        assert profile.min_valuation is None

    def test_fixed_parameters_reuse_base(self, monkeypatch):
        # when the Dwork image of (a, b) is (a, b), base is the twisted
        # map: no second Schwarz map is built
        base = base_map(TRI25, 30)
        built = []
        monkeypatch.setattr(lab, "schwarz_map", lambda params, n:
                            built.append(params) or schwarz_map(params, n))
        assert schwarz_congruence_check(TRI25, 41, base).holds()
        assert dwork_congruence_check(TRI25, 41, base).holds()
        assert built == []
        assert not schwarz_congruence_check(TRI25, 13, base).holds()
        assert built == [HGParams(QQ(19, 20), QQ(11, 20))]

    def test_biconditional_with_empirical(self):
        base = base_map(TRI25, 50)
        unit = mirror_map_unit(TRI25, 50)
        for p in (11, 13, 19, 23, 29, 31):
            cong = schwarz_congruence_check(TRI25, p, base).holds()
            assert cong == empirical_integrality(TRI25, p, unit).holds()


class TestDieudonne:
    def test_log_one_plus_z(self):
        u = log_series(TruncatedSeries([1, 1], 30))
        exp_side, cong_side = dieudonne_check(u, 5)
        assert exp_side.holds() and cong_side.holds()
        assert (exp_side.bound, cong_side.bound) == (0, 1)
        assert len(exp_side.entries) == len(cong_side.entries) == 31

    def test_z_over_p(self):
        p = 5
        u = TruncatedSeries([QQ(0), QQ(1, p)], 20)
        exp_side, cong_side = dieudonne_check(u, p)
        assert not exp_side.holds() and not cong_side.holds()

    def test_zero(self):
        exp_side, cong_side = dieudonne_check(TruncatedSeries([], 10), 7)
        assert exp_side.holds() and cong_side.holds()

    def test_on_schwarz_map(self):
        # u = D(a,b|z) for an integral prime: both predicates true
        exp_side, cong_side = dieudonne_check(base_map(TRI25, 40), 11)
        assert exp_side.holds() and cong_side.holds()

    @given(st.sampled_from([2, 3, 5, 7]),
           st.lists(st.tuples(st.integers(-4, 4), st.integers(-1, 1)),
                    max_size=8))
    def test_additive_form_fails_where_exp_form_does(self, p, terms):
        # w = u(z^p) - p u(z) fails mod p at the same first index as
        # exp(w) - 1; u's coefficients c p^k mix valuations -1, 0 and 1
        u = TruncatedSeries([QQ(0)] + [c * QQ(p) ** k for c, k in terms], 8)
        w = substitute_power(u, p) - p * u
        _, additive = dieudonne_check(u, p)
        exp_form = valuation_profile(exp_series(w) - 1, p, bound=1)
        assert additive.first_failure == exp_form.first_failure

    @pytest.mark.parametrize("tri", BEYOND_CLASSIFIER_MATRIX, ids=str)
    def test_lemma_matches_theorem_beyond_classifier_matrix(self, tri):
        # the theorem's verdict equals the profile of D(z^p) - p D(z)
        # mod p through z^(2p + 20), for the first two primes above
        # the conductor
        above = primes(tri.conductor + 1, 2 * tri.conductor + 20)[:2]
        d = base_map(tri, 2 * above[-1] + 20)
        for p in above:
            window = d.retruncate(2 * p + 20)
            lemma = valuation_profile(
                substitute_power(window, p) - p * window, p, bound=1)
            verdict = theorem_classifier(tri, p).verdict
            assert lemma.holds() == (verdict is Verdict.INTEGRAL), p


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
        with pytest.raises(OrderShortfall):
            cross_route_consistency(TriangleType(2, 3), 10)

    def test_mismatch_is_hard_error(self, monkeypatch):
        # a mirror route scaled by -kappa disagrees from the pole on
        monkeypatch.setattr(lab, "hauptmodul_from_mirror", lambda q, kappa:
                            hauptmodul_from_mirror(q, -kappa))
        with pytest.raises(RouteMismatch):
            cross_route_consistency(TriangleType(2, 3), 8)


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
            assert all(len(v.entries) == 31 and v.prime == p
                       for _, v in cells)
        with pytest.raises(SharedFactor):
            generator_integrality(TRI25, 5, generators)

    def test_formula_mismatch_is_hard_error(self, monkeypatch):
        # a J-formula route that disagrees must stop the per-type build
        real = lab.generators_via_j
        monkeypatch.setattr(lab, "generators_via_j", lambda *args: [
            LaurentSeries(2 * s.body, s.lowest_exponent)
            for s in real(*args)])
        with pytest.raises(FormulaMismatch):
            checked_generators(TRI25, 10)

    def test_short_formula_window_is_typed_error(self, monkeypatch):
        # a J-formula route that stops below the order asked for cannot
        # certify it, even where it agrees
        real = lab.generators_via_j
        monkeypatch.setattr(lab, "generators_via_j", lambda *args: [
            LaurentSeries(s.body.retruncate(9 - s.lowest_exponent),
                          s.lowest_exponent)
            for s in real(*args)])
        with pytest.raises(OrderShortfall):
            checked_generators(TRI25, 10)
        checked_generators(TRI25, 9)

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
        unit = mirror_map_unit(TRI25, 25)
        for p in (11, 13):
            q_integral = empirical_integrality(TRI25, p, unit).holds()
            j = hauptmodul_from_mirror(
                mirror_map(HGParams.for_type(TRI25), 26), TRI25.kappa)
            assert valuation_profile(j, p).holds() == q_integral

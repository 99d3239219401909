from math import gcd

import pytest
from hypothesis import given
import hypothesis.strategies as st

from triforms import dwork
from triforms.dwork import (
    IntegralityVerdict,
    almost_integral,
    dwork_map,
    dwork_set_condition,
    hecke_classifier,
    lemma_two_check,
    takeuchi_scan,
    theorem_classifier,
)
from triforms.errors import InvariantViolation, SharedFactor
from triforms.halphen import HGParams, TriangleType
from triforms.rationals import QQ, primes

from conftest import GRID_TYPES


class TestDworkMap:
    def test_half_is_fixed(self):
        for p in (3, 5, 7, 11, 13):
            assert dwork_map(QQ(1, 2), p) == QQ(1, 2)

    def test_swap_pair_mod_12(self):
        # oracle: exhaustive inverse search mod 12 gives 5^{-1} = 5
        inv5 = next(i for i in range(12) if (5 * i) % 12 == 1)
        assert inv5 == 5
        assert dwork_map(QQ(1, 12), 5) == QQ(5, 12)
        assert dwork_map(QQ(5, 12), 5) == QQ(1, 12)

    def test_denominator_preserved(self):
        assert dwork_map(QQ(7, 20), 13).denominator == 20

    def test_rejects_shared_denominator(self):
        with pytest.raises(SharedFactor,
                           match="^p = 5 divides denominator 10$"):
            dwork_map(QQ(1, 10), 5)

    @pytest.mark.parametrize("x", [QQ(-1, 3), QQ(5, 3)], ids=str)
    def test_rejects_x_outside_domain(self, x):
        # the domain is 0 <= x < 1 or x an integer
        with pytest.raises(ValueError):
            dwork_map(x, 2)

    @given(st.integers(min_value=0, max_value=29),
           st.sampled_from([7, 11, 13, 17, 19, 23]))
    def test_complement_identity(self, num, p):
        # delta_p(1 - x) = 1 - delta_p(x)
        x = QQ(num, 30)
        if gcd(p, 30) > 1 or num == 0:
            return
        assert dwork_map(1 - x, p) == 1 - dwork_map(x, p)

    @given(st.integers(min_value=1, max_value=19))
    def test_digit_witness_range(self, num):
        for p in (3, 7, 23):
            if gcd(p, 20) > 1:
                continue
            digit = p * dwork_map(QQ(num, 20), p) - QQ(num, 20)
            assert digit.denominator == 1
            assert 0 <= digit <= p - 1

    def test_wrong_witness_is_typed_error(self, monkeypatch):
        # delta_5(1/3) = 2/3 with digit 5 * 2/3 - 1/3 = 3; an image off by
        # 1 gives the digit 8 > 4, one off by 1/10 the non-integer 7/2
        for error in (QQ(1), QQ(1, 10)):
            monkeypatch.setattr(dwork, "QQ", lambda num, den=None: (
                QQ(num) if den is None else QQ(num, den) + error))
            with pytest.raises(InvariantViolation):
                dwork_map(QQ(1, 3), 5)

    def test_depends_only_on_residue_class(self):
        # delta_p(x) depends only on p mod denominator(x)
        x = QQ(5, 12)
        for p, q in ((5, 17), (7, 19), (11, 23)):
            assert p % 12 == q % 12
            assert dwork_map(x, p) == dwork_map(x, q)


class TestSetCondition:
    def test_2_3_at_5_plain(self):
        assert dwork_set_condition(TriangleType(2, 3), 5)

    def test_2_5_at_13_fails(self):
        # a = 7/20, b = 3/20; 13^{-1} = 17 mod 20, 17*7 = 119 = 19 mod 20,
        # and 19/20 is outside {a, b, 1-a, 1-b}
        tri = TriangleType(2, 5)
        params = HGParams.for_type(tri)
        assert (params.a, params.b) == (QQ(7, 20), QQ(3, 20))
        assert pow(13, -1, 20) == 17
        assert dwork_map(QQ(7, 20), 13) == QQ(19, 20)
        assert not dwork_set_condition(tri, 13)

    def test_cusp_double_degenerate_set(self):
        # (m, inf): a = b, condition reduces to delta(a) in {a, 1-a}
        tri = TriangleType(3, None)
        params = HGParams.for_type(tri)
        for p in (5, 7, 11, 13):
            da = dwork_map(params.a, p)
            assert dwork_set_condition(tri, p) == (
                da in (params.a, 1 - params.a))

    def test_rejects_shared_factor(self):
        with pytest.raises(SharedFactor):
            dwork_set_condition(TriangleType(2, 3), 3)


class TestTheoremClassifier:
    def test_2_5_reference_primes(self):
        tri = TriangleType(2, 5)
        # below the theorem range (p < 20) the outcome is conjectural
        assert theorem_classifier(tri, 11).verdict == "belowTheoremRange"
        assert theorem_classifier(tri, 11).witness is not None
        assert theorem_classifier(tri, 19).witness is not None
        assert theorem_classifier(tri, 13).witness is None
        # above the range: hard verdicts
        assert theorem_classifier(tri, 29).verdict == "integral"
        assert theorem_classifier(tri, 23).verdict == "nonIntegral"

    def test_2_3_at_5_witness(self):
        verdict = theorem_classifier(TriangleType(2, 3), 13)
        assert verdict.verdict == "integral"
        assert verdict.witness is not None

    def test_witness_present_iff_integral(self):
        tri = TriangleType(3, 4)
        for p in (29, 31, 37, 41, 43):
            v = theorem_classifier(tri, p)
            assert (v.witness is not None) == (v.verdict == "integral")

    def test_witness_sign_pair_example(self):
        # 29 = 1 mod 4 and 29 = -1 mod 6: epsilon = 1, eps'*eps = -1,
        # plain branch (same residue class as the below-range p = 5)
        v = theorem_classifier(TriangleType(2, 3), 29)
        assert v.verdict == "integral"
        w = v.witness
        assert (w.epsilon, w.epsilon_prime, w.branch) == (1, -1, "plain")

    def test_cusp_double(self):
        tri = TriangleType(4, None)
        assert theorem_classifier(tri, 17).verdict == "integral"  # 17 = 1 mod 8
        assert theorem_classifier(tri, 11).verdict == "nonIntegral"  # 3 mod 8

    def test_rejects_shared_factor(self):
        with pytest.raises(SharedFactor):
            theorem_classifier(TriangleType(2, 5), 5)

    @pytest.mark.parametrize("tri", GRID_TYPES, ids=str)
    def test_verdict_and_json_follow_closed_form(self, tri):
        # the derived verdict and the JSON keys against the theorem read
        # off the residues directly: p = +-1 mod 2m1 and mod 2m2, or
        # p = m1 +- 1 mod 2m1 and m2 +- 1 mod 2m2 (p = +-1 mod 2m1 for
        # m2 = inf); below the range only the flag is written, and the
        # belowTheoremRange boolean says which side of the range p is
        def near(p, m, centre):
            return (p - centre) % (2 * m) in (1, 2 * m - 1)

        orders = (tri.m1, tri.m2) if tri.m2_finite else (tri.m1,)
        for p in primes(3, 299):
            if gcd(p, tri.conductor) > 1:
                continue
            integral = (all(near(p, m, 0) for m in orders)
                        or tri.m2_finite and all(near(p, m, m) for m in orders))
            v = theorem_classifier(tri, p)
            if p <= tri.conductor:
                expected, extra = "belowTheoremRange", {
                    "conjectural_integral"}
                assert v.to_json()["conjectural_integral"] == integral, p
            elif integral:
                expected, extra = "integral", {"witness"}
            else:
                expected, extra = "nonIntegral", set()
            assert v.verdict == expected, p
            data = v.to_json()
            assert set(data) == {
                "type", "p", "verdict", "belowTheoremRange"} | extra, p
            assert data["belowTheoremRange"] == (p <= tri.conductor), p
            assert (v.witness is not None) == integral, p
            if integral:
                w = v.witness
                shift = w.branch == "shifted"
                assert (p - shift * tri.m1 - w.epsilon) % (2 * tri.m1) == 0
                if tri.m2_finite:
                    assert (p - shift * tri.m2
                            - w.epsilon * w.epsilon_prime) % (2 * tri.m2) == 0


class TestHecke:
    def test_reference_primes_n5(self):
        assert hecke_classifier(5, 19) is True   # 19 = -1 mod 5
        assert hecke_classifier(5, 13) is False

    def test_n7(self):
        assert hecke_classifier(7, 29) is True   # 29 = 1 mod 7

    def test_agrees_with_main_classifier(self):
        # at every p, below 4n too: (2, n) has a witness iff
        # p = +-1 or n +- 1 mod 2n, that is p = +-1 mod n
        for n in range(3, 41):
            for p in primes(5, 1999):
                if gcd(p, 2 * n) > 1:
                    continue
                expected = p % n in (1, n - 1)
                witness = theorem_classifier(TriangleType(2, n), p).witness
                assert hecke_classifier(n, p) == expected, (n, p)
                assert (witness is not None) == expected, (n, p)

    def test_rejects_bad_input(self):
        with pytest.raises(SharedFactor):
            hecke_classifier(5, 5)

    def test_disagreement_with_main_classifier_is_typed_error(self, monkeypatch):
        # a main classifier with no witness anywhere must clash with the
        # Hecke criterion at p = 29 = -1 mod 5 (above 4n) and at
        # p = 11 = 1 mod 5 (below it: the check runs at every p)
        monkeypatch.setattr(dwork, "theorem_classifier", lambda tri, p:
                            IntegralityVerdict(tri, p, None))
        for p in (29, 11):
            with pytest.raises(InvariantViolation):
                hecke_classifier(5, p)


class TestAlmostIntegral:
    def test_members(self):
        for tri in (TriangleType(2, 3), TriangleType(6, 6), TriangleType(3, None)):
            assert almost_integral(tri)

    def test_non_members(self):
        for tri in (TriangleType(2, 5), TriangleType(4, 5), TriangleType(5, None)):
            assert not almost_integral(tri)

    def test_4_5_failing_residue(self):
        # r = 3 mod 10 fails both branches mod 2*m2 = 10
        assert 3 % 10 not in (1, 9)   # plain
        assert 3 % 10 not in (4, 6)   # shifted: m2 +- 1
        assert not almost_integral(TriangleType(4, 5))


EXPECTED = {"(2,3)", "(2,4)", "(2,6)", "(2,inf)", "(3,3)", "(3,inf)",
            "(4,4)", "(6,6)"}


class TestTakeuchiScan:
    def test_bound_60(self):
        assert {str(t) for t in takeuchi_scan(60)} == EXPECTED

    def test_bound_6(self):
        assert {str(t) for t in takeuchi_scan(6)} == EXPECTED

    def test_bound_independence(self):
        assert takeuchi_scan(20) == takeuchi_scan(60)

    def test_rejects_small_bound(self):
        with pytest.raises(ValueError):
            takeuchi_scan(5)


class TestLemmaTwo:
    def test_exhaustive_small_primes(self):
        for p in (5, 7):
            assert lemma_two_check(p) == []

    def test_complement_c1_invariance(self):
        # algebraic identity: (2-sigma) - 2(1-sigma+tau) = sigma - 2 tau;
        # both sides are affine in (sigma, tau), so three points decide it
        for sigma, tau in ((0, 0), (1, 0), (0, 1)):
            assert (2 - sigma) - 2 * (1 - sigma + tau) == sigma - 2 * tau

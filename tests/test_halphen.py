from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
import hypothesis.strategies as st

from triforms import halphen
from triforms.errors import InvariantViolation
from triforms.halphen import (
    HGParams,
    TriangleType,
    eisenstein_one,
    eisenstein_two,
    generator_range,
    hauptmodul_from_halphen,
    solve_halphen,
)
from triforms.rationals import QQ
from triforms.series import (
    LaurentSeries, TruncatedSeries, divide, theta_derivative)

from conftest import GRID_TYPES
from oracles import (
    eisenstein_by_powering, halphen_residuals, solve_halphen_by_fractions)

SAMPLE_TYPES = [
    TriangleType(2, 3), TriangleType(2, 5), TriangleType(3, 4),
    TriangleType(3, 3), TriangleType(4, 7), TriangleType(2, None),
    TriangleType(5, None),
]



def prescribed_t2_slope(tri: TriangleType):
    """The linear coefficient of t2 as first derived, by hand, from the
    initial-condition block: an oracle for the closed form."""
    m1 = tri.m1
    if not tri.m2_finite:
        return QQ(-(m1 + 1))
    m2 = tri.m2
    return QQ(m1 * m1 * m2 + m1 * m1 - m1 * m2 * m2 - m2 * m2)


class TestTriangleType:
    def test_parse(self):
        assert TriangleType.parse("2,3") == TriangleType(2, 3)
        assert TriangleType.parse("4,inf") == TriangleType(4, None)

    def test_rejects_non_hyperbolic(self):
        with pytest.raises(ValueError):
            TriangleType(2, 2)
        with pytest.raises(ValueError):
            TriangleType(3, 2)

    def test_hyperbolic_exactly_when_reciprocals_sum_below_one(self):
        built = set()
        for m1 in range(2, 13):
            for m2 in range(m1, 13):
                try:
                    built.add(TriangleType(m1, m2))
                except ValueError:
                    assert QQ(1, m1) + QQ(1, m2) >= 1
                else:
                    assert QQ(1, m1) + QQ(1, m2) < 1
        assert built == {t for t in GRID_TYPES if t.m2_finite}

    def test_rejects_small_orders(self):
        with pytest.raises(ValueError):
            TriangleType(1, 5)

    def test_conductor(self):
        assert TriangleType(2, 5).conductor == 20
        assert TriangleType(3, None).conductor == 6

    def test_kappa(self):
        assert TriangleType(2, 3).kappa == 72
        assert TriangleType(3, None).kappa == 18
        for tri in GRID_TYPES:  # so kappa's primes divide the conductor
            assert type(tri.kappa) is int
            assert 2 * tri.kappa == tri.conductor ** 2


class TestDeriveParams:
    """HGParams.for_type: (a, b) and the Halphen system's c = 1 - a."""

    def test_2_3(self):
        p = HGParams.for_type(TriangleType(2, 3))
        assert (p.a, p.b, 1 - p.a) == (QQ(5, 12), QQ(1, 12), QQ(7, 12))

    def test_cusp_double_equal_parameters(self):
        # (m, inf): a = b = (m-1)/(2m)
        for m in (2, 3, 5, 7):
            p = HGParams.for_type(TriangleType(m, None))
            assert p.a == p.b == QQ(m - 1, 2 * m)

    def test_2_inf(self):
        p = HGParams.for_type(TriangleType(2, None))
        assert (p.a, p.b, 1 - p.a) == (QQ(1, 4), QQ(1, 4), QQ(3, 4))

    def test_over_common_denominator_on_grid(self):
        # (A, B, M) in lowest terms with M dividing the conductor; for
        # some types M is a proper divisor, and the integer solve's grid
        # test (test_integer_solve_matches_fraction_loop) covers them
        below = []
        for tri in GRID_TYPES:
            p = HGParams.for_type(tri)
            A, B, M = p.over_common_denominator()
            assert (QQ(A, M), QQ(B, M)) == (p.a, p.b)
            assert gcd(A, B, M) == 1
            assert tri.conductor % M == 0
            if M < tri.conductor:
                below.append(str(tri))
        assert {"(3,3)", "(4,4)", "(5,5)", "(6,6)", "(8,8)",
                "(2,4)"} <= set(below)

    def test_over_common_denominator_of_a_twisted_pair(self):
        assert HGParams(QQ(19, 20), QQ(1, 4)).over_common_denominator() == (
            19, 5, 20)

    def test_inexact_arithmetic_is_typed_error(self, monkeypatch):
        # binary floats round 1/3 and break 1 - a - b = 1/m1
        monkeypatch.setattr(halphen, "QQ", lambda num, den=1: num / den)
        with pytest.raises(InvariantViolation):
            HGParams.for_type(TriangleType(3, 4))


class TestSolve:
    def test_prescribed_slope_2_3(self):
        # 4*3 + 4 - 2*9 - 9 = -11
        assert prescribed_t2_slope(TriangleType(2, 3)) == -11
        sol = solve_halphen(TriangleType(2, 3), 3)
        assert sol.t2.coeffs[0] == -1
        assert sol.t2.coeffs[1] == -11

    def test_prescribed_slope_2_inf(self):
        sol = solve_halphen(TriangleType(2, None), 3)
        assert sol.t2.coeffs[1] == -3

    def test_initial_conditions(self):
        for tri in SAMPLE_TYPES:
            sol = solve_halphen(tri, 4)
            assert sol.t1.coeffs[0] == 0
            assert sol.t3.coeffs[0] == 0
            assert sol.t2.coeffs[0] == -1

    def test_order_one_oracle_2_3(self):
        # hand-solved order-1 system: a t11 + (1-a) t31 = 0 and
        # t21 = (1-b)(t11 + t31), with the prescribed t21 = -11
        sol = solve_halphen(TriangleType(2, 3), 2)
        a, b = QQ(5, 12), QQ(1, 12)
        t11, t31 = sol.t1.coeffs[1], sol.t3.coeffs[1]
        assert a * t11 + (1 - a) * t31 == 0
        assert sol.t2.coeffs[1] == (1 - b) * (t11 + t31)
        assert t31 - t11 == 72

    def test_linear_gap_formula(self):
        # t3_1 - t1_1 = 2 m1^2 m2^2 (2 m1^2 when m2 = inf)
        for tri in SAMPLE_TYPES:
            sol = solve_halphen(tri, 2)
            gap = sol.t3.coeffs[1] - sol.t1.coeffs[1]
            m2 = tri.m2 if tri.m2_finite else 1
            assert gap == 2 * tri.m1 ** 2 * m2 ** 2

    def test_back_substitution(self):
        for tri in SAMPLE_TYPES:
            sol = solve_halphen(tri, 25)
            for res in halphen_residuals(tri, sol):
                assert not any(res.coeffs)


@pytest.mark.parametrize("tri", GRID_TYPES, ids=str)
def test_closed_form_order_one(tri):
    """The closed-form order-1 data solve the rank-deficient order-1
    system, give the hand-derived t2 slope and the gap kappa, and the
    solution built on them has vanishing residuals."""
    params = HGParams.for_type(tri)
    a, b = params.a, params.b
    sol = solve_halphen(tri, 12)
    t11, t21, t31 = sol.t1.coeffs[1], sol.t2.coeffs[1], sol.t3.coeffs[1]
    assert t21 == prescribed_t2_slope(tri)
    assert t31 - t11 == tri.kappa
    assert a * t11 + (1 - a) * t31 == 0
    assert t21 == (1 - b) * (t11 + t31)
    for res in halphen_residuals(tri, sol):
        assert not any(res.coeffs)


def _assert_same_solution(tri, n_order):
    fast = solve_halphen(tri, n_order)
    loop = solve_halphen_by_fractions(tri, n_order)
    assert fast.t1 == loop.t1
    assert fast.t2 == loop.t2
    assert fast.t3 == loop.t3


@pytest.mark.parametrize("n_order", [0, 1, 2, 3, 40])
@pytest.mark.parametrize("tri", GRID_TYPES, ids=str)
def test_integer_solve_matches_fraction_loop(tri, n_order):
    """The solve on integer numerators over one denominator equals the
    loop of reduced-rational operations, coefficients and truncation."""
    _assert_same_solution(tri, n_order)


@given(st.sampled_from(GRID_TYPES), st.integers(min_value=2, max_value=30))
def test_integer_solve_matches_fraction_loop_random(tri, n_order):
    _assert_same_solution(tri, n_order)


def test_solve_builds_no_fraction_per_order(monkeypatch):
    """The order loop runs on integers only: the Fractions a solve
    builds (its parameters and kappa) do not grow with the order."""
    real, calls = Fraction.__new__, []

    def counting(cls, *args, **kwargs):
        calls.append(1)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    counts = []
    for n_order in (20, 80):
        calls.clear()
        solve_halphen(TriangleType(2, 5), n_order)
        counts.append(len(calls))
    assert counts[0] == counts[1]


class TestHauptmodul:
    def test_pole_structure(self):
        sol = solve_halphen(TriangleType(2, 3), 10)
        j = hauptmodul_from_halphen(sol)
        assert j.lowest_exponent == -1
        assert j.coefficient(-1) == QQ(1, 72)

    def test_reciprocal_linear_coefficient(self):
        sol = solve_halphen(TriangleType(2, 3), 10)
        j = hauptmodul_from_halphen(sol)
        one = LaurentSeries(TruncatedSeries.one(j.body.truncation))
        assert (one / j).coefficient(1) == 72

    def test_degenerate_denominator_guard(self):
        sol = solve_halphen(TriangleType(2, 3), 5)
        broken = type(sol)(sol.t3, sol.t2, sol.t3)
        with pytest.raises(InvariantViolation,
                           match="^t3 - t1 has zero linear coefficient$"):
            hauptmodul_from_halphen(broken)


class TestGenerators:
    def test_constant_term_one(self):
        for tri in SAMPLE_TYPES[:4]:
            sol = solve_halphen(tri, 8)
            for builder in (eisenstein_one, eisenstein_two):
                assert [e.constant_term for e in builder(range(1, 5), sol)] \
                    == [1, 1, 1, 1]

    def test_weight_four_symmetry(self):
        sol = solve_halphen(TriangleType(2, 5), 8)
        assert eisenstein_one(range(2, 3), sol) == \
            eisenstein_two(range(2, 3), sol)

    def test_multiplicative_recursions(self):
        sol = solve_halphen(TriangleType(3, 4), 12)
        e1 = eisenstein_one(range(1, 5), sol)
        e2 = eisenstein_two(range(1, 5), sol)
        for k in (0, 1, 2):
            assert e1[k + 1] == e1[k] * (sol.t3 - sol.t2)
            assert e2[k + 1] == e2[k] * (sol.t1 - sol.t2)

    @pytest.mark.parametrize("tri", [
        t for t in GRID_TYPES if t.m2_finite and t.m2 <= 8]
        + [TriangleType(2, None), TriangleType(3, None)], ids=str)
    def test_ladder_matches_per_weight_powering(self, tri):
        # the ladder lists equal the per-k oracle coefficient for
        # coefficient, over each generator range and over k = 1..4
        sol = solve_halphen(tri, 12)
        for kind, builder in ((1, eisenstein_one), (2, eisenstein_two)):
            for ks in (generator_range(tri, kind), range(1, 5)):
                assert builder(ks, sol) == [
                    eisenstein_by_powering(kind, k, sol) for k in ks]

    def test_ladder_product_count(self, monkeypatch):
        # (t1 - t2)^1 takes no product, then one product for the
        # first entry and one for each of the 4 ladder steps
        sol = solve_halphen(TriangleType(2, 5), 12)
        real, calls = TruncatedSeries.__mul__, []
        monkeypatch.setattr(TruncatedSeries, "__mul__",
                            lambda a, b: calls.append(1) or real(a, b))
        eisenstein_two(range(2, 7), sol)
        assert len(calls) == 5

    def test_generator_ranges(self):
        assert list(generator_range(TriangleType(2, 5), 1)) == []
        assert list(generator_range(TriangleType(2, 5), 2)) == [2, 3, 4, 5]
        assert list(generator_range(TriangleType(3, None), 1)) == [1, 2, 3]
        assert list(generator_range(TriangleType(3, None), 2)) == []


class TestDerivativeIdentities:
    def test_t_differences_from_j(self):
        # t1 - t2 = Jdot/J and t3 - t2 = Jdot/(J - 1) with Jdot = -theta J
        # (the q-orientation fixed by the prescribed t2 slope flips the
        # literal theta sign); for J = B/q these are the power series
        # (B - theta B)/B and (B - theta B)/(B - q)
        for tri in (TriangleType(2, 3), TriangleType(3, 4), TriangleType(2, None)):
            sol = solve_halphen(tri, 15)
            j = hauptmodul_from_halphen(sol)
            assert j.lowest_exponent == -1
            b = j.body
            jdot = b - theta_derivative(b)
            t12 = divide(jdot, b)
            t32 = divide(jdot, b - TruncatedSeries.identity(b.truncation))
            assert t12.truncation == t32.truncation == 14
            assert t12 == (sol.t1 - sol.t2).retruncate(14)
            assert t32 == (sol.t3 - sol.t2).retruncate(14)

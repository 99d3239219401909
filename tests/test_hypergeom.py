from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from triforms.halphen import HGParams, TriangleType, solve_halphen
from triforms.hypergeom import (
    frobenius_basis,
    hauptmodul_from_mirror,
    mirror_map,
    schwarz_map,
    series_f,
    series_g,
)
from triforms.rationals import QQ, numden
from triforms.series import (
    LaurentSeries,
    TruncatedSeries,
    compose,
    reversion,
    theta_derivative,
)

from conftest import GRID_TYPES
from oracles import (
    binomial_series,
    complement,
    euler_identity_check,
    hypergeometric_operator_residual,
    scale_argument,
    series_f_by_fractions,
    series_g_by_fractions,
)

TRI23 = TriangleType(2, 3)
TRI37 = TriangleType(3, 7)

# the cross-route benchmark's types: hyperbolic (m1, m2) with m2 <= 8,
# and (2,inf) and (3,inf)
CROSS_ROUTE_TYPES = [t for t in GRID_TYPES if t.m2_finite and t.m2 <= 8] + [
    TriangleType(2, None), TriangleType(3, None)]


def pochhammer(x, n):
    out = QQ(1)
    for i in range(n):
        out *= x + i
    return out


class TestParams:
    def test_values_2_3(self):
        p = HGParams.for_type(TRI23)
        assert (p.a, p.b) == (QQ(5, 12), QQ(1, 12))

    def test_ordering_invariant(self):
        with pytest.raises(ValueError):
            HGParams(QQ(1, 12), QQ(5, 12))


class TestSeriesF:
    def test_first_coefficients(self):
        f = series_f(HGParams.for_type(TRI23), 3)
        assert f.coeffs[0] == 1
        assert f.coeffs[1] == QQ(5, 144)  # a*b

    def test_pochhammer_oracle(self):
        # direct (a)_n (b)_n / n!^2 evaluation against the recurrence
        p = HGParams.for_type(TRI23)
        f = series_f(p, 6)
        fact = 1
        for n in range(7):
            if n:
                fact *= n
            assert f.coeffs[n] == pochhammer(p.a, n) * pochhammer(p.b, n) \
                / (fact * fact)

    def test_a2_spec_value(self):
        p = HGParams.for_type(TRI23)
        assert series_f(p, 2).coeffs[2] == \
            QQ(5, 12) * QQ(17, 12) * QQ(1, 12) * QQ(13, 12) / 4

    def test_annihilated_by_operator(self):
        for tri in (TRI23, TRI37, TriangleType(2, None)):
            p = HGParams.for_type(tri)
            res = hypergeometric_operator_residual(p, series_f(p, 30))
            assert not any(res.coeffs)


class TestSeriesG:
    def test_b0_b1(self):
        p = HGParams.for_type(TRI23)
        g = series_g(p, 2)
        assert g.coeffs[0] == 0
        assert g.coeffs[1] == p.a + p.b - 2 * p.a * p.b  # 31/72

    def test_b1_value(self):
        p = HGParams.for_type(TRI23)
        assert series_g(p, 1).coeffs[1] == QQ(31, 72)

    def test_order_and_coefficients_from_recurrence(self):
        # G is built at the order asked for, and each B_n = A_n H_n,
        # with A_n the coefficients of F and H_n the harmonic-type sums,
        # does not depend on that order
        p = HGParams.for_type(TRI37)
        f, g = series_f(p, 12), series_g(p, 12)
        assert g.truncation == 12
        assert series_g(p, 5) == g.retruncate(5)
        a, b = p.a, p.b
        h = [sum((1 / (a + i) + 1 / (b + i) - QQ(2, 1 + i)
                  for i in range(n)), QQ(0)) for n in range(13)]
        assert list(g.coeffs) == [x * y for x, y in zip(f.coeffs, h)]

    def test_logarithmic_solution_inhomogeneity(self):
        # L(F log z + G) = 0 forces L(G) = -2 theta F + z (2 theta + a + b) F
        for tri in (TRI23, TRI37):
            p = HGParams.for_type(tri)
            f = series_f(p, 25)
            g = series_g(p, 25)
            lhs = hypergeometric_operator_residual(p, g)
            rhs = (-2) * theta_derivative(f) + \
                (2 * theta_derivative(f) + (p.a + p.b) * f).shift(1)
            assert lhs == rhs


def assert_same_basis(params, n_order):
    """The integer F and G equal the reduced-rational loops of
    tests/oracles.py field for field."""
    f, g = frobenius_basis(params, n_order)
    f_loop = series_f_by_fractions(params, n_order)
    g_loop = series_g_by_fractions(params, f_loop)
    assert (f.nums, f.den, f.truncation) == (
        f_loop.nums, f_loop.den, f_loop.truncation)
    assert (g.nums, g.den, g.truncation) == (
        g_loop.nums, g_loop.den, g_loop.truncation)


class TestIntegerBasis:
    @pytest.mark.parametrize("tri", GRID_TYPES, ids=str)
    @pytest.mark.parametrize("n_order", [0, 1, 2, 30, 82])
    def test_matches_fraction_loops_on_grid(self, tri, n_order):
        assert_same_basis(HGParams.for_type(tri), n_order)

    @pytest.mark.parametrize("tri", GRID_TYPES, ids=str)
    @pytest.mark.parametrize("n_order", [0, 1, 2, 30])
    def test_series_f_and_g_are_the_halves_of_the_basis(self, tri, n_order):
        params = HGParams.for_type(tri)
        f_loop = series_f_by_fractions(params, n_order)
        halves = [(s.nums, s.den, s.truncation) for s in (
            series_f(params, n_order), series_g(params, n_order),
            *frobenius_basis(params, n_order),
            f_loop, series_g_by_fractions(params, f_loop))]
        assert halves[:2] == halves[2:4] == halves[4:]

    @given(st.integers(2, 40).flatmap(lambda den: st.lists(
        st.integers(1, den - 1), min_size=2, max_size=2).map(
        lambda xs: HGParams(QQ(max(xs), den), QQ(min(xs), den)))),
        st.integers(0, 60))
    def test_matches_fraction_loops_on_pairs(self, params, n_order):
        # any 0 < b <= a < 1 with a common denominator, twisted pairs
        # and unequal reduced denominators included
        assert_same_basis(params, n_order)

    def test_builds_no_fraction_per_order(self, monkeypatch):
        """F and G run on integers: the Fractions a build makes do not
        grow with the order."""
        real, calls = Fraction.__new__, []

        def counting(cls, *args, **kwargs):
            calls.append(1)
            return real(cls, *args, **kwargs)

        params = HGParams.for_type(TriangleType(2, 5))
        monkeypatch.setattr(Fraction, "__new__", counting)
        counts = []
        for n_order in (20, 80):
            calls.clear()
            frobenius_basis(params, n_order)
            counts.append(len(calls))
        assert counts[0] == counts[1]


class TestSchwarzMap:
    def test_c1_closed_form(self):
        for tri in (TRI23, TRI37, TriangleType(5, 6)):
            p = HGParams.for_type(tri)
            sigma, tau = p.a + p.b, p.a * p.b
            assert schwarz_map(p, 2).coeffs[1] == sigma - 2 * tau

    def test_c1_value_2_3(self):
        assert schwarz_map(HGParams.for_type(TRI23), 1).coeffs[1] == QQ(31, 72)

    def test_c2_closed_form(self):
        # 4 C2 = sigma^2 - 5 sigma tau + 5 tau^2 + sigma - tau,
        # oracle: direct series division at order 2
        for tri in (TRI23, TRI37, TriangleType(4, 9)):
            p = HGParams.for_type(tri)
            sigma, tau = p.a + p.b, p.a * p.b
            c2 = schwarz_map(p, 2).coeffs[2]
            assert 4 * c2 == sigma * sigma - 5 * sigma * tau \
                + 5 * tau * tau + sigma - tau


class TestMirrorMap:
    def test_low_order_coefficients(self):
        p = HGParams.for_type(TRI23)
        q = mirror_map(p, 6)
        z = reversion(q)
        c1 = p.a + p.b - 2 * p.a * p.b
        assert q.coeffs[:3] == (0, 1, c1)
        assert z.coeffs[:3] == (0, 1, -c1)

    def test_reversion_round_trip(self):
        q = mirror_map(HGParams.for_type(TRI37), 25)
        assert compose(q, reversion(q)) == TruncatedSeries.identity(25)

    def test_kappa_calibration(self):
        # J = 1/z(kappa q) with kappa = 2 m1^2 m2^2 for every tested
        # type, including m1 = m2 and m2 = inf
        for tri in (TRI23, TriangleType(3, 3), TriangleType(2, None)):
            j = hauptmodul_from_mirror(
                mirror_map(HGParams.for_type(tri), 4), tri.kappa)
            assert tri.kappa > 0
            assert j.coefficient(-1) == QQ(1, tri.kappa)

    def test_j_pole(self):
        j = hauptmodul_from_mirror(
            mirror_map(HGParams.for_type(TRI23), 8), TRI23.kappa)
        assert j.lowest_exponent == -1
        assert j.coefficient(-1) == QQ(1, TRI23.kappa)

    @pytest.mark.parametrize("tri", CROSS_ROUTE_TYPES, ids=str)
    def test_j_is_reciprocal_of_scaled_reversion(self, tri):
        # z(kappa q) as the reversion of q(a,b|z)/kappa equals the
        # reversion z(q) scaled afterwards, the construction it replaced
        q = mirror_map(HGParams.for_type(tri), 30)
        z = scale_argument(reversion(q), tri.kappa)
        assert hauptmodul_from_mirror(q, tri.kappa) == \
            LaurentSeries(TruncatedSeries.one(30)) / LaurentSeries(z)

    def test_agrees_with_halphen_route(self):
        from triforms.halphen import hauptmodul_from_halphen
        sol = solve_halphen(TRI23, 14)
        j_h = hauptmodul_from_halphen(sol)
        j_m = hauptmodul_from_mirror(
            mirror_map(HGParams.for_type(TRI23), 13), TRI23.kappa)
        assert j_h.agrees_with(j_m) is None


class TestEulerIdentity:
    def test_binomial_series(self):
        # (1-z)^(-1) is geometric
        assert binomial_series(-1, 4) == TruncatedSeries([1, 1, 1, 1, 1], 4)
        half = binomial_series(QQ(1, 2), 3)
        assert half.coeffs[:3] == (QQ(1), QQ(-1, 2), QQ(-1, 8))

    def test_holds_for_sample_types(self):
        for tri in (TRI23, TRI37):
            assert euler_identity_check(HGParams.for_type(tri), 50)

    def test_exponent_never_zero(self):
        # 1 - a - b = 1/m1 > 0 for every valid type
        for tri in (TRI23, TRI37, TriangleType(6, None)):
            p = HGParams.for_type(tri)
            assert 1 - p.a - p.b == QQ(1, tri.m1)

    def test_complement_parameters(self):
        p = HGParams.for_type(TRI23)
        c = complement(p)
        assert {c.a, c.b} == {1 - p.a, 1 - p.b}


class TestDenominatorPrimes:
    def test_large_primes_absent(self):
        # denominators of A_n, B_n only involve primes from n! and from
        # the denominators of a, b
        p = HGParams.for_type(TRI23)
        f = series_f(p, 20)
        g = series_g(p, 20)
        for prime in (23, 29, 31):  # > N and > 2 m1 m2
            for c in list(f.coeffs) + list(g.coeffs):
                if c != 0:
                    assert numden(c)[1] % prime != 0

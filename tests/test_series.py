from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from triforms.errors import SeriesDomainError
from triforms.halphen import (
    HGParams, TriangleType, hauptmodul_from_halphen, solve_halphen)
from triforms.hypergeom import (
    hauptmodul_from_mirror, mirror_map, schwarz_map, series_f, series_g)
from triforms.rationals import QQ, rational_to_str
from triforms.series import (
    LaurentSeries,
    PAdicCheck,
    TruncatedSeries,
    compose,
    divide,
    exp_series,
    log_series,
    reversion,
    theta_derivative,
    valuation_profile,
    _theta_inverse,
)

from conftest import (
    series,
    small_integers,
    small_rationals,
    unit_linear_series,
    unit_series,
    zero_constant_series,
)
from oracles import (
    agreement_by_fractions, divide_by_recurrence, exp_by_recurrence,
    rational_valuation, scale_argument, substitute_power, valuation_entries)


def ts(*coeffs, N=None):
    return TruncatedSeries([Fraction(str(c)) for c in coeffs], N)


def laurent_window(lowest, coeffs, top):
    """The Laurent series with the given coefficients from q^lowest on,
    truncated after q^top."""
    return LaurentSeries(TruncatedSeries(coeffs, top - lowest), lowest)


def reciprocal(x):
    """1/x as the quotient of the series 1 by x, at the width of x's
    body: the window hauptmodul_from_mirror takes for J = 1/z."""
    return LaurentSeries(TruncatedSeries.one(x.body.truncation)) / x


# -- the oracle: each operation on the list of Fractions c_0..c_N ------

def fractions(s):
    return [Fraction(c) for c in s.coeffs]


def product(a, b):
    """Schoolbook convolution at the shorter length."""
    return [sum((a[i] * b[k - i] for i in range(k + 1)), Fraction(0))
            for k in range(min(len(a), len(b)))]


def power(a, k):
    out = [Fraction(int(i == 0)) for i in range(len(a))]
    for _ in range(k):
        out = product(out, a)
    return out


def inverse(a):
    """1/a for a[0] != 0, by the division recurrence."""
    out = []
    for k in range(len(a)):
        acc = int(k == 0) - sum((a[i] * out[k - i] for i in range(1, k + 1)),
                                Fraction(0))
        out.append(acc / a[0])
    return out


def theta(a):
    return [i * c for i, c in enumerate(a)]


def theta_inverse(a):
    return [Fraction(0)] + [c / i for i, c in enumerate(a[1:], 1)]


def exponential(u):
    """exp(u) for u[0] = 0, by n e_n = sum_k k u_k e_(n-k)."""
    out = [Fraction(1)]
    for n in range(1, len(u)):
        out.append(sum((k * u[k] * out[n - k] for k in range(1, n + 1)),
                       Fraction(0)) / n)
    return out


def composition(f, g):
    """sum_k f_k g^k for g[0] = 0, each power at the shorter length."""
    n = min(len(f), len(g))
    acc, g_k = [Fraction(0)] * n, power(g[:n], 0)
    for c in f[:n]:
        acc = [x + c * y for x, y in zip(acc, g_k)]
        g_k = product(g_k, g[:n])
    return acc


def compositional_inverse(s):
    """g with s(g) = q, coefficient by coefficient: with g known below
    q^m and g_m = 0, s(g) has s_1 g_m + (that) at q^m."""
    g = [Fraction(0)] * len(s)
    g[1] = 1 / s[1]
    for m in range(2, len(s)):
        g[m] = -composition(s[:m + 1], g[:m + 1])[m] / s[1]
    return g


def is_canonical(s):
    return (len(s.nums) == s.truncation + 1 and s.den > 0
            and gcd(s.den, *s.nums) == 1)


def assert_matches(s, expected):
    """s is canonical, with exactly the coefficients (and so the
    truncation) of the list expected."""
    assert is_canonical(s)
    assert fractions(s) == expected


def naive_product(x, y):
    """Schoolbook convolution over the rationals: the product's oracle."""
    return TruncatedSeries(product(fractions(x), fractions(y)))


def naive_compose(f, g):
    """sum_k f_k g^k, each power truncated at the common order."""
    return TruncatedSeries(composition(fractions(f), fractions(g)))


# numerators and denominators up to 1100 bits, signs and zeros mixed in
tall_rationals = st.builds(
    QQ, st.integers(min_value=-2 ** 1100, max_value=2 ** 1100),
    st.integers(min_value=1, max_value=2 ** 1100))
mixed_coefficients = st.one_of(
    st.just(QQ(0)), small_rationals, st.builds(QQ, small_integers),
    tall_rationals)
any_order_series = st.integers(min_value=0, max_value=12).flatmap(
    lambda n: series(n, mixed_coefficients))


class TestPackedProduct:
    @given(any_order_series, any_order_series)
    def test_matches_naive_convolution(self, x, y):
        assert x * y == naive_product(x, y)

    @given(series(10, st.builds(QQ, st.integers(-10 ** 6, 10 ** 6))),
           series(7, st.builds(QQ, st.integers(-10 ** 6, 10 ** 6))))
    def test_integer_series(self, x, y):
        prod = x * y
        assert prod == naive_product(x, y)
        assert all(c.denominator == 1 for c in prod.coeffs)

    def test_order_zero(self):
        assert ts(-3, N=0) * ts("5/7", N=0) == ts("-15/7", N=0)
        assert ts(0, N=0) * ts(4, N=0) == ts(0, N=0)

    def test_full_slots_of_one_sign(self):
        # coefficient k of the product is -(k+1) big^2: the largest
        # magnitude a slot has to hold, with a borrow at every slot
        big = QQ(2 ** 1200 - 1, 3)
        x = TruncatedSeries([-big] * 9)
        y = TruncatedSeries([big] * 9)
        assert x * y == naive_product(x, y)
        assert (x * y).coeffs[8] == -9 * big * big

    def test_mismatched_truncations_and_zero_operand(self):
        x = ts("2/3", -1, 0, "1/5", N=3)
        assert x * ts(1, 1, N=6) == naive_product(x, ts(1, 1, N=6))
        assert (x * TruncatedSeries([], 5)) == TruncatedSeries([], 3)

    @given(series(8, mixed_coefficients),
           zero_constant_series(8, mixed_coefficients))
    def test_compose_matches_power_sum(self, f, g):
        assert compose(f, g) == naive_compose(f, g)

    def test_compose_rejects_inner_constant(self):
        with pytest.raises(SeriesDomainError,
                           match="^composition needs inner constant term 0$"):
            compose(ts(1, 1, N=3), ts(1, 1, N=3))


class TestRingOps:
    def test_difference_of_squares(self):
        assert ts(1, 1, N=2) * ts(1, -1, N=2) == ts(1, 0, -1, N=2)

    def test_absorbing_zero(self):
        s = ts(3, 1, 4, N=2)
        assert not any((s * TruncatedSeries([], 2)).coeffs)

    def test_hand_convolution(self):
        # schoolbook product of (1+2q+3q^2)(1+q), truncated at 2
        assert ts(1, 2, 3, N=2) * ts(1, 1, N=2) == ts(1, 3, 5, N=2)

    def test_truncation_is_min(self):
        assert (ts(1, 1, 1, N=2) * ts(1, N=5)).truncation == 2
        assert (ts(1, 1, 1, N=2) + ts(1, N=5)).truncation == 2

    @given(series(15), series(15), series(15))
    def test_ring_axioms(self, x, y, z):
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x
        assert x * y == y * x

    def test_power_product_count(self, monkeypatch):
        # binary powering from the first set bit: x ** 1 makes no
        # product, x ** 2 one, and no power multiplies by the series 1
        x = ts(1, 2, -3, 5, N=6)
        real, calls = TruncatedSeries.__mul__, []
        monkeypatch.setattr(TruncatedSeries, "__mul__",
                            lambda a, b: calls.append(1) or real(a, b))
        expected = TruncatedSeries.one(6)
        for k in range(9):
            del calls[:]
            assert x ** k == expected
            assert len(calls) == max(k.bit_length() + bin(k).count("1") - 2,
                                     0)
            expected = real(expected, x)

    @given(series(15), series(15), small_rationals)
    def test_scale_argument_multiplicative(self, x, y, kappa):
        assert scale_argument(x * y, kappa) == \
            scale_argument(x, kappa) * scale_argument(y, kappa)


class TestDivision:
    def test_geometric(self):
        assert divide(TruncatedSeries.one(3), ts(1, -1, N=3)) == ts(1, 1, 1, 1)

    def test_self_division(self):
        s = ts(2, 5, -1, 7)
        assert divide(s, s) == TruncatedSeries.one(3)

    def test_multiply_back(self):
        num, den = ts(0, 1, 1, N=3), ts(1, 1, N=3)
        quot = divide(num, den)
        assert quot == ts(0, 1, 0, 0)
        assert quot * den == num

    def test_zero_constant_term_rejected(self):
        with pytest.raises(SeriesDomainError,
                           match="^denominator has zero constant term$"):
            divide(TruncatedSeries.one(3), ts(0, 1, N=3))


nonzero_coefficients = mixed_coefficients.filter(lambda c: c != 0)
# denominators: any order 0..12, constant term any nonzero rational
any_order_denominators = st.builds(
    lambda c, s: TruncatedSeries([c, *s.coeffs[1:]], s.truncation),
    nonzero_coefficients, any_order_series)
any_order_exponents = any_order_series.map(
    lambda s: TruncatedSeries([0, *s.coeffs[1:]], s.truncation))


class TestNewtonKernels:
    """divide, exp_series and log_series against the coefficient loops
    they replaced (tests/oracles.py)."""

    @given(any_order_series, any_order_denominators)
    @example(TruncatedSeries([], 7), ts(-3, 1, 2, N=7))
    @example(ts("2/3", N=0), ts("-5/7", N=0))
    @example(ts(1, 2, N=1), ts(-2, "1/3", N=1))
    @example(ts(1, 0, 5, N=2), ts(3, -1, 1, N=2))
    @example(ts(1, 2, 3, 4, 5, 6, 7, 8, 9, N=9), ts(7, 1, N=3))
    @example(ts(4, -1, N=2), ts(-9, 1, 1, 1, 1, 1, 1, N=12))
    def test_divide_matches_recurrence(self, num, den):
        quot = divide(num, den)
        assert quot == divide_by_recurrence(num, den)
        assert quot.truncation == min(num.truncation, den.truncation)

    @given(any_order_exponents)
    @example(TruncatedSeries([], 0))
    @example(ts(0, "-7/2", N=1))
    @example(ts(0, 3, "5/11", N=2))
    def test_exp_and_log_match_recurrence(self, u):
        e = exp_series(u)
        assert e == exp_by_recurrence(u)
        assert log_series(e) == u

    @pytest.mark.parametrize("m1, m2", [(2, 5), (7, 8), (3, None)])
    def test_schwarz_map_tall_rationals(self, m1, m2):
        # D = G/F and exp(D): the tall rationals the mirror map is made of
        params = HGParams.for_type(TriangleType(m1, m2))
        f = series_f(params, 45)
        g = series_g(params, 45)
        d = divide(g, f)
        assert d == divide_by_recurrence(g, f)
        assert divide(g.retruncate(30), f) == divide_by_recurrence(
            g.retruncate(30), f)
        assert divide(g, f.retruncate(17)) == d.retruncate(17)
        e = exp_series(d)
        assert e == exp_by_recurrence(d)
        assert log_series(e) == d

    def test_kernels_never_read_reduced_coefficients(self, monkeypatch):
        # F, G, the kernels, both routes to J and the valuation profile
        # run on nums and den alone: reading .coeffs raises throughout
        tri = TriangleType(2, 5)
        params = HGParams.for_type(tri)

        def refuse(s):
            raise AssertionError("a kernel read .coeffs")

        monkeypatch.setattr(TruncatedSeries, "coeffs", property(refuse))
        f = series_f(params, 30)
        g = series_g(params, 30)
        d = divide(g, f)
        unit = exp_series(d)
        z = reversion(unit.shift(1))
        identity = compose(unit.shift(1), z)
        profile = valuation_profile(unit, 11)
        schwarz, mirror = schwarz_map(params, 30), mirror_map(params, 30)
        j_mirror = hauptmodul_from_mirror(mirror, tri.kappa)
        j_halphen = hauptmodul_from_halphen(solve_halphen(tri, 30))
        monkeypatch.undo()
        assert all(map(is_canonical, (f, g, d, unit, z, identity)))
        assert d == divide_by_recurrence(g, f) == schwarz
        assert mirror == unit.shift(1)
        assert identity == TruncatedSeries.identity(30)
        assert profile.holds() and profile.order == 30
        assert j_halphen.agrees_with(j_mirror) is None

    @given(st.integers(min_value=-3, max_value=3),
           any_order_series.filter(lambda s: any(s.coeffs)),
           st.integers(min_value=-3, max_value=3), any_order_denominators)
    @example(-2, ts(1, -3, "1/2", N=4), -1, ts(5, 1, N=6))
    @example(-1, ts(0, 0, 2, N=5), -3, ts("-1/4", 0, 3, N=3))
    def test_laurent_division_with_poles(self, lo_num, num, lo_den, den):
        x = LaurentSeries(num, lo_num)
        y = LaurentSeries(den, lo_den)
        expected = NaiveLaurent.of(x) * NaiveLaurent.of(y).inverse()
        assert _shape(x / y) == expected.shape()
        assert (x / y).body == divide_by_recurrence(x.body, y.body)


revertible_series = st.builds(
    lambda c, s: TruncatedSeries([0, c, *s.coeffs[2:]], max(s.truncation, 1)),
    nonzero_coefficients,
    st.integers(min_value=0, max_value=8).flatmap(
        lambda n: series(n, mixed_coefficients)))


class TestFractionListDifferential:
    """Every series operation against the same operation on the list of
    Fractions c_0..c_N, over mixed truncations, zero coefficients and
    unrelated tall denominators; every result must also be canonical."""

    @given(any_order_series, any_order_series, mixed_coefficients,
           st.integers(min_value=0, max_value=4))
    @example(ts("1/2", "1/3", N=1), ts("-1/2", "2/3", "1/6", N=2), QQ(6), 3)
    def test_ring_operations(self, x, y, c, k):
        a, b = fractions(x), fractions(y)
        assert_matches(x + y, [p + q for p, q in zip(a, b)])
        assert_matches(x - y, [p - q for p, q in zip(a, b)])
        assert_matches(x + c, [a[0] + c] + a[1:])
        assert_matches(x - c, [a[0] - c] + a[1:])
        assert_matches(c * x, [c * p for p in a])
        assert_matches(x * c, [c * p for p in a])
        assert_matches(x * y, product(a, b))
        assert_matches(x ** k, power(a, k))

    @given(any_order_series, st.integers(min_value=0, max_value=14),
           st.integers(min_value=1, max_value=5),
           st.sampled_from([2, 3, 5, 7]))
    @example(ts("1/2", "3/2", 3, N=2), 1, 2, 2)
    def test_index_operations(self, x, k, p, prime):
        a, n = fractions(x), x.truncation
        assert_matches(x.shift(k), ([Fraction(0)] * k + a)[: n + 1])
        assert_matches(x.retruncate(min(k, n)), a[: min(k, n) + 1])
        assert_matches(theta_derivative(x), theta(a))
        assert_matches(_theta_inverse(x - x.constant_term),
                       theta_inverse([Fraction(0)] + a[1:]))
        image = [Fraction(0)] * (n + 1)
        image[::p] = a[: n // p + 1]
        assert_matches(substitute_power(x, p), image)
        assert valuation_entries(x, prime) == tuple(
            rational_valuation(c, prime) for c in a)

    @given(any_order_series, any_order_denominators, any_order_exponents)
    @example(ts("2/3", "1/9", N=1), ts(-6, "1/4", N=3), ts(0, "1/2", N=2))
    def test_newton_kernels(self, num, den, u):
        b = fractions(den)
        assert_matches(divide(num, den), product(fractions(num), inverse(b)))
        e = exp_series(u)
        assert_matches(e, exponential(fractions(u)))
        assert_matches(log_series(e), fractions(u))
        unit = den * (1 / den.constant_term)
        assert_matches(log_series(unit), theta_inverse(
            product(theta(fractions(unit)), inverse(fractions(unit)))))

    @given(series(8, mixed_coefficients),
           zero_constant_series(6, mixed_coefficients), revertible_series)
    @example(ts(1, 2, N=1), ts(0, "1/2", "1/3", N=2), ts(0, "-2/3", 5, N=3))
    def test_compose_and_reversion(self, f, g, s):
        assert_matches(compose(f, g), composition(fractions(f), fractions(g)))
        assert_matches(reversion(s), compositional_inverse(fractions(s)))


class TestExpLog:
    def test_exp_taylor(self):
        assert exp_series(ts(0, 1, N=3)) == ts(1, 1, "1/2", "1/6")

    def test_exp_zero(self):
        assert exp_series(TruncatedSeries([], 4)) == TruncatedSeries.one(4)

    def test_exp_rejects_constant(self):
        with pytest.raises(SeriesDomainError,
                           match="^exp needs constant term 0$"):
            exp_series(ts(1, 1, N=2))

    def test_log_one(self):
        assert not any(log_series(TruncatedSeries.one(4)).coeffs)

    def test_log_mercator(self):
        assert log_series(ts(1, -1, N=3)) == ts(0, -1, "-1/2", "-1/3")

    def test_log_rejects_other_constants(self):
        with pytest.raises(SeriesDomainError,
                           match="^log needs constant term 1$"):
            log_series(ts(2, 1, N=2))

    @given(zero_constant_series(20))
    def test_log_exp_roundtrip(self, u):
        assert log_series(exp_series(u)) == u

    @given(unit_series(20))
    def test_exp_log_roundtrip(self, s):
        assert exp_series(log_series(s)) == s


class TestDerivativesAndSubstitutions:
    def test_theta_monomial(self):
        assert theta_derivative(ts(0, 0, 0, 1)) == ts(0, 0, 0, 3)

    def test_theta_constant(self):
        assert not any(theta_derivative(ts(5, N=3)).coeffs)

    def test_theta_mixed(self):
        assert theta_derivative(ts(0, 1, 2)) == ts(0, 1, 4)

    def test_substitute_square(self):
        assert substitute_power(ts(0, 1, 1, N=4), 2) == ts(0, 0, 1, 0, 1)

    def test_substitute_identity(self):
        s = ts(1, 2, 3)
        assert substitute_power(s, 1) == s

    @given(series(12), st.integers(min_value=1, max_value=4),
           st.sampled_from([2, 3, 5, 7]))
    def test_substitute_valuation_bookkeeping(self, s, power, p):
        # index i of the image holds the old coefficient i/power (or 0)
        image = valuation_entries(substitute_power(s, power), p)
        base = valuation_entries(s, p)
        for i, v in enumerate(image):
            if i % power == 0:
                assert v == base[i // power]
            else:
                assert v is None

    def test_scale_by_one(self):
        s = ts(1, 2, 3)
        assert scale_argument(s, 1) == s

    def test_scale_even_power_ignores_sign(self):
        assert scale_argument(ts(0, 0, 1), -1) == ts(0, 0, 1)

    def test_scale_doubles(self):
        assert scale_argument(ts(0, 1, 1), 2) == ts(0, 2, 4)


class TestReversion:
    def test_identity(self):
        assert reversion(ts(0, 1, N=4)) == ts(0, 1, N=4)

    def test_known_inverse(self):
        # verified by direct composition below
        g = reversion(ts(0, 1, 1, N=4))
        assert g == ts(0, 1, -1, 2, -5)
        assert compose(ts(0, 1, 1, N=4), g) == TruncatedSeries.identity(4)

    @given(unit_linear_series(30))
    def test_composition_roundtrip(self, s):
        g = reversion(s)
        assert compose(s, g) == TruncatedSeries.identity(30)

    @given(st.integers(min_value=1, max_value=24),
           small_rationals.filter(lambda c: c not in (0, 1)),
           st.lists(small_rationals, max_size=23))
    @example(12, QQ(-3, 1024), [QQ(5), QQ(7, 9), QQ(-2)])
    def test_round_trip_non_unit_linear(self, n, linear, rest):
        s = TruncatedSeries([QQ(0), linear, *rest], n)
        g = reversion(s)
        assert g.coeffs[1] == 1 / linear
        assert compose(s, g) == TruncatedSeries.identity(n)
        assert compose(g, s) == TruncatedSeries.identity(n)

    @given(unit_linear_series(20),
           small_rationals.filter(lambda c: c != 0))
    @example(ts(0, 1, 3, -2, N=5), QQ(-7, 4))
    def test_reversion_of_scaled_series_is_scaled_reversion(self, s, kappa):
        # if g reverts s then s(g(kappa q)) = kappa q: g(kappa q), the
        # scaled reversion of the oracle, reverts s / kappa
        assert reversion(s * (1 / kappa)) == \
            scale_argument(reversion(s), kappa)

    def test_rejects_nonzero_constant(self):
        with pytest.raises(SeriesDomainError, match=r"^need s\(0\) = 0 and "
                           "nonzero linear coefficient$"):
            reversion(ts(1, 1, N=3))

    def test_rejects_zero_linear(self):
        with pytest.raises(SeriesDomainError, match=r"^need s\(0\) = 0 and "
                           "nonzero linear coefficient$"):
            reversion(ts(0, 0, 1, N=3))


class TestValuationProfile:
    def test_negative_entry(self):
        prof = valuation_profile(ts(1, "1/5"), 5)
        assert valuation_entries(ts(1, "1/5"), 5) == (0, -1)
        assert prof.min_valuation == -1

    def test_integral(self):
        prof = valuation_profile(ts(1, 1), 7)
        assert valuation_entries(ts(1, 1), 7) == (0, 0)
        assert prof.holds() and prof.first_failure is None

    def test_first_failure_is_first_non_integral(self):
        # p-units and zeros pass; the first negative valuation fails
        s = ts(0, 5, 1, "1/5", "1/25")
        prof = valuation_profile(s, 5)
        assert valuation_entries(s, 5) == (None, 1, 0, -1, -2)
        assert prof.first_failure == 3
        assert not prof.holds()
        assert (prof.order, prof.valuation, prof.min_valuation) == (4, -1, -2)

    def test_laurent_indices_are_exponents(self):
        s = LaurentSeries(ts("1/7", 1, "1/7"), -1)
        prof = valuation_profile(s, 7)
        assert prof.order == 1
        assert prof.first_failure == -1
        assert prof.min_valuation == -1

    def test_all_zero_holds(self):
        prof = valuation_profile(TruncatedSeries([], 3), 5)
        assert prof.min_valuation is None
        assert prof.holds()

    def test_geometric_in_p(self):
        p = 7
        s = divide(TruncatedSeries.one(10), ts(1, -p, N=10))
        assert valuation_entries(s, p) == tuple(range(11))
        assert valuation_profile(s, p).min_valuation == 0

    def test_zero_coefficient_is_none(self):
        assert valuation_entries(ts(0, 3), 3) == (None, 1)

    @given(series(10), series(10), st.sampled_from([2, 3, 5, 7]))
    def test_ultrametric_bound_on_products(self, s1, s2, p):
        prod = valuation_entries(s1 * s2, p)
        a = valuation_entries(s1, p)
        b = valuation_entries(s2, p)
        for n, v in enumerate(prod):
            splits = [a[i] + b[n - i] for i in range(n + 1)
                      if a[i] is not None and b[n - i] is not None]
            if v is not None:
                assert splits and v >= min(splits)

    @given(unit_series(12, small_rationals), st.sampled_from([3, 5, 7]))
    def test_unit_integrality_matches_inverse(self, s, p):
        # constant term 1: s is p-integral iff 1/s is (either direction
        # follows from the division recursion; this is what justifies
        # the leading-coefficient-1 normalization in the lab)
        inv = divide(TruncatedSeries.one(12), s)
        assert valuation_profile(s, p).holds() == \
            valuation_profile(inv, p).holds()


class TestLaurent:
    def test_reciprocal_of_pole(self):
        j = LaurentSeries(ts(1, 2), -1)
        inv = reciprocal(j)
        assert inv.lowest_exponent == 1
        assert (j * inv).coefficient(0) == 1

    def test_canonicalization_strips_leading_zeros(self):
        s = LaurentSeries(ts(0, 3, 1), -2)
        assert s.lowest_exponent == -1
        assert s.coefficient(-2) == 0
        assert s.truncation == 0

    @pytest.mark.parametrize("lowest, coeffs, top", [
        (-1, [], 3), (-1, [QQ(0), QQ(0)], 3), (2, [QQ(0), QQ(5)], 2),
        (2, [QQ(1)], 1), (0, [QQ(1), QQ(2)], -3)])
    def test_no_zero_series(self, lowest, coeffs, top):
        # q^k times a unit: a window with no nonzero coefficient has no
        # unit, and one that ends below its lowest exponent is no series
        with pytest.raises(ValueError):
            laurent_window(lowest, coeffs, top)


class NaiveLaurent:
    """Oracle for LaurentSeries: an exponent -> coefficient dict of the
    nonzero terms through a truncation, at least one of them, with
    schoolbook arithmetic."""

    def __init__(self, terms, top):
        self.terms = {e: QQ(c) for e, c in terms.items() if c and e <= top}
        self.top = top

    @classmethod
    def of(cls, s):
        return cls({s.lowest_exponent + i: c for i, c in enumerate(s.coeffs)},
                   s.truncation)

    @property
    def lo(self):
        return min(self.terms)

    def shape(self):
        """(lowest_exponent, coeffs, truncation) of the canonical form."""
        lo = self.lo
        return (lo, tuple(self.terms.get(e, 0) for e in range(lo, self.top + 1)),
                self.top)

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return NaiveLaurent(out, min(self.top + other.lo, other.top + self.lo))

    def inverse(self):
        """q^-l / u for self = q^l u, u known through q^(top - l)."""
        l, n = self.lo, self.top - self.lo
        u = [self.terms.get(l + i, 0) for i in range(n + 1)]
        v = []
        for k in range(n + 1):
            acc = QQ(int(k == 0)) - sum((u[i] * v[k - i] for i in range(1, k + 1)),
                                        QQ(0))
            v.append(acc / u[0])
        return NaiveLaurent({k - l: c for k, c in enumerate(v)}, n - l)

    def power(self, k):
        out = NaiveLaurent({0: 1}, self.top - self.lo)
        for _ in range(k):
            out = out * self
        return out

    def agrees_with(self, other):
        top = min(self.top, other.top)
        for e in range(min(self.lo, other.lo), top + 1):
            if self.terms.get(e, 0) != other.terms.get(e, 0):
                return e
        return None


def _shape(s):
    return s.lowest_exponent, s.coeffs, s.truncation


# lowest exponent -2..2 (poles of order 1 and 2), up to two explicit
# leading zeros, listed terms with at least one nonzero, up to two
# zero-padded slots above them
laurent_series = st.builds(
    lambda lo, zeros, cs, pad: LaurentSeries(
        TruncatedSeries([QQ(0)] * zeros + cs, zeros + len(cs) - 1 + pad), lo),
    st.integers(min_value=-2, max_value=2),
    st.integers(min_value=0, max_value=2),
    st.lists(small_rationals, min_size=1, max_size=5).filter(any),
    st.integers(min_value=0, max_value=2))


@st.composite
def laurent_pairs(draw):
    """Two Laurent series from one run of terms, a nonzero one and then
    mixed ones: each starts the run at its own lowest exponent (often
    the same) and stops at its own truncation, padding with zeros past
    the run, and the second may change one term below both truncations
    (the first to a nonzero one)."""
    nonzero = small_rationals.filter(bool)
    terms = [draw(nonzero), *draw(st.lists(mixed_coefficients, max_size=8))]
    tops = [draw(st.integers(0, len(terms) + 1)) for _ in range(2)]
    other = list(terms)
    if draw(st.booleans()):
        k = draw(st.integers(0, min(len(terms) - 1, *tops)))
        other[k] = draw(mixed_coefficients if k else nonzero)
    lows = st.integers(min_value=-2, max_value=2)
    low = draw(lows)
    return [LaurentSeries(TruncatedSeries(cs, top),
                          draw(st.one_of(st.just(low), lows)))
            for cs, top in zip((terms, other), tops)]


def profile_from_entries(s, p):
    """The integrality check of s read off valuation_entries: the first
    negative entry, its exponent, and the least finite entry."""
    entries = valuation_entries(s, p)
    start = s.lowest_exponent if isinstance(s, LaurentSeries) else 0
    finite = [(start + i, v) for i, v in enumerate(entries) if v is not None]
    first, valuation = next(((e, v) for e, v in finite if v < 0),
                            (None, None))
    return PAdicCheck(p, start + len(entries) - 1, first, valuation,
                      min((v for _, v in finite), default=None))


class TestValuationProfileDifferential:
    """valuation_profile's one pass against the per-coefficient
    valuations of the oracle: prime, order, first failure, its
    valuation and the least valuation."""

    @given(st.one_of(
        any_order_series, laurent_series,
        st.builds(LaurentSeries, any_order_series.filter(lambda s: any(s.nums)),
                  st.integers(min_value=-3, max_value=3))),
        st.sampled_from([2, 3, 5, 7]))
    @example(TruncatedSeries([], 3), 5)
    @example(ts(0, 5, 1, "1/5", "1/25"), 5)
    @example(LaurentSeries(ts("1/7", 1, "1/7"), -1), 7)
    @example(LaurentSeries(ts(0, 49, "1/49", 3, N=5), 2), 7)
    def test_matches_entries_oracle(self, s, p):
        assert valuation_profile(s, p) == profile_from_entries(s, p)


class TestLaurentDifferential:
    """Every LaurentSeries operation against NaiveLaurent: lowest
    exponent, coefficients and truncation."""

    pole2 = laurent_window(-2, [QQ(0), QQ(0), QQ(2), QQ(-1)], 2)

    @given(laurent_series, laurent_series)
    @example(pole2, laurent_window(-1, [QQ(3), QQ(1, 2)], 4))
    def test_ring_operations(self, x, y):
        nx, ny = NaiveLaurent.of(x), NaiveLaurent.of(y)
        assert _shape(x) == nx.shape()
        assert _shape(x * y) == (nx * ny).shape()
        assert x.agrees_with(y) == nx.agrees_with(ny)
        assert x.agrees_with(x) is None

    @given(laurent_pairs())
    @example([laurent_window(0, [QQ(1), QQ(1, 2)], 1),
              laurent_window(0, [QQ(1)], 0)])
    @example([laurent_window(-1, [QQ(2), QQ(0), QQ(1, 3)], 3),
              laurent_window(-1, [QQ(2), QQ(0), QQ(2, 3)], 1)])
    @example([pole2, laurent_window(-1, [QQ(2), QQ(-1)], 4)])
    def test_agreement_matches_rationals(self, pair):
        # the first difference, decided on integers, is the first
        # exponent where the reduced rationals differ, either way round
        x, y = pair
        assert x.agrees_with(y) == agreement_by_fractions(x, y)
        assert y.agrees_with(x) == agreement_by_fractions(y, x)

    @given(laurent_series, laurent_series)
    @example(pole2, pole2)
    @example(laurent_window(2, [QQ(1), QQ(-2), QQ(0), QQ(5, 3)], 6),
             laurent_window(-1, [QQ(3), QQ(1, 2)], 1))
    @example(laurent_window(-2, [QQ(1, 2), QQ(4)], 0),
             laurent_window(1, [QQ(-2), QQ(0), QQ(7)], 6))
    def test_division(self, x, y):
        ny = NaiveLaurent.of(y)
        assert _shape(x / y) == (NaiveLaurent.of(x) * ny.inverse()).shape()
        assert _shape(reciprocal(y)) == ny.inverse().shape()

    @given(laurent_series, st.integers(min_value=0, max_value=4))
    @example(pole2, 2)
    def test_power(self, x, k):
        nx = NaiveLaurent.of(x)
        assert _shape(x ** k) == nx.power(k).shape()
        if k:
            product = x
            for _ in range(k - 1):
                product = product * x
            assert _shape(x ** k) == _shape(product)


class TestSerialization:
    def test_rational_round_trip(self):
        assert rational_to_str(QQ(-5, 12)) == "-5/12"
        assert rational_to_str(QQ(7)) == "7/1"
        for x in (QQ(-5, 12), QQ(7), QQ(0)):
            assert Fraction(rational_to_str(x)) == x

    def test_series_json(self):
        s = ts(1, "-1/2", N=3)
        data = s.to_json()
        assert data == {"coeffs": ["1/1", "-1/2", "0/1", "0/1"], "truncation": 3}

    def test_profile_json_uses_null_for_zero(self):
        # a zero coefficient has no valuation: its entry is None
        assert valuation_entries(ts(0, 5), 5) == (None, 1)


class TestImmutability:
    def test_truncated_frozen(self):
        s = ts(1, 2)
        with pytest.raises(AttributeError):
            s.coeffs = ()

    def test_laurent_frozen(self):
        s = LaurentSeries(ts(1, N=1))
        with pytest.raises(AttributeError):
            s.truncation = 5


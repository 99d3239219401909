"""Gauss hypergeometric route in two stages: the Frobenius basis
{F, F log z + G}, the Schwarz map D = G/F and the mirror map
q(a,b|z) = z exp(D); then the Hauptmodul J = 1/z(kappa*q) from the
reversion z(q), with kappa = 2 m1^2 m2^2 (2 m1^2 when m2 is infinite),
`TriangleType.kappa`.
"""

from __future__ import annotations

from math import gcd, lcm

from .halphen import HGParams
from .rationals import numden
from .series import (
    LaurentSeries,
    TruncatedSeries,
    divide,
    exp_series,
    reversion,
    scale_argument,
    series_over,
)


def _over_common_denominator(params: HGParams):
    """(A, B, M) with a = A/M and b = B/M for M = lcm of the
    denominators of a and b."""
    (na, da), (nb, db) = numden(params.a), numden(params.b)
    m = lcm(da, db)
    return na * (m // da), nb * (m // db), m


def series_f(params: HGParams, n_order: int) -> TruncatedSeries:
    """F(a,b|z) = sum A_n z^n, A_n = (a)_n (b)_n / n!^2, on integers:
    with a = A/M and b = B/M, A_(n+1) = A_n (A + nM)(B + nM) / (M(n+1))^2.
    A_n = y_n / L_n for L_n the lcm of the denominators of A_0..A_n:
    with x = y_n (A + nM)(B + nM) and g = gcd(x, (M(n+1))^2),
    y_(n+1) = x / g and L_(n+1) = L_n (M(n+1))^2 / g.  F is
    sum y_n (L_N / L_n) z^n over L_N for N = n_order, in lowest terms."""
    A, B, M = _over_common_denominator(params)
    ys, factors = [1], [1]
    for i in range(n_order):
        x, step = ys[-1] * (A + i * M) * (B + i * M), (M * (i + 1)) ** 2
        g = gcd(x, step)
        ys.append(x // g)
        factors.append(step // g)
    nums, scale = [], 1
    for y, factor in zip(ys[::-1], factors[::-1]):
        nums.append(y * scale)
        scale *= factor
    return series_over(nums[::-1], scale, n_order)


def series_g(params: HGParams, f: TruncatedSeries) -> TruncatedSeries:
    """G(a,b|z) to the order of f = F(a,b|z) = sum A_n z^n: B_n = A_n H_n
    for H_n = sum_{i<n} (M/(A+iM) + M/(B+iM) - 2/(1+i)), with the sums
    taken on integers over the lcm L of every A+iM, B+iM and i+1."""
    A, B, M = _over_common_denominator(params)
    n_order = f.truncation
    terms = range(n_order)
    common = lcm(*(A + i * M for i in terms), *(B + i * M for i in terms),
                 *(i + 1 for i in terms))
    partial, sums = 0, [0]
    for i in terms:
        partial += (M * common // (A + i * M) + M * common // (B + i * M)
                    - 2 * common // (i + 1))
        sums.append(partial)
    return series_over([x * y for x, y in zip(f.nums, sums)],
                       f.den * common, n_order)


def frobenius_basis(params: HGParams, n_order: int
                    ) -> tuple[TruncatedSeries, TruncatedSeries]:
    """(F, G) for (a, b) = params, to order n_order."""
    f = series_f(params, n_order)
    return f, series_g(params, f)


def schwarz_map(params: HGParams, n_order: int) -> TruncatedSeries:
    """D = G/F to order n_order; the z-coefficient is sigma - 2*tau with
    sigma = a + b, tau = a*b."""
    f, g = frobenius_basis(params, n_order)
    return divide(g, f)


def mirror_map(params: HGParams, n_order: int) -> TruncatedSeries:
    """q(a,b|z) = z exp(D), with coefficients at z^1..z^(n_order)."""
    return exp_series(schwarz_map(params, n_order)).shift(1)


def hauptmodul_from_mirror(q_of_z: TruncatedSeries, kappa) -> LaurentSeries:
    """J = 1/z(kappa*q) for z(q) the compositional inverse of the mirror
    map q_of_z: a Laurent series with a first-order pole, the quotient
    of the power series 1 and z at the truncation of z, which keeps J
    to q^(N-2) for z to q^N.  Agreement with the Halphen J is checked
    separately in the verification lab."""
    z = scale_argument(reversion(q_of_z), kappa)
    return LaurentSeries(TruncatedSeries.one(z.truncation)) / LaurentSeries(z)

"""Gauss hypergeometric route in two stages: the Frobenius basis
{F, F log z + G}, the Schwarz map D = G/F and the mirror map
q(a,b|z) = z exp(D); then the Hauptmodul J = 1/z(kappa*q) from the
reversion z(q), with kappa = 2 m1^2 m2^2 (2 m1^2 when m2 is infinite),
`TriangleType.kappa`.
"""

from __future__ import annotations

from .halphen import HGParams
from .rationals import ONE, QQ, ZERO
from .series import (
    LaurentSeries,
    TruncatedSeries,
    divide,
    exp_series,
    reversion,
    scale_argument,
    series_over,
)


def series_f(params: HGParams, n_order: int) -> TruncatedSeries:
    """F(a,b|z) = sum (a)_n (b)_n / n!^2 z^n via the one-term recurrence."""
    a, b = params.a, params.b
    coeffs = [ONE]
    for n in range(n_order):
        coeffs.append(coeffs[-1] * (a + n) * (b + n) / ((n + 1) * (n + 1)))
    return TruncatedSeries(coeffs, n_order)


def series_g(params: HGParams, f: TruncatedSeries) -> TruncatedSeries:
    """G(a,b|z) to the order of f = F(a,b|z) = sum A_n z^n: B_n = A_n H_n
    for H_n = sum_{i<n} (1/(a+i) + 1/(b+i) - 2/(1+i)), on numerators."""
    a, b = params.a, params.b
    partial, sums = ZERO, [ZERO]
    for i in range(f.truncation):
        partial += ONE / (a + i) + ONE / (b + i) - QQ(2, 1 + i)
        sums.append(partial)
    h = TruncatedSeries(sums)
    return series_over([x * y for x, y in zip(f.nums, h.nums)],
                       f.den * h.den, f.truncation)


def schwarz_map(params: HGParams, n_order: int) -> TruncatedSeries:
    """D = G/F; the z-coefficient is sigma - 2*tau with sigma = a + b,
    tau = a*b."""
    f = series_f(params, n_order)
    return divide(series_g(params, f), f)


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

"""Gauss hypergeometric route in two stages: the Frobenius basis
{F, F log z + G}, the Schwarz map D = G/F and the mirror map
q(a,b|z) = z exp(D); then the Hauptmodul J = 1/z(kappa*q), where
z(kappa*q) is the compositional inverse of q(a,b|z)/kappa, with
kappa = 2 m1^2 m2^2 (2 m1^2 when m2 is infinite), `TriangleType.kappa`.
"""

from __future__ import annotations

from math import gcd

from .halphen import HGParams
from .series import (
    LaurentSeries,
    TruncatedSeries,
    divide,
    exp_series,
    reversion,
    series_over,
)


def frobenius_basis(params: HGParams, n_order: int
                    ) -> tuple[TruncatedSeries, TruncatedSeries]:
    """(F, G) for (a, b) = params to order n_order, on integers: F(a,b|z)
    = sum A_n z^n, A_n = (a)_n (b)_n / n!^2, and G(a,b|z) = sum A_n H_n z^n,
    H_n = sum_{i<n} (1/(a+i) + 1/(b+i) - 2/(1+i))."""
    fs, gs, steps = _frobenius_numerators(params, n_order)
    return (_over_last_denominator(fs, steps, n_order),
            _over_last_denominator(gs, steps, n_order))


def series_f(params: HGParams, n_order: int) -> TruncatedSeries:
    """F(a,b|z) to order n_order: the first half of frobenius_basis."""
    fs, _, steps = _frobenius_numerators(params, n_order)
    return _over_last_denominator(fs, steps, n_order)


def series_g(params: HGParams, n_order: int) -> TruncatedSeries:
    """G(a,b|z) to order n_order: the second half of frobenius_basis."""
    _, gs, steps = _frobenius_numerators(params, n_order)
    return _over_last_denominator(gs, steps, n_order)


def _frobenius_numerators(params: HGParams, n_order: int):
    """The numerators of A_n and B_n = A_n H_n (frobenius_basis) over one
    denominator L_n, n = 0..n_order, and the steps L_(n+1) / L_n.  With
    a = A/M, b = B/M, x = A + nM, y = B + nM and c = M(n+1), A_(n+1) =
    A_n x y c / c^3 and B_(n+1) = (B_n x y c + A_n M (x c + y c - 2 x y))
    / c^3; each step divides both numerators and c^3 by their gcd."""
    A, B, M = params.over_common_denominator()
    fs, gs, steps = [1], [0], [1]
    for i in range(n_order):
        x, y, c = A + i * M, B + i * M, M * (i + 1)
        xyc = x * y * c
        f_next = fs[-1] * xyc
        g_next = gs[-1] * xyc + fs[-1] * M * ((x + y) * c - 2 * x * y)
        step = c ** 3
        d = gcd(step, f_next, g_next)  # the small operand first
        fs.append(f_next // d)
        gs.append(g_next // d)
        steps.append(step // d)
    return fs, gs, steps


def _over_last_denominator(nums, steps, n_order: int) -> TruncatedSeries:
    """sum nums[n] / L_n z^n for L_0 = 1 and L_(n+1) = L_n steps[n+1],
    written over L_N for N = n_order and brought to lowest terms."""
    scaled, scale = [], 1
    for num, step in zip(nums[::-1], steps[::-1]):
        scaled.append(num * scale)
        scale *= step
    return series_over(scaled[::-1], scale, n_order)


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
    to q^(N-2) for z to q^N.  If g reverts s, then s(g(kappa*q)) =
    kappa*q, so z(kappa*q) reverts q_of_z / kappa, for the int kappa
    of TriangleType.  Agreement with the Halphen J is checked in lab."""
    z = reversion(series_over(q_of_z.nums, q_of_z.den * kappa,
                              q_of_z.truncation))
    return LaurentSeries(TruncatedSeries.one(z.truncation)) / LaurentSeries(z)

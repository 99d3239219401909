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


def series_f(params: HGParams, n_order: int) -> TruncatedSeries:
    """F(a,b|z) = sum A_n z^n, A_n = (a)_n (b)_n / n!^2, on integers:
    with a = A/M and b = B/M, A_(n+1) = A_n (A + nM)(B + nM) / (M(n+1))^2.
    A_n = y_n / L_n for L_n the lcm of the denominators of A_0..A_n:
    with x = y_n (A + nM)(B + nM) and g = gcd(x, (M(n+1))^2),
    y_(n+1) = x / g and L_(n+1) = L_n (M(n+1))^2 / g."""
    A, B, M = params.over_common_denominator()
    ys, steps = [1], [1]
    for i in range(n_order):
        x, step = ys[-1] * (A + i * M) * (B + i * M), (M * (i + 1)) ** 2
        g = gcd(x, step)
        ys.append(x // g)
        steps.append(step // g)
    return _over_last_denominator(ys, steps, n_order)


def series_g(params: HGParams, n_order: int) -> TruncatedSeries:
    """G(a,b|z) = sum B_n z^n, B_n = A_n H_n for the F coefficients A_n
    and H_n = sum_{i<n} (1/(a+i) + 1/(b+i) - 2/(1+i)), on integers:
    with x = A + nM, y = B + nM and c = M(n+1),
    B_(n+1) = (B_n x y c + A_n M (x c + y c - 2 x y)) / c^3.
    A_n and B_n are carried as numerators over one denominator L_n,
    and each step divides c^3 and both new numerators by their gcd."""
    A, B, M = params.over_common_denominator()
    f_num, ws, steps = 1, [0], [1]
    for i in range(n_order):
        x, y, c = A + i * M, B + i * M, M * (i + 1)
        xyc = x * y * c
        f_next = f_num * xyc
        w_next = ws[-1] * xyc + f_num * M * ((x + y) * c - 2 * x * y)
        step = c ** 3
        g = gcd(step, f_next, w_next)  # the small operand first
        f_num = f_next // g
        ws.append(w_next // g)
        steps.append(step // g)
    return _over_last_denominator(ws, steps, n_order)


def _over_last_denominator(nums, steps, n_order: int) -> TruncatedSeries:
    """sum nums[n] / L_n z^n for L_0 = 1 and L_(n+1) = L_n steps[n+1],
    written over L_N for N = n_order and brought to lowest terms."""
    scaled, scale = [], 1
    for num, step in zip(nums[::-1], steps[::-1]):
        scaled.append(num * scale)
        scale *= step
    return series_over(scaled[::-1], scale, n_order)


def frobenius_basis(params: HGParams, n_order: int
                    ) -> tuple[TruncatedSeries, TruncatedSeries]:
    """(F, G) for (a, b) = params, to order n_order."""
    return series_f(params, n_order), series_g(params, n_order)


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

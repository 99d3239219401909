"""Gauss hypergeometric route: Frobenius basis {F, F log z + G}, the
Schwarz map D = G/F, the mirror map q(a,b|z) = z exp(D), its reversion
z(q), and the Hauptmodul J = 1/z(kappa*q) with kappa = 2 m1^2 m2^2
(2 m1^2 when m2 is infinite), `TriangleType.kappa`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .halphen import HGParams
from .rationals import ONE, QQ, ZERO
from .series import (
    LaurentSeries,
    TruncatedSeries,
    divide,
    exp_series,
    reversion,
    scale_argument,
    theta_derivative,
)


@dataclass(frozen=True)
class MirrorData:
    """Everything the mirror-map pipeline produces for one type."""

    q_of_z: TruncatedSeries
    z_of_q: TruncatedSeries
    J: LaurentSeries


def series_f(params: HGParams, n_order: int) -> TruncatedSeries:
    """F(a,b|z) = sum (a)_n (b)_n / n!^2 z^n via the one-term recurrence."""
    a, b = params.a, params.b
    coeffs = [ONE]
    for n in range(n_order):
        coeffs.append(coeffs[-1] * (a + n) * (b + n) / ((n + 1) * (n + 1)))
    return TruncatedSeries(coeffs, n_order)


def series_g(params: HGParams, n_order: int) -> TruncatedSeries:
    """G(a,b|z): B_n = A_n * sum_{i<n} (1/(a+i) + 1/(b+i) - 2/(1+i))."""
    a, b = params.a, params.b
    f = series_f(params, n_order)
    partial = ZERO
    coeffs = [ZERO]
    for n in range(1, n_order + 1):
        i = n - 1
        partial += ONE / (a + i) + ONE / (b + i) - QQ(2, 1 + i)
        coeffs.append(f.coeffs[n] * partial)
    return TruncatedSeries(coeffs, n_order)


def schwarz_map(params: HGParams, n_order: int) -> TruncatedSeries:
    """D = G/F; the z-coefficient is sigma - 2*tau with sigma = a + b,
    tau = a*b."""
    return divide(series_g(params, n_order), series_f(params, n_order))


def mirror_map(params: HGParams, n_order: int) -> MirrorData:
    """Full mirror-map pipeline for one type.

    q(a,b|z) = z exp(D) has coefficients at z^1..z^(n_order); z(q) is
    its compositional inverse; J = 1/z(kappa*q) as a Laurent series
    with a first-order pole.  Agreement with the Halphen J is checked
    separately in the verification lab.
    """
    q_of_z = exp_series(schwarz_map(params, n_order)).shift(1)
    z_of_q = reversion(q_of_z)
    j = 1 / LaurentSeries.from_truncated(
        scale_argument(z_of_q, params.triangle.kappa))
    return MirrorData(q_of_z=q_of_z, z_of_q=z_of_q, J=j)


def binomial_series(alpha, n_order: int) -> TruncatedSeries:
    """(1 - z)^alpha with exact rational exponent:
    c_{n+1} = c_n * (alpha - n) * (-1) / (n + 1)."""
    alpha = QQ(alpha)
    coeffs = [ONE]
    for n in range(n_order):
        coeffs.append(coeffs[-1] * (alpha - n) * (-1) / (n + 1))
    return TruncatedSeries(coeffs, n_order)


def complement(params: HGParams) -> HGParams:
    """Parameters (1-b, 1-a) for the Euler-identity partner (ordered so
    the constructor's 0 < b <= a < 1 check passes)."""
    return HGParams(1 - params.b, 1 - params.a, params.triangle)


def euler_identity_check(params: HGParams, n_order: int) -> Tuple[bool, Optional[int]]:
    """Check F(a,b|z) = (1-z)^(1-a-b) F(1-a,1-b|z) to order n_order,
    and the induced equality of the two mirror maps q(a,b|z) and
    q(1-a,1-b|z).  Returns (holds, first failing index or None)."""
    comp = complement(params)
    lhs = series_f(params, n_order)
    rhs = binomial_series(1 - params.a - params.b, n_order) * series_f(comp, n_order)
    idx = lhs.agrees_with(rhs)
    if idx is not None:
        return False, idx
    q1 = exp_series(schwarz_map(params, n_order)).shift(1)
    q2 = exp_series(schwarz_map(comp, n_order)).shift(1)
    idx = q1.agrees_with(q2)
    if idx is not None:
        return False, idx
    return True, None


def hypergeometric_operator_residual(params: HGParams,
                                     s: TruncatedSeries) -> TruncatedSeries:
    """L(s) with L = theta^2 - z (theta + a)(theta + b), exact to the
    order of s (the z-multiplication shifts indices up by one)."""
    a, b = params.a, params.b
    th = theta_derivative(s)
    th2 = theta_derivative(th)
    inner = th2 + (a + b) * th + (a * b) * s  # (theta+a)(theta+b) s
    return th2 - inner.shift(1)

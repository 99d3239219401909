"""Test-only oracles: identities the package does not run itself but
the suite checks its series against (the Euler reflection identity,
the hypergeometric operator, the Halphen equations)."""

from typing import Optional, Tuple

from triforms.halphen import HalphenSolution, HGParams
from triforms.hypergeom import mirror_map, series_f
from triforms.rationals import ONE, QQ
from triforms.series import TruncatedSeries, theta_derivative


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
    idx = mirror_map(params, n_order).agrees_with(mirror_map(comp, n_order))
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


def halphen_residuals(sol: HalphenSolution) -> list:
    """The three equation residuals, with the solution's truncation N;
    for an exact solution every coefficient through q^N is zero."""
    params = HGParams.for_type(sol.triangle)
    a, b, c = params.a, params.b, 1 - params.a
    t1, t2, t3 = sol.t1, sol.t2, sol.t3
    return [
        theta_derivative(t1) - ((a - 1) * (t1 * t2 + t1 * t3 - t2 * t3)
                                + (b + c - 1) * t1 * t1),
        theta_derivative(t2) - ((b - 1) * (t2 * t1 + t2 * t3 - t1 * t3)
                                + (a + c - 1) * t2 * t2),
        theta_derivative(t3) - ((c - 1) * (t3 * t1 + t3 * t2 - t1 * t2)
                                + (a + b - 1) * t3 * t3),
    ]

"""Test-only oracles: identities the package does not run itself but
the suite checks its series against (the Euler reflection identity,
the hypergeometric operator, the Halphen equations), the O(N^2)
coefficient loops that the Newton kernels of divide and exp_series
and the integer Halphen solve replaced, the reduced-rational loops
that the integer F and G replaced, the per-weight generator builder
that the power ladder replaced, the exact twisted Schwarz map that
the residue congruence checks replaced, the substitution z -> z^p
with the exact mod-p reading that the Dwork form on residues
replaced, the scaling q -> kappa*q that J = 1/z(kappa*q) took
after the reversion before it became the reversion of q(a,b|z)/kappa,
the trial division that the prime sieve replaced, the
exponent-by-exponent rational comparison that the agreement test on
integers replaced, and the per-coefficient valuations that the one
pass of valuation_profile replaced."""

from math import isqrt

from triforms.dwork import dwork_images, require_coprime
from triforms.errors import SeriesDomainError
from triforms.halphen import HalphenSolution, HGParams, TriangleType
from triforms.hypergeom import mirror_map, schwarz_map, series_f
from triforms.rationals import ONE, QQ, ZERO, int_valuation, numden
from triforms.series import (
    LaurentSeries,
    PAdicCheck,
    TruncatedSeries,
    series_over,
    theta_derivative,
)


def series_f_by_fractions(params: HGParams, n_order: int) -> TruncatedSeries:
    """F(a,b|z) = sum (a)_n (b)_n / n!^2 z^n via the one-term recurrence
    on reduced rationals."""
    a, b = params.a, params.b
    coeffs = [ONE]
    for n in range(n_order):
        coeffs.append(coeffs[-1] * (a + n) * (b + n) / ((n + 1) * (n + 1)))
    return TruncatedSeries(coeffs, n_order)


def series_g_by_fractions(params: HGParams,
                          f: TruncatedSeries) -> TruncatedSeries:
    """G(a,b|z) to the order of f = F(a,b|z) = sum A_n z^n: B_n = A_n H_n
    for H_n = sum_{i<n} (1/(a+i) + 1/(b+i) - 2/(1+i)), the sums on
    reduced rationals."""
    a, b = params.a, params.b
    partial, sums = ZERO, [ZERO]
    for i in range(f.truncation):
        partial += ONE / (a + i) + ONE / (b + i) - QQ(2, 1 + i)
        sums.append(partial)
    h = TruncatedSeries(sums)
    return series_over([x * y for x, y in zip(f.nums, h.nums)],
                       f.den * h.den, f.truncation)


def twisted_map(tri: TriangleType, p: int,
                base: TruncatedSeries) -> TruncatedSeries:
    """D(delta(a), delta(b) | z) at the order of base = D(a,b|z); base
    itself when the Dwork image of (a, b) is (a, b)."""
    require_coprime(tri, p)
    params = HGParams.for_type(tri)
    twisted = dwork_images(params, p)
    return (base if twisted == params
            else schwarz_map(twisted, base.truncation))


def substitute_power(s: TruncatedSeries, p: int) -> TruncatedSeries:
    """q -> q^p: coefficient at index p*n is c_n, all others 0."""
    if p < 1:
        raise ValueError("substitution exponent must be >= 1")
    n = s.truncation
    out = [0] * (n + 1)
    out[::p] = s.nums[: n // p + 1]
    return series_over(out, s.den, n)


def scale_argument(s: TruncatedSeries, kappa) -> TruncatedSeries:
    """q -> kappa*q: c_n -> kappa^n c_n, for kappa = u/v as
    c_n u^n v^(N-n) / v^N."""
    u, v = numden(kappa)
    n = s.truncation
    return series_over(
        [x * u ** i * v ** (n - i) for i, x in enumerate(s.nums)],
        s.den * v ** n, n)


def valuation_entries(s, p: int) -> tuple:
    """v_p of each coefficient of a TruncatedSeries or LaurentSeries, or
    None for a zero one, from its lowest exponent (0 for a power series)
    through its truncation."""
    if isinstance(s, LaurentSeries):
        s = s.body
    v_den = int_valuation(s.den, p)
    return tuple(None if x == 0 else int_valuation(x, p) - v_den
                 for x in s.nums)


def exact_congruence(x: TruncatedSeries, p: int) -> PAdicCheck:
    """x = 0 mod p through x.truncation, read from the exact series:
    the first index whose coefficient has p-adic valuation below 1,
    and that valuation."""
    for i, v in enumerate(valuation_entries(x, p)):
        if v is not None and v < 1:
            return PAdicCheck(p, x.truncation, i, v)
    return PAdicCheck(p, x.truncation, None, None)


def schwarz_congruence_profile(base: TruncatedSeries,
                               twisted: TruncatedSeries,
                               p: int) -> PAdicCheck:
    """D' - D mod p for base = D and twisted = D', both built over Q."""
    return exact_congruence(twisted - base, p)


def dwork_congruence_profile(base: TruncatedSeries,
                             twisted: TruncatedSeries,
                             p: int) -> PAdicCheck:
    """D'(z^p) - p D mod p for base = D and twisted = D', both built
    over Q."""
    return exact_congruence(substitute_power(twisted, p) - p * base, p)


def divide_by_recurrence(num: TruncatedSeries,
                         den: TruncatedSeries) -> TruncatedSeries:
    """Power series division; den must have nonzero constant term."""
    if den.constant_term == 0:
        raise SeriesDomainError("denominator has zero constant term")
    n = min(num.truncation, den.truncation)
    inv0 = ONE / den.constant_term
    a, b = num.coeffs, den.coeffs
    out = []
    for k in range(n + 1):
        acc = a[k]
        for i in range(1, k + 1):
            if b[i] and out[k - i]:
                acc -= b[i] * out[k - i]
        out.append(acc * inv0)
    return TruncatedSeries(out, n)


def exp_by_recurrence(u: TruncatedSeries) -> TruncatedSeries:
    """Power series exponential of u with u(0) = 0.

    Uses the derivative recurrence n e_n = sum_{k=1}^{n} k u_k e_{n-k};
    exact despite the n! denominators of the naive Taylor formula.
    """
    if u.constant_term != 0:
        raise SeriesDomainError("exp needs constant term 0")
    n = u.truncation
    c = u.coeffs
    out = [ONE]
    for m in range(1, n + 1):
        acc = ZERO
        for k in range(1, m + 1):
            if c[k] and out[m - k]:
                acc += k * c[k] * out[m - k]
        out.append(acc / m)
    return TruncatedSeries(out, n)


def solve_halphen_by_fractions(tri: TriangleType,
                               n_order: int) -> HalphenSolution:
    """Solve the Halphen system to order n_order >= 0 for the given type,
    with every coefficient operation on reduced rationals.

    The order-1 system, a t1_1 + (1-a) t3_1 = 0 (twice, since c = 1 - a)
    and t2_1 = (1-b)(t1_1 + t3_1), leaves one scale free; it is fixed by
    t3_1 - t1_1 = kappa, so that the Halphen J matches the
    hypergeometric route.
    """
    params = HGParams.for_type(tri)
    a, b, c = params.a, params.b, 1 - params.a
    kappa = tri.kappa
    # coefficients of q^0 and q^1
    t1 = [ZERO, (a - 1) * kappa]
    t2 = [QQ(-1), (1 - b) * (2 * a - 1) * kappa]
    t3 = [ZERO, a * kappa]

    def conv(x, y, n):
        """q^n coefficient of x*y over the orders 1..n-1."""
        return sum((x[k] * y[n - k] for k in range(1, n)), ZERO)

    for n in range(2, n_order + 1):
        # known right-hand sides from lower orders; the t2^2 term drops
        # out because a + c - 1 = 0
        p11, p33 = conv(t1, t1, n), conv(t3, t3, n)
        p12, p13, p23 = conv(t1, t2, n), conv(t1, t3, n), conv(t2, t3, n)
        k1 = (a - 1) * (p12 + p13 - p23) + (b + c - 1) * p11
        k2 = (b - 1) * (p12 + p23 - p13)
        k3 = (c - 1) * (p13 + p23 - p12) + (a + b - 1) * p33
        # the order-n unknowns pair with t2_0 = -1:
        #   (n+a-1) x1 - (a-1) x3 = k1,  -(c-1) x1 + (n+c-1) x3 = k3,
        #   n x2 + (b-1)(x1 + x3) = k2;  the x1/x3 block has det n(n-1)
        det = n * (n - 1)
        x1 = ((n + c - 1) * k1 + (a - 1) * k3) / det
        x3 = ((c - 1) * k1 + (n + a - 1) * k3) / det
        t1.append(x1)
        t2.append((k2 - (b - 1) * (x1 + x3)) / n)
        t3.append(x3)

    return HalphenSolution(t1=TruncatedSeries(t1, n_order),
                           t2=TruncatedSeries(t2, n_order),
                           t3=TruncatedSeries(t3, n_order))


def eisenstein_by_powering(kind: int, k: int,
                           sol: HalphenSolution) -> TruncatedSeries:
    """E^{(1)}_{2k} = (t1 - t2)(t3 - t2)^(k-1) or, for kind 2,
    E^{(2)}_{2k} = (t1 - t2)^(k-1)(t3 - t2), for one k >= 1, with the
    power raised by ** on its own."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if kind == 1:
        return (sol.t1 - sol.t2) * (sol.t3 - sol.t2) ** (k - 1)
    return (sol.t1 - sol.t2) ** (k - 1) * (sol.t3 - sol.t2)


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
    return HGParams(1 - params.b, 1 - params.a)


def euler_identity_check(params: HGParams, n_order: int) -> bool:
    """Whether F(a,b|z) = (1-z)^(1-a-b) F(1-a,1-b|z) to order n_order,
    and with it the induced equality of the two mirror maps q(a,b|z) and
    q(1-a,1-b|z)."""
    comp = complement(params)
    lhs = series_f(params, n_order)
    rhs = binomial_series(1 - params.a - params.b, n_order) * series_f(comp, n_order)
    return (lhs == rhs
            and mirror_map(params, n_order) == mirror_map(comp, n_order))


def hypergeometric_operator_residual(params: HGParams,
                                     s: TruncatedSeries) -> TruncatedSeries:
    """L(s) with L = theta^2 - z (theta + a)(theta + b), exact to the
    order of s (the z-multiplication shifts indices up by one)."""
    a, b = params.a, params.b
    th = theta_derivative(s)
    th2 = theta_derivative(th)
    inner = th2 + (a + b) * th + (a * b) * s  # (theta+a)(theta+b) s
    return th2 - inner.shift(1)


def halphen_residuals(tri: TriangleType, sol: HalphenSolution) -> list:
    """The three equation residuals of type tri's system, with the
    solution's truncation N; for an exact solution every coefficient
    through q^N is zero."""
    params = HGParams.for_type(tri)
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


def rational_valuation(x, p: int):
    """v_p of a rational from its reduced numerator and denominator, or
    None for x = 0."""
    num, den = numden(x)
    if num == 0:
        return None
    return int_valuation(num, p) - int_valuation(den, p)


def primes_by_trial_division(lo: int, hi: int) -> list:
    """The primes p with lo <= p <= hi, each n tested by trial division."""
    return [n for n in range(max(lo, 2), hi + 1)
            if all(n % d for d in range(2, isqrt(n) + 1))]


def agreement_by_fractions(x: LaurentSeries, y: LaurentSeries):
    """First exponent through the common truncation where x and y
    differ, or None, on reduced rationals one exponent at a time."""
    top = min(x.truncation, y.truncation)
    lo = min(x.lowest_exponent, y.lowest_exponent)
    return next((e for e in range(lo, top + 1)
                 if x.coefficient(e) != y.coefficient(e)), None)

"""Exact truncated power series and Laurent series over the rationals.

A TruncatedSeries c_0 + c_1 q + ... + c_N q^N is held as integer
numerators nums over one positive denominator den, c_i = nums[i] / den
(FLINT's fmpq_poly, with a truncation), always canonical:
gcd(den, *nums) = 1, so den is the lcm of the reduced denominators and
equal series have equal fields.  Every operation works on the integers,
divides out one content gcd and returns a fresh series; reduced
rationals are built only when .coeffs is read (JSON, repr, tests).
Binary operations truncate at the minimum of the operand truncations,
never silently extending.  There is no floating point anywhere.

The product packs each operand's numerators into one integer, a signed
slot per coefficient (Kronecker substitution), does one big-integer
multiply and unpacks the slots over the product of the denominators;
its cost grows with the bits of den.  divide, exp_series, log_series
and reversion are Newton iterations on it, each step a few products at
a doubled order (Brent and Kung, J. ACM 25, 1978); exp_series carries
1/exp(u) along, so no step divides.

A Laurent series, LaurentSeries(s, shift), is q^shift times a power
series s.  The package forms J and its generators from such series by
products, quotients and powers only.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd, lcm

from .errors import SeriesDomainError
from .rationals import (
    ONE, QQ, ZERO, int_valuation, numden, rational_to_str)


class TruncatedSeries:
    """c_0 + c_1 q + ... + c_N q^N with exact rational coefficients
    c_i = nums[i] / den, in canonical form (see the module docstring)."""

    __slots__ = ("nums", "den", "truncation")

    def __new__(cls, coeffs, truncation: int | None = None):
        pairs = [numden(c) for c in coeffs]
        if truncation is None:
            truncation = len(pairs) - 1
        if truncation < 0:
            raise ValueError("truncation must be >= 0")
        return series_over(*_over_lcm(pairs[: truncation + 1]), truncation)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def one(cls, truncation: int) -> "TruncatedSeries":
        return cls([ONE], truncation)

    @classmethod
    def identity(cls, truncation: int) -> "TruncatedSeries":
        """The series q."""
        return cls([ZERO, ONE], truncation)

    # -- inspection ------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The reduced rational coefficients, built afresh on each read."""
        den = self.den
        return tuple(QQ(x, den) for x in self.nums)

    @property
    def constant_term(self):
        return QQ(self.nums[0], self.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.truncation == other.truncation
                and self.den == other.den and self.nums == other.nums)

    def __repr__(self):
        head = ", ".join(rational_to_str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.truncation > 5 else ""
        return f"TruncatedSeries([{head}{tail}], N={self.truncation})"

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        return _sum(self, other, 1)

    def __sub__(self, other):
        return _sum(self, other, -1)

    def __mul__(self, other):
        if isinstance(other, (int, QQ)):
            num, den = numden(other)
            return series_over([num * x for x in self.nums], self.den * den,
                               self.truncation)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = min(self.truncation, other.truncation)
        a, b = self.retruncate(n), other.retruncate(n)
        # |c_k| <= (n + 1) max|a| max|b| < 2^(width - 1): no slot overflows
        width = (max(map(abs, a.nums)).bit_length()
                 + max(map(abs, b.nums)).bit_length()
                 + (n + 1).bit_length() + 1)
        slot = (width + 7) // 8  # bytes per slot
        packed = _pack(a.nums, slot) * _pack(b.nums, slot)
        return series_over(_unpack(packed, slot, n + 1), a.den * b.den, n)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers: divide explicitly")
        if k < 2:
            return self if k else TruncatedSeries.one(self.truncation)
        half = self ** (k // 2)
        return half * half * self if k & 1 else half * half

    def shift(self, k: int) -> "TruncatedSeries":
        """Multiply by q^k (k >= 0), keeping the truncation order."""
        if k < 0:
            raise ValueError("shift exponent must be >= 0")
        return series_over(self.nums, self.den, self.truncation, k)

    def retruncate(self, n: int) -> "TruncatedSeries":
        """Drop coefficients above order n (n <= current truncation)."""
        if n > self.truncation:
            raise ValueError("cannot extend a truncated series")
        return self if n == self.truncation else series_over(
            self.nums, self.den, n)

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        return {
            "coeffs": [rational_to_str(c) for c in self.coeffs],
            "truncation": self.truncation,
        }


def series_over(nums, den: int, truncation: int,
                shift: int = 0) -> TruncatedSeries:
    """The canonical series q^shift (nums[0] + nums[1] q + ...) / den
    through q^truncation, for integers nums and den != 0: terms above
    the truncation are dropped, missing ones are zero, and the content
    gcd(den, *nums) is divided out with the sign of den."""
    nums = ([0] * shift + list(nums))[: truncation + 1]
    nums += [0] * (truncation + 1 - len(nums))
    g = gcd(den, *nums)
    if den < 0:
        g = -g
    if g != 1:
        den //= g
        nums = [x // g for x in nums]
    s = object.__new__(TruncatedSeries)
    object.__setattr__(s, "nums", tuple(nums))
    object.__setattr__(s, "den", den)
    object.__setattr__(s, "truncation", truncation)
    return s


def _over_lcm(pairs):
    """Integers x_i and d = lcm(d_i) with x_i / d = n_i / d_i (d_i > 0)."""
    den = lcm(*(d for _, d in pairs))
    return [x * (den // d) for x, d in pairs], den


def _sum(a: TruncatedSeries, b, sign: int):
    """a + sign b, for a series or a rational (constant series) b."""
    if isinstance(b, (int, QQ)):
        b = TruncatedSeries([b], a.truncation)
    if not isinstance(b, TruncatedSeries):
        return NotImplemented
    den = lcm(a.den, b.den)
    sa, sb = den // a.den, sign * (den // b.den)
    return series_over([x * sa + y * sb for x, y in zip(a.nums, b.nums)],
                       den, min(a.truncation, b.truncation))


# --------------------------------------------------------------------------
# Packed integer product (Kronecker substitution)
# --------------------------------------------------------------------------

def _pack(ints, slot: int) -> int:
    """sum x_i 2^(8 slot i) for signed x_i with |x_i| < 2^(8 slot - 1):
    x_i in two's complement, less the carry each negative one adds."""
    raw = b"".join([x.to_bytes(slot, "little", signed=True) for x in ints])
    one, zero = (1).to_bytes(slot, "little"), bytes(slot)
    carries = b"".join([one if x < 0 else zero for x in ints])
    return (int.from_bytes(raw, "little")
            - (int.from_bytes(carries, "little") << (8 * slot)))


def _unpack(packed: int, slot: int, count: int):
    """The first count signed slots c_k of packed, given every
    |c_k| < 2^(8 slot - 1).

    Slot k of the two's-complement bits holds c_k mod 2^(8 slot) less
    the borrow taken by the negative slots below it; adding that borrow
    back and centring the residue recovers c_k.
    """
    bits = 8 * slot
    full, half = 1 << bits, 1 << (bits - 1)
    low = packed & ((1 << (bits * count)) - 1)
    raw = low.to_bytes(slot * count, "little")
    out, borrow = [], 0
    for k in range(0, slot * count, slot):
        c = int.from_bytes(raw[k:k + slot], "little") + borrow
        borrow = int(c >= half)
        out.append(c - full if borrow else c)
    return out


def _tail_product(a: TruncatedSeries, r: TruncatedSeries,
                  k: int) -> TruncatedSeries:
    """a r at the truncation of r, for r = O(q^k): only the coefficients
    of r from q^k on are packed."""
    prod = a * series_over(r.nums[k:], r.den, r.truncation - k)
    return series_over(prod.nums, prod.den, r.truncation, k)


def _refine_inverse(f: TruncatedSeries, g: TruncatedSeries,
                    order: int) -> TruncatedSeries:
    """1/f through q^order < 2k from g = 1/f through q^(k-1), as
    g - g (f g - 1): the correction is O(q^k)."""
    k = g.truncation + 1
    g = series_over(g.nums, g.den, order)
    return g - _tail_product(g, f * g - 1, k)


def _theta_inverse(s: TruncatedSeries) -> TruncatedSeries:
    """c_k -> c_k / k on a series with zero constant term: x_k / k is
    reduced by the small gcd(x_k, k) before the common denominator."""
    nums, den = _over_lcm([(0, 1)] + [
        (x // (g := gcd(x, k)), k // g) for k, x in enumerate(s.nums[1:], 1)])
    return series_over(nums, s.den * den, s.truncation)


def divide(num: TruncatedSeries, den: TruncatedSeries) -> TruncatedSeries:
    """Power series division; den must have nonzero constant term.

    Newton steps take g = 1/den through q^h, h = floor(n/2); then one
    Karp-Markstein step: quot = num g through q^h, and
    quot + g (num - den quot) through q^n, as the residual is O(q^(h+1)).
    """
    if den.nums[0] == 0:
        raise SeriesDomainError("denominator has zero constant term")
    n = min(num.truncation, den.truncation)
    g = series_over([den.den], den.nums[0], 0)
    while g.truncation < n // 2:
        g = _refine_inverse(den, g, min(2 * g.truncation + 1, n // 2))
    quot = num * g
    quot = series_over(quot.nums, quot.den, n)
    if n == 0:
        return quot
    return quot + _tail_product(g, num - den * quot, n // 2 + 1)


def exp_series(u: TruncatedSeries) -> TruncatedSeries:
    """Power series exponential of u with u(0) = 0.

    Coupled Newton iteration on e = exp(u) and h = 1/e.  With e right
    through q^m, theta(e) - e theta(u) = e theta(log e - u) is
    O(q^(m+1)), so h right through q^m makes w = h (theta(e) - e theta(u))
    right through q^(2m+1), and so e - e theta^-1(w); one reciprocal
    step then brings h to the new order, in place of a division.
    """
    if u.nums[0] != 0:
        raise SeriesDomainError("exp needs constant term 0")
    n = u.truncation
    du = theta_derivative(u)
    e = h = TruncatedSeries.one(0)
    while e.truncation < n:
        k = e.truncation + 1
        e = series_over(e.nums, e.den, min(2 * k - 1, n))
        w = _tail_product(h, theta_derivative(e) - e * du, k)
        e = e - _tail_product(e, _theta_inverse(w), k)
        if e.truncation < n:
            h = _refine_inverse(e, h, e.truncation)
    return e


def log_series(s: TruncatedSeries) -> TruncatedSeries:
    """Inverse of exp_series: theta^-1(theta(s) / s) for s(0) = 1."""
    if s.constant_term != 1:
        raise SeriesDomainError("log needs constant term 1")
    return _theta_inverse(divide(theta_derivative(s), s))


def theta_derivative(s: TruncatedSeries) -> TruncatedSeries:
    """theta = q d/dq: c_n -> n c_n."""
    return series_over([n * x for n, x in enumerate(s.nums)], s.den,
                       s.truncation)


def compose(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """f(g(q)) for g with zero constant term (Horner evaluation).

    The partial sum r_k = f_k + f_(k+1) g + ... ends up multiplied by
    g^k = O(q^k), so it is kept only through q^(n-k); with g = q h,
    r_k = f_k + q (r_(k+1) h) at that order, formed over the lcm of
    the denominators of f and of r_(k+1) h.
    """
    if g.nums[0] != 0:
        raise SeriesDomainError("composition needs inner constant term 0")
    n = min(f.truncation, g.truncation)
    h = series_over(g.nums[1:], g.den, max(n - 1, 0))
    result = series_over([f.nums[n]], f.den, 0)
    for k in range(n - 1, -1, -1):
        tail = result * h
        den = lcm(f.den, tail.den)
        scale = den // tail.den
        result = series_over(
            [f.nums[k] * (den // f.den), *(x * scale for x in tail.nums)],
            den, n - k)
    return result


def reversion(s: TruncatedSeries) -> TruncatedSeries:
    """Compositional inverse g with s(g(q)) = q to order N.

    Newton iteration: if g is correct through q^m, then s'(g) g' =
    (s(g))' = 1 + O(q^m), so g' stands in for 1/s'(g) and the update
    g <- g - (s(g) - q) g' is correct through q^(2m).  Each step costs
    one composition at the doubled order and one product; g' = theta(g)/q
    is the derivative of the polynomial g, exact when padded with zeros.
    """
    if s.nums[0] != 0 or s.truncation < 1 or s.nums[1] == 0:
        raise SeriesDomainError("need s(0) = 0 and nonzero linear coefficient")
    n = s.truncation
    g = series_over([0, s.den], s.nums[1], 1)
    order = 1  # g is correct through q^order
    while order < n:
        order = min(2 * order, n)
        work = series_over(g.nums, g.den, order)
        residual = (compose(s.retruncate(order), work)
                    - TruncatedSeries.identity(order))
        dg = theta_derivative(g)
        g = work - residual * series_over(dg.nums[1:], dg.den, order)
    return g


# --------------------------------------------------------------------------
# Laurent series: finitely many negative exponents, truncated above.
# --------------------------------------------------------------------------

class LaurentSeries:
    """LaurentSeries(s, shift) is q^shift s for a TruncatedSeries s, so
    its truncation is s.truncation + shift.  It is held as
    q^lowest_exponent times a unit power series body: leading zeros of s
    are stripped, so an all-zero s is rejected and there is no zero
    Laurent series.  Products, quotients and powers are done on bodies
    by TruncatedSeries."""

    __slots__ = ("lowest_exponent", "body", "truncation")

    def __init__(self, s: TruncatedSeries, shift: int = 0):
        lead = next((i for i, x in enumerate(s.nums) if x), None)
        if lead is None:
            raise ValueError("no nonzero coefficient through the truncation")
        object.__setattr__(self, "lowest_exponent", shift + lead)
        object.__setattr__(self, "body", series_over(
            s.nums[lead:], s.den, s.truncation - lead))
        object.__setattr__(self, "truncation", s.truncation + shift)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentSeries is immutable")

    @property
    def coeffs(self) -> tuple:
        """Coefficients of q^lowest_exponent..q^truncation."""
        return self.body.coeffs

    def coefficient(self, e: int):
        if e > self.truncation:
            raise IndexError(f"exponent {e} above truncation {self.truncation}")
        if e < self.lowest_exponent:
            return ZERO
        return QQ(self.body.nums[e - self.lowest_exponent], self.body.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (self.lowest_exponent == other.lowest_exponent
                and self.body == other.body)

    def agrees_with(self, other: "LaurentSeries") -> int | None:
        """First exponent (up to the common truncation) where the two
        disagree, or None, decided on the integers: bodies are units, so
        different lowest exponents differ at the lower one, and x_i / d_x
        equals y_i / d_y iff x_i d_y equals y_i d_x."""
        low = self.lowest_exponent
        if low != other.lowest_exponent:
            return min(low, other.lowest_exponent)
        x, y = self.body, other.body
        return next((low + i for i, (xi, yi) in enumerate(zip(x.nums, y.nums))
                     if xi * y.den != yi * x.den), None)

    def __repr__(self):
        head = ", ".join(
            f"q^{self.lowest_exponent + i}:{rational_to_str(c)}"
            for i, c in enumerate(self.coeffs[:4]))
        return f"LaurentSeries({head}, ..., top={self.truncation})"

    # -- arithmetic: (q^k u)(q^l v) = q^(k+l) uv, (q^k u)/(q^l v) =
    # q^(k-l) u/v and (q^k u)^n = q^(kn) u^n, for units u and v ----------

    def __mul__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return LaurentSeries(self.body * other.body,
                             self.lowest_exponent + other.lowest_exponent)

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers: divide explicitly")
        return LaurentSeries(self.body ** k, k * self.lowest_exponent)

    def __truediv__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return LaurentSeries(divide(self.body, other.body),
                             self.lowest_exponent - other.lowest_exponent)

    def to_json(self) -> dict:
        return {**self.body.to_json(), "lowest_exponent": self.lowest_exponent,
                "truncation": self.truncation}


def power_ladder(factor, ratio, exponents):
    """factor ratio^e for each e of a run of consecutive ascending integers:
    the first by ** and one product, each later one the last times ratio."""
    ladder = [factor * ratio ** e for e in exponents[:1]]
    for _ in exponents[1:]:
        ladder.append(ladder[-1] * ratio)
    return ladder


# --------------------------------------------------------------------------
# p-adic checks
# --------------------------------------------------------------------------

class PAdicCheck(namedtuple("PAdicCheck", "prime order first_failure "
                            "valuation min_valuation", defaults=(None,))):
    """A p-adic check of a series through the exponent order.

    first_failure is the first exponent whose coefficient has p-adic
    valuation below the check's bound, 0 for integrality
    (valuation_profile) and 1 for a congruence mod p (lab.py), or None;
    valuation is the exact valuation there, or None with it.
    min_valuation, the least valuation of a nonzero coefficient, is
    resolved only by valuation_profile, and is None elsewhere.
    """

    __slots__ = ()

    def holds(self) -> bool:
        return self.first_failure is None


def valuation_profile(s, p: int) -> PAdicCheck:
    """The integrality check of a TruncatedSeries or LaurentSeries, in
    one pass over its coefficients, indexed by exponent.  v_p(x_i / den)
    is read as v_p(x_i) - v_p(den), with no gcd."""
    start = 0
    if isinstance(s, LaurentSeries):
        start, s = s.lowest_exponent, s.body
    v_den = int_valuation(s.den, p)
    first = valuation = least = None
    for i, x in enumerate(s.nums):
        if x:
            v = int_valuation(x, p) - v_den
            if least is None or v < least:
                least = v
            if v < 0 and first is None:
                first, valuation = start + i, v
    return PAdicCheck(p, start + s.truncation, first, valuation, least)

"""Exact truncated power series and Laurent series over the rationals.

All series carry an explicit truncation order and immutable coefficient
tuples; every operation is a pure function returning a fresh series.
Binary operations truncate at the minimum of the operand truncations,
never silently extending.  There is no floating point anywhere.

The series product clears each operand to integers over one common
denominator, packs each into a single integer with one signed slot per
coefficient (Kronecker substitution), does one big-integer multiply,
and unpacks the slots.  divide, exp_series, log_series and reversion
are Newton iterations on that product, each step a few products at a
doubled order (Brent and Kung, J. ACM 25, 1978); exp_series carries
1/exp(u) along, so no step divides.  A product's cost grows with the
bits of the common denominator.  For the series built here, Newton's
mixed-height approximations included, it stayed within 7 % of the
largest single denominator up to N = 240 (scripts/bench_kernels.py);
unrelated tall denominators would make it up to N times taller.

A Laurent series, LaurentSeries(s, shift), is q^shift times a power
series s.  The package forms J and its generators from such series by
products, quotients and powers only.
"""

from __future__ import annotations

from collections import namedtuple
from math import lcm

from .errors import (
    ConstantTermNotOne,
    NonzeroConstantTerm,
    NotInvertible,
    ZeroConstantTerm,
)
from .rationals import (
    ONE, QQ, ZERO, is_rational, numden, padic_valuation, rational_to_str)


class TruncatedSeries:
    """c_0 + c_1 q + ... + c_N q^N with exact rational coefficients."""

    __slots__ = ("coeffs", "truncation")

    def __init__(self, coeffs, truncation: int | None = None):
        coeffs = [QQ(c) for c in coeffs]
        if truncation is None:
            truncation = len(coeffs) - 1
        if truncation < 0:
            raise ValueError("truncation must be >= 0")
        if len(coeffs) < truncation + 1:
            coeffs += [ZERO] * (truncation + 1 - len(coeffs))
        object.__setattr__(self, "coeffs", tuple(coeffs[: truncation + 1]))
        object.__setattr__(self, "truncation", truncation)

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
    def constant_term(self):
        return self.coeffs[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.truncation == other.truncation and self.coeffs == other.coeffs

    def __repr__(self):
        head = ", ".join(rational_to_str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.truncation > 5 else ""
        return f"TruncatedSeries([{head}{tail}], N={self.truncation})"

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        if is_rational(other):
            other = TruncatedSeries([other], self.truncation)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = min(self.truncation, other.truncation)
        return TruncatedSeries(
            [self.coeffs[i] + other.coeffs[i] for i in range(n + 1)], n)

    def __neg__(self):
        return TruncatedSeries([-c for c in self.coeffs], self.truncation)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if is_rational(other):
            c = QQ(other)
            return TruncatedSeries([c * x for x in self.coeffs], self.truncation)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = min(self.truncation, other.truncation)
        a_ints, da = _common_denominator(self.coeffs[: n + 1])
        b_ints, db = _common_denominator(other.coeffs[: n + 1])
        # |c_k| <= (n + 1) max|a| max|b| < 2^(width - 1): no slot overflows
        width = (_max_bits(a_ints) + _max_bits(b_ints)
                 + (n + 1).bit_length() + 1)
        slot = (width + 7) // 8  # bytes per slot
        packed = _pack(a_ints, slot) * _pack(b_ints, slot)
        den = da * db
        return TruncatedSeries(
            [QQ(c, den) for c in _unpack(packed, slot, n + 1)], n)

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
        return TruncatedSeries(
            [ZERO] * k + list(self.coeffs[: self.truncation + 1 - k]),
            self.truncation)

    def retruncate(self, n: int) -> "TruncatedSeries":
        """Drop coefficients above order n (n <= current truncation)."""
        if n > self.truncation:
            raise ValueError("cannot extend a truncated series")
        return TruncatedSeries(self.coeffs[: n + 1], n)

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        return {
            "coeffs": [rational_to_str(c) for c in self.coeffs],
            "truncation": self.truncation,
        }


# --------------------------------------------------------------------------
# Packed integer product (Kronecker substitution)
# --------------------------------------------------------------------------

def _common_denominator(coeffs):
    """Integers x_i and one denominator d with coeffs[i] = x_i / d."""
    pairs = [numden(c) for c in coeffs]
    den = lcm(*(d for _, d in pairs))
    return [x * (den // d) for x, d in pairs], den


def _max_bits(ints) -> int:
    return max(abs(x) for x in ints).bit_length()


def _pack(ints, slot: int) -> int:
    """sum x_i 2^(8 slot i) for signed x_i with |x_i| < 2^(8 slot)."""
    pos = b"".join(max(x, 0).to_bytes(slot, "little") for x in ints)
    neg = b"".join(max(-x, 0).to_bytes(slot, "little") for x in ints)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


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
    high = TruncatedSeries(r.coeffs[k:], r.truncation - k)
    return TruncatedSeries((a * high).coeffs, r.truncation).shift(k)


def _refine_inverse(f: TruncatedSeries, g: TruncatedSeries,
                    order: int) -> TruncatedSeries:
    """1/f through q^order < 2k from g = 1/f through q^(k-1), as
    g + g (1 - f g): the correction is O(q^k)."""
    k = g.truncation + 1
    g = TruncatedSeries(g.coeffs, order)
    return g + _tail_product(g, 1 - f * g, k)


def _theta_inverse(s: TruncatedSeries) -> TruncatedSeries:
    """c_k -> c_k / k on a series with zero constant term."""
    return TruncatedSeries(
        [ZERO] + [c / k for k, c in enumerate(s.coeffs[1:], 1)],
        s.truncation)


def divide(num: TruncatedSeries, den: TruncatedSeries) -> TruncatedSeries:
    """Power series division; den must have nonzero constant term.

    Newton steps take g = 1/den through q^h, h = floor(n/2); then one
    Karp-Markstein step: quot = num g through q^h, and
    quot + g (num - den quot) through q^n, as the residual is O(q^(h+1)).
    """
    if den.constant_term == 0:
        raise ZeroConstantTerm("denominator has zero constant term")
    n = min(num.truncation, den.truncation)
    g = TruncatedSeries([ONE / den.constant_term], 0)
    while g.truncation < n // 2:
        g = _refine_inverse(den, g, min(2 * g.truncation + 1, n // 2))
    quot = TruncatedSeries((num * g).coeffs, n)
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
    if u.constant_term != 0:
        raise NonzeroConstantTerm("exp needs constant term 0")
    n = u.truncation
    du = theta_derivative(u)
    e = h = TruncatedSeries.one(0)
    while e.truncation < n:
        k = e.truncation + 1
        e = TruncatedSeries(e.coeffs, min(2 * k - 1, n))
        w = _tail_product(h, theta_derivative(e) - e * du, k)
        e = e - _tail_product(e, _theta_inverse(w), k)
        if e.truncation < n:
            h = _refine_inverse(e, h, e.truncation)
    return e


def log_series(s: TruncatedSeries) -> TruncatedSeries:
    """Inverse of exp_series: theta^-1(theta(s) / s) for s(0) = 1."""
    if s.constant_term != 1:
        raise ConstantTermNotOne("log needs constant term 1")
    return _theta_inverse(divide(theta_derivative(s), s))


def theta_derivative(s: TruncatedSeries) -> TruncatedSeries:
    """theta = q d/dq: c_n -> n c_n."""
    return TruncatedSeries(
        [n * c for n, c in enumerate(s.coeffs)], s.truncation)


def substitute_power(s: TruncatedSeries, p: int) -> TruncatedSeries:
    """q -> q^p: coefficient at index p*n is c_n, all others 0."""
    if p < 1:
        raise ValueError("substitution exponent must be >= 1")
    n = s.truncation
    out = [ZERO] * (n + 1)
    for i, c in enumerate(s.coeffs):
        if p * i > n:
            break
        out[p * i] = c
    return TruncatedSeries(out, n)


def scale_argument(s: TruncatedSeries, kappa) -> TruncatedSeries:
    """q -> kappa*q: c_n -> kappa^n c_n."""
    kappa = QQ(kappa)
    out = []
    power = ONE
    for c in s.coeffs:
        out.append(power * c)
        power *= kappa
    return TruncatedSeries(out, s.truncation)


def compose(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """f(g(q)) for g with zero constant term (Horner evaluation).

    The partial sum r_k = f_k + f_(k+1) g + ... ends up multiplied by
    g^k = O(q^k), so it is kept only through q^(n-k); with g = q h,
    r_k = f_k + q (r_(k+1) h) at that order.
    """
    if g.constant_term != 0:
        raise NonzeroConstantTerm("composition needs inner constant term 0")
    n = min(f.truncation, g.truncation)
    h = TruncatedSeries(g.coeffs[1:], max(n - 1, 0))
    result = TruncatedSeries([f.coeffs[n]], 0)
    for k in range(n - 1, -1, -1):
        result = TruncatedSeries([f.coeffs[k], *(result * h).coeffs], n - k)
    return result


def reversion(s: TruncatedSeries) -> TruncatedSeries:
    """Compositional inverse g with s(g(q)) = q to order N.

    Newton iteration: if g is correct through q^m, then s'(g) g' =
    (s(g))' = 1 + O(q^m), so g' stands in for 1/s'(g) and the update
    g <- g - (s(g) - q) g' is correct through q^(2m).  Each step costs
    one composition at the doubled order and one product; g' = theta(g)/q
    is the derivative of the polynomial g, exact when padded with zeros.
    """
    if s.constant_term != 0 or s.truncation < 1 or s.coeffs[1] == 0:
        raise NotInvertible("need s(0) = 0 and nonzero linear coefficient")
    n = s.truncation
    g = TruncatedSeries([ZERO, ONE / s.coeffs[1]], 1)
    order = 1  # g is correct through q^order
    while order < n:
        order = min(2 * order, n)
        work = TruncatedSeries(g.coeffs, order)
        residual = (compose(s.retruncate(order), work)
                    - TruncatedSeries.identity(order))
        dg = TruncatedSeries(theta_derivative(g).coeffs[1:], order)
        g = work - residual * dg
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
        lead = next((i for i, c in enumerate(s.coeffs) if c != 0), None)
        if lead is None:
            raise ValueError("no nonzero coefficient through the truncation")
        object.__setattr__(self, "lowest_exponent", shift + lead)
        object.__setattr__(self, "body", TruncatedSeries(
            s.coeffs[lead:], s.truncation - lead))
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
        return self.coeffs[e - self.lowest_exponent]

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (self.truncation == other.truncation
                and self.lowest_exponent == other.lowest_exponent
                and self.coeffs == other.coeffs)

    def agrees_with(self, other: "LaurentSeries") -> int | None:
        """First exponent (up to the common truncation) where the two
        disagree, or None."""
        top = min(self.truncation, other.truncation)
        lo = min(self.lowest_exponent, other.lowest_exponent)
        return next((e for e in range(lo, top + 1)
                     if self.coefficient(e) != other.coefficient(e)), None)

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
        return {
            "lowest_exponent": self.lowest_exponent,
            "coeffs": [rational_to_str(c) for c in self.coeffs],
            "truncation": self.truncation,
        }


def power_ladder(factor, ratio, exponents):
    """factor ratio^e for each e of a run of consecutive ascending
    integers: the first power by **, each later one the last times ratio."""
    powers = [ratio ** e for e in exponents[:1]]
    for _ in exponents[1:]:
        powers.append(powers[-1] * ratio)
    return [factor * power for power in powers]


# --------------------------------------------------------------------------
# p-adic valuation profiles
# --------------------------------------------------------------------------

class ValuationProfile(namedtuple("ValuationProfile",
                                  "prime entries start_index bound",
                                  defaults=(0, 0))):
    """Per-coefficient p-adic valuations of a series against a bound.

    entries[i] is v_p of the coefficient at index start_index + i, or
    None when that coefficient is zero.  bound is the valuation every
    coefficient must reach: 0 for p-integrality, 1 for a congruence
    mod p.
    """

    __slots__ = ()

    @property
    def min_valuation(self) -> int | None:
        """The least finite entry (None if every coefficient vanishes)."""
        return min((v for v in self.entries if v is not None), default=None)

    @property
    def first_failure(self) -> int | None:
        """The first index whose valuation is below bound, or None."""
        for i, v in enumerate(self.entries):
            if v is not None and v < self.bound:
                return self.start_index + i
        return None

    def holds(self) -> bool:
        return self.first_failure is None


def valuation_profile(s, p: int, bound: int = 0,
                      start_index: int = 0) -> ValuationProfile:
    """Valuation profile of a TruncatedSeries or LaurentSeries against
    bound; the coefficient of exponent e gets index start_index + e."""
    if isinstance(s, LaurentSeries):
        start_index += s.lowest_exponent
    return ValuationProfile(
        prime=p,
        entries=tuple(padic_valuation(c, p) for c in s.coeffs),
        start_index=start_index,
        bound=bound,
    )

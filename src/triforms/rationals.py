"""Exact rational scalars: construction, p-adic valuation, serialization.

Every scalar here is an arbitrary-precision reduced fraction (a series
holds integers over one denominator).  gmpy2's mpq is used when
available (about 5x faster than fractions.Fraction); the two are
interchangeable through the QQ constructor below, and nothing
downstream depends on which backend is active.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

try:
    from gmpy2 import mpq as _backend

    RATIONAL_BACKEND = "gmpy2"
except ImportError:  # pragma: no cover - exercised only without gmpy2
    _backend = Fraction
    RATIONAL_BACKEND = "fractions"


def QQ(num=0, den=None):
    """Exact rational from integers or a rational."""
    if den is not None:
        return _backend(num, den)
    return _backend(num)


#: Additive and multiplicative identities, shared.
ZERO = QQ(0)
ONE = QQ(1)


def is_rational(x) -> bool:
    return isinstance(x, (type(ZERO), Fraction, int))


def numden(x):
    """(numerator, denominator) of a reduced rational, as Python ints."""
    if not isinstance(x, _backend):
        x = _backend(x)
    return int(x.numerator), int(x.denominator)


def int_valuation(n: int, p: int) -> int:
    """Exponent of the prime p in the nonzero integer n."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def primes(lo: int, hi: int) -> list:
    """The primes p with lo <= p <= hi, by trial division."""
    return [n for n in range(max(lo, 2), hi + 1)
            if all(n % d for d in range(2, isqrt(n) + 1))]


def rational_to_str(x) -> str:
    """Serialize as 'num/den', e.g. '-5/12'; integers keep '/1'."""
    num, den = numden(x)
    return f"{num}/{den}"

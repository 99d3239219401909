"""Exact rational scalars: construction, p-adic valuation, serialization.

Every scalar is an int or a fractions.Fraction, an arbitrary-precision
reduced fraction.  Series, F and G, and the Halphen solve hold integers
over one denominator, so scalar rationals are left to the parameters
(a, b), the Dwork map and output.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

#: The one scalar type, reported by the benchmark harnesses.
RATIONAL_BACKEND = "fractions"

#: Exact rational from integers or a rational: QQ(num, den), QQ(x).
QQ = Fraction

#: Additive and multiplicative identities, shared.
ZERO = QQ(0)
ONE = QQ(1)


def numden(x):
    """(numerator, denominator) of an int or a reduced Fraction."""
    return x.numerator, x.denominator


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
    """The primes p with lo <= p <= hi: the multiples of each prime
    d <= sqrt(hi), from the larger of d^2 and the first one >= lo, struck
    from [lo, hi]."""
    lo = max(lo, 2)
    if hi < lo:
        return []
    alive = bytearray([1]) * (hi - lo + 1)
    for d in primes(2, isqrt(hi)):
        first = max(d * d, -(-lo // d) * d)
        alive[first - lo::d] = bytes((hi - first) // d + 1)
    return [lo + i for i, flag in enumerate(alive) if flag]


def rational_to_str(x) -> str:
    """Serialize as 'num/den', e.g. '-5/12'; integers keep '/1'.  Library
    callers keep the interpreter's str(int) digit limit; the CLI lifts it."""
    num, den = numden(x)
    return f"{num}/{den}"

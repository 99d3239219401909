"""Formal power-series solutions of the Halphen system and the objects
derived from them: the Hauptmodul J and the automorphic-form generators.

The system solved here is the coupled quadratic ODE system

    th t1 = (a-1)(t1 t2 + t1 t3 - t2 t3) + (b+c-1) t1^2
    th t2 = (b-1)(t2 t1 + t2 t3 - t1 t3) + (a+c-1) t2^2
    th t3 = (c-1)(t3 t1 + t3 t2 - t1 t2) + (a+b-1) t3^2

with th = q d/dq, parameters tied to the triangle type (m1, m2, inf) by
1-a-b = 1/m1, 1-b-c = 1/m2, 1-a-c = 0, and the initial data
t1(0) = t3(0) = 0, t2(0) = -1.  Matching q^n coefficients gives a
linear system per order.  At order 1 it is rank-deficient; the free
scale is fixed by t3_1 - t1_1 = kappa, the q-scaling of the
hypergeometric route.  At every order n >= 2 the t1/t3 block has
determinant n(n-1) and is solved by Cramer's rule.

With a = A/M and b = B/M over the pair's own denominator M, a divisor
of the conductor 2 m1 m2 (2 m1 when m2 is infinite), the solve runs on
integers only; its algebra holds for any such M.  t1, t2 and t3 are
held as numerators over one common denominator d, each order's
convolutions are integer dot products over d^2, and its three unknowns
come out as numerators over one denominator E.  One gcd reduces them,
and d grows to the lcm of itself and E over that gcd, the lcm of their
reduced denominators.  So d stays near the largest single denominator:
within a bit for most types, and at most 12 % taller over every type
with m1, m2 <= 12 at N = 40 and 102.  The series are built once, at
the end, straight from those numerators.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd, lcm
from operator import mul

from .errors import InvariantViolation
from .rationals import QQ, ZERO, numden
from .series import LaurentSeries, TruncatedSeries, power_ladder, series_over


class TriangleType(namedtuple("TriangleType", "m1 m2")):
    """Type (m1, m2, inf): m1 finite >= 2, m2 >= m1 or infinite (None)."""

    __slots__ = ()

    def __new__(cls, m1, m2):
        if not isinstance(m1, int) or m1 < 2:
            raise ValueError("m1 must be an integer >= 2")
        if m2 is not None:
            if not isinstance(m2, int) or m2 < m1:
                raise ValueError("m2 must be an integer >= m1, or None for infinity")
            if m1 * m2 <= m1 + m2:  # 1/m1 + 1/m2 >= 1
                raise ValueError("not hyperbolic: 1/m1 + 1/m2 must be < 1")
        # m1 is always finite here, so (inf, inf) cannot be expressed;
        # the (inf, inf, inf) group is out of scope by design.
        return super().__new__(cls, m1, m2)

    @property
    def m2_finite(self) -> bool:
        return self.m2 is not None

    @property
    def conductor(self) -> int:
        """2*m1*m2, the modulus of all congruence conditions (2*m1 when
        m2 is infinite)."""
        return 2 * self.m1 * (self.m2 if self.m2_finite else 1)

    @property
    def kappa(self) -> int:
        """conductor^2 / 2 = 2*m1^2*m2^2 (2*m1^2 when m2 is infinite), an
        int: the q-scaling J = 1/z(kappa*q) of the hypergeometric route
        and the linear gap t3_1 - t1_1 of the Halphen solution."""
        return self.conductor ** 2 // 2

    def __str__(self):
        return f"({self.m1},{self.m2 if self.m2_finite else 'inf'})"

    @classmethod
    def parse(cls, text: str) -> "TriangleType":
        """Parse 'm1,m2' with 'inf' allowed for m2."""
        try:
            m1, m2 = text.split(",")
            m1 = int(m1)
            m2 = None if m2.strip().lower() == "inf" else int(m2)
        except ValueError:
            raise ValueError(f"expected 'm1,m2' of integers, m2 may be "
                             f"'inf', got {text!r}") from None
        return cls(m1, m2)


class HGParams(namedtuple("HGParams", "a b")):
    """A hypergeometric pair (a, b).  for_type gives a triangle type's
    pair a = (1 - 1/m1 + 1/m2)/2, b = (1 - 1/m1 - 1/m2)/2, and the
    Halphen system's third is c = 1 - a."""

    __slots__ = ()

    def __new__(cls, a, b):
        # strict ordering 0 < b <= a < 1, equality only for m2 = inf
        if not (0 < b <= a < 1):
            raise ValueError("parameters outside (0, 1) or misordered")
        return super().__new__(cls, a, b)

    @classmethod
    def for_type(cls, tri: TriangleType) -> "HGParams":
        """The unique (a, b) with 1 - a - b = 1/m1 and 1 - b - c = 1/m2
        for c = 1 - a."""
        inv1 = QQ(1, tri.m1)
        inv2 = QQ(1, tri.m2) if tri.m2_finite else ZERO
        a = (1 - inv1 + inv2) / 2
        b = (1 - inv1 - inv2) / 2
        c = 1 - a
        # cross-check against the defining relations
        if not (1 - a - b == inv1 and 1 - b - c == inv2):
            raise InvariantViolation(f"parameters {a}, {b} for {tri} "
                                     "break the defining relations")
        return cls(a, b)

    def over_common_denominator(self) -> tuple[int, int, int]:
        """(A, B, M) with a = A/M and b = B/M for M the lcm of the
        denominators of a and b; for a type's pair M divides the
        conductor."""
        (na, da), (nb, db) = numden(self.a), numden(self.b)
        m = lcm(da, db)
        return na * (m // da), nb * (m // db), m


HalphenSolution = namedtuple("HalphenSolution", "t1 t2 t3")


def solve_halphen(tri: TriangleType, n_order: int) -> HalphenSolution:
    """Solve the Halphen system to order n_order >= 0 for the given type.

    The order-1 system, a t1_1 + (1-a) t3_1 = 0 (twice, since c = 1 - a)
    and t2_1 = (1-b)(t1_1 + t3_1), leaves one scale free; it is fixed by
    t3_1 - t1_1 = kappa, so that the Halphen J matches the
    hypergeometric route.  Every order is solved on integers (see the
    module docstring).
    """
    A, B, M = HGParams.for_type(tri).over_common_denominator()
    kappa = tri.kappa
    # coefficients found so far, as integer numerators over d
    d, t1, t2, t3 = 1, [0], [-1], [0]

    def append(den, *nums):
        """Append nums[i]/den to t1, t2, t3, first growing d to the lcm
        of itself and their reduced denominators."""
        nonlocal d
        g = gcd(den, *nums)
        den //= g
        grown = lcm(d, den)
        if grown != d:
            for t in (t1, t2, t3):
                t[:] = [x * (grown // d) for x in t]
            d = grown
        for t, num in zip((t1, t2, t3), nums):
            t.append(num // g * (d // den))

    # (a-1) kappa, (1-b)(2a-1) kappa and a kappa, over M^2
    append(M * M, (A - M) * M * kappa, (M - B) * (2 * A - M) * kappa,
           A * M * kappa)

    def conv(x, y, n):
        """d^2 times the q^n coefficient of x*y over the orders 1..n-1."""
        return sum(map(mul, x[1:n], y[n - 1:0:-1]))

    for n in range(2, n_order + 1):
        p11, p33 = conv(t1, t1, n), conv(t3, t3, n)
        p12, p13, p23 = conv(t1, t2, n), conv(t1, t3, n), conv(t2, t3, n)
        # M d^2 times the right-hand sides k1, k2, k3 known from lower
        # orders; the t2^2 term drops out because a + c - 1 = 0
        k1 = (A - M) * (p12 + p13 - p23) + (B - A) * p11
        k2 = (B - M) * (p12 + p23 - p13)
        k3 = (A + B - M) * p33 - A * (p13 + p23 - p12)
        # the order-n unknowns pair with t2_0 = -1:
        #   (n+a-1) x1 - (a-1) x3 = k1,  -(c-1) x1 + (n+c-1) x3 = k3,
        #   n x2 + (b-1)(x1 + x3) = k2;  the x1/x3 block has det n(n-1),
        # so all three are numerators over M^3 d^2 n^2 (n-1)
        y1 = (n * M - A) * k1 + (A - M) * k3
        y3 = (n * M + A - M) * k3 - A * k1
        append(M ** 3 * d * d * n * n * (n - 1), M * n * y1,
               M * M * n * (n - 1) * k2 - (B - M) * (y1 + y3), M * n * y3)

    return HalphenSolution(t1=series_over(t1, d, n_order),
                           t2=series_over(t2, d, n_order),
                           t3=series_over(t3, d, n_order))


def hauptmodul_from_halphen(sol: HalphenSolution) -> LaurentSeries:
    """J = (t3 - t2)/(t3 - t1), a Laurent series with a first-order pole."""
    num = sol.t3 - sol.t2
    den = sol.t3 - sol.t1
    if den.constant_term != 0:
        raise InvariantViolation("t3 - t1 must vanish at q = 0")
    if den.truncation < 1 or den.nums[1] == 0:
        raise InvariantViolation("t3 - t1 has zero linear coefficient")
    return LaurentSeries(num) / LaurentSeries(den)


def generator_range(tri: TriangleType, kind: int) -> range:
    """k-range of E^{(kind)}_{2k} in the generator lists."""
    if tri.m2_finite:
        return range(3, tri.m1 + 1) if kind == 1 else range(2, tri.m2 + 1)
    return range(1, tri.m1 + 1) if kind == 1 else range(0)


def eisenstein_one(ks: range, sol: HalphenSolution) -> list[TruncatedSeries]:
    """E^{(1)}_{2k} = (t1 - t2)(t3 - t2)^(k-1), constant term 1, for each
    k >= 1 in the ascending range ks, all from one power ladder."""
    return power_ladder(sol.t1 - sol.t2, sol.t3 - sol.t2, [k - 1 for k in ks])


def eisenstein_two(ks: range, sol: HalphenSolution) -> list[TruncatedSeries]:
    """E^{(2)}_{2k} = (t1 - t2)^(k-1)(t3 - t2), constant term 1, for each
    k >= 1 in the ascending range ks, all from one power ladder."""
    return power_ladder(sol.t3 - sol.t2, sol.t1 - sol.t2, [k - 1 for k in ks])

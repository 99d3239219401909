"""Formal power-series solutions of the Halphen system and the objects
derived from them: the Hauptmodul J and the automorphic-form generators.

The system solved here is the coupled quadratic ODE system

    th t1 = (a-1)(t1 t2 + t1 t3 - t2 t3) + (b+c-1) t1^2
    th t2 = (b-1)(t2 t1 + t2 t3 - t1 t3) + (a+c-1) t2^2
    th t3 = (c-1)(t3 t1 + t3 t2 - t1 t2) + (a+b-1) t3^2

with th = q d/dq, parameters tied to the triangle type (m1, m2, inf) by
1-a-b = 1/m1, 1-b-c = 1/m2, 1-a-c = 0, and the initial data
t1(0) = t3(0) = 0, t2(0) = -1 with a prescribed linear coefficient of
t2.  Matching q^n coefficients gives an exact 3x3 linear system per
order, solved by Gaussian elimination over the rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .errors import (
    DegenerateDenominator,
    InconsistentOrderOne,
    InvariantViolation,
    SingularSystem,
)
from .rationals import ONE, QQ, ZERO
from .series import LaurentSeries, TruncatedSeries, theta_derivative

INFINITY = None  # m2 = infinity marker


@dataclass(frozen=True)
class TriangleType:
    """Type (m1, m2, inf): m1 finite >= 2, m2 >= m1 or infinite (None)."""

    m1: int
    m2: Optional[int]

    def __post_init__(self):
        if not isinstance(self.m1, int) or self.m1 < 2:
            raise ValueError("m1 must be an integer >= 2")
        if self.m2 is not INFINITY:
            if not isinstance(self.m2, int) or self.m2 < self.m1:
                raise ValueError("m2 must be an integer >= m1, or None for infinity")
            if QQ(1, self.m1) + QQ(1, self.m2) >= 1:
                raise ValueError("not hyperbolic: 1/m1 + 1/m2 must be < 1")
        # m1 is always finite here, so (inf, inf) cannot be expressed;
        # the (inf, inf, inf) group is out of scope by design.

    @property
    def m2_finite(self) -> bool:
        return self.m2 is not INFINITY

    @property
    def conductor(self) -> int:
        """2*m1*m2, the modulus of all congruence conditions (2*m1 when
        m2 is infinite)."""
        return 2 * self.m1 * (self.m2 if self.m2_finite else 1)

    def __str__(self):
        return f"({self.m1},{self.m2 if self.m2_finite else 'inf'})"

    @classmethod
    def parse(cls, text: str) -> "TriangleType":
        """Parse 'm1,m2' with 'inf' allowed for m2."""
        parts = text.split(",")
        if len(parts) != 2:
            raise ValueError(f"expected 'm1,m2', got {text!r}")
        m1 = int(parts[0])
        m2 = INFINITY if parts[1].strip().lower() == "inf" else int(parts[1])
        return cls(m1, m2)


@dataclass(frozen=True)
class HGParams:
    """Parameters of a triangle type, shared by the Halphen system and
    the hypergeometric route: a = (1 - 1/m1 + 1/m2)/2 and
    b = (1 - 1/m1 - 1/m2)/2; the Halphen system's third is c = 1 - a."""

    a: object
    b: object
    triangle: TriangleType

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
        return cls(a, b, tri)

    def __post_init__(self):
        # strict ordering 0 < b <= a < 1, equality only for m2 = inf
        if not (0 < self.b <= self.a < 1):
            raise ValueError("parameters outside (0, 1) or misordered")


class Normalization(Enum):
    PRESCRIBED_T2 = "prescribed-t2"
    SYMMETRIC_NORMALIZED = "symmetric-normalized"


@dataclass(frozen=True)
class HalphenSolution:
    triangle: TriangleType
    t1: TruncatedSeries
    t2: TruncatedSeries
    t3: TruncatedSeries
    normalization_note: Normalization


def prescribed_t2_slope(tri: TriangleType):
    """Linear coefficient of t2 fixed by the initial-condition block."""
    m1 = tri.m1
    if not tri.m2_finite:
        return QQ(-(m1 + 1))
    m2 = tri.m2
    return QQ(m1 * m1 * m2 + m1 * m1 - m1 * m2 * m2 - m2 * m2)


def _solve3(matrix, rhs):
    """Exact Gaussian elimination for a 3x3 system; raises SingularSystem."""
    m = [row[:] + [r] for row, r in zip(matrix, rhs)]
    n = 3
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            raise SingularSystem(f"singular 3x3 system at column {col}")
        m[col], m[pivot] = m[pivot], m[col]
        inv = ONE / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return [m[r][3] for r in range(n)]


def solve_halphen(tri: TriangleType, n_order: int) -> HalphenSolution:
    """Solve the Halphen system to order n_order for the given type.

    The order-1 system is rank-deficient (the t1 and t3 rows coincide
    because c = 1 - a); the prescribed t2 slope supplies the missing
    equation when m1 != m2.  When m1 = m2 that slope is 0 and a scaling
    freedom remains; it is fixed by imposing t3_1 - t1_1 = 2 m1^2 m2^2,
    the value the m1 != m2 case forces, so that the Halphen J matches
    the hypergeometric route under the same kappa calibration.
    """
    if n_order < 2:
        raise ValueError("need n_order >= 2")
    params = HGParams.for_type(tri)
    a, b, c = params.a, params.b, 1 - params.a

    t = [[ZERO], [QQ(-1)], [ZERO]]  # t1, t2, t3 coefficient lists

    # ---- order 1: rank-deficient, handled by hand -----------------------
    slope2 = prescribed_t2_slope(tri)
    symmetric = tri.m2_finite and tri.m1 == tri.m2
    if symmetric:
        if slope2 != 0:
            raise InconsistentOrderOne(
                "m1 = m2 should force a zero prescribed t2 slope")
        half_gap = QQ(tri.m1 ** 2 * tri.m2 ** 2)
        t1_1, t3_1 = -half_gap, half_gap  # a = 1/2: forces t1_1 = -t3_1
        t2_1 = ZERO
        note = Normalization.SYMMETRIC_NORMALIZED
    else:
        # a t1_1 + (1-a) t3_1 = 0 and t2_1 = (1-b)(t1_1 + t3_1)
        two_a_minus_1 = 2 * a - 1
        if two_a_minus_1 == 0:
            raise InconsistentOrderOne("unexpected a = 1/2 with m1 != m2")
        total = slope2 / (1 - b)
        t3_1 = a * total / two_a_minus_1
        t1_1 = total - t3_1
        t2_1 = slope2
        if a * t1_1 + (1 - a) * t3_1 != 0:
            raise InconsistentOrderOne("order-1 equations inconsistent")
        note = Normalization.PRESCRIBED_T2
    t[0].append(t1_1)
    t[1].append(t2_1)
    t[2].append(t3_1)

    # ---- orders n >= 2: exact 3x3 solve per order -----------------------
    # Quadratic right-hand sides, as (coefficient, i, j) products:
    #   eq1: (a-1)(t1t2 + t1t3 - t2t3) + (b+c-1) t1^2
    #   eq2: (b-1)(t1t2 + t2t3 - t1t3) + (a+c-1) t2^2
    #   eq3: (c-1)(t1t3 + t2t3 - t1t2) + (a+b-1) t3^2
    rhs_terms = [
        [(a - 1, 0, 1), (a - 1, 0, 2), (-(a - 1), 1, 2), (b + c - 1, 0, 0)],
        [(b - 1, 0, 1), (b - 1, 1, 2), (-(b - 1), 0, 2), (a + c - 1, 1, 1)],
        [(c - 1, 0, 2), (c - 1, 1, 2), (-(c - 1), 0, 1), (a + b - 1, 2, 2)],
    ]
    for n in range(2, n_order + 1):
        # convolution over strictly lower orders (1..n-1)
        known = []
        for terms in rhs_terms:
            acc = ZERO
            for coeff, i, j in terms:
                if coeff == 0:
                    continue
                conv = ZERO
                for k in range(1, n):
                    if t[i][k] and t[j][n - k]:
                        conv += t[i][k] * t[j][n - k]
                acc += coeff * conv
            known.append(acc)
        # linear part in the order-n unknowns, from pairing with the
        # constant terms (0, -1, 0); move to the left-hand side
        matrix = [
            [n + (a - 1), ZERO, -(a - 1)],
            [b - 1, QQ(n), b - 1],
            [-(c - 1), ZERO, n + (c - 1)],
        ]
        sol = _solve3(matrix, known)
        for i in range(3):
            t[i].append(sol[i])

    return HalphenSolution(
        triangle=tri,
        t1=TruncatedSeries(t[0], n_order),
        t2=TruncatedSeries(t[1], n_order),
        t3=TruncatedSeries(t[2], n_order),
        normalization_note=note,
    )


def halphen_residuals(sol: HalphenSolution) -> list:
    """The three equation residuals, with the solution's truncation N;
    for an exact solution every coefficient through q^N is zero."""
    params = HGParams.for_type(sol.triangle)
    a, b, c = params.a, params.b, 1 - params.a
    t1, t2, t3 = sol.t1, sol.t2, sol.t3
    res = [
        theta_derivative(t1) - ((a - 1) * (t1 * t2 + t1 * t3 - t2 * t3)
                                + (b + c - 1) * t1 * t1),
        theta_derivative(t2) - ((b - 1) * (t2 * t1 + t2 * t3 - t1 * t3)
                                + (a + c - 1) * t2 * t2),
        theta_derivative(t3) - ((c - 1) * (t3 * t1 + t3 * t2 - t1 * t2)
                                + (a + b - 1) * t3 * t3),
    ]
    return res


def hauptmodul_from_halphen(sol: HalphenSolution) -> LaurentSeries:
    """J = (t3 - t2)/(t3 - t1), a Laurent series with a first-order pole."""
    num = sol.t3 - sol.t2
    den = sol.t3 - sol.t1
    if den.constant_term != 0:
        raise DegenerateDenominator("t3 - t1 must vanish at q = 0")
    if den.truncation < 1 or den.coeffs[1] == 0:
        raise DegenerateDenominator("t3 - t1 has zero linear coefficient")
    return (LaurentSeries.from_truncated(num)
            / LaurentSeries.from_truncated(den))


def generator_range(tri: TriangleType, kind: int) -> range:
    """k-range of E^{(kind)}_{2k} in the generator lists."""
    if tri.m2_finite:
        return range(3, tri.m1 + 1) if kind == 1 else range(2, tri.m2 + 1)
    return range(1, tri.m1 + 1) if kind == 1 else range(0)


def eisenstein_one(k: int, sol: HalphenSolution) -> TruncatedSeries:
    """E^{(1)}_{2k} = (t1 - t2)(t3 - t2)^(k-1); constant term 1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return (sol.t1 - sol.t2) * (sol.t3 - sol.t2) ** (k - 1)


def eisenstein_two(k: int, sol: HalphenSolution) -> TruncatedSeries:
    """E^{(2)}_{2k} = (t1 - t2)^(k-1)(t3 - t2); constant term 1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return (sol.t1 - sol.t2) ** (k - 1) * (sol.t3 - sol.t2)

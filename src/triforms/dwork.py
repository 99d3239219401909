"""The Dwork map on rationals and the closed-form congruence
classifiers: the main integrality theorem for a triangle type and a
prime, the Hecke-group corollary, the almost-integrality test, and the
scan that reproduces the arithmetic (Takeuchi) list.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .errors import InvariantViolation, SharedFactor
from .halphen import HGParams, TriangleType
from .rationals import QQ, numden


def require_coprime(tri: TriangleType, p: int) -> None:
    """Raise SharedFactor unless p is coprime to the conductor of tri."""
    if gcd(p, tri.conductor) > 1:
        raise SharedFactor(f"p = {p} shares a factor with {tri.conductor}")


def dwork_map(x, p: int):
    """delta_p(x) = (p^{-1} x1 mod x2) / x2 for x = x1/x2 in lowest
    terms, representative in [0, x2); requires p coprime to x2 and
    0 <= x < 1 (or x integral).  p * delta_p(x) - x is a digit in
    0..p-1."""
    x = QQ(x)
    x1, x2 = numden(x)
    if x1 < 0:
        raise ValueError("dwork_map expects x >= 0")
    if x2 > 1 and x1 > x2:
        raise ValueError("dwork_map expects x < 1 unless x is an integer")
    if x2 % p == 0:
        raise SharedFactor(f"p = {p} divides denominator {x2}")
    if x2 == 1:
        image = QQ((x1 + (-x1) % p) // p)
    else:
        inv = pow(p, -1, x2)
        image = QQ((inv * x1) % x2, x2)
    digit = p * image - x
    if not (digit == int(digit) and 0 <= digit <= p - 1):
        raise InvariantViolation(
            f"p * delta(x) - x = {digit} is not a digit in 0..{p - 1}")
    return image


def dwork_images(params: HGParams, p: int) -> HGParams:
    """The twisted pair (delta_p(a), delta_p(b)), larger first."""
    da = dwork_map(params.a, p)
    db = dwork_map(params.b, p)
    return HGParams(max(da, db), min(da, db))


def dwork_set_condition(tri: TriangleType, p: int) -> bool:
    """The sufficient-condition set equality for p-integrality of the
    mirror map of tri: for its pair (a, b), {delta_p(a), delta_p(b)}
    equals {a, b} or {1-a, 1-b}."""
    require_coprime(tri, p)
    params = HGParams.for_type(tri)
    twisted = dwork_images(params, p)
    got = {twisted.a, twisted.b}
    return got == {params.a, params.b} or got == {1 - params.a, 1 - params.b}


WitnessCase = namedtuple("WitnessCase", "epsilon epsilon_prime branch")


class IntegralityVerdict(namedtuple("IntegralityVerdict",
                                     "triangle prime witness")):
    """The main theorem's congruences at one prime: witness is the case
    that holds, or None.  Above the theorem range p > conductor that is
    the verdict; below it only a conjectural flag, never asserted."""

    __slots__ = ()

    @property
    def verdict(self) -> str:
        """One of "integral", "nonIntegral" and "belowTheoremRange"."""
        if self.prime <= self.triangle.conductor:
            return "belowTheoremRange"
        return "nonIntegral" if self.witness is None else "integral"

    def to_json(self) -> dict:
        """The theorem's part of a classify row."""
        verdict = self.verdict
        below = verdict == "belowTheoremRange"
        data = {"type": str(self.triangle), "p": self.prime,
                "verdict": verdict, "belowTheoremRange": below}
        if below:
            data["conjectural_integral"] = self.witness is not None
        elif self.witness is not None:
            data["witness"] = self.witness._asdict()
        return data


def _congruence_witness(tri: TriangleType, r: int) -> WitnessCase | None:
    """Search the four (epsilon, epsilon') sign pairs and both branches
    for a residue r; the branch must be shared between the two moduli:
    "plain" is r = epsilon mod 2m1 and r = epsilon' epsilon mod 2m2,
    "shifted" is r = m1 + epsilon mod 2m1 and r = m2 + epsilon' epsilon
    mod 2m2."""
    m1 = tri.m1
    if not tri.m2_finite:
        for eps in (1, -1):
            if r % (2 * m1) == eps % (2 * m1):
                return WitnessCase(eps, 1, "plain")
        return None
    m2 = tri.m2
    for eps in (1, -1):
        for eps_prime in (1, -1):
            ee = eps_prime * eps
            if (r % (2 * m1) == eps % (2 * m1)
                    and r % (2 * m2) == ee % (2 * m2)):
                return WitnessCase(eps, eps_prime, "plain")
            if (r % (2 * m1) == (m1 + eps) % (2 * m1)
                    and r % (2 * m2) == (m2 + ee) % (2 * m2)):
                return WitnessCase(eps, eps_prime, "shifted")
    return None


def theorem_classifier(tri: TriangleType, p: int) -> IntegralityVerdict:
    """Closed-form congruence classifier of the main theorem at any p
    coprime to the conductor; its range is p > 2*m1*m2 (2*m1 if inf)."""
    require_coprime(tri, p)
    return IntegralityVerdict(tri, p, _congruence_witness(tri, p))


def hecke_classifier(n: int, p: int) -> bool:
    """Hecke group (2, n, inf): J is p-integral iff p = +-1 mod n.

    Cross-checked at every p against the main classifier's congruences
    for the type (2, n), which hold iff p = +-1 or n +- 1 mod 2n; a
    mismatch would be a bug, not a math fact.
    """
    if n < 3:
        raise ValueError("Hecke parameter n must be >= 3")
    if p <= 3 or gcd(p, 2 * n) > 1:
        raise SharedFactor(f"need p > 3 with gcd(p, 2n) = 1; got p = {p}")
    result = p % n in (1, n - 1)
    if (theorem_classifier(TriangleType(2, n), p).witness is None) == result:
        raise InvariantViolation(
            f"Hecke criterion disagrees with the main classifier at p = {p}")
    return result


def almost_integral(tri: TriangleType) -> bool:
    """True iff the congruence classifier accepts every residue class
    coprime to the conductor (each class contains primes by Dirichlet,
    so this is equivalent to p-integrality for all large p)."""
    modulus = tri.conductor
    for r in range(1, modulus):
        if gcd(r, modulus) > 1:
            continue
        if _congruence_witness(tri, r) is None:
            return False
    return True


def takeuchi_scan(bound: int) -> list[TriangleType]:
    """All almost-integral types with m1 <= m2 <= bound, plus the
    cusp-heavy types (m1, inf) with m1 <= bound.

    Any type with an order outside {2, 3, 4, 6, inf} fails: its residue
    group mod 2*m_i contains a class distinct from +-1 and m_i +- 1,
    which kills both congruence branches.  The scan still enumerates
    residues directly rather than relying on that observation.
    """
    if bound < 6:
        raise ValueError("bound must be >= 6")
    found = []
    for m1 in range(2, bound + 1):
        for m2 in list(range(m1, bound + 1)) + [None]:
            try:
                tri = TriangleType(m1, m2)
            except ValueError:  # not hyperbolic
                continue
            if almost_integral(tri):
                found.append(tri)
    return found


def lemma_two_check(p: int) -> list[tuple]:
    """Brute-force the degree-1/degree-2 Schwarz coefficient criterion
    over F_p: C1 = sigma - 2 tau and 4 C2 = sigma^2 - 5 sigma tau
    + 5 tau^2 + sigma - tau agree for (a1,b1) and (a2,b2) iff
    {a2,b2} = {a1,b1} or {1-a1,1-b1}.  Returns the counterexamples.
    """
    if p <= 2:
        raise ValueError("need an odd prime")

    def cvals(a, b):
        sigma, tau = (a + b) % p, (a * b) % p
        c1 = (sigma - 2 * tau) % p
        four_c2 = (sigma * sigma - 5 * sigma * tau + 5 * tau * tau
                   + sigma - tau) % p
        return c1, four_c2

    counterexamples = []
    for a1 in range(p):
        for b1 in range(p):
            left = cvals(a1, b1)
            base = {a1, b1}
            comp = {(1 - a1) % p, (1 - b1) % p}
            for a2 in range(p):
                for b2 in range(p):
                    equal = cvals(a2, b2) == left
                    expected = {a2, b2} in (base, comp)
                    if equal != expected:
                        counterexamples.append((a1, b1, a2, b2))
    return counterexamples

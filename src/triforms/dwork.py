"""The Dwork map on rationals and the closed-form congruence
classifiers: the main integrality theorem for a triangle type and a
prime, the Hecke-group corollary, the almost-integrality test, and the
scan that reproduces the arithmetic (Takeuchi) list.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import gcd
from typing import List, Optional, Tuple

from .errors import InvariantViolation, PrimeDividesDenominator, SharedFactor
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
        raise PrimeDividesDenominator(f"p = {p} divides denominator {x2}")
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
    """The twisted parameters (delta_p(a), delta_p(b)), larger first."""
    da = dwork_map(params.a, p)
    db = dwork_map(params.b, p)
    return HGParams(max(da, db), min(da, db), params.triangle)


def dwork_set_condition(params: HGParams, p: int) -> bool:
    """The sufficient-condition set equality for p-integrality of the
    mirror map: {delta_p(a), delta_p(b)} equals {a, b} or {1-a, 1-b}."""
    require_coprime(params.triangle, p)
    twisted = dwork_images(params, p)
    got = {twisted.a, twisted.b}
    return got == {params.a, params.b} or got == {1 - params.a, 1 - params.b}


class Verdict(Enum):
    INTEGRAL = "integral"
    NON_INTEGRAL = "nonIntegral"
    BELOW_THEOREM_RANGE = "belowTheoremRange"


class Branch(Enum):
    PLAIN = "plain"      # p = epsilon mod 2m1 and p = eps'*eps mod 2m2
    SHIFTED = "shifted"  # p = m1+epsilon mod 2m1 and p = m2+eps'*eps mod 2m2


@dataclass(frozen=True)
class WitnessCase:
    epsilon: int
    epsilon_prime: int
    branch: Branch


@dataclass(frozen=True)
class IntegralityVerdict:
    triangle: TriangleType
    prime: int
    verdict: Verdict
    witness: Optional[WitnessCase] = None
    # present only below the theorem range: what the congruences would
    # say there; conjectural, never asserted
    conjectural_integral: Optional[bool] = None

    def to_json(self) -> dict:
        data = {
            "type": str(self.triangle),
            "p": self.prime,
            "verdict": self.verdict.value,
        }
        if self.witness is not None:
            data["witness"] = {
                "epsilon": self.witness.epsilon,
                "epsilon_prime": self.witness.epsilon_prime,
                "branch": self.witness.branch.value,
            }
        if self.conjectural_integral is not None:
            data["conjectural_integral"] = self.conjectural_integral
        return data


def _congruence_witness(tri: TriangleType, r: int) -> Optional[WitnessCase]:
    """Search the four (epsilon, epsilon') sign pairs and both branches
    for a residue r; the branch must be shared between the two moduli."""
    m1 = tri.m1
    if not tri.m2_finite:
        for eps in (1, -1):
            if r % (2 * m1) == eps % (2 * m1):
                return WitnessCase(eps, 1, Branch.PLAIN)
        return None
    m2 = tri.m2
    for eps in (1, -1):
        for eps_prime in (1, -1):
            ee = eps_prime * eps
            if (r % (2 * m1) == eps % (2 * m1)
                    and r % (2 * m2) == ee % (2 * m2)):
                return WitnessCase(eps, eps_prime, Branch.PLAIN)
            if (r % (2 * m1) == (m1 + eps) % (2 * m1)
                    and r % (2 * m2) == (m2 + ee) % (2 * m2)):
                return WitnessCase(eps, eps_prime, Branch.SHIFTED)
    return None


def theorem_classifier(tri: TriangleType, p: int) -> IntegralityVerdict:
    """Closed-form congruence classifier of the main theorem.

    Below the theorem range the congruence outcome is still reported,
    flagged conjectural, without a verdict either way.
    """
    require_coprime(tri, p)
    witness = _congruence_witness(tri, p)
    if p <= tri.conductor:  # the hypothesis p > 2*m1*m2 (2*m1 if m2 = inf)
        return IntegralityVerdict(
            tri, p, Verdict.BELOW_THEOREM_RANGE,
            conjectural_integral=witness is not None)
    if witness is None:
        return IntegralityVerdict(tri, p, Verdict.NON_INTEGRAL)
    return IntegralityVerdict(tri, p, Verdict.INTEGRAL, witness=witness)


def hecke_classifier(n: int, p: int) -> bool:
    """Hecke group (2, n, inf): J is p-integral iff p = +-1 mod n.

    For p > 4n the result is cross-checked against the main classifier
    for the type (2, n); a mismatch would be a bug, not a math fact.
    """
    if n < 3:
        raise ValueError("Hecke parameter n must be >= 3")
    if p <= 3 or gcd(p, 2 * n) > 1:
        raise SharedFactor(f"need p > 3 with gcd(p, 2n) = 1; got p = {p}")
    result = p % n in (1, n - 1)
    if p > 4 * n:
        verdict = theorem_classifier(TriangleType(2, n), p)
        if (verdict.verdict == Verdict.INTEGRAL) != result:
            raise InvariantViolation(
                f"Hecke criterion disagrees with the main classifier "
                f"at p = {p}")
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


def takeuchi_scan(bound: int) -> List[TriangleType]:
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
            if m2 is not None and QQ(1, m1) + QQ(1, m2) >= 1:
                continue
            tri = TriangleType(m1, m2)
            if almost_integral(tri):
                found.append(tri)
    return found


def lemma_two_check(p: int) -> Tuple[bool, List[tuple]]:
    """Brute-force the degree-1/degree-2 Schwarz coefficient criterion
    over F_p: C1 = sigma - 2 tau and 4 C2 = sigma^2 - 5 sigma tau
    + 5 tau^2 + sigma - tau agree for (a1,b1) and (a2,b2) iff
    {a2,b2} = {a1,b1} or {1-a1,1-b1}.  Returns (holds, counterexamples).
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
    return not counterexamples, counterexamples

"""Empirical verification layer: valuation profiles of the computed
expansions, the series-level Dwork congruences, and cross-route
consistency between the Halphen and hypergeometric pipelines.

The test object for integrality is the mirror map q(a,b|z) rather than
J itself: reversion of a unit-linear-coefficient series, scaling by a
p-unit kappa, and reciprocal of a unit-constant-term series all
preserve p-integrality in both directions for the primes in scope, so
the two statements are equivalent (asserted as a property test at
small order in the suite).

A truncated computation can only certify non-integrality; a clean
profile at order N is bounded evidence, never a proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Tuple

from .errors import FormulaMismatch, OrderShortfall, RouteMismatch
from .halphen import (
    HGParams,
    TriangleType,
    eisenstein_one,
    eisenstein_two,
    generator_range,
    hauptmodul_from_halphen,
    solve_halphen,
)
from .hypergeom import mirror_map, schwarz_map
from .dwork import dwork_map, require_coprime
from .rationals import padic_valuation, rational_to_str
from .series import (
    LaurentSeries,
    TruncatedSeries,
    exp_series,
    substitute_power,
    valuation_profile,
    ValuationProfile,
)


@dataclass(frozen=True)
class CongruenceReport:
    """Outcome of a coefficient-wise congruence check.

    failures lists (index, valuation found, valuation required); the
    congruence holds to the checked order iff failures is empty.
    """

    description: str
    prime: int
    orders_checked: int
    failures: tuple = ()
    details: dict = field(default_factory=dict)

    def holds(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "description": self.description,
            "p": self.prime,
            "N": self.orders_checked,
            "holds": self.holds(),
            "failures": [list(f) for f in self.failures],
            **self.details,
        }


class Classification(Enum):
    INTEGRAL_EVIDENCE = "integralEvidence"
    NON_INTEGRAL_EVIDENCE = "nonIntegralEvidence"


@dataclass(frozen=True)
class EmpiricalVerdict:
    triangle: TriangleType
    prime: int
    orders: int
    profile: ValuationProfile
    classification: Classification
    first_negative_index: Optional[int]

    def to_json(self) -> dict:
        return {
            "type": str(self.triangle),
            "p": self.prime,
            "N": self.orders,
            "verdict": self.classification.value,
            "firstNegativeIndex": self.first_negative_index,
            "minValuation": self.profile.min_valuation,
        }


def mirror_map_unit(tri: TriangleType, n_order: int) -> TruncatedSeries:
    """q(a,b|z)/z = exp(D) to order n_order; leading coefficient 1, and
    index i here is the coefficient of z^(i+1) in q(a,b|z)."""
    params = HGParams.for_type(tri)
    return exp_series(schwarz_map(params, n_order))


def empirical_integrality(tri: TriangleType, p: int,
                          n_order: int) -> EmpiricalVerdict:
    """Valuation profile of the mirror map q(a,b|z), normalized to
    leading coefficient 1; indices are exponents of z in q(a,b|z)."""
    require_coprime(tri, p)
    unit = mirror_map_unit(tri, n_order)
    base = valuation_profile(unit, p)
    # report indices as z-exponents of q(a,b|z): shift by one
    profile = ValuationProfile(
        prime=p, entries=base.entries,
        min_valuation=base.min_valuation, start_index=1)
    first_neg = profile.first_index_below(0)
    classification = (Classification.NON_INTEGRAL_EVIDENCE
                      if first_neg is not None
                      else Classification.INTEGRAL_EVIDENCE)
    return EmpiricalVerdict(tri, p, n_order, profile, classification, first_neg)


def _valuation_failures(diff: TruncatedSeries, p: int, required: int):
    failures = []
    for i, c in enumerate(diff.coeffs):
        v = padic_valuation(c, p)
        if v is not None and v < required:
            failures.append((i, v, required))
    return tuple(failures)


def _dwork_images(tri: TriangleType, p: int) -> HGParams:
    params = HGParams.for_type(tri)
    da = dwork_map(params.a, p).image
    db = dwork_map(params.b, p).image
    return HGParams(max(da, db), min(da, db), tri)


def dwork_congruence_check(tri: TriangleType, p: int,
                           n_order: int) -> CongruenceReport:
    """D(delta(a), delta(b) | z^p) - p D(a,b|z): every coefficient must
    have p-adic valuation >= 1.  Holds unconditionally (no integrality
    hypothesis)."""
    require_coprime(tri, p)
    params = HGParams.for_type(tri)
    lhs = substitute_power(schwarz_map(_dwork_images(tri, p), n_order), p)
    rhs = p * schwarz_map(params, n_order)
    failures = _valuation_failures(lhs - rhs, p, 1)
    return CongruenceReport(
        description=f"dwork-congruence {tri}", prime=p,
        orders_checked=n_order, failures=failures)


def schwarz_congruence_check(tri: TriangleType, p: int,
                             n_order: int) -> CongruenceReport:
    """D(delta(a), delta(b) | z) - D(a,b|z): valuation >= 1 everywhere
    exactly when the mirror map is p-integral (the biconditional is
    observed, not assumed)."""
    require_coprime(tri, p)
    params = HGParams.for_type(tri)
    lhs = schwarz_map(_dwork_images(tri, p), n_order)
    rhs = schwarz_map(params, n_order)
    failures = _valuation_failures(lhs - rhs, p, 1)
    return CongruenceReport(
        description=f"schwarz-congruence {tri}", prime=p,
        orders_checked=n_order, failures=failures)


def dieudonne_check(u: TruncatedSeries, p: int,
                    n_order: Optional[int] = None) -> CongruenceReport:
    """Additive Dieudonne-Dwork equivalence, evaluated on both sides:
    exp(u) has p-integral coefficients iff exp(u(z^p) - p u(z)) is
    1 mod p.  Both predicates are computed exactly and compared; the
    report holds iff they agree."""
    if n_order is None:
        n_order = u.truncation
    u = u.retruncate(min(u.truncation, n_order))
    eu = exp_series(u)
    exp_integral = valuation_profile(eu, p).is_integral()
    twisted = exp_series(substitute_power(u, p) - p * u)
    congruent = all(
        (v := padic_valuation(c, p)) is None or v >= 1
        for c in twisted.coeffs[1:])
    failures = () if exp_integral == congruent else (
        ("predicate-mismatch", exp_integral, congruent),)
    return CongruenceReport(
        description="dieudonne-dwork", prime=p, orders_checked=n_order,
        failures=failures,
        details={"exp_integral": exp_integral, "congruence_holds": congruent})


def cross_route_consistency(tri: TriangleType, n_order: int) -> CongruenceReport:
    """Halphen J must equal hypergeometric J coefficient-exactly through
    q^n_order.

    Each route loses orders to division and reversion: both J's reach
    q^n_order from inputs at order n_order + 2, and a shorter common
    truncation raises OrderShortfall.  Any disagreement is a hard error.
    """
    sol = solve_halphen(tri, n_order + 2)
    j_halphen = hauptmodul_from_halphen(sol)
    params = HGParams.for_type(tri)
    mirror = mirror_map(params, n_order + 2)
    j_hyper = mirror.J
    top = min(j_halphen.truncation, j_hyper.truncation)
    if top < n_order:
        raise OrderShortfall(
            f"cross-route {tri}: the routes reach q^{top}, not q^{n_order}")
    for e in range(-1, n_order + 1):
        lhs, rhs = j_halphen.coefficient(e), j_hyper.coefficient(e)
        if lhs != rhs:
            raise RouteMismatch(e, lhs, rhs)
    return CongruenceReport(
        description=f"cross-route {tri}", prime=0, orders_checked=n_order,
        details={"kappa": rational_to_str(mirror.kappa)})


def hauptmodul_theta(j: LaurentSeries) -> LaurentSeries:
    """J-dot in the derivative formulas: -theta(J).

    With this package's q-orientation (fixed by t3_1 - t1_1 = kappa > 0
    in the Halphen solution) the t-difference identities hold with a
    global minus sign on theta(J); validated exactly in the suite.
    """
    return -1 * j.theta()


def generators_via_j(tri: TriangleType, kind: int, k: int,
                     j: LaurentSeries) -> LaurentSeries:
    """E^{(1)}_{2k} = ((J-1)/J) (Jdot/(J-1))^k;
    E^{(2)}_{2k} = (Jdot/J)^k (J/(J-1))."""
    jdot = hauptmodul_theta(j)
    if kind == 1:
        return (j - 1) / j * (jdot / (j - 1)) ** k
    return (jdot / j) ** k * (j / (j - 1))


def generator_integrality(tri: TriangleType, p: int, n_order: int
                          ) -> List[Tuple[str, EmpiricalVerdict]]:
    """Every generator in the algebra lists, computed both as a
    t-product and by the J-derivative formula; the two must agree
    exactly, and each generator's valuation profile is returned."""
    require_coprime(tri, p)
    sol = solve_halphen(tri, n_order + 2)
    j = hauptmodul_from_halphen(sol)
    results = []
    for kind, builder in ((1, eisenstein_one), (2, eisenstein_two)):
        for k in generator_range(tri, kind):
            series = builder(k, sol)
            alt = generators_via_j(tri, kind, k, j)
            mismatch = alt.agrees_with(LaurentSeries.from_truncated(series))
            if mismatch is not None:
                raise FormulaMismatch(
                    f"E^({kind})_{2 * k} for {tri}: t-product and "
                    f"J-formula differ at q^{mismatch}")
            top = min(n_order, series.truncation)
            profile = valuation_profile(series.retruncate(top), p)
            first_neg = profile.first_index_below(0)
            cls = (Classification.NON_INTEGRAL_EVIDENCE if first_neg is not None
                   else Classification.INTEGRAL_EVIDENCE)
            results.append((
                f"E{kind}_{2 * k}",
                EmpiricalVerdict(tri, p, top, profile, cls, first_neg)))
    return results

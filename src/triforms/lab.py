"""Empirical verification layer: valuation profiles of the computed
expansions, the series-level Dwork congruences, and cross-route
consistency between the Halphen and hypergeometric pipelines.

Every p-adic check returns the ValuationProfile it decided on, with its
prime, the valuation of each coefficient checked, the bound they must
reach (0 for integrality, 1 for a congruence mod p) and the first index
that falls short.  Every integrality check has the shape "one type,
many primes": each check takes the per-type series it tests (the unit
q(a,b|z)/z, the Schwarz map D(a,b|z), the checked generators), which
the caller builds once at the largest order it needs, and does only the
per-prime work.

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

from enum import Enum

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
from .hypergeom import hauptmodul_from_mirror, mirror_map, schwarz_map
from .dwork import dwork_images, require_coprime
from .series import (
    LaurentSeries,
    TruncatedSeries,
    exp_series,
    power_ladder,
    substitute_power,
    theta_derivative,
    valuation_profile,
    ValuationProfile,
)


class Classification(Enum):
    INTEGRAL_EVIDENCE = "integralEvidence"
    NON_INTEGRAL_EVIDENCE = "nonIntegralEvidence"

    @classmethod
    def of(cls, profile: ValuationProfile) -> "Classification":
        return (cls.INTEGRAL_EVIDENCE if profile.holds()
                else cls.NON_INTEGRAL_EVIDENCE)


def mirror_map_unit(tri: TriangleType, n_order: int) -> TruncatedSeries:
    """q(a,b|z)/z = exp(D) to order n_order; leading coefficient 1, and
    index i here is the coefficient of z^(i+1) in q(a,b|z)."""
    params = HGParams.for_type(tri)
    return exp_series(schwarz_map(params, n_order))


def empirical_integrality(tri: TriangleType, p: int,
                          unit: TruncatedSeries) -> ValuationProfile:
    """Valuation profile of the mirror map q(a,b|z) = z unit, for unit
    from mirror_map_unit, to order unit.truncation; indices are
    exponents of z in q(a,b|z)."""
    require_coprime(tri, p)
    return valuation_profile(unit, p, start_index=1)


def _twisted_map(tri: TriangleType, p: int,
                 base: TruncatedSeries) -> TruncatedSeries:
    """D(delta(a), delta(b) | z) at the order of base = D(a,b|z); base
    itself when the Dwork image of (a, b) is (a, b)."""
    require_coprime(tri, p)
    params = HGParams.for_type(tri)
    twisted = dwork_images(params, p)
    return (base if twisted == params
            else schwarz_map(twisted, base.truncation))


def dwork_congruence_check(tri: TriangleType, p: int,
                           base: TruncatedSeries) -> ValuationProfile:
    """D(delta(a), delta(b) | z^p) - p D(a,b|z) for base = D(a,b|z):
    every coefficient must have p-adic valuation >= 1.  Holds
    unconditionally (no integrality hypothesis)."""
    lhs = substitute_power(_twisted_map(tri, p, base), p)
    return valuation_profile(lhs - p * base, p, bound=1)


def schwarz_congruence_check(tri: TriangleType, p: int,
                             base: TruncatedSeries) -> ValuationProfile:
    """D(delta(a), delta(b) | z) - D(a,b|z) for base = D(a,b|z):
    valuation >= 1 everywhere exactly when the mirror map is p-integral
    (the biconditional is observed, not assumed)."""
    return valuation_profile(_twisted_map(tri, p, base) - base, p, bound=1)


def dieudonne_check(u: TruncatedSeries, p: int
                    ) -> tuple[ValuationProfile, ValuationProfile]:
    """Both sides of the additive Dieudonne-Dwork equivalence, exactly
    to order u.truncation: the integrality profile of exp(u), and the
    mod-p profile of u(z^p) - p u(z), which first fails where that of
    exp(u(z^p) - p u(z)) - 1 does.  The equivalence holds when both
    profiles hold or neither does."""
    return (valuation_profile(exp_series(u), p),
            valuation_profile(substitute_power(u, p) - p * u, p, bound=1))


def cross_route_consistency(tri: TriangleType, n_order: int) -> None:
    """Halphen J must equal hypergeometric J coefficient-exactly through
    q^n_order.

    Each route loses orders to division and reversion: both J's reach
    q^n_order from inputs at order n_order + 2, and a shorter common
    truncation raises OrderShortfall.  Any disagreement raises
    RouteMismatch.
    """
    j_halphen = hauptmodul_from_halphen(solve_halphen(tri, n_order + 2))
    j_hyper = hauptmodul_from_mirror(
        mirror_map(HGParams.for_type(tri), n_order + 2), tri.kappa)
    top = min(j_halphen.truncation, j_hyper.truncation)
    if top < n_order:
        raise OrderShortfall(
            f"cross-route {tri}: the routes reach q^{top}, not q^{n_order}")
    e = j_halphen.agrees_with(j_hyper)
    if e is not None:
        raise RouteMismatch(e, j_halphen.coefficient(e), j_hyper.coefficient(e))


def generators_via_j(kind: int, ks: range, j: LaurentSeries
                     ) -> list[LaurentSeries]:
    """E^{(1)}_{2k} = ((J-1)/J) (Jdot/(J-1))^k and
    E^{(2)}_{2k} = (Jdot/J)^k (J/(J-1)) for each k in the ascending
    range ks, with Jdot = -theta(J): with the q-orientation fixed by
    t3_1 - t1_1 = kappa > 0 in the Halphen solution, the t-difference
    identities hold with that global minus sign (validated exactly in
    the suite).

    j is the Halphen J = B/q, whose simple pole hauptmodul_from_halphen
    guarantees (DegenerateDenominator otherwise), so J - 1 = (B - q)/q
    and Jdot = (B - theta(B))/q come from the power series B.  The ratio
    and the factor are formed once, and the powers come from the power
    ladder the t-products use."""
    if not ks:
        return []
    b = j.body
    j_minus_one = LaurentSeries(b - TruncatedSeries.identity(b.truncation), -1)
    jdot = LaurentSeries(b - theta_derivative(b), -1)
    if kind == 1:
        return power_ladder(j_minus_one / j, jdot / j_minus_one, ks)
    return power_ladder(j / j_minus_one, jdot / j, ks)


def checked_generators(tri: TriangleType, n_order: int
                       ) -> list[tuple[str, TruncatedSeries]]:
    """Every generator in the algebra lists, labelled, to order n_order.
    Each kind's list is built as t-products and by the J-derivative
    formula, each from one power ladder; the two must agree exactly
    through q^n_order, and a shorter common window raises OrderShortfall."""
    sol = solve_halphen(tri, n_order + 2)
    j = hauptmodul_from_halphen(sol)
    generators = []
    for kind, builder in ((1, eisenstein_one), (2, eisenstein_two)):
        ks = generator_range(tri, kind)
        for k, series, alt in zip(ks, builder(ks, sol),
                                  generators_via_j(kind, ks, j)):
            label = f"E{kind}_{2 * k}"
            top = min(alt.truncation, series.truncation)
            if top < n_order:
                raise OrderShortfall(
                    f"{label} for {tri}: the two formulas reach "
                    f"q^{top}, not q^{n_order}")
            mismatch = alt.agrees_with(LaurentSeries(series))
            if mismatch is not None:
                raise FormulaMismatch(
                    f"E^({kind})_{2 * k} for {tri}: t-product and "
                    f"J-formula differ at q^{mismatch}")
            generators.append((label, series.retruncate(n_order)))
    return generators


def generator_integrality(tri: TriangleType, p: int,
                          generators: list[tuple[str, TruncatedSeries]]
                          ) -> list[tuple[str, ValuationProfile]]:
    """The integrality profile of each generator from checked_generators."""
    require_coprime(tri, p)
    return [(label, valuation_profile(series, p))
            for label, series in generators]

"""Empirical verification layer: valuation profiles of the computed
expansions, the series-level Dwork congruences, and cross-route
consistency between the Halphen and hypergeometric pipelines.

Every check returns a PAdicCheck (series.py): its prime, the order
checked, the first index that falls short (not p-integral, or not 0
mod p) and the valuation there.  Every check has the shape "one type,
many primes": each takes the per-type series it tests (the mirror map
q(a,b|z), the series F and G of the Schwarz map D = G/F, the checked
generators), which the caller builds once at the largest order it
needs, and does only the per-prime work.

The twisted Schwarz congruence D' - D = 0 and the Dwork congruence
D'(z^p) - p D = 0 mod p, for D' = G'/F' the Schwarz map of the Dwork
image (delta(a), delta(b)), are decided without forming D' or
dividing: cross-multiplied,
D' - D = (G' F - G F') / (F F') and
D'(z^p) - p D = (G'(z^p) F - p G F'(z^p)) / (F F'(z^p)).  F and F' lie
in 1 + z Z_p[[z]], so each denominator U is a unit there, and for a
numerator X = Y U the coefficient X_k is Y_k plus a sum of Y_j U_(k-j)
over j < k.  While every Y_j below k has valuation >= 1, X_k has
valuation >= 1 exactly when Y_k has, and when Y_k falls short the
ultrametric inequality makes v(X_k) = v(Y_k).  So X and Y first fail
at the same index with the same valuation.  With s the larger p-adic
valuation of the denominators of G and G', p^s X is a product of
p-integral series, and its residues mod p^(s+1) decide it: a residue
is 0 exactly when that coefficient of X has valuation >= 1, and a
nonzero one gives the valuation.  The image (F', G') is read only
through z^(N // k), so a pair that is its own image is passed as it
is.  With F = F' = 1 and G = G' = u the Dwork form is u(z^p) - p u,
the congruence side of dieudonne_check.  The exact D' is kept in
tests/oracles.py as the oracle these checks are tested against.

The mirror map's verdict needs neither D nor exp(D).  For E = exp(D)
and w = D(z^p) - p D: if E_0..E_(k-1) are p-integral, the z^k
coefficient of E(z^p)/E^p = exp(w) is -p E_k plus a multiple of p,
since R(z^p) = R(z)^p mod p for R = E_0 + ... + E_(k-1) z^(k-1); so it
is 0 mod p exactly when E_k is p-integral.  For p odd, exp and log map
p z Z_p[[z]] onto 1 + p z Z_p[[z]] coefficient by coefficient, so w
first fails mod p where exp(w) - 1 does: E first fails integrality at
the z-index where w first fails mod p (the Dieudonne-Dwork lemma,
truncated).  w is the Dwork form above with (F, G) as its own image,
which mirror_integrality_check decides on residues.  An index of D or
E is one below the same coefficient of q(a,b|z) = z E, so the mirror
map's first failure is at z^(k+1).  p is odd wherever this runs: the
conductor 2 m1 m2 is even, and require_coprime rejects p = 2.
empirical_integrality, on the exact q(a,b|z) = z exp(D), stays its
oracle.

The index rule k = p c follows (after Dwork, "p-adic cycles", Publ.
Math. IHES 37, 1969, and Delaygue, Rivoal and Roques, Mem. AMS 246,
2017).  Let k be the first failing index of w (mirror_integrality_check)
and c that of the twisted Schwarz congruence D - D' mod p
(schwarz_congruence_check).  Write
D(z^p) - p D = (D - D')(z^p) + (D'(z^p) - p D).
The rule's hypothesis is Dwork's congruence, D'(z^p) - p D = 0 mod p
through z^(p c), which dwork_congruence_check decides: the package
checks it and does not assume it.  The first term is 0 off the
multiples of p, and its z^(p j) coefficient is (D - D')_j, of
valuation >= 1 for j < c.  So w is 0 mod p below z^(p c), and at
z^(p c) the ultrametric inequality gives it the valuation
v_p((D - D')_c) < 1 of the first term: k = p c, with equal valuations.
With Dwork's congruence through z^N, w holds through z^N exactly when
D - D' = 0 mod p through z^(N // p): k and c are None together.

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

from .errors import InvariantViolation, OrderShortfall, RouteMismatch
from .halphen import (
    HGParams,
    TriangleType,
    eisenstein_one,
    eisenstein_two,
    generator_range,
    hauptmodul_from_halphen,
    solve_halphen,
)
from .hypergeom import frobenius_basis, hauptmodul_from_mirror, mirror_map
from .dwork import dwork_images, require_coprime
from .rationals import int_valuation
from .series import (
    LaurentSeries,
    PAdicCheck,
    TruncatedSeries,
    exp_series,
    power_ladder,
    series_over,
    theta_derivative,
    valuation_profile,
)


def empirical_integrality(tri: TriangleType, p: int,
                          q: TruncatedSeries) -> PAdicCheck:
    """Valuation profile of the mirror map q = q(a,b|z) of tri's pair,
    from hypergeom.mirror_map, through z^(q.truncation); indices are
    exponents of z."""
    require_coprime(tri, p)
    return valuation_profile(q, p)


def congruence_on_residues(p: int, basis, twisted, power: int) -> PAdicCheck:
    """Decide v_p(G'(z^k) F - k G F'(z^k)) >= 1 through z^N for k = power,
    (F, G) = basis through z^N and (F', G') = twisted, read through
    z^(N // k), on residues mod p^(s+1), where s is the larger valuation
    of the denominators of G and G'.

    F, F', p^s G and p^s G' are p-integral and are reduced coefficient
    by coefficient; then p^s times the left side is their convolution,
    and a coefficient's residue is 0 exactly when its valuation is at
    least 1, and otherwise gives that valuation exactly.  A coefficient
    of F or F' that is not p-integral raises InvariantViolation.
    """
    (f, g), (f_twist, g_twist) = basis, twisted
    n = f.truncation
    s = max(int_valuation(g.den, p), int_valuation(g_twist.den, p))
    modulus = p ** (s + 1)

    def residues(series, shift, step=1):
        """p^shift c_i mod p^(s+1) for the coefficients c_i of series,
        at z^(step i), as an integer series through z^n."""
        v = int_valuation(series.den, p)
        if v > shift:
            raise InvariantViolation(
                f"p^{shift} times a coefficient is not {p}-integral")
        unit = p ** (shift - v) * pow(series.den // p ** v, -1, modulus)
        out = [0] * (n + 1)
        out[::step] = [x * unit % modulus
                       for x in series.nums[: n // step + 1]]
        return series_over(out, 1, n)

    lhs = (residues(g_twist, s, power) * residues(f, 0)
           - power * (residues(g, s) * residues(f_twist, 0, power)))
    for i, x in enumerate(lhs.nums):
        if x % modulus:
            return PAdicCheck(p, n, i, int_valuation(x % modulus, p) - s)
    return PAdicCheck(p, n, None, None)


def _twisted_congruence(tri: TriangleType, p: int, f: TruncatedSeries,
                        g: TruncatedSeries, power: int) -> PAdicCheck:
    """congruence_on_residues for f and g, the F and G of tri's pair,
    against the F and G of its Dwork image (delta(a), delta(b)) through
    z^(N // power): f and g themselves when the image is the pair."""
    require_coprime(tri, p)
    params = HGParams.for_type(tri)
    twisted = dwork_images(params, p)
    return congruence_on_residues(p, (f, g), (
        (f, g) if twisted == params
        else frobenius_basis(twisted, f.truncation // power)), power)


def dwork_congruence_check(tri: TriangleType, p: int, f: TruncatedSeries,
                           g: TruncatedSeries) -> PAdicCheck:
    """D(delta(a), delta(b) | z^p) - p D(a,b|z) mod p for f = F(a,b|z)
    and g = G(a,b|z), decided as G'(z^p) F - p G F'(z^p).  Holds
    unconditionally (no integrality hypothesis)."""
    return _twisted_congruence(tri, p, f, g, p)


def schwarz_congruence_check(tri: TriangleType, p: int, f: TruncatedSeries,
                             g: TruncatedSeries) -> PAdicCheck:
    """D(delta(a), delta(b) | z) - D(a,b|z) mod p for f = F(a,b|z) and
    g = G(a,b|z), decided as G' F - G F': it holds exactly when the
    mirror map is p-integral (the biconditional is observed, not
    assumed)."""
    return _twisted_congruence(tri, p, f, g, 1)


def mirror_integrality_check(tri: TriangleType, p: int, f: TruncatedSeries,
                             g: TruncatedSeries) -> PAdicCheck:
    """Whether the mirror map q(a,b|z) = z exp(D) is p-integral through
    z^(N+1), for f = F(a,b|z) and g = G(a,b|z) through z^N: by the
    Dieudonne-Dwork lemma, exactly when D(z^p) - p D = 0 mod p through
    z^N, decided as G(z^p) F - p G F(z^p), the Dwork form with the pair
    as its own image.

    first_failure is a z-index of D (and of exp(D)); the mirror map's
    first non-p-integral coefficient is at z^(first_failure + 1), the
    index empirical_integrality reports.  valuation is that of
    D(z^p) - p D there, not of the coefficient of exp(D)."""
    require_coprime(tri, p)
    return congruence_on_residues(p, (f, g), (f, g), p)


def dieudonne_check(u: TruncatedSeries, primes: list[int]
                    ) -> list[tuple[PAdicCheck, PAdicCheck]]:
    """Both sides of the additive Dieudonne-Dwork equivalence for each
    prime p in primes, exactly to order u.truncation: the integrality
    profile of exp(u), built once, and u(z^p) - p u(z) mod p, which
    first fails where exp(u(z^p) - p u(z)) - 1 does, decided as the
    Dwork form with F = 1 and G = u.  The equivalence holds when both
    sides hold or neither does."""
    e = exp_series(u)
    fg = (TruncatedSeries.one(u.truncation), u)
    return [(valuation_profile(e, p), congruence_on_residues(p, fg, fg, p))
            for p in primes]


def _require_agreement(what: str, x: LaurentSeries, y: LaurentSeries,
                       n_order: int) -> None:
    """The agreement contract of the cross-checks: x and y, two routes
    to one series, both reach q^n_order (OrderShortfall otherwise) and
    agree exactly through their common truncation (RouteMismatch at the
    first exponent where they differ otherwise); what names the check."""
    top = min(x.truncation, y.truncation)
    if top < n_order:
        raise OrderShortfall(
            f"{what}: the routes reach q^{top}, not q^{n_order}")
    e = x.agrees_with(y)
    if e is not None:
        raise RouteMismatch(what, e, x.coefficient(e), y.coefficient(e))


def cross_route_consistency(tri: TriangleType, n_order: int) -> None:
    """Halphen J must equal hypergeometric J coefficient-exactly through
    q^n_order, by _require_agreement: each route loses orders to
    division and reversion, and both J's reach q^n_order from inputs
    at order n_order + 2."""
    _require_agreement(
        f"cross-route {tri}",
        hauptmodul_from_halphen(solve_halphen(tri, n_order + 2)),
        hauptmodul_from_mirror(
            mirror_map(HGParams.for_type(tri), n_order + 2), tri.kappa),
        n_order)


def generators_via_j(kind: int, ks: range, j: LaurentSeries
                     ) -> list[LaurentSeries]:
    """E^{(1)}_{2k} = ((J-1)/J) (Jdot/(J-1))^k and
    E^{(2)}_{2k} = (Jdot/J)^k (J/(J-1)) for each k in the ascending
    range ks, with Jdot = -theta(J): with the q-orientation fixed by
    t3_1 - t1_1 = kappa > 0 in the Halphen solution, the t-difference
    identities hold with that global minus sign (validated exactly in
    the suite).

    j is the Halphen J = B/q, whose simple pole hauptmodul_from_halphen
    guarantees (InvariantViolation otherwise), so J - 1 = (B - q)/q
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
    formula, each from one power ladder; the two must reach q^n_order
    and agree exactly, by _require_agreement."""
    sol = solve_halphen(tri, n_order + 2)
    j = hauptmodul_from_halphen(sol)
    generators = []
    for kind, builder in ((1, eisenstein_one), (2, eisenstein_two)):
        ks = generator_range(tri, kind)
        for k, series, alt in zip(ks, builder(ks, sol),
                                  generators_via_j(kind, ks, j)):
            label = f"E{kind}_{2 * k}"
            _require_agreement(f"{label} for {tri}", alt,
                               LaurentSeries(series), n_order)
            generators.append((label, series.retruncate(n_order)))
    return generators


def generator_integrality(tri: TriangleType, p: int,
                          generators: list[tuple[str, TruncatedSeries]]
                          ) -> list[tuple[str, PAdicCheck]]:
    """The integrality profile of each generator from checked_generators."""
    require_coprime(tri, p)
    return [(label, valuation_profile(series, p))
            for label, series in generators]

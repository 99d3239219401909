from math import gcd

import hypothesis.strategies as st
import pytest
from hypothesis import settings

from triforms import lab
from triforms.halphen import HGParams, TriangleType, hauptmodul_from_halphen
from triforms.hypergeom import frobenius_basis, mirror_map
from triforms.lab import checked_generators
from triforms.rationals import QQ, primes
from triforms.series import TruncatedSeries

settings.register_profile("default", max_examples=50, deadline=None)
settings.load_profile("default")

small_rationals = st.builds(
    QQ, st.integers(min_value=-9, max_value=9), st.integers(min_value=1, max_value=9))

small_integers = st.integers(min_value=-5, max_value=5)

# every hyperbolic (m1, m2) with m1 <= m2 <= 12, and (m1, inf) for m1 <= 12
GRID_TYPES = [TriangleType(m1, m2) for m2 in range(3, 13)
              for m1 in range(2, m2 + 1) if m1 * m2 > m1 + m2] + [
    TriangleType(m1, None) for m1 in range(2, 13)]

# the classifier matrix of acceptance criteria 4, 6 and 13: every
# hyperbolic (m1, m2) with m1 <= m2 <= 8, (2,inf) and (3,inf)
CLASSIFIER_MATRIX = [t for t in GRID_TYPES
                     if (t.m2 <= 8 if t.m2_finite else t.m1 <= 3)]


@pytest.fixture(scope="session")
def criterion_13_cells():
    """Every cell of acceptance criterion 13, (tri, p, (F, G)): the types
    of CLASSIFIER_MATRIX, each prime 3 <= p <= 61 coprime to the
    conductor, and F and G of the type's pair through the window
    z^(2p + 20), retruncated from one build per type."""
    cells = []
    for tri in CLASSIFIER_MATRIX:
        coprime = [p for p in primes(3, 61) if gcd(p, tri.conductor) == 1]
        f, g = frobenius_basis(HGParams.for_type(tri), 2 * coprime[-1] + 20)
        cells += [(tri, p, tuple(s.retruncate(2 * p + 20) for s in (f, g)))
                  for p in coprime]
    return cells


@pytest.fixture(scope="session")
def criterion_11_cells():
    """Every cell of acceptance criterion 11, (tri, p, generators, j, q):
    the types (2,5), (3,4), (2,7) and (3,inf), each prime above the
    conductor and below 50 coprime to it, the checked generators through
    the window q^(2p + 20) and the mirror map q(a,b|z) through
    z^(2p + 21), each retruncated from one build per type at the top
    window, and the Halphen J that checked_generators built its J-formula
    route from: taken as it is built, not solved a second time."""
    cells = []
    for tri in (TriangleType(2, 5), TriangleType(3, 4), TriangleType(2, 7),
                TriangleType(3, None)):
        coprime = [p for p in primes(tri.conductor + 1, 49)
                   if gcd(p, tri.conductor) == 1]
        top = 2 * coprime[-1] + 20
        js = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lab, "hauptmodul_from_halphen",
                          lambda sol: js.append(hauptmodul_from_halphen(sol))
                          or js[-1])
            generators = checked_generators(tri, top)
        [j] = js
        q = mirror_map(HGParams.for_type(tri), top + 1)
        cells += [(tri, p, [(lbl, s.retruncate(2 * p + 20))
                            for lbl, s in generators],
                   j, q.retruncate(2 * p + 21)) for p in coprime]
    return cells


def series(trunc: int, elements=None):
    """Strategy for a TruncatedSeries of fixed truncation."""
    elements = small_rationals if elements is None else elements
    return st.lists(elements, min_size=0, max_size=trunc + 1).map(
        lambda cs: TruncatedSeries(cs, trunc))


def unit_series(trunc: int, elements=None):
    """Constant term 1."""
    elements = small_rationals if elements is None else elements
    return st.lists(elements, min_size=0, max_size=trunc).map(
        lambda cs: TruncatedSeries([QQ(1)] + cs, trunc))


def zero_constant_series(trunc: int, elements=None):
    """Constant term 0."""
    elements = small_rationals if elements is None else elements
    return st.lists(elements, min_size=0, max_size=trunc).map(
        lambda cs: TruncatedSeries([QQ(0)] + cs, trunc))


def unit_linear_series(trunc: int, elements=None):
    """s(0) = 0, s'(0) = 1 (revertible)."""
    elements = small_integers if elements is None else elements
    return st.lists(elements, min_size=0, max_size=trunc - 1).map(
        lambda cs: TruncatedSeries([QQ(0), QQ(1)] + [QQ(c) for c in cs], trunc))

import hypothesis.strategies as st
from hypothesis import settings

from triforms.halphen import TriangleType
from triforms.rationals import QQ
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

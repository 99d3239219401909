"""Exception hierarchy shared across the package."""


class TriformsError(Exception):
    """Base class for all package-specific errors."""


class InvariantViolation(TriformsError):
    """An internal cross-check failed: a bug in the package, not a
    mathematical fact."""


# --- series arithmetic ---------------------------------------------------

class ZeroConstantTerm(TriformsError):
    """Division by a series whose constant term vanishes."""


class NonzeroConstantTerm(TriformsError):
    """exp (or a z*Q[[z]] argument) requires constant term 0."""


class ConstantTermNotOne(TriformsError):
    """log requires constant term 1."""


class NotInvertible(TriformsError):
    """Compositional inversion needs s(0) = 0 and s'(0) != 0."""


# --- Halphen solver ------------------------------------------------------

class DegenerateDenominator(TriformsError):
    """t3 - t1 has zero linear coefficient; the Hauptmodul has no pole."""


# --- Dwork / classifiers -------------------------------------------------

class PrimeDividesDenominator(TriformsError):
    """The Dwork map needs p coprime to the denominator."""


class SharedFactor(TriformsError):
    """A classifier was called with gcd(p, 2*m1*m2) > 1."""


# --- verification lab ----------------------------------------------------

class RouteMismatch(TriformsError):
    """Two routes to one series disagree at some index: the Halphen and
    hypergeometric J, or a generator's t-product and J-formula."""

    def __init__(self, what, index, lhs, rhs):
        self.index = index
        self.lhs = lhs
        self.rhs = rhs
        super().__init__(
            f"{what}: the routes disagree at q^{index}: {lhs} vs {rhs}")


class OrderShortfall(TriformsError):
    """The computed series do not reach the order that was requested."""

"""Exception hierarchy shared across the package."""


class TriformsError(Exception):
    """Base class for all package-specific errors."""


class InvariantViolation(TriformsError):
    """An internal cross-check failed: a bug in the package, not a
    mathematical fact."""


class SeriesDomainError(TriformsError):
    """A series operation outside its domain: division by a series with
    constant term 0, exp or an inner composition argument with constant
    term != 0, log with constant term != 1, or reversion without
    s(0) = 0 and s'(0) != 0."""


class SharedFactor(TriformsError):
    """p shares a factor with a denominator it must be coprime to: the
    conductor 2*m1*m2 of a classifier, or the denominator of the Dwork
    map's argument."""


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

"""Exception types shared across the package."""


class QuadseqError(Exception):
    """Base class for all package-specific errors."""


class BasisMismatch(QuadseqError):
    """Two values living over different real bases were combined."""


class EmptyGeneratorSet(QuadseqError):
    """A monomial ideal or form was given no generators."""


class NonPositiveValue(QuadseqError):
    """A frame value that must be strictly positive was not."""


class AmbiguousDirection(QuadseqError):
    """The minimum frame value is attained by more than one direction."""


class DirectionNotMinimal(QuadseqError):
    """A scripted step names a direction whose value is not minimal."""


class IndexOutOfRange(QuadseqError, IndexError):
    """A step or direction index lies outside the valid range."""


class IncompleteCoverage(QuadseqError):
    """A direction word was required to use every direction but did not."""


class RatioUndefined(QuadseqError):
    """An order ratio could not be formed (denominator order is zero)."""


class NotTerminated(QuadseqError):
    """An iterative search exceeded its step budget."""

    def __init__(self, message: str, steps: int = 0):
        super().__init__(message)
        self.steps = steps


class CensusTooLarge(QuadseqError):
    """An exhaustive census would exceed its cap: a valuation-ideal
    staircase (``videals.CENSUS_CAP`` monomials) or the antichains of an
    order-drop sweep (``forms.ANTICHAIN_CAP``).

    ``estimate`` is the size that exceeded the cap.  For a staircase it
    is a proven upper bound, computed before any monomial is walked; for
    the antichains it is one past the cap, the count at which the
    enumeration stops before any sweep table is built, or the same number
    when the top degree's monomials or the single monomials alone prove
    the cap passed, before any monomial is listed.
    """

    def __init__(self, message: str, estimate: int = 0):
        super().__init__(message)
        self.estimate = estimate


class ConfigError(QuadseqError):
    """A scenario configuration is malformed or inconsistent."""


class UnknownCheck(QuadseqError, KeyError):
    """A check id is not in the registry."""

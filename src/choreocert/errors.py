"""Exception taxonomy shared by the whole package.

Every failure that can abort a certification attempt has its own class so
callers (and the CLI exit-code mapping) can react without string matching.
"""


class ChoreoCertError(Exception):
    """Base class for all package-specific errors."""


class DivisionByZeroInterval(ChoreoCertError):
    """Divisor interval contains zero; extended division is not supported."""


class EmptyIntersection(ChoreoCertError):
    """Intersection of two boxes is empty (the 'no zero' branch)."""


class SingularEnclosure(ChoreoCertError):
    """A pivot interval contains zero after preconditioning; the interval
    matrix cannot be certified regular at this width."""


class CollisionEnclosure(ChoreoCertError):
    """Some pairwise separation enclosure touches zero; the vector field is
    not defined on the whole box."""


class RoughEnclosureFailure(ChoreoCertError):
    """The a-priori enclosure for one integration step could not be
    validated; retry with a smaller step size."""


class NoCrossing(ChoreoCertError):
    """Step budget exhausted before the trajectory crossed the section."""


class NonTransversal(ChoreoCertError):
    """The transversality product dg.f contains zero on the crossing step."""


class DimensionMismatch(ChoreoCertError):
    """Operand shapes are incompatible."""


class GluingMismatch(ChoreoCertError):
    """A symmetry-unfolded junction residual excludes zero (implementation
    bug, not a mathematical failure)."""


class Diverged(ChoreoCertError):
    """Nonrigorous candidate refinement failed to converge."""


class RoundingModeError(Exception):
    """The FPU refused round-down or round-up, or arithmetic ignores one of
    them, so no enclosure can be trusted.  Not a ChoreoCertError: no handler
    that turns those into a verdict or a FAIL line may catch it."""

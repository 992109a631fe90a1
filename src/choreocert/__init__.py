"""Self-validating interval numerics and a prover for planar N-body
choreographies: interval Newton / Krawczyk certification on top of a
rigorous C1 Taylor-Lohner integrator, with machine-checkable certificates.
"""

from .boxes import IntervalMatrix, IntervalVector, solve_linear
from .convexity import verify_convexity
from .curves import unfold
from .errors import (
    ChoreoCertError,
    CollisionEnclosure,
    DimensionMismatch,
    Diverged,
    DivisionByZeroInterval,
    EmptyIntersection,
    GluingMismatch,
    NoCrossing,
    NonTransversal,
    RoughEnclosureFailure,
    SingularEnclosure,
)
from .interval import Interval, rounding_backend
from .problems import make_problem
from .rootfind import (
    CertifiableMap,
    CertificationJob,
    CertificationOutcome,
    certify,
)

__version__ = "0.1.0"

__all__ = [
    "Interval",
    "IntervalVector",
    "IntervalMatrix",
    "solve_linear",
    "rounding_backend",
    "make_problem",
    "certify",
    "CertifiableMap",
    "CertificationJob",
    "CertificationOutcome",
    "verify_convexity",
    "unfold",
    "ChoreoCertError",
    "DivisionByZeroInterval",
    "EmptyIntersection",
    "SingularEnclosure",
    "CollisionEnclosure",
    "RoughEnclosureFailure",
    "NoCrossing",
    "NonTransversal",
    "DimensionMismatch",
    "GluingMismatch",
    "Diverged",
    "__version__",
]

"""Interval Newton and Krawczyk certification of zeros of C1 maps.

The map is supplied as one callback, `enclose(x, X)`, that returns a
rigorous value enclosure at the point x and a rigorous derivative enclosure
over the box [X] together, so one flow can serve both (the prover's point
rides inside the box flow).  The certification loop computes the chosen
operator image T(x, [X]) and decides:

* T strictly inside [X]     -> exactly one zero in [X]      (UniqueZero)
* T disjoint from [X]       -> no zero in [X]               (NoZero)
* [X] inside T              -> the enclosures are too wide  (Inconclusive)
* otherwise                 -> shrink [X] to [X] & T, re-center, repeat.

`judge` is this rule; the certificate verifier applies the same function to
the stored images.  The interior-inclusion test is used for both operators:
the Krawczyk theorem demands it, and for Newton a boundary touch is
deliberately treated as not-included so the iteration continues instead of
over-claiming.

Inconclusive never silently mutates integration parameters; the caller (the
command-line driver) owns any retry policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Literal

import numpy as np

from .boxes import IntervalMatrix, IntervalVector, solve_linear
from .errors import EmptyIntersection, SingularEnclosure

Verdict = Literal["UniqueZero", "NoZero", "Inconclusive"]

MAX_ITER = 64  # every certification's cap; the reference proofs take one


@dataclass(frozen=True)
class CertifiableMap:
    """Value-plus-Jacobian-enclosure view of a C1 map F: R^n -> R^n:
    enclose(x, [X]) returns (F(x), DF([X]))."""

    dimension: int
    enclose: Callable[[np.ndarray, IntervalVector],
                      tuple[IntervalVector, IntervalMatrix]]


@dataclass
class CertificationJob:
    map: CertifiableMap
    x0: np.ndarray
    X: IntervalVector
    method: Literal["newton", "krawczyk"] = "newton"
    C: np.ndarray | None = None

    def __post_init__(self):
        self.x0 = np.asarray(self.x0, float)
        if self.x0.size != self.map.dimension or len(self.X) != self.map.dimension:
            raise ValueError("job dimensions are inconsistent")
        if not self.X.contains_point(self.x0):
            raise ValueError("x0 must lie inside the initial box")


@dataclass
class IterationRecord:
    index: int
    x: np.ndarray
    X: IntervalVector
    f_x: IntervalVector
    df_X: IntervalMatrix
    C: np.ndarray | None
    image: IntervalVector
    relation: str


@dataclass
class CertificationOutcome:
    verdict: Verdict
    operator_image: IntervalVector | None
    refined_box: IntervalVector | None
    iterations: int
    trace: list[IterationRecord] = field(default_factory=list)
    cause: str = ""


def newton_operator(x: np.ndarray, f_x: IntervalVector,
                    df_X: IntervalMatrix) -> IntervalVector:
    """N(x, [X]) = x - [DF([X])]^-1 F(x), via a verified linear solve."""
    return IntervalVector.point(x) - solve_linear(df_X, f_x)


def krawczyk_operator(x: np.ndarray, X: IntervalVector, f_x: IntervalVector,
                      df_X: IntervalMatrix, C: np.ndarray) -> IntervalVector:
    """K(x, [X], F) = x - C F(x) + (Id - C [DF([X])]) ([X] - x)."""
    n = len(X)
    Cm = IntervalMatrix.point(C)
    lin = IntervalMatrix.identity(n) - Cm.matmul(df_X)
    return (IntervalVector.point(x) - Cm.matvec(f_x)
            + lin.matvec(X - x))


def default_preconditioner(df_X: IntervalMatrix) -> np.ndarray:
    """Approximate inverse of the midpoint Jacobian, in plain floats."""
    return np.linalg.inv(df_X.mid())


def judge(X: IntervalVector, image: IntervalVector
          ) -> tuple[str, Verdict | None, IntervalVector | None]:
    """The one rule that turns an operator image over [X] into a verdict.

    Returns the relation of the image to [X] (interior, disjoint, inflating
    or overlap), the terminal verdict it settles (None: keep iterating) and
    the box that goes with it: the refined box for a verdict, the next
    iteration's box otherwise.  An overlap whose intersection comes up empty
    in floating point settles NoZero.
    """
    if image.subset_interior(X):
        return "interior", "UniqueZero", image.intersect(X)
    if image.disjoint(X):
        return "disjoint", "NoZero", None
    if X.subset(image):
        return "inflating", "Inconclusive", X
    try:
        return "overlap", None, X.intersect(image)
    except EmptyIntersection:
        return "overlap", "NoZero", None


def certify(job: CertificationJob) -> CertificationOutcome:
    """Run the certification loop until a verdict or `MAX_ITER`."""
    x = np.asarray(job.x0, float)
    X = job.X
    trace: list[IterationRecord] = []

    for it in range(1, MAX_ITER + 1):
        f_x, df_X = job.map.enclose(x, X)

        C = None
        try:
            if job.method == "newton":
                image = newton_operator(x, f_x, df_X)
            elif job.method == "krawczyk":
                C = job.C if job.C is not None else default_preconditioner(df_X)
                image = krawczyk_operator(x, X, f_x, df_X, C)
            else:
                raise ValueError(f"unknown method {job.method!r}")
        except SingularEnclosure as exc:
            return CertificationOutcome(
                verdict="Inconclusive", operator_image=None, refined_box=X,
                iterations=it, trace=trace,
                cause=f"derivative enclosure not certifiably regular: {exc}")

        relation, verdict, next_X = judge(X, image)
        trace.append(IterationRecord(
            index=it, x=x.copy(), X=X, f_x=f_x, df_X=df_X, C=C,
            image=image, relation=relation))

        if verdict is not None:
            cause = ""
            if relation == "inflating":
                ratio = float(np.max(image.diam() / np.maximum(X.diam(), 1e-300)))
                cause = (f"operator image inflates the box (ratio {ratio:.3g}); "
                         "tighten the integration parameters")
            return CertificationOutcome(
                verdict=verdict, operator_image=image, refined_box=next_X,
                iterations=it, trace=trace, cause=cause)
        X = next_X
        x = X.mid()

    return CertificationOutcome(
        verdict="Inconclusive", operator_image=trace[-1].image if trace else None,
        refined_box=X, iterations=MAX_ITER, trace=trace,
        cause="iteration limit reached")

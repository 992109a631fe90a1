"""Interval Newton and Krawczyk certification of zeros of C1 maps.

The job holds the map as one callback, `enclose(x, X)`, that returns a
rigorous value enclosure at the point x and a rigorous derivative enclosure
over the box [X] together, so one flow can serve both (the prover's point
rides inside the box flow).  The certification loop computes the chosen
operator image T(x, [X]) and decides:

* T strictly inside [X]     -> exactly one zero in [X]      (UniqueZero)
* T disjoint from [X]       -> no zero in [X]               (NoZero)
* [X] inside T              -> the enclosures are too wide  (Inconclusive)
* otherwise                 -> shrink [X] to [X] & T, re-center, repeat.

A derivative enclosure that cannot be certified regular (a pivot interval
holding zero, or a numerically singular midpoint for Krawczyk's C) stops
the loop Inconclusive.  Every call of `enclose` is one `IterationRecord` of
the trace, that stop included, with no image and the relation "singular";
the outcome reads its iteration count, operator image and image/box width
ratio from the trace.

`judge` is the rule above; the certificate verifier replays the loop, so
it applies the same function to the stored enclosures.  The
interior-inclusion test is used for both operators: the Krawczyk theorem
demands it, and for Newton a boundary touch is deliberately treated as
not-included so the iteration continues instead of over-claiming.

Inconclusive never silently mutates integration parameters; the caller (the
command-line driver) owns any retry policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from .boxes import (IntervalMatrix, IntervalVector, midpoint_inverse,
                    solve_linear)
from .errors import EmptyIntersection, SingularEnclosure

Verdict = Literal["UniqueZero", "NoZero", "Inconclusive"]

MAX_ITER = 64  # every certification's cap; the reference proofs take one


@dataclass
class CertificationJob:
    # enclose(x, [X]) returns (F(x), DF([X])) for a C1 map F: R^n -> R^n
    enclose: Callable[[np.ndarray, IntervalVector],
                      tuple[IntervalVector, IntervalMatrix]]
    x0: np.ndarray
    X: IntervalVector
    method: Literal["newton", "krawczyk"] = "newton"
    # Krawczyk's one C for the run; None: the midpoint inverse of the first
    # iteration's derivative enclosure
    C: np.ndarray | None = None

    def __post_init__(self):
        self.x0 = np.asarray(self.x0, float)
        if self.x0.size != len(self.X):
            raise ValueError("job dimensions are inconsistent")
        if not self.X.contains_point(self.x0):
            raise ValueError("x0 must lie inside the initial box")


@dataclass
class IterationRecord:
    x: np.ndarray
    X: IntervalVector
    f_x: IntervalVector
    df_X: IntervalMatrix
    C: np.ndarray | None
    image: IntervalVector | None  # None: the derivative stopped singular
    relation: str


@dataclass
class CertificationOutcome:
    verdict: Verdict
    refined_box: IntervalVector | None
    trace: list[IterationRecord]  # one record per enclosure, never empty
    cause: str = ""

    @property
    def iterations(self) -> int:
        return len(self.trace)

    @property
    def operator_image(self) -> IntervalVector | None:
        return self.trace[-1].image

    @property
    def ratio(self) -> float:
        """max w(image) / w(X) of the last record; inf for a singular
        stop, which has no image."""
        last = self.trace[-1]
        return np.inf if last.image is None else float(
            np.max(last.image.diam() / np.maximum(last.X.diam(), 1e-300)))


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
    C = job.C if job.method == "krawczyk" else None

    for _ in range(MAX_ITER):
        f_x, df_X = job.enclose(x, X)

        try:
            if job.method == "newton":
                image = newton_operator(x, f_x, df_X)
            elif job.method == "krawczyk":
                if C is None:  # the first iteration's midpoint inverse
                    C = midpoint_inverse(df_X)
                image = krawczyk_operator(x, X, f_x, df_X, C)
            else:
                raise ValueError(f"unknown method {job.method!r}")
        except SingularEnclosure as exc:
            trace.append(IterationRecord(x.copy(), X, f_x, df_X, C, None,
                                         "singular"))
            return CertificationOutcome(
                "Inconclusive", X, trace,
                f"derivative enclosure not certifiably regular: {exc}")

        relation, verdict, next_X = judge(X, image)
        trace.append(IterationRecord(x.copy(), X, f_x, df_X, C, image,
                                     relation))

        if verdict is not None:
            outcome = CertificationOutcome(verdict, next_X, trace)
            if relation == "inflating":
                outcome.cause = (f"operator image inflates the box (ratio "
                                 f"{outcome.ratio:.3g}); tighten the "
                                 "integration parameters")
            return outcome
        X = next_X
        x = X.mid()

    return CertificationOutcome("Inconclusive", X, trace,
                                "iteration limit reached")

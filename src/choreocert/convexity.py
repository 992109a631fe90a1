"""Rigorous convexity check for the lobes of the figure Eight.

Convexity holds when the curve traced by each body has nonvanishing
curvature away from the origin.  Per integration step and body the curve
piece is written as a graph (y over x when the x velocity excludes zero,
else x over y) and the second graph derivative must exclude zero.  The
known inflection at the origin is handled on the first step of the third
body: there the second derivative must contain zero while the third
derivative excludes it, so the derivative is monotone and the origin is its
only zero.

All time derivatives come from the same Taylor recurrences the integrator
uses, evaluated over each step's whole-step enclosure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dfield

import numpy as np

from . import kernels as kn
from .boxes import IntervalVector
from .errors import NotAGraph, StepTooCoarse
from .integrator import EnclosureStep, flow_to_section, poly_eval, step_start
from .interval import Interval
from .problems import ChoreographyProblem


@dataclass(frozen=True)
class GraphDerivatives:
    """First, second, third derivatives of one coordinate as a graph over
    the other, plus the time derivative of the independent coordinate."""

    axis: str                 # "y_of_x" or "x_of_y"
    independent_rate: Interval  # d(independent)/dt over the step
    slope: Interval
    second: Interval
    third: Interval


def graph_derivatives(dx1: Interval, dy1: Interval,
                      dx2: Interval, dy2: Interval,
                      dx3: Interval, dy3: Interval,
                      axis: str = "y_of_x") -> GraphDerivatives:
    """Graph derivatives from time derivatives of one body's coordinates.

    For the mirror axis the roles of x and y are exchanged.
    Requires the independent coordinate's time derivative to exclude zero.
    """
    if axis == "x_of_y":
        dx1, dy1 = dy1, dx1
        dx2, dy2 = dy2, dx2
        dx3, dy3 = dy3, dx3
    elif axis != "y_of_x":
        raise ValueError(f"unknown axis {axis!r}")
    if dx1.contains_zero():
        raise NotAGraph(f"independent rate {dx1} contains zero")

    inv1 = 1.0 / dx1
    inv2 = 1.0 / dx1.sqr()
    slope = dy1 * inv1
    second = (dy2 - dx2 * slope) * inv2
    third = ((dy3 * dx1 - dx3 * dy1
              + Interval.point(2.0) * dx2.sqr() * slope
              - Interval.point(2.0) * dx2 * dy2) * (inv2 * inv2)
             - dx2 * second * inv2)
    return GraphDerivatives(axis=axis, independent_rate=dx1, slope=slope,
                            second=second, third=third)


@dataclass(frozen=True)
class BodyStepCheck:
    step: int                 # 1-based, matching the results tables
    body: int                 # 1-based
    condition: str            # "curvature" or "inflection"
    derivs: GraphDerivatives
    passed: bool
    note: str = ""


def _time_derivatives(rec: EnclosureStep) -> kn.Pair:
    """Enclosures over the whole step of the first three time derivatives of
    every state component, as (3, n) arrays, from the step's stored Taylor
    layers.

    The m-th derivative has Taylor coefficients (j+m)!/j! c_{j+m}; the top
    coefficient comes from the stored Lagrange layer over the rough
    enclosure, so the truncated series is again a rigorous Taylor form.  The
    three series share one Horner pass: the shorter ones get leading zero
    coefficients, which the pass carries through exactly.
    """
    lo, hi = rec.layers
    order = lo.shape[0] - 1
    cl = np.vstack([lo, rec.rem[0]])
    ch = np.vstack([hi, rec.rem[1]])
    dl = np.zeros((order + 1, 3, lo.shape[1]))
    dh = np.zeros_like(dl)
    for m in (1, 2, 3):
        for j in range(order + 2 - m):
            fac = float(math.perm(j + m, m))
            # thin factors 1 and 2 scale exactly, as in `Interval`
            dl[j, m - 1], dh[j, m - 1] = (
                kn.scale(cl[j + m], ch[j + m], fac) if fac <= 2.0
                else kn.mul(cl[j + m], ch[j + m], fac, fac))
    return poly_eval((dl[:order], dh[:order]), (dl[order], dh[order]),
                     Interval(0.0, rec.h))


def resolve_condition(ds: tuple[Interval, ...],
                      inflection_step: bool) -> tuple[GraphDerivatives, str]:
    """Decide the convexity condition from six time-derivative enclosures.

    Tries the y-over-x graph first and falls back to the mirror axis.
    Normal pieces need a second graph derivative excluding zero; the flagged
    inflection piece needs the second to contain zero with a third that
    excludes it (so the second derivative is monotone and has one zero).
    Raises StepTooCoarse when no axis resolves a condition.
    """
    last_err: Exception | None = None
    for axis in ("y_of_x", "x_of_y"):
        try:
            gd = graph_derivatives(*ds, axis=axis)
        except NotAGraph as exc:
            last_err = exc
            continue
        if inflection_step:
            if gd.second.contains_zero() and not gd.third.contains_zero():
                return gd, "inflection"
        else:
            if not gd.second.contains_zero():
                return gd, "curvature"
    wanted = "inflection" if inflection_step else "curvature"
    raise StepTooCoarse(
        f"no {wanted} condition resolved on either axis ({last_err})")


def check_step(problem: ChoreographyProblem, rec: EnclosureStep,
               derivs: kn.Pair, body: int,
               first_step_origin_body: bool = False) -> BodyStepCheck:
    """Convexity condition for one body over one step, from the step's
    `_time_derivatives`."""
    ix, iy = problem.layout.body_position(body)
    dl, dh = derivs
    ds = tuple(Interval(float(dl[m, i]), float(dh[m, i]))
               for m in range(3) for i in (ix, iy))
    try:
        gd, condition = resolve_condition(ds, first_step_origin_body)
    except StepTooCoarse as exc:
        raise StepTooCoarse(
            f"step {rec.index + 1}, body {body + 1}: {exc}") from exc
    note = ("monotone second derivative; unique zero at origin"
            if condition == "inflection" else "")
    return BodyStepCheck(step=rec.index + 1, body=body + 1,
                         condition=condition, derivs=gd, passed=True,
                         note=note)


def starts_before_crossing(h: float, k: int, t_cross: Interval) -> bool:
    """Whether step k (0-based, size h) can begin before the crossing time;
    checking every such step covers the whole segment [0, crossing time]."""
    return step_start(h, k).lo < t_cross.hi


@dataclass
class ConvexityCertificate:
    problem: str
    h: float
    order: int
    passed: bool
    steps_checked: int
    origin_in_first_step: bool
    crossing_time: Interval | None
    checks: list[BodyStepCheck] = dfield(default_factory=list)
    failure: str = ""


def verify_convexity(problem: ChoreographyProblem, certified_box: IntervalVector,
                     h: float, order: int,
                     max_steps: int | None = None) -> ConvexityCertificate:
    """Follow the embedded certified box to the section and check every step
    and body.  Success means each lobe of the orbit is convex."""
    if order < 4:
        raise ValueError("third time derivatives need order >= 4")
    start = problem.embed_slab(certified_box, carry_transition=False)
    crossing = flow_to_section(problem.field, start, problem.section, h,
                               order, max_steps)

    # Origin membership for the inflection argument: the third body starts
    # at the origin exactly, so the first whole-step box contains it.
    first = crossing.steps[0]
    ox, oy = problem.layout.body_position(2)
    origin_ok = (first.whole[0][ox] <= 0.0 <= first.whole[1][ox]
                 and first.whole[0][oy] <= 0.0 <= first.whole[1][oy])

    n = 1
    while (n < len(crossing.steps)
           and starts_before_crossing(h, n, crossing.t_cross)):
        n += 1
    cert = ConvexityCertificate(
        problem=problem.key, h=h, order=order, passed=True, steps_checked=n,
        origin_in_first_step=bool(origin_ok), crossing_time=crossing.t_cross)
    if not origin_ok:
        cert.passed = False
        cert.failure = "origin not contained in the first step enclosure"
        return cert

    for rec in crossing.steps[:cert.steps_checked]:
        derivs = _time_derivatives(rec)
        for body in range(problem.n_bodies):
            special = (rec.index == 0 and body == 2)
            try:
                cert.checks.append(check_step(problem, rec, derivs, body,
                                              first_step_origin_body=special))
            except StepTooCoarse as exc:
                cert.passed = False
                cert.failure = str(exc)
                return cert
    return cert

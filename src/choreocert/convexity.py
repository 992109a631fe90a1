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
uses, evaluated over each step's whole-step enclosure, for all checked
steps in one pass.  The Eight flows its free state, bodies 1 and 2, and the
third body's derivatives are minus their sum (`expand_state`), as is its
position in the origin check.  The graph derivatives of both axes are then
evaluated on (step, body, axis) lanes of `kernels` arrays, and
`condition_holds`, the one rule that the verifier applies to stored rows
too, marks the lanes where a piece's condition holds; each piece keeps its
first such axis.
The check is one fixed computation, the Eight flowed under `POLICY`, so
`verify` binds a document's problem and parameters to the writer's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dfield

import numpy as np

from . import kernels as kn
from .boxes import IntervalVector
from .integrator import EnclosureStep, StepPolicy, flow_to_section, poly_eval
from .interval import Interval
from .problems import eight_problem

# The published row table is indexed by step at this h and order, and the
# checks read the flow's third time derivative, which needs order >= 4.
POLICY = StepPolicy(0.01, 7)

# Lane axis 0 writes y over x, lane axis 1 x over y.
AXES = ("y_of_x", "x_of_y")
# The third body starts at the origin, the Eight's inflection point, so its
# first step is the one piece whose curvature changes sign.
INFLECTION_PIECE = (1, 3)  # (step, body), both 1-based


@dataclass(frozen=True)
class GraphDerivatives:
    """First, second, third derivatives of one coordinate as a graph over
    the other, plus the time derivative of the independent coordinate."""

    axis: str                 # "y_of_x" or "x_of_y"
    independent_rate: Interval  # d(independent)/dt over the step
    slope: Interval
    second: Interval
    third: Interval


@dataclass(frozen=True)
class BodyStepCheck:
    step: int                 # 1-based, matching the results tables
    body: int                 # 1-based
    condition: str            # "curvature" or "inflection"
    derivs: GraphDerivatives


def condition(step: int, body: int) -> str:
    """The condition the piece of `body` over `step` must meet."""
    return "inflection" if (step, body) == INFLECTION_PIECE else "curvature"


def condition_holds(step, body, rate: kn.Pair, second: kn.Pair,
                    third: kn.Pair) -> np.ndarray:
    """Lanes where the piece of `body` over `step` (1-based, broadcast
    against the lanes) meets its condition on the lane's graph axis.

    The axis is a graph where the square of the independent rate, by which
    the graph formulas divide, excludes zero.  Normal pieces need a second
    graph derivative excluding zero; the inflection piece needs the second
    to contain zero with a third that excludes it, so the second derivative
    is monotone and has one zero.  A lane holds only where all three are
    intervals: finite endpoints in order.
    """
    valid = np.logical_and.reduce([np.isfinite(lo) & np.isfinite(hi)
                                   & (lo <= hi) for lo, hi in
                                   (rate, second, third)])
    curved = (second[0] > 0.0) | (second[1] < 0.0)
    monotone = (third[0] > 0.0) | (third[1] < 0.0)
    inflection = (step == INFLECTION_PIECE[0]) & (body == INFLECTION_PIECE[1])
    return (valid & (kn.sqr(*rate)[0] > 0.0)
            & np.where(inflection, ~curved & monotone, curved))


def graph_lanes(ind: tuple[kn.Pair, kn.Pair, kn.Pair],
                dep: tuple[kn.Pair, kn.Pair, kn.Pair]):
    """Rate, slope, second and third graph derivatives of the dependent
    coordinate over the independent one, on lanes of any shape, from the
    first three time derivatives of each.  The kernel calls follow the
    scalar formulas operation by operation, so every lane gets the bits
    `Interval` arithmetic gives.

    A lane whose rate squared contains zero is no graph: it divides by 1
    instead, so nothing raises, and `condition_holds` masks it out.
    """
    (x1, x2, x3), (y1, y2, y3) = ind, dep
    r2 = kn.sqr(*x1)
    graph = r2[0] > 0.0
    one = np.ones_like(r2[0])
    inv1 = kn.div(one, one, *(np.where(graph, v, 1.0) for v in x1))
    inv2 = kn.div(one, one, *(np.where(graph, v, 1.0) for v in r2))
    slope = kn.mul(*y1, *inv1)
    second = kn.mul(*kn.sub(*y2, *kn.mul(*x2, *slope)), *inv2)
    num = kn.sub(*kn.add(*kn.sub(*kn.mul(*y3, *x1), *kn.mul(*x3, *y1)),
                         *kn.mul(*kn.scale(*kn.sqr(*x2), 2.0), *slope)),
                 *kn.mul(*kn.scale(*x2, 2.0), *y2))
    third = kn.sub(*kn.mul(*num, *kn.mul(*inv2, *inv2)),
                   *kn.mul(*kn.mul(*x2, *second), *inv2))
    return x1, slope, second, third


def _time_derivatives(steps: list[EnclosureStep]) -> kn.Pair:
    """Enclosures over each whole step of the first three time derivatives
    of every state component, as (steps, 3, n) arrays, from the steps'
    stored Taylor layers in one pass; the steps share one size h.

    The m-th derivative has Taylor coefficients (j+m)!/j! c_{j+m}; the top
    coefficient comes from the stored Lagrange layer over the rough
    enclosure, so the truncated series is again a rigorous Taylor form.  The
    three series share one Horner pass: the shorter ones get leading zero
    coefficients, which the pass carries through exactly.
    """
    h = steps[0].h
    if any(rec.h != h for rec in steps):
        raise ValueError("one derivative pass needs steps of one size h")
    # (R+2, steps, n): the state layers, then the Lagrange layer
    cl, ch = (np.concatenate([np.stack([rec.layers[e] for rec in steps], 1),
                              np.stack([rec.rem[e] for rec in steps])[None]])
              for e in (0, 1))
    order = cl.shape[0] - 2
    dl = np.zeros((order + 1, len(steps), 3, cl.shape[2]))
    dh = np.zeros_like(dl)
    for m in (1, 2, 3):
        for j in range(order + 2 - m):
            dl[j, :, m - 1], dh[j, :, m - 1] = kn.scale(
                cl[j + m], ch[j + m], float(math.perm(j + m, m)))
    return poly_eval((dl[:order], dh[:order]), (dl[order], dh[order]),
                     Interval(0.0, h))


def starts_before_crossing(start: Interval, t_cross: Interval) -> bool:
    """Whether a step whose start time `start` encloses can begin before
    the crossing time: the lower end of its start lies below the crossing's
    upper end.  Checking every such step covers the whole segment
    [0, crossing time]."""
    return start.lo < t_cross.hi


@dataclass
class ConvexityCertificate:
    passed: bool
    steps_checked: int
    origin_in_first_step: bool
    crossing_time: Interval | None
    checks: list[BodyStepCheck] = dfield(default_factory=list)
    failure: str = ""


def verify_convexity(certified_box: IntervalVector) -> ConvexityCertificate:
    """Follow the Eight's embedded certified box to the section under
    `POLICY` and check every step and body.  Success means each lobe of the
    orbit is convex."""
    problem = eight_problem()
    start = problem.embed_slab(certified_box, carry_transition=False)
    crossing = flow_to_section(problem.field, start, problem.section, POLICY)

    # Origin membership for the inflection argument: the third body starts
    # at the origin exactly, so the first whole-step box contains it.
    layout, wl, wh = problem.expand_state(*crossing.steps[0].whole)
    ox, oy = layout.body_position(2)
    origin_ok = wl[ox] <= 0.0 <= wh[ox] and wl[oy] <= 0.0 <= wh[oy]

    # The step starts grow with k, so the checked steps are a prefix.
    n = max(1, sum(starts_before_crossing(rec.t_start, crossing.t_cross)
                   for rec in crossing.steps))
    cert = ConvexityCertificate(
        passed=True, steps_checked=n, origin_in_first_step=bool(origin_ok),
        crossing_time=crossing.t_cross)
    if not origin_ok:
        cert.passed = False
        cert.failure = "origin not contained in the first step enclosure"
        return cert

    # (steps, 3, 12): the derivatives of every orbit body's state; and
    # (bodies, 2): the position components, x then y
    _, dl, dh = problem.expand_state(*_time_derivatives(crossing.steps[:n]))
    pos = np.array([layout.body_position(b)
                    for b in range(problem.orbit_bodies)])

    def lanes(cols):
        return tuple((dl[:, m][:, cols], dh[:, m][:, cols]) for m in range(3))

    derivs = graph_lanes(lanes(pos), lanes(pos[:, ::-1]))
    holds = condition_holds(np.arange(1, n + 1)[:, None, None],
                            np.arange(1, len(pos) + 1)[None, :, None],
                            derivs[0], derivs[2], derivs[3])
    for s, b in np.ndindex(holds.shape[:2]):
        step, body = s + 1, b + 1
        axes = np.flatnonzero(holds[s, b])
        if not axes.size:
            cert.passed = False
            cert.failure = (f"step {step}, body {body}: no "
                            f"{condition(step, body)} condition resolved "
                            "on either axis")
            return cert
        at = (s, b, axes[0])
        rate, slope, second, third = (Interval(float(lo[at]), float(hi[at]))
                                      for lo, hi in derivs)
        cert.checks.append(BodyStepCheck(
            step=step, body=body, condition=condition(step, body),
            derivs=GraphDerivatives(AXES[axes[0]], rate, slope, second,
                                    third)))
    return cert

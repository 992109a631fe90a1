import math
from fractions import Fraction

import numpy as np
import pytest

from choreocert import convexity, problems
from choreocert.boxes import IntervalVector
from choreocert.convexity import (
    graph_derivatives,
    resolve_condition,
    verify_convexity,
)
from choreocert.dynamics import LinearField
from choreocert.errors import NotAGraph, StepTooCoarse
from choreocert.integrator import LohnerSet, step
from choreocert.interval import Interval


def thin(x):
    return Interval.point(x)


def circle_derivatives(t):
    """Time derivatives of (cos t, sin t) up to third order."""
    return (thin(-math.sin(t)), thin(math.cos(t)),
            thin(-math.cos(t)), thin(-math.sin(t)),
            thin(math.sin(t)), thin(-math.cos(t)))


class TestGraphDerivatives:
    def test_circle_second_derivative_identity(self):
        # on the unit circle y(x) has y'' = -1 / y^3
        t = math.pi / 2 + 0.1
        gd = graph_derivatives(*circle_derivatives(t), axis="y_of_x")
        y = math.sin(t)
        assert gd.second.contains(-1.0 / y ** 3) or \
            abs(gd.second.mid() + 1.0 / y ** 3) < 1e-12

    def test_straight_line(self):
        # x = t, y = 2t: slope 2, higher derivatives zero
        ds = (thin(1.0), thin(2.0), thin(0.0), thin(0.0), thin(0.0), thin(0.0))
        gd = graph_derivatives(*ds, axis="y_of_x")
        assert gd.slope == Interval.point(2.0)
        assert gd.second == Interval.point(0.0)
        assert gd.third == Interval.point(0.0)

    def test_mirror_axis_swaps_roles(self):
        t = 0.3
        gd = graph_derivatives(*circle_derivatives(t), axis="x_of_y")
        # x(y) on the circle: x'' = -1 / x^3
        x = math.cos(t)
        assert abs(gd.second.mid() + 1.0 / x ** 3) < 1e-12

    def test_not_a_graph_when_rate_straddles_zero(self):
        ds = (Interval(-0.1, 0.1), thin(1.0), thin(0.0), thin(0.0),
              thin(0.0), thin(0.0))
        with pytest.raises(NotAGraph):
            graph_derivatives(*ds, axis="y_of_x")

    def test_third_derivative_against_finite_differences(self):
        # numeric third graph derivative of y(x) for the circle at t0
        t0 = 1.1

        def yppp_fd():
            def ypp(t):
                gd = graph_derivatives(*circle_derivatives(t), axis="y_of_x")
                return gd.second.mid()
            eps = 1e-5
            dx_dt = -math.sin(t0)
            return (ypp(t0 + eps) - ypp(t0 - eps)) / (2 * eps) / dx_dt

        gd = graph_derivatives(*circle_derivatives(t0), axis="y_of_x")
        assert abs(gd.third.mid() - yppp_fd()) < 1e-5


class TestConditionLogic:
    def test_straight_line_fails_conditions(self):
        # degenerate flat curve: second derivative is exactly zero, so the
        # nonvanishing-curvature condition cannot hold on either axis
        ds = (thin(1.0), thin(2.0), thin(0.0), thin(0.0), thin(0.0), thin(0.0))
        with pytest.raises(StepTooCoarse):
            resolve_condition(ds, inflection_step=False)

    def test_mirror_fallback(self):
        # x rate straddles zero but y rate does not: the mirror axis resolves
        t = math.pi / 2
        ds = (Interval(-0.01, 0.01), thin(1.0),
              thin(-1.0), thin(0.0), thin(0.0), thin(-1.0))
        gd, condition = resolve_condition(ds, inflection_step=False)
        assert gd.axis == "x_of_y"
        assert condition == "curvature"

    def test_inflection_route(self):
        # second derivative contains zero, third excludes it
        ds = (thin(-0.7), thin(1.0), thin(0.0), Interval(-0.05, 0.05),
              thin(0.0), thin(-5.0))
        gd, condition = resolve_condition(ds, inflection_step=True)
        assert condition == "inflection"
        assert gd.second.contains_zero()
        assert not gd.third.contains_zero()

    def test_inflection_requires_monotone_second(self):
        ds = (thin(-0.7), thin(1.0), thin(0.0), Interval(-0.05, 0.05),
              thin(0.0), Interval(-1.0, 1.0))
        with pytest.raises(StepTooCoarse):
            resolve_condition(ds, inflection_step=True)


class _Stop(Exception):
    pass


def test_start_set_contains_the_box(monkeypatch):
    # Both callers flow the slab E(mid) + DE [X - mid]; its coordinates
    # must contain X - mid exactly, also where round-to-nearest rounds
    # inward, as it does for both components of this box.
    X = IntervalVector(np.array([-0.1, -0.9]), np.array([0.8, 0.1]))
    mid = X.mid()
    exact = [(Fraction(X.lo[i]) - Fraction(mid[i]),
              Fraction(X.hi[i]) - Fraction(mid[i])) for i in range(2)]
    assert Fraction(X.lo[0] - mid[0]) > exact[0][0]
    assert Fraction(X.hi[1] - mid[1]) < exact[1][1]

    seen = []
    from_slab = LohnerSet.from_slab.__func__

    def spy(cls, anchor, directions, coords, carry_transition=True):
        seen.append(coords)
        return from_slab(cls, anchor, directions, coords, carry_transition)

    def stop(*args, **kwargs):
        raise _Stop

    monkeypatch.setattr(LohnerSet, "from_slab", classmethod(spy))
    monkeypatch.setattr(convexity, "flow_to_section", stop)
    monkeypatch.setattr(problems, "flow_to_section", stop)
    prob = problems.eight_problem()
    with pytest.raises(_Stop):
        verify_convexity(prob, X, 0.01, 7)
    with pytest.raises(_Stop):
        problems.phi_jacobian(prob, X, 0.01, 7)
    assert len(seen) == 2
    for lo, hi in seen:
        for i, (elo, ehi) in enumerate(exact):
            assert Fraction(lo[i]) <= elo and Fraction(hi[i]) >= ehi, i


class TestTimeDerivativeOracle:
    """The whole-step derivative enclosures of one harmonic-oscillator step
    (x = cos t, v = -sin t) against 40-digit values of mpmath."""

    def test_contains_mpmath_values(self):
        mpmath = pytest.importorskip("mpmath")
        h, order = 0.125, 7
        field = LinearField(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        start = LohnerSet.from_box(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        _, rec = step(field, start, h, order)
        lo, hi = convexity._time_derivatives(rec)
        assert lo.shape == hi.shape == (3, 2)
        with mpmath.workdps(40):
            for tau in (0.0, h / 2, h):
                s, c = mpmath.sin(tau), mpmath.cos(tau)
                # rows m = 1, 2, 3; columns x = cos t and v = -sin t
                exact = ((-s, -c), (-c, s), (s, c))
                for m in range(3):
                    for comp in range(2):
                        assert (mpmath.mpf(lo[m, comp]) <= exact[m][comp]
                                <= mpmath.mpf(hi[m, comp])), (tau, m, comp)
        # one step of width h: the enclosures are not trivially wide
        assert np.all(hi - lo < 2 * h)

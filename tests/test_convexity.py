import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from choreocert import convexity, problems
from choreocert.boxes import IntervalVector
from choreocert.convexity import (
    AXES,
    condition,
    condition_holds,
    graph_lanes,
    starts_before_crossing,
    verify_convexity,
)
from choreocert.integrator import LohnerSet, StepPolicy, run_time, step
from choreocert.interval import Interval
from helpers import LinearField


def thin(x):
    return Interval.point(x)


def circle_derivatives(t):
    """Time derivatives of (cos t, sin t) up to third order."""
    return (thin(-math.sin(t)), thin(math.cos(t)),
            thin(-math.cos(t)), thin(-math.sin(t)),
            thin(math.sin(t)), thin(-math.cos(t)))


def scalar_graph_derivatives(dx1, dy1, dx2, dy2, dx3, dy3):
    """The reference: the graph formulas of y over x in scalar `Interval`
    arithmetic, (rate, slope, second, third)."""
    inv1 = 1.0 / dx1
    inv2 = 1.0 / dx1.sqr()
    slope = dy1 * inv1
    second = (dy2 - dx2 * slope) * inv2
    third = ((dy3 * dx1 - dx3 * dy1
              + Interval.point(2.0) * dx2.sqr() * slope
              - Interval.point(2.0) * dx2 * dy2) * (inv2 * inv2)
             - dx2 * second * inv2)
    return dx1, slope, second, third


def lane_pairs(rows):
    """Lanes from rows of six Intervals (dx1, dy1, dx2, dy2, dx3, dy3): the
    independent and dependent derivative pairs of y over x."""
    pairs = [(np.array([r[i].lo for r in rows]),
              np.array([r[i].hi for r in rows])) for i in range(6)]
    return tuple(pairs[0::2]), tuple(pairs[1::2])


def graph(ds, axis="y_of_x"):
    """`graph_lanes` on one lane, as Intervals (rate, slope, second, third)."""
    x, y = lane_pairs([ds])
    if axis == "x_of_y":
        x, y = y, x
    return tuple(Interval(float(lo[0]), float(hi[0]))
                 for lo, hi in graph_lanes(x, y))


def holds(ds, step, body):
    """`condition_holds` for one piece on both axes, in `AXES` order."""
    x, y = lane_pairs([ds])
    lanes = tuple((np.stack([xl, yl], -1), np.stack([xh, yh], -1))
                  for (xl, xh), (yl, yh) in zip(x, y))
    rate, _, second, third = graph_lanes(lanes, tuple(
        (lo[..., ::-1], hi[..., ::-1]) for lo, hi in lanes))
    return condition_holds(step, body, rate, second, third)[0]


class TestGraphDerivatives:
    def test_circle_second_derivative_identity(self):
        # on the unit circle y(x) has y'' = -1 / y^3
        t = math.pi / 2 + 0.1
        _, _, second, _ = graph(circle_derivatives(t))
        y = math.sin(t)
        assert second.lo <= -1.0 / y ** 3 <= second.hi or \
            abs(second.mid() + 1.0 / y ** 3) < 1e-12

    def test_straight_line(self):
        # x = t, y = 2t: slope 2, higher derivatives zero; 1/1 and 2 * 1 are
        # exact, and exact results stay exact under round-down
        ds = (thin(1.0), thin(2.0), thin(0.0), thin(0.0), thin(0.0), thin(0.0))
        _, slope, second, third = graph(ds)
        assert slope == Interval.point(2.0)
        assert second == Interval.point(0.0)
        assert third == Interval.point(0.0)

    def test_mirror_axis_swaps_roles(self):
        t = 0.3
        _, _, second, _ = graph(circle_derivatives(t), axis="x_of_y")
        # x(y) on the circle: x'' = -1 / x^3
        x = math.cos(t)
        assert abs(second.mid() + 1.0 / x ** 3) < 1e-12

    def test_not_a_graph_when_rate_straddles_zero(self):
        # the lane divides by 1 instead of raising and is masked out, also
        # where dividing by 1 would meet the piece's condition; so is a rate
        # whose square underflows
        def curved(rate):
            return (rate, thin(1.0), thin(1.0), thin(3.0), thin(0.0),
                    thin(0.0))

        def inflected(rate):
            return (rate, thin(1.0), thin(1.0), thin(1.0), thin(-5.0),
                    thin(0.0))

        assert holds(curved(thin(1.0)), 2, 1)[0]
        assert holds(inflected(thin(1.0)), 1, 3)[0]
        for rate in (Interval(-0.1, 0.1), thin(0.0), Interval(0.0, 1.0),
                     thin(1e-200)):
            assert not holds(curved(rate), 2, 1)[0]
            assert not holds(inflected(rate), 1, 3)[0]

    def test_third_derivative_against_finite_differences(self):
        # numeric third graph derivative of y(x) for the circle at t0
        t0 = 1.1

        def yppp_fd():
            def ypp(t):
                return graph(circle_derivatives(t))[2].mid()
            eps = 1e-5
            dx_dt = -math.sin(t0)
            return (ypp(t0 + eps) - ypp(t0 - eps)) / (2 * eps) / dx_dt

        third = graph(circle_derivatives(t0))[3]
        assert abs(third.mid() - yppp_fd()) < 1e-5


def thick(lo_min=-4.0):
    """Non-thin intervals of moderate size."""
    return st.tuples(st.floats(lo_min, 4.0),
                     st.floats(1e-12, 1.0)).map(lambda t: Interval(t[0],
                                                                   t[0] + t[1]))


# rates that keep away from zero, so the scalar reference does not raise
rates = st.tuples(thick(0.01), st.sampled_from((1.0, -1.0))).map(
    lambda t: t[0] if t[1] > 0 else -t[0])
rows = st.tuples(rates, thick(), thick(), thick(), thick(), thick())
thins = st.sampled_from([thin(v) for v in
                         (1.0, -1.0, 2.0, -2.0, 3.0, -0.5, 1.5, 0.0)])
thin_rows = st.tuples(st.sampled_from([thin(v) for v in
                                       (1.0, -1.0, 2.0, -2.0, 3.0, 1.5)]),
                      thins, thins, thins, thins, thins)


class TestLanesAgainstScalarReference:
    @given(st.lists(rows, min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_non_thin_lanes_are_bit_equal(self, lanes):
        x, y = lane_pairs(lanes)
        got = graph_lanes(x, y)
        for i, ds in enumerate(lanes):
            ref = scalar_graph_derivatives(*ds)
            for (lo, hi), r in zip(got, ref):
                assert (lo[i], hi[i]) == (r.lo, r.hi)

    @given(st.lists(thin_rows, min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_thin_lanes_contain_the_reference(self, lanes):
        # the scalar operators have no thin shortcuts: thin lanes are
        # bit-equal to them too
        x, y = lane_pairs(lanes)
        got = graph_lanes(x, y)
        for i, ds in enumerate(lanes):
            for (lo, hi), r in zip(got, scalar_graph_derivatives(*ds)):
                assert (lo[i], hi[i]) == (r.lo, r.hi)


class TestConditionLogic:
    def test_straight_line_fails_conditions(self):
        # degenerate flat curve: second derivative is exactly zero, so the
        # nonvanishing-curvature condition cannot hold on either axis
        ds = (thin(1.0), thin(2.0), thin(0.0), thin(0.0), thin(0.0), thin(0.0))
        assert not holds(ds, 2, 1).any()

    def test_mirror_fallback(self):
        # x rate straddles zero but y rate does not: the mirror axis resolves
        ds = (Interval(-0.01, 0.01), thin(1.0),
              thin(-1.0), thin(0.0), thin(0.0), thin(-1.0))
        ok = holds(ds, 2, 1)
        assert AXES[int(np.argmax(ok))] == "x_of_y"
        assert ok.tolist() == [False, True]
        assert condition(2, 1) == "curvature"

    def test_inflection_route(self):
        # second derivative contains zero, third excludes it: only the
        # inflection piece, step 1 of body 3, meets its condition so
        ds = (thin(-0.7), thin(1.0), thin(0.0), Interval(-0.05, 0.05),
              thin(0.0), thin(-5.0))
        assert condition(1, 3) == "inflection"
        assert holds(ds, 1, 3)[0]
        _, _, second, third = graph(ds)
        assert second.contains_zero()
        assert not third.contains_zero()
        for piece in ((1, 1), (1, 2), (2, 3)):
            assert condition(*piece) == "curvature"
            assert not holds(ds, *piece)[0]

    def test_inflection_requires_monotone_second(self):
        ds = (thin(-0.7), thin(1.0), thin(0.0), Interval(-0.05, 0.05),
              thin(0.0), Interval(-1.0, 1.0))
        assert not holds(ds, 1, 3).any()

    def test_lanes_that_are_no_intervals_never_hold(self):
        # endpoints nan, inf, or out of order, in each of the three places,
        # for a curvature piece and for the inflection piece
        one = (np.ones(3), np.full(3, 2.0))
        straddle = (np.full(3, -1.0), np.ones(3))
        bad = (np.array([np.nan, 1.0, 3.0]), np.array([2.0, np.inf, 2.0]))
        for piece, lanes in (((2, 1), [one, one, one]),
                             ((1, 3), [one, straddle, one])):
            assert condition_holds(*piece, *lanes).all()
            for i in range(3):
                edited = lanes[:i] + [bad] + lanes[i + 1:]
                assert not condition_holds(*piece, *edited).any()


class TestStepStart:
    @pytest.mark.parametrize("h", [0.01, 0.005, 0.002, 0.001])
    def test_crossing_at_h_is_not_after_step_one(self, h):
        # the integrator starts step 1 at exactly h, so a segment that ends
        # at [h, h] has one step to check, not two
        assert starts_before_crossing(run_time([]), Interval(h, h))
        assert not starts_before_crossing(run_time([h]), Interval(h, h))


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
        verify_convexity(X)
    with pytest.raises(_Stop):
        problems.phi_jacobian(prob, X, StepPolicy(0.01, 7))
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
        lo, hi = (a[0] for a in convexity._time_derivatives([rec]))
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


class TestOneDerivativePass:
    def oscillator_steps(self, h, n):
        field = LinearField(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        cur = LohnerSet.from_box(np.array([0.9, 0.0]), np.array([1.1, 0.1]))
        steps = []
        for k in range(n):
            cur, rec = step(field, cur, h, 7, t_start=run_time([h] * k))
            steps.append(rec)
        return steps

    def test_stacked_pass_is_the_per_step_pass(self):
        steps = self.oscillator_steps(0.125, 4)
        lo, hi = convexity._time_derivatives(steps)
        assert lo.shape == (4, 3, 2)
        for k, rec in enumerate(steps):
            one_lo, one_hi = convexity._time_derivatives([rec])
            assert np.array_equal(lo[k], one_lo[0])
            assert np.array_equal(hi[k], one_hi[0])

    def test_steps_of_two_sizes_are_refused(self):
        steps = self.oscillator_steps(0.125, 1) + self.oscillator_steps(0.25, 1)
        with pytest.raises(ValueError):
            convexity._time_derivatives(steps)

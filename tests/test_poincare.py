import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from choreocert.errors import NoCrossing, NonTransversal
from choreocert.integrator import (LohnerSet, SectionSpec, StepPolicy,
                                  flow_to_section, run_time)
from choreocert.interval import Interval
from helpers import LinearField, box_with_slab

HARMONIC = LinearField(np.array([[0.0, 1.0], [-1.0, 0.0]]))


def coordinate_section(index: int, dim: int, c: float = 1.0) -> SectionSpec:
    """g = c x_index, c = +-1, crossing from + to -."""
    def g(sl, sh):
        return Interval(float(sl[index]), float(sh[index])) * Interval(c)

    def dg(sl, sh):
        v = np.zeros(dim)
        v[index] = c
        return v, v

    return SectionSpec(g=g, dg=dg, crossing_sign="+-")


def contains(iv: Interval, x: float) -> bool:
    return iv.lo <= x <= iv.hi


def positions(cr) -> list[int]:
    """Positions in the flow's steps of the crossing zone's steps."""
    return [k for k, rec in enumerate(cr.steps)
            if any(rec is z for z in cr.zone)]


def thin(x, slab=False):
    x = np.asarray(x, float)
    return box_with_slab(x, x) if slab else LohnerSet.from_box(x, x)


class TestHarmonicCrossing:
    def test_crossing_state_and_time(self):
        sec = coordinate_section(0, 2)
        cr = flow_to_section(HARMONIC, thin([1.0, 0.0], slab=True),
                             sec, StepPolicy(0.01, 7))
        assert contains(cr.t_cross, math.pi / 2)
        assert cr.t_cross.diam() < 1e-10
        assert cr.state[0][1] <= -1.0 <= cr.state[1][1]
        assert cr.state[0][0] <= 0.0 <= cr.state[1][0]
        assert sec.gdot(*cr.state, HARMONIC).hi < 0.0

    def test_first_crossing_not_a_later_one(self):
        # from (1, 0) the first x = 0 crossing is at pi/2, not 3 pi/2
        sec = coordinate_section(0, 2)
        cr = flow_to_section(HARMONIC, thin([1.0, 0.0]), sec, StepPolicy(0.01, 7))
        assert cr.t_cross.hi < math.pi

    def test_requested_opposite_sign_crossing(self):
        # x = 0 rising, -x falling, happens at 3 pi / 2 starting from (1, 0)
        sec = coordinate_section(0, 2, -1.0)
        with pytest.raises(NonTransversal):
            # the start state is on the wrong side for -x to fall
            flow_to_section(HARMONIC, thin([1.0, 0.0]), sec, StepPolicy(0.01, 7))
        cr = flow_to_section(HARMONIC, thin([-1.0, 0.0]), sec, StepPolicy(0.01, 7))
        assert contains(cr.t_cross, math.pi / 2)

    def test_no_crossing_budget(self):
        # the circle never reaches x = 2, where 2 - x falls to 0: the flow
        # ends after the policy's budget of 10/h steps
        def g(sl, sh):
            return Interval(2.0 - float(sh[0]), 2.0 - float(sl[0]))

        def dg(sl, sh):
            return np.array([-1.0, 0.0]), np.array([-1.0, 0.0])

        sec = SectionSpec(g=g, dg=dg, crossing_sign="+-")
        policy = StepPolicy(0.5, 7)
        assert policy.budget == 20
        with pytest.raises(NoCrossing, match="within 20 steps"):
            flow_to_section(HARMONIC, thin([1.0, 0.0]), sec, policy)

    def test_tangential_crossing_rejected(self):
        # section x = 1 is tangent to the circle orbit at the start point:
        # g dips from 0 with gdot = v = 0 there; starting just inside makes
        # the section unreachable transversally
        def g(sl, sh):
            return Interval(float(sl[0]) - 1.0, float(sh[0]) - 1.0)

        def dg(sl, sh):
            return np.array([1.0, 0.0]), np.array([1.0, 0.0])

        sec = SectionSpec(g=g, dg=dg, crossing_sign="either")
        with pytest.raises((NonTransversal, NoCrossing)):
            flow_to_section(HARMONIC, thin([1.0, 0.0]), sec, StepPolicy(0.01, 7))

    def test_projected_transition_kills_flow_direction(self):
        # (Id - f dg/(dg.f)) V applied to the flow direction vanishes:
        # for the return map to the section, the image of f(x0) must be
        # (numerically) the zero vector
        sec = coordinate_section(0, 2)
        cr = flow_to_section(HARMONIC, thin([1.0, 0.0], slab=True),
                             sec, StepPolicy(0.01, 7))
        pl, ph = cr.projected
        f0 = np.array([0.0, -1.0])  # field at (1,0)
        img_lo = pl @ f0
        img_hi = ph @ f0
        lo = np.minimum(img_lo, img_hi)
        hi = np.maximum(img_lo, img_hi)
        assert np.all(lo <= 1e-8) and np.all(hi >= -1e-8)


class TestLocator:
    def test_crossing_on_a_step_boundary(self):
        # 157 h = pi/2 in floating point: the steps on both sides of the
        # boundary straddle the section, for the set's members that cross
        # within its 2e-6 spread in angle
        sec = coordinate_section(0, 2)
        h = (math.pi / 2) / 157
        box = box_with_slab([1.0 - 1e-6, -1e-6], [1.0 + 1e-6, 1e-6])
        cr = flow_to_section(HARMONIC, box.carrying(np.array([1.0, 0.0])),
                             sec, StepPolicy(h, 7))
        zone = [k for k, s in enumerate(cr.steps)
                if sec.g(*s.whole).contains_zero()]
        assert zone == positions(cr) == [156, 157]
        # step 156 ends within that spread, so the zone goes on; step 157
        # ends past the section, and the flow ends with it
        assert sec.g(*cr.steps[156].tight).contains_zero()
        assert sec.g(*cr.steps[157].tight).hi < 0.0
        assert len(cr.steps) == 158
        assert contains(cr.t_cross, math.pi / 2)
        assert cr.t_cross.diam() < 3e-6
        # the carried point's fresh flow from the box step 156 records,
        # shifted by that step's start, crosses on the boundary too, and
        # Newton in time pins it down to rounding level
        first = cr.zone[0]
        assert first is cr.steps[156]
        point = flow_to_section(HARMONIC, LohnerSet.from_box(*first.point),
                                sec, StepPolicy(first.h, 7))
        t_point = first.t_start + point.t_cross
        assert contains(t_point, math.pi / 2)
        assert t_point.diam() < 1e-10

    @pytest.mark.parametrize("delta", [1e-3, 0.05])
    def test_thick_box_encloses_every_member(self, delta):
        # from (x0, y0) = r (cos a, sin a) the rotation reaches x = 0 at
        # t = a + pi/2 in (0, -r); the section-to-section derivative is
        # d(0, -r)/d(x0, y0) = [[0, 0], [-x0/r, -y0/r]]
        sec = coordinate_section(0, 2)
        lo = np.array([1.0 - delta, -delta])
        hi = np.array([1.0 + delta, delta])
        cr = flow_to_section(HARMONIC, box_with_slab(lo, hi),
                             sec, StepPolicy(0.01, 7))
        corners = [np.array(c) for c in itertools.product(*zip(lo, hi))]
        for x0, y0 in corners + [0.5 * (lo + hi)]:
            r = math.hypot(x0, y0)
            assert contains(cr.t_cross, math.atan2(y0, x0) + math.pi / 2)
            state = np.array([0.0, -r])
            assert np.all((cr.state[0] <= state) & (state <= cr.state[1]))
            proj = np.array([[0.0, 0.0], [-x0 / r, -y0 / r]])
            pl, ph = cr.projected
            assert np.all((pl <= proj) & (proj <= ph))


def ulps_apart(t: Interval) -> int:
    """How many floats the ends of t lie apart (t >= 0)."""
    lo, hi = np.array([t.lo, t.hi]).view(np.int64)
    return int(hi - lo)


class TestStartTimes:
    @pytest.mark.parametrize("h", [0.01, (math.pi / 2) / 157])
    def test_each_start_is_run_time_of_the_sizes_before(self, h):
        # the flow stamps step i with the one sum the verifier also calls
        sec = coordinate_section(0, 2)
        cr = flow_to_section(HARMONIC, thin([1.0, 0.0]), sec, StepPolicy(h, 7))
        for i, rec in enumerate(cr.steps):
            t = run_time([r.h for r in cr.steps[:i]])
            assert (rec.t_start.lo, rec.t_start.hi) == (t.lo, t.hi)

    @pytest.mark.parametrize("seed", range(4))
    def test_encloses_the_exact_sum_thin_where_it_is_exact(self, seed):
        # sizes as drawn, and sizes on a dyadic grid, where every partial
        # sum is a float, so the kernels' sum is exact
        rng = np.random.default_rng(seed)
        drawn = rng.uniform(0.001, 0.03, 60)
        dyadic = np.round(drawn * 2 ** 12) / 2 ** 12
        for sizes, thin_sums in ((list(drawn), False), (list(dyadic), True)):
            for i in range(len(sizes) + 1):
                t = run_time(sizes[:i])
                exact = sum(map(Fraction, sizes[:i]), Fraction(0))
                assert Fraction(t.lo) <= exact <= Fraction(t.hi)
                if thin_sums:
                    assert Fraction(t.lo) == Fraction(t.hi) == exact

    def test_unequal_sizes_enclose_their_exact_sum(self):
        sizes = [0.01, 0.013, 0.0071, 0.02, 0.0199]
        for i in range(len(sizes) + 1):
            t = run_time(sizes[:i])
            exact = sum(map(Fraction, sizes[:i]), Fraction(0))
            assert Fraction(t.lo) <= exact <= Fraction(t.hi)
        # 0.01 + 0.013 is exactly the float 0.023, so that start is thin
        assert sum(map(Fraction, sizes[:2])) == Fraction(0.023)
        assert run_time(sizes[:2]) == Interval.point(0.023)

    @pytest.mark.parametrize("h", [0.01, 0.025, 0.0075, 0.004, 0.001])
    def test_one_size_stays_within_16_ulps(self, h):
        # one contraction, not a fold: the width does not grow with the
        # step count (13 to 16 floats apart at most, up to 1000 steps)
        for i in range(1001):
            t = run_time([h] * i)
            assert Fraction(t.lo) <= i * Fraction(h) <= Fraction(t.hi)
            assert ulps_apart(t) <= 16


class TestControlledFlow:
    # the harmonic oscillator from a box around (1, 0), its center riding
    TOL = 1e-13

    def controlled(self):
        sec = coordinate_section(0, 2)
        box = box_with_slab([1.0 - 1e-6, -1e-6], [1.0 + 1e-6, 1e-6])
        cr = flow_to_section(HARMONIC, box.carrying(np.array([1.0, 0.0])),
                             sec, StepPolicy(0.01, 7, self.TOL))
        return sec, cr

    def test_sizes_vary_and_the_crossing_holds(self):
        sec, cr = self.controlled()
        sizes = [rec.h for rec in cr.steps]
        assert sizes[0] == 0.01 and len(set(sizes)) > 1
        assert len(cr.steps) < 40       # at the one size 0.01, over 157
        for a, b in zip(cr.steps, cr.steps[1:]):
            assert 0.5 * a.h <= b.h <= 2.0 * a.h
            assert b.t_start.lo <= a.t_start.hi + a.h
        # the box's members cross within its 2e-6 spread in angle
        assert contains(cr.t_cross, math.pi / 2)
        assert cr.t_cross.diam() < 3e-6
        assert cr.state[0][1] <= -1.0 <= cr.state[1][1]

    def test_point_resumes_from_the_handoff_at_the_set_sizes(self):
        # the set's first zone step records the point's box at its start; a
        # fresh flow from there, first at that step's size, crosses on the
        # set's clock once shifted by the step's start
        sec, cr = self.controlled()
        first = cr.zone[0]
        assert first.point is not None and first is not cr.steps[0]
        point = flow_to_section(HARMONIC, LohnerSet.from_box(*first.point),
                                sec, StepPolicy(first.h, 7, self.TOL))
        assert point.steps[0].h == first.h
        assert point.steps[0].t_start == Interval(0.0)
        t_cross = first.t_start + point.t_cross
        assert contains(t_cross, math.pi / 2)
        assert t_cross.diam() < cr.t_cross.diam()
        assert not t_cross.disjoint(cr.t_cross)


class TestStepPolicy:
    TOL = TestControlledFlow.TOL

    def test_halved_halves_h_and_every_chosen_size(self):
        # the control's factor is (tol / w)^(1/(R+1)) and w scales with
        # h^(R+1), so dividing tol by 2^(R+1) halves each chosen size
        policy = StepPolicy(0.01, 7, self.TOL).halved()
        assert (policy.h, policy.order, policy.tol) == (0.005, 7,
                                                        self.TOL / 2 ** 8)
        assert StepPolicy(0.01, 7).halved() == StepPolicy(0.005, 7)
        # a retry runs from step 0 and chooses its own sizes
        given = StepPolicy(0.01, 7, self.TOL, (0.01, 0.02)).halved()
        assert given == StepPolicy(0.005, 7, self.TOL / 2 ** 8)

    def test_following_takes_the_given_sizes_then_the_control(self):
        # sizes the control would not choose, then the control's own
        sec = coordinate_section(0, 2)
        given = [0.01, 0.02, 0.04]
        policy = StepPolicy(0.01, 7, self.TOL, given=tuple(given))
        cr = flow_to_section(HARMONIC, thin([1.0, 0.0]), sec, policy)
        taken = [rec.h for rec in cr.steps]
        assert taken[:3] == given
        assert taken[3] == policy.size(3, cr.steps[2]) != 0.04
        for k in range(4, len(cr.steps)):
            assert cr.steps[k].h == policy.size(k, cr.steps[k - 1])
        assert contains(cr.t_cross, math.pi / 2)

    def test_given_sizes_follow_the_rule(self):
        StepPolicy(0.01, 7, self.TOL, (0.01, 0.02, 0.01, 0.005))
        StepPolicy(0.01, 7, None, (0.01, 0.01))
        for tol, given in ((self.TOL, (0.02,)), (self.TOL, (0.01, 0.021)),
                           (self.TOL, (0.01, 0.0049)), (None, (0.01, 0.02)),
                           (self.TOL, (0.01, math.inf)),
                           (self.TOL, (0.01, math.nan))):
            with pytest.raises(ValueError, match="given size"):
                StepPolicy(0.01, 7, tol, given)

    def test_budget_is_ten_over_h(self):
        assert StepPolicy(0.01, 7).budget == 1000
        assert StepPolicy(1e-5, 7).budget == 10 ** 6

    @pytest.mark.parametrize("fields, name", [
        ((0.0, 7), "h"), ((math.inf, 7), "h"), ((1e-320, 7), "h"),
        ((1e-300, 7), "h"), ((9.99e-6, 7), "h"),
        ((math.nan, 7), "h"), ((-0.01, 7), "h"),
        ((0.01, 0), "order"), ((0.01, True), "order"), ((0.01, 7.0), "order"),
        ((0.01, 7, -1e-15), "tol"), ((0.01, 7, math.inf), "tol"),
    ], ids=["h-zero", "h-inf", "h-tiny", "h-past-the-budget",
            "h-below-1e-5", "h-nan", "h-negative", "order-zero",
            "order-true", "order-float", "tol-negative", "tol-inf"])
    def test_refuses_what_no_run_can_use(self, fields, name):
        with pytest.raises(ValueError, match=f"^{name} must"):
            StepPolicy(*fields)

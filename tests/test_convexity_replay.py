"""Whole-trajectory convexity properties of the certified Eight: refinement
under step halving, and agreement with a nonrigorous curvature sweep."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from choreocert import convexity
from choreocert.boxes import IntervalVector
from choreocert.convexity import verify_convexity
from choreocert.integrator import StepPolicy
from choreocert.interval import Interval
from choreocert.problems import eight_problem

EIGHT_X0 = np.array([0.347116768716, 0.532724944657])


def mag(iv: Interval) -> float:
    """max |x| over the interval."""
    return max(abs(iv.lo), abs(iv.hi))


@pytest.fixture(scope="module")
def certified_box():
    return IntervalVector.box(EIGHT_X0, 1e-6)


@pytest.fixture(scope="module")
def cert_h(certified_box):
    return verify_convexity(certified_box)


@pytest.fixture(scope="module")
def cert_h_half(certified_box):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(convexity, "POLICY", StepPolicy(0.005, 7))
        return verify_convexity(certified_box)


@pytest.mark.slow
class TestStepRefinement:
    def test_halved_step_passes_with_doubled_count(self, cert_h, cert_h_half):
        assert cert_h.passed and cert_h_half.passed
        assert cert_h_half.steps_checked in range(2 * cert_h.steps_checked - 3,
                                                  2 * cert_h.steps_checked + 4)

    def test_halved_step_enclosures_refine(self, cert_h, cert_h_half):
        # every half-step second-derivative enclosure lies inside the hull
        # of the covering coarse step and its neighbours (same graph axis),
        # except where a graph axis is close to singular (the independent
        # rate passing through zero makes the magnitudes blow up just before
        # the checker switches axes)
        coarse = {(c.step, c.body, c.derivs.axis): c.derivs.second
                  for c in cert_h.checks}
        checked = 0
        for c in cert_h_half.checks:
            if mag(c.derivs.second) > 1e3:
                continue
            j = (c.step + 1) // 2  # coarse step covering this half step
            hull = None
            for jj in (j - 1, j, j + 1):
                key = (jj, c.body, c.derivs.axis)
                if key in coarse:
                    iv = coarse[key]
                    hull = iv if hull is None else hull.hull(iv)
            if hull is None or mag(hull) > 1e3:
                continue
            checked += 1
            assert c.derivs.second.subset(hull), (c.step, c.body)
        # some pairs are filtered (different axis choices between the two
        # runs, near-singular magnitudes); most must remain comparable
        assert checked > 0.8 * len(cert_h_half.checks)


@pytest.mark.slow
class TestCurvatureSoundness:
    def test_nonrigorous_curvature_positive_away_from_origin(self, cert_h):
        # independent check of what convexity certifies: along the true
        # orbit the curvature magnitude has a positive lower bound away
        # from the known inflection at the origin
        def field(t, s):
            q = s[:6].reshape(3, 2)
            v = s[6:].reshape(3, 2)
            acc = np.zeros((3, 2))
            for i in range(3):
                for j in range(3):
                    if i != j:
                        d = q[j] - q[i]
                        acc[i] += d / np.linalg.norm(d) ** 3
            return np.concatenate([v.ravel(), acc.ravel()])

        # the three bodies' state: the Eight's free state, expanded
        prob = eight_problem()
        s0 = prob.expand_state(*(prob.embed_point(EIGHT_X0),) * 2)[1]
        t_end = cert_h.crossing_time.hi
        sol = solve_ivp(field, (0.0, t_end), s0, method="DOP853",
                        rtol=1e-11, atol=1e-12, dense_output=True)
        ts = np.linspace(0.0, t_end, 10_000)
        states = sol.sol(ts)
        worst = np.inf
        for i in range(3):
            x, y = states[2 * i], states[2 * i + 1]
            vx, vy = states[6 + 2 * i], states[7 + 2 * i]
            acc = np.array([field(0, states[:, k])[6 + 2 * i:8 + 2 * i]
                            for k in range(0, len(ts), 25)])
            vxs, vys = vx[::25], vy[::25]
            kappa = (vxs * acc[:, 1] - vys * acc[:, 0]) \
                / (vxs ** 2 + vys ** 2) ** 1.5
            dist = np.hypot(x[::25], y[::25])
            away = dist > 0.05
            worst = min(worst, np.min(np.abs(kappa[away])))
        assert worst > 0.1


import numpy as np
import pytest

from choreocert.boxes import IntervalVector
from choreocert.integrator import StepPolicy
from choreocert.curves import (UnfoldResult, unfold, write_curve_file,
                               write_segment_file)
from choreocert.interval import Interval
from choreocert.problems import (
    chain6_problem,
    eight_problem,
    gerver_problem,
    phi_jacobian,
)

EIGHT_X0 = np.array([0.347116768716, 0.532724944657])


@pytest.fixture(scope="module")
def eight_unfold():
    prob = eight_problem()
    ev = phi_jacobian(prob, IntervalVector.box(EIGHT_X0, 1e-6), StepPolicy(0.01, 7))
    return prob, unfold(prob, ev.crossing)


class TestEightUnfold:
    def test_junction_residuals_contain_zero(self, eight_unfold):
        _, result = eight_unfold
        assert result.residuals
        for name, r in result.residuals:
            assert r.contains_zero(), name
        # residual widths scale with the crossing spread of the certified
        # box run (monodromy norm times the box diameter, about 1e-4 here)
        assert max(max(abs(r.lo), abs(r.hi))
                   for _, r in result.residuals) < 1e-3

    def test_period_is_twelve_segments(self, eight_unfold):
        _, result = eight_unfold
        period = result.period
        assert period.lo <= 12 * 0.5271592126318686 <= period.hi

    def test_curve_passes_through_origin_with_two_lobes(self, eight_unfold):
        _, result = eight_unfold
        c = result.curve
        assert np.min(np.hypot(c[:, 1], c[:, 2])) < 1e-12
        # lobes on both sides of the y axis
        assert c[:, 1].max() > 1.0 and c[:, 1].min() < -1.0

    def test_segment_columns(self, eight_unfold):
        prob, result = eight_unfold
        # time, then the (x, y) track of each of the three bodies
        assert prob.orbit_bodies == 3
        assert result.segment.shape[1] == 1 + 2 * prob.orbit_bodies
        assert result.segment[0, 0] == 0.0


class TestChainUnfolds:
    @pytest.mark.slow
    def test_gerver_two_axis_self_intersections(self):
        prob = gerver_problem()
        ev = phi_jacobian(prob, IntervalVector.box(
            np.array([1.382857, 1.87193510824, 0.584872579881]), 1e-7),
            StepPolicy(0.002, 6))
        result = unfold(prob, ev.crossing)
        for name, r in result.residuals:
            assert r.contains_zero(), name
        c = result.curve
        # doubly symmetric linear chain: all curve crossings of the x axis
        t, x, y = c[:, 0], c[:, 1], c[:, 2]
        crossings = []
        for i in range(len(y) - 1):
            if y[i] == 0.0 and y[i + 1] != 0.0:
                crossings.append((t[i], x[i]))
            elif y[i] * y[i + 1] < 0:
                w = abs(y[i]) / (abs(y[i]) + abs(y[i + 1]))
                crossings.append((t[i] * (1 - w) + t[i + 1] * w,
                                  x[i] * (1 - w) + x[i + 1] * w))
        xs = sorted(x for _, x in crossings)
        # four crossing locations; the inner two are visited at two distinct
        # times each (transversal self-intersections), the outer two are the
        # chain's end turnarounds
        assert len(crossings) == 6
        inner = [x for x in xs if abs(x) < 1.0]
        assert len(inner) == 4
        assert np.allclose(np.abs(inner), 0.3496, atol=1e-3)

    @pytest.mark.slow
    def test_chain6_antipodal_expansion(self):
        prob = chain6_problem()
        ev = phi_jacobian(prob, IntervalVector.box(
            np.array([-0.635277524319, 0.140342838651, 0.797833002006,
                      0.100637737317, -2.03152227864]), 1e-9),
            StepPolicy(0.001, 9))
        result = unfold(prob, ev.crossing)
        for name, r in result.residuals:
            assert r.contains_zero(), name
        # segment columns carry all six bodies
        assert result.segment.shape[1] == 1 + 12
        # antipodal pairing at every sample
        seg = result.segment
        for i in range(3):
            a = seg[:, 1 + 2 * i:3 + 2 * i]
            b = seg[:, 1 + 2 * (i + 3):3 + 2 * (i + 3)]
            assert np.max(np.abs(a + b)) < 1e-12


class TestWrittenSamples:
    # a zero that a symmetry map or a midpoint leaves as -0 or a tiny
    # negative prints as 0; a negative that shows a digit keeps its sign
    def test_a_field_that_reads_zero_has_no_sign(self, tmp_path):
        rows = np.array([[-0.0, -5.6e-17, -2.8e-31],
                         [0.5, -2e-15, 0.25],
                         [1.0, -0.125, -4e-13]])
        result = UnfoldResult(period=Interval(1.0, 1.0), curve=rows,
                              segment=rows, residuals=[])
        prob = eight_problem()
        write_curve_file(str(tmp_path / "curve"), prob, result)
        write_segment_file(str(tmp_path / "segment"), prob, result)
        for name, t_format in (("curve", ".12f"), ("segment", ".15f")):
            got = [line.split() for line in
                   (tmp_path / name).read_text().splitlines()
                   if not line.startswith("#")]
            assert got == [
                [format(0.0, t_format), "0.000000000000000", "0.000000000000000"],
                [format(0.5, t_format), "-0.000000000000002", "0.250000000000000"],
                [format(1.0, t_format), "-0.125000000000000", "-0.000000000000400"],
            ], name

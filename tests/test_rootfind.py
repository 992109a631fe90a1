import numpy as np
import pytest

from choreocert import rootfind
from choreocert.boxes import IntervalMatrix, IntervalVector
from choreocert.interval import Interval
from choreocert.rootfind import (
    CertificationJob,
    certify,
    krawczyk_operator,
    newton_operator,
)


def _matrix(rows) -> IntervalMatrix:
    """An interval matrix from rows of scalar intervals."""
    return IntervalMatrix(np.array([[iv.lo for iv in r] for r in rows]),
                          np.array([[iv.hi for iv in r] for r in rows]))


def quadratic_map():
    """F(x) = x^2 - 2 with exact interval evaluations."""

    def enclose(x, X):
        iv = Interval.point(float(x[0]))
        return (IntervalVector.from_intervals([iv.sqr() - Interval.point(2.0)]),
                _matrix([[Interval.point(2.0) * X[0]]]))

    return enclose


def cross_system_map():
    """F(x, y) = (x^2 - y - 1, y^2 - x - 1); a zero at the golden ratio
    point (g, g) with g = (1 + sqrt(5)) / 2."""

    def enclose(p, X):
        x = Interval.point(float(p[0]))
        y = Interval.point(float(p[1]))
        two = Interval.point(2.0)
        m1 = Interval.point(-1.0)
        return (IntervalVector.from_intervals([
                    x.sqr() - y - Interval.point(1.0),
                    y.sqr() - x - Interval.point(1.0)]),
                _matrix([[two * X[0], m1], [m1, two * X[1]]]))

    return enclose


class TestOperators:
    def test_newton_scalar_example(self):
        # F(x) = x^2 - 2 on [1, 2] at 1.5: N = 1.5 - 0.25 / [2, 4]
        f_x = IntervalVector.from_intervals([Interval.point(0.25)])
        df = _matrix([[Interval(2.0, 4.0)]])
        n = newton_operator(np.array([1.5]), f_x, df)
        assert n[0].lo == pytest.approx(1.375, abs=1e-12)
        assert n[0].hi == pytest.approx(1.4375, abs=1e-12)
        assert n.subset_interior(IntervalVector(np.array([1.0]), np.array([2.0])))

    def test_newton_no_zero_example(self):
        # F(x) = x^2 - 2 on [10, 11] at 10.5: the image lands near [5.1, 5.6],
        # disjoint from the box, so there is no zero in it
        f_x = IntervalVector.from_intervals([Interval.point(10.5 ** 2 - 2.0)])
        df = _matrix([[Interval(20.0, 22.0)]])
        n = newton_operator(np.array([10.5]), f_x, df)
        box = IntervalVector(np.array([10.0]), np.array([11.0]))
        assert 5.0 < n[0].lo and n[0].hi < 5.7
        assert n.disjoint(box)

    def test_krawczyk_scalar_example(self):
        # K = 1.5 - 0.25/3 + (1 - [2,4]/3) [-0.5, 0.5] = [1.25, 1.5833...]
        X = IntervalVector(np.array([1.0]), np.array([2.0]))
        f_x = IntervalVector.from_intervals([Interval.point(0.25)])
        df = _matrix([[Interval(2.0, 4.0)]])
        k = krawczyk_operator(np.array([1.5]), X, f_x, df,
                              np.array([[1.0 / 3.0]]))
        assert k[0].lo == pytest.approx(1.25, abs=1e-12)
        assert k[0].hi == pytest.approx(1.0 + 7.0 / 12.0, abs=1e-12)
        assert k.subset_interior(X)


class TestCertify:
    def test_unique_zero_quadratic(self):
        job = CertificationJob(enclose=quadratic_map(), x0=np.array([1.5]),
                               X=IntervalVector(np.array([1.0]), np.array([2.0])))
        out = certify(job)
        assert out.verdict == "UniqueZero"
        assert out.refined_box.contains_point([np.sqrt(2.0)])

    def test_no_zero_quadratic(self):
        job = CertificationJob(enclose=quadratic_map(), x0=np.array([10.5]),
                               X=IntervalVector(np.array([10.0]), np.array([11.0])))
        out = certify(job)
        assert out.verdict == "NoZero"

    def test_krawczyk_agrees_with_newton(self):
        for method in ("newton", "krawczyk"):
            job = CertificationJob(enclose=quadratic_map(), x0=np.array([1.5]),
                                   X=IntervalVector(np.array([1.0]),
                                                    np.array([2.0])),
                                   method=method)
            out = certify(job)
            assert out.verdict == "UniqueZero", method

    def test_zero_stays_in_every_image(self):
        golden = (1.0 + np.sqrt(5.0)) / 2.0
        job = CertificationJob(enclose=cross_system_map(),
                               x0=np.array([1.7, 1.5]),
                               X=IntervalVector.box([1.6, 1.6], 0.35),
                               method="krawczyk")
        out = certify(job)
        assert out.verdict == "UniqueZero"
        for rec in out.trace:
            assert rec.image.contains_point([golden, golden])
        assert out.refined_box.contains_point([golden, golden])

    def test_nested_box_verdict_monotone(self):
        # a box certified UniqueZero stays certified when restarted from its
        # own refined box
        job = CertificationJob(enclose=cross_system_map(),
                               x0=np.array([1.6, 1.6]),
                               X=IntervalVector.box([1.6, 1.6], 0.1))
        out = certify(job)
        assert out.verdict == "UniqueZero"
        again = CertificationJob(enclose=cross_system_map(),
                                 x0=out.refined_box.mid(),
                                 X=out.refined_box)
        out2 = certify(again)
        assert out2.verdict == "UniqueZero"
        assert out2.refined_box.subset(out.refined_box)

    def test_mutually_exclusive_verdicts(self):
        # shifted boxes around the quadratic zero: each is one of the three
        # verdicts and never both certifiable and excluded
        for center in (1.3, 1.41, 1.5, 2.5, 10.0):
            job = CertificationJob(enclose=quadratic_map(), x0=np.array([center]),
                                   X=IntervalVector.box([center], 0.05))
            out = certify(job)
            has_root = abs(center - np.sqrt(2.0)) <= 0.05
            if out.verdict == "UniqueZero":
                assert has_root or abs(center - np.sqrt(2)) < 0.06
            if out.verdict == "NoZero":
                assert not has_root

    def test_inflating_box_is_inconclusive(self):
        def enclose(x, X):
            return (IntervalVector.from_intervals(
                        [Interval(-1e-3, 1e-3)]),  # hopelessly wide defect
                    _matrix([[Interval(0.9, 1.1)]]))

        job = CertificationJob(enclose=enclose, x0=np.array([0.0]),
                               X=IntervalVector.box([0.0], 1e-6))
        out = certify(job)
        assert out.verdict == "Inconclusive"
        # the cause reads the outcome's one ratio, w(image) / w(X) at most
        [rec] = out.trace
        assert out.ratio == float(np.max(rec.image.diam() / rec.X.diam())) > 1
        assert out.cause == (f"operator image inflates the box (ratio "
                             f"{out.ratio:.3g}); tighten the integration "
                             "parameters")

    @pytest.mark.parametrize("method", ["newton", "krawczyk"])
    def test_singular_midpoint_is_inconclusive(self, method):
        # DF([-1, 1]) = [-2, 2], whose midpoint 0 has no inverse: both
        # operators stop on the first iteration, which the trace records
        # with its enclosures and no image
        job = CertificationJob(enclose=quadratic_map(), x0=np.array([0.0]),
                               X=IntervalVector.box([0.0], 1.0), method=method)
        out = certify(job)
        assert out.verdict == "Inconclusive"
        assert out.cause.startswith(
            "derivative enclosure not certifiably regular")
        assert out.iterations == 1
        [rec] = out.trace
        assert rec.relation == "singular" and rec.image is None
        assert rec.X == job.X and rec.C is None
        assert rec.df_X.to_hex() == _matrix([[Interval(-2.0, 2.0)]]).to_hex()
        assert out.operator_image is None and out.refined_box == job.X
        # with no image, a singular stop ranks below every ratio
        assert out.ratio == np.inf

    def test_singular_pivot_with_a_regular_midpoint_is_a_record(self):
        # DF = [-1, 3] has the regular midpoint 1, but its pivot holds zero:
        # Newton stops on the first iteration, Krawczyk goes on under C = 1
        def enclose(x, X):
            return (IntervalVector.from_intervals([Interval.point(0.25)]),
                    _matrix([[Interval(-1.0, 3.0)]]))

        for method, relation in (("newton", "singular"),
                                 ("krawczyk", "inflating")):
            out = certify(CertificationJob(
                enclose=enclose, x0=np.array([0.0]),
                X=IntervalVector.box([0.0], 0.5), method=method))
            assert out.verdict == "Inconclusive", method
            assert [r.relation for r in out.trace] == [relation], method

    def test_iteration_limit(self, monkeypatch):
        # an image that always overlaps but never contracts inside
        def enclose(x, X):
            return (IntervalVector.from_intervals([Interval.point(0.0)]),
                    _matrix([[Interval(0.5, 2.0)]]))

        monkeypatch.setattr(rootfind, "MAX_ITER", 5)
        job = CertificationJob(enclose=enclose, x0=np.array([1.0]),
                               X=IntervalVector.box([1.0], 0.5))
        out = certify(job)
        assert out.iterations <= 5

    def test_one_enclosure_per_iteration_at_the_point_and_box(self):
        # the prover flows the box with the point riding along, so each
        # iteration asks for F(x) and DF([X]) in one call
        calls = []
        inner = quadratic_map()

        def enclose(x, X):
            calls.append((x.copy(), X))
            return inner(x, X)

        out = certify(CertificationJob(enclose=enclose,
                                       x0=np.array([2.0]),
                                       X=IntervalVector.box([2.0], 0.7)))
        assert out.iterations > 1
        assert len(calls) == out.iterations
        for (x, X), rec in zip(calls, out.trace):
            assert np.array_equal(x, rec.x) and X == rec.X
            assert X.contains_point(x)

    def test_x0_outside_box_rejected(self):
        with pytest.raises(ValueError):
            CertificationJob(enclose=quadratic_map(), x0=np.array([5.0]),
                             X=IntervalVector.box([1.5], 0.5))

    def test_x0_and_box_of_other_dimensions_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            CertificationJob(enclose=quadratic_map(), x0=np.array([1.5, 1.5]),
                             X=IntervalVector.box([1.5], 0.5))

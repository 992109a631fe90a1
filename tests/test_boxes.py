import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from choreocert import kernels as kn
from choreocert.boxes import IntervalMatrix, IntervalVector, solve_linear
from choreocert.errors import (
    DimensionMismatch,
    DivisionByZeroInterval,
    EmptyIntersection,
    SingularEnclosure,
)
from choreocert.interval import Interval


@pytest.mark.parametrize("shape", [(2,), (2, 2)], ids=["vector", "matrix"])
def test_every_box_checks_its_ends(shape):
    # both box types build through one constructor and share its checks
    cls = IntervalVector if len(shape) == 1 else IntervalMatrix
    lo, hi = np.zeros(shape), np.ones(shape)
    box = cls(lo, hi)
    wide = np.zeros(shape[:-1] + (3,))
    for bad in ((lo[..., None], hi[..., None]), (lo[0], hi[0]), (lo, wide)):
        with pytest.raises(DimensionMismatch, match="bad shapes"):
            cls(*bad)
    empty = np.zeros(shape[:-1] + (0,))
    with pytest.raises(DimensionMismatch, match="nonempty"):
        cls(empty, empty)
    for bad in ((lo, np.full(shape, np.inf)), (np.full(shape, np.nan), hi),
                (hi, lo)):
        with pytest.raises(FloatingPointError):
            cls(*bad)
    # -0 is stored as +0, and the box keeps copies of its ends
    ends = np.full(shape, -0.0)
    zero = cls(ends, ends)
    ends[...] = 1.0
    assert not np.signbit(zero.lo).any() and not np.signbit(zero.hi).any()
    assert zero == cls.point(np.zeros(shape)) and not zero.hi.any()
    with pytest.raises(AttributeError, match="immutable"):
        box.lo = hi
    for other in (cls(wide, wide), wide):
        with pytest.raises(DimensionMismatch, match="shapes differ"):
            box + other


class TestVectors:
    def test_box_constructor_outward(self):
        v = IntervalVector.box([1.0, 2.0], 1e-6)
        assert np.all(v.lo <= np.array([1.0, 2.0]) - 1e-6 + 1e-18)
        assert np.all(v.diam() >= 2e-6)

    def test_hull_example(self):
        a = IntervalVector(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        b = IntervalVector(np.array([2.0, 0.0]), np.array([3.0, 1.0]))
        h = a.hull(b)
        assert np.array_equal(h.lo, [0.0, 0.0])
        assert np.array_equal(h.hi, [3.0, 1.0])

    def test_subset_interior_boundary(self):
        outer = IntervalVector(np.array([1.0, 1.0]), np.array([2.0, 2.0]))
        assert IntervalVector(np.array([1.1, 1.1]),
                              np.array([1.9, 1.9])).subset_interior(outer)
        assert not IntervalVector(np.array([1.0, 1.1]),
                                  np.array([1.9, 1.9])).subset_interior(outer)

    def test_intersect_empty(self):
        a = IntervalVector.point([0.0, 0.0])
        b = IntervalVector.point([0.0, 1.0])
        with pytest.raises(EmptyIntersection):
            a.intersect(b)

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            IntervalVector.point([1.0]).hull(IntervalVector.point([1.0, 2.0]))

    def test_hex_roundtrip(self):
        v = IntervalVector.box([0.1, -0.2, 3.7], [1e-9, 2e-8, 0.0])
        assert IntervalVector.from_hex(v.to_hex()) == v

    @pytest.mark.parametrize("lo, hi", [
        (np.nan, 1.0), (0.0, np.nan), (-np.inf, 0.0), (0.0, np.inf),
        (np.inf, np.inf), (1.0, 0.0)], ids=["nan-lo", "nan-hi", "-inf",
                                           "+inf", "inf-inf", "inverted"])
    def test_invalid_enclosures_are_refused(self, lo, hi):
        # as arrays, 0-d arrays, numpy scalars and Python floats; the boxes
        # check theirs on construction (test_every_box_checks_its_ends)
        for cast in (lambda v: np.array([0.5, v]), np.array, np.float64,
                     float):
            with pytest.raises(FloatingPointError):
                kn.assert_valid(cast(lo), cast(hi))

    def test_valid_enclosures_pass(self):
        for lo, hi in ((np.zeros(3), np.ones(3)),
                       (np.array(0.0), np.array(0.0)),
                       (np.float64(-1.0), np.float64(2.0)), (-0.0, 0.0),
                       (np.zeros((2, 2)), np.zeros((2, 2)))):
            kn.assert_valid(lo, hi)


class TestKernelConsistency:
    """Array kernels share rounding semantics with the scalar class."""

    @given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6),
           st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
    @settings(max_examples=300, deadline=None)
    def test_add_matches_scalar(self, a, b, c, d):
        sa = Interval(min(a, b), max(a, b))
        sb = Interval(min(c, d), max(c, d))
        want = sa + sb
        lo, hi = kn.add(np.array([sa.lo]), np.array([sa.hi]),
                        np.array([sb.lo]), np.array([sb.hi]))
        assert lo[0] == want.lo and hi[0] == want.hi

    @given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6),
           st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
    @settings(max_examples=300, deadline=None)
    def test_mul_encloses_scalar(self, a, b, c, d):
        sa = Interval(min(a, b), max(a, b))
        sb = Interval(min(c, d), max(c, d))
        want = sa * sb
        lo, hi = kn.mul(np.array([sa.lo]), np.array([sa.hi]),
                        np.array([sb.lo]), np.array([sb.hi]))
        # the scalar operator calls the same kernel: the same bits
        assert lo[0] == want.lo and hi[0] == want.hi

    def test_div_guard(self):
        with pytest.raises(DivisionByZeroInterval):
            kn.div(np.array([1.0]), np.array([1.0]),
                   np.array([-1.0]), np.array([1.0]))

    @given(st.integers(1, 7), st.integers(1, 7))
    @settings(max_examples=60, deadline=None)
    def test_dot_contains_exact_rational(self, n, m):
        rng = np.random.default_rng(n * 31 + m)
        a = rng.uniform(-3, 3, size=(n, m))
        b = rng.uniform(-3, 3, size=(m,))
        lo, hi = kn.matvec_thin_right(a, a, b)
        for i in range(n):
            exact = sum(Fraction(float(a[i, j])) * Fraction(float(b[j]))
                        for j in range(m))
            assert Fraction(float(lo[i])) <= exact <= Fraction(float(hi[i]))

    def test_dot_error_term_is_small(self):
        a = np.ones((1, 64))
        lo, hi = kn.dot(a, a, a, a, axis=1)
        # an exact sum stays exact: there is no error term at all
        assert lo[0] == hi[0] == 64.0


class TestSolveLinear:
    def test_identity(self):
        A = IntervalMatrix.identity(2)
        b = IntervalVector.point([1.0, 2.0])
        x = solve_linear(A, b)
        assert x.contains_point([1.0, 2.0])
        assert np.max(x.diam()) < 1e-14

    def test_diagonal(self):
        A = IntervalMatrix.point([[2.0, 0.0], [0.0, 4.0]])
        b = IntervalVector.point([1.0, 2.0])
        x = solve_linear(A, b)
        assert x.contains_point([0.5, 0.5])
        assert np.max(x.diam()) < 1e-14

    def test_contains_all_point_solutions(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            A0 = rng.uniform(-2, 2, size=(3, 3)) + 4 * np.eye(3)
            b0 = rng.uniform(-2, 2, size=3)
            A = IntervalMatrix(A0 - 1e-9, A0 + 1e-9)
            b = IntervalVector(b0 - 1e-9, b0 + 1e-9)
            x = solve_linear(A, b)
            assert x.contains_point(np.linalg.solve(A0, b0))

    def test_inflation_monotone(self):
        A0 = np.array([[3.0, 1.0], [-1.0, 2.5]])
        b0 = np.array([1.0, -2.0])
        small = solve_linear(IntervalMatrix(A0 - 1e-10, A0 + 1e-10),
                             IntervalVector(b0 - 1e-10, b0 + 1e-10))
        wide = solve_linear(IntervalMatrix(A0 - 1e-6, A0 + 1e-6),
                            IntervalVector(b0 - 1e-6, b0 + 1e-6))
        assert small.subset(wide)

    def test_singular_raises(self):
        A = IntervalMatrix(np.array([[1.0, 1.0], [1.0, 1.0]]) - 1e-3,
                           np.array([[1.0, 1.0], [1.0, 1.0]]) + 1e-3)
        with pytest.raises(SingularEnclosure):
            solve_linear(A, IntervalVector.point([1.0, 1.0]))

    def test_reference_newton_consistency(self):
        # Published derivative and defect enclosures for the figure-Eight
        # candidate: x0 - solve(DF, F) must intersect the published Newton
        # image (both enclose the same true point).
        x0 = np.array([0.347116768716, 0.532724944657])
        A = IntervalMatrix(
            np.array([[17.622624, 1.809772], [-24.868548, -10.056629]]),
            np.array([[17.643043, 1.827325], [-24.848432, -10.039221]]))
        b = IntervalVector(np.array([-2.107029e-06, 2.974991e-06]),
                           np.array([-2.106467e-06, 2.976034e-06]))
        r = solve_linear(A, b)
        n_box = IntervalVector.point(x0) - r
        published = IntervalVector(
            np.array([0.347116886243943, 0.532724941587373]),
            np.array([0.347116889993313, 0.532724949187495]))
        assert not n_box.disjoint(published)

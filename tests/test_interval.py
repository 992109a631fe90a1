import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from choreocert import kernels as kn
from choreocert.errors import DivisionByZeroInterval, EmptyIntersection
from choreocert.interval import Interval
from helpers import FE_TONEAREST, fegetround


finite = st.floats(min_value=-1e12, max_value=1e12,
                   allow_nan=False, allow_infinity=False)


def pair(a, b):
    return Interval(min(a, b), max(a, b))


def _steps(x: float, n: int) -> float:
    direction = math.inf if n > 0 else -math.inf
    for _ in range(abs(n)):
        x = math.nextafter(x, direction)
    return x


class TestConstruction:
    def test_endpoints_ordered(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)

    def test_rejects_nan_and_inf(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                Interval(bad, bad)

    def test_thin_point(self):
        iv = Interval.point(0.1)
        assert iv.lo == iv.hi == 0.1

    def test_hex_roundtrip(self):
        iv = Interval(-0.1, 0.30000000000000004)
        assert Interval.from_hex(*iv.to_hex()) == iv


class TestArithmeticExamples:
    def test_add_exact_integers(self):
        assert Interval(1, 2) + Interval(3, 4) == Interval(4, 6)

    def test_mul_signed_case_analysis(self):
        got = Interval(-1, 2) * Interval(3, 4)
        exact = Interval(-4, 8)
        assert exact.subset(got)
        assert got.lo >= math.nextafter(-4.0, -math.inf)
        assert got.hi <= math.nextafter(8.0, math.inf)

    def test_div_by_zero_interval(self):
        with pytest.raises(DivisionByZeroInterval):
            Interval(1, 2) / Interval(-1, 1)

    def test_cancellation_is_exact(self):
        x = Interval.point(0.1)
        assert (x - x) == Interval(0.0, 0.0)
        y = Interval.point(1.7)
        assert (y + (-y)) == Interval(0.0, 0.0)

    def test_exact_scalings(self):
        v = Interval.point(0.3)
        assert (v * Interval.point(-2.0)) == Interval.point(-0.6)
        assert (v * Interval.point(1.0)) == v
        assert (v * Interval.point(0.0)) == Interval(0.0, 0.0)
        assert (-v) == Interval.point(-0.3)

    def test_sqr_straddling_zero(self):
        got = Interval(-1, 2).sqr()
        assert got.lo == 0.0
        assert 4.0 <= got.hi <= math.nextafter(4.0, math.inf)

    def test_sqrt(self):
        iv = Interval(4.0, 9.0).sqrt()
        assert iv.lo <= 2.0 and 3.0 <= iv.hi
        zero = Interval(0.0, 0.0).sqrt()
        assert zero.lo <= 0.0 <= zero.hi
        with pytest.raises(ValueError):
            Interval(-1.0, 1.0).sqrt()


class TestSetOps:
    def test_subset_interior_boundary_touch(self):
        assert Interval(1.1, 1.9).subset_interior(Interval(1, 2))
        assert not Interval(1.0, 1.9).subset_interior(Interval(1, 2))

    def test_diam_outward(self):
        d = Interval(-1e-6, 1e-6).diam()
        assert d >= 2e-6
        assert d <= math.nextafter(2e-6, math.inf)

    def test_intersect_raises_on_disjoint(self):
        with pytest.raises(EmptyIntersection):
            Interval(0, 1).intersect(Interval(2, 3))

    def test_hull_mid_mag(self):
        h = Interval(0, 1).hull(Interval(2, 3))
        assert h == Interval(0, 3)
        assert Interval(1, 3).mid() == 2.0
        # max |x|: the farther endpoint
        assert max(abs(Interval(-4, 1).lo), abs(Interval(-4, 1).hi)) == 4.0
        # min |x|: zero when the interval holds 0, else the nearer endpoint
        assert Interval(-4, 1).contains_zero()
        assert not Interval(2, 5).contains_zero()
        assert min(abs(Interval(2, 5).lo), abs(Interval(2, 5).hi)) == 2.0


class TestSoundness:
    # Exact rational arithmetic is the oracle: the float interval result
    # must contain the true rational result of every point selection.

    @given(finite, finite)
    @settings(max_examples=400, deadline=None)
    def test_add_sound(self, x, y):
        got = Interval.point(x) + Interval.point(y)
        exact = Fraction(x) + Fraction(y)
        assert Fraction(got.lo) <= exact <= Fraction(got.hi)

    @given(finite, finite)
    @settings(max_examples=400, deadline=None)
    def test_mul_sound(self, x, y):
        got = Interval.point(x) * Interval.point(y)
        exact = Fraction(x) * Fraction(y)
        assert Fraction(got.lo) <= exact <= Fraction(got.hi)

    @given(finite, finite)
    @settings(max_examples=400, deadline=None)
    def test_sub_sound(self, x, y):
        got = Interval.point(x) - Interval.point(y)
        exact = Fraction(x) - Fraction(y)
        assert Fraction(got.lo) <= exact <= Fraction(got.hi)

    @given(finite, st.floats(min_value=1e-6, max_value=1e12),
           st.sampled_from((-1.0, 1.0)))
    @settings(max_examples=400, deadline=None)
    def test_div_sound(self, x, y, sign):
        got = Interval.point(x) / Interval.point(sign * y)
        exact = Fraction(x) / Fraction(sign * y)
        assert Fraction(got.lo) <= exact <= Fraction(got.hi)


class TestAlgebraicProperties:
    @given(finite, finite, finite, finite)
    @settings(max_examples=300, deadline=None)
    def test_inclusion_monotonicity(self, a, b, c, d):
        small = pair(a, b)
        wide = small.hull(pair(c, d))
        other = pair(c, d)
        for op in (lambda u, v: u + v, lambda u, v: u - v, lambda u, v: u * v):
            assert op(small, other).subset(op(wide, other))

    @given(finite, finite, finite, finite, finite, finite)
    @settings(max_examples=300, deadline=None)
    def test_subdistributivity(self, a1, a2, b1, b2, c1, c2):
        # Exact in real interval arithmetic; a few ulps of slack cover the
        # independent outward roundings on the two sides.
        a, b, c = pair(a1, a2), pair(b1, b2), pair(c1, c2)
        left = a * (b + c)
        right = a * b + a * c
        slack = Interval(_steps(right.lo, -4), _steps(right.hi, 4))
        assert left.subset(slack)

    @given(finite, finite, finite, finite)
    @settings(max_examples=200, deadline=None)
    def test_mul_contains_samples(self, a1, a2, b1, b2):
        a, b = pair(a1, a2), pair(b1, b2)
        prod = a * b
        for x in (a.lo, a.mid(), a.hi):
            for y in (b.lo, b.mid(), b.hi):
                assert Fraction(prod.lo) <= Fraction(x) * Fraction(y) \
                    <= Fraction(prod.hi)


# Subnormal and tiny operands, where a quotient or a square loses bits
# below the normal range.
tiny = st.floats(min_value=-1e-300, max_value=1e-300,
                 allow_nan=False, allow_infinity=False)
operands = st.one_of(finite, tiny, st.sampled_from(
    (5e-324, -5e-324, 1.5e-323, -1.5e-323, 2.2250738585072014e-308)))


def encloses(got: Interval, exact: Fraction) -> bool:
    return Fraction(got.lo) <= exact <= Fraction(got.hi)


class TestScalarDivisionAndSquares:
    # Fraction arithmetic is the oracle, as in TestSoundness.

    @pytest.mark.parametrize("x, c", [(5e-324, 2), (1.5e-323, 2.0),
                                      (1.5e-323, -2.0)])
    def test_subnormal_quotients(self, x, c):
        assert encloses(Interval.point(x) / c, Fraction(x) / Fraction(c))

    @given(operands, operands, st.sampled_from((1.0, -1.0, 2.0, -2.0)))
    @settings(max_examples=400, deadline=None)
    def test_div_by_thin_one_or_two(self, a, b, c):
        x = pair(a, b)
        got = x / Interval.point(c)
        for end in (x.lo, x.hi):
            assert encloses(got, Fraction(end) / Fraction(c))

    @given(operands)
    @settings(max_examples=400, deadline=None)
    def test_thin_sqr(self, x):
        assert encloses(Interval.point(x).sqr(), Fraction(x) ** 2)

    @given(operands, operands)
    @settings(max_examples=400, deadline=None)
    def test_sqr(self, a, b):
        x = pair(a, b)
        got = x.sqr()
        least = 0 if x.contains_zero() else min(Fraction(a) ** 2,
                                                Fraction(b) ** 2)
        assert encloses(got, least)
        assert encloses(got, max(Fraction(a) ** 2, Fraction(b) ** 2))

    @given(operands, operands, st.lists(finite.map(abs), min_size=1,
                                        max_size=4))
    @settings(max_examples=400, deadline=None)
    def test_scale_by_an_array_of_nonnegative_weights(self, a, b, w):
        lo, hi = min(a, b), max(a, b)
        gl, gh = kn.scale(np.array([lo]), np.array([hi]), np.array(w))
        for k, c in enumerate(w):
            for end in (lo, hi):
                assert Fraction(gl[k]) <= Fraction(end) * Fraction(c) \
                    <= Fraction(gh[k])

    @given(operands.map(abs))
    @settings(max_examples=400, deadline=None)
    def test_sqrt(self, x):
        got = Interval.point(x).sqrt()
        # lo <= sqrt(x) <= hi, squared on the nonnegative side
        assert got.lo <= 0.0 or Fraction(got.lo) ** 2 <= Fraction(x)
        assert got.hi >= 0.0 and Fraction(got.hi) ** 2 >= Fraction(x)


def _modules_naming(name: str) -> set[str]:
    """The package modules that name `name` as a name, an attribute, an
    imported name or a string."""
    import ast
    import pathlib

    import choreocert
    users = set()
    for path in pathlib.Path(choreocert.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([node.id] if isinstance(node, ast.Name)
                     else [node.attr] if isinstance(node, ast.Attribute)
                     else [a.name for a in node.names]
                     if isinstance(node, ast.ImportFrom)
                     else [node.value] if isinstance(node, ast.Constant)
                     else [])
            if name in names:
                users.add(path.name)
    return users


def thin(*values):
    return [np.array([v]) for v in values]


# every public kernel that rounds, with operands it accepts; each has an
# upper end whose exact value lies strictly between two floats
KERNEL_CALLS = [
    ("add", thin(1.0, 2.0, 0.1, 0.3)),
    ("sub", thin(1.0, 2.0, 0.1, 0.3)),
    ("mul", thin(-0.7, 1.9, 0.1, 0.3)),
    ("div", thin(-1.0, 2.0, 0.1, 0.3)),
    ("div_int", thin(1.0, 2.0) + [3]),
    ("scale", thin(0.7, 1.9) + [-0.1]),
    ("sqr", thin(-0.7, 0.3)),
    ("sqrt", thin(0.1, 0.3)),
    ("dot", thin(0.1, 0.3, 0.7, 0.9) + [0]),
    ("cauchy", [np.full((3, 2), v) for v in (0.1, 0.3, 0.7, 0.9)]),
    ("powers", [0.1, 5]),
    ("matmul", [np.full((2, 2), v) for v in (0.1, 0.3, 0.7, 0.9)]),
    ("matmul_thin", [np.full((2, 2), v) for v in (0.1, 0.3)]),
    ("matmul_thin_right", [np.full((2, 2), v) for v in (0.1, 0.3, 0.7)]),
    ("matmul_thin_left", [np.full((2, 2), v) for v in (0.1, 0.3, 0.7)]),
    ("matvec", [np.full((2, 2), 0.1), np.full((2, 2), 0.3),
                np.full(2, 0.7), np.full(2, 0.9)]),
    ("matvec_thin_right", [np.full((2, 2), 0.1), np.full((2, 2), 0.3),
                           np.full(2, 0.7)]),
    ("matvec_thin_left", [np.full((2, 2), 0.1), np.full(2, 0.3),
                          np.full(2, 0.7)]),
    ("diam", thin(0.1, 1.3)),
]


def exact(a) -> np.ndarray:
    """The floats of `a` as an object array of Fractions."""
    return np.vectorize(Fraction, otypes=[object])(a)


def hull_of(*values) -> tuple:
    """The elementwise least and greatest of exact arrays."""
    return (functools.reduce(np.minimum, values),
            functools.reduce(np.maximum, values))


def products(al, ah, bl, bh) -> tuple:
    """The least and greatest exact endpoint products of [a] [b]."""
    al, ah, bl, bh = map(exact, (al, ah, bl, bh))
    return hull_of(al * bl, al * bh, ah * bl, ah * bh)


def summed(ends, axis) -> tuple:
    return tuple(np.add.reduce(e, axis) for e in ends)


def exact_cauchy(al, ah, bl, bh) -> tuple:
    n = len(al)
    return tuple(np.array([sum(e[k, m - k] for k in range(m + 1))
                           for m in range(n)])
                 for e in products(al[:, None], ah[:, None],
                                   bl[None], bh[None]))


def exact_sqr(al, ah) -> tuple:
    low, high = hull_of(*(exact(a) ** 2 for a in (al, ah)))
    return np.where((al <= 0.0) & (0.0 <= ah), Fraction(0), low), high


# each kernel's exact result, from its own operands; for sqrt the exact
# squares of its ends
EXACT = {
    "add": lambda al, ah, bl, bh: (exact(al) + exact(bl),
                                   exact(ah) + exact(bh)),
    "sub": lambda al, ah, bl, bh: (exact(al) - exact(bh),
                                   exact(ah) - exact(bl)),
    "mul": products,
    "div": lambda al, ah, bl, bh: hull_of(*(exact(a) / exact(b)
                                            for a in (al, ah)
                                            for b in (bl, bh))),
    "div_int": lambda al, ah, k: (exact(al) / k, exact(ah) / k),
    "scale": lambda al, ah, c: hull_of(exact(al) * Fraction(c),
                                       exact(ah) * Fraction(c)),
    "sqr": exact_sqr,
    "sqrt": lambda al, ah: (exact(al), exact(ah)),
    "dot": lambda al, ah, bl, bh, axis: summed(products(al, ah, bl, bh),
                                               axis),
    "cauchy": exact_cauchy,
    "powers": lambda x, n: (np.array([Fraction(x) ** k
                                      for k in range(n + 1)]),) * 2,
    "matmul": lambda Al, Ah, Bl, Bh: summed(products(
        Al[:, :, None], Ah[:, :, None], Bl[None], Bh[None]), 1),
    "matmul_thin": lambda A, B: summed(products(
        A[:, :, None], A[:, :, None], B[None], B[None]), 1),
    "matmul_thin_right": lambda Al, Ah, B: summed(products(
        Al[:, :, None], Ah[:, :, None], B[None], B[None]), 1),
    "matmul_thin_left": lambda A, Bl, Bh: summed(products(
        A[:, :, None], A[:, :, None], Bl[None], Bh[None]), 1),
    "matvec": lambda Al, Ah, bl, bh: summed(products(Al, Ah, bl, bh), 1),
    "matvec_thin_right": lambda Al, Ah, b: summed(products(Al, Ah, b, b), 1),
    "matvec_thin_left": lambda A, bl, bh: summed(products(A, A, bl, bh), 1),
    "diam": lambda al, ah: (None, exact(ah) - exact(al)),
}


class TestOneRounding:
    def test_nextafter_only_in_kernels(self):
        # every enclosure, step times included, comes from a kernel call
        # under the one rule: no code steps a float outward or sums by fsum
        assert _modules_naming("nextafter") == set()
        assert _modules_naming("fsum") == set()

    def test_mode_switch_only_in_kernels(self):
        # the rounding mode is set nowhere else
        assert _modules_naming("fesetround") == {"kernels.py"}
        assert _modules_naming("fegetround") == set()

    @pytest.mark.parametrize("name, args", KERNEL_CALLS,
                             ids=[n for n, _ in KERNEL_CALLS])
    def test_kernels_return_at_round_to_nearest(self, name, args):
        getattr(kn, name)(*args)
        assert fegetround() == FE_TONEAREST

    @pytest.mark.parametrize("call, error", [
        (lambda: kn.div(*thin(1.0, 2.0, -1.0, 1.0)), DivisionByZeroInterval),
        (lambda: kn.sqrt(*thin(-1.0, 1.0)), ValueError),
        (lambda: kn.scale(*thin(1.0, 2.0), np.array([1.0, -1.0])), ValueError),
    ], ids=["div-by-zero-straddle", "sqrt-of-negative",
            "scale-by-a-negative-weight"])
    def test_kernels_that_raise_restore_round_to_nearest(self, call, error):
        with pytest.raises(error):
            call()
        assert fegetround() == FE_TONEAREST

    def test_no_kernel_body_calls_a_public_kernel(self):
        # a public kernel called inside a window would reset round-to-nearest
        # before the calling body ends: composite kernels call private bodies
        import ast
        import inspect
        public = {n for n, _ in KERNEL_CALLS}
        for node in ast.parse(inspect.getsource(kn)).body:
            if isinstance(node, ast.FunctionDef) and (
                    node.name in public or node.name.startswith("_")):
                called = {c.func.id for c in ast.walk(node)
                          if isinstance(c, ast.Call)
                          and isinstance(c.func, ast.Name)}
                assert not called & public, node.name

    @pytest.mark.parametrize("name, args", KERNEL_CALLS,
                             ids=[n for n, _ in KERNEL_CALLS])
    def test_kernels_enclose_the_exact_result(self, name, args):
        # lo <= exact <= hi, strictly where the exact end is no float, and
        # each case has such an upper end: a kernel that left its upper end
        # rounded down fails here
        got = getattr(kn, name)(*args)
        lo, hi = got if isinstance(got, tuple) else (None, got)
        elo, ehi = EXACT[name](*args)
        key = (lambda f: f * f) if name == "sqrt" else (lambda f: f)
        above = [key(Fraction(h)) - e for h, e in zip(np.ravel(hi),
                                                      np.ravel(ehi))]
        assert min(above) >= 0 and max(above) > 0
        if lo is not None:
            for low, e in zip(np.ravel(lo), np.ravel(elo)):
                assert key(Fraction(low)) <= e

    def test_every_rounding_kernel_is_covered(self):
        # a kernel is wrapped in the rounding window iff it is listed, with
        # its exact result
        wrapped = {name for name, fn in vars(kn).items()
                   if callable(fn) and hasattr(fn, "__wrapped__")
                   and not name.startswith("_")}
        assert wrapped == {n for n, _ in KERNEL_CALLS} == set(EXACT)

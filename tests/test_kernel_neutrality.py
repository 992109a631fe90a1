"""Upper ends rounded up have the bits of negated lower ends.

Each kernel rounds its upper end up.  Its older form rounded everything
down and took an upper end as the negated lower end of the negated
operands; the two agree bit for bit, RU(x) = -RD(-x), as long as every sum
runs in the same order.  The negation formulas stay here as the oracle, run
inside the kernels' round-down window, and each kernel must match them on
generated operands, signs of zeros aside.
"""

import operator

import numpy as np
from hypothesis import given, settings, strategies as st

from choreocert import kernels as kn

# --- the negation formulas, run under round-down only ---------------------


def _least(op, al, ah, bl, bh):
    return np.minimum(np.minimum(op(al, bl), op(al, bh)),
                      np.minimum(op(ah, bl), op(ah, bh)))


def _summed_least_products(al, ah, bl, bh, axis):
    lo = al * bl
    q = al * bh
    np.minimum(lo, q, out=lo)
    for b in (bl, bh):
        np.multiply(ah, b, out=q)
        np.minimum(lo, q, out=lo)
    return np.add.reduce(lo, axis)


def _dot(al, ah, bl, bh, axis):
    return (_summed_least_products(al, ah, bl, bh, axis),
            -_summed_least_products(-ah, -al, bl, bh, axis))


def _dot_thin(al, ah, b, axis):
    reduce = np.add.reduce
    return (reduce(np.minimum(al * b, ah * b), axis),
            -reduce(np.minimum((-al) * b, (-ah) * b), axis))


def _scale(al, ah, c):
    if not np.ndim(c) and c < 0.0:
        al, ah, c = -ah, -al, -c
    return al * c, -((-ah) * c)


def _sqr(al, ah):
    m = np.maximum(np.abs(al), np.abs(ah))
    g = np.where((al <= 0.0) & (0.0 <= ah), 0.0,
                 np.minimum(np.abs(al), np.abs(ah)))
    return g * g, -((-m) * m)


def _sqrt(al, ah):
    r = np.sqrt(ah)
    return np.sqrt(al), np.where(r * r < ah, -(-r - 5e-324), r)


def _cauchy(al, ah, bl, bh):
    n = al.shape[0]
    zero = np.zeros((n - 1,) + bl.shape[1:])
    rev = (np.arange(n)[:, None] - np.arange(n)) % (2 * n - 1)
    bl, bh = (np.concatenate([b, zero])[rev] for b in (bl, bh))
    return _dot(al[None], ah[None], bl, bh, 1)


def _powers(x, n):
    f = np.full(n + 1, float(x))
    f[0] = 1.0
    lo = np.cumprod(f)
    f[0] = -1.0
    return lo, -np.cumprod(f)


def _matmul_thin(A, B):
    lo = np.add.reduce(A[:, :, None] * B[None, :, :], 1)
    return lo, -np.add.reduce((-A)[:, :, None] * B[None, :, :], 1)


NEGATED = {name: kn._round_down(body) for name, body in {
    "add": lambda al, ah, bl, bh: (al + bl, -((-ah) - bh)),
    "sub": lambda al, ah, bl, bh: (al - bh, -(bl - ah)),
    "mul": lambda al, ah, bl, bh: (
        _least(operator.mul, al, ah, bl, bh),
        -_least(operator.mul, -ah, -al, bl, bh)),
    "div": lambda al, ah, bl, bh: (
        _least(operator.truediv, al, ah, bl, bh),
        -_least(operator.truediv, -ah, -al, bl, bh)),
    "div_int": lambda al, ah, k: (al / k, -((-ah) / k)),
    "scale": _scale,
    "sqr": _sqr,
    "sqrt": _sqrt,
    "dot": _dot,
    "cauchy": _cauchy,
    "powers": _powers,
    "matmul": lambda Al, Ah, Bl, Bh: _dot(
        Al[:, :, None], Ah[:, :, None], Bl[None, :, :], Bh[None, :, :], 1),
    "matmul_thin": _matmul_thin,
    "matmul_thin_right": lambda Al, Ah, B: _dot_thin(
        Al[:, :, None], Ah[:, :, None], B[None, :, :], 1),
    "matmul_thin_left": lambda A, Bl, Bh: _dot_thin(
        Bl[None, :, :], Bh[None, :, :], A[:, :, None], 1),
    "matvec": lambda Al, Ah, bl, bh: _dot(Al, Ah, bl[None, :], bh[None, :], 1),
    "matvec_thin_right": lambda Al, Ah, b: _dot_thin(Al, Ah, b[None, :], 1),
    "matvec_thin_left": lambda A, bl, bh: _dot_thin(
        bl[..., None, :], bh[..., None, :], A, -1),
    "diam": lambda al, ah: -(al - ah),
}.items()}

# --- generated operands ----------------------------------------------------

floats = st.one_of(
    st.floats(min_value=-1e12, max_value=1e12,
              allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1e-300, max_value=1e-300,
              allow_nan=False, allow_infinity=False),
    st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 0.1, 1.0 / 3.0)))


@st.composite
def arrays(draw, shape, positive=False, fortran=False):
    """A float array of `shape`, in Fortran order when asked and it has two
    axes or more."""
    values = draw(st.lists(floats, min_size=int(np.prod(shape)),
                           max_size=int(np.prod(shape))))
    a = np.array(values, dtype=float).reshape(shape)
    if positive:
        a = np.abs(a) + 1e-3
    return np.asfortranarray(a) if fortran else a


@st.composite
def intervals(draw, shape, positive=False, fortran=False):
    a = draw(arrays(shape, positive, fortran))
    b = draw(arrays(shape, positive, fortran))
    return np.minimum(a, b), np.maximum(a, b)


@st.composite
def calls(draw):
    """A kernel name and operands it accepts."""
    name = draw(st.sampled_from(sorted(NEGATED)))
    n, k, m = (draw(st.integers(1, 5)) for _ in range(3))
    fortran = draw(st.booleans())

    def iv(*shape, positive=False):
        return list(draw(intervals(shape, positive, fortran)))

    def fl(*shape):
        return [draw(arrays(shape, fortran=fortran))]

    if name in ("add", "sub", "mul"):
        args = iv(n, k) + iv(n, k)
    elif name == "div":
        sign = draw(st.sampled_from((1.0, -1.0)))
        bl, bh = draw(intervals((n, k), positive=True))
        args = iv(n, k) + ([bl, bh] if sign > 0 else [-bh, -bl])
    elif name == "div_int":
        args = iv(n, k) + [draw(st.integers(1, 40))]
    elif name == "scale":
        c = (draw(floats) if draw(st.booleans())
             else np.abs(draw(arrays((k,)))))
        args = iv(n, k) + [c]
    elif name in ("sqr", "diam"):
        args = iv(n, k)
    elif name == "sqrt":
        args = iv(n, k, positive=True)
    elif name == "dot":
        args = iv(n, k) + iv(n, k) + [draw(st.integers(0, 1))]
    elif name == "cauchy":
        args = iv(n, k) + iv(n, k)
    elif name == "powers":
        args = [draw(st.floats(min_value=1e-3, max_value=1e3)), n + k]
    elif name == "matmul":
        args = iv(n, k) + iv(k, m)
    elif name == "matmul_thin":
        args = fl(n, k) + fl(k, m)
    elif name == "matmul_thin_right":
        args = iv(n, k) + fl(k, m)
    elif name == "matmul_thin_left":
        args = fl(n, k) + iv(k, m)
    elif name == "matvec":
        args = iv(n, k) + iv(k)
    elif name == "matvec_thin_right":
        args = iv(n, k) + fl(k)
    else:   # matvec_thin_left, on a stack of vectors
        args = fl(n, k) + iv(m, k)
    return name, args


def test_every_rounding_kernel_has_its_negation_formula():
    rounding = {name for name, fn in vars(kn).items()
                if callable(fn) and hasattr(fn, "__wrapped__")
                and not name.startswith("_")}
    assert rounding == set(NEGATED)


@given(calls())
@settings(max_examples=1500, deadline=None)
def test_kernels_equal_the_negation_formulas(call):
    name, args = call
    got, want = getattr(kn, name)(*args), NEGATED[name](*args)
    for g, w in zip(*(r if isinstance(r, tuple) else (r,)
                      for r in (got, want))):
        assert g.shape == w.shape
        assert np.array_equal(g, w, equal_nan=True), name

"""Vectorized interval arithmetic on (lo, hi) float64 ndarray pairs.

These kernels are the hot path of the validated integrator and the only
code that rounds: the scalar `Interval` operators call them on their
endpoints.  Every result encloses the exact real result.

One rounding rule, as in INTLAB and CAPD: each public arithmetic kernel
runs its float operations with the FPU rounding toward -inf, and resets it
to round-to-nearest on exit, also when it raises.  Rounding is monotone,
so a lower end is the float result itself, however many operations made it
and in whatever order `np.add.reduce` sums them; an upper end is the
negated lower end of the negated operands, hi(a + b) = -lo(-a - b), and a
contraction needs no error term.  A square root's upper end is the float
above the rounded-down root unless that root is exact.  Exact results stay
exact.  Round-down makes an exact cancellation x - x into -0; `Interval`,
`IntervalVector` and `IntervalMatrix` store it as +0.

A product of two float (thin) factors, `matmul_thin`, forms each product
once for the lower end and once negated for the upper end; the thin-factor
contractions `matmul_thin_right`/`_left` take one interval factor.

Float choices stay at round-to-nearest outside the kernels: `mid`, the QR
frames, step sizes, parsing and printing.  The mode constants are known
for x86-64 only: elsewhere, or where the C library refuses the mode, every
kernel raises `RoundingModeError`, and `check_rounding`, run before every
command, also catches arithmetic that ignores the mode.

NaN and inf propagate harmlessly: all decision predicates built on these
arrays (subset, sign exclusion, pivot tests) fail conservatively on NaN, and
step-level validation rejects non-finite enclosures with a clear error.
"""

from __future__ import annotations

import ctypes
import functools
import operator
import platform

import numpy as np

from .errors import DivisionByZeroInterval, EmptyIntersection, RoundingModeError

# FE_DOWNWARD and FE_TONEAREST of <fenv.h> where they were tested, else the
# mode -1, which fesetround refuses.  Its argtypes stay unset: ctypes passes a
# Python int as a C int, and declaring them doubles the cost of a switch.
_DOWN, _NEAREST = {"x86_64": (0x400, 0)}.get(platform.machine(), (-1, 0))
_fesetround = ctypes.CDLL(None).fesetround

Pair = tuple[np.ndarray, np.ndarray]


def _round_down(body):
    """The kernel that runs `body` under round-down, round-to-nearest after."""
    @functools.wraps(body)
    def kernel(*args, **kwargs):
        if _fesetround(_DOWN):   # the mode is left as it was
            raise RoundingModeError(
                f"the FPU refused round-down on {platform.machine()!r}")
        try:
            return body(*args, **kwargs)
        finally:
            _fesetround(_NEAREST)
    return kernel


def assert_valid(lo: np.ndarray, hi: np.ndarray, what: str = "enclosure") -> None:
    """Reject non-finite or inverted enclosures (e.g. after overflow)."""
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))
            and np.all(lo <= hi)):
        raise FloatingPointError(f"invalid {what}: endpoints not finite/ordered")


# --- elementwise arithmetic -------------------------------------------------

@_round_down
def add(al, ah, bl, bh) -> Pair:
    return al + bl, -((-ah) - bh)


@_round_down
def sub(al, ah, bl, bh) -> Pair:
    return al - bh, -(bl - ah)


def neg(al, ah) -> Pair:
    return -ah, -al


def _least(op, al, ah, bl, bh):
    """The least of op's four endpoint results, each rounded down."""
    return np.minimum(np.minimum(op(al, bl), op(al, bh)),
                      np.minimum(op(ah, bl), op(ah, bh)))


@_round_down
def mul(al, ah, bl, bh) -> Pair:
    return (_least(operator.mul, al, ah, bl, bh),
            -_least(operator.mul, -ah, -al, bl, bh))


@_round_down
def div(al, ah, bl, bh) -> Pair:
    if np.any((bl <= 0.0) & (0.0 <= bh)):
        raise DivisionByZeroInterval("divisor interval contains zero")
    return (_least(operator.truediv, al, ah, bl, bh),
            -_least(operator.truediv, -ah, -al, bl, bh))


@_round_down
def div_int(al, ah, k: int) -> Pair:
    """[al, ah] / k for a positive integer k."""
    return al / k, -((-ah) / k)


@_round_down
def scale(al, ah, c) -> Pair:
    """Multiply by a thin float scalar, or by an array of floats >= 0 that
    broadcasts against the operands."""
    if np.ndim(c):
        if np.any(c < 0.0):
            raise ValueError("an array of scale factors must be >= 0")
    elif c < 0.0:
        al, ah, c = -ah, -al, -c
    return al * c, -((-ah) * c)


@_round_down
def sqr(al, ah) -> Pair:
    m = np.maximum(np.abs(al), np.abs(ah))
    g = np.where((al <= 0.0) & (0.0 <= ah), 0.0,
                 np.minimum(np.abs(al), np.abs(ah)))
    return g * g, -((-m) * m)


@_round_down
def sqrt(al, ah) -> Pair:
    if np.any(al < 0.0):
        raise ValueError("sqrt of an interval with a negative part")
    r = np.sqrt(ah)
    # an inexact root r rounded down has r * r < ah; -(-r - 5e-324) is the
    # float above it
    return np.sqrt(al), np.where(r * r < ah, -(-r - 5e-324), r)


# --- contractions -----------------------------------------------------------

# Products are formed in place, and lower ends summed before upper ends are
# formed: allocating large blocks costs more than the arithmetic on them.

def _summed_least_products(al, ah, bl, bh, axis):
    """sum_k of the least of a_k * b_k's four endpoint products."""
    lo = al * bl
    q = al * bh
    np.minimum(lo, q, out=lo)
    for b in (bl, bh):
        np.multiply(ah, b, out=q)
        np.minimum(lo, q, out=lo)
    return np.add.reduce(lo, axis)


def _dot(al, ah, bl, bh, axis) -> Pair:
    return (_summed_least_products(al, ah, bl, bh, axis),
            -_summed_least_products(-ah, -al, bl, bh, axis))


@_round_down
def dot(al, ah, bl, bh, axis) -> Pair:
    """Enclosure of sum_k a_k * b_k contracted along `axis` (post-broadcast)."""
    return _dot(al, ah, bl, bh, axis)


@_round_down
def cauchy(al, ah, bl, bh) -> Pair:
    """Every layer c_m = sum_{k<=m} a_k b_(m-k) of the Cauchy product of two
    series along axis 0 (n layers each, as many axes each, the others
    broadcast), in one contraction: row m pairs a with b reversed up to m
    and zero past it.  The padding adds exact zeros, so row m is `dot` over
    its own terms bit for bit, up to the sign of a zero, wherever the
    contracted axis is not the innermost one."""
    n = al.shape[0]
    zero = np.zeros((n - 1,) + bl.shape[1:])
    rev = (np.arange(n)[:, None] - np.arange(n)) % (2 * n - 1)
    bl, bh = (np.concatenate([b, zero])[rev] for b in (bl, bh))
    return _dot(al[None], ah[None], bl, bh, 1)


@_round_down
def powers(x: float, n: int) -> Pair:
    """Enclosures of x^0, ..., x^n for a float x > 0: the running products
    of x from 1 and from -1, each product rounded down, are lower ends and
    negated upper ends.  x^0 = 1 and x^1 = x stay exact."""
    f = np.full(n + 1, float(x))
    f[0] = 1.0
    lo = np.cumprod(f)
    f[0] = -1.0
    return lo, -np.cumprod(f)


def _dot_thin(al, ah, b, axis) -> Pair:
    """`_dot` with a thin (point) right factor."""
    reduce = np.add.reduce
    return (reduce(np.minimum(al * b, ah * b), axis),
            -reduce(np.minimum((-al) * b, (-ah) * b), axis))


@_round_down
def matmul(Al, Ah, Bl, Bh) -> Pair:
    """(n, k) interval times (k, m) interval."""
    return _dot(Al[:, :, None], Ah[:, :, None],
                Bl[None, :, :], Bh[None, :, :], axis=1)


@_round_down
def matmul_thin(A, B) -> Pair:
    """A B for two float matrices: each product is formed once for the
    lower end and once negated for the upper end, where
    `matmul_thin_right(A, A, B)` forms each twice; the two agree bit for
    bit."""
    lo = np.add.reduce(A[:, :, None] * B[None, :, :], 1)
    return lo, -np.add.reduce((-A)[:, :, None] * B[None, :, :], 1)


@_round_down
def matmul_thin_right(Al, Ah, B) -> Pair:
    return _dot_thin(Al[:, :, None], Ah[:, :, None], B[None, :, :], axis=1)


@_round_down
def matmul_thin_left(A, Bl, Bh) -> Pair:
    return _dot_thin(Bl[None, :, :], Bh[None, :, :], A[:, :, None], axis=1)


@_round_down
def matvec(Al, Ah, bl, bh) -> Pair:
    return _dot(Al, Ah, bl[None, :], bh[None, :], axis=1)


@_round_down
def matvec_thin_right(Al, Ah, b) -> Pair:
    return _dot_thin(Al, Ah, b[None, :], axis=1)


@_round_down
def matvec_thin_left(A, bl, bh) -> Pair:
    """A b for a float A and an interval vector b, or a stack (..., k) of
    them: each row sum runs over the contiguous last axis."""
    return _dot_thin(bl[..., None, :], bh[..., None, :], A, axis=-1)


# --- the probe --------------------------------------------------------------

def check_rounding() -> None:
    """Raise RoundingModeError unless + - x / sqrt, and a sum by
    `np.add.reduce`, round down inside the kernels' window, on 64 lanes:
    each exact result lies strictly between two floats, and
    round-to-nearest would give the upper one."""
    t, u, one = 2.0 ** -60, 2.0 ** -52, np.ones(64)
    terms = np.zeros((64, 16))
    terms[:, :2] = -1.0, -t        # one inexact addition in any order
    got = _rounded_down(one, t, (1.0 + u) * one, terms)
    want = (-1.0 - u, 1.0 - u / 2, -1.0 - 3 * u, -0.33333333333333337,
            1.4142135623730949, -1.0 - u)
    ok = (np.array(got) == np.array(want)[:, None]).all(axis=1)
    if not ok.all():
        name = ("+", "-", "x", "/", "sqrt", "np.add.reduce")[np.argmin(ok)]
        raise RoundingModeError(
            f"{name} ignores round-down on {platform.machine()!r}, so no "
            "enclosure can be trusted")


@_round_down
def _rounded_down(one, t, v, terms):
    return (-one - t, one - t, -v * v, -one / 3, np.sqrt(2 * one),
            np.add.reduce(terms, -1))


# --- set operations ---------------------------------------------------------

def hull(al, ah, bl, bh) -> Pair:
    return np.minimum(al, bl), np.maximum(ah, bh)


def intersect(al, ah, bl, bh) -> Pair:
    lo = np.maximum(al, bl)
    hi = np.minimum(ah, bh)
    if np.any(lo > hi):
        raise EmptyIntersection("boxes are disjoint in some component")
    return lo, hi


def subset(al, ah, bl, bh) -> bool:
    return bool(np.all((bl <= al) & (ah <= bh)))


def subset_interior(al, ah, bl, bh) -> bool:
    return bool(np.all((bl < al) & (ah < bh)))


def disjoint(al, ah, bl, bh) -> bool:
    return bool(np.any((ah < bl) | (bh < al)))


def contains_point(al, ah, x) -> bool:
    return bool(np.all((al <= x) & (x <= ah)))


def mid(al, ah) -> np.ndarray:
    m = al + 0.5 * (ah - al)
    return np.minimum(np.maximum(m, al), ah)


@_round_down
def diam(al, ah) -> np.ndarray:
    return -(al - ah)


def mag(al, ah) -> np.ndarray:
    return np.maximum(np.abs(al), np.abs(ah))

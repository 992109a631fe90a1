"""Vectorized interval arithmetic on (lo, hi) float64 ndarray pairs.

These kernels are the hot path of the validated integrator and the only
code that rounds: the scalar `Interval` operators call them on their
endpoints.  Every result encloses the exact real result.

Directed rounding, as in INTLAB and CAPD: each public arithmetic kernel
computes its lower end with the FPU rounding toward -inf, switches to
rounding toward +inf, computes its upper end, and resets round-to-nearest
on exit, also when it raises.  Rounding is monotone, so each end is the
float result itself, however many operations made it and in whatever order
`np.add.reduce` sums them: hi(a + b) is ah + bh rounded up, a product's
upper end the largest of its four endpoint products, a contraction's the
sum of the largest products, a square root's the rounded-up root, and no
contraction needs an error term.  An upper end rounded up has the bits of
the negated lower end of the negated operands, RU(x) = -RD(-x), summed in
the same order.  Exact results stay exact.  Round-down makes an exact
cancellation x - x into -0; `Interval`, `IntervalVector` and
`IntervalMatrix` store it as +0.

A product of two float (thin) factors, `matmul_thin`, forms each product
once for each end; the thin-factor contractions `matmul_thin_right`/`_left`
take one interval factor.

Float choices stay at round-to-nearest outside the kernels: `mid`, the QR
frames, step sizes, parsing and printing.  The mode constants are known
for x86-64 only: elsewhere, or where the C library refuses or ignores
either directed mode, every kernel raises `RoundingModeError`, and
`check_rounding`, run before every command, also catches numpy arithmetic
that ignores either mode.

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

# FE_DOWNWARD, FE_UPWARD and FE_TONEAREST of <fenv.h> where they were tested,
# else the mode -1, which fesetround refuses.  Its argtypes stay unset: ctypes
# passes a Python int as a C int, and declaring them doubles the cost of a
# switch.
_DOWN, _UP, _NEAREST = {"x86_64": (0x400, 0x800, 0)}.get(
    platform.machine(), (-1, -1, 0))
_fesetround = ctypes.CDLL(None).fesetround

# -1 - _TINY and 1 + _TINY lie strictly between two floats, nearer the one of
# smaller magnitude: only round-down moves the first and only round-up the
# second, so one float operation tells whether a switch took effect
_TINY = 2.0 ** -60

Pair = tuple[np.ndarray, np.ndarray]


def _refused(direction: str) -> RoundingModeError:
    return RoundingModeError(f"the FPU refused or ignored round-{direction} "
                             f"on {platform.machine()!r}")


def _round_down(body):
    """The kernel that runs `body` from round-down, round-to-nearest after;
    `body` switches to round-up by `_up` for its upper ends."""
    @functools.wraps(body)
    def kernel(*args, **kwargs):
        try:
            if _fesetround(_DOWN) or -1.0 - _TINY == -1.0:
                raise _refused("down")
            return body(*args, **kwargs)
        finally:
            _fesetround(_NEAREST)
    return kernel


def _up() -> None:
    """Switch a kernel's window from its lower ends to its upper ends."""
    if _fesetround(_UP) or 1.0 + _TINY == 1.0:
        raise _refused("up")


def assert_valid(lo: np.ndarray, hi: np.ndarray, what: str = "enclosure") -> None:
    """Reject non-finite or inverted enclosures (e.g. after overflow).
    Ufuncs take arrays, numpy scalars and Python floats alike, and one
    `all` method call on their combined result skips what `np.all` adds."""
    if not (np.isfinite(lo) & np.isfinite(hi) & np.less_equal(lo, hi)).all():
        raise FloatingPointError(f"invalid {what}: endpoints not finite/ordered")


# --- elementwise arithmetic -------------------------------------------------

@_round_down
def add(al, ah, bl, bh) -> Pair:
    lo = al + bl
    _up()
    return lo, ah + bh


@_round_down
def sub(al, ah, bl, bh) -> Pair:
    lo = al - bh
    _up()
    return lo, ah - bl


def neg(al, ah) -> Pair:
    return -ah, -al


def _extreme(pick, op, al, ah, bl, bh):
    """pick (np.minimum or np.maximum) of op's four endpoint results."""
    return pick(pick(op(al, bl), op(al, bh)), pick(op(ah, bl), op(ah, bh)))


@_round_down
def mul(al, ah, bl, bh) -> Pair:
    lo = _extreme(np.minimum, operator.mul, al, ah, bl, bh)
    _up()
    return lo, _extreme(np.maximum, operator.mul, al, ah, bl, bh)


@_round_down
def div(al, ah, bl, bh) -> Pair:
    if np.any((bl <= 0.0) & (0.0 <= bh)):
        raise DivisionByZeroInterval("divisor interval contains zero")
    lo = _extreme(np.minimum, operator.truediv, al, ah, bl, bh)
    _up()
    return lo, _extreme(np.maximum, operator.truediv, al, ah, bl, bh)


@_round_down
def div_int(al, ah, k: int) -> Pair:
    """[al, ah] / k for a positive integer k."""
    lo = al / k
    _up()
    return lo, ah / k


@_round_down
def scale(al, ah, c) -> Pair:
    """Multiply by a thin float scalar, or by an array of floats >= 0 that
    broadcasts against the operands."""
    if np.ndim(c):
        if np.any(c < 0.0):
            raise ValueError("an array of scale factors must be >= 0")
    elif c < 0.0:
        al, ah, c = -ah, -al, -c
    lo = al * c
    _up()
    return lo, ah * c


@_round_down
def sqr(al, ah) -> Pair:
    m = np.maximum(np.abs(al), np.abs(ah))
    g = np.where((al <= 0.0) & (0.0 <= ah), 0.0,
                 np.minimum(np.abs(al), np.abs(ah)))
    lo = g * g
    _up()
    return lo, m * m


@_round_down
def sqrt(al, ah) -> Pair:
    if np.any(al < 0.0):
        raise ValueError("sqrt of an interval with a negative part")
    lo = np.sqrt(al)
    _up()
    return lo, np.sqrt(ah)


# --- contractions -----------------------------------------------------------

# Products are formed in place, and lower ends summed before upper ends are
# formed: allocating large blocks costs more than the arithmetic on them.

def _summed_extreme_products(pick, al, ah, bl, bh, axis):
    """sum_k of pick (np.minimum or np.maximum) of a_k * b_k's four endpoint
    products."""
    s = al * bl
    q = al * bh
    pick(s, q, out=s)
    for b in (bl, bh):
        np.multiply(ah, b, out=q)
        pick(s, q, out=s)
    return np.add.reduce(s, axis)


def _dot(al, ah, bl, bh, axis) -> Pair:
    lo = _summed_extreme_products(np.minimum, al, ah, bl, bh, axis)
    _up()
    return lo, _summed_extreme_products(np.maximum, al, ah, bl, bh, axis)


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
    of x from 1, rounded down for the lower ends and up for the upper ends.
    x^0 = 1 and x^1 = x stay exact."""
    f = np.full(n + 1, float(x))
    f[0] = 1.0
    lo = np.cumprod(f)
    _up()
    return lo, np.cumprod(f)


def _dot_thin(al, ah, b, axis) -> Pair:
    """`_dot` with a thin (point) right factor."""
    reduce = np.add.reduce
    lo = reduce(np.minimum(al * b, ah * b), axis)
    _up()
    return lo, reduce(np.maximum(al * b, ah * b), axis)


@_round_down
def matmul(Al, Ah, Bl, Bh) -> Pair:
    """(n, k) interval times (k, m) interval."""
    return _dot(Al[:, :, None], Ah[:, :, None],
                Bl[None, :, :], Bh[None, :, :], axis=1)


@_round_down
def matmul_thin(A, B) -> Pair:
    """A B for two float matrices: each product is formed once for each
    end, where `matmul_thin_right(A, A, B)` forms each twice; the two agree
    bit for bit."""
    lo = np.add.reduce(A[:, :, None] * B[None, :, :], 1)
    _up()
    return lo, np.add.reduce(A[:, :, None] * B[None, :, :], 1)


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

# The probe's operands, exact at any rounding and made once: 64 lanes each
# of 1, -1, v = 1 + 2^-52, -v, 2 and 3, and 64 rows of the terms (-1,
# -2^-60, 0, ...), one inexact addition in any order, with their negations.
# Each case's exact result lies strictly between two floats: _PROBE_ENDS
# holds the one round-down must give and the one round-up must give, and
# round-to-nearest gives the other.
_PROBE_LANES = tuple(np.full(64, x) for x in (
    1.0, -1.0, 1.0 + 2.0 ** -52, -1.0 - 2.0 ** -52, 2.0, 3.0))
_PROBE_TERMS = np.zeros((2, 64, 16))
_PROBE_TERMS[0, :, :2] = -1.0, -2.0 ** -60
_PROBE_TERMS[1] = -_PROBE_TERMS[0]
_PROBE_ENDS = np.array([
    (-1.0 - 2.0 ** -52, 1.0 - 2.0 ** -53, -1.0 - 3 * 2.0 ** -52,
     -0.33333333333333337, 1.4142135623730949, -1.0 - 2.0 ** -52),
    (1.0 + 2.0 ** -52, -1.0 + 2.0 ** -53, 1.0 + 3 * 2.0 ** -52,
     0.33333333333333337, 1.7320508075688774, 1.0 + 2.0 ** -52)])[:, :, None]


def check_rounding() -> None:
    """Raise RoundingModeError unless + - x / sqrt, and a sum by
    `np.add.reduce`, round down for lower ends and up for upper ends inside
    the kernels' window, on 64 lanes: each exact result lies strictly
    between two floats, and round-to-nearest would give the other one."""
    ok = np.array(_probe(*_PROBE_LANES)) == _PROBE_ENDS
    if not ok.all():
        direction, case = np.argwhere(~ok)[0, :2]
        raise RoundingModeError(
            f"{('+', '-', 'x', '/', 'sqrt', 'np.add.reduce')[case]} ignores "
            f"round-{('down', 'up')[direction]} on {platform.machine()!r}, "
            "so no enclosure can be trusted")


@_round_down
def _probe(one, neg_one, v, neg_v, two, three):
    t = 2.0 ** -60
    lower = (neg_one - t, one - t, neg_v * v, neg_one / 3, np.sqrt(two),
             np.add.reduce(_PROBE_TERMS[0], -1))
    _up()
    return lower, (one + t, t - one, v * v, one / 3, np.sqrt(three),
                   np.add.reduce(_PROBE_TERMS[1], -1))


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
    _up()
    return ah - al


def mag(al, ah) -> np.ndarray:
    return np.maximum(np.abs(al), np.abs(ah))

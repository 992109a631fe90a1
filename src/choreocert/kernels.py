"""Vectorized interval arithmetic on (lo, hi) float64 ndarray pairs.

These kernels are the hot path of the validated integrator and the only
code that rounds: the scalar `Interval` operators call them on their
endpoints.  Every result encloses the exact real result.  `Interval` keeps
three exact shortcuts for thin operands on top of them: a thin factor 0,
+-1 or +-2 goes through `scale`, a thin divisor +-1 or +-2 through
`div_int`, and a thin value with a representable square squares exactly.

Rounding strategy per kernel:

* add/sub use the two-sum error term and nudge an endpoint only when the
  float result is inexact in the needed direction, which is equivalent to
  true directed rounding (and keeps exact cancellations exact).
* mul/div/sqr/sqrt compute in round-to-nearest and nudge one ulp outward,
  which always covers a half-ulp rounding error; exact zeros stay exact.
* `div_int` divides by a positive integer and, for a power of two, nudges
  only the quotients that lost bits below the normal range.
* `dot` contracts a whole axis at once and covers all product and summation
  errors with a single a-priori bound (see the derivation inside), which is
  far cheaper than nudging every partial sum.  The bound charges each output
  its count of terms; `cauchy` contracts every layer of a Cauchy product in
  one pass over zero-padded rows, and charges layer m its m+1 true terms, as
  the padding adds exact zeros to the sum and to the magnitudes.
* `powers` encloses h^0..h^n from the running float products, each widened
  by a bound on its own count of roundings.

NaN and inf propagate harmlessly: all decision predicates built on these
arrays (subset, sign exclusion, pivot tests) fail conservatively on NaN, and
step-level validation rejects non-finite enclosures with a clear error.
"""

from __future__ import annotations

import numpy as np

from .errors import DivisionByZeroInterval, EmptyIntersection

_NINF = np.float64(-np.inf)
_PINF = np.float64(np.inf)
# One subnormal step; used by the dot error bound.
_ETA = 5e-324

Pair = tuple[np.ndarray, np.ndarray]


def down(a: np.ndarray) -> np.ndarray:
    return np.nextafter(a, _NINF)


def up(a: np.ndarray) -> np.ndarray:
    return np.nextafter(a, _PINF)


def assert_valid(lo: np.ndarray, hi: np.ndarray, what: str = "enclosure") -> None:
    """Reject non-finite or inverted enclosures (e.g. after overflow)."""
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))
            and np.all(lo <= hi)):
        raise FloatingPointError(f"invalid {what}: endpoints not finite/ordered")


# --- elementwise arithmetic -------------------------------------------------

def add(al, ah, bl, bh) -> Pair:
    sl = al + bl
    t = sl - al
    el = (al - (sl - t)) + (bl - t)
    sh = ah + bh
    t = sh - ah
    eh = (ah - (sh - t)) + (bh - t)
    return np.where(el < 0.0, down(sl), sl), np.where(eh > 0.0, up(sh), sh)


def sub(al, ah, bl, bh) -> Pair:
    return add(al, ah, -bh, -bl)


def neg(al, ah) -> Pair:
    return -ah, -al


def mul(al, ah, bl, bh) -> Pair:
    p1 = al * bl
    p2 = al * bh
    p3 = ah * bl
    p4 = ah * bh
    lo = np.minimum(np.minimum(p1, p2), np.minimum(p3, p4))
    hi = np.maximum(np.maximum(p1, p2), np.maximum(p3, p4))
    # Zero times anything finite is exactly zero; do not smear it by an ulp.
    zero = ((al == 0.0) & (ah == 0.0)) | ((bl == 0.0) & (bh == 0.0))
    return (np.where(zero, 0.0, down(lo)), np.where(zero, 0.0, up(hi)))


def div(al, ah, bl, bh) -> Pair:
    if np.any((bl <= 0.0) & (0.0 <= bh)):
        raise DivisionByZeroInterval("divisor interval contains zero")
    q1 = al / bl
    q2 = al / bh
    q3 = ah / bl
    q4 = ah / bh
    lo = np.minimum(np.minimum(q1, q2), np.minimum(q3, q4))
    hi = np.maximum(np.maximum(q1, q2), np.maximum(q3, q4))
    zero = (al == 0.0) & (ah == 0.0)
    return (np.where(zero, 0.0, down(lo)), np.where(zero, 0.0, up(hi)))


def div_int(al, ah, k: int) -> Pair:
    """[al, ah] / k for a positive integer k.  Division by a power of two is
    exact unless the quotient loses bits below the normal range (gerver's
    Taylor layers have such entries every step); multiplying back, exact for
    a power of two, finds them, and only they are rounded outward."""
    c = float(k)
    lo, hi = al / c, ah / c
    if k & (k - 1):
        return down(lo), up(hi)
    return (np.where(lo * c != al, down(lo), lo),
            np.where(hi * c != ah, up(hi), hi))


def scale(al, ah, c: float) -> Pair:
    """Multiply by a thin float scalar; exact for 0, +-1, +-2."""
    if c == 0.0:
        z = np.zeros_like(al)
        return z, z.copy()
    if c == 1.0:
        return al, ah
    if c == -1.0:
        return -ah, -al
    if c == 2.0:
        return 2.0 * al, 2.0 * ah
    if c == -2.0:
        return -2.0 * ah, -2.0 * al
    p1 = c * al
    p2 = c * ah
    if c > 0.0:
        return down(p1), up(p2)
    return down(p2), up(p1)


def sqr(al, ah) -> Pair:
    m = np.maximum(np.abs(al), np.abs(ah))
    g = np.where((al <= 0.0) & (0.0 <= ah), 0.0,
                 np.minimum(np.abs(al), np.abs(ah)))
    lo = np.where(g == 0.0, 0.0, down(g * g))
    hi = np.where(m == 0.0, 0.0, up(m * m))
    return lo, hi


def sqrt(al, ah) -> Pair:
    if np.any(al < 0.0):
        raise ValueError("sqrt of an interval with a negative part")
    return (np.where(al == 0.0, 0.0, down(np.sqrt(al))), up(np.sqrt(ah)))


# --- contractions -----------------------------------------------------------

def _contract(lo, hi, scratch, axis, terms=None) -> Pair:
    # Error budget for summing K rounded products in arbitrary order:
    #   each product:  |fl(xy) - xy| <= u|fl(xy)| + eta        (u = 2^-53)
    #   the sum:       |fl(S) - S|  <= gamma_{K-1} sum|terms|,  gamma ~ Ku
    #   so |true - fl| <= ~1.04 K u A + K eta with A = sum of term magnitudes,
    # and A itself, computed in floats, underestimates by < 2%.  err below is
    # 2KuA + 2Keta computed with two roundings, which dominates the need for
    # every K up to ~1e13.  err > 0, so the sign of a zero sum never shows.
    # `terms`, broadcast against the sums, is K per output when some of the
    # contracted products are padding: exact zeros add nothing to S or A.
    reduce = np.add.reduce
    slo = reduce(lo, axis)
    shi = reduce(hi, axis)
    # the term magnitudes max(|lo|, |hi|) are max(-lo, hi), as lo <= hi
    amax = reduce(np.maximum(np.negative(lo, scratch), hi, out=scratch),
                  axis)
    k = lo.size // max(slo.size, 1) if terms is None else terms
    err = amax * (k * 2.0 ** -52) + (2 * k) * _ETA
    return down(slo - err), up(shi + err)


# The products are formed in place, so a contraction over a large slab holds
# three temporaries: allocating and releasing large blocks costs more than
# the arithmetic on them.

def _products(al, ah, bl, bh):
    """Elementwise products a * b, unrounded: (lo, hi, a scratch array)."""
    p = al * bl
    q = al * bh
    lo = np.minimum(p, q)
    hi = np.maximum(p, q, out=p)
    for b in (bl, bh):
        np.multiply(ah, b, out=q)
        np.minimum(lo, q, out=lo)
        np.maximum(hi, q, out=hi)
    return lo, hi, q


def dot(al, ah, bl, bh, axis) -> Pair:
    """Enclosure of sum_k a_k * b_k contracted along `axis` (post-broadcast)."""
    return _contract(*_products(al, ah, bl, bh), axis)


def cauchy(al, ah, bl, bh) -> Pair:
    """Every layer c_m = sum_{k<=m} a_k b_(m-k) of the Cauchy product of two
    series along axis 0 (n layers each, as many axes each, the others
    broadcast), in one contraction: row m pairs a with b reversed up to m
    and zero past it.  Charged its m+1 true terms, row m is `dot` over
    those terms bit for bit wherever the contracted axis is not the
    innermost one."""
    n = al.shape[0]
    zero = np.zeros((n - 1,) + bl.shape[1:])
    rev = (np.arange(n)[:, None] - np.arange(n)) % (2 * n - 1)
    terms = np.arange(1, n + 1).reshape((n,) + (1,) * (al.ndim - 1))
    bl, bh = (np.concatenate([b, zero])[rev] for b in (bl, bh))
    return _contract(*_products(al[None], ah[None], bl, bh), 1, terms)


def powers(x: float, n: int) -> Pair:
    """Enclosures of x^0, ..., x^n for a float x > 0.  The running product
    fl(x^i) rounds i-1 times, so it is off by at most about (i-1) u x^i
    (u = 2^-53) plus (i-1) eta/2 below the normal range; the radius
    (i-1) 2^-51 fl(x^i) + 2 (i-1) eta covers that four and three times over,
    its own rounding included.  x^0 = 1 and x^1 = x stay exact."""
    k = np.maximum(np.arange(n + 1) - 1, 0)
    p = np.cumprod(np.concatenate([[1.0], np.full(n, float(x))]))
    rad = p * (k * 2.0 ** -51) + (2 * k) * _ETA
    exact = k == 0
    return (np.where(exact, p, down(p - rad)),
            np.where(exact, p, up(p + rad)))


def dot_thin(al, ah, b, axis) -> Pair:
    """`dot` with a thin (point) right factor."""
    p = al * b
    q = ah * b
    lo = np.minimum(p, q)
    return _contract(lo, np.maximum(p, q, out=p), q, axis)


def matmul(Al, Ah, Bl, Bh) -> Pair:
    """(n, k) interval times (k, m) interval."""
    return dot(Al[:, :, None], Ah[:, :, None],
               Bl[None, :, :], Bh[None, :, :], axis=1)


def matmul_thin_right(Al, Ah, B) -> Pair:
    return dot_thin(Al[:, :, None], Ah[:, :, None], B[None, :, :], axis=1)


def matmul_thin_left(A, Bl, Bh) -> Pair:
    return dot_thin(Bl[None, :, :], Bh[None, :, :], A[:, :, None], axis=1)


def matvec(Al, Ah, bl, bh) -> Pair:
    return dot(Al, Ah, bl[None, :], bh[None, :], axis=1)


def matvec_thin_right(Al, Ah, b) -> Pair:
    return dot_thin(Al, Ah, b[None, :], axis=1)


def matvec_thin_left(A, bl, bh) -> Pair:
    """A b for a float A and an interval vector b, or a stack (..., k) of
    them: each row sum runs over the contiguous last axis."""
    return dot_thin(bl[..., None, :], bh[..., None, :], A, axis=-1)


def vecdot(al, ah, bl, bh) -> Pair:
    """Scalar enclosure of an interval dot product of two 1-d arrays."""
    return dot(al, ah, bl, bh, axis=0)


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


def diam(al, ah) -> np.ndarray:
    d = ah - al
    return np.where(ah - d == al, d, up(d))


def mag(al, ah) -> np.ndarray:
    return np.maximum(np.abs(al), np.abs(ah))

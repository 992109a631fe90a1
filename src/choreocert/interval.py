"""Outward-rounded scalar intervals over IEEE-754 binary64.

Every arithmetic result encloses the exact real result.  Directed rounding is
emulated by next-representable nudging of computed endpoints ("nudge"
backend): after an operation in round-to-nearest, moving one ulp outward is
always enough to cover the rounding error.  Additions and subtractions use
the two-sum error term to nudge only when the float result is actually
inexact, which makes sums of exactly cancelling values exact — the embedding
and reduction maps rely on that.

The ``CHOREO_ROUNDING`` environment variable selects the backend by name.
Only ``nudge`` is implemented; requesting ``hardware`` falls back to nudging
with a warning (per-thread FPU mode switching is not dependable from
CPython).  Nudged scalar operations are plain IEEE-754 operations, so they
give the same bits on every platform.
"""

from __future__ import annotations

import math
import os
import warnings
from decimal import Decimal
from fractions import Fraction

from .errors import DivisionByZeroInterval, EmptyIntersection

_INF = math.inf

_BACKENDS = ("nudge", "hardware")


def rounding_backend() -> str:
    """Name of the active outward-rounding backend (always ``nudge``)."""
    requested = os.environ.get("CHOREO_ROUNDING", "nudge").strip().lower()
    if requested not in _BACKENDS:
        raise ValueError(
            f"CHOREO_ROUNDING must be one of {_BACKENDS}, got {requested!r}")
    if requested == "hardware":
        warnings.warn(
            "CHOREO_ROUNDING=hardware is not supported on this platform; "
            "using the nudge backend", RuntimeWarning, stacklevel=2)
    return "nudge"


def _down(x: float) -> float:
    return math.nextafter(x, -_INF)


def _up(x: float) -> float:
    return math.nextafter(x, _INF)


def _sum_down(a: float, b: float) -> float:
    # Two-sum: err is the exact rounding error of s = fl(a+b); nudge only
    # when the true sum lies strictly below s.
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return _down(s) if err < 0.0 else s


def _sum_up(a: float, b: float) -> float:
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return _up(s) if err > 0.0 else s


def _square_is_exact(x: float) -> bool:
    # x = odd * 2^k exactly; x^2 is representable iff odd^2 fits a mantissa
    # and the exponent stays comfortably inside the normal range.
    if x == 0.0:
        return True
    if not 2.0 ** -500 < abs(x) < 2.0 ** 500:
        return False
    mantissa, _ = math.frexp(x)
    m = int(mantissa * 2.0 ** 53)
    odd = m >> (m & -m).bit_length() - 1
    return (odd * odd).bit_length() <= 53


class Interval:
    """Closed interval [lo, hi] with finite binary64 endpoints.

    Values are immutable and safe to share across threads.
    """

    __slots__ = ("lo", "hi")

    lo: float
    hi: float

    def __init__(self, lo: float, hi: float | None = None):
        if hi is None:
            hi = lo
        lo = float(lo)
        hi = float(hi)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"interval endpoints must be finite: [{lo}, {hi}]")
        if lo > hi:
            raise ValueError(f"interval endpoints out of order: [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Interval is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def point(cls, x: float) -> Interval:
        """Thin interval [x, x]."""
        return cls(x, x)

    @classmethod
    def from_string(cls, text: str) -> Interval:
        """Enclosure of a decimal literal.

        Exactly representable literals give a thin interval; anything else is
        widened outward by one ulp on the inexact side(s).
        """
        x = float(text)
        if not math.isfinite(x):
            raise ValueError(f"not a finite decimal literal: {text!r}")
        exact_value = Fraction(Decimal(text))
        if Fraction(x) == exact_value:
            return cls(x, x)
        if Fraction(x) < exact_value:
            return cls(x, _up(x))
        return cls(_down(x), x)

    @classmethod
    def from_hex(cls, lo_hex: str, hi_hex: str) -> Interval:
        return cls(float.fromhex(lo_hex), float.fromhex(hi_hex))

    # -- serialization -----------------------------------------------------

    def to_hex(self) -> tuple[str, str]:
        """Lossless hexadecimal endpoint strings."""
        return (self.lo.hex(), self.hi.hex())

    def __repr__(self) -> str:
        return f"Interval({self.lo!r}, {self.hi!r})"

    def __str__(self) -> str:
        return f"[{self.lo:.17g}, {self.hi:.17g}]"

    # -- set queries --------------------------------------------------------

    def mid(self) -> float:
        m = self.lo + 0.5 * (self.hi - self.lo)
        # Rounding can push m outside a thin interval; clamp to stay inside.
        return min(max(m, self.lo), self.hi)

    def diam(self) -> float:
        """Upper bound on hi - lo."""
        d = self.hi - self.lo
        return d if (self.hi - d == self.lo) else _up(d)

    def mag(self) -> float:
        """max |x| over the interval."""
        return max(abs(self.lo), abs(self.hi))

    def mig(self) -> float:
        """min |x| over the interval."""
        if self.lo <= 0.0 <= self.hi:
            return 0.0
        return min(abs(self.lo), abs(self.hi))

    def is_thin(self) -> bool:
        return self.lo == self.hi

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def contains_zero(self) -> bool:
        return self.lo <= 0.0 <= self.hi

    def subset(self, other: Interval) -> bool:
        return other.lo <= self.lo and self.hi <= other.hi

    def subset_interior(self, other: Interval) -> bool:
        return other.lo < self.lo and self.hi < other.hi

    def disjoint(self, other: Interval) -> bool:
        return self.hi < other.lo or other.hi < self.lo

    def intersect(self, other: Interval) -> Interval:
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            raise EmptyIntersection(f"{self} and {other} are disjoint")
        return Interval(lo, hi)

    def hull(self, other: Interval) -> Interval:
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def __eq__(self, other) -> bool:
        if isinstance(other, Interval):
            return self.lo == other.lo and self.hi == other.hi
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(x) -> Interval:
        if isinstance(x, Interval):
            return x
        if isinstance(x, (int, float)):
            return Interval(float(x), float(x))
        return NotImplemented  # type: ignore[return-value]

    def __neg__(self) -> Interval:
        return Interval(-self.hi, -self.lo)

    def __abs__(self) -> Interval:
        if self.lo >= 0.0:
            return self
        if self.hi <= 0.0:
            return -self
        return Interval(0.0, max(-self.lo, self.hi))

    def __add__(self, other) -> Interval:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Interval(_sum_down(self.lo, o.lo), _sum_up(self.hi, o.hi))

    __radd__ = __add__

    def __sub__(self, other) -> Interval:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Interval(_sum_down(self.lo, -o.hi), _sum_up(self.hi, -o.lo))

    def __rsub__(self, other) -> Interval:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other) -> Interval:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        # Exact scalings (copies, negations, doubling) introduce no rounding.
        for a, b in ((self, o), (o, self)):
            if a.lo == a.hi:
                c = a.lo
                if c == 0.0:
                    return Interval(0.0, 0.0)
                if c == 1.0:
                    return b
                if c == -1.0:
                    return -b
                if c == 2.0:
                    return Interval(2.0 * b.lo, 2.0 * b.hi)
                if c == -2.0:
                    return Interval(-2.0 * b.hi, -2.0 * b.lo)
        p1 = self.lo * o.lo
        p2 = self.lo * o.hi
        p3 = self.hi * o.lo
        p4 = self.hi * o.hi
        return Interval(_down(min(p1, p2, p3, p4)), _up(max(p1, p2, p3, p4)))

    __rmul__ = __mul__

    def __truediv__(self, other) -> Interval:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.lo <= 0.0 <= o.hi:
            raise DivisionByZeroInterval(f"divisor {o} contains zero")
        if o.lo == o.hi and abs(o.lo) in (1.0, 2.0):
            # Exact in binary64 away from the subnormal range.
            c = o.lo
            lo, hi = self.lo / c, self.hi / c
            return Interval(min(lo, hi), max(lo, hi))
        q1 = self.lo / o.lo
        q2 = self.lo / o.hi
        q3 = self.hi / o.lo
        q4 = self.hi / o.hi
        return Interval(_down(min(q1, q2, q3, q4)), _up(max(q1, q2, q3, q4)))

    def __rtruediv__(self, other) -> Interval:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def sqr(self) -> Interval:
        """Tight square: never negative even when the interval straddles 0,
        and exact for thin inputs whose square is representable."""
        if self.lo == self.hi and _square_is_exact(self.lo):
            p = self.lo * self.lo
            return Interval(p, p)
        m = self.mag()
        g = self.mig()
        return Interval(_down(g * g) if g > 0.0 else 0.0, _up(m * m))

    def __pow__(self, n: int) -> Interval:
        # Repeated interval multiplication; libm pow rounding is not trusted.
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers are supported")
        if n == 0:
            return Interval(1.0, 1.0)
        if n == 1:
            return self
        if n % 2 == 0:
            return self.sqr() ** (n // 2)
        return self * (self ** (n - 1))

    def sqrt(self) -> Interval:
        if self.lo < 0.0:
            raise ValueError(f"sqrt of interval {self} with negative part")
        return Interval(_down(math.sqrt(self.lo)), _up(math.sqrt(self.hi)))

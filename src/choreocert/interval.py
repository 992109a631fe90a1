"""Outward-rounded scalar intervals over IEEE-754 binary64.

Every arithmetic result encloses the exact real result.  `Interval` is the
value type only: each operator hands its endpoints to the matching array
kernel of `kernels`, the one place that rounds, under the one rule there:
lower ends rounded down, upper ends rounded up.  So thin and thick operands
take the same path, exact results stay exact with no shortcut for them, and
a scalar result has the bits of the array kernel on every machine that runs
the kernels.  An endpoint that is zero is stored as +0: round-down makes an
exact cancellation -0.
"""

from __future__ import annotations

import math

from . import kernels as kn
from .errors import EmptyIntersection


def rounding_backend() -> str:
    """Name of the outward-rounding scheme: the directed modes of `kernels`,
    round-down for lower ends and round-up for upper ends."""
    return "directed"


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
        # + 0.0 at round-to-nearest turns -0 into +0 and keeps every other value
        lo = float(lo) + 0.0
        hi = float(hi) + 0.0
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
        return float(kn.mid(self.lo, self.hi))

    def diam(self) -> float:
        """Upper bound on hi - lo."""
        return float(kn.diam(self.lo, self.hi))

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
        return Interval(*kn.add(self.lo, self.hi, o.lo, o.hi))

    __radd__ = __add__

    def __sub__(self, other) -> Interval:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Interval(*kn.sub(self.lo, self.hi, o.lo, o.hi))

    def __rsub__(self, other) -> Interval:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other) -> Interval:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Interval(*kn.mul(self.lo, self.hi, o.lo, o.hi))

    __rmul__ = __mul__

    def __truediv__(self, other) -> Interval:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Interval(*kn.div(self.lo, self.hi, o.lo, o.hi))

    def __rtruediv__(self, other) -> Interval:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def sqr(self) -> Interval:
        """Tight square: never negative even when the interval straddles 0."""
        return Interval(*kn.sqr(self.lo, self.hi))

    def sqrt(self) -> Interval:
        return Interval(*kn.sqrt(self.lo, self.hi))

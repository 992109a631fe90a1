"""Interval vectors and matrices, plus the verified linear solve.

`IntervalVector` and `IntervalMatrix` wrap (lo, hi) float64 arrays and expose
the set predicates needed by the certification operators.  One private base
holds what both shapes share: the checks on construction (the number of
axes, nonempty, finite, ordered ends, -0 stored as +0), immutability, the
set operations and the elementwise arithmetic, each one kernel call.  The
vector adds indexing, point membership and its hex codec; the matrix adds
the interval products `matvec` and `matmul` and its hex codec.  Heavy inner
loops elsewhere use the raw kernels directly; these classes are the stable
API.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from . import kernels as kn
from .errors import DimensionMismatch, SingularEnclosure
from .interval import Interval


class _IntervalBox:
    """A nonempty (lo, hi) pair of float64 arrays with `NDIM` axes, one
    closed interval per entry, immutable once built.  Every operation is
    one kernel call; an operand is a box of the same shape or a float
    array, which stands for the box of its points."""

    __slots__ = ("lo", "hi")
    NDIM: int

    def __init__(self, lo, hi):
        # copies; + 0.0 at round-to-nearest stores a -0 endpoint as +0, as
        # `Interval` does
        lo = np.asarray(lo, dtype=np.float64) + 0.0
        hi = np.asarray(hi, dtype=np.float64) + 0.0
        what = type(self).__name__
        if lo.ndim != self.NDIM or hi.shape != lo.shape:
            raise DimensionMismatch(f"{what}: bad shapes {lo.shape} / {hi.shape}")
        if lo.size == 0:
            raise DimensionMismatch(f"{what} must be nonempty")
        kn.assert_valid(lo, hi, what)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def point(cls, values):
        v = np.asarray(values, dtype=np.float64)
        return cls(v, v)

    def __eq__(self, other) -> bool:
        if type(other) is type(self):
            return (np.array_equal(self.lo, other.lo)
                    and np.array_equal(self.hi, other.hi))
        return NotImplemented

    def _coerce(self, other) -> tuple[np.ndarray, np.ndarray]:
        if isinstance(other, _IntervalBox):
            bl, bh = other.lo, other.hi
        else:
            bl = bh = np.asarray(other, dtype=np.float64)
        if bl.shape != self.lo.shape:
            raise DimensionMismatch(f"{type(self).__name__}: shapes differ, "
                                    f"{self.lo.shape} and {bl.shape}")
        return bl, bh

    # -- set ops --

    def mid(self) -> np.ndarray:
        return kn.mid(self.lo, self.hi)

    def diam(self) -> np.ndarray:
        return kn.diam(self.lo, self.hi)

    def hull(self, other):
        return type(self)(*kn.hull(self.lo, self.hi, *self._coerce(other)))

    def intersect(self, other):
        return type(self)(*kn.intersect(self.lo, self.hi, *self._coerce(other)))

    def subset(self, other) -> bool:
        return kn.subset(self.lo, self.hi, *self._coerce(other))

    def subset_interior(self, other) -> bool:
        return kn.subset_interior(self.lo, self.hi, *self._coerce(other))

    def disjoint(self, other) -> bool:
        return kn.disjoint(self.lo, self.hi, *self._coerce(other))

    # -- arithmetic --

    def __add__(self, other):
        return type(self)(*kn.add(self.lo, self.hi, *self._coerce(other)))

    __radd__ = __add__

    def __sub__(self, other):
        return type(self)(*kn.sub(self.lo, self.hi, *self._coerce(other)))

    def __rsub__(self, other):
        return type(self)(*kn.sub(*self._coerce(other), self.lo, self.hi))

    def __neg__(self):
        return type(self)(*kn.neg(self.lo, self.hi))


class IntervalVector(_IntervalBox):
    """Interval box: a product of nonempty closed intervals."""

    __slots__ = ()
    NDIM = 1

    @classmethod
    def from_intervals(cls, items: Iterable[Interval]) -> IntervalVector:
        items = list(items)
        return cls(np.array([iv.lo for iv in items]),
                   np.array([iv.hi for iv in items]))

    @classmethod
    def box(cls, center, radius) -> IntervalVector:
        """center +- radius, componentwise, outward rounded."""
        c = np.asarray(center, dtype=np.float64)
        r = np.abs(np.asarray(radius, dtype=np.float64))
        return cls(*kn.add(c, c, -r, r))

    def __len__(self) -> int:
        return self.lo.size

    def __getitem__(self, i: int) -> Interval:
        return Interval(float(self.lo[i]), float(self.hi[i]))

    def __iter__(self) -> Iterator[Interval]:
        for i in range(len(self)):
            yield self[i]

    def __repr__(self) -> str:
        parts = ", ".join(f"[{a:.17g}, {b:.17g}]"
                          for a, b in zip(self.lo, self.hi))
        return f"IntervalVector({parts})"

    def contains_point(self, x) -> bool:
        return kn.contains_point(self.lo, self.hi, np.asarray(x, dtype=np.float64))

    def contains_zero(self) -> bool:
        return kn.contains_point(self.lo, self.hi, np.zeros(len(self)))

    def to_hex(self) -> list[list[str]]:
        return [[float(a).hex(), float(b).hex()]
                for a, b in zip(self.lo, self.hi)]

    @classmethod
    def from_hex(cls, data) -> IntervalVector:
        return cls(np.array([float.fromhex(p[0]) for p in data]),
                   np.array([float.fromhex(p[1]) for p in data]))


class IntervalMatrix(_IntervalBox):
    """Rectangular grid of intervals; encloses every pointwise selection."""

    __slots__ = ()
    NDIM = 2

    @classmethod
    def identity(cls, n: int) -> IntervalMatrix:
        return cls.point(np.eye(n))

    @property
    def shape(self) -> tuple[int, int]:
        return self.lo.shape

    def __getitem__(self, ij: tuple[int, int]) -> Interval:
        i, j = ij
        return Interval(float(self.lo[i, j]), float(self.hi[i, j]))

    def __repr__(self) -> str:
        return f"IntervalMatrix(shape={self.shape})"

    def matvec(self, v: IntervalVector) -> IntervalVector:
        if self.shape[1] != len(v):
            raise DimensionMismatch("matvec shape mismatch")
        return IntervalVector(*kn.matvec(self.lo, self.hi, v.lo, v.hi))

    def matmul(self, other: IntervalMatrix) -> IntervalMatrix:
        if self.shape[1] != other.shape[0]:
            raise DimensionMismatch("matmul shape mismatch")
        return IntervalMatrix(*kn.matmul(self.lo, self.hi, other.lo, other.hi))

    def to_hex(self) -> list[list[list[str]]]:
        return [[[float(self.lo[i, j]).hex(), float(self.hi[i, j]).hex()]
                 for j in range(self.shape[1])] for i in range(self.shape[0])]

    @classmethod
    def from_hex(cls, data) -> IntervalMatrix:
        return cls(np.array([[float.fromhex(e[0]) for e in row] for row in data]),
                   np.array([[float.fromhex(e[1]) for e in row] for row in data]))


def midpoint_inverse(A: IntervalMatrix) -> np.ndarray:
    """inv(mid A) in plain floats: the preconditioner of `solve_linear` and
    of the Krawczyk operator.  Raises SingularEnclosure when there is none."""
    try:
        pre = np.linalg.inv(A.mid())
    except np.linalg.LinAlgError as exc:
        raise SingularEnclosure("midpoint matrix is numerically singular") from exc
    if not np.all(np.isfinite(pre)):
        raise SingularEnclosure("midpoint inverse overflowed")
    return pre


def solve_linear(A: IntervalMatrix, b: IntervalVector) -> IntervalVector:
    """Enclosure of {A0^-1 b0 : A0 in A, b0 in b} for square A.

    Midpoint-preconditioned interval Gaussian elimination with partial
    pivoting on midpoint magnitudes; no interval matrix inverse is formed.
    Raises SingularEnclosure when a pivot interval contains zero, which is a
    verified-regularity failure (shrink the box or the step size upstream).
    """
    n, m = A.shape
    if n != m or len(b) != n:
        raise DimensionMismatch("solve_linear needs square A and matching b")
    pre = midpoint_inverse(A)
    ul, uh = kn.matmul_thin_left(pre, A.lo, A.hi)
    vl, vh = kn.matvec_thin_left(pre, b.lo, b.hi)

    # Small systems only (n <= 7 in this package); scalar elimination is fine.
    M = [[Interval(float(ul[i, j]), float(uh[i, j])) for j in range(n)]
         for i in range(n)]
    rhs = [Interval(float(vl[i]), float(vh[i])) for i in range(n)]

    for k in range(n):
        piv = max(range(k, n), key=lambda i: abs(M[i][k].mid()))
        if piv != k:
            M[k], M[piv] = M[piv], M[k]
            rhs[k], rhs[piv] = rhs[piv], rhs[k]
        if M[k][k].contains_zero():
            raise SingularEnclosure(
                f"pivot interval {M[k][k]} contains zero at column {k}")
        for i in range(k + 1, n):
            factor = M[i][k] / M[k][k]
            for j in range(k + 1, n):
                M[i][j] = M[i][j] - factor * M[k][j]
            rhs[i] = rhs[i] - factor * rhs[k]

    x: list[Interval] = [Interval(0.0)] * n
    for k in range(n - 1, -1, -1):
        acc = rhs[k]
        for j in range(k + 1, n):
            acc = acc - M[k][j] * x[j]
        x[k] = acc / M[k][k]
    return IntervalVector.from_intervals(x)

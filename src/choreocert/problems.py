"""Choreography problems: embeddings, reductions, sections, and the map
whose zeros are orbits.

Each problem packages E (reduced point -> full symmetric initial state),
a Poincare section, and R (full state -> symmetry defects) so that
R(P(E(x))) = 0 certifies one choreography:

* eight    - the three-body figure Eight in the rotated frame (first body on
             the positive x axis, third at the origin); reduced space is the
             first body's velocity.
* chain(N) - doubly symmetric chains for even N (full phase space),
             N = 4k or 4k + 2, with size parameter a; key "chainN".
* gerver   - the four-body SuperEight: chain(4) with its reduced
             coordinates reordered to (x1, vx0, vy1), as in the results
             tables.
* chain6   - the antipodal half of chain(6): the 12-dim system of the
             first three bodies (q_{i+3} = -q_i) in the frame of the source
             data (axes interchanged, quarter-period time shift); reduced
             coordinates (vx0, x1, y1, vx1, vy1), section y1 = 0.

Embeddings are exact: components are copies, negations or doublings of the
reduced coordinates, or the size parameter alone, which is pinned to one
binary64 value, so E introduces no rounding at all.  LinearEmbedding checks
this shape when it is built.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import kernels as kn
from .boxes import IntervalMatrix, IntervalVector
from .dynamics import GravityField, PhaseLayout, nbody_field, reduced6_field
from .errors import DimensionMismatch, NonTransversal
from .integrator import LohnerSet, SectionCrossing, SectionSpec, flow_to_section
from .interval import Interval

Pair = tuple[np.ndarray, np.ndarray]


# --- linear embeddings / reductions -------------------------------------------

@dataclass(frozen=True)
class LinearEmbedding:
    """Full state = offset + matrix * reduced point, with exact entries."""

    offset: np.ndarray       # constants: zeros and +-a
    matrix: np.ndarray       # entries in {0, +-1, +-2}

    def __post_init__(self):
        # box() adds offset and scaled coordinates with plain float sums;
        # these conditions make every such sum exact.
        nonzero = self.matrix != 0
        if np.any(nonzero.sum(axis=1) > 1):
            raise ValueError("embedding row mixes several reduced coordinates")
        if np.any(nonzero.any(axis=1) & (self.offset != 0)):
            raise ValueError("embedding row has both an offset and a coordinate")
        if not np.all(np.isin(np.abs(self.matrix[nonzero]), (1.0, 2.0))):
            raise ValueError("embedding coefficients must be +-1 or +-2")
        if np.unique(np.abs(self.offset[self.offset != 0])).size > 1:
            raise ValueError("embedding offsets must share one magnitude")

    def point(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, float)
        out = self.offset.copy()
        rows, cols = np.nonzero(self.matrix)
        out[rows] += self.matrix[rows, cols] * x[cols]
        return out

    def box(self, X: IntervalVector) -> Pair:
        lo = self.offset.copy()
        hi = self.offset.copy()
        rows, cols = np.nonzero(self.matrix)
        for r, c in zip(rows, cols):
            iv = X[int(c)] * Interval.point(float(self.matrix[r, c]))
            lo[r] += iv.lo
            hi[r] += iv.hi
        return lo, hi


@dataclass(frozen=True)
class LinearReduction:
    """Reduced defect = matrix * full state, entries in {0, +-1}.

    Rows are evaluated as scalar signed sums so that exact cancellations
    (sums of identical values with opposite signs) stay exactly zero.
    """

    matrix: np.ndarray

    def apply(self, sl: np.ndarray, sh: np.ndarray) -> IntervalVector:
        out = []
        for row in self.matrix:
            acc = Interval(0.0)
            for j in np.nonzero(row)[0]:
                term = Interval(float(sl[j]), float(sh[j]))
                acc = acc + term if row[j] > 0 else acc - term
            out.append(acc)
        return IntervalVector.from_intervals(out)

    def derivative(self, sl: np.ndarray, sh: np.ndarray) -> Pair:
        return self.matrix, self.matrix


# --- problem container ---------------------------------------------------------

@dataclass
class ChoreographyProblem:
    key: str
    field: GravityField
    section: SectionSpec
    embed_map: LinearEmbedding
    reduce_map: LinearReduction | EightReduction
    size_parameter: float | None                # exact binary64, or None
    period_multiplier: int                      # T = multiplier * t_cross
    reduced_names: tuple[str, ...]
    antipodal: bool = False                     # state is the first half

    @property
    def layout(self) -> PhaseLayout:
        return self.field.layout

    @property
    def n_bodies(self) -> int:
        """Bodies in the integrated state."""
        return self.layout.n_bodies

    @property
    def orbit_bodies(self) -> int:
        """Bodies on the full orbit (twice the state's when antipodal)."""
        return 2 * self.n_bodies if self.antipodal else self.n_bodies

    @property
    def reduced_dim(self) -> int:
        return self.embed_map.matrix.shape[1]

    # -- E --

    def embed_point(self, x) -> np.ndarray:
        x = np.asarray(x, float)
        if x.size != self.reduced_dim:
            raise DimensionMismatch(
                f"{self.key}: reduced point has size {x.size}, "
                f"expected {self.reduced_dim}")
        return self.embed_map.point(x)

    def embed(self, X: IntervalVector) -> IntervalVector:
        if len(X) != self.reduced_dim:
            raise DimensionMismatch(
                f"{self.key}: reduced box has size {len(X)}, "
                f"expected {self.reduced_dim}")
        return IntervalVector(*self.embed_map.box(X))

    def embed_derivative(self) -> np.ndarray:
        return self.embed_map.matrix.copy()

    # -- R --

    def reduce(self, sl, sh) -> IntervalVector:
        sl = np.asarray(sl, float)
        sh = np.asarray(sh, float)
        if sl.size != self.layout.dim:
            raise DimensionMismatch(f"{self.key}: bad full-state size")
        return self.reduce_map.apply(sl, sh)

    def reduce_derivative(self, sl, sh) -> Pair:
        return self.reduce_map.derivative(sl, sh)

    # -- full 4N-dim view (identity unless antipodally reduced) --

    def expand_state(self, sl, sh) -> tuple[PhaseLayout, np.ndarray, np.ndarray]:
        """Full unreduced state for conserved-quantity evaluation."""
        if not self.antipodal:
            return self.layout, np.asarray(sl, float), np.asarray(sh, float)
        full = PhaseLayout(self.orbit_bodies, "blocks")
        el = np.concatenate([sl, -np.asarray(sh, float)])
        eh = np.concatenate([sh, -np.asarray(sl, float)])
        return full, el, eh


# --- the Eight -----------------------------------------------------------------

class EightReduction:
    """The Eight's defects: the velocity cross product (v2 - v3) y1 -
    (u2 - u3) x1, then the distance difference |q2-q1|^2 - |q3-q1|^2."""

    def apply(self, sl: np.ndarray, sh: np.ndarray) -> IntervalVector:
        s = [Interval(float(sl[i]), float(sh[i])) for i in range(12)]
        cross = (s[8] - s[10]) * s[1] - (s[9] - s[11]) * s[0]
        dist = ((s[2] - s[0]).sqr() + (s[3] - s[1]).sqr()
                - (s[4] - s[0]).sqr() - (s[5] - s[1]).sqr())
        return IntervalVector.from_intervals([cross, dist])

    def derivative(self, sl: np.ndarray, sh: np.ndarray) -> Pair:
        s = [Interval(float(sl[i]), float(sh[i])) for i in range(12)]
        two = Interval.point(2.0)
        rows: list[list[Interval]] = [[Interval(0.0)] * 12 for _ in range(2)]
        # d/ds of (v2 - v3) y1 - (u2 - u3) x1
        rows[0][0] = -(s[9] - s[11])
        rows[0][1] = s[8] - s[10]
        rows[0][8] = s[1]
        rows[0][10] = -s[1]
        rows[0][9] = -s[0]
        rows[0][11] = s[0]
        # d/ds of |q2-q1|^2 - |q3-q1|^2
        d21 = (s[2] - s[0], s[3] - s[1])
        d31 = (s[4] - s[0], s[5] - s[1])
        rows[1][0] = two * (d31[0] - d21[0])
        rows[1][1] = two * (d31[1] - d21[1])
        rows[1][2] = two * d21[0]
        rows[1][3] = two * d21[1]
        rows[1][4] = -(two * d31[0])
        rows[1][5] = -(two * d31[1])
        m = IntervalMatrix.from_intervals(rows)
        return m.lo, m.hi


def _eight_section() -> SectionSpec:
    def g(sl, sh):
        x1 = Interval(float(sl[0]), float(sh[0]))
        y1 = Interval(float(sl[1]), float(sh[1]))
        v1 = Interval(float(sl[6]), float(sh[6]))
        u1 = Interval(float(sl[7]), float(sh[7]))
        return x1 * v1 + y1 * u1

    def dg(sl, sh):
        lo = np.zeros(12)
        hi = np.zeros(12)
        lo[0:2], hi[0:2] = sl[6:8], sh[6:8]
        lo[6:8], hi[6:8] = sl[0:2], sh[0:2]
        return lo, hi

    return SectionSpec(g=g, dg=dg, crossing_sign="+-")


def eight_problem() -> ChoreographyProblem:
    """The rotated Eight: q1 = (1,0), q2 = (-1,0), q3 = 0, parameterized by
    the first body's velocity (v, u); section: q1 . dq1 = 0 (first body's
    position orthogonal to its velocity); defects in the order the results
    tables use (velocity cross product first)."""
    offset = np.zeros(12)
    offset[0], offset[2] = 1.0, -1.0
    mat = np.zeros((12, 2))
    mat[6, 0] = mat[8, 0] = 1.0
    mat[7, 1] = mat[9, 1] = 1.0
    mat[10, 0] = -2.0
    mat[11, 1] = -2.0
    return ChoreographyProblem(
        key="eight",
        field=nbody_field(3, kind="split"),
        section=_eight_section(),
        embed_map=LinearEmbedding(offset, mat),
        reduce_map=EightReduction(),
        size_parameter=None,
        period_multiplier=12,
        reduced_names=("v", "u"),
    )


# --- chains --------------------------------------------------------------------

def _coordinate_section(index: int, dim: int, other: int | None = None,
                        sign: str = "+-") -> SectionSpec:
    """g = s[index] - s[other] (or s[index] when other is None)."""

    def g(sl, sh):
        a = Interval(float(sl[index]), float(sh[index]))
        if other is None:
            return a
        return a - Interval(float(sl[other]), float(sh[other]))

    def dg(sl, sh):
        v = np.zeros(dim)
        v[index] = 1.0
        if other is not None:
            v[other] = -1.0
        return v, v

    return SectionSpec(g=g, dg=dg, crossing_sign=sign)


def _chain_embedding(n_bodies: int, body_specs, reduced_dim: int,
                     a: float) -> LinearEmbedding:
    """body_specs: per body, 4 entries, each ("0"), ("a", sign) or
    (coord_index, sign)."""
    dim = 4 * n_bodies
    offset = np.zeros(dim)
    mat = np.zeros((dim, reduced_dim))
    for b, spec in enumerate(body_specs):
        for c, entry in enumerate(spec):
            i = 4 * b + c
            if entry == "0":
                continue
            kind, sign = entry
            if kind == "a":
                offset[i] = sign * a
            else:
                mat[i, kind] = sign
    return LinearEmbedding(offset, mat)


def _chain_reduction(n_bodies: int, rows) -> LinearReduction:
    """rows: list of ((body, comp, sign), ...) summed per defect row."""
    mat = np.zeros((len(rows), 4 * n_bodies))
    for r, terms in enumerate(rows):
        for body, comp, sign in terms:
            mat[r, 4 * body + comp] = sign
    return LinearReduction(mat)


def chain_problem(n_bodies: int, a_text: str) -> ChoreographyProblem:
    """Generic doubly symmetric chain for even N in the full phase space.

    Reduced coordinates: vx0, then (x_i, y_i, vx_i, vy_i) for the free
    bodies, closing with (x_k, vy_k) when N = 4k.
    """
    if n_bodies < 4 or n_bodies % 2 != 0:
        raise ValueError("chains need an even number of bodies, at least 4")
    a = float(a_text)
    N = n_bodies
    k = N // 4 if N % 4 == 0 else (N - 2) // 4

    if N % 4 == 0:
        names = ["vx0"]
        coord = {}
        for i in range(1, k):
            for nm in ("x", "y", "vx", "vy"):
                coord[(nm, i)] = len(names)
                names.append(f"{nm}{i}")
        coord[("x", k)] = len(names)
        names.append(f"x{k}")
        coord[("vy", k)] = len(names)
        names.append(f"vy{k}")

        def body(i):
            if i == 0:
                return ["0", ("a", 1.0), (0, 1.0), "0"]
            if 1 <= i <= k - 1:
                return [(coord[("x", i)], 1.0), (coord[("y", i)], 1.0),
                        (coord[("vx", i)], 1.0), (coord[("vy", i)], 1.0)]
            if i == k:
                return [(coord[("x", k)], 1.0), "0", "0", (coord[("vy", k)], 1.0)]
            if k + 1 <= i <= 2 * k - 1:
                j = 2 * k - i
                return [(coord[("x", j)], 1.0), (coord[("y", j)], -1.0),
                        (coord[("vx", j)], -1.0), (coord[("vy", j)], 1.0)]
            if i == 2 * k:
                return ["0", ("a", -1.0), (0, -1.0), "0"]
            if 2 * k + 1 <= i <= 3 * k - 1:
                j = i - 2 * k
                return [(coord[("x", j)], -1.0), (coord[("y", j)], -1.0),
                        (coord[("vx", j)], -1.0), (coord[("vy", j)], -1.0)]
            if i == 3 * k:
                return [(coord[("x", k)], -1.0), "0", "0", (coord[("vy", k)], -1.0)]
            j = 4 * k - i
            return [(coord[("x", j)], -1.0), (coord[("y", j)], 1.0),
                    (coord[("vx", j)], 1.0), (coord[("vy", j)], -1.0)]

        rows = [
            ((k, 1, 1.0), (k - 1, 1, 1.0)),
            ((k, 2, 1.0), (k - 1, 2, 1.0)),
            ((k, 3, 1.0), (k - 1, 3, -1.0)),
        ]
        for i in range(0, k - 1):
            j = 2 * k - i - 1
            rows += [
                ((i, 0, 1.0), (j, 0, -1.0)),
                ((i, 1, 1.0), (j, 1, 1.0)),
                ((i, 2, 1.0), (j, 2, 1.0)),
                ((i, 3, 1.0), (j, 3, -1.0)),
            ]
        section = _coordinate_section(4 * k, 4 * N, other=4 * (k - 1), sign="either")
    else:
        names = ["vx0"]
        coord = {}
        for i in range(1, k + 1):
            for nm in ("x", "y", "vx", "vy"):
                coord[(nm, i)] = len(names)
                names.append(f"{nm}{i}")

        def body(i):
            if i == 0:
                return ["0", ("a", 1.0), (0, 1.0), "0"]
            if 1 <= i <= k:
                return [(coord[("x", i)], 1.0), (coord[("y", i)], 1.0),
                        (coord[("vx", i)], 1.0), (coord[("vy", i)], 1.0)]
            if k + 1 <= i <= 2 * k:
                j = 2 * k + 1 - i
                return [(coord[("x", j)], 1.0), (coord[("y", j)], -1.0),
                        (coord[("vx", j)], -1.0), (coord[("vy", j)], 1.0)]
            if i == 2 * k + 1:
                return ["0", ("a", -1.0), (0, -1.0), "0"]
            if 2 * k + 2 <= i <= 3 * k + 1:
                j = i - (2 * k + 1)
                return [(coord[("x", j)], -1.0), (coord[("y", j)], -1.0),
                        (coord[("vx", j)], -1.0), (coord[("vy", j)], -1.0)]
            j = 4 * k + 2 - i
            return [(coord[("x", j)], -1.0), (coord[("y", j)], 1.0),
                    (coord[("vx", j)], 1.0), (coord[("vy", j)], -1.0)]

        rows = [((k, 2, 1.0),)]
        for i in range(0, k):
            j = 2 * k - i
            rows += [
                ((i, 0, 1.0), (j, 0, -1.0)),
                ((i, 1, 1.0), (j, 1, 1.0)),
                ((i, 2, 1.0), (j, 2, 1.0)),
                ((i, 3, 1.0), (j, 3, -1.0)),
            ]
        section = _coordinate_section(4 * k + 1, 4 * N, sign="either")

    embed = _chain_embedding(N, [body(i) for i in range(N)], N - 1, a)
    reduce_ = _chain_reduction(N, rows)
    return ChoreographyProblem(
        key=f"chain{N}",
        field=nbody_field(N, kind="blocks"),
        section=section,
        embed_map=embed,
        reduce_map=reduce_,
        size_parameter=a,
        period_multiplier=2 * N,
        reduced_names=tuple(names),
    )


def gerver_problem(a_text: str = "0.157029944461") -> ChoreographyProblem:
    """Gerver's SuperEight: chain(4) in the results tables' coordinate order
    (x1, vx0, vy1).  The column order is part of the problem: it is the
    column order of the set flow's initial slab, which feeds the QR frames."""
    chain = chain_problem(4, a_text)
    order = [1, 0, 2]
    return replace(
        chain,
        key="gerver",
        section=replace(chain.section, crossing_sign="+-"),
        embed_map=LinearEmbedding(chain.embed_map.offset,
                                  chain.embed_map.matrix[:, order]),
        reduced_names=tuple(chain.reduced_names[i] for i in order),
    )


def chain6_problem(a_text: str = "1.887041548253914") -> ChoreographyProblem:
    """chain(6) on its antipodal half q_{i+3} = -q_i: the first three
    bodies under the reduced six-body field, section y1 = 0."""
    chain = chain_problem(6, a_text)
    dim = 12
    reduction = chain.reduce_map.matrix
    if np.any(reduction[:, dim:]):
        raise ValueError("chain(6) defects read the antipodal bodies")
    return replace(
        chain,
        field=reduced6_field(kind="blocks"),
        section=_coordinate_section(5, dim, sign="+-"),
        embed_map=LinearEmbedding(chain.embed_map.offset[:dim],
                                  chain.embed_map.matrix[:dim]),
        reduce_map=LinearReduction(reduction[:, :dim]),
        antipodal=True,
    )


def make_problem(key: str, n_bodies: int | None = None,
                 a_text: str | None = None) -> ChoreographyProblem:
    """The problem for a system name ("chain" with n_bodies), or for the key
    a certificate records ("eight", "gerver", "chain6", "chainN")."""
    if key == "eight":
        return eight_problem()
    if key == "gerver":
        return gerver_problem(a_text) if a_text else gerver_problem()
    if key == "chain6":
        return chain6_problem(a_text) if a_text else chain6_problem()
    if key.startswith("chain") and key[5:].isdigit():
        n_bodies = int(key[5:])
        key = "chain"
    if key == "chain":
        if n_bodies is None or a_text is None:
            raise ValueError("chain needs --bodies and --a")
        return chain_problem(n_bodies, a_text)
    raise ValueError(f"unknown system {key!r}")


# --- the certified map ---------------------------------------------------------

@dataclass
class MapEvaluation:
    value: IntervalVector
    jacobian: IntervalMatrix | None
    crossing: SectionCrossing
    notes: dict = None


def _crossing_notes(problem: ChoreographyProblem,
                    cr: SectionCrossing) -> dict:
    """Extra validity facts recorded with a crossing.

    The Eight's reduction characterizes the target symmetry only when the
    first body is away from the origin on the section, so that distance is
    checked and recorded.
    """
    if problem.key != "eight":
        return {}
    ix, iy = problem.layout.body_position(0)
    x1 = Interval(float(cr.state[0][ix]), float(cr.state[1][ix]))
    y1 = Interval(float(cr.state[0][iy]), float(cr.state[1][iy]))
    dist2 = x1.sqr() + y1.sqr()
    if dist2.contains_zero():
        raise NonTransversal(
            "first body's crossing position cannot be separated from the "
            "origin; the reduction does not characterize the symmetry there")
    return {"first_body_distance_squared": dist2}


def phi_point(problem: ChoreographyProblem, x, h: float, order: int,
              max_steps: int | None = None) -> MapEvaluation:
    """Rigorous enclosure of the defect map at a point (thin run)."""
    s0 = problem.embed_point(x)
    start = LohnerSet.from_box(s0, s0)
    cr = flow_to_section(problem.field, start, problem.section, h, order,
                         max_steps)
    return MapEvaluation(value=problem.reduce(*cr.state), jacobian=None,
                         crossing=cr, notes=_crossing_notes(problem, cr))


def phi_jacobian(problem: ChoreographyProblem, X: IntervalVector, h: float,
                 order: int, max_steps: int | None = None) -> MapEvaluation:
    """Rigorous defect map and derivative enclosure over a reduced box.

    The embedded set is carried as a slab anchor + DE (X - mid), keeping the
    correlations the embedding creates, and the monodromy columns start at
    DE so the chain rule DR . DP . DE needs no extra factors.
    """
    mid = X.mid()
    anchor = problem.embed_point(mid)
    de = problem.embed_derivative()
    coords = kn.sub(X.lo, X.hi, mid, mid)
    start = LohnerSet.from_slab(anchor, de, coords)
    cr = flow_to_section(problem.field, start, problem.section, h, order,
                         max_steps)
    drl, drh = problem.reduce_derivative(*cr.state)
    jl, jh = kn.matmul(drl, drh, *cr.projected)
    return MapEvaluation(value=problem.reduce(*cr.state),
                         jacobian=IntervalMatrix(jl, jh), crossing=cr,
                         notes=_crossing_notes(problem, cr))


def conservation_containment(problem: ChoreographyProblem, steps) -> dict:
    """Check that energy, angular momentum, linear momentum, and center of
    mass enclosures at every step overlap their initial enclosures.

    Interval evaluations along a rigorous trajectory must all contain the
    conserved true values, so every step's enclosure intersects the first.
    """
    from .dynamics import (angular_momentum, center_of_mass, linear_momentum,
                           total_energy)

    def quantities(sl, sh):
        layout, el, eh = problem.expand_state(sl, sh)
        px, py = linear_momentum(layout, el, eh)
        cx, cy = center_of_mass(layout, el, eh)
        return {
            "energy": total_energy(layout, el, eh),
            "angular_momentum": angular_momentum(layout, el, eh),
            "momentum_x": px, "momentum_y": py,
            "center_x": cx, "center_y": cy,
        }

    first = steps[0]
    initial = quantities(first.layers[0][0], first.layers[1][0])
    report = {name: True for name in initial}
    worst = {name: 0.0 for name in initial}
    for rec in steps:
        vals = quantities(*rec.tight)
        for name, iv in vals.items():
            if iv.disjoint(initial[name]):
                report[name] = False
            gap = max(initial[name].lo - iv.hi, iv.lo - initial[name].hi, 0.0)
            worst[name] = max(worst[name], gap)
    return {"contained": report, "worst_gap": worst,
            "initial": {k: (v.lo, v.hi) for k, v in initial.items()}}

"""Choreography problems: embeddings, reductions, sections, and the map
whose zeros are orbits.

Each problem packages E (reduced point -> full symmetric initial state),
a Poincare section, and R (full state -> symmetry defects) so that
R(P(E(x))) = 0 certifies one choreography:

* eight    - the three-body figure Eight in the rotated frame (first body on
             the positive x axis, third at the origin); reduced space is the
             first body's velocity.
* chain(N) - doubly symmetric chains for even N = 2H (full phase space),
             with size parameter a; key "chainN".  Two rules fix the state
             at t = 0 from body 0 = (0, a, vx0, 0) and the free bodies
             0 < 2i < H: the mirror rule, body H - i is the x-axis mirror
             image under time reversal of body i, (x, y, vx, vy) ->
             (x, -y, -vx, vy), so a body with 2i = H is (x_i, 0, 0, vy_i);
             and the antipode rule, body i + H = -(body i).  At the section
             the mirror rule pairs body i with body H - 1 - i instead, and
             its residuals are the defects.
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

    def embed_slab(self, X: IntervalVector,
                   carry_transition: bool = True) -> LohnerSet:
        """E(X) as the slab E(mid) + DE (X - mid), with X - mid rounded
        outward: the correlations the embedding creates are kept, and the
        monodromy columns, when carried, start at DE so the chain rule
        DR . DP . DE needs no extra factors."""
        mid = X.mid()
        coords = kn.sub(X.lo, X.hi, mid, mid)
        return LohnerSet.from_slab(self.embed_point(mid),
                                   self.embed_derivative(), coords,
                                   carry_transition=carry_transition)

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

# A chain body's phase block, and its image under the x-axis mirror combined
# with time reversal.
_COMPONENTS = ("x", "y", "vx", "vy")
_MIRROR = np.array([1.0, -1.0, -1.0, 1.0])


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


def chain_problem(n_bodies: int, a_text: str) -> ChoreographyProblem:
    """Generic doubly symmetric chain for even N in the full phase space,
    built from the mirror and antipode rules (module docstring).

    Reduced coordinates, in body order: vx0, the free bodies'
    (x_i, y_i, vx_i, vy_i), then (x_k, vy_k) when N = 4k.
    """
    if n_bodies < 4 or n_bodies % 2 != 0:
        raise ValueError("chains need an even number of bodies, at least 4")
    a = float(a_text)
    N, H = n_bodies, n_bodies // 2

    offset = np.zeros((N, 4))
    mat = np.zeros((N, 4, N - 1))
    offset[0, 1] = a
    mat[0, 2, 0] = 1.0
    names = ["vx0"]
    for i in range(1, H):
        if 2 * i > H:
            offset[i] = _MIRROR * offset[H - i]
            mat[i] = _MIRROR[:, None] * mat[H - i]
            continue
        for c in (range(4) if 2 * i < H else (0, 3)):
            mat[i, c, len(names)] = 1.0
            names.append(f"{_COMPONENTS[c]}{i}")
    offset[H:] = -offset[:H]
    mat[H:] = -mat[:H]
    # + 0.0 turns negated zeros into +0, so E and DE put no -0 into the flow.
    embed = LinearEmbedding(offset.reshape(-1) + 0.0,
                            mat.reshape(4 * N, N - 1) + 0.0)

    def pair(i: int) -> np.ndarray:
        """Rows s_i - _MIRROR s_j with j = H - 1 - i: zero when body j is
        the mirror image of body i."""
        rows = np.zeros((4, N, 4))
        rows[:, i] = np.eye(4)
        rows[:, H - 1 - i] -= np.diag(_MIRROR)
        return rows.reshape(4, 4 * N)

    # The middle pair comes first, without the row that is the section.
    k = H // 2
    if H % 2:
        # N = 4k + 2: body k pairs with itself, so its x and vy rows vanish;
        # y_k is the section, so only vx_k is left.
        middle = np.zeros((1, 4 * N))
        middle[0, 4 * k + 2] = 1.0
        section = _coordinate_section(4 * k + 1, 4 * N, sign="either")
    else:
        # N = 4k: the pair (k, k - 1); x_k - x_{k-1} is the section.
        middle = pair(k)[1:]
        section = _coordinate_section(4 * k, 4 * N, other=4 * (k - 1),
                                      sign="either")
    rows = [middle] + [pair(i) for i in range((H - 1) // 2)]
    return ChoreographyProblem(
        key=f"chain{N}",
        field=nbody_field(N, kind="blocks"),
        section=section,
        embed_map=embed,
        reduce_map=LinearReduction(np.vstack(rows)),
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
    """Rigorous defect map and derivative enclosure over a reduced box,
    flowing the embedded slab (`ChoreographyProblem.embed_slab`)."""
    cr = flow_to_section(problem.field, problem.embed_slab(X),
                         problem.section, h, order, max_steps)
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

"""Choreography problems: embeddings, reductions, sections, and the map
whose zeros are orbits.

Each problem packages E (reduced point -> full symmetric initial state),
a Poincare section, and R (full state -> symmetry defects) so that
R(P(E(x))) = 0 certifies one choreography:

* eight    - the three-body figure Eight in the rotated frame (first body on
             the positive x axis, third at the origin); reduced space is the
             first body's velocity.  Its centre of mass and momentum stay
             zero, so the state is bodies 1 and 2 under
             `dynamics.barycentric_terms`, and body 3 is -(body 1 + body 2).
* chain(N) - doubly symmetric chains for even N = 2H, with size parameter
             a; key "chainN".  Two rules fix the state at t = 0 from body
             0 = (0, a, vx0, 0) and the free bodies 0 < 2i < H: the mirror
             rule, body H - i is the x-axis mirror image under time reversal
             of body i, (x, y, vx, vy) -> (x, -y, -vx, vy), so a body with
             2i = H is (x_i, 0, 0, vy_i); and the antipode rule, body
             i + H = -(body i).  The flow keeps the antipode rule, so the
             state is the antipodal half: the 4H-dim system of bodies
             0..H-1 under `dynamics.antipodal_terms`.  At the section the
             mirror rule pairs body i with body H - 1 - i instead, and its
             residuals are the defects.
* gerver   - the four-body SuperEight: chain(4) with its reduced
             coordinates reordered to (x1, vx0, vy1), as in the results
             tables.
* chain6   - chain(6) in the frame of the source data (axes interchanged,
             quarter-period time shift); reduced coordinates
             (vx0, x1, y1, vx1, vy1), section y1 = 0.

Embeddings are exact: components are copies, negations or doublings of the
reduced coordinates, or the size parameter alone, which is pinned to one
binary64 value, so E introduces no rounding at all.  LinearEmbedding checks
this shape when it is built.  R, the sections and the crossing guards are
exact product forms (ProductForm): signed sums of linear forms in the state
with coefficients +-1 or +-2, their products and their squares; DR and dg
are their product rule.  Each problem states the rule that restores the
orbit bodies its state leaves out (`ChoreographyProblem.expansion`), which
the curves, the convexity check and the document's body count read.

phi_jacobian flows the embedded box under one step policy
(`integrator.StepPolicy`), with a point of the box riding inside
(`phi_jacobian(..., point=x)`) as a box, clipped to the set's box and
advanced by each box step's image of the center plus A (P - center); each
step records the point's box at its start.  phi_point hands the point off:
it flows on from the box of the first step of the section zone, at that
step's size.

refine_candidate runs plain Newton on the same validated map at a thin box,
stepping with the midpoints of Phi and of DPhi: it finds candidates, and
nothing it returns is certified.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import kernels as kn
from .boxes import IntervalMatrix, IntervalVector, midpoint_inverse
from .dynamics import (GravityField, PhaseLayout, antipodal_terms,
                       barycentric_terms)
from .errors import (CollisionEnclosure, DimensionMismatch, Diverged,
                     NoCrossing, NonTransversal, RoughEnclosureFailure,
                     SingularEnclosure)
from .integrator import (LohnerSet, SectionCrossing, SectionSpec, StepPolicy,
                         flow_to_section)
from .interval import Interval

Pair = tuple[np.ndarray, np.ndarray]


# --- exact embeddings and product forms ---------------------------------------

@dataclass(frozen=True)
class LinearEmbedding:
    """Full state = offset + matrix * reduced point, with exact entries."""

    offset: np.ndarray       # constants: zeros and +-a
    matrix: np.ndarray       # entries in {0, +-1, +-2}

    def __post_init__(self):
        # box() adds offset and scaled coordinates with plain float sums;
        # these conditions make every such sum exact.  Plain comparisons
        # only: np.isin and np.unique would import numpy.ma.
        nonzero = self.matrix != 0
        if (nonzero.sum(axis=1) > 1).any():
            raise ValueError("embedding row mixes several reduced coordinates")
        if (nonzero.any(axis=1) & (self.offset != 0)).any():
            raise ValueError("embedding row has both an offset and a coordinate")
        coeffs = np.abs(self.matrix[nonzero])
        if not ((coeffs == 1.0) | (coeffs == 2.0)).all():
            raise ValueError("embedding coefficients must be +-1 or +-2")
        offsets = np.abs(self.offset[self.offset != 0])
        if (offsets != offsets[:1]).any():
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


def _signed_sum(parts) -> Interval:
    """+-p1 +- p2 ..., left to right from the first term as it is, so
    opposite identical values cancel exactly.  Their zero, -0 under the
    kernels' round-down, is stored by `Interval` as +0; the empty sum is
    0."""
    acc = None
    for sign, p in parts:
        p = p if sign > 0 else -p
        acc = p if acc is None else acc + p
    return Interval(0.0) if acc is None else acc


def _linear(form: tuple, sl: np.ndarray, sh: np.ndarray) -> Interval:
    # |c| is 1 or 2, so |c| times an endpoint is exact, or overflows, which
    # `Interval` refuses
    return _signed_sum((c, Interval(abs(c) * float(sl[j]),
                                    abs(c) * float(sh[j])))
                       for j, c in form)


@dataclass(frozen=True)
class ProductForm:
    """Rows that are signed sums of terms in the state s, each term an exact
    linear form L, a product L M of two, or a square L^2.  A form is a
    tuple of (index, c) pairs with c one of +-1 and +-2, so each c s_j is
    exact; a term is (+-1, factors) with one or two forms, and a term whose
    two factors are the same form is its square.

    `values` evaluates the rows in scalar `Interval` arithmetic, left to
    right from 0, squares with the tight `Interval.sqr`, reading only the
    components the forms name.  `derivative` is the product rule in the same
    arithmetic, d(L M)/ds_j = L_j M + M_j L and d(L^2)/ds_j = 2 L_j L with
    L_j in {0, +-1, +-2}, and has one column per state component.
    """

    rows: tuple[tuple[tuple[int, tuple], ...], ...]

    def __post_init__(self):
        for sign, factors in (term for row in self.rows for term in row):
            if sign not in (1, -1) or len(factors) not in (1, 2) or not all(
                    form and len({j for j, _ in form}) == len(form)
                    and all(j >= 0 and c in (1, -1, 2, -2) for j, c in form)
                    for form in factors):
                raise ValueError("a term is +-1 times one or two sums of "
                                 "distinct state components, each times "
                                 "+-1 or +-2")

    def values(self, sl: np.ndarray, sh: np.ndarray) -> list[Interval]:
        def term(first, *rest) -> Interval:
            a = _linear(first, sl, sh)
            return (a if not rest else a.sqr() if rest[0] == first
                    else a * _linear(rest[0], sl, sh))

        return [_signed_sum((sign, term(*factors)) for sign, factors in row)
                for row in self.rows]

    def derivative(self, sl: np.ndarray, sh: np.ndarray) -> Pair:
        lo, hi = np.zeros((2, len(self.rows), len(sl)))
        for r, row in enumerate(self.rows):
            parts: dict[int, list[tuple[int, Interval]]] = {}
            for sign, factors in row:
                first, last = factors[0], factors[-1]
                # (form, k, v): add k c v to d/ds_j for each (j, c) of form
                if len(factors) == 1:
                    rules = [(first, sign, Interval(1.0))]
                elif last == first:
                    rules = [(first, 2 * sign, _linear(first, sl, sh))]
                else:
                    rules = [(first, sign, _linear(last, sl, sh)),
                             (last, sign, _linear(first, sl, sh))]
                for form, k, v in rules:
                    for j, c in form:
                        parts.setdefault(j, []).append((1, v * float(k * c)))
            for j, p in parts.items():
                d = _signed_sum(p)
                lo[r, j], hi[r, j] = d.lo, d.hi
        return lo, hi

    def section(self, crossing_sign: str) -> SectionSpec:
        """The section g = 0 of a one-row form, with dg its gradient."""
        if len(self.rows) != 1:
            raise ValueError("a section is a one-row form")
        return SectionSpec(
            g=lambda sl, sh: self.values(sl, sh)[0],
            dg=lambda sl, sh: tuple(m[0] for m in self.derivative(sl, sh)),
            crossing_sign=crossing_sign)


# --- problem container ---------------------------------------------------------

@dataclass
class ChoreographyProblem:
    key: str
    field: GravityField
    section: SectionSpec
    embed_map: LinearEmbedding
    defects: ProductForm                        # R
    size_parameter: float | None                # exact binary64, or None
    period_multiplier: int                      # T = multiplier * t_cross
    reduced_names: tuple[str, ...]
    # Each orbit body after the state's is minus the sum of these state
    # bodies: (i,) for a chain's antipode, (0, 1) for the Eight's third.
    expansion: tuple[tuple[int, ...], ...] = ()
    # (name, one-row form) pairs that must exclude zero at the crossing for
    # the defects to characterize the symmetry there
    guards: tuple[tuple[str, ProductForm], ...] = ()

    @property
    def layout(self) -> PhaseLayout:
        return self.field.layout

    @property
    def n_bodies(self) -> int:
        """Bodies in the integrated state."""
        return self.layout.n_bodies

    @property
    def orbit_bodies(self) -> int:
        """Bodies on the full orbit: the state's and the expansion's."""
        return self.n_bodies + len(self.expansion)

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

    def embed_slab(self, X: IntervalVector,
                   carry_transition: bool = True) -> LohnerSet:
        """E(X) as the slab E(mid) + DE (X - mid), with X - mid rounded
        outward: the correlations the embedding creates are kept, and the
        monodromy columns, when carried, start at DE so the chain rule
        DR . DP . DE needs no extra factors."""
        mid = X.mid()
        coords = kn.sub(X.lo, X.hi, mid, mid)
        return LohnerSet.from_slab(self.embed_point(mid),
                                   self.embed_map.matrix, coords,
                                   carry_transition=carry_transition)

    # -- R --

    def reduce(self, sl, sh) -> IntervalVector:
        sl = np.asarray(sl, float)
        sh = np.asarray(sh, float)
        if sl.size != self.layout.dim:
            raise DimensionMismatch(f"{self.key}: bad full-state size")
        return IntervalVector.from_intervals(self.defects.values(sl, sh))

    # -- every orbit body --

    def expand_state(self, sl, sh) -> tuple[PhaseLayout, np.ndarray, np.ndarray]:
        """The state of every orbit body, in the state's layout kind, from
        state enclosures on the last axis of (..., dim) arrays: each body
        of `expansion` is minus the sum of its state bodies, added left to
        right, with a zero stored as +0."""
        sl, sh = np.asarray(sl, float), np.asarray(sh, float)
        full = PhaseLayout(self.orbit_bodies, self.layout.kind)
        cols, into = self.layout.body_columns, full.body_columns
        el = np.empty(sl.shape[:-1] + (full.dim,))
        eh = np.empty_like(el)
        el[..., into[:self.n_bodies]] = sl[..., cols]
        eh[..., into[:self.n_bodies]] = sh[..., cols]
        for k, (first, *rest) in enumerate(self.expansion, self.n_bodies):
            al, ah = sl[..., cols[first]], sh[..., cols[first]]
            for i in rest:
                al, ah = kn.add(al, ah, sl[..., cols[i]], sh[..., cols[i]])
            # 0 - x at round-to-nearest negates exactly and turns -0 into +0
            el[..., into[k]], eh[..., into[k]] = 0.0 - ah, 0.0 - al
        return full, el, eh


# --- the Eight -----------------------------------------------------------------

def eight_problem() -> ChoreographyProblem:
    """The rotated Eight: q1 = (1,0), q2 = (-1,0), q3 = 0, parameterized by
    the first body's velocity (v, u), with v2 = v1 and v3 = -2 v1; section:
    q1 . dq1 = 0 (first body's position orthogonal to its velocity); defects
    in the order the results tables use (velocity cross product first),
    which characterize the symmetry only with the first body off the
    origin: the guard x1^2 + y1^2.

    The centre of mass and the momentum are zero and stay zero, so the
    state is bodies 1 and 2, (x1, y1, x2, y2, v1, u1, v2, u2), under
    `dynamics.barycentric_terms(3)`, and body 3 is -(body 1 + body 2): the
    defects read q3 - q1 = -2 q1 - q2 and v2 - v3 = v1 + 2 v2."""
    x1, y1, v1, u1 = (((j, 1),) for j in (0, 1, 4, 5))
    dx2, dy2 = ((2, 1), (0, -1)), ((3, 1), (1, -1))
    dx3, dy3 = ((2, -1), (0, -2)), ((3, -1), (1, -2))
    dv, du = ((6, 2), (4, 1)), ((7, 2), (5, 1))
    # (v2 - v3) y1 - (u2 - u3) x1, then |q2 - q1|^2 - |q3 - q1|^2
    cross = ((1, (dv, y1)), (-1, (du, x1)))
    dist = ((1, (dx2, dx2)), (1, (dy2, dy2)),
            (-1, (dx3, dx3)), (-1, (dy3, dy3)))
    offset = np.zeros(8)
    offset[0], offset[2] = 1.0, -1.0
    mat = np.zeros((8, 2))
    mat[4, 0] = mat[6, 0] = 1.0
    mat[5, 1] = mat[7, 1] = 1.0
    return ChoreographyProblem(
        key="eight",
        field=GravityField(PhaseLayout(2, "split"), barycentric_terms(3)),
        section=ProductForm((((1, (x1, v1)), (1, (y1, u1))),)).section("+-"),
        embed_map=LinearEmbedding(offset, mat),
        defects=ProductForm((cross, dist)),
        size_parameter=None,
        period_multiplier=12,
        reduced_names=("v", "u"),
        expansion=((0, 1),),
        guards=(("first_body_distance_squared",
                 ProductForm((((1, (x1, x1)), (1, (y1, y1))),))),),
    )


# --- chains --------------------------------------------------------------------

# A chain body's phase block, and its image under the x-axis mirror combined
# with time reversal.
_COMPONENTS = ("x", "y", "vx", "vy")
_MIRROR = np.array([1.0, -1.0, -1.0, 1.0])


def chain_problem(n_bodies: int, a_text: str) -> ChoreographyProblem:
    """Doubly symmetric chain for even N on its antipodal half, built from
    the mirror and antipode rules (module docstring).

    Reduced coordinates, in body order: vx0, the free bodies'
    (x_i, y_i, vx_i, vy_i), then (x_k, vy_k) when N = 4k.
    """
    if n_bodies < 4 or n_bodies % 2 != 0:
        raise ValueError("chains need an even number of bodies, at least 4")
    a = float(a_text)
    N, H = n_bodies, n_bodies // 2

    offset = np.zeros((H, 4))
    mat = np.zeros((H, 4, N - 1))
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
    # + 0.0 turns mirrored zeros into +0, so E and DE put no -0 into the flow.
    embed = LinearEmbedding(offset.reshape(-1) + 0.0,
                            mat.reshape(4 * H, N - 1) + 0.0)

    def row(*parts) -> tuple:
        """One linear term, the signed sum of (index, sign) parts."""
        return ((1, (tuple(sorted((j, int(c)) for j, c in parts)),)),)

    def pair(i: int) -> list:
        """Rows s_i - _MIRROR s_j with j = H - 1 - i: zero when body j is
        the mirror image of body i."""
        return [row((4 * i + c, 1), (4 * (H - 1 - i) + c, -_MIRROR[c]))
                for c in range(4)]

    # The middle pair comes first, without the row that is the section.
    k = H // 2
    if H % 2:
        # N = 4k + 2: body k pairs with itself, so its x and vy rows vanish;
        # y_k is the section, so only vx_k is left.
        middle = [row((4 * k + 2, 1))]
        section = row((4 * k + 1, 1))
    else:
        # N = 4k: the pair (k, k - 1); x_k - x_{k-1} is the section.
        middle = pair(k)[1:]
        section = row((4 * k, 1), (4 * (k - 1), -1))
    rows = middle + [r for i in range((H - 1) // 2) for r in pair(i)]
    return ChoreographyProblem(
        key=f"chain{N}",
        field=GravityField(PhaseLayout(H, "blocks"), antipodal_terms(H)),
        section=ProductForm((section,)).section("either"),
        embed_map=embed,
        defects=ProductForm(tuple(rows)),
        size_parameter=a,
        period_multiplier=2 * N,
        reduced_names=tuple(names),
        expansion=tuple((i,) for i in range(H)),
    )


def gerver_problem(a_text: str = "0.157029944461") -> ChoreographyProblem:
    """Gerver's SuperEight: chain(4), bodies 0 and 1 of the four, in the
    results tables' coordinate order (x1, vx0, vy1), crossing the section
    from + to -.  The column order is part of the problem: it is the column
    order of the set flow's initial slab, which feeds the QR frames."""
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
    """chain(6), bodies 0..2 of the six, crossing its section y1 = 0 from
    + to -."""
    chain = chain_problem(6, a_text)
    return replace(chain,
                   section=replace(chain.section, crossing_sign="+-"))


def make_problem(key: str, n_bodies: int | None = None,
                 a_text: str | None = None) -> ChoreographyProblem:
    """The problem for a system name ("chain" with n_bodies), or for the key
    a certificate records ("eight", "gerver", "chain6", "chainN"); "chain"
    with N bodies is the key "chainN", so it names the same problem.  Raises
    ValueError for an unknown system, and for a body count or a size
    parameter the system does not read: ignored, it would stand for
    another system."""
    if key == "chain":
        if n_bodies is None or a_text is None:
            raise ValueError("chain needs --bodies and --a")
        key = f"chain{n_bodies}"
    elif n_bodies is not None:
        raise ValueError(f"a body count is read by 'chain' only, not by {key!r}")
    if key == "eight":
        if a_text is not None:
            raise ValueError(f"{key!r} has no size parameter to read "
                             f"{a_text!r} into")
        return eight_problem()
    if key == "gerver":
        return gerver_problem() if a_text is None else gerver_problem(a_text)
    if key == "chain6":
        return chain6_problem() if a_text is None else chain6_problem(a_text)
    # a negative count too, so that chain_problem refuses it by name
    if key.startswith("chain") and key[5:].removeprefix("-").isdigit():
        if a_text is None:
            raise ValueError("chain needs --bodies and --a")
        return chain_problem(int(key[5:]), a_text)
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
    """Each guard's value at a crossing, checked to exclude zero."""
    notes = {}
    for name, guard in problem.guards:
        value = guard.values(*cr.state)[0]
        if value.contains_zero():
            raise NonTransversal(
                f"{name} {value} does not exclude zero at the crossing; the "
                "defects do not characterize the symmetry there")
        notes[name] = value
    return notes


def phi_point(problem: ChoreographyProblem, along: SectionCrossing,
              policy: StepPolicy) -> MapEvaluation:
    """Rigorous enclosure of the defect map at the point that rode
    `along`, the crossing of `phi_jacobian(..., point=x)` under `policy`.
    The point flows on from the box that crossing's first zone step
    records for it (`EnclosureStep.point`), the first step at that step's
    size, and its crossing time is shifted by that step's start.  A
    crossing that carried no point is refused."""
    first = along.steps[along.zone[0]]
    if first.point is None:
        raise ValueError("the crossing carried no point: it is not one of "
                         "phi_jacobian(..., point=x)")
    cr = flow_to_section(problem.field, LohnerSet.from_box(*first.point),
                         problem.section,
                         StepPolicy(first.h, policy.order, policy.tol))
    cr = replace(cr, t_cross=first.t_start + cr.t_cross)
    return MapEvaluation(value=problem.reduce(*cr.state), jacobian=None,
                         crossing=cr, notes=_crossing_notes(problem, cr))


def phi_jacobian(problem: ChoreographyProblem, X: IntervalVector,
                 policy: StepPolicy, point=None) -> MapEvaluation:
    """Rigorous defect map and derivative enclosure over a reduced box,
    flowing the embedded slab (`ChoreographyProblem.embed_slab`) under
    `policy`, the reduced point `point`, if given, riding along.  Each step
    clips the point's box to the set's, which is sound only for a point of
    X: any other is refused."""
    start = problem.embed_slab(X)
    if point is not None:
        start = start.carrying(problem.embed_point(point))
        if not kn.contains_point(X.lo, X.hi, point):
            raise ValueError("the riding point lies outside the box")
    cr = flow_to_section(problem.field, start, problem.section, policy)
    drl, drh = problem.defects.derivative(*cr.state)
    jl, jh = kn.matmul(drl, drh, *cr.projected)
    return MapEvaluation(value=problem.reduce(*cr.state),
                         jacobian=IntervalMatrix(jl, jh), crossing=cr,
                         notes=_crossing_notes(problem, cr))


# --- candidate refinement --------------------------------------------------------

def monodromy_preconditioner(problem: ChoreographyProblem, x,
                             policy: StepPolicy) -> tuple[np.ndarray, np.ndarray]:
    """(mid Phi(x), inv(mid DPhi(x))) from one validated flow of the thin
    box at x: the Newton step of `refine_candidate`."""
    ev = phi_jacobian(problem, IntervalVector.point(x), policy)
    return ev.value.mid(), midpoint_inverse(ev.jacobian)


def refine_candidate(problem: ChoreographyProblem, guess,
                     policy: StepPolicy) -> np.ndarray:
    """Plain Newton on the validated map, x <- x - inv(mid DPhi) mid Phi(x),
    until |mid Phi(x)| < 1e-12, in at most 12 steps.  Nonrigorous: it only
    picks a candidate for `prove`.  A failure of the flow, a singular
    midpoint, a step longer than 1 or no convergence raises Diverged."""
    x = np.asarray(guess, float)
    for _ in range(12):
        try:
            value, inverse = monodromy_preconditioner(problem, x, policy)
        except (CollisionEnclosure, RoughEnclosureFailure, NoCrossing,
                NonTransversal, SingularEnclosure, FloatingPointError) as exc:
            raise Diverged(str(exc)) from exc
        if np.max(np.abs(value)) < 1e-12:
            return x
        step = inverse @ value
        if not np.all(np.isfinite(step)) or np.max(np.abs(step)) > 1.0:
            raise Diverged("Newton step diverged")
        x = x - step
    raise Diverged("no convergence after 12 Newton steps")

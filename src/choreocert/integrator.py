"""Rigorous enclosure integration and Poincare maps.

One step of the validated integrator produces, for the whole input box:

* a tight enclosure of the time-h image (Taylor polynomial at the box center
  plus a Lagrange remainder over a first-order rough enclosure, also in
  mean-value form about the center),
* a whole-step enclosure valid for every intermediate time,
* an enclosure of the one-step transition matrix (variational Taylor layers
  with their own remainder, which needs an a-priori enclosure of the
  transition itself over the step - the linear analogue of the rough
  enclosure).

The transition, the C1 part, runs at its own order R_t = min(R, 10)
(`StepPolicy.transition_order`): it reaches the set only through products
with its width, while the state keeps order R.  Each step makes one series
pass over (center, box, rough box), with gradient layers for the box and
the rough box only, and one pass of the transition recurrence, seeded per
member: over the box with [I | 0] to layer R_t, over the rough box with
[V | W - m] to layer R_t + 1, V the transition's a-priori enclosure, and
the last column of that, the tangent, on alone to layer R + 1.  Layer
R_t + 1 of the second block is the transition's Lagrange term; the
tangent's layer R + 1 is the mean-value correction M_{R+1}(W) (W - m) of
the state's.

The state set and the C1 slab (selected monodromy columns) are both carried
as one `Frame`, center + Q * [r] with r an n x 1 or n x d box, and share one
update: the frame is re-chosen every step from a floating-point QR
factorization (columns sorted by contribution) to control the wrapping
effect, and its inverse is enclosed rigorously via a Neumann bound on
Q^T Q - I, a product of two float factors (`kernels.matmul_thin`), so the
representation change never loses soundness.  The rough enclosure of the
state and the a-priori enclosure of the transition come from one Picard
validation loop.

Section crossings are located in two rigorous stages: straddle detection on
whole-step enclosures with a transversality sign check, then an interval
Newton iteration in time over the straddling steps' Taylor polynomials.
Every flow starts at time 0, and each step has one clock, set when it is
made: its start time `run_time`, the kernels' sum of the sizes before it.
All time code reads it, so the steps, which one `StepPolicy` sizes, may
differ.

A set may carry a thin point of the set along (`LohnerSet.carrying`) as
a box P, with no frame: a point has no width for a frame to keep from
wrapping.  Each step advances it by the set's own update,
phi_h(m) + A (P - m) with m the set's center and A the enclosure of
Dphi_h over the step's input box: the mean-value theorem makes that valid
for every member of the box, which is convex and holds m (every frame's
r holds 0; a step whose box misses m raises).  The point lies in the set,
so each step first clips P to the box.  Each step records the
point's box at its start (`EnclosureStep.point`), so a flow of the point
can start from any step.  Only zone steps keep their transition data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import kernels as kn
from .errors import (
    CollisionEnclosure,
    EmptyIntersection,
    NoCrossing,
    NonTransversal,
    RoughEnclosureFailure,
    SingularEnclosure,
)
from .interval import Interval

Pair = tuple[np.ndarray, np.ndarray]

_ROUGH_INFLATE = 1.5
_ROUGH_TRIES = 20


# --- small helpers -----------------------------------------------------------

def poly_eval(layers: Pair, rem: Pair, tau: Interval | Pair) -> Pair:
    """Horner evaluation of sum_i c_i tau^i + tau^(R+1) rem.

    `layers` is (R+1, ...) coefficient enclosures, `rem` the order-(R+1)
    Lagrange coefficient enclosure; tau may be a thick time interval, or a
    pair of arrays of its ends that broadcast against a layer, one time per
    member of a stack.
    """
    tl, th = ((np.float64(tau.lo), np.float64(tau.hi))
              if isinstance(tau, Interval) else tau)
    acc_l, acc_h = rem
    order = layers[0].shape[0] - 1
    for i in range(order, -1, -1):
        acc_l, acc_h = kn.mul(acc_l, acc_h, tl, th)
        acc_l, acc_h = kn.add(acc_l, acc_h, layers[0][i], layers[1][i])
    return acc_l, acc_h


def poly_at_step(layers: Pair, rem: Pair, h: float) -> Pair:
    """sum_i c_i h^i + h^(R+1) rem at a thin h > 0 as one contraction
    against enclosures of h^0..h^(R+1): one kernel call where Horner makes
    two per layer."""
    cl, ch = (np.concatenate([c, r[None]]) for c, r in zip(layers, rem))
    wl, wh = (w.reshape((-1,) + (1,) * (cl.ndim - 1))
              for w in kn.powers(h, cl.shape[0] - 1))
    return kn.dot(cl, ch, wl, wh, axis=0)


def _inverse_enclosure(Q: np.ndarray) -> Pair:
    """Rigorous enclosure of Q^-1 for a nearly orthogonal float matrix.

    Q^-1 = (Q^T Q)^-1 Q^T and Q^T Q = I + E with ||E||, the largest upper
    row sum of |E|, tiny, so (I + E)^-1 = I + D, |D_ij| <= ||E||/(1 - ||E||).
    """
    n = Q.shape[0]
    qt = np.ascontiguousarray(Q.T)
    pl, ph = kn.matmul_thin(qt, Q)
    el, eh = kn.sub(pl, ph, np.eye(n), np.eye(n))
    a = kn.mag(el, eh)
    e = float(np.max(kn.matvec_thin_right(a, a, np.ones(n))[1]))
    if not e < 0.5:
        raise SingularEnclosure("frame matrix is far from orthogonal")
    rho = (Interval.point(e) / (Interval(1.0) - Interval.point(e))).hi
    dl = np.eye(n) - rho
    dh = np.eye(n) + rho
    return kn.matmul_thin_right(dl, dh, qt)


def _sorted_qr(Bmid: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Orthogonal frame from a QR of Bmid with columns ordered by how much
    box volume they carry (largest first); returns the Q factor."""
    order = np.argsort(-(np.linalg.norm(Bmid, axis=0) * weights), kind="stable")
    q, _ = np.linalg.qr(Bmid[:, order])
    return q


def _zero_hold(h: float, fl: np.ndarray, fh: np.ndarray) -> Pair:
    """Enclosure of [0, h] * [f] for h > 0."""
    lo, hi = kn.scale(fl, fh, h)
    return np.minimum(0.0, lo), np.maximum(0.0, hi)


# --- set representation ------------------------------------------------------

@dataclass
class Frame:
    """Doubleton m + Q [r] of an n x d block of columns (the C1 Lohner form):
    the state set is the case d = 1, the monodromy slab carries d columns."""

    m: np.ndarray
    Q: np.ndarray
    r: Pair

    def box(self) -> Pair:
        sl, sh = kn.matmul_thin_left(self.Q, *self.r)
        return kn.add(sl, sh, self.m, self.m)

    def advance(self, A: Pair, image: Pair) -> tuple[Frame, Pair]:
        """Frame of A [self] around `image`, an enclosure of A m, in a fresh
        orthogonal frame; also returns B = A Q."""
        bl, bh = kn.matmul_thin_right(*A, self.Q)
        m = kn.mid(*image)
        zl, zh = kn.sub(*image, m, m)
        q = _sorted_qr(kn.mid(bl, bh), 0.5 * np.max(kn.diam(*self.r), axis=1))
        qinv = _inverse_enclosure(q)
        cl, ch = kn.matmul(*qinv, bl, bh)
        rl, rh = kn.matmul(cl, ch, *self.r)
        r2l, r2h = kn.matmul(*qinv, zl, zh)
        return Frame(m, q, kn.add(rl, rh, r2l, r2h)), (bl, bh)


def _column(v: Pair) -> Pair:
    return v[0][:, None], v[1][:, None]


def _exact_slab(columns: np.ndarray) -> Frame:
    z = np.zeros(columns.shape)
    return Frame(columns.copy(), np.eye(len(columns)), (z, z))


@dataclass
class LohnerSet:
    """Current enclosure: the state frame, optionally with a monodromy slab
    frame (n x d columns of the flow derivative) and a carried point's box."""

    state: Frame
    slab: Frame | None = None
    point: Pair | None = None

    @classmethod
    def from_box(cls, lo, hi) -> LohnerSet:
        lo = np.asarray(lo, float)
        hi = np.asarray(hi, float)
        m = kn.mid(lo, hi)
        return cls(Frame(m[:, None], np.eye(m.size),
                         _column(kn.sub(lo, hi, m, m))))

    @classmethod
    def from_slab(cls, anchor: np.ndarray, directions: np.ndarray,
                  coords: Pair, carry_transition: bool = True) -> LohnerSet:
        """Affine slab {anchor + directions @ c : c in coords}.

        Used for embedded boxes E(x) = E(anchor) + DE (x - anchor): the
        correlations between copied components are kept instead of being
        hulled into an axis box.  The slab directions also seed the
        monodromy columns when `carry_transition`.
        """
        anchor = np.asarray(anchor, float)
        D = np.asarray(directions, float)
        q, _ = np.linalg.qr(D, mode="complete")
        qinv = _inverse_enclosure(q)
        cl, ch = kn.matmul_thin_right(*qinv, D)   # Q^-1 D, almost [R; 0]
        r = _column(kn.matvec(cl, ch, coords[0], coords[1]))
        return cls(Frame(anchor[:, None], q, r),
                   _exact_slab(D) if carry_transition else None)

    def carrying(self, p: np.ndarray) -> LohnerSet:
        """This set with the thin point p, for `step` to advance by the
        set's own update."""
        p = np.asarray(p, float)
        return replace(self, point=(p, p))

    def box(self) -> Pair:
        lo, hi = self.state.box()
        return lo[:, 0], hi[:, 0]


@dataclass
class EnclosureStep:
    """One validated step: tight endpoint and whole-step enclosures plus the
    per-step Taylor data needed to re-evaluate the flow inside the step."""

    t_start: Interval                 # start time in its run (`run_time`)
    h: float
    tight: Pair
    whole: Pair
    layers: Pair                      # state Taylor layers at the step start set
    rem: Pair                         # order-(R+1) state Lagrange coefficient
    trans_layers: Pair | None = None  # transition layers 0..R_t (C1 only)
    trans_rem: Pair | None = None     # order-(R_t+1) transition remainder (C1)
    v_start: Pair | None = None       # accumulated slab box at the start (C1)
    point: Pair | None = None         # the carried point's box at the start

    @property
    def t_k(self) -> float:  # the float end time, for samples
        return self.t_start.mid() + self.h

    def state_at(self, tau: Interval) -> Pair:
        """Enclosure of the flow at step-local time tau in [0, h]."""
        return poly_eval(self.layers, self.rem, tau)

    def transition_at(self, tau: Interval) -> Pair:
        mt = poly_eval(self.trans_layers, self.trans_rem, tau)
        return kn.matmul(*mt, *self.v_start)


# --- rough enclosures --------------------------------------------------------

def _inflate(wl: np.ndarray, wh: np.ndarray) -> Pair:
    c = kn.mid(wl, wh)
    pad = 1e-14 * (1.0 + kn.mag(wl, wh))
    return (c + _ROUGH_INFLATE * (wl - c) - pad,
            c + _ROUGH_INFLATE * (wh - c) + pad)


def _rough(x: Pair, rhs: Callable[[np.ndarray, np.ndarray], Pair], h: float,
           start: Pair, what: str) -> Pair:
    """A-priori enclosure over one step of y' = rhs(y), y(0) in x: a box c
    with x + [0, h] rhs(c) inside c, found by Picard iteration from the
    float guess `start`, grown each try; the image is what it returns.  A
    candidate on which rhs meets a collision ends the tries: a shorter
    step may keep clear of it."""
    wl, wh = start
    for _ in range(_ROUGH_TRIES):
        # Validate an inflated candidate; on failure re-anchor to the latest
        # Picard image (hull-and-grow overshoots on anisotropic boxes).
        cl, ch = _inflate(wl, wh)
        try:
            il, ih = _zero_hold(h, *rhs(cl, ch))
        except CollisionEnclosure:
            break
        nl, nh = kn.add(*x, il, ih)
        if kn.subset(nl, nh, cl, ch):
            return nl, nh
        wl, wh = kn.hull(nl, nh, *x)
    raise RoughEnclosureFailure(
        f"no validated {what} at step size {h}; reduce the step")


# --- the Lohner step ---------------------------------------------------------

def step(field, cur: LohnerSet, h: float, order: int,
         t_start: Interval = Interval(0.0)) -> tuple[LohnerSet, EnclosureStep]:
    """Advance the set by one step of size h at the given Taylor order."""
    n = field.dim
    xl, xh = cur.box()
    kn.assert_valid(xl, xh, "step input")
    # The mean-value forms below hold over the box because it is convex and
    # holds the center: every frame's r holds 0.
    center = cur.state.m[:, 0]
    if not kn.contains_point(xl, xh, center):
        raise ValueError("the set's box misses its center")
    # The state's Picard iteration starts from its first, un-inflated image.
    il, ih = _zero_hold(h, *field.eval(xl, xh))
    wl, wh = kn.add(xl, xh, il, ih)
    wl, wh = _rough((xl, xh), field.eval, h, kn.hull(xl, xh, wl, wh),
                    "enclosure")

    # One series pass at order R+1 over the stack (center, box, rough box),
    # with gradient layers for the box and the rough box only: the center
    # needs its state layers alone.  Layer m depends only on the layers
    # below it, so layers 0..R of the center and of the box are those of
    # their own order-R series.
    ser = field.series(np.stack([center, xl, wl]), np.stack([center, xh, wh]),
                       order + 1, variational=slice(1, None))
    R, Rt = order, StepPolicy.transition_order(order)
    sl, sh = ser.layers()
    layers_x = sl[:R + 1, 1].copy(), sh[:R + 1, 1].copy()
    if not kn.contains_point(wl, wh, center):
        raise ValueError("the set's center left its rough enclosure")

    # The transition's Picard iteration on V' = J V, V(0) = I, with J over
    # the rough enclosure, the last graded member, starts from I.
    jl, jh = ser.jacobian()
    eye = np.eye(n)
    vw = _rough((eye, eye), lambda cl, ch: kn.matmul(jl[-1], jh[-1], cl, ch), h,
                (eye, eye), "transition enclosure")

    # One transition pass, n + 1 columns per member: the box X seeded with
    # [I | 0] to layer R_t, the rough box W with [vw | W - m] to layer
    # R_t + 1, and W's last column, the tangent, on alone to layer R + 1.
    x_seed = np.hstack([eye, np.zeros((n, 1))])
    seed = tuple(np.stack([x_seed, np.hstack([v, u[:, None]])])
                 for v, u in zip(vw, kn.sub(wl, wh, center, center)))
    ml, mh = ser.transition_layers((Rt, Rt + 1), seed=seed, tangent=R + 1)
    mx = ml[:Rt + 1, 0, :, :n].copy(), mh[:Rt + 1, 0, :, :n].copy()
    # M_{R_t+1}(W) vw: the Lagrange term of A, as y runs over W and the
    # transition over vw.
    trans_rem = ml[Rt + 1, 1, :, :n].copy(), mh[Rt + 1, 1, :, :n].copy()
    A = poly_at_step(mx, trans_rem, h)

    # The Lagrange coefficient c_{R+1} over the rough box W, intersected
    # with its mean-value form c_{R+1}(m) + M_{R+1}(W) (W - m): layer R+1
    # of the transition is the gradient of c_{R+1}, the tangent encloses
    # that product, and the form holds because W is convex and holds m.
    rem = kn.intersect(sl[R + 1, 2], sh[R + 1, 2],
                       *kn.add(sl[R + 1, 0], sh[R + 1, 0],
                               ml[R + 1, 1, :, n], mh[R + 1, 1, :, n]))

    # One Horner pass over (center, box): the center's image at the thin h,
    # which keeps Horner's ulp-sized rounding, and the box's polynomial
    # over [0, h], which sharpens the rough box into the whole-step
    # enclosure.
    (ptl, ql), (pth, qh) = poly_eval((sl[:R + 1, :2], sh[:R + 1, :2]), rem,
                                     (np.array([[h], [0.0]]), np.full((2, 1), h)))
    pt = ptl, pth
    whole = kn.intersect(ql, qh, wl, wh)

    # Lohner propagation: the state is the n x 1 case of the frame update.
    state, (bl, bh) = cur.state.advance(A, _column(pt))
    nxt = LohnerSet(state)

    # Tight endpoint enclosure: direct image intersected with the frame box.
    dl, dh = kn.matmul(bl, bh, *cur.state.r)
    dl, dh = kn.add(dl[:, 0], dh[:, 0], *pt)
    tight = kn.intersect(dl, dh, *nxt.box())
    kn.assert_valid(*tight, "step output")

    rec = EnclosureStep(t_start=t_start, h=h, tight=tight, whole=whole,
                        layers=layers_x, rem=rem, point=cur.point)

    # The mean-value form about the center over the set's box: the point
    # lies in the set, so the part of its box inside the set's box holds it.
    if cur.point is not None:
        pl, ph = kn.intersect(*cur.point, xl, xh)
        nxt.point = kn.add(*kn.matvec(*A, *kn.sub(pl, ph, center, center)),
                           *pt)

    if cur.slab is not None:
        rec.v_start = cur.slab.box()
        rec.trans_layers = mx
        rec.trans_rem = trans_rem
        nxt.slab, _ = cur.slab.advance(
            A, kn.matmul_thin_right(*A, cur.slab.m))

    return nxt, rec


# --- sections and crossings --------------------------------------------------

@dataclass(frozen=True)
class SectionSpec:
    """Poincare section g(x) = 0 with gradient and required crossing sign.

    crossing_sign "+-" means g passes from positive to negative, "either"
    takes the sign of g at the start state.
    """

    g: Callable[[np.ndarray, np.ndarray], Interval]
    dg: Callable[[np.ndarray, np.ndarray], Pair]
    crossing_sign: str = "either"

    def gdot(self, sl: np.ndarray, sh: np.ndarray, field) -> Interval:
        gl, gh = self.dg(sl, sh)
        fl, fh = field.eval(sl, sh)
        lo, hi = kn.dot(gl, gh, fl, fh, axis=0)
        return Interval(float(lo), float(hi))


@dataclass
class SectionCrossing:
    state: Pair
    t_cross: Interval
    projected: Pair | None           # monodromy columns, flow direction removed
    steps: list[EnclosureStep]
    zone: list[int]                  # positions in steps of the straddling steps


def _crossing_sign(section: SectionSpec, g0: Interval) -> int:
    if section.crossing_sign != "+-" and g0.contains_zero():
        raise NonTransversal("section function straddles zero at start")
    if section.crossing_sign == "+-" and not g0.lo > 0.0:
        raise NonTransversal("start state is not on the required section side")
    return 1 if g0.lo > 0.0 else -1


def flow_to_section(field, start: LohnerSet, section: SectionSpec,
                    policy: StepPolicy) -> SectionCrossing:
    """Integrate `start` from time 0 under `policy` to the first
    transversal crossing of the section."""
    box = start.box()
    kn.assert_valid(*box, "start set")
    try:
        g0 = section.g(*box)
    except ValueError as exc:  # a finite box whose section value overflows
        raise FloatingPointError(f"section at the start set: {exc}") from None
    with np.errstate(over="ignore", invalid="ignore"):  # once, not per step
        kn.assert_valid(*field.eval(*box), "field over the start set")
    want = _crossing_sign(section, g0)

    steps: list[EnclosureStep] = []
    cur = start
    zone: list[int] = []
    rec = None
    for k in range(policy.budget):
        cur, rec = step(field, cur, policy.size(k, rec), policy.order,
                        t_start=run_time([r.h for r in steps]))
        steps.append(rec)
        g_whole = section.g(*rec.whole)
        if not g_whole.contains_zero():
            # only the zone's transitions are read, for the crossing's hull
            rec.trans_layers = rec.trans_rem = rec.v_start = None
            on_start_side = (g_whole.lo > 0.0) if want == 1 else (g_whole.hi < 0.0)
            if zone:
                if on_start_side:
                    raise NonTransversal(
                        "section straddle ended on the starting side")
                break
            if not on_start_side:
                raise NonTransversal(
                    "sign flip without a straddled step; enclosures inconsistent")
            continue
        gd = section.gdot(*rec.whole, field)
        if (want == 1 and not gd.hi < 0.0) or (want == -1 and not gd.lo > 0.0):
            raise NonTransversal(
                f"dg.f = {gd} does not exclude zero with the required sign "
                f"on step {k}")
        zone.append(len(steps) - 1)
    else:
        raise NoCrossing(f"no section crossing within {policy.budget} steps")

    t_enc, state = _locate_crossing(steps, zone, section, field)
    gdot = section.gdot(*state, field)
    if gdot.contains_zero():
        raise NonTransversal("transversality lost at the refined crossing")

    projected = None
    if start.slab is not None:
        transition = _hull_over(steps, zone, t_enc, EnclosureStep.transition_at)
        projected = _project_transition(field, section, state, gdot, transition)

    return SectionCrossing(state=state, t_cross=t_enc, projected=projected,
                           steps=steps, zone=zone)


def run_time(sizes) -> Interval:
    """Enclosure of the sum of step sizes, where the step after them
    begins: one contraction of the kernels, so a sum whose partial sums are
    floats is thin.  `flow_to_section` stamps each step's start with it,
    and the convexity verifier calls it too."""
    s = np.asarray(sizes, float)
    ones = np.ones(s.shape)
    return Interval(*kn.dot(s, s, ones, ones, axis=0))


@dataclass(frozen=True)
class StepPolicy:
    """How a run sizes its steps.  Step k takes `given[k]` while there is
    one; past them step 0 takes h, every step takes h without a tolerance,
    and under one step k takes step k-1's size times
    0.9 (tol / w)^(1/(R+1)) kept in [1/2, 2], w the widest component of
    step k-1's Lagrange term h^(R+1) [rem] (any size gives a sound step),
    a flow at most its `budget` of 10/h steps.  The state runs at order R
    and the transition at `transition_order(R)`, which every step derives
    from R: no option sets it.  It refuses, naming the field, an h not
    finite and > 0 or whose budget exceeds 10^6 steps (h below 1e-5), an
    order not an int >= 1, a tol not None or finite and > 0, and given
    sizes off the rule the control keeps exactly: the first h, all h
    without a tolerance, else each in [1/2, 2] times the one before."""

    h: float
    order: int
    tol: float | None = None
    given: tuple[float, ...] = ()

    def __post_init__(self):
        h, order, tol = self.h, self.order, self.tol
        if not (math.isfinite(h) and h > 0.0 and 10.0 / h <= 1e6):
            raise ValueError(f"h must be finite and > 0 with a budget of 10/h "
                             f"<= 10^6 steps, not {h!r}")
        if type(order) is not int or order < 1:
            raise ValueError(f"order must be an int >= 1, not {order!r}")
        if tol is not None and not (math.isfinite(tol) and tol > 0.0):
            raise ValueError(f"tol must be None or finite and > 0, not {tol!r}")
        for k, size in enumerate(self.given):
            lo, hi = ((h, h) if k == 0 or tol is None
                      else (0.5 * self.given[k - 1], 2.0 * self.given[k - 1]))
            if not (lo <= size <= hi and math.isfinite(size)):
                raise ValueError(f"given size {size!r} of step {k} is not "
                                 f"in [{lo!r}, {hi!r}]")

    @property
    def budget(self) -> int:
        """The most steps a flow takes."""
        return math.ceil(10.0 / self.h)

    @staticmethod
    def transition_order(order: int) -> int:
        """R_t = min(R, 10), the Taylor order of the C1 part of a step at
        state order R: A = Dphi_h reaches the set only through products
        with its width, so it needs less order than the state."""
        return min(order, 10)

    def size(self, k: int, before: EnclosureStep | None = None) -> float:
        """The size of step k, with `before` step k-1 (None for step 0)."""
        if k < len(self.given):
            return self.given[k]
        if before is None or self.tol is None:
            return self.h
        R = self.order
        w = before.h ** (R + 1) * float(np.max(before.rem[1] - before.rem[0]))
        factor = 0.9 * (self.tol / w) ** (1.0 / (R + 1)) if w > 0.0 else 2.0
        return before.h * min(2.0, max(0.5, factor))

    def halved(self) -> StepPolicy:
        """The retry at half the step: h halves, and tol by 2^(R+1)."""
        tol = None if self.tol is None else self.tol / 2.0 ** (self.order + 1)
        return StepPolicy(self.h * 0.5, self.order, tol)


def _step_tau_overlap(steps, k: int, t_enc: Interval) -> tuple[float, float] | None:
    """Rigorous in-step time range covering t_enc within step k, or None."""
    t0 = steps[k].t_start
    lo = max(0.0, (Interval.point(t_enc.lo) - t0).lo)
    hi = min(steps[k].h, (Interval.point(t_enc.hi) - t0).hi)
    if lo > hi:
        return None
    return lo, hi


def _hull_over(steps, zone, t_enc: Interval,
               at: Callable[[EnclosureStep, Interval], Pair]) -> Pair:
    """Hull of at(step, tau) over the zone steps, each at the in-step times
    that t_enc covers."""
    out = None
    for k in zone:
        rng = _step_tau_overlap(steps, k, t_enc)
        if rng is not None:
            enc = at(steps[k], Interval(*rng))
            out = enc if out is None else kn.hull(*out, *enc)
    if out is None:
        raise NonTransversal("crossing time enclosure left the crossing zone")
    return out


def _locate_crossing(steps, zone, section: SectionSpec, field
                     ) -> tuple[Interval, Pair]:
    """Interval Newton in time, t* = c - g(phi(c)) / (dg.f)(span), from the
    time range of the zone steps and iterated while it still contracts.  The
    slope domain must cover every mean-value point between the chosen center
    and any crossing time, so it is the flow over the hull of t_enc and the
    center."""
    first, last = steps[zone[0]], steps[zone[-1]]
    t_enc = (first.t_start + Interval(0.0, first.h)).hull(
        last.t_start + Interval(0.0, last.h))
    for _ in range(12):
        c = t_enc.mid()
        k_c = None
        for k in zone:
            rng = _step_tau_overlap(steps, k, t_enc)
            if rng is None:
                continue
            tau = c - steps[k].t_start.mid()
            tau_c = min(max(tau, rng[0]), rng[1])
            k_c = k
            if 0.0 <= tau <= steps[k].h:
                break
        if k_c is None:
            break
        t_c = steps[k_c].t_start + Interval(tau_c, tau_c)
        span = _hull_over(steps, zone, t_enc.hull(t_c), EnclosureStep.state_at)
        gd = section.gdot(*span, field)
        if gd.contains_zero():
            break
        g_c = section.g(*steps[k_c].state_at(Interval.point(tau_c)))
        try:
            t_new = (t_c - g_c / gd).intersect(t_enc)
        except EmptyIntersection:
            raise NonTransversal(
                "crossing zone vanished during refinement") from None
        if t_new.diam() > 0.9 * t_enc.diam():
            t_enc = t_new
            break
        t_enc = t_new

    state = _hull_over(steps, zone, t_enc, EnclosureStep.state_at)
    kn.assert_valid(*state, "crossing state")
    return t_enc, state


def _project_transition(field, section: SectionSpec, state: Pair,
                        gdot: Interval, vt: Pair) -> Pair:
    """(Id - f dg / (dg.f)) V: removes the return-time variation so the
    result is the derivative of the section-to-section map."""
    fl, fh = field.eval(*state)
    dgl, dgh = section.dg(*state)
    wl, wh = kn.dot(dgl[:, None], dgh[:, None], vt[0], vt[1], axis=0)
    cl, ch = kn.div(wl, wh, np.float64(gdot.lo), np.float64(gdot.hi))
    ol, oh = kn.mul(fl[:, None], fh[:, None], cl[None, :], ch[None, :])
    return kn.sub(vt[0], vt[1], ol, oh)

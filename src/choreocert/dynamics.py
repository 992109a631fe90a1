"""Planar gravitational vector fields with rigorous Taylor recurrences.

The N-body right-hand side is assembled from *attraction terms*: each term
owns a linear combination z of body positions and contributes z * |z|^-3 to
the acceleration of one or more bodies.  The plain N-body field, and the
6-body field reduced to 3 bodies by the antipodal symmetry q_{i+3} = -q_i,
are both instances.  Working per term makes the Taylor coefficient and
first-variation recurrences identical for every problem.

Series bookkeeping per term, all in interval arithmetic (kernels module):

    u = |z|^2,  p = u^(-5/2) via the power-series closure  u w' = a u' w,
    s = u * p   (= |z|^-3),  acceleration coefficients from conv(z, s),
    gravity-gradient blocks from  s I - 3 (z x z) * p.

Layer k of any series encloses the k-th Taylor coefficient (derivative / k!)
of that quantity along every trajectory starting in the input box.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels as kn
from .errors import CollisionEnclosure
from .interval import Interval

Pair = tuple[np.ndarray, np.ndarray]


# --- state layouts -----------------------------------------------------------

@dataclass(frozen=True)
class PhaseLayout:
    """Maps body coordinates to flat phase-vector indices.

    kind "blocks": per-body blocks (x_i, y_i, vx_i, vy_i), used by the chains.
    kind "split": all positions first, then all velocities, used by the Eight.
    """

    n_bodies: int
    kind: str = "blocks"

    def __post_init__(self):
        if self.kind not in ("blocks", "split"):
            raise ValueError(f"unknown layout kind {self.kind!r}")

    @property
    def dim(self) -> int:
        return 4 * self.n_bodies

    @property
    def qsel(self) -> np.ndarray:
        """Indices of (x0, y0, x1, y1, ...) in the flat vector."""
        n = self.n_bodies
        if self.kind == "split":
            return np.arange(2 * n)
        return np.concatenate([np.array([4 * i, 4 * i + 1]) for i in range(n)])

    @property
    def vsel(self) -> np.ndarray:
        """Indices of (vx0, vy0, vx1, vy1, ...) in the flat vector."""
        n = self.n_bodies
        if self.kind == "split":
            return np.arange(2 * n, 4 * n)
        return np.concatenate([np.array([4 * i + 2, 4 * i + 3])
                               for i in range(n)])

    def body_position(self, i: int) -> tuple[int, int]:
        q = self.qsel
        return int(q[2 * i]), int(q[2 * i + 1])

    def body_velocity(self, i: int) -> tuple[int, int]:
        v = self.vsel
        return int(v[2 * i]), int(v[2 * i + 1])


# --- attraction terms --------------------------------------------------------

@dataclass(frozen=True)
class AttractionTerm:
    """One Newtonian interaction z |z|^-3 with z = sum of coeff * q_body."""

    coeffs: tuple[tuple[int, float], ...]     # (body, coefficient) for z
    receivers: tuple[tuple[int, float], ...]  # (body, sign) gaining T(z)


def nbody_terms(n_bodies: int) -> tuple[AttractionTerm, ...]:
    """Unit-mass pairwise attraction for the plain planar N-body problem."""
    terms = []
    for i in range(n_bodies):
        for j in range(i + 1, n_bodies):
            terms.append(AttractionTerm(
                coeffs=((j, 1.0), (i, -1.0)),
                receivers=((i, 1.0), (j, -1.0))))
    return tuple(terms)


def reduced6_terms() -> tuple[AttractionTerm, ...]:
    """6-body attraction restricted to the antipodal subspace q_{i+3} = -q_i.

    Body i < 3 feels: its three direct partners, the three antipodes, and its
    own antipode at -2 q_i.  Antipodal pair terms are symmetric (both bodies
    receive +T), direct ones antisymmetric.
    """
    terms = []
    for i in range(3):
        for j in range(i + 1, 3):
            terms.append(AttractionTerm(
                coeffs=((j, 1.0), (i, -1.0)),
                receivers=((i, 1.0), (j, -1.0))))
            terms.append(AttractionTerm(
                coeffs=((j, -1.0), (i, -1.0)),
                receivers=((i, 1.0), (j, 1.0))))
    for i in range(3):
        terms.append(AttractionTerm(
            coeffs=((i, -2.0),),
            receivers=((i, 1.0),)))
    return tuple(terms)


# --- series container --------------------------------------------------------

def _div_int(al: np.ndarray, ah: np.ndarray, k: int) -> Pair:
    c = float(k)
    lo, hi = al / c, ah / c
    if k & (k - 1) == 0:  # power of two: exact
        return lo, hi
    return kn.down(lo), kn.up(hi)


class GravitySeries:
    """Taylor layers of the flow (and optionally of its first variation)
    started from one state box, for one `GravityField`."""

    def __init__(self, field: GravityField, sl: np.ndarray, sh: np.ndarray,
                 order: int, variational: bool):
        self.field = field
        self.order = order
        self.variational = variational
        n = field.layout.dim
        self.state_lo = np.zeros((order + 1, n))
        self.state_hi = np.zeros((order + 1, n))
        self.state_lo[0] = sl
        self.state_hi[0] = sh
        self._run()

    # Series arrays, all shaped (order+1, T): z components, u = |z|^2,
    # p = u^(-5/2), s = u * p, weighted rows a*u[a] / a*p[a] for the power
    # closure, acceleration building blocks.
    def _run(self) -> None:
        fld = self.field
        R = self.order
        T = len(fld.terms)
        shape = (R + 1, T)
        zxl = np.zeros(shape); zxh = np.zeros(shape)
        zyl = np.zeros(shape); zyh = np.zeros(shape)
        ul = np.zeros(shape); uh = np.zeros(shape)
        pl = np.zeros(shape); ph = np.zeros(shape)
        sl_ = np.zeros(shape); sh_ = np.zeros(shape)
        wul = np.zeros(shape); wuh = np.zeros(shape)   # a * u[a]
        wpl = np.zeros(shape); wph = np.zeros(shape)   # a * p[a]

        qsel, vsel = fld.layout.qsel, fld.layout.vsel
        Cx, Cy = fld._Cx, fld._Cy

        def z_layer(m: int) -> None:
            q_lo = self.state_lo[m][qsel]
            q_hi = self.state_hi[m][qsel]
            zxl[m], zxh[m] = kn.matvec_thin_left(Cx, q_lo, q_hi)
            zyl[m], zyh[m] = kn.matvec_thin_left(Cy, q_lo, q_hi)

        def u_layer(m: int) -> None:
            if m == 0:
                x2 = kn.sqr(zxl[0], zxh[0])
                y2 = kn.sqr(zyl[0], zyh[0])
                ul[0], uh[0] = kn.add(*x2, *y2)
            else:
                a = kn.dot(zxl[:m + 1], zxh[:m + 1],
                           zxl[m::-1], zxh[m::-1], axis=0)
                b = kn.dot(zyl[:m + 1], zyh[:m + 1],
                           zyl[m::-1], zyh[m::-1], axis=0)
                ul[m], uh[m] = kn.add(*a, *b)
            wul[m], wuh[m] = kn.scale(ul[m], uh[m], float(m))

        z_layer(0)
        u_layer(0)
        if np.any(ul[0] <= 0.0):
            raise CollisionEnclosure(
                "a pairwise separation enclosure touches zero")

        # p[0] = u0^(-5/2) with a single division:
        #   e = u0^(3/2), p0 = 1 / (u0 * e), inv_u0 = p0 * e, s0 = p0 * u0.
        rt = kn.sqrt(ul[0], uh[0])
        e = kn.mul(ul[0], uh[0], *rt)
        denom = kn.mul(ul[0], uh[0], *e)
        pl[0], ph[0] = kn.div(np.ones(T), np.ones(T), *denom)
        inv_u0 = kn.mul(pl[0], ph[0], *e)
        sl_[0], sh_[0] = kn.mul(pl[0], ph[0], ul[0], uh[0])

        def p_layer(m: int) -> None:
            # (m) p[m] u[0] = a * conv(a u[a], p)[m] - conv(a p[a], u)[m],
            # a = -5/2; both convolutions run over a = 1..m (weights kill 0).
            t1 = kn.dot(wul[1:m + 1], wuh[1:m + 1],
                        pl[m - 1::-1], ph[m - 1::-1], axis=0)
            t1 = kn.scale(*t1, -2.5)
            if m >= 2:
                t2 = kn.dot(wpl[1:m], wph[1:m],
                            ul[m - 1:0:-1], uh[m - 1:0:-1], axis=0)
                t1 = kn.sub(*t1, *t2)
            t1 = kn.mul(*t1, *inv_u0)
            pl[m], ph[m] = _div_int(*t1, m)
            wpl[m], wph[m] = kn.scale(pl[m], ph[m], float(m))

        def s_layer(m: int) -> None:
            sl_[m], sh_[m] = kn.dot(ul[:m + 1], uh[:m + 1],
                                    pl[m::-1], ph[m::-1], axis=0)

        def acc_layer(m: int) -> Pair:
            txl, txh = kn.dot(zxl[:m + 1], zxh[:m + 1],
                              sl_[m::-1], sh_[m::-1], axis=0)
            tyl, tyh = kn.dot(zyl[:m + 1], zyh[:m + 1],
                              sl_[m::-1], sh_[m::-1], axis=0)
            tl = np.stack([txl, tyl], axis=1).reshape(-1)
            th = np.stack([txh, tyh], axis=1).reshape(-1)
            return kn.matvec_thin_left(fld._S, tl, th)

        for m in range(R):
            acc = acc_layer(m)
            nxt_l = np.empty(fld.layout.dim)
            nxt_h = np.empty(fld.layout.dim)
            ql, qh = _div_int(self.state_lo[m][vsel],
                              self.state_hi[m][vsel], m + 1)
            al, ah = _div_int(*acc, m + 1)
            nxt_l[qsel], nxt_h[qsel] = ql, qh
            nxt_l[vsel], nxt_h[vsel] = al, ah
            self.state_lo[m + 1] = nxt_l
            self.state_hi[m + 1] = nxt_h
            z_layer(m + 1)
            u_layer(m + 1)
            p_layer(m + 1)
            s_layer(m + 1)

        self._z = (zxl, zxh, zyl, zyh)
        self._p = (pl, ph)
        self._s = (sl_, sh_)
        if self.variational:
            self._build_gradient_layers()

    def _build_gradient_layers(self) -> None:
        """Gravity-gradient Taylor layers G[k] (2N x 2N position blocks)."""
        fld = self.field
        R = self.order
        T = len(fld.terms)
        zxl, zxh, zyl, zyh = self._z
        pl, ph = self._p
        sl_, sh_ = self._s

        def conv_pair(aL, aH, bL, bH, m):
            return kn.dot(aL[:m + 1], aH[:m + 1], bL[m::-1], bH[m::-1], axis=0)

        # w2 = z (x) z component series, then e = w2 * p series.
        w2 = {}
        for name, (c1l, c1h, c2l, c2h) in {
                "xx": (zxl, zxh, zxl, zxh),
                "xy": (zxl, zxh, zyl, zyh),
                "yy": (zyl, zyh, zyl, zyh)}.items():
            wl = np.zeros((R + 1, T)); wh = np.zeros((R + 1, T))
            if name in ("xx", "yy"):
                wl[0], wh[0] = kn.sqr(c1l[0], c1h[0])
            else:
                wl[0], wh[0] = kn.mul(c1l[0], c1h[0], c2l[0], c2h[0])
            for m in range(1, R + 1):
                wl[m], wh[m] = conv_pair(c1l, c1h, c2l, c2h, m)
            w2[name] = (wl, wh)

        dT = {}
        for name, (wl, wh) in w2.items():
            el = np.zeros((R + 1, T)); eh = np.zeros((R + 1, T))
            for m in range(R + 1):
                el[m], eh[m] = conv_pair(wl, wh, pl, ph, m)
            el, eh = kn.scale(el, eh, -3.0)
            if name in ("xx", "yy"):
                el, eh = kn.add(sl_, sh_, el, eh)
            dT[name] = (el, eh)

        nb = fld.layout.n_bodies
        Gl = np.zeros((R + 1, 2 * nb, 2 * nb))
        Gh = np.zeros((R + 1, 2 * nb, 2 * nb))
        for t, term in enumerate(fld.terms):
            blk_l = np.stack([np.stack([dT["xx"][0][:, t], dT["xy"][0][:, t]], -1),
                              np.stack([dT["xy"][0][:, t], dT["yy"][0][:, t]], -1)], 1)
            blk_h = np.stack([np.stack([dT["xx"][1][:, t], dT["xy"][1][:, t]], -1),
                              np.stack([dT["xy"][1][:, t], dT["yy"][1][:, t]], -1)], 1)
            for b, sgn in term.receivers:
                for c, coef in term.coeffs:
                    f = sgn * coef
                    cl, ch = kn.scale(blk_l, blk_h, f)
                    view_l = Gl[:, 2 * b:2 * b + 2, 2 * c:2 * c + 2]
                    view_h = Gh[:, 2 * b:2 * b + 2, 2 * c:2 * c + 2]
                    nl, nh = kn.add(view_l, view_h, cl, ch)
                    Gl[:, 2 * b:2 * b + 2, 2 * c:2 * c + 2] = nl
                    Gh[:, 2 * b:2 * b + 2, 2 * c:2 * c + 2] = nh
        self.grad_lo, self.grad_hi = Gl, Gh

    # -- public views --

    def layers(self) -> Pair:
        """(order+1, dim) Taylor coefficient enclosures of the trajectory."""
        return self.state_lo, self.state_hi

    def derivative(self) -> Pair:
        """Field value enclosure f(box) (equals 1 * layer 1)."""
        return self.state_lo[1].copy(), self.state_hi[1].copy()

    def jacobian(self) -> Pair:
        """Field Jacobian enclosure over the input box: [[0, I], [G0, 0]]
        arranged per the layout."""
        if not self.variational:
            raise ValueError("series was built without variational data")
        fld = self.field
        n = fld.layout.dim
        qsel, vsel = fld.layout.qsel, fld.layout.vsel
        jl = np.zeros((n, n))
        jh = np.zeros((n, n))
        eye = np.eye(n // 2)
        jl[qsel[:, None], vsel[None, :]] = eye
        jh[qsel[:, None], vsel[None, :]] = eye
        jl[vsel[:, None], qsel[None, :]] = self.grad_lo[0]
        jh[vsel[:, None], qsel[None, :]] = self.grad_hi[0]
        return jl, jh

    def transition_layers(self, order: int | None = None) -> Pair:
        """Taylor layers of the transition matrix M(t), M(0) = identity.

        Needs gradient layers up to order-1, i.e. `variational=True` and
        `order <= self.order + 1`.
        """
        if not self.variational:
            raise ValueError("series was built without variational data")
        R = self.order if order is None else order
        if R > self.order + 1:
            raise ValueError("not enough gradient layers for requested order")
        fld = self.field
        n = fld.layout.dim
        qsel, vsel = fld.layout.qsel, fld.layout.vsel
        Ml = np.zeros((R + 1, n, n))
        Mh = np.zeros((R + 1, n, n))
        Ml[0] = np.eye(n)
        Mh[0] = np.eye(n)
        Gl, Gh = self.grad_lo, self.grad_hi
        for m in range(R):
            # velocity rows: sum_k G[k] . Mq[m-k], batched over k.
            gl = Gl[:m + 1, :, :, None]
            gh = Gh[:m + 1, :, :, None]
            mq_l = Ml[m::-1][:, qsel, :][:, None, :, :]
            mq_h = Mh[m::-1][:, qsel, :][:, None, :, :]
            accl, acch = kn.dot(gl, gh, mq_l, mq_h, axis=(0, 2))
            nl = np.empty((n, n)); nh = np.empty((n, n))
            nl[qsel], nh[qsel] = _div_int(Ml[m][vsel], Mh[m][vsel], m + 1)
            nl[vsel], nh[vsel] = _div_int(accl, acch, m + 1)
            Ml[m + 1] = nl
            Mh[m + 1] = nh
        return Ml, Mh


class GravityField:
    """Planar gravitational field over a fixed layout and term set."""

    def __init__(self, layout: PhaseLayout, terms: tuple[AttractionTerm, ...]):
        self.layout = layout
        self.terms = terms
        nb = layout.n_bodies
        T = len(terms)
        Cx = np.zeros((T, 2 * nb))
        Cy = np.zeros((T, 2 * nb))
        S = np.zeros((2 * nb, 2 * T))
        for t, term in enumerate(terms):
            for b, coef in term.coeffs:
                Cx[t, 2 * b] = coef
                Cy[t, 2 * b + 1] = coef
            for b, sgn in term.receivers:
                S[2 * b, 2 * t] = sgn
                S[2 * b + 1, 2 * t + 1] = sgn
        self._Cx, self._Cy, self._S = Cx, Cy, S

    @property
    def dim(self) -> int:
        return self.layout.dim

    def series(self, sl: np.ndarray, sh: np.ndarray, order: int,
               variational: bool = False) -> GravitySeries:
        return GravitySeries(self, sl, sh, order, variational)

    def eval(self, sl: np.ndarray, sh: np.ndarray) -> Pair:
        return self.series(sl, sh, 1).derivative()


def nbody_field(n_bodies: int, kind: str = "blocks") -> GravityField:
    return GravityField(PhaseLayout(n_bodies, kind), nbody_terms(n_bodies))


def reduced6_field(kind: str = "blocks") -> GravityField:
    return GravityField(PhaseLayout(3, kind), reduced6_terms())


class LinearField:
    """x' = A x with constant float A; test stand-in for the gravity fields
    (harmonic oscillator, rotations) with the same series protocol."""

    class Series:
        def __init__(self, A: np.ndarray, sl, sh, order: int):
            n = A.shape[0]
            self.order = order
            self.state_lo = np.zeros((order + 1, n))
            self.state_hi = np.zeros((order + 1, n))
            self.state_lo[0], self.state_hi[0] = sl, sh
            for m in range(order):
                nl, nh = kn.matvec_thin_left(A, self.state_lo[m],
                                             self.state_hi[m])
                self.state_lo[m + 1], self.state_hi[m + 1] = \
                    _div_int(nl, nh, m + 1)
            self._A = A

        def layers(self) -> Pair:
            return self.state_lo, self.state_hi

        def derivative(self) -> Pair:
            return self.state_lo[1].copy(), self.state_hi[1].copy()

        def jacobian(self) -> Pair:
            return self._A, self._A

        def transition_layers(self, order: int | None = None) -> Pair:
            R = self.order if order is None else order
            n = self._A.shape[0]
            Ml = np.zeros((R + 1, n, n))
            Mh = np.zeros((R + 1, n, n))
            Ml[0] = Mh[0] = np.eye(n)
            for m in range(R):
                nl, nh = kn.matmul_thin_left(self._A, Ml[m], Mh[m])
                Ml[m + 1], Mh[m + 1] = _div_int(nl, nh, m + 1)
            return Ml, Mh

    def __init__(self, A):
        self.A = np.asarray(A, dtype=np.float64)
        self.dim = self.A.shape[0]

    def series(self, sl, sh, order: int, variational: bool = False):
        return LinearField.Series(self.A, sl, sh, order)

    def eval(self, sl, sh) -> Pair:
        return kn.matvec_thin_left(self.A, sl, sh)


# --- conserved quantities ------------------------------------------------------

def _pair_separations(layout: PhaseLayout, sl, sh):
    for i in range(layout.n_bodies):
        for j in range(i + 1, layout.n_bodies):
            xi, yi = layout.body_position(i)
            xj, yj = layout.body_position(j)
            dx = Interval(sl[xj], sh[xj]) - Interval(sl[xi], sh[xi])
            dy = Interval(sl[yj], sh[yj]) - Interval(sl[yi], sh[yi])
            yield dx.sqr() + dy.sqr()


def total_energy(layout: PhaseLayout, state_lo, state_hi) -> Interval:
    """Kinetic + potential energy enclosure of a full (unreduced) state."""
    sl = np.asarray(state_lo, float)
    sh = np.asarray(state_hi, float)
    kin = Interval(0.0)
    for i in range(layout.n_bodies):
        vx, vy = layout.body_velocity(i)
        kin = kin + Interval(sl[vx], sh[vx]).sqr() + Interval(sl[vy], sh[vy]).sqr()
    total = kin / 2.0
    for r2 in _pair_separations(layout, sl, sh):
        total = total - 1.0 / r2.sqrt()
    return total


def angular_momentum(layout: PhaseLayout, state_lo, state_hi) -> Interval:
    sl = np.asarray(state_lo, float)
    sh = np.asarray(state_hi, float)
    out = Interval(0.0)
    for i in range(layout.n_bodies):
        x, y = layout.body_position(i)
        vx, vy = layout.body_velocity(i)
        out = (out
               + Interval(sl[x], sh[x]) * Interval(sl[vy], sh[vy])
               - Interval(sl[y], sh[y]) * Interval(sl[vx], sh[vx]))
    return out


def linear_momentum(layout: PhaseLayout, state_lo, state_hi) -> tuple[Interval, Interval]:
    sl = np.asarray(state_lo, float)
    sh = np.asarray(state_hi, float)
    px = Interval(0.0)
    py = Interval(0.0)
    for i in range(layout.n_bodies):
        vx, vy = layout.body_velocity(i)
        px = px + Interval(sl[vx], sh[vx])
        py = py + Interval(sl[vy], sh[vy])
    return px, py


def center_of_mass(layout: PhaseLayout, state_lo, state_hi) -> tuple[Interval, Interval]:
    sl = np.asarray(state_lo, float)
    sh = np.asarray(state_hi, float)
    cx = Interval(0.0)
    cy = Interval(0.0)
    for i in range(layout.n_bodies):
        x, y = layout.body_position(i)
        cx = cx + Interval(sl[x], sh[x])
        cy = cy + Interval(sl[y], sh[y])
    return cx, cy

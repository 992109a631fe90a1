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

The xx and yy series of z x z are the halves of u from the state pass; the
variational pass adds xy and forms all of s I - 3 (z x z) * p in one stacked
pass.  Each `GravityField` builds its term scatter once (the blocks of G each
term touches, with exact factors +-1 or +-2); the layers G[k] and the float
Jacobian of `pointflow` both read it and sum each block in term order.

Layer k of any series encloses the k-th Taylor coefficient (derivative / k!)
of that quantity along every trajectory starting in the input box.
"""

from __future__ import annotations

from collections import Counter
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
        if self.kind == "split":
            return np.arange(2 * self.n_bodies)
        return (4 * np.arange(self.n_bodies)[:, None] + [0, 1]).ravel()

    @property
    def vsel(self) -> np.ndarray:
        """Indices of (vx0, vy0, vx1, vy1, ...) in the flat vector."""
        return self.qsel + (2 * self.n_bodies if self.kind == "split" else 2)

    def field_jacobian(self, G: np.ndarray) -> np.ndarray:
        """[[0, I], [G, 0]] placed per the layout: q' = v, v' = G q."""
        n = self.dim
        J = np.zeros((n, n))
        J[self.qsel[:, None], self.vsel[None, :]] = np.eye(n // 2)
        J[self.vsel[:, None], self.qsel[None, :]] = G
        return J

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

    # Series arrays: z = (zx, zy) as (order+1, 2, T); z (x) z = (xx, xy, yy)
    # as (order+1, 3, T), where this pass fills xx and yy (the halves of u)
    # and the variational pass xy; then (order+1, T) each for u = |z|^2,
    # p = u^(-5/2), s = u * p, and the weighted rows a*u[a] / a*p[a] of the
    # power closure.
    def _run(self) -> None:
        fld = self.field
        R = self.order
        T = fld.n_terms
        shape = (R + 1, T)
        zl = np.zeros((R + 1, 2, T)); zh = np.zeros((R + 1, 2, T))
        zzl = np.zeros((R + 1, 3, T)); zzh = np.zeros((R + 1, 3, T))
        ul = np.zeros(shape); uh = np.zeros(shape)
        pl = np.zeros(shape); ph = np.zeros(shape)
        sl_ = np.zeros(shape); sh_ = np.zeros(shape)
        wul = np.zeros(shape); wuh = np.zeros(shape)   # a * u[a]
        wpl = np.zeros(shape); wph = np.zeros(shape)   # a * p[a]

        qsel, vsel = fld.layout.qsel, fld.layout.vsel

        def z_layer(m: int) -> None:
            lo, hi = kn.matvec_thin_left(fld._C, self.state_lo[m][qsel],
                                         self.state_hi[m][qsel])
            zl[m], zh[m] = lo.reshape(2, T), hi.reshape(2, T)

        def u_layer(m: int) -> None:
            if m == 0:
                zzl[0, ::2], zzh[0, ::2] = kn.sqr(zl[0], zh[0])
            else:
                zzl[m, ::2], zzh[m, ::2] = kn.dot(zl[:m + 1], zh[:m + 1],
                                                  zl[m::-1], zh[m::-1], axis=0)
            ul[m], uh[m] = kn.add(zzl[m, 0], zzh[m, 0], zzl[m, 2], zzh[m, 2])
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
            # conv(z, s) per term, interleaved (x_t, y_t) for the receivers S
            tl, th = kn.dot(zl[:m + 1], zh[:m + 1],
                            sl_[m::-1, None], sh_[m::-1, None], axis=0)
            return kn.matvec_thin_left(fld._S, tl.T.reshape(-1),
                                       th.T.reshape(-1))

        for m in range(R):
            self.state_lo[m + 1, qsel], self.state_hi[m + 1, qsel] = _div_int(
                self.state_lo[m, vsel], self.state_hi[m, vsel], m + 1)
            self.state_lo[m + 1, vsel], self.state_hi[m + 1, vsel] = _div_int(
                *acc_layer(m), m + 1)
            z_layer(m + 1)
            u_layer(m + 1)
            p_layer(m + 1)
            s_layer(m + 1)

        self._z = (zl, zh)
        self._zz = (zzl, zzh)
        self._p = (pl, ph)
        self._s = (sl_, sh_)
        if self.variational:
            self._build_gradient_layers()

    def _build_gradient_layers(self) -> None:
        """Gravity-gradient Taylor layers G[k] (2N x 2N position blocks)."""
        fld = self.field
        R = self.order
        nb = fld.layout.n_bodies
        zl, zh = self._z
        zzl, zzh = self._zz
        pl, ph = self._p
        sl_, sh_ = self._s

        # the xy component of z (x) z; xx and yy came with u.
        zzl[0, 1], zzh[0, 1] = kn.mul(zl[0, 0], zh[0, 0], zl[0, 1], zh[0, 1])
        for m in range(1, R + 1):
            zzl[m, 1], zzh[m, 1] = kn.dot(zl[:m + 1, 0], zh[:m + 1, 0],
                                          zl[m::-1, 1], zh[m::-1, 1], axis=0)

        # dT = s I - 3 (z (x) z) * p, all three components in one pass.
        el = np.empty_like(zzl); eh = np.empty_like(zzh)
        for m in range(R + 1):
            el[m], eh[m] = kn.dot(zzl[:m + 1], zzh[:m + 1],
                                  pl[m::-1, None], ph[m::-1, None], axis=0)
        el, eh = kn.scale(el, eh, -3.0)
        el[:, ::2], eh[:, ::2] = kn.add(sl_[:, None], sh_[:, None],
                                        el[:, ::2], eh[:, ::2])

        # per-term 2x2 blocks [[xx, xy], [xy, yy]], shaped (R+1, T, 2, 2)
        sym = [[0, 1], [1, 2]]
        dl = el[:, sym].transpose(0, 3, 1, 2)
        dh = eh[:, sym].transpose(0, 3, 1, 2)
        Gl = np.zeros((R + 1, 2 * nb, 2 * nb))
        Gh = np.zeros((R + 1, 2 * nb, 2 * nb))
        for t, rows, cols, f in fld.scatter:
            # f is +-1 or +-2, so f * endpoint is exact
            bl, bh = dl[:, t], dh[:, t]
            cl = np.where(f > 0, f * bl, f * bh)
            ch = np.where(f > 0, f * bh, f * bl)
            Gl[:, rows, cols], Gh[:, rows, cols] = kn.add(
                Gl[:, rows, cols], Gh[:, rows, cols], cl, ch)
        self.grad_lo, self.grad_hi = Gl, Gh

    # -- public views --

    def layers(self) -> Pair:
        """(order+1, dim) Taylor coefficient enclosures of the trajectory."""
        return self.state_lo, self.state_hi

    def jacobian(self) -> Pair:
        """Field Jacobian enclosure over the input box: [[0, I], [G0, 0]]
        arranged per the layout."""
        if not self.variational:
            raise ValueError("series was built without variational data")
        place = self.field.layout.field_jacobian
        return place(self.grad_lo[0]), place(self.grad_hi[0])

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
        Ml[0] = Mh[0] = np.eye(n)
        Gl, Gh = self.grad_lo, self.grad_hi
        for m in range(R):
            # velocity rows: sum_k G[k] . Mq[m-k], batched over k.
            mq_l = Ml[m::-1][:, None, qsel]
            mq_h = Mh[m::-1][:, None, qsel]
            accl, acch = kn.dot(Gl[:m + 1, :, :, None], Gh[:m + 1, :, :, None],
                                mq_l, mq_h, axis=(0, 2))
            Ml[m + 1, qsel], Mh[m + 1, qsel] = _div_int(
                Ml[m, vsel], Mh[m, vsel], m + 1)
            Ml[m + 1, vsel], Mh[m + 1, vsel] = _div_int(accl, acch, m + 1)
        return Ml, Mh


class GravityField:
    """Planar gravitational field over a fixed layout and term set.

    `scatter` holds rounds (terms, rows, cols, factors) with one entry per
    term, receiver and coefficient: rows (K, 2, 1) and cols (K, 1, 2) index
    a 2x2 block of G, the factor is sign * coefficient.  Round r holds the
    r-th term of each block it touches, so no block repeats in a round.
    """

    def __init__(self, layout: PhaseLayout, terms: tuple[AttractionTerm, ...]):
        self.layout = layout
        self.terms = terms
        nb = layout.n_bodies
        T = self.n_terms = len(terms)
        C = np.zeros((2 * T, 2 * nb))     # z_x rows, then z_y rows
        S = np.zeros((2 * nb, 2 * T))
        seen: Counter = Counter()
        rounds: dict[int, list] = {}
        for t, term in enumerate(terms):
            for b, coef in term.coeffs:
                C[t, 2 * b] = coef
                C[T + t, 2 * b + 1] = coef
            for b, sgn in term.receivers:
                S[2 * b, 2 * t] = sgn
                S[2 * b + 1, 2 * t + 1] = sgn
                for c, coef in term.coeffs:
                    if abs(sgn * coef) not in (1.0, 2.0):
                        raise ValueError(
                            f"term {t}: gradient factor {sgn * coef} is not "
                            "+-1 or +-2, so scaling its block is not exact")
                    rounds.setdefault(seen[b, c], []).append(
                        (t, 2 * b, 2 * c, sgn * coef))
                    seen[b, c] += 1
        self._C, self._S = C, S
        self.scatter = tuple(
            (np.array(t), np.array(r)[:, None, None] + [[0], [1]],
             np.array(c)[:, None, None] + [[0, 1]], np.array(f)[:, None, None])
            for t, r, c, f in (zip(*rounds[k]) for k in range(len(rounds))))

    @property
    def dim(self) -> int:
        return self.layout.dim

    def series(self, sl: np.ndarray, sh: np.ndarray, order: int,
               variational: bool = False) -> GravitySeries:
        return GravitySeries(self, sl, sh, order, variational)

    def eval(self, sl: np.ndarray, sh: np.ndarray) -> Pair:
        """Field value enclosure f(box): layer 1 of an order-1 series."""
        ser = self.series(sl, sh, 1)
        return ser.state_lo[1].copy(), ser.state_hi[1].copy()


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


def _body_sums(layout: PhaseLayout, state_lo, state_hi,
               where) -> tuple[Interval, Interval]:
    sl = np.asarray(state_lo, float)
    sh = np.asarray(state_hi, float)
    sx = sy = Interval(0.0)
    for i in range(layout.n_bodies):
        x, y = where(i)
        sx = sx + Interval(sl[x], sh[x])
        sy = sy + Interval(sl[y], sh[y])
    return sx, sy


def linear_momentum(layout: PhaseLayout, state_lo, state_hi) -> tuple[Interval, Interval]:
    return _body_sums(layout, state_lo, state_hi, layout.body_velocity)


def center_of_mass(layout: PhaseLayout, state_lo, state_hi) -> tuple[Interval, Interval]:
    return _body_sums(layout, state_lo, state_hi, layout.body_position)

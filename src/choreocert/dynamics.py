"""Planar gravitational vector fields with rigorous Taylor recurrences.

The N-body right-hand side is assembled from *attraction terms*: each term
owns a linear combination z of body positions and contributes z * |z|^-3 to
the acceleration of one or more bodies.  The plain N-body field, which the
Eight integrates, and the 2H-body field reduced to H bodies by the antipodal
symmetry q_{i+H} = -q_i, which every chain integrates, are both instances.
Working per term makes the Taylor coefficient and first-variation
recurrences identical for every problem.

Series bookkeeping per term, all in interval arithmetic (kernels module):

    u = |z|^2, each layer one contraction over the layers and both
        components of z,
    p = u^(-5/2) via the power-series closure  u p' = -5/2 u' p, each layer
        one weighted sum  m u0 p[m] = -sum_{j=1..m} (3j/2 + m) u[j] p[m-j],
    s = u * p   (= |z|^-3),  acceleration coefficients from conv(z, s),
    gravity-gradient blocks from  s I - 3 (z x z) * p.

The state pass is a recurrence, one layer after the other, in 10 kernel
calls a layer: one division makes the whole layer, none the first, which
divides by 1, and an order-1 series (a field value) forms no -1/u0, which
only p's recurrence reads.  The variational pass reads finished series, so
it forms every layer of z x z = (xx, xy, yy) and of (z x z) * p in one
Cauchy-product contraction each (`kernels.cauchy`), and all of
s I - 3 (z x z) * p in one stacked pass.  Each `GravityField` builds its
term scatter once (the blocks of G each term touches, with exact factors
+-1 or +-2); the layers G[k] read it and sum each block in term order.

Layer k of any series encloses the k-th Taylor coefficient (derivative / k!)
of that quantity along every trajectory starting in the input box.

A series takes one box (dim,) or a stack of B boxes (B, dim) and runs one
recurrence pass for all of them: every array carries the batch axis right
after the layer axis, and a single box is the batch of one.  Each
convolution still sums over the layer axis and each matrix row over the
contiguous last axis, so a member's layers are bit for bit those of its own
series.  The Lohner step stacks the box center, the box and its rough
enclosure into one pass at order R+1: layer m depends only on the layers
below it, so layers 0..R are those of an order-R series.  Only the members
that `variational` selects carry gradient layers, in the step the box and
the rough box; the center's state layers are all the step reads of it.  A
series of order R computes the state layers 0..R and, with or without
variational data, z, u, p and s at the layers 0..R-1 that they read; the
gradient layers G[0..R-1] are what the transition layers up to R read.  The
transition layers take a seed block per member and an order per member, so
one pass serves the step's box and rough box at their own orders.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import kernels as kn
from .errors import CollisionEnclosure

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

    @cached_property
    def qsel(self) -> np.ndarray:
        """Indices of (x0, y0, x1, y1, ...) in the flat vector."""
        if self.kind == "split":
            q = np.arange(2 * self.n_bodies)
        else:
            q = (4 * np.arange(self.n_bodies)[:, None] + [0, 1]).ravel()
        q.flags.writeable = False
        return q

    @cached_property
    def vsel(self) -> np.ndarray:
        """Indices of (vx0, vy0, vx1, vy1, ...) in the flat vector."""
        v = self.qsel + (2 * self.n_bodies if self.kind == "split" else 2)
        v.flags.writeable = False
        return v

    def field_jacobian(self, G: np.ndarray) -> np.ndarray:
        """[[0, I], [G, 0]] placed per the layout: q' = v, v' = G q; G may
        be a stack (..., 2N, 2N)."""
        n = self.dim
        J = np.zeros(G.shape[:-2] + (n, n))
        J[..., self.qsel[:, None], self.vsel[None, :]] = np.eye(n // 2)
        J[..., self.vsel[:, None], self.qsel[None, :]] = G
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


def antipodal_terms(half: int) -> tuple[AttractionTerm, ...]:
    """2H-body attraction restricted to the antipodal subspace
    q_{i+H} = -q_i, for H = `half` bodies.

    Body i < H feels: its H - 1 direct partners, their H - 1 antipodes, and
    its own antipode at -2 q_i.  Antipodal pair terms are symmetric (both
    bodies receive +T), direct ones antisymmetric.
    """
    terms = []
    for i in range(half):
        for j in range(i + 1, half):
            terms.append(AttractionTerm(
                coeffs=((j, 1.0), (i, -1.0)),
                receivers=((i, 1.0), (j, -1.0))))
            terms.append(AttractionTerm(
                coeffs=((j, -1.0), (i, -1.0)),
                receivers=((i, 1.0), (j, 1.0))))
    for i in range(half):
        terms.append(AttractionTerm(
            coeffs=((i, -2.0),),
            receivers=((i, 1.0),)))
    return tuple(terms)


# --- series container --------------------------------------------------------

class GravitySeries:
    """Taylor layers of the flow (and optionally of its first variation)
    started from one state box, or from a stack of B boxes, for one
    `GravityField`.

    Every array carries a batch axis right after the layer axis; a 1-D box
    is the batch of one, and the public views drop that axis again.
    `variational` is True (every member carries gradient layers), False
    (none does) or a slice of the members that do; the gradient layers of
    the others are NaN, and `transition_layers` refuses them."""

    def __init__(self, field: GravityField, sl: np.ndarray, sh: np.ndarray,
                 order: int, variational: bool | slice):
        self.field = field
        self.order = order
        sl = np.asarray(sl, float)
        self._single = sl.ndim == 1
        sl, sh = sl.reshape(-1, field.dim), np.reshape(sh, (-1, field.dim))
        self._lo = np.zeros((order + 1,) + sl.shape)
        self._hi = np.zeros((order + 1,) + sl.shape)
        self._lo[0] = sl
        self._hi[0] = sh
        self._run()
        self.state_lo, self.state_hi = self._view(self._lo), self._view(self._hi)
        if isinstance(variational, bool):
            variational = slice(None) if variational else slice(0)
        self._graded = np.zeros(sl.shape[0], bool)
        self._graded[variational] = True
        if self._graded.any():
            self._build_gradient_layers()
            self.grad_lo = self._view(self._gl)
            self.grad_hi = self._view(self._gh)

    def _view(self, a: np.ndarray) -> np.ndarray:
        """Drops the batch axis (axis 1) of a series built from a 1-D box."""
        return a[:, 0] if self._single else a

    # Series arrays, all with the batch axis B second and layers 0..order-1,
    # the layers that the state layers up to `order` read: z = (zx, zy) as
    # (order, B, 2, T), then (order, B, T) each for u = |z|^2,
    # p = u^(-5/2) and s = u * p.  Every convolution sums over the layer
    # axis 0 and every matrix row over the contiguous last axis, as for a
    # single box, so batching moves no bit.
    def _run(self) -> None:
        fld = self.field
        R = self.order
        B = self._lo.shape[1]
        T = fld.n_terms
        shape = (R, B, T)
        zl = np.zeros((R, B, 2, T)); zh = np.zeros((R, B, 2, T))
        ul = np.zeros(shape); uh = np.zeros(shape)
        pl = np.zeros(shape); ph = np.zeros(shape)
        sl_ = np.zeros(shape); sh_ = np.zeros(shape)

        qsel, vsel = fld.layout.qsel, fld.layout.vsel
        state_lo, state_hi = self._lo, self._hi

        def z_layer(m: int) -> None:
            lo, hi = kn.matvec_thin_left(fld._C, state_lo[m][:, qsel],
                                         state_hi[m][:, qsel])
            zl[m], zh[m] = lo.reshape(B, 2, T), hi.reshape(B, 2, T)

        def u_layer(m: int) -> None:
            # u[m] = sum over the layers and both components of z[k] z[m-k]
            ul[m], uh[m] = kn.dot(zl[:m + 1], zh[:m + 1], zl[m::-1], zh[m::-1],
                                  axis=(0, 2))

        # u[0] from the tight squares, which keep u0 > 0 wherever the
        # separation stays off zero; the gradient pass reuses them.
        z_layer(0)
        sql, sqh = self._sq0 = kn.sqr(zl[0], zh[0])
        ul[0], uh[0] = kn.add(sql[:, 0], sqh[:, 0], sql[:, 1], sqh[:, 1])
        if np.any(ul[0] <= 0.0):
            raise CollisionEnclosure(
                "a pairwise separation enclosure touches zero")

        # p[0] = u0^(-5/2) with a single division:
        #   e = u0^(3/2), p0 = 1 / (u0 * e), 1/u0 = p0 * e, s0 = p0 * u0;
        # 1/u0 only for p's recurrence, which an order-1 series never runs.
        rt = kn.sqrt(ul[0], uh[0])
        e = kn.mul(ul[0], uh[0], *rt)
        denom = kn.mul(ul[0], uh[0], *e)
        one = np.ones((B, T))
        pl[0], ph[0] = kn.div(one, one, *denom)
        if R > 1:
            minus_inv_u0 = kn.neg(*kn.mul(pl[0], ph[0], *e))
        sl_[0], sh_[0] = kn.mul(pl[0], ph[0], ul[0], uh[0])

        def p_layer(m: int) -> None:
            # The power closure u p' = -5/2 u' p, at layer m:
            #   m u[0] p[m] = -sum_{j=1..m} (3j/2 + m) u[j] p[m-j],
            # one weighted sum with exact positive float weights; the sign
            # rides on -1/u0, an exact negation.
            w = (1.5 * np.arange(1, m + 1) + m)[:, None, None]
            t = kn.dot(*kn.scale(ul[1:m + 1], uh[1:m + 1], w),
                       pl[m - 1::-1], ph[m - 1::-1], axis=0)
            pl[m], ph[m] = kn.div_int(*kn.mul(*t, *minus_inv_u0), m)

        def s_layer(m: int) -> None:
            sl_[m], sh_[m] = kn.dot(ul[:m + 1], uh[:m + 1],
                                    pl[m::-1], ph[m::-1], axis=0)

        def acc_layer(m: int) -> Pair:
            # conv(z, s) per term, interleaved (x_t, y_t) for the receivers S
            tl, th = kn.dot(zl[:m + 1], zh[:m + 1],
                            sl_[m::-1, :, None], sh_[m::-1, :, None], axis=0)
            return kn.matvec_thin_left(fld._S,
                                       tl.swapaxes(1, 2).reshape(B, -1),
                                       th.swapaxes(1, 2).reshape(B, -1))

        for m in range(R):
            # layer m+1 is (v[m], a[m]) / (m+1) in one division, none at
            # m = 0, where it divides by 1
            nl, nh = state_lo[m + 1], state_hi[m + 1]
            nl[:, qsel], nh[:, qsel] = state_lo[m][:, vsel], state_hi[m][:, vsel]
            nl[:, vsel], nh[:, vsel] = acc_layer(m)
            if m:
                nl[:], nh[:] = kn.div_int(nl, nh, m + 1)
            if m + 1 < R:
                z_layer(m + 1)
                u_layer(m + 1)
                p_layer(m + 1)
                s_layer(m + 1)

        self._z = (zl, zh)
        self._u = (ul, uh)
        self._p = (pl, ph)
        self._s = (sl_, sh_)

    def _build_gradient_layers(self) -> None:
        """Gravity-gradient Taylor layers G[k] (2N x 2N position blocks),
        k < order, shaped (order, B, 2N, 2N), of the graded members; NaN
        for the others."""
        fld = self.field
        R = self.order
        g = self._graded
        B = int(g.sum())
        nb = fld.layout.n_bodies
        zl, zh = (a[:, g] for a in self._z)
        pl, ph = (a[:, g] for a in self._p)
        sl_, sh_ = (a[:, g] for a in self._s)

        # z (x) z = (xx, xy, yy), every layer in one Cauchy contraction;
        # layer 0 is the state pass's tight squares and one product.
        a, b = [0, 0, 1], [0, 1, 1]
        zzl, zzh = kn.cauchy(zl[:, :, a], zh[:, :, a], zl[:, :, b], zh[:, :, b])
        zzl[0, :, ::2], zzh[0, :, ::2] = (a[g] for a in self._sq0)
        zzl[0, :, 1], zzh[0, :, 1] = kn.mul(zl[0, :, 0], zh[0, :, 0],
                                            zl[0, :, 1], zh[0, :, 1])

        # dT = s I - 3 (z (x) z) * p, every layer and component at once.
        el, eh = kn.cauchy(zzl, zzh, pl[:, :, None], ph[:, :, None])
        el, eh = kn.scale(el, eh, -3.0)
        el[:, :, ::2], eh[:, :, ::2] = kn.add(sl_[:, :, None], sh_[:, :, None],
                                              el[:, :, ::2], eh[:, :, ::2])

        # per-term 2x2 blocks [[xx, xy], [xy, yy]], shaped (R, B, T, 2, 2)
        sym = [[0, 1], [1, 2]]
        dl = el[:, :, sym].transpose(0, 1, 4, 2, 3)
        dh = eh[:, :, sym].transpose(0, 1, 4, 2, 3)
        Gl = np.zeros((R, B, 2 * nb, 2 * nb))
        Gh = np.zeros((R, B, 2 * nb, 2 * nb))
        for t, rows, cols, f in fld.scatter:
            # f is +-1 or +-2, so f * endpoint is exact
            bl, bh = dl[:, :, t], dh[:, :, t]
            cl = np.where(f > 0, f * bl, f * bh)
            ch = np.where(f > 0, f * bh, f * bl)
            Gl[:, :, rows, cols], Gh[:, :, rows, cols] = kn.add(
                Gl[:, :, rows, cols], Gh[:, :, rows, cols], cl, ch)
        self._gl, self._gh = (np.full((R, g.size, 2 * nb, 2 * nb), np.nan)
                              for _ in range(2))
        self._gl[:, g], self._gh[:, g] = Gl, Gh

    # -- public views --

    def layers(self) -> Pair:
        """(order+1, dim) Taylor coefficient enclosures of the trajectory,
        (order+1, B, dim) for a batch."""
        return self.state_lo, self.state_hi

    def jacobian(self) -> Pair:
        """Field Jacobian enclosure over the input box: [[0, I], [G0, 0]]
        arranged per the layout; (B, dim, dim) for a batch, NaN in the G0
        block of a member without gradient layers."""
        if not self._graded.any():
            raise ValueError("series was built without variational data")
        place = self.field.layout.field_jacobian
        return place(self.grad_lo[0]), place(self.grad_hi[0])

    def transition_layers(self, order: int | tuple[int, ...] | None = None,
                          members: slice | None = None,
                          seed: Pair | None = None,
                          tangent: int | None = None) -> Pair:
        """Taylor layers of M(t) V, with M(t) the transition matrix, M(0) =
        identity, and V the seed: (top+1, dim, d), or (top+1, B', dim, d)
        for the batch members selected by `members` (default all).

        `seed` is one interval (dim, d) block per member, (B', dim, d) for a
        batch, by default the identity (d = dim).  Over a box X, the
        sequence M_k(y) V obeys the same linear recurrence for every y in X
        and every V, with M_0 = V, so the layers enclose {M_k(y) V : y in X,
        V in seed}.  `order` is the top layer, one for every member or one
        per member, non-decreasing; with `tangent` the last column of the
        last member runs on alone, in the same loop, to layer `tangent`.
        top is the highest layer asked for; the entries never computed are
        NaN.  Layer k needs gradient layers up to k-1, i.e. selected
        members that carry them and top <= `self.order`.
        """
        pick = slice(None) if members is None else members
        if not self._graded[pick].all():
            raise ValueError("series was built without variational data "
                             "for a selected member")
        fld = self.field
        n = fld.layout.dim
        qsel, vsel = fld.layout.qsel, fld.layout.vsel
        # M is kept as (layer, row, member, column) and G[k] as (column j,
        # row i, member): each velocity-row contraction sums over its two
        # leading axes (k, j), in the same order as any other layout, but
        # over long contiguous rows.
        Gl, Gh = (np.ascontiguousarray(g[:, pick].transpose(0, 3, 2, 1))[..., None]
                  for g in (self._gl, self._gh))
        B = Gl.shape[3]
        tops = np.broadcast_to(self.order if order is None else order,
                               (B,)).tolist()
        top = max(tops[-1], tops[-1] if tangent is None else tangent)
        if tops != sorted(tops):
            raise ValueError("member orders must not decrease")
        if top > self.order:
            raise ValueError("not enough gradient layers for requested order")
        d = n if seed is None else seed[0].shape[-1]
        Ml = np.full((top + 1, n, B, d), np.nan)
        Mh = np.full((top + 1, n, B, d), np.nan)
        if seed is None:
            Ml[0] = Mh[0] = np.eye(n)[:, None]
        else:
            Ml[0], Mh[0] = (np.reshape(v, (B, n, d)).transpose(1, 0, 2)
                            for v in seed)
        for m in range(top):
            if m < tops[-1]:   # the members still running, all columns
                b, c = sum(t <= m for t in tops), 0
            else:              # the tangent alone
                b, c = B - 1, d - 1
            al, ah = Ml[:, :, b:, c:], Mh[:, :, b:, c:]
            # velocity rows: sum_k G[k] . Mq[m-k], batched over k.
            accl, acch = kn.dot(Gl[:m + 1, :, :, b:], Gh[:m + 1, :, :, b:],
                                al[m::-1][:, qsel, None],
                                ah[m::-1][:, qsel, None], axis=(0, 1))
            al[m + 1][qsel], ah[m + 1][qsel] = kn.div_int(
                al[m][vsel], ah[m][vsel], m + 1)
            al[m + 1][vsel], ah[m + 1][vsel] = kn.div_int(accl, acch, m + 1)
        return (self._view(Ml.transpose(0, 2, 1, 3)),
                self._view(Mh.transpose(0, 2, 1, 3)))


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
               variational: bool | slice = False) -> GravitySeries:
        return GravitySeries(self, sl, sh, order, variational)

    def eval(self, sl: np.ndarray, sh: np.ndarray) -> Pair:
        """Field value enclosure f(box): layer 1 of an order-1 series."""
        ser = self.series(sl, sh, 1)
        return ser.state_lo[1].copy(), ser.state_hi[1].copy()


def nbody_field(n_bodies: int, kind: str = "blocks") -> GravityField:
    return GravityField(PhaseLayout(n_bodies, kind), nbody_terms(n_bodies))

"""Test oracles that no command runs: the plain N-body field, a constant
linear field, a box that carries its monodromy slab, a flow to a fixed
time, the thin point's flow alone to the section, the conserved quantities
of the N-body problem, and the FPU's rounding mode as the C library
reports it.

Tests import this module by name (`from helpers import ...`): `tests/` has
no `__init__.py`, so pytest puts it on `sys.path`.
"""

from __future__ import annotations

import ctypes

import numpy as np

from choreocert import kernels as kn
from choreocert.dynamics import GravityField, PhaseLayout, nbody_terms
from choreocert.integrator import (EnclosureStep, LohnerSet, StepPolicy,
                                   flow_to_section, run_time, step)
from choreocert.interval import Interval
from choreocert.problems import MapEvaluation, _crossing_notes

Pair = tuple[np.ndarray, np.ndarray]

FE_TONEAREST = 0


def fegetround() -> int:
    return ctypes.CDLL(None).fegetround()


# --- the plain N-body field -------------------------------------------------

def nbody_field(n_bodies: int, kind: str = "blocks") -> GravityField:
    """All N unit masses, none eliminated: the oracle of the reduced fields
    the problems integrate."""
    return GravityField(PhaseLayout(n_bodies, kind), nbody_terms(n_bodies))


# --- a linear field ------------------------------------------------------------

class LinearField:
    """x' = A x with constant float A; test stand-in for the gravity fields
    (harmonic oscillator, rotations) with the same series protocol,
    batches included."""

    class Series:
        def __init__(self, A: np.ndarray, sl, sh, order: int,
                     variational: bool | slice):
            sl = np.asarray(sl, float)
            self.order = order
            self.state_lo = np.zeros((order + 1,) + sl.shape)
            self.state_hi = np.zeros((order + 1,) + sl.shape)
            self.state_lo[0], self.state_hi[0] = sl, sh
            for m in range(order):
                nl, nh = kn.matvec_thin_left(A, self.state_lo[m],
                                             self.state_hi[m])
                self.state_lo[m + 1], self.state_hi[m + 1] = \
                    kn.div_int(nl, nh, m + 1)
            self._A = A
            self._batch = sl.shape[:-1]
            if isinstance(variational, bool):
                variational = slice(None) if variational else slice(0)
            self._graded = len(range(int(np.prod(self._batch)))[variational])

        def layers(self) -> Pair:
            return self.state_lo, self.state_hi

        def _graded_count(self) -> int:
            if not self._graded:
                raise ValueError("series was built without variational data")
            return self._graded

        def jacobian(self) -> Pair:
            B = self._graded_count()
            J = np.broadcast_to(self._A, ((B,) if self._batch else ())
                                + self._A.shape)
            return J, J

        def transition_layers(self, order=None, seed: Pair | None = None,
                              tangent: int | None = None) -> Pair:
            """The gravity series' protocol: layers of M(t) V, M_k = A^k / k!,
            for the graded members, with one seed (n, d) per member (default
            the identity), an order per member and a tangent, none above the
            series' order; entries never computed are NaN."""
            n = self._A.shape[0]
            B = self._graded_count()
            tops = np.broadcast_to(self.order if order is None else order, (B,))
            top = max(tops[-1], tangent or 0)
            if top > self.order:
                raise ValueError("not enough gradient layers for requested order")
            eye = np.broadcast_to(np.eye(n), (B, n, n))
            vl, vh = (np.reshape(v, (B, n, -1)) for v in (seed or (eye, eye)))
            Ml = np.empty((top + 1,) + vl.shape)
            Mh = np.empty((top + 1,) + vh.shape)
            Ml[0], Mh[0] = vl, vh
            for m in range(top):
                nl, nh = kn.dot(self._A[:, :, None], self._A[:, :, None],
                                Ml[m][:, None], Mh[m][:, None], axis=-2)
                Ml[m + 1], Mh[m + 1] = kn.div_int(nl, nh, m + 1)
            tail = Ml[:, -1, :, -1].copy(), Mh[:, -1, :, -1].copy()
            past = np.arange(top + 1)[:, None] > tops
            Ml[past] = Mh[past] = np.nan
            if top > tops[-1]:   # the last member's last column runs on
                Ml[:, -1, :, -1], Mh[:, -1, :, -1] = tail
            return (Ml, Mh) if self._batch else (Ml[:, 0], Mh[:, 0])

    def __init__(self, A):
        self.A = np.asarray(A, dtype=np.float64)
        self.dim = self.A.shape[0]

    def series(self, sl, sh, order: int, variational: bool | slice = False):
        """The series protocol; `variational` selects the members that carry
        the constant Jacobian, as for the gravity series."""
        return LinearField.Series(self.A, sl, sh, order, variational)

    def eval(self, sl, sh) -> Pair:
        return kn.matvec_thin_left(self.A, sl, sh)


# --- a box with its monodromy slab ---------------------------------------------

def box_with_slab(lo, hi) -> LohnerSet:
    """The box [lo, hi] as a set whose monodromy slab starts at the identity,
    one column per state component."""
    lo = np.asarray(lo, float)
    hi = np.asarray(hi, float)
    m = kn.mid(lo, hi)
    return LohnerSet.from_slab(m, np.eye(m.size), kn.sub(lo, hi, m, m))


# --- a flow to a fixed time ----------------------------------------------------

def flow(field, start: LohnerSet, t_final: float, h: float, order: int
         ) -> tuple[LohnerSet, list[EnclosureStep]]:
    """Chain steps to time t_final; the last step is shortened to land on it."""
    steps: list[EnclosureStep] = []
    cur = start
    t = 0.0
    k = 0
    budget = int(np.ceil(t_final / h)) + 2
    while t < t_final and k < budget:
        hk = min(h, t_final - t)
        if hk <= 0:
            break
        cur, rec = step(field, cur, hk, order,
                        t_start=run_time([r.h for r in steps]))
        steps.append(rec)
        t = rec.t_k
        k += 1
    return cur, steps


# --- the point's flow alone ----------------------------------------------------

def phi_point_alone(problem, x, policy: StepPolicy) -> MapEvaluation:
    """The defect map at the reduced point x from a flow of the thin point
    alone, from time 0 under `policy`: the reference for the point that
    rides the set flow (`problems.phi_point`), and the map at a point with
    no set flow to ride."""
    s0 = problem.embed_point(x)
    cr = flow_to_section(problem.field, LohnerSet.from_box(s0, s0),
                         problem.section, policy)
    return MapEvaluation(value=problem.reduce(*cr.state), jacobian=None,
                         crossing=cr, notes=_crossing_notes(problem, cr))


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


def conservation_containment(problem, steps) -> dict:
    """Check that energy, angular momentum, linear momentum, and center of
    mass enclosures at every step overlap their initial enclosures.

    Interval evaluations along a rigorous trajectory must all contain the
    conserved true values, so every step's enclosure intersects the first.
    The first step's input box is layer 0 of its Taylor series.
    """
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

    layers = steps[0].layers
    initial = quantities(layers[0][0], layers[1][0])
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

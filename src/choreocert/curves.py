"""Unfolding certified segments into full closed choreography curves.

A certified zero gives one short trajectory segment ending on a symmetry
section.  The closed curve is assembled from reflected and time-reversed
copies of that segment:

* Eight: the third body's segment plus reflected copies of the other two
  build a quarter of the curve; two axis reflections complete it.  The
  computation frame has the first body starting on the x axis, so the
  assembly first rotates everything by the (rigorously enclosed) angle that
  puts the first body's crossing position on the x axis.
* Chains: each body's segment covers half a phase-shift period; x-axis
  mirror images fill the gaps between consecutive bodies.

Every junction comes with a residual enclosure that must contain zero; a
violation means an implementation bug, not a failure of the mathematics,
and raises GluingMismatch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels as kn
from .errors import GluingMismatch
from .integrator import SectionCrossing
from .interval import Interval
from .problems import _COMPONENTS, _MIRROR, ChoreographyProblem

Pair = tuple[np.ndarray, np.ndarray]


@dataclass
class UnfoldResult:
    period: Interval                      # full period enclosure
    curve: np.ndarray                     # (n_samples, 3): t, x, y
    segment: np.ndarray                   # (n_steps+1, 1 + 2 n_bodies)
    residuals: list[tuple[str, Interval]]
    note: str = ""


def _segment_midpoints(crossing: SectionCrossing
                       ) -> tuple[np.ndarray, np.ndarray]:
    """(times, states) float samples along the certified segment, clipped to
    the crossing time."""
    t_hi = crossing.t_cross.mid()
    times = [0.0]
    states = []
    first = crossing.steps[0]
    start = 0.5 * (first.layers[0][0] + first.layers[1][0])
    states.append(start)
    for rec in crossing.steps:
        if rec.t_k > t_hi:
            break
        times.append(rec.t_k)
        states.append(kn.mid(*rec.tight))
    times.append(t_hi)
    states.append(kn.mid(*crossing.state))
    return np.asarray(times), np.vstack(states)


def _body_tracks(problem: ChoreographyProblem, states: np.ndarray
                 ) -> list[np.ndarray]:
    """(x, y) tracks of every orbit body (`expand_state`)."""
    layout, full, _ = problem.expand_state(states, states)
    return [full[:, list(layout.body_position(i))]
            for i in range(problem.orbit_bodies)]


def _interval_components(state: Pair, idx: tuple[int, int]) -> tuple[Interval, Interval]:
    lo, hi = state
    return (Interval(float(lo[idx[0]]), float(hi[idx[0]])),
            Interval(float(lo[idx[1]]), float(hi[idx[1]])))


# --- the Eight ----------------------------------------------------------------

def _eight_rotation(crossing: SectionCrossing) -> tuple[Interval, Interval]:
    """cos/sin enclosures of the angle of the first body at the crossing."""
    x1, y1 = _interval_components(crossing.state, (0, 1))
    norm = (x1.sqr() + y1.sqr()).sqrt()
    return x1 / norm, y1 / norm


def _rot_point(c: float, s: float, p: np.ndarray) -> np.ndarray:
    return np.array([c * p[0] + s * p[1], -s * p[0] + c * p[1]])


def _rot_interval(c: Interval, s: Interval, px: Interval, py: Interval
                  ) -> tuple[Interval, Interval]:
    return (c * px + s * py, -(s * px) + c * py)


def _unfold_eight(problem: ChoreographyProblem, crossing: SectionCrossing,
                  period: Interval) -> UnfoldResult:
    c_iv, s_iv = _eight_rotation(crossing)
    residuals: list[tuple[str, Interval]] = []

    # Junction data at the crossing, rotated so the first body sits on the
    # positive x axis: first body on axis, third body the x-mirror of the
    # second, third velocity the y-mirror of the second.
    layout, *st = problem.expand_state(*crossing.state)
    q = {i: _interval_components(st, layout.body_position(i))
         for i in range(3)}
    v = {i: _interval_components(st, layout.body_velocity(i))
         for i in range(3)}
    rq = {i: _rot_interval(c_iv, s_iv, *q[i]) for i in range(3)}
    rv = {i: _rot_interval(c_iv, s_iv, *v[i]) for i in range(3)}

    residuals.append(("first body on axis: y1", rq[0][1]))
    residuals.append(("position x3 - x2", rq[2][0] - rq[1][0]))
    residuals.append(("position y3 + y2", rq[2][1] + rq[1][1]))
    residuals.append(("velocity vx3 + vx2", rv[2][0] + rv[1][0]))
    residuals.append(("velocity vy3 - vy2", rv[2][1] - rv[1][1]))

    for name, r in residuals:
        if not r.contains_zero():
            raise GluingMismatch(f"junction residual {name} = {r} excludes 0")

    times, states = _segment_midpoints(crossing)
    tracks = _body_tracks(problem, states)
    c_f = c_iv.mid()
    s_f = s_iv.mid()
    tracks = [np.array([_rot_point(c_f, s_f, p) for p in tr]) for tr in tracks]
    t_tilde = crossing.t_cross.mid()

    def tau(p):
        return np.array([p[0], -p[1]])

    def sig(p):
        return np.array([-p[0], p[1]])

    # Quarter curve on [0, 3 T~]: third body forward, second reflected and
    # time-reversed, first further reflected.
    base: list[tuple[float, np.ndarray]] = []
    for t, p in zip(times, tracks[2]):
        base.append((t, p))
    for t, p in zip(times, tracks[1]):
        base.append((2 * t_tilde - t, tau(p)))
    for t, p in zip(times, tracks[0]):
        base.append((2 * t_tilde + t, sig(p)))

    samples: list[tuple[float, np.ndarray]] = []
    for t, p in base:
        samples.append((t, p))
        samples.append((6 * t_tilde - t, tau(p)))
        samples.append((6 * t_tilde + t, sig(p)))
        samples.append((12 * t_tilde - t, sig(tau(p))))
    return _finish(times, tracks, samples, period, residuals,
                   note="rotated so the first body crosses on the x axis")


# --- chains --------------------------------------------------------------------

def _unfold_chain(problem: ChoreographyProblem, crossing: SectionCrossing,
                  period: Interval) -> UnfoldResult:
    n = problem.orbit_bodies
    half = n // 2
    residuals: list[tuple[str, Interval]] = []

    # At the crossing body j = half - 1 - i is the mirror image of body i:
    # s_i - _MIRROR s_j must contain zero.
    layout, lo, hi = problem.expand_state(*crossing.state)

    def body(i: int) -> list[Interval]:
        idx = (*layout.body_position(i), *layout.body_velocity(i))
        return [Interval(float(lo[c]), float(hi[c])) for c in idx]

    for i in range(half):
        j = half - i - 1
        si, sj = body(i), body(j)
        for c, name in enumerate(_COMPONENTS):
            sign = float(_MIRROR[c])
            kind = "position" if c < 2 else "velocity"
            op = "-" if sign > 0 else "+"
            residuals.append((f"{kind} {name}{i} {op} {name}{j}",
                              si[c] - sj[c] * sign))
    for name, r in residuals:
        if not r.contains_zero():
            raise GluingMismatch(f"junction residual {name} = {r} excludes 0")

    times, states = _segment_midpoints(crossing)
    tracks = _body_tracks(problem, states)
    t_half = crossing.t_cross.mid()
    t_bar = 2.0 * t_half

    samples: list[tuple[float, np.ndarray]] = []
    for i in range(n):
        for t, p in zip(times, tracks[i]):
            samples.append((i * t_bar + t, p))
    for i in range(1, half + 1):
        for t, p in zip(times, tracks[half - i]):
            samples.append((i * t_bar - t, p * _MIRROR[:2]))
    for i in range(half + 1, n + 1):
        for t, p in zip(times, tracks[3 * half - i]):
            samples.append((i * t_bar - t, p * _MIRROR[:2]))

    note = ""
    if problem.key == "chain6":
        # Data frame has interchanged axes and a quarter-period shift; undo
        # both for presentation.
        T = period.mid()
        samples = [((t + 0.25 * T) % T, np.array([p[1], p[0]]))
                   for t, p in samples]
        note = "axes interchanged back and time shifted by a quarter period"
    return _finish(times, tracks, samples, period, residuals, note=note)


def _finish(times, tracks, samples, period, residuals,
            note="") -> UnfoldResult:
    samples.sort(key=lambda tp: tp[0])
    n_total = len(tracks)
    seg = np.zeros((times.size, 1 + 2 * n_total))
    seg[:, 0] = times
    for i, tr in enumerate(tracks):
        seg[:, 1 + 2 * i:3 + 2 * i] = tr
    curve = np.zeros((len(samples), 3))
    mod = period.mid()
    for r, (t, p) in enumerate(samples):
        curve[r, 0] = t % mod
        curve[r, 1:] = p
    curve = curve[np.argsort(curve[:, 0], kind="stable")]
    return UnfoldResult(period=period, curve=curve, segment=seg,
                        residuals=residuals, note=note)


def unfold(problem: ChoreographyProblem,
           crossing: SectionCrossing) -> UnfoldResult:
    """Closed-curve samples plus verified junction residuals."""
    period = Interval.point(float(problem.period_multiplier)) * crossing.t_cross
    if problem.key == "eight":
        return _unfold_eight(problem, crossing, period)
    return _unfold_chain(problem, crossing, period)


def _fixed(v: float, digits: int) -> str:
    """v to `digits` decimals, with no sign where that reads as zero: a -0
    or a tiny negative, such as a reflected zero, prints as 0."""
    text = f"{v:.{digits}f}"
    return text[1:] if text[0] == "-" and not text.strip("-0.") else text


def write_curve_file(path: str, problem: ChoreographyProblem,
                     result: UnfoldResult) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# choreography curve samples: system={problem.key} "
                 f"bodies={problem.orbit_bodies}\n")
        fh.write(f"# period enclosure: [{result.period.lo!r}, "
                 f"{result.period.hi!r}]\n")
        if result.note:
            fh.write(f"# {result.note}\n")
        fh.write("# junction residual enclosures (all contain 0):\n")
        for name, r in result.residuals:
            fh.write(f"#   {name}: [{r.lo:.3e}, {r.hi:.3e}]\n")
        fh.write("# columns: t x y\n")
        for t, x, y in result.curve:
            fh.write(f"{_fixed(t, 12)} {_fixed(x, 15)} {_fixed(y, 15)}\n")


def write_segment_file(path: str, problem: ChoreographyProblem,
                       result: UnfoldResult) -> None:
    cols = " ".join(f"x{i} y{i}" for i in range(problem.orbit_bodies))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# certified segment samples: system={problem.key}\n")
        fh.write(f"# columns: t {cols}\n")
        for row in result.segment:
            fh.write(" ".join(_fixed(v, 15) for v in row) + "\n")

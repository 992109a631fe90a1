"""Nonrigorous floating-point evaluation of the defect map.

Used for candidate refinement (plain Newton until the defect is at rounding
level) and for the Krawczyk preconditioner (inverse of the monodromy matrix
at the candidate).  Nothing here is validated; the rigorous machinery never
depends on these values for soundness, only for the choice of candidate
points and preconditioners, which are stored verbatim in certificates.
"""

from __future__ import annotations

import numpy as np

from .errors import Diverged
from .problems import ChoreographyProblem


def _float_rhs(problem: ChoreographyProblem):
    field = problem.field
    layout = field.layout
    qsel, vsel = layout.qsel, layout.vsel
    T, C, S = field.n_terms, field._C, field._S
    Cx, Cy = C[:T], C[T:]

    def rhs(s: np.ndarray) -> np.ndarray:
        q = s[qsel]
        zx = Cx @ q
        zy = Cy @ q
        u = zx * zx + zy * zy
        s3 = u ** -1.5
        t = np.empty(2 * zx.size)
        t[0::2] = zx * s3
        t[1::2] = zy * s3
        out = np.empty_like(s)
        out[qsel] = s[vsel]
        out[vsel] = S @ t
        return out

    return rhs


def _float_jacobian(problem: ChoreographyProblem):
    field = problem.field
    layout = field.layout
    T, C = field.n_terms, field._C

    def jac(s: np.ndarray) -> np.ndarray:
        zx, zy = (C * s[layout.qsel]).sum(axis=1).reshape(2, T)
        u = zx * zx + zy * zy
        # scalar pow per term: numpy's vectorised pow can differ in the last
        # bit, which would move the preconditioners that certificates store
        s3 = np.array([v ** -1.5 for v in u])[:, None, None]
        s5 = np.array([v ** -2.5 for v in u])[:, None, None]
        z = np.stack([zx, zy], axis=1)
        dt = s3 * np.eye(2) - 3.0 * s5 * (z[:, :, None] * z[:, None, :])
        G = np.zeros((2 * layout.n_bodies,) * 2)
        for t, rows, cols, f in field.scatter:
            G[rows, cols] += f * dt[t]
        return layout.field_jacobian(G)

    return jac


def _section_value(problem: ChoreographyProblem, s: np.ndarray) -> float:
    return problem.section.g(s, s).mid()


def point_phi(problem: ChoreographyProblem, x, with_jacobian: bool = False,
              t_max: float = 20.0, rtol: float = 1e-12, atol: float = 1e-13):
    """Float defect map (and monodromy) via an adaptive high-order solver.

    scipy is imported here, not at module level, so the commands that never
    integrate in floats (verify, convexity, emit-curve) do not load it."""
    from scipy.integrate import solve_ivp

    x = np.asarray(x, float)
    rhs = _float_rhs(problem)
    n = problem.layout.dim
    d = problem.reduced_dim
    s0 = problem.embed_point(x)

    if with_jacobian:
        jac = _float_jacobian(problem)
        de = problem.embed_derivative()

        def aug(t, y):
            s = y[:n]
            V = y[n:].reshape(n, d)
            return np.concatenate([rhs(s), (jac(s) @ V).ravel()])

        y0 = np.concatenate([s0, de.ravel()])
        f = aug
    else:
        def f(t, y):
            return rhs(y)
        y0 = s0

    g0 = _section_value(problem, s0)
    sign = 1.0 if g0 > 0 else -1.0
    if problem.section.crossing_sign == "+-" and g0 <= 0:
        raise Diverged("start state on the wrong side of the section")

    def event(t, y):
        return _section_value(problem, y[:n])
    event.terminal = True
    event.direction = -sign

    def finite(t, y):
        # an overflowed field would have the solver shrink its step forever
        dy = f(t, y)
        if not np.all(np.isfinite(dy)):
            raise FloatingPointError(f"the float field is not finite at t = {t}")
        return dy

    try:
        with np.errstate(over="ignore", invalid="ignore"):
            sol = solve_ivp(finite, (0.0, t_max), y0, method="DOP853", rtol=rtol,
                            atol=atol, events=event, dense_output=False)
    except (FloatingPointError, ValueError) as exc:
        raise Diverged(f"integration failed: {exc}") from exc
    if not sol.success or sol.t_events[0].size == 0:
        raise Diverged("no section crossing found")
    y_end = sol.y_events[0][0]
    s_end = y_end[:n]
    t_end = float(sol.t_events[0][0])
    value = problem.reduce(s_end, s_end).mid()

    if not with_jacobian:
        return value, t_end

    V = y_end[n:].reshape(n, d)
    fs = rhs(s_end)
    dgl, dgh = problem.section.dg(s_end, s_end)
    dg = 0.5 * (dgl + dgh)
    gdot = float(dg @ fs)
    proj = V - np.outer(fs, dg @ V) / gdot
    drl, drh = problem.reduce_derivative(s_end, s_end)
    dphi = (0.5 * (drl + drh)) @ proj
    return value, t_end, dphi


def monodromy_preconditioner(problem: ChoreographyProblem, x) -> np.ndarray:
    """Inverse of the float monodromy matrix at the candidate point."""
    _, _, dphi = point_phi(problem, x, with_jacobian=True)
    return np.linalg.inv(dphi)


def refine_candidate(problem: ChoreographyProblem, guess, iters: int = 12,
                     tol: float = 1e-12) -> np.ndarray:
    """Plain Newton on the float defect map until |Phi| < tol."""
    x = np.asarray(guess, float).copy()
    for _ in range(iters):
        value, _, dphi = point_phi(problem, x, with_jacobian=True)
        if not np.all(np.isfinite(value)):
            raise Diverged("defect map returned non-finite values")
        if np.max(np.abs(value)) < tol:
            return x
        try:
            step = np.linalg.solve(dphi, value)
        except np.linalg.LinAlgError as exc:
            raise Diverged("singular float Jacobian") from exc
        if not np.all(np.isfinite(step)) or np.max(np.abs(step)) > 1.0:
            raise Diverged("Newton step diverged")
        x = x - step
    value, _ = point_phi(problem, x)
    if np.max(np.abs(value)) < tol:
        return x
    raise Diverged(f"no convergence after {iters} Newton iterations")

import math

import numpy as np
import pytest

from choreocert import kernels as kn
from choreocert.cli import DEFAULTS
from choreocert.dynamics import (
    AttractionTerm,
    GravityField,
    LinearField,
    PhaseLayout,
    angular_momentum,
    center_of_mass,
    linear_momentum,
    nbody_field,
    reduced6_field,
    total_energy,
)
from choreocert.errors import CollisionEnclosure
from choreocert.problems import make_problem

EIGHT_X0 = (0.347116768716, 0.532724944657)


def eight_state(v=EIGHT_X0[0], u=EIGHT_X0[1]):
    return np.array([1.0, 0, -1.0, 0, 0, 0, v, u, v, u, -2 * v, -2 * u])


def contains(lo, hi, x, slack=0.0):
    return np.all(lo - slack <= x) and np.all(x <= hi + slack)


class TestFieldValues:
    def test_two_bodies_unit_separation(self):
        f = nbody_field(2)
        s = np.array([0.5, 0, 0, 0, -0.5, 0, 0, 0])
        lo, hi = f.eval(s, s)
        assert contains(lo[2:4], hi[2:4], [-1.0, 0.0], slack=1e-12)
        assert contains(lo[6:8], hi[6:8], [1.0, 0.0], slack=1e-12)

    def test_eight_initial_shape(self):
        f = nbody_field(3, kind="split")
        s = eight_state(0.0, 0.0)
        lo, hi = f.eval(s, s)
        # accel(q1) = (-2,0)/8 + (-1,0)/1 = (-1.25, 0); accel(q3) = 0
        assert contains(lo[6:8], hi[6:8], [-1.25, 0.0], slack=1e-12)
        assert contains(lo[10:12], hi[10:12], [0.0, 0.0], slack=1e-12)

    def test_equilateral_triangle_magnitude(self):
        # two unit-distance pulls at 60 degrees: resultant 2 cos(30) = sqrt(3)
        f = nbody_field(3)
        pts = [(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2)]
        s = np.zeros(12)
        for i, (x, y) in enumerate(pts):
            s[4 * i], s[4 * i + 1] = x, y
        lo, hi = f.eval(s, s)
        for i in range(3):
            ax = 0.5 * (lo[4 * i + 2] + hi[4 * i + 2])
            ay = 0.5 * (lo[4 * i + 3] + hi[4 * i + 3])
            assert math.hypot(ax, ay) == pytest.approx(math.sqrt(3), abs=1e-12)

    def test_collision_guard(self):
        f = nbody_field(2)
        s = np.array([0.0, 0, 0, 0, 0.0, 0, 0, 0])
        with pytest.raises(CollisionEnclosure):
            f.eval(s, s)

    def test_rotation_equivariance_is_exact(self):
        # rotating by 90 degrees permutes coordinates with sign flips only
        f = nbody_field(3)
        rng = np.random.default_rng(3)
        s = rng.uniform(-1, 1, 12) + np.array([2, 0, 0, 0, -2, 0, 0, 0, 0, 2, 0, 0])
        rot = np.zeros(12)
        for i in range(3):
            x, y, vx, vy = s[4 * i:4 * i + 4]
            rot[4 * i:4 * i + 4] = (-y, x, -vy, vx)
        lo, hi = f.eval(s, s)
        rlo, rhi = f.eval(rot, rot)
        for i in range(3):
            assert rlo[4 * i + 2] == -hi[4 * i + 3]
            assert rhi[4 * i + 2] == -lo[4 * i + 3]
            assert rlo[4 * i + 3] == lo[4 * i + 2]


class TestTaylorSeries:
    def test_order_one_equals_field(self):
        f = nbody_field(3, kind="split")
        s = eight_state()
        ser = f.series(s, s, 3)
        lo, hi = ser.layers()
        flo, fhi = f.eval(s, s)
        assert np.array_equal(lo[1], flo) and np.array_equal(hi[1], fhi)

    def test_circular_two_body_closed_form(self):
        # bodies at (+-1/2, 0), angular velocity sqrt(2):
        # x0(t) = cos(om t)/2 with Taylor coefficients (+-) om^k / (2 k!)
        om = math.sqrt(2.0)
        f = nbody_field(2)
        s = np.array([0.5, 0, 0, om / 2, -0.5, 0, 0, -om / 2])
        lo, hi = f.series(s, s, 8).layers()
        for k in range(9):
            if k % 2 == 1:
                exact = 0.0
            else:
                exact = 0.5 * (om ** k) / math.factorial(k) * (-1) ** (k // 2)
            assert lo[k][0] - 1e-12 <= exact <= hi[k][0] + 1e-12

    def test_symmetric_origin_body_second_layer(self):
        # collinear symmetric shape: the middle body's acceleration encloses
        # (0, 0), so its second position coefficient does too
        f = nbody_field(3, kind="split")
        s = eight_state()
        lo, hi = f.series(s, s, 2).layers()
        assert lo[2][4] <= 0.0 <= hi[2][4]
        assert lo[2][5] <= 0.0 <= hi[2][5]
        assert hi[2][4] - lo[2][4] < 1e-12

    def test_reduced6_equals_full_field_on_antipodal_states(self):
        rng = np.random.default_rng(0)
        f6 = nbody_field(6)
        fr = reduced6_field()
        for _ in range(100):
            half = rng.normal(size=(3, 4)) * 0.6
            half[:, :2] += np.array([[2.0, 0], [0, 2.0], [-1.5, 1.5]])
            full = np.concatenate([half, -half]).reshape(-1)
            hl, hh = fr.eval(half.reshape(-1), half.reshape(-1))
            fl6, fh6 = f6.eval(full, full)
            assert np.all(np.maximum(fl6[:12], hl)
                          <= np.minimum(fh6[:12], hh))


def loop_gradient(f, ser):
    """G[k] by per-component series and per-term, per-block loops: the
    reference that the stacked pass and the term scatter reproduce bit for
    bit, since every block still sums its terms in term order."""
    R, T = ser.order, f.n_terms
    (zl, zh), (pl, ph), (sl, sh) = ser._z, ser._p, ser._s
    dT = {}
    for a, b in ((0, 0), (0, 1), (1, 1)):
        wl, wh = np.zeros((R + 1, T)), np.zeros((R + 1, T))
        wl[0], wh[0] = (kn.sqr(zl[0, a], zh[0, a]) if a == b else
                        kn.mul(zl[0, a], zh[0, a], zl[0, b], zh[0, b]))
        for m in range(1, R + 1):
            wl[m], wh[m] = kn.dot(zl[:m + 1, a], zh[:m + 1, a],
                                  zl[m::-1, b], zh[m::-1, b], axis=0)
        el, eh = np.zeros((R + 1, T)), np.zeros((R + 1, T))
        for m in range(R + 1):
            el[m], eh[m] = kn.dot(wl[:m + 1], wh[:m + 1],
                                  pl[m::-1], ph[m::-1], axis=0)
        el, eh = kn.scale(el, eh, -3.0)
        dT[a, b] = dT[b, a] = kn.add(sl, sh, el, eh) if a == b else (el, eh)
    n2 = 2 * f.layout.n_bodies
    Gl, Gh = np.zeros((R + 1, n2, n2)), np.zeros((R + 1, n2, n2))
    for t, term in enumerate(f.terms):
        for b, sgn in term.receivers:
            for c, coef in term.coeffs:
                for i in range(2):
                    for j in range(2):
                        cl, ch = kn.scale(dT[i, j][0][:, t], dT[i, j][1][:, t],
                                          sgn * coef)
                        r, q = 2 * b + i, 2 * c + j
                        Gl[:, r, q], Gh[:, r, q] = kn.add(
                            Gl[:, r, q], Gh[:, r, q], cl, ch)
    return Gl, Gh


class TestVariational:
    @pytest.mark.parametrize("system", ["eight", "gerver", "chain6"])
    def test_gradient_layers_equal_the_loop_reference(self, system):
        d = DEFAULTS[system]
        problem = make_problem(system, a_text=d["a"])
        f, R = problem.field, d["order"]
        s0 = problem.embed_point(np.array(d["candidate"]))
        rng = np.random.default_rng(17)
        for i in range(12):
            c = s0 + rng.normal(0.0, 1e-2, s0.size)
            w = rng.uniform(0.0, 1e-3, s0.size) * (i % 4 != 0)
            for order in (R, R + 1):
                ser = f.series(c - w, c + w, order, variational=True)
                gl, gh = loop_gradient(f, ser)
                assert np.array_equal(ser.grad_lo, gl)
                assert np.array_equal(ser.grad_hi, gh)

    def test_jacobian_matches_finite_differences(self):
        f = nbody_field(3, kind="split")
        s = eight_state()
        jl, jh = f.series(s, s, 1, variational=True).jacobian()

        def fmid(state):
            lo, hi = f.eval(state, state)
            return 0.5 * (lo + hi)

        eps = 1e-5
        for k in range(12):
            e = np.zeros(12)
            e[k] = eps
            fd = (fmid(s + e) - fmid(s - e)) / (2 * eps)
            mid = 0.5 * (jl[:, k] + jh[:, k])
            assert np.max(np.abs(fd - mid)) < 1e-6

    def test_jacobian_action_reaction_structure(self):
        f = nbody_field(3)
        rng = np.random.default_rng(5)
        s = rng.uniform(-1, 1, 12)
        s[[0, 4, 8]] += (3.0, -3.0, 0.0)
        s[[1, 5, 9]] += (0.0, 0.0, 3.0)
        ser = f.series(s, s, 1, variational=True)
        g = 0.5 * (ser.grad_lo[0] + ser.grad_hi[0])
        for i in range(3):
            for j in range(3):
                bij = g[2 * i:2 * i + 2, 2 * j:2 * j + 2]
                bji = g[2 * j:2 * j + 2, 2 * i:2 * i + 2]
                assert np.max(np.abs(bij - bji.T)) < 1e-13

    def test_variational_rhs_linearity_and_structure(self):
        f = nbody_field(2)
        s = np.array([0.6, 0.1, 0.2, 0.4, -0.6, -0.1, -0.2, -0.4])
        jl, jh = f.series(s, s, 1, variational=True).jacobian()
        V = np.eye(8)
        pl, ph = kn.matmul(jl, jh, V, V)
        # position rows of J V with V = identity pick the velocity columns
        layout = PhaseLayout(2)
        for r, row in enumerate(layout.qsel):
            expect = np.zeros(8)
            expect[layout.vsel[r]] = 1.0
            assert np.allclose(0.5 * (pl[row] + ph[row]), expect, atol=1e-14)
        # doubling a column doubles the derivative column
        V2 = V.copy()
        V2[:, 3] *= 2.0
        ql, qh = kn.matmul(jl, jh, V2, V2)
        assert np.allclose(ql[:, 3], 2 * pl[:, 3], atol=1e-12)

    # the Eight's split layout, chain(4) as the N-body field in blocks, and
    # the reduced six-body field with its -2 self-antipode coefficient
    @pytest.mark.parametrize("system", ["eight", "gerver", "chain6"])
    def test_transition_layers_match_central_differences(self, system):
        # M[k] is the derivative of state layer k with respect to the start
        # state; the plain series computes layer k without any gradient
        d = DEFAULTS[system]
        problem = make_problem(system, a_text=d["a"])
        f, R = problem.field, d["order"]
        if system == "chain6":
            assert any(np.any(fac == -2.0) for *_, fac in f.scatter)
        s = problem.embed_point(np.array(d["candidate"]))
        ml, mh = f.series(s, s, R, variational=True).transition_layers()

        def layers(state):
            lo, hi = f.series(state, state, R).layers()
            return 0.5 * (lo + hi)

        eps = 1e-5
        fd = np.empty_like(ml)
        for j in range(f.dim):
            e = np.zeros(f.dim)
            e[j] = eps
            fd[:, :, j] = (layers(s + e) - layers(s - e)) / (2 * eps)
        for k in range(R + 1):
            # float differences lose digits in proportion to the layer
            # (~1e10 at chain6's top layer); truncation is ~1e-8 of it
            scale = max(1.0, np.max(np.abs(ml[k])), np.max(np.abs(mh[k])))
            err = np.max(np.abs(fd[k] - 0.5 * (ml[k] + mh[k])))
            assert err <= 1e-6 * scale, (k, err, scale)

    def test_gradient_factor_must_be_exact(self):
        term = AttractionTerm(coeffs=((1, 0.5), (0, -0.5)),
                              receivers=((0, 1.0), (1, -1.0)))
        with pytest.raises(ValueError, match="not \\+-1 or \\+-2"):
            GravityField(PhaseLayout(2), (term,))

    def test_linear_field_transition_layers(self):
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        ser = LinearField(A).series(np.array([1.0, 0.0]),
                                    np.array([1.0, 0.0]), 6)
        ml, mh = ser.transition_layers()
        for k in range(7):
            exact = np.linalg.matrix_power(A, k) / math.factorial(k)
            assert np.all(ml[k] - 1e-14 <= exact)
            assert np.all(exact <= mh[k] + 1e-14)


class TestConservedQuantities:
    def test_eight_values(self):
        layout = PhaseLayout(3, "split")
        s = eight_state()
        e = total_energy(layout, s, s)
        am = angular_momentum(layout, s, s)
        px, py = linear_momentum(layout, s, s)
        cx, cy = center_of_mass(layout, s, s)
        # potential: -(1/2 + 1 + 1); kinetic: 3 (v^2 + u^2)
        v, u = EIGHT_X0
        expect = 3 * (v * v + u * u) - 2.5
        assert e.contains(expect)
        assert am.contains(0.0) and am.diam() < 1e-12
        assert px.contains(0.0) and py.contains(0.0)
        assert cx.contains(0.0) and cy.contains(0.0)

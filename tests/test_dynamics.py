import math
from fractions import Fraction

import numpy as np
import pytest

from choreocert import kernels as kn
from choreocert.boxes import IntervalVector
from choreocert.cli import DEFAULTS
from choreocert.dynamics import (
    AttractionTerm,
    GravityField,
    GravitySeries,
    PhaseLayout,
    antipodal_terms,
)
from choreocert.errors import CollisionEnclosure
from choreocert.integrator import StepPolicy, step
from choreocert.problems import make_problem
from helpers import (
    LinearField,
    nbody_field,
    angular_momentum,
    center_of_mass,
    linear_momentum,
    total_energy,
)

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
        fr = GravityField(PhaseLayout(3), antipodal_terms(3))
        for _ in range(100):
            half = rng.normal(size=(3, 4)) * 0.6
            half[:, :2] += np.array([[2.0, 0], [0, 2.0], [-1.5, 1.5]])
            full = np.concatenate([half, -half]).reshape(-1)
            hl, hh = fr.eval(half.reshape(-1), half.reshape(-1))
            fl6, fh6 = f6.eval(full, full)
            assert np.all(np.maximum(fl6[:12], hl)
                          <= np.minimum(fh6[:12], hh))


class TestAntipodalHalf:
    @pytest.mark.parametrize("half", [2, 3, 4, 5])
    def test_half_overlaps_the_full_field(self, half):
        """On thin states s_full = [s; -s], the half field's value, state
        layers and transition layers overlap the plain 2H-body field's,
        whose terms (`nbody_terms`) share nothing with `antipodal_terms`.
        The full flow maps [s; -s] to [phi(s); -phi(s)], so the half's
        transition matrix is the full one's first rows applied to [I; -I]:
        T_full[:n, :n] - T_full[:n, n:]."""
        rng = np.random.default_rng(half)
        B, R, n = 16, 16, 4 * half
        # bodies spread over a half circle, so no body nears an antipode
        angle = (np.pi * (np.arange(half) + 0.5) / half
                 + rng.uniform(-0.2, 0.2, (B, half)))
        radius = rng.uniform(1.0, 2.0, (B, half))
        s = np.zeros((B, half, 4))
        s[..., 0], s[..., 1] = radius * np.cos(angle), radius * np.sin(angle)
        s[..., 2:] = 0.5 * rng.normal(size=(B, half, 2))
        s = s.reshape(B, n)
        full = np.concatenate([s, -s], axis=1)
        fh = GravityField(PhaseLayout(half), antipodal_terms(half))
        ff = nbody_field(2 * half)

        def overlap(a, b):
            assert np.all(np.maximum(a[0], b[0]) <= np.minimum(a[1], b[1]))

        overlap(fh.eval(s, s), [a[:, :n] for a in ff.eval(full, full)])
        sh = fh.series(s, s, R, variational=True)
        sf = ff.series(full, full, R, variational=True)
        overlap(sh.layers(), [a[..., :n] for a in sf.layers()])
        tl, th = sf.transition_layers()
        overlap(sh.transition_layers(),
                kn.sub(tl[..., :n, :n], th[..., :n, :n],
                       tl[..., :n, n:], th[..., :n, n:]))


class TestEightFreeState:
    """The Eight integrates bodies 1 and 2 (`barycentric_terms(3)`) and
    restores body 3 as -(body 1 + body 2).  Oracle: the plain three-body
    field, whose terms share nothing with the free state's, in float at
    thin points of the replay box, unfolded to all three bodies."""

    def test_free_layers_contain_the_full_fields(self):
        d = DEFAULTS["eight"]
        prob, R = make_problem("eight"), d["order"]
        assert prob.field.dim == 8
        X = IntervalVector.box(d["candidate"], d["delta"])
        box = prob.embed(X)
        ser = prob.field.series(box.lo, box.hi, R, variational=True)
        # state layers (R+1, 12), and the transition layers' columns
        # (R+1, 8 columns, 12 rows), each unfolded to the three bodies
        _, sl, sh = prob.expand_state(*ser.layers())
        _, tl, th = prob.expand_state(*(m.swapaxes(1, 2)
                                        for m in ser.transition_layers()))
        # d(full state) / d(free state): the free unit vectors, unfolded
        unfold = prob.expand_state(np.eye(8), np.eye(8))[1].T
        full = nbody_field(3, "split")
        rng = np.random.default_rng(40)
        for x in rng.uniform(X.lo, X.hi, (8, 2)):
            s = prob.expand_state(*(prob.embed_point(x),) * 2)[1]
            fs = full.series(s, s, R, variational=True)
            layers = 0.5 * np.add(*fs.layers())
            trans = 0.5 * np.add(*fs.transition_layers()) @ unfold
            # bodies 1 and 2 in the free layers, body 3 in their expansion
            assert contains(sl, sh, layers)
            assert contains(tl, th, trans.swapaxes(1, 2))
            # body 3 is where the expansion puts it, to float accuracy
            assert np.allclose(layers[:, [4, 5, 10, 11]],
                               -(layers[:, [0, 1, 6, 7]]
                                 + layers[:, [2, 3, 8, 9]]),
                               rtol=1e-12, atol=1e-12)


def loop_gradient(f, ser, b=0):
    """G[k], k < order, of batch member b by per-component series and
    per-term, per-block loops: the reference that the stacked pass and the
    term scatter reproduce bit for bit, since every block still sums its
    terms in term order."""
    R, T = ser.order, f.n_terms
    zl, zh = (a[:, b] for a in ser._z)
    pl, ph = (a[:, b] for a in ser._p)
    sl, sh = (a[:, b] for a in ser._s)
    dT = {}
    for a, b in ((0, 0), (0, 1), (1, 1)):
        wl, wh = np.zeros((R, T)), np.zeros((R, T))
        wl[0], wh[0] = (kn.sqr(zl[0, a], zh[0, a]) if a == b else
                        kn.mul(zl[0, a], zh[0, a], zl[0, b], zh[0, b]))
        for m in range(1, R):
            wl[m], wh[m] = kn.dot(zl[:m + 1, a], zh[:m + 1, a],
                                  zl[m::-1, b], zh[m::-1, b], axis=0)
        el, eh = np.zeros((R, T)), np.zeros((R, T))
        for m in range(R):
            el[m], eh[m] = kn.dot(wl[:m + 1], wh[:m + 1],
                                  pl[m::-1], ph[m::-1], axis=0)
        el, eh = kn.scale(el, eh, -3.0)
        dT[a, b] = dT[b, a] = kn.add(sl, sh, el, eh) if a == b else (el, eh)
    n2 = 2 * f.layout.n_bodies
    Gl, Gh = np.zeros((R, n2, n2)), np.zeros((R, n2, n2))
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


def power_coefficients(mpmath, u, a):
    """The Taylor coefficients of (sum_k u_k t^k)^a up to the length of u,
    by the binomial series (u0 (1 + v))^a = u0^a sum_n C(a, n) v^n with
    v = sum_{k>=1} (u_k / u0) t^k, which shares no step with the series'
    power closure."""
    n = len(u)
    v = [mpmath.mpf(0)] + [uk / u[0] for uk in u[1:]]
    vn = [mpmath.mpf(1)] + [mpmath.mpf(0)] * (n - 1)
    out = [mpmath.mpf(0)] * n
    for k in range(n):   # v^k starts at t^k
        c = mpmath.binomial(a, k)
        out = [o + c * w for o, w in zip(out, vn)]
        vn = [mpmath.fsum(vn[i] * v[m - i] for i in range(m + 1))
              for m in range(n)]
    return [u[0] ** a * o for o in out]


def assert_powers_of_u_contained(mpmath, ser):
    """Each member's p and s layers contain the 40-digit coefficients of
    u^(-5/2) and u^(-3/2) at the midpoints of its u layers."""
    um = kn.mid(*ser._u)
    R, B, T = um.shape
    with mpmath.workdps(40):
        for b in range(B):
            for t in range(T):
                u = [mpmath.mpf(float(x)) for x in um[:, b, t]]
                for a, (ll, lh) in ((mpmath.mpf(-5) / 2, ser._p),
                                    (mpmath.mpf(-3) / 2, ser._s)):
                    exact = power_coefficients(mpmath, u, a)
                    for m in range(R):
                        assert (mpmath.mpf(ll[m, b, t]) <= exact[m]
                                <= mpmath.mpf(lh[m, b, t])), (b, t, a, m)


class TestPowerClosureOracle:
    # p = u^(-5/2) and s = u^(-3/2) from the series' own u layers, each by
    # its own power closure: each interval layer holds the exact
    # coefficient for every u inside the u layers, so for their midpoints,
    # as exact rationals
    @pytest.mark.parametrize("system", ["eight", "gerver", "chain6", "nbody5"])
    def test_p_and_s_contain_40_digit_powers_of_u(self, system):
        mpmath = pytest.importorskip("mpmath")
        f, R, s0 = replay_field(system)
        lo, hi = random_boxes(s0, np.random.default_rng(5), 2)
        ser = f.series(lo, hi, R)
        assert ser._u[0].shape == (R, 2, f.n_terms)
        assert_powers_of_u_contained(mpmath, ser)
        # the point box's layers are narrow (a relative 6e-7 at most, at
        # the top layers), so containment says something
        for ll, lh in (ser._p, ser._s):
            assert np.all(lh[:, 0] - ll[:, 0]
                          <= 1e-5 * np.maximum(1.0, np.abs(lh[:, 0])))

    @pytest.mark.parametrize("system", ["eight", "gerver", "chain6"])
    def test_the_steps_stacked_batch_contains_them(self, system, monkeypatch):
        # the batch a Lohner step runs, (center, box, rough box) at order
        # R + 1, from the default proof's box
        mpmath = pytest.importorskip("mpmath")
        built = []
        series = GravityField.series

        def kept(self, *args, **kwargs):
            built.append(series(self, *args, **kwargs))
            return built[-1]

        d = DEFAULTS[system]
        problem = make_problem(system, a_text=d["a"])
        start = problem.embed_slab(
            IntervalVector.box(np.array(d["candidate"]), d["delta"]))
        monkeypatch.setattr(GravityField, "series", kept)
        step(problem.field, start, d["h"], d["order"])
        (ser,) = [s for s in built if s.order == d["order"] + 1]
        assert ser._u[0].shape == (d["order"] + 1, 3, problem.field.n_terms)
        assert_powers_of_u_contained(mpmath, ser)
        # the center's layers are narrow against the largest entry of their
        # layer (a relative 2.7e-7 at most), so containment says something;
        # the symmetric start makes some coefficients zero, and those
        # straddle it at the scale of their layer
        for ll, lh in (ser._p, ser._s):
            scale = np.max(np.abs(lh[:, 0]), axis=-1, keepdims=True)
            assert np.all(lh[:, 0] - ll[:, 0] <= 1e-5 * np.maximum(1.0, scale))


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

    # the Eight's free state in the split layout, and the antipodal halves
    # of chain(4) and chain(6) in blocks, all with -2 coefficients: body i's
    # in its pair with the Eight's third body, or in its own antipode's
    @pytest.mark.parametrize("system", ["eight", "gerver", "chain6"])
    def test_transition_layers_match_central_differences(self, system):
        # M[k] is the derivative of state layer k with respect to the start
        # state; the plain series computes layer k without any gradient
        d = DEFAULTS[system]
        problem = make_problem(system, a_text=d["a"])
        f, R = problem.field, d["order"]
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
                                    np.array([1.0, 0.0]), 6, variational=True)
        ml, mh = ser.transition_layers()
        for k in range(7):
            exact = np.linalg.matrix_power(A, k) / math.factorial(k)
            assert np.all(ml[k] - 1e-14 <= exact)
            assert np.all(exact <= mh[k] + 1e-14)


def replay_field(system):
    """(field, order, a start state) of a replay system, or of the plain
    five-body field."""
    if system == "nbody5":
        angles = 2 * np.pi * np.arange(5) / 5
        pos = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        vel = 0.4 * np.stack([-pos[:, 1], pos[:, 0]], axis=1)
        return nbody_field(5), 6, np.concatenate([pos, vel], axis=1).ravel()
    d = DEFAULTS[system]
    problem = make_problem(system, a_text=d["a"])
    return (problem.field, d["order"],
            problem.embed_point(np.array(d["candidate"])))


def random_boxes(s0, rng, count):
    """Boxes around s0, thin (a point) and thick in turn."""
    lo, hi = [], []
    for i in range(count):
        c = s0 + rng.normal(0.0, 1e-2, s0.size)
        w = rng.uniform(0.0, 1e-4, s0.size) * (i % 2)
        lo.append(c - w)
        hi.append(c + w)
    return np.array(lo), np.array(hi)


def same(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a, b))


class TestBatch:
    # numpy sums a contiguous axis of >= 8 terms pairwise, so a batch axis in
    # the wrong place would move bits; gerver's 8 positions and chain6's 18
    # interleaved acceleration terms exercise that path
    @pytest.mark.parametrize("system", ["eight", "gerver", "chain6", "nbody5"])
    def test_batch_equals_single_boxes(self, system):
        f, R, s0 = replay_field(system)
        rng = np.random.default_rng(23)
        for _ in range(2):
            lo, hi = random_boxes(s0, rng, 3)
            for order in (R, R + 1):
                batch = f.series(lo, hi, order, variational=True)
                part = f.series(lo, hi, order, variational=slice(1, None))
                bl, bh = batch.layers()
                jl, jh = batch.jacobian()
                for top in (order - 1, order):
                    ml, mh = batch.transition_layers(top)
                    # a series graded on the last two members runs on those
                    assert same(part.transition_layers(top),
                                (ml[:, 1:], mh[:, 1:]))
                    for b in range(3):
                        one = f.series(lo[b], hi[b], order, variational=True)
                        assert same(one.transition_layers(top),
                                    (ml[:, b], mh[:, b]))
                for b in range(3):
                    one = f.series(lo[b], hi[b], order, variational=True)
                    assert same(one.layers(), (bl[:, b], bh[:, b]))
                    assert same((one.grad_lo, one.grad_hi),
                                (batch.grad_lo[:, b], batch.grad_hi[:, b]))
                    assert same(one.jacobian(), (jl[b], jh[b]))
                    # the plain series has the same state layers
                    assert same(f.series(lo[b], hi[b], order).layers(),
                                (bl[:, b], bh[:, b]))

    @pytest.mark.parametrize("system", ["eight", "gerver", "chain6", "nbody5"])
    def test_lower_layers_do_not_depend_on_the_order(self, system):
        # integrator.step reads order-R data from one order-(R+1) pass
        f, R, s0 = replay_field(system)
        lo, hi = random_boxes(s0, np.random.default_rng(4), 2)
        top = f.series(lo, hi, R + 1, variational=True)
        low = f.series(lo, hi, R, variational=True)
        assert same(low.layers(), (a[:R + 1] for a in top.layers()))
        assert same(low.transition_layers(R),
                    (a[:R + 1] for a in top.transition_layers(R + 1)))

    @pytest.mark.parametrize("system", ["eight", "gerver", "chain6", "nbody5"])
    def test_eval_is_layer_one_of_a_full_series(self, system):
        f, R, s0 = replay_field(system)
        lo, hi = random_boxes(s0, np.random.default_rng(9), 2)
        for b in range(2):
            full = f.series(lo[b], hi[b], R).layers()
            assert same(f.eval(lo[b], hi[b]), (full[0][1], full[1][1]))

    def test_linear_field_batch(self):
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        lo = np.array([[1.0, 0.0], [0.5, 0.25]])
        ser = LinearField(A).series(lo, lo + 1e-3, 4,
                                    variational=slice(1, None))
        ml, mh = ser.transition_layers()
        one = LinearField(A).series(lo[1], lo[1] + 1e-3, 4, variational=True)
        assert same(one.layers(), (a[:, 1] for a in ser.layers()))
        assert same(one.transition_layers(), (ml[:, 0], mh[:, 0]))
        assert ser.jacobian()[0].shape == (1, 2, 2)
        assert one.jacobian()[0].shape == (2, 2)


def recorded_step(monkeypatch, system, scale=1.0, order=None):
    """One set step of a replay from its embedded slab box(candidate,
    delta), at its default h and order (or `order`), h and delta divided by
    `scale`,
    with its series passes and transition calls recorded: (field, R, the
    variational stack (center, X, W) as (lo, hi), one (series, args,
    kwargs, result) per `transition_layers` call, and the step's record)."""
    d = DEFAULTS[system]
    problem = make_problem(system, a_text=d["a"])
    start = problem.embed_slab(IntervalVector.box(np.array(d["candidate"]),
                                                  d["delta"] / scale))
    stacks, calls = [], []
    series, transition = GravityField.series, GravitySeries.transition_layers

    def recording_series(self, sl, sh, order, variational=False):
        if variational:
            stacks.append((np.array(sl), np.array(sh)))
        return series(self, sl, sh, order, variational)

    def recording_transition(self, *args, **kwargs):
        out = transition(self, *args, **kwargs)
        calls.append((self, args, kwargs, out))
        return out

    monkeypatch.setattr(GravityField, "series", recording_series)
    monkeypatch.setattr(GravitySeries, "transition_layers", recording_transition)
    R = d["order"] if order is None else order
    _, rec = step(problem.field, start, d["h"] / scale, R)
    monkeypatch.undo()
    (stack,) = stacks
    return problem.field, R, stack, calls, rec


def layer_mid(f, y, k):
    """The float midpoint of state layer k of the series at the point y."""
    lo, hi = f.series(y, y, k).layers()
    return 0.5 * (lo[k] + hi[k])


def central_difference(f, y, u, k):
    """Float central difference of state layer k at y along u, with a step
    of 1e-5 in the max norm.  Layer k's gradient is transition layer k
    (TestVariational), so this approximates M_k(y) u.  The stated bound on
    its error is 1e-6 of the largest component: on the replays' rough boxes
    the differences at steps 1e-5 and 1e-6 agree to ~4e-9 of it."""
    eps = 1e-5 / np.max(np.abs(u))
    fd = (layer_mid(f, y + eps * u, k) - layer_mid(f, y - eps * u, k)) / (2 * eps)
    return fd, 1e-6 * np.max(np.abs(fd))


class TestSeededTransition:
    """`integrator.step` makes one transition pass per step, seeded per
    member: the box X with [I | 0] to layer R_t, the rough box W with
    [vw | W - m] to layer R_t + 1, and W's last column, the tangent, on
    alone to layer R + 1."""

    @pytest.mark.parametrize("system", ["eight", "gerver", "chain6", "nbody5"])
    def test_identity_seed_is_the_unseeded_call(self, system):
        f, R, s0 = replay_field(system)
        lo, hi = random_boxes(s0, np.random.default_rng(31), 3)
        eye = np.broadcast_to(np.eye(f.dim), (3, f.dim, f.dim))
        for graded, count in ((True, 3), (slice(1, None), 2)):
            ser = f.series(lo, hi, R + 1, variational=graded)
            seed = (eye[:count], eye[:count])
            assert same(ser.transition_layers(R + 1, seed),
                        ser.transition_layers(R + 1))
        one = f.series(lo[0], hi[0], R, variational=True)
        assert same(one.transition_layers(seed=(np.eye(f.dim),) * 2),
                    one.transition_layers())

    @pytest.mark.parametrize("system", ["eight", "gerver", "chain6"])
    def test_step_makes_one_pass_at_the_transition_order(self, system,
                                                         monkeypatch):
        f, R, _, calls, rec = recorded_step(monkeypatch, system)
        (ser, args, kwargs, (ml, mh)), = calls
        Rt, n = StepPolicy.transition_order(R), f.dim
        assert Rt == 10 < R
        assert args == ((Rt, Rt + 1),) and kwargs["tangent"] == R + 1
        assert ml.shape == (R + 2, 2, n, n + 1)
        # X, seeded [I | 0], is the identity call's first n columns bit for
        # bit, with a zero last column, and stops at layer R_t
        x = ml[:Rt + 1, 0], mh[:Rt + 1, 0]
        assert same((a[..., :n] for a in x),
                    (a[:, 0] for a in ser.transition_layers(Rt)))
        assert not np.any(x[0][..., n]) and not np.any(x[1][..., n])
        assert np.all(np.isnan(ml[Rt + 1:, 0]))
        # W runs every column to R_t + 1, then the tangent alone
        assert not np.any(np.isnan(ml[:Rt + 2, 1]))
        assert np.all(np.isnan(ml[Rt + 2:, 1, :, :n]))
        assert not np.any(np.isnan(ml[:, 1, :, n]))
        # the step reads A's Lagrange term from W's layer R_t + 1, and the
        # mean-value correction of the state's from the tangent's layer R + 1
        layers, rem, _ = rec.transition
        assert same(layers, (a[..., :n] for a in x))
        assert same(rem, (ml[Rt + 1, 1, :, :n], mh[Rt + 1, 1, :, :n]))
        sl, sh = ser.layers()
        assert same(rec.rem, kn.intersect(
            sl[R + 1, 2], sh[R + 1, 2], *kn.add(sl[R + 1, 0], sh[R + 1, 0],
                                                ml[R + 1, 1, :, n],
                                                mh[R + 1, 1, :, n])))

    def test_up_to_order_ten_the_transition_keeps_the_state_order(
            self, monkeypatch):
        # at convexity.POLICY's and the published orders R_t = R: W runs
        # every column to R + 1, and the tangent has no layer of its own
        f, R, _, calls, rec = recorded_step(monkeypatch, "eight", order=7)
        (_, args, kwargs, (ml, _)), = calls
        assert StepPolicy.transition_order(R) == R == 7
        assert args == ((7, 8),) and kwargs["tangent"] == 8
        assert ml.shape == (9, 2, f.dim, f.dim + 1)
        assert not np.any(np.isnan(ml[:, 1]))
        assert rec.transition[0][0].shape == (8, f.dim, f.dim)

    @pytest.mark.parametrize("scale", [1.0, 256.0])
    @pytest.mark.parametrize("system", ["eight", "gerver", "chain6"])
    def test_tangent_encloses_central_differences(self, system, scale,
                                                  monkeypatch):
        # layer R+1 of the tangent encloses M_{R+1}(y) u for every y in W
        # and u in W - m; at h / 256 W is thin enough that the enclosure is
        # within a few times the spread of the differences
        f, R, (lo, hi), calls, _ = recorded_step(monkeypatch, system, scale)
        m, wl, wh = lo[0], lo[2], hi[2]
        _, _, _, (ml, mh) = calls[0]
        tl, th = ml[R + 1, 1, :, f.dim], mh[R + 1, 1, :, f.dim]
        rng = np.random.default_rng(7)
        for y, u in [(m, wh - m), (m, wl - m)] + [
                (wl + rng.uniform(0, 1, f.dim) * (wh - wl),
                 (wl - m) + rng.integers(0, 2, f.dim) * (wh - wl))
                for _ in range(4)]:
            fd, err = central_difference(f, y, u, R + 1)
            assert np.all((tl - err <= fd) & (fd <= th + err))

    @pytest.mark.parametrize("system", ["eight", "gerver", "chain6"])
    def test_vw_seeded_layer_encloses_products(self, system, monkeypatch):
        # layer R_t+1 of W's first n columns encloses M_{R_t+1}(y) V for y
        # in W and V in vw, the transition's a-priori enclosure
        f, R, (lo, hi), calls, _ = recorded_step(monkeypatch, system)
        wl, wh = lo[2], hi[2]
        _, args, kwargs, (ml, mh) = calls[0]
        Rt, n = args[0][0], f.dim
        vl, vh = (v[1, :, :n] for v in kwargs["seed"])
        assert np.all(vl <= np.eye(n)) and np.all(np.eye(n) <= vh)
        tl, th = ml[Rt + 1, 1, :, :n], mh[Rt + 1, 1, :, :n]
        rng = np.random.default_rng(11)
        for V in (vl, vh, vl + rng.uniform(0, 1, vl.shape) * (vh - vl)):
            y = wl + rng.uniform(0, 1, n) * (wh - wl)
            for j in range(n):
                fd, err = central_difference(f, y, V[:, j], Rt + 1)
                assert np.all((tl[:, j] - err <= fd) & (fd <= th[:, j] + err))

    def test_orders_and_seed_shapes_are_checked(self):
        f, R, s0 = replay_field("eight")
        lo, hi = random_boxes(s0, np.random.default_rng(2), 2)
        ser = f.series(lo, hi, R, variational=True)
        with pytest.raises(ValueError, match="must not decrease"):
            ser.transition_layers((R, R - 1))
        with pytest.raises(ValueError, match="not enough gradient layers"):
            ser.transition_layers(R, tangent=R + 1)

    @pytest.mark.parametrize("system", ["eight", "gerver", "chain6"])
    def test_only_graded_members_carry_gradient_layers(self, system):
        # the step's series grades the box and the rough box only; those
        # carry the all-members layers bit for bit, and no array holds a
        # row for the center
        f, R, s0 = replay_field(system)
        lo, hi = random_boxes(s0, np.random.default_rng(8), 3)
        part = f.series(lo, hi, R + 1, variational=slice(1, None))
        full = f.series(lo, hi, R + 1, variational=True)
        assert part.grad_lo.shape == part.grad_hi.shape == (
            R + 1, 2, f.dim // 2, f.dim // 2)
        assert same((part.grad_lo, part.grad_hi),
                    (full.grad_lo[:, 1:], full.grad_hi[:, 1:]))
        assert same(part.jacobian(), (a[1:] for a in full.jacobian()))
        assert same(part.transition_layers(R),
                    (a[:, 1:] for a in full.transition_layers(R)))

    def test_a_series_without_gradient_layers_refuses_a_transition(self):
        f, R, s0 = replay_field("eight")
        lo, hi = random_boxes(s0, np.random.default_rng(8), 3)
        for graded in (False, slice(0)):
            plain = f.series(lo, hi, R, variational=graded)
            for call in (plain.jacobian, plain.transition_layers):
                with pytest.raises(ValueError,
                                   match="without variational data"):
                    call()

    def test_linear_field_follows_the_protocol(self):
        # M_k V = A^k V / k! per member, past a member's order NaN, and the
        # last member's last column on to the tangent's layer
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        lo = np.array([[1.0, 0.0], [0.5, 0.25], [0.0, 1.0]])
        ser = LinearField(A).series(lo, lo, 6, variational=slice(1, None))
        V = np.array([[[1.0, 2.0, 0.5], [0.0, 1.0, -1.0]]] * 2)
        ml, mh = ser.transition_layers((2, 3), (V, V), 5)
        assert ml.shape == (6, 2, 2, 3)
        for k in range(6):
            exact = np.linalg.matrix_power(A, k) @ V[0] / math.factorial(k)
            done = np.array([[k <= 2] * 3, [k <= 3, k <= 3, True]])[:, None]
            assert np.array_equal(np.isnan(ml[k]),
                                  np.broadcast_to(~done, ml[k].shape))
            ok = (ml[k] - 1e-14 <= exact) & (exact <= mh[k] + 1e-14)
            assert np.all(ok | ~done)


class TestDivInt:
    def test_subnormal_quotient_is_rounded_outward(self):
        lo, hi = kn.div_int(np.array([-5e-324]), np.array([5e-324]), 2)
        assert lo[0] <= -5e-324 and 5e-324 <= hi[0]

    def test_only_inexact_entries_move(self):
        lo, hi = kn.div_int(np.array([-5e-324, 1.0]), np.array([5e-324, 3.0]), 2)
        assert np.array_equal(lo, [-5e-324, 0.5])
        assert np.array_equal(hi, [5e-324, 1.5])

    def test_power_of_two_stays_exact(self):
        lo, hi = kn.div_int(np.array([1.0, 0.0, -0.0, 4e-323]),
                          np.array([3.0, 0.0, 0.0, 4e-323]), 4)
        assert np.array_equal(lo, [0.25, 0.0, 0.0, 1e-323])
        assert np.array_equal(hi, [0.75, 0.0, 0.0, 1e-323])

    def test_other_divisors_round_outward(self):
        lo, hi = kn.div_int(np.array([1.0]), np.array([1.0]), 3)
        # both ends bracket the exact 1/3, at most one ulp apart
        assert Fraction(lo[0]) < Fraction(1, 3) < Fraction(hi[0])
        assert hi[0] == np.nextafter(lo[0], np.inf)


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
        assert e.lo <= expect <= e.hi
        assert am.lo <= 0.0 <= am.hi and am.diam() < 1e-12
        assert px.lo <= 0.0 <= px.hi and py.lo <= 0.0 <= py.hi
        assert cx.lo <= 0.0 <= cx.hi and cy.lo <= 0.0 <= cy.hi

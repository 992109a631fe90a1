import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from choreocert import integrator
from choreocert import kernels as kn
from choreocert.boxes import IntervalVector
from choreocert.cli import DEFAULTS
from choreocert.dynamics import GravityField
from choreocert.errors import CollisionEnclosure, RoughEnclosureFailure
from choreocert.integrator import LohnerSet, step
from choreocert.interval import Interval
from choreocert.problems import make_problem
from helpers import LinearField, box_with_slab, flow, nbody_field

HARMONIC = LinearField(np.array([[0.0, 1.0], [-1.0, 0.0]]))

EIGHT_X0 = (0.347116768716, 0.532724944657)


def eight_state():
    v, u = EIGHT_X0
    return np.array([1.0, 0, -1.0, 0, 0, 0, v, u, v, u, -2 * v, -2 * u])


def thin(x, slab=False):
    x = np.asarray(x, float)
    return box_with_slab(x, x) if slab else LohnerSet.from_box(x, x)


class TestHarmonicOscillator:
    def test_quarter_period_containment(self):
        fin, steps = flow(HARMONIC, thin([1.0, 0.0], slab=True),
                          math.pi / 2, 0.01, 7)
        lo, hi = fin.box()
        assert lo[0] <= 0.0 <= hi[0]
        assert lo[1] <= -1.0 <= hi[1]
        assert np.max(hi - lo) < 1e-12
        tl, th = fin.slab.box()
        rot = np.array([[math.cos(math.pi / 2), math.sin(math.pi / 2)],
                        [-math.sin(math.pi / 2), math.cos(math.pi / 2)]])
        assert np.all(tl <= rot) and np.all(rot <= th)

    def test_zero_time_returns_input(self):
        start = thin([1.0, 0.0])
        fin, steps = flow(HARMONIC, start, 0.0, 0.01, 7)
        assert steps == []
        assert fin is start

    def test_final_partial_step_lands_on_t(self):
        fin, steps = flow(HARMONIC, thin([1.0, 0.0]), 0.025, 0.01, 7)
        assert len(steps) == 3
        assert steps[-1].h == pytest.approx(0.005)
        lo, hi = fin.box()
        assert lo[0] <= math.cos(0.025) <= hi[0]


class TestTwoBodyCircular:
    OMEGA = math.sqrt(2.0)

    def start(self):
        v = self.OMEGA / 2
        return np.array([0.5, 0, 0, v, -0.5, 0, 0, -v])

    @pytest.mark.slow
    def test_full_period_returns_to_start(self):
        f = nbody_field(2)
        period = 2 * math.pi / self.OMEGA
        fin, steps = flow(f, thin(self.start(), slab=True), period, 0.01, 7)
        lo, hi = fin.box()
        assert np.all(lo <= self.start()) and np.all(self.start() <= hi)
        assert np.max(hi - lo) < 1e-9
        # the flow derivative along the orbit direction has eigenvalue one:
        # V f(x0) must enclose f(x0)
        tl, th = fin.slab.box()
        flo, fhi = f.eval(self.start(), self.start())
        fl = 0.5 * (flo + fhi)
        vl, vh = kn.matvec_thin_right(tl, th, fl)
        assert np.all(vl - 1e-7 <= fl) and np.all(fl <= vh + 1e-7)

    def test_reversibility(self):
        f = nbody_field(2)
        s0 = self.start()
        fin, _ = flow(f, thin(s0), 0.3, 0.01, 7)
        lo, hi = fin.box()
        back = np.concatenate([0.5 * (lo + hi)[:2], -0.5 * (lo + hi)[2:4],
                               0.5 * (lo + hi)[4:6], -0.5 * (lo + hi)[6:8]])
        fin2, _ = flow(f, thin(back), 0.3, 0.01, 7)
        lo2, hi2 = fin2.box()
        flipped = np.concatenate([s0[:2], -s0[2:4], s0[4:6], -s0[6:8]])
        assert np.all(lo2 - 1e-9 <= flipped) and np.all(flipped <= hi2 + 1e-9)


class TestSoundnessAgainstReference:
    def _reference(self, f_np, s0, t_grid):
        sol = solve_ivp(f_np, (0.0, t_grid[-1]), s0, method="DOP853",
                        rtol=1e-13, atol=1e-14, dense_output=True)
        return sol.sol

    @pytest.mark.slow
    def test_reference_inside_whole_step_enclosures(self):
        f = nbody_field(2)

        def f_np(t, s):
            lo, hi = f.eval(s, s)
            return 0.5 * (lo + hi)

        rng = np.random.default_rng(11)
        for _ in range(20):
            s0 = rng.uniform(-0.5, 0.5, 8)
            s0[0] += 1.5
            s0[4] -= 1.5
            _, steps = flow(f, thin(s0), 0.2, 0.01, 6)
            ref = self._reference(f_np, s0, [0.2])
            for rec in steps:
                for t in np.linspace(rec.t_start.mid(), rec.t_k, 4):
                    x = ref(t)
                    assert np.all(rec.whole[0] <= x + 1e-9)
                    assert np.all(x - 1e-9 <= rec.whole[1])
                x_end = ref(rec.t_k)
                assert np.all(rec.tight[0] - 1e-10 <= x_end)
                assert np.all(x_end <= rec.tight[1] + 1e-10)

    def test_transition_columns_against_finite_differences(self):
        f = nbody_field(2)

        def f_np(t, s):
            lo, hi = f.eval(s, s)
            return 0.5 * (lo + hi)

        s0 = np.array([0.8, 0.1, -0.1, 0.6, -0.8, -0.1, 0.1, -0.6])
        T = 0.25
        fin, _ = flow(f, thin(s0, slab=True), T, 0.01, 6)
        tl, th = fin.slab.box()
        eps = 1e-6
        for k in range(8):
            e = np.zeros(8)
            e[k] = eps
            up = solve_ivp(f_np, (0, T), s0 + e, method="DOP853",
                           rtol=1e-12, atol=1e-13).y[:, -1]
            dn = solve_ivp(f_np, (0, T), s0 - e, method="DOP853",
                           rtol=1e-12, atol=1e-13).y[:, -1]
            fd = (up - dn) / (2 * eps)
            assert np.all(tl[:, k] - 1e-4 <= fd)
            assert np.all(fd <= th[:, k] + 1e-4)


class TestSetPropagation:
    def test_subdivision_refines(self):
        # a box fat in two directions, quartered along exactly those, so the
        # four pieces tile it; the hulled results must refine the unsplit run
        f = nbody_field(2)
        s0 = np.array([1.0, 0, 0, 0.7, -1.0, 0, 0, -0.7])
        rad = np.zeros(8)
        rad[0] = rad[3] = 4e-4
        full = LohnerSet.from_box(s0 - rad, s0 + rad)
        fin, _ = flow(f, full, 0.1, 0.01, 6)
        big_lo, big_hi = fin.box()

        hulled_lo = hulled_hi = None
        for sx in (-1, 1):
            for sy in (-1, 1):
                c = s0.copy()
                c[0] += sx * rad[0] / 2
                c[3] += sy * rad[3] / 2
                r = rad.copy()
                r[0] /= 2
                r[3] /= 2
                sub = LohnerSet.from_box(c - r, c + r)
                sfin, _ = flow(f, sub, 0.1, 0.01, 6)
                sl, sh = sfin.box()
                if hulled_lo is None:
                    hulled_lo, hulled_hi = sl, sh
                else:
                    hulled_lo, hulled_hi = kn.hull(hulled_lo, hulled_hi, sl, sh)
        assert np.all(big_lo <= hulled_lo) and np.all(hulled_hi <= big_hi)

    def test_rough_enclosure_failure_on_huge_step(self):
        with pytest.raises(RoughEnclosureFailure):
            step(HARMONIC, thin([1.0, 0.0]), 5.0, 5)

    def test_collision_on_a_picard_candidate_is_a_failed_try(self):
        # from (0, 1) the oscillator runs into the wall at x = 0.05 within
        # the step: the step's own box is clear, its Picard candidates are
        # not, and a shorter step is what the failure asks for
        walled = WalledHarmonic(wall=0.05)
        with pytest.raises(RoughEnclosureFailure):
            step(walled, thin([0.0, 1.0]), 0.1, 5)
        step(walled, thin([0.0, 1.0]), 0.01, 5)
        with pytest.raises(CollisionEnclosure):
            step(walled, thin([0.06, 1.0]), 0.01, 5)


class WalledHarmonic(LinearField):
    """The harmonic oscillator with a collision at x = wall: a box that
    reaches it has no field enclosure, as a box holding a collision of the
    gravity fields has none."""

    def __init__(self, wall: float):
        super().__init__(HARMONIC.A)
        self.wall = wall

    def eval(self, sl, sh):
        if np.any(sh[..., 0] >= self.wall):
            raise CollisionEnclosure("the box reaches the wall")
        return super().eval(sl, sh)


def exact_inverse(a: np.ndarray) -> list[list[Fraction]]:
    """The inverse of a float matrix in rationals, by Gauss-Jordan."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(m[r][col]))
        m[col], m[piv] = m[piv], m[col]
        p = m[col][col]
        m[col] = [x / p for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [row[n:] for row in m]


class TestInverseEnclosure:
    @pytest.mark.parametrize("n", [2, 4, 12, 16])
    def test_qr_frames_hold_their_exact_inverse(self, n):
        rng = np.random.default_rng(n)
        for _ in range(2):
            q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            lo, hi = integrator._inverse_enclosure(q)
            inv = exact_inverse(q)
            assert all(Fraction(lo[i, j]) <= inv[i][j] <= Fraction(hi[i, j])
                       for i in range(n) for j in range(n))
            assert np.max(hi - lo) < 1e-13

    @pytest.mark.parametrize("n", [1, 3, 12])
    def test_an_orthogonal_frame_has_an_exact_inverse(self, n):
        lo, hi = integrator._inverse_enclosure(np.eye(n))
        assert np.array_equal(lo, np.eye(n)) and np.array_equal(hi, np.eye(n))

    @pytest.mark.parametrize("n", [2, 4, 12, 16])
    def test_thin_product_is_the_interval_kernel_bit_for_bit(self, n):
        # Q^T Q of the frames: each product formed once per end, as the
        # interval kernel forms it twice over a thin left factor
        rng = np.random.default_rng(40 + n)
        for _ in range(3):
            q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            qt = np.ascontiguousarray(q.T)
            got = kn.matmul_thin(qt, q)
            want = kn.matmul_thin_right(qt, qt, q)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))

    def test_thin_product_holds_the_exact_product(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
        lo, hi = kn.matmul_thin(a, b)
        for i in range(3):
            for j in range(3):
                exact = sum(Fraction(a[i, k]) * Fraction(b[k, j])
                            for k in range(3))
                assert Fraction(lo[i, j]) <= exact <= Fraction(hi[i, j])
                assert lo[i, j] < hi[i, j]   # inexact here, so not thin


def step_arrays(*records):
    """Every array of a step's LohnerSet and EnclosureStep as (shape,
    bytes), and every other value, in field order."""
    out = []
    for rec in records:
        if isinstance(rec, np.ndarray):
            out.append((rec.shape, rec.tobytes()))
        elif isinstance(rec, Interval):
            out += [rec.lo, rec.hi]
        elif isinstance(rec, (tuple, list)):
            out += step_arrays(*rec)
        elif hasattr(rec, "__dataclass_fields__"):
            out += step_arrays(*(getattr(rec, f) for f in rec.__dataclass_fields__))
        else:
            out.append(rec)
    return out


class TestCenterWithoutGradientLayers:
    """`step` builds gradient layers for the box and the rough box only:
    the center's were never read, so leaving them out moves no bit."""

    @pytest.mark.parametrize("system", ["eight", "gerver", "chain6"])
    @pytest.mark.parametrize("carry_transition", [True, False],
                             ids=["C1", "C0"])
    def test_step_is_the_all_members_step_bit_for_bit(self, system,
                                                      carry_transition,
                                                      monkeypatch):
        d = DEFAULTS[system]
        problem = make_problem(system, a_text=d["a"])
        box = IntervalVector.box(np.array(d["candidate"]), d["delta"])
        start = problem.embed_slab(box, carry_transition).carrying(
            problem.embed_point(np.array(d["candidate"])))
        series, built = GravityField.series, []

        class AllGraded:
            """The stack's series graded on all three members, read as the
            step reads its graded members: the last two.  The center runs
            at the box's order and seed."""

            def __init__(self, field, sl, sh, order):
                self.ser = series(field, sl, sh, order, True)

            def layers(self):
                return self.ser.layers()

            def jacobian(self):
                return tuple(a[1:] for a in self.ser.jacobian())

            def transition_layers(self, order, seed, tangent):
                seed = tuple(np.concatenate([v[:1], v]) for v in seed)
                return tuple(a[:, 1:] for a in self.ser.transition_layers(
                    (order[0], *order), seed, tangent))

        def recorded(self, sl, sh, order, variational=False):
            built.append(series(self, sl, sh, order, variational))
            return built[-1]

        def every_member(self, sl, sh, order, variational=False):
            if variational:
                return AllGraded(self, sl, sh, order)
            return series(self, sl, sh, order, variational)

        monkeypatch.setattr(GravityField, "series", recorded)
        shipped = step(problem.field, start, d["h"], d["order"])
        (ser,) = [s for s in built if s.order > 1]   # not the field values
        assert ser.grad_lo.shape[1] == ser.grad_hi.shape[1] == 2
        assert not np.isnan(ser.grad_lo).any()
        assert not np.isnan(ser.grad_hi).any()
        monkeypatch.setattr(GravityField, "series", every_member)
        forced = step(problem.field, start, d["h"], d["order"])
        assert shipped[0].point is not None
        assert (shipped[0].slab is not None) == carry_transition
        assert step_arrays(*shipped) == step_arrays(*forced)


class TestEightRegression:
    def test_first_step_diameter(self):
        # regression target, measured once on the reference setup
        f = nbody_field(3, kind="split")
        _, rec = step(f, thin(eight_state()), 0.01, 7)
        assert np.max(kn.diam(*rec.tight)) <= 1e-10

    def test_halving_the_step_shrinks_the_enclosure(self):
        f = nbody_field(3, kind="split")
        _, rec_big = step(f, thin(eight_state()), 0.01, 7)
        _, rec_small = step(f, thin(eight_state()), 0.005, 7)
        assert (np.max(kn.diam(*rec_small.tight))
                < np.max(kn.diam(*rec_big.tight)))


class TestLagrangeRemainder:
    def test_coefficient_holds_the_series_over_the_whole_step(self):
        # Layer R+1 of the series at any state the step can pass through
        # lies in the step's Lagrange coefficient; the corners of the
        # whole-step enclosure lie in the rough box, the coefficient's domain
        f = nbody_field(3, kind="split")
        s0 = eight_state()
        R = 7
        _, rec = step(f, LohnerSet.from_box(s0 - 1e-6, s0 + 1e-6), 0.01, R)
        wl, wh = rec.whole
        rng = np.random.default_rng(3)
        for pick in rng.integers(0, 2, (16, s0.size)):
            y = np.where(pick == 1, wh, wl)
            cl, ch = f.series(y, y, R + 1).layers()
            assert np.all(cl[R + 1] <= rec.rem[1])
            assert np.all(rec.rem[0] <= ch[R + 1])

    def test_center_outside_the_rough_box_raises(self, monkeypatch):
        # the mean-value form needs the center in the rough box, which it is
        # by construction; a step that finds otherwise does not fall back
        rough = integrator._rough

        def shifted(x, rhs, h, start, what):
            lo, hi = rough(x, rhs, h, start, what)
            return (lo + 1.0, hi + 1.0) if what == "enclosure" else (lo, hi)

        monkeypatch.setattr(integrator, "_rough", shifted)
        s0 = eight_state()
        with pytest.raises(ValueError, match="center"):
            step(nbody_field(3), LohnerSet.from_box(s0 - 1e-6, s0 + 1e-6),
                 0.01, 7)

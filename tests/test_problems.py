import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from choreocert.boxes import IntervalVector
from choreocert.dynamics import PhaseLayout
from choreocert.errors import DimensionMismatch, EmptyIntersection
from choreocert import integrator, kernels as kn, problems
from choreocert.integrator import (Frame, LohnerSet, StepPolicy,
                                   flow_to_section, step)
from choreocert.interval import Interval
from choreocert.problems import (
    _MIRROR,
    LinearEmbedding,
    ProductForm,
    chain6_problem,
    chain_problem,
    eight_problem,
    gerver_problem,
    make_problem,
    phi_jacobian,
    phi_point,
)
from helpers import (center_of_mass, linear_momentum, nbody_field,
                     phi_point_alone)

EIGHT_X0 = np.array([0.347116768716, 0.532724944657])
GERVER_X = np.array([1.382857, 1.87193510824, 0.584872579881])
CHAIN6_X = np.array([-0.635277524319, 0.140342838651, 0.797833002006,
                     0.100637737317, -2.03152227864])


class TestEmbeddings:
    def test_eight_embedding_is_exact(self):
        prob = eight_problem()
        v, u = 0.3, -0.7
        s = prob.embed_point([v, u])
        # the state is bodies 1 and 2; body 3 is -(body 1 + body 2)
        assert np.array_equal(s, [1, 0, -1, 0, v, u, v, u])
        layout, el, eh = prob.expand_state(s, s)
        assert layout == PhaseLayout(3, "split")
        for full in (el, eh):
            assert np.array_equal(
                full, [1, 0, -1, 0, 0, 0, v, u, v, u, -2 * v, -2 * u])
            # -(1 + (-1)) is stored as +0
            assert not np.any(np.signbit(full[4:6]))
        sz = prob.embed_point([0.0, 0.0])
        assert np.array_equal(sz, np.zeros(8) + [1, 0, -1, 0, 0, 0, 0, 0])

    def test_gerver_embedding_layout(self):
        prob = gerver_problem()
        a = prob.size_parameter
        x1, vx0, vy1 = GERVER_X
        s = prob.embed_point(GERVER_X)
        expect = [0, a, vx0, 0, x1, 0, 0, vy1,
                  0, -a, -vx0, 0, -x1, 0, 0, -vy1]
        # the state is bodies 0 and 1; the antipode rule gives 2 and 3
        assert np.array_equal(s, expect[:8])
        layout, el, eh = prob.expand_state(s, s)
        assert layout.n_bodies == 4
        assert np.array_equal(el, expect) and np.array_equal(eh, expect)

    def test_chain6_embedding_layout(self):
        prob = chain6_problem()
        a = prob.size_parameter
        vx0, x1, y1, vx1, vy1 = CHAIN6_X
        s = prob.embed_point(CHAIN6_X)
        expect = [0, a, vx0, 0, x1, y1, vx1, vy1, x1, -y1, -vx1, vy1]
        assert np.array_equal(s, expect)

    def test_interval_embedding_matches_point_at_midpoint(self):
        prob = gerver_problem()
        X = IntervalVector.box(GERVER_X, 1e-7)
        emb = prob.embed(X)
        assert emb.contains_point(prob.embed_point(GERVER_X))

    def test_embedding_center_of_mass_and_momentum_vanish(self):
        # over all bodies, the chains' antipodes unfolded: exact zero for
        # the replay systems; within a few ulps for generic chains
        # (cancelling terms are not adjacent in the summation order)
        for prob, x in ((eight_problem(), EIGHT_X0),
                        (gerver_problem(), GERVER_X),
                        (chain6_problem(), CHAIN6_X),
                        (chain_problem(8, "0.2"), np.arange(1.0, 8.0) / 10)):
            s = prob.embed_point(x)
            layout, el, eh = prob.expand_state(s, s)
            assert layout.n_bodies == prob.orbit_bodies
            cx, cy = center_of_mass(layout, el, eh)
            px, py = linear_momentum(layout, el, eh)
            for q in (cx, cy, px, py):
                assert q.lo <= 0.0 <= q.hi
                assert q.diam() < 1e-14

    def test_embedding_rejects_inexact_rows(self):
        offset = np.array([0.0, 0.5, 0.0])
        ok = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, -2.0]])
        LinearEmbedding(offset, ok)
        two_entries = ok.copy()
        two_entries[0, 1] = 1.0
        offset_and_coordinate = ok.copy()
        offset_and_coordinate[1, 0] = 1.0
        scaled = ok.copy()
        scaled[0, 0] = 3.0
        for mat in (two_entries, offset_and_coordinate, scaled):
            with pytest.raises(ValueError):
                LinearEmbedding(offset, mat)
        with pytest.raises(ValueError):
            LinearEmbedding(np.array([0.0, 0.5, 0.25]),
                            np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            eight_problem().embed_point([1.0, 2.0, 3.0])

    def test_derivative_patterns(self):
        prob = eight_problem()
        de = prob.embed_map.matrix
        assert de.shape == (8, 2)
        expect = np.zeros((8, 2))
        expect[4, 0] = expect[6, 0] = 1
        expect[5, 1] = expect[7, 1] = 1
        assert np.array_equal(de, expect)
        # unfolded, body 3's velocity takes -2 of each column
        full = np.stack([prob.expand_state(c, c)[1] for c in de.T], axis=1)
        assert np.array_equal(full[10:], [[-2, 0], [0, -2]])

        prob = gerver_problem()
        dg = prob.embed_map.matrix
        assert dg.shape == (8, 3)
        assert np.count_nonzero(dg) == 3
        # each column unfolded over all four bodies, antipodes negated
        full = np.stack([prob.expand_state(c, c)[1] for c in dg.T], axis=1)
        assert full.shape == (16, 3)
        assert np.count_nonzero(full) == 6
        assert set(np.unique(full)) == {-1.0, 0.0, 1.0}

    def test_chain_counts(self):
        rng = np.random.default_rng(4)
        for n in range(4, 18, 2):
            prob = chain_problem(n, "0.25")
            h = n // 2
            # the state is the antipodal half, bodies 0..H-1
            assert prob.n_bodies == h
            assert prob.expansion == tuple((i,) for i in range(h))
            assert prob.orbit_bodies == n
            assert prob.reduced_dim == n - 1
            assert prob.embed_map.matrix.shape == (2 * n, n - 1)
            assert len(prob.defects.rows) == n - 1
            z = np.zeros(2 * n)
            assert prob.defects.derivative(z, z)[0].shape == (n - 1, 2 * n)
            # antipode rule: body i + H is exactly -(body i)
            s = prob.embed_point(rng.standard_normal(n - 1))
            layout, el, eh = prob.expand_state(s, s)
            assert layout.n_bodies == n
            s = el.reshape(n, 4)
            assert np.array_equal(s[h:], -s[:h]), n
            assert np.array_equal(eh, el), n
            # pairs (i, H - 1 - i) of exact mirror images leave no defect
            s = rng.standard_normal((h, 4))
            for i in range(h):
                j = h - 1 - i
                if i < j:
                    s[j] = _MIRROR * s[i]
                elif i == j:
                    s[i, 1:3] = 0.0
            val = prob.reduce(s.ravel(), s.ravel())
            assert len(val) == prob.reduced_dim
            assert np.all(val.lo == 0.0) and np.all(val.hi == 0.0), n

    def test_gerver_equals_chain4_up_to_coordinate_order(self):
        g = gerver_problem()
        c4 = chain_problem(4, "0.157029944461")
        # chain4 reduced order: (vx0, x1, vy1); gerver order: (x1, vx0, vy1)
        x_g = GERVER_X
        x_c = np.array([x_g[1], x_g[0], x_g[2]])
        assert np.array_equal(g.embed_point(x_g), c4.embed_point(x_c))

    def test_chain6_reduced_matches_full_six_body_chain(self):
        reduced = chain6_problem()
        chain = chain_problem(6, "1.887041548253914")
        assert chain.reduced_names == reduced.reduced_names
        # chain6 is chain(6) with its own crossing sign
        assert (reduced.section.crossing_sign,
                chain.section.crossing_sign) == ("+-", "either")
        s_half = reduced.embed_point(CHAIN6_X)
        assert np.array_equal(chain.embed_point(CHAIN6_X), s_half)
        # unfolded, the half is the six-body state of the antipode rule
        a = reduced.size_parameter
        vx0, x1, y1, vx1, vy1 = CHAIN6_X
        half = [0, a, vx0, 0, x1, y1, vx1, vy1, x1, -y1, -vx1, vy1]
        layout, el, eh = reduced.expand_state(s_half, s_half)
        assert layout.n_bodies == 6
        for s in (el, eh):
            assert np.array_equal(s, np.concatenate([half, np.negative(half)]))


class TestReductions:
    def test_eight_mirror_state_reduces_to_zero(self):
        prob = eight_problem()
        # isosceles: |q2 - q1| = |q3 - q1| and equal velocities of 2 and 3,
        # with q3 = (-0.5, -0.5) and v3 = (0.25, 0.5) restored from the state
        s = np.array([1.0, 0, -0.5, 0.5, -0.5, -1.0, 0.25, 0.5])
        val = prob.reduce(s, s)
        assert val.contains_zero()
        assert np.max(val.diam()) == 0.0
        layout, el, _ = prob.expand_state(s, s)
        assert np.array_equal(el[list(layout.body_columns[2])],
                              [-0.5, -0.5, 0.25, 0.5])

    def test_gerver_mirror_state_reduces_to_zero(self):
        prob = gerver_problem()
        s = np.zeros(8)                   # bodies 0 and 1, the state
        s[0:4] = (0.3, -0.2, 0.5, 0.7)    # body0
        s[4:8] = (0.3, 0.2, -0.5, 0.7)    # body1 = x-mirror partner
        val = prob.reduce(s, s)
        assert np.array_equal(val.lo, [0.0, 0.0, 0.0])
        assert np.array_equal(val.hi, [0.0, 0.0, 0.0])
        # the defects read the half only: the full 16-dim state is refused
        full = prob.expand_state(s, s)[1]
        with pytest.raises(DimensionMismatch):
            prob.reduce(full, full)

    def test_chain6_reduction_components(self):
        prob = chain6_problem()
        s = np.arange(12.0)
        val = prob.reduce(s, s)
        # (vx1, x0 - x2, y0 + y2, vx0 + vx2, vy0 - vy2)
        assert np.array_equal(val.lo, [6.0, 0 - 8, 1 + 9, 2 + 10, 3 - 11])

    def test_forms_reject_inexact_terms(self):
        x0 = ((0, 1),)
        for rows in ([[(3, (x0,))]], [[(1, (x0, x0, x0))]],
                     [[(1, (((0, 3),),))]], [[(1, (((0, -3),),))]],
                     [[(1, (((0, 0.5),),))]], [[(1, (((0, 1), (0, -1)),))]],
                     [[(1, ((),))]]):
            with pytest.raises(ValueError):
                ProductForm(rows)
        # doubling is exact: +-2 coefficients are forms, and scale exactly
        form = ProductForm([[(1, (((0, 2), (1, -2)),))]])
        s = np.array([0.75, 0.25])
        assert form.values(s, s)[0] == Interval(1.0)
        dl, dh = form.derivative(s, s)
        assert np.array_equal(dl, [[2.0, -2.0]]) and np.array_equal(dh, dl)
        with pytest.raises(ValueError):
            ProductForm((((1, (x0,)),), ((1, (x0,)),))).section("+-")


# The Eight's reduction, its Jacobian, its section with gradient and its
# crossing guard written by hand on the free state (x1, y1, x2, y2, v1, u1,
# v2, u2), with body 3 = -(body 1 + body 2): q3 - q1 = -x2 - 2 x1 and
# v2 - v3 = 2 v2 + v1; the forms must match them endpoint for endpoint.

def reference_eight(sl, sh):
    s = [Interval(float(sl[i]), float(sh[i])) for i in range(8)]
    two, four = Interval.point(2.0), Interval.point(4.0)
    dv, du = two * s[6] + s[4], two * s[7] + s[5]
    d21 = (s[2] - s[0], s[3] - s[1])
    d31 = (-s[2] - two * s[0], -s[3] - two * s[1])
    cross = dv * s[1] - du * s[0]
    dist = d21[0].sqr() + d21[1].sqr() - d31[0].sqr() - d31[1].sqr()
    rows = [[Interval(0.0)] * 8 for _ in range(2)]
    rows[0][0] = -du
    rows[0][1] = dv
    rows[0][4] = s[1]
    rows[0][5] = -s[0]
    rows[0][6] = two * s[1]
    rows[0][7] = -(two * s[0])
    rows[1][0] = -(two * d21[0]) + four * d31[0]
    rows[1][1] = -(two * d21[1]) + four * d31[1]
    rows[1][2] = two * d21[0] + two * d31[0]
    rows[1][3] = two * d21[1] + two * d31[1]
    g = s[0] * s[4] + s[1] * s[5]
    dgl, dgh = np.zeros(8), np.zeros(8)
    dgl[0:2], dgh[0:2] = sl[4:6], sh[4:6]
    dgl[4:6], dgh[4:6] = sl[0:2], sh[0:2]
    guard = s[0].sqr() + s[1].sqr()
    return [cross, dist], rows, g, (dgl, dgh), guard


def _ends(ivs):
    return [iv.lo for iv in ivs], [iv.hi for iv in ivs]


_ENDPOINT = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 2.0, -2.0]),
                      st.floats(-4.0, 4.0))
_COMPONENT = st.one_of(_ENDPOINT.map(lambda x: (x, x)),
                       st.tuples(_ENDPOINT, _ENDPOINT).map(sorted))


@st.composite
def eight_states(draw, thin=False):
    comps = draw(st.lists(_ENDPOINT.map(lambda x: (x, x)) if thin
                          else _COMPONENT, min_size=8, max_size=8))
    return np.array([c[0] for c in comps]), np.array([c[1] for c in comps])


def _guard(prob):
    (name, form), = prob.guards
    assert name == "first_body_distance_squared"
    return form


class TestEightForms:
    # np.array_equal counts -0 and +0 as equal
    @settings(max_examples=400, deadline=None)
    @given(st.one_of(eight_states(), eight_states(thin=True)))
    def test_matches_the_hand_written_reference(self, state):
        sl, sh = state
        prob = eight_problem()
        values, rows, g, dg, guard = reference_eight(sl, sh)
        val = prob.reduce(sl, sh)
        assert np.array_equal(val.lo, _ends(values)[0])
        assert np.array_equal(val.hi, _ends(values)[1])
        dl, dh = prob.defects.derivative(sl, sh)
        assert np.array_equal(dl, [_ends(r)[0] for r in rows])
        assert np.array_equal(dh, [_ends(r)[1] for r in rows])
        assert prob.section.g(sl, sh) == g
        for got, want in zip(prob.section.dg(sl, sh), dg):
            assert np.array_equal(got, want)
        assert _guard(prob).values(sl, sh)[0] == guard


# Independent oracle: the paper's formulas in exact rational arithmetic, on
# the Eight's three bodies, the third restored from zero centre of mass and
# momentum.  Every function here is a polynomial of degree <= 2, so the
# central difference with step 1 is its exact gradient.

def _eight_bodies(s):
    """((x, y), (v, u)) of the Eight's bodies 1, 2 and 3."""
    q1, q2, v1, v2 = s[0:2], s[2:4], s[4:6], s[6:8]
    q3 = [-a - b for a, b in zip(q1, q2)]
    v3 = [-a - b for a, b in zip(v1, v2)]
    return (q1, q2, q3), (v1, v2, v3)


def _cross(s):
    ((x1, y1), _, _), (_, (v2, u2), (v3, u3)) = _eight_bodies(s)
    return (v2 - v3) * y1 - (u2 - u3) * x1


def _dist(s):
    ((x1, y1), (x2, y2), (x3, y3)), _ = _eight_bodies(s)
    return (x2 - x1) ** 2 + (y2 - y1) ** 2 - (x3 - x1) ** 2 - (y3 - y1) ** 2


def _eight_section(s):
    return s[0] * s[4] + s[1] * s[5]


def _eight_guard(s):
    return s[0] ** 2 + s[1] ** 2


# chain(8): the mirror rule pairs body 0 with body 3 at the section, so
# y0 + y3 vanishes on the orbit; it is defect row 4
_CHAIN8_ROW = 4


def _chain8_y0_y3(s):
    return s[1] + s[4 * 3 + 1]


def _exact_gradient(f, s):
    grad = []
    for j in range(len(s)):
        up, down = list(s), list(s)
        up[j] += 1
        down[j] -= 1
        grad.append((f(up) - f(down)) / 2)
    return grad


def _inside(x, lo, hi):
    return Fraction(float(lo)) <= x <= Fraction(float(hi))


def _check_enclosures(prob, sl, sh, points):
    """Exact values and gradients at `points` (in the box [sl, sh]) lie in
    the enclosures over the box."""
    val = prob.reduce(sl, sh)
    dl, dh = prob.defects.derivative(sl, sh)
    if prob.key == "eight":
        g = prob.section.g(sl, sh)
        gl, gh = prob.section.dg(sl, sh)
        guard = _guard(prob).values(sl, sh)[0]
        checks = [(_cross, val.lo[0], val.hi[0], dl[0], dh[0]),
                  (_dist, val.lo[1], val.hi[1], dl[1], dh[1]),
                  (_eight_section, g.lo, g.hi, gl, gh),
                  (_eight_guard, guard.lo, guard.hi, None, None)]
    else:
        r = _CHAIN8_ROW
        checks = [(_chain8_y0_y3, val.lo[r], val.hi[r], dl[r], dh[r])]
    for p in points:
        s = [Fraction(float(v)) for v in p]
        for f, lo, hi, glo, ghi in checks:
            assert _inside(f(s), lo, hi)
            if glo is not None:
                for d, a, b in zip(_exact_gradient(f, s), glo, ghi):
                    assert _inside(d, a, b)


# the size parameter of each system the oracle checks (the Eight has none)
ORACLE_A = {"eight": None, "chain8": "0.3"}


class TestExactOracle:
    @pytest.mark.parametrize("key", ["eight", "chain8"])
    def test_thin_points(self, key):
        prob = make_problem(key, a_text=ORACLE_A[key])
        rng = np.random.default_rng(11)
        for _ in range(50):
            s = rng.uniform(-2.0, 2.0, prob.layout.dim)
            _check_enclosures(prob, s, s, [s])

    @pytest.mark.parametrize("key", ["eight", "chain8"])
    def test_points_inside_thick_boxes(self, key):
        prob = make_problem(key, a_text=ORACLE_A[key])
        rng = np.random.default_rng(12)
        for _ in range(20):
            sl = rng.uniform(-2.0, 2.0, prob.layout.dim)
            sh = sl + rng.uniform(0.0, 0.5, sl.size)
            points = [sl, sh] + [rng.uniform(sl, sh) for _ in range(5)]
            _check_enclosures(prob, sl, sh, points)


class TestPhi:
    def test_make_problem_dispatch(self):
        assert make_problem("eight").key == "eight"
        assert make_problem("chain", n_bodies=8, a_text="0.3").key == "chain8"
        # certificates record "chainN"; it rebuilds the same problem
        assert make_problem("chain8", a_text="0.3").reduced_dim == 7
        # "chain" with 6 bodies is the key "chain6", the same problem
        chain = make_problem("chain", n_bodies=6, a_text="1.887041548253914")
        assert chain.key == "chain6" and chain.section.crossing_sign == "+-"
        with pytest.raises(ValueError, match="needs --bodies and --a"):
            make_problem("chain", n_bodies=6)
        for n in (-2, 2, 5):
            with pytest.raises(ValueError, match="even number of bodies"):
                make_problem("chain", n_bodies=n, a_text="0.3")
        with pytest.raises(ValueError):
            make_problem("chain")
        with pytest.raises(ValueError):
            make_problem("chain8")
        with pytest.raises(ValueError):
            make_problem("nonsense")

    def test_building_every_system_leaves_numpy_ma_unloaded(self):
        # numpy.ma costs a one-shot `choreocert verify` ~15 ms to import;
        # np.isin and np.unique would import it
        code = ("import sys\n"
                "from choreocert.problems import make_problem\n"
                "for key, a in (('eight', None), ('gerver', None), "
                "('chain6', None), ('chain8', '0.3')):\n"
                "    make_problem(key, a_text=a)\n"
                "print('numpy.ma' in sys.modules)\n")
        src = str(Path(kn.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout == "False\n"

    @pytest.mark.parametrize("key, kwargs", [
        ("eight", {"a_text": "0.3"}),
        ("eight", {"n_bodies": 3}),
        ("gerver", {"n_bodies": 4}),
        ("chain6", {"n_bodies": 8}),
        ("chain8", {"n_bodies": 8, "a_text": "0.3"}),
    ], ids=["eight-a", "eight-bodies", "gerver-bodies", "chain6-bodies",
            "chain8-bodies"])
    def test_make_problem_refuses_what_the_system_does_not_read(self, key,
                                                               kwargs):
        # an ignored size parameter or body count would name another system
        with pytest.raises(ValueError, match="size parameter|body count"):
            make_problem(key, **kwargs)

    def test_eight_phi_value_is_small_at_candidate(self):
        ev = phi_point_alone(eight_problem(), EIGHT_X0, StepPolicy(0.01, 7))
        assert np.max(np.abs(ev.value.mid())) < 1e-5
        assert np.max(ev.value.diam()) < 1e-8

    def test_eight_phi_on_certified_box_contains_zero(self):
        prob = eight_problem()
        X = IntervalVector.box(EIGHT_X0, 1e-6)
        ev = phi_jacobian(prob, X, StepPolicy(0.01, 7))
        # the defect over the certified box must enclose zero in every
        # component (the box contains the true zero)
        val = prob.reduce(*ev.crossing.state)
        assert val.contains_zero()

    def test_reduced6_field_on_embedded_candidate_matches_full(self):
        prob = chain6_problem()
        s = prob.embed_point(CHAIN6_X)
        f6 = nbody_field(6)
        full = np.concatenate([s, -s])
        lo6, hi6 = f6.eval(full, full)
        lo, hi = prob.field.eval(s, s)
        assert np.all(np.maximum(lo6[:12], lo) <= np.minimum(hi6[:12], hi))


def float_taylor_step(field, s, h):
    """The point s moved by h along an order-20 float Taylor polynomial."""
    lo, hi = field.series(s[None], s[None], 20).layers()
    image = np.zeros_like(s)
    for c in 0.5 * (lo[::-1, 0] + hi[::-1, 0]):
        image = image * h + c
    return image


@pytest.fixture(scope="module")
def eight_set_flow():
    return phi_jacobian(eight_problem(), IntervalVector.box(EIGHT_X0, 1e-6),
                        StepPolicy(0.01, 7), point=EIGHT_X0)


class TestRideTheSetFlow:
    def test_ridden_point_matches_the_integrated_point(self, eight_set_flow):
        prob = eight_problem()
        alone = phi_point_alone(prob, EIGHT_X0, StepPolicy(0.01, 7))
        ridden = phi_point(prob, eight_set_flow.crossing, StepPolicy(0.01, 7))
        # the point flows afresh from the set's first zone step, at its size
        crossing = eight_set_flow.crossing
        first = crossing.zone[0]
        assert first.point is not None
        assert ridden.crossing.steps[0].h == first.h
        assert len(ridden.crossing.steps) < len(alone.crossing.steps)
        assert not ridden.value.disjoint(alone.value)
        assert not ridden.crossing.t_cross.disjoint(alone.crossing.t_cross)
        assert np.all(ridden.value.diam() <= 1.001 * alone.value.diam())

    def test_a_step_clips_the_point_to_the_set(self):
        prob = eight_problem()
        s = prob.embed_point(EIGHT_X0)
        cur = prob.embed_slab(IntervalVector.box(EIGHT_X0, 1e-6))
        # the ridden box holds a float Taylor image of the point
        nxt, _ = step(prob.field, cur.carrying(s), 0.01, 7)
        image = float_taylor_step(prob.field, s, 0.01)
        assert kn.contains_point(*nxt.point, image)
        assert np.max(nxt.point[1] - nxt.point[0]) < 1e-12
        # a box reaching 1e-4 past the set's box moves as its part inside
        wide = (s - 1e-4, s + 1e-4)
        clipped = kn.intersect(*wide, *cur.box())
        assert not kn.subset(*wide, *clipped)
        got, _ = step(prob.field, replace(cur, point=wide), 0.01, 7)
        want, _ = step(prob.field, replace(cur, point=clipped), 0.01, 7)
        assert all(np.array_equal(a, b) for a, b in zip(got.point, want.point))
        assert np.max(got.point[1] - got.point[0]) < 1e-5
        # and a point outside the set's box has no part inside
        with pytest.raises(EmptyIntersection):
            step(prob.field, cur.carrying(prob.embed_point(EIGHT_X0 + 1e-4)),
                 0.01, 7)

    def test_a_step_refuses_a_box_that_misses_its_center(self, monkeypatch):
        # every frame's r holds 0, so the box holds the center; lift one
        # lower end one ulp above it and the step raises
        prob = eight_problem()
        cur = prob.embed_slab(IntervalVector.box(EIGHT_X0, 1e-6))
        box, center = Frame.box, cur.state.m[:, 0]

        def lifted(self):
            lo, hi = box(self)
            if self is cur.state:
                lo = lo.copy()
                lo[4] = np.nextafter(center[4], np.inf)
            return lo, hi

        monkeypatch.setattr(Frame, "box", lifted)
        with pytest.raises(ValueError, match="misses its center"):
            step(prob.field, cur, 0.01, 7)

    def test_a_set_step_makes_no_frame_for_the_point(self, monkeypatch):
        # the state and the slab take a QR each; the point takes none
        calls = []
        sorted_qr = integrator._sorted_qr
        monkeypatch.setattr(integrator, "_sorted_qr",
                            lambda *a: calls.append(1) or sorted_qr(*a))
        prob = eight_problem()
        cur = prob.embed_slab(IntervalVector.box(EIGHT_X0, 1e-6)).carrying(
            prob.embed_point(EIGHT_X0))
        nxt, _ = step(prob.field, cur, 0.01, 7)
        assert nxt.point is not None and nxt.slab is not None
        assert len(calls) == 2

    def test_a_flow_keeps_what_its_readers_read(self, eight_set_flow):
        # the crossing's hull reads only the zone's transitions, the flow's
        # last steps, and the point run reads only a step's point box; a
        # frame is kept only as a zone step's slab at its start
        crossing = eight_set_flow.crossing
        zone = crossing.steps[len(crossing.steps) - len(crossing.zone):]
        assert all(a is b for a, b in zip(zone, crossing.zone, strict=True))
        for rec in crossing.steps:
            if any(rec is z for z in zone):
                _, _, slab = rec.transition
                assert isinstance(slab, Frame) and slab.r[0].shape == (8, 2)
            else:
                assert rec.transition is None
            assert not any(isinstance(v, Frame) for v in vars(rec).values())
            lo, hi = rec.point
            assert lo.shape == hi.shape == (8,) and np.all(lo <= hi)

    def test_each_step_records_the_point_at_its_start(self, eight_set_flow):
        # step 0 records the embedded point, each later step a box holding
        # the point's float Taylor flow to its start, and phi_point flows
        # from the first zone step's box, shifted by that step's start
        prob = eight_problem()
        s = prob.embed_point(EIGHT_X0)
        crossing = eight_set_flow.crossing
        steps = crossing.steps
        assert all(np.array_equal(end, s) for end in steps[0].point)
        for before, rec in zip(steps, steps[1:]):
            s = float_taylor_step(prob.field, s, before.h)
            assert kn.contains_point(*rec.point, s)
        first = crossing.zone[0]
        own = flow_to_section(prob.field, LohnerSet.from_box(*first.point),
                              prob.section, StepPolicy(first.h, 7))
        ridden = phi_point(prob, crossing, StepPolicy(0.01, 7)).crossing
        assert all(np.array_equal(a, b)
                   for a, b in zip(ridden.state, own.state))
        assert ridden.t_cross == first.t_start + own.t_cross

    def test_a_crossing_that_carried_no_point_is_refused(self, monkeypatch):
        # a flow without point= records no point box at its first zone
        # step: the map names that before any flow
        prob, policy = eight_problem(), StepPolicy(0.01, 7)
        crossing = phi_jacobian(prob, IntervalVector.box(EIGHT_X0, 1e-6),
                                policy).crossing
        assert crossing.zone[0].point is None

        def flow(*args):
            raise AssertionError("a flow started")

        monkeypatch.setattr(problems, "flow_to_section", flow)
        with pytest.raises(ValueError, match="carried no point"):
            phi_point(prob, crossing, policy)

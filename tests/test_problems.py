import numpy as np
import pytest

from choreocert.boxes import IntervalVector
from choreocert.dynamics import center_of_mass, linear_momentum
from choreocert.errors import DimensionMismatch
from choreocert.problems import (
    _MIRROR,
    LinearEmbedding,
    chain6_problem,
    chain_problem,
    eight_problem,
    gerver_problem,
    make_problem,
    phi_jacobian,
    phi_point,
)

EIGHT_X0 = np.array([0.347116768716, 0.532724944657])
GERVER_X = np.array([1.382857, 1.87193510824, 0.584872579881])
CHAIN6_X = np.array([-0.635277524319, 0.140342838651, 0.797833002006,
                     0.100637737317, -2.03152227864])


class TestEmbeddings:
    def test_eight_embedding_is_exact(self):
        prob = eight_problem()
        v, u = 0.3, -0.7
        s = prob.embed_point([v, u])
        assert np.array_equal(
            s, [1, 0, -1, 0, 0, 0, v, u, v, u, -2 * v, -2 * u])
        sz = prob.embed_point([0.0, 0.0])
        assert np.array_equal(sz, [1, 0, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0])

    def test_gerver_embedding_layout(self):
        prob = gerver_problem()
        a = prob.size_parameter
        x1, vx0, vy1 = GERVER_X
        s = prob.embed_point(GERVER_X)
        expect = [0, a, vx0, 0, x1, 0, 0, vy1,
                  0, -a, -vx0, 0, -x1, 0, 0, -vy1]
        assert np.array_equal(s, expect)

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
        # exact zero for the replay systems; within a few ulps for generic
        # chains (cancelling terms are not adjacent in the summation order)
        for prob, x in ((eight_problem(), EIGHT_X0),
                        (gerver_problem(), GERVER_X),
                        (chain_problem(8, "0.2"), np.arange(1.0, 8.0) / 10)):
            s = prob.embed_point(x)
            cx, cy = center_of_mass(prob.layout, s, s)
            px, py = linear_momentum(prob.layout, s, s)
            for q in (cx, cy, px, py):
                assert q.contains(0.0)
                assert q.diam() < 1e-14
        # antipodal chain6: expand first
        prob = chain6_problem()
        s = prob.embed_point(CHAIN6_X)
        layout, el, eh = prob.expand_state(s, s)
        cx, cy = center_of_mass(layout, el, eh)
        assert cx.contains(0.0) and cy.contains(0.0)

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
        de = prob.embed_derivative()
        assert de.shape == (12, 2)
        expect = np.zeros((12, 2))
        expect[6, 0] = expect[8, 0] = 1
        expect[7, 1] = expect[9, 1] = 1
        expect[10, 0] = -2
        expect[11, 1] = -2
        assert np.array_equal(de, expect)

        dg = gerver_problem().embed_derivative()
        assert np.count_nonzero(dg) == 6
        assert set(np.unique(dg)) == {-1.0, 0.0, 1.0}

    def test_chain_counts(self):
        rng = np.random.default_rng(4)
        for n in range(4, 18, 2):
            prob = chain_problem(n, "0.25")
            h = n // 2
            assert prob.reduced_dim == n - 1
            assert prob.embed_map.matrix.shape == (4 * n, n - 1)
            assert prob.reduce_map.matrix.shape == (n - 1, 4 * n)
            # antipode rule: body i + H is exactly -(body i)
            s = prob.embed_point(rng.standard_normal(n - 1)).reshape(n, 4)
            assert np.array_equal(s[h:], -s[:h]), n
            # pairs (i, H - 1 - i) of exact mirror images leave no defect
            s = rng.standard_normal((n, 4))
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
        full = chain_problem(6, "1.887041548253914")
        assert full.reduced_names == reduced.reduced_names
        s_half = reduced.embed_point(CHAIN6_X)
        s_full = full.embed_point(CHAIN6_X)
        assert np.array_equal(s_full, np.concatenate([s_half, -s_half]))


class TestReductions:
    def test_eight_mirror_state_reduces_to_zero(self):
        prob = eight_problem()
        # isosceles: |q2 - q1| = |q3 - q1| and equal velocities of 2 and 3
        s = np.array([1.0, 0, -0.5, 0.5, -0.5, -0.5,
                      0, 0, 0.3, 0.4, 0.3, 0.4])
        val = prob.reduce(s, s)
        assert val.contains_zero()
        assert np.max(val.diam()) == 0.0

    def test_gerver_mirror_state_reduces_to_zero(self):
        prob = gerver_problem()
        s = np.zeros(16)
        s[0:4] = (0.3, -0.2, 0.5, 0.7)    # body0
        s[4:8] = (0.3, 0.2, -0.5, 0.7)    # body1 = x-mirror partner
        val = prob.reduce(s, s)
        assert np.array_equal(val.lo[:3], [0.0, 0.0, 0.0])
        assert np.array_equal(val.hi[:3], [0.0, 0.0, 0.0])

    def test_chain6_reduction_components(self):
        prob = chain6_problem()
        s = np.arange(12.0)
        val = prob.reduce(s, s)
        # (vx1, x0 - x2, y0 + y2, vx0 + vx2, vy0 - vy2)
        assert np.array_equal(val.lo, [6.0, 0 - 8, 1 + 9, 2 + 10, 3 - 11])

    def test_eight_reduce_derivative_sparsity(self):
        prob = eight_problem()
        s = prob.embed_point(EIGHT_X0)
        dl, dh = prob.reduce_derivative(s, s)
        mid = 0.5 * (dl + dh)
        # velocity cross-product row touches x1, y1 and the four velocities
        assert set(np.nonzero(mid[0])[0]) <= {0, 1, 8, 9, 10, 11}
        # distance row touches positions only
        assert set(np.nonzero(mid[1])[0]) <= {0, 1, 2, 3, 4, 5}


class TestPhi:
    def test_make_problem_dispatch(self):
        assert make_problem("eight").key == "eight"
        assert make_problem("chain", n_bodies=8, a_text="0.3").key == "chain8"
        # certificates record "chainN"; it rebuilds the same problem
        assert make_problem("chain8", a_text="0.3").reduced_dim == 7
        with pytest.raises(ValueError):
            make_problem("chain")
        with pytest.raises(ValueError):
            make_problem("chain8")
        with pytest.raises(ValueError):
            make_problem("nonsense")

    def test_eight_phi_value_is_small_at_candidate(self):
        ev = phi_point(eight_problem(), EIGHT_X0, 0.01, 7)
        assert np.max(np.abs(ev.value.mid())) < 1e-5
        assert np.max(ev.value.diam()) < 1e-8

    def test_eight_phi_on_certified_box_contains_zero(self):
        prob = eight_problem()
        X = IntervalVector.box(EIGHT_X0, 1e-6)
        ev = phi_jacobian(prob, X, 0.01, 7)
        # the defect over the certified box must enclose zero in every
        # component (the box contains the true zero)
        val = prob.reduce(*ev.crossing.state)
        assert val.contains_zero()

    def test_reduced6_field_on_embedded_candidate_matches_full(self):
        prob = chain6_problem()
        s = prob.embed_point(CHAIN6_X)
        from choreocert.dynamics import nbody_field
        f6 = nbody_field(6)
        full = np.concatenate([s, -s])
        lo6, hi6 = f6.eval(full, full)
        lo, hi = prob.field.eval(s, s)
        assert np.all(np.maximum(lo6[:12], lo) <= np.minimum(hi6[:12], hi))

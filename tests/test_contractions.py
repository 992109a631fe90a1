"""The one-pass contractions against exact rational arithmetic: the Cauchy
product of two series, the enclosures of h^0..h^n, and the transition
polynomial at the step size as one contraction against them."""

from fractions import Fraction

import numpy as np
import pytest

from choreocert import kernels as kn
from choreocert.integrator import poly_at_step


def thick(rng, shape, scale=1.0):
    """A random interval array: centers spread over magnitudes, radii up to
    1e-3 of them, a few thin entries and exact zeros."""
    c = rng.normal(0.0, scale, shape) * 10.0 ** rng.integers(-6, 3, shape)
    r = np.abs(c) * rng.uniform(0.0, 1e-3, shape) * (rng.random(shape) < 0.8)
    c[rng.random(shape) < 0.05] = 0.0
    return np.nextafter(c - r, -np.inf), np.nextafter(c + r, np.inf)


def pick(rng, lo, hi):
    """One endpoint of each entry, as exact rationals."""
    at_lo = rng.random(lo.shape) < 0.5
    return np.vectorize(Fraction, otypes=[object])(np.where(at_lo, lo, hi))


class TestCauchy:
    @pytest.mark.parametrize("n", [1, 2, 5, 9, 17])
    def test_encloses_the_exact_sums(self, n):
        rng = np.random.default_rng(n)
        (al, ah), (bl, bh) = thick(rng, (n, 4)), thick(rng, (n, 4))
        cl, ch = kn.cauchy(al, ah, bl, bh)
        assert cl.shape == (n, 4)
        for _ in range(6):
            a, b = pick(rng, al, ah), pick(rng, bl, bh)
            for m in range(n):
                for j in range(4):
                    exact = sum(a[k, j] * b[m - k, j] for k in range(m + 1))
                    assert Fraction(cl[m, j]) <= exact <= Fraction(ch[m, j])

    @pytest.mark.parametrize("shapes", [((12, 3), (12, 3)),
                                        ((16, 3, 3, 9), (16, 3, 1, 9))],
                                  ids=["plain", "broadcast"])
    def test_each_layer_is_dot_over_its_own_terms(self, shapes):
        # the padding adds exact zeros, so layer m is the per-layer
        # contraction bit for bit (array_equal takes -0 for +0)
        rng = np.random.default_rng(3)
        (al, ah), (bl, bh) = thick(rng, shapes[0]), thick(rng, shapes[1])
        cl, ch = kn.cauchy(al, ah, bl, bh)
        for m in range(shapes[0][0]):
            dl, dh = kn.dot(al[:m + 1], ah[:m + 1], bl[m::-1], bh[m::-1],
                            axis=0)
            assert np.array_equal(cl[m], dl) and np.array_equal(ch[m], dh)


class TestPowers:
    SIZES = np.concatenate([
        np.random.default_rng(7).uniform(1e-5, 0.1, 40),
        10.0 ** np.random.default_rng(8).uniform(-5.0, -1.0, 40),
        # step-controlled sizes: a first step times factors in [1/2, 2]
        0.0075 * np.cumprod(np.random.default_rng(9).uniform(0.5, 2.0, 20)),
        [1e-5, 0.1, 0.025, 0.004, 1.0 / 3.0]])

    @pytest.mark.parametrize("h", SIZES)
    def test_encloses_every_power(self, h):
        lo, hi = kn.powers(h, 22)
        assert lo.shape == hi.shape == (23,)
        for i in range(23):
            assert Fraction(lo[i]) <= Fraction(h) ** i <= Fraction(hi[i])
        # h^0 and h^1 are exact, and the widening stays a few ulps
        assert lo[0] == hi[0] == 1.0 and lo[1] == hi[1] == h
        assert np.all(hi - lo <= 100 * 2.0 ** -52 * hi)

    @pytest.mark.parametrize("h", [1e-20, 3e-100, 7e-300])
    def test_encloses_powers_below_the_normal_range(self, h):
        lo, hi = kn.powers(h, 22)
        for i in range(23):
            assert Fraction(lo[i]) <= Fraction(h) ** i <= Fraction(hi[i])


class TestPolyAtStep:
    @pytest.mark.parametrize("R", [1, 7, 14, 18])
    def test_encloses_the_exact_polynomial(self, R):
        # sum_i M_i h^i + h^(R+1) rem, at each endpoint pick of M and rem
        rng = np.random.default_rng(R)
        n = 4
        layers = thick(rng, (R + 1, n, n))
        rem = thick(rng, (n, n), scale=1e3)
        for h in (1e-5, 0.004, 0.025, 0.1):
            lo, hi = poly_at_step(layers, rem, h)
            for _ in range(3):
                m, r = pick(rng, *layers), pick(rng, *rem)
                hf = Fraction(h)
                exact = sum(m[i] * hf ** i for i in range(R + 1)) \
                    + r * hf ** (R + 1)
                for i in range(n):
                    for j in range(n):
                        assert Fraction(lo[i, j]) <= exact[i, j] \
                            <= Fraction(hi[i, j])

import numpy as np
import pytest

from walshlab.gridfn import GridFunction1D, GridFunction2D
from walshlab.maximal import (
    directional_maximal,
    dyadic_maximal_2d,
    level_set,
)

from .oracles import dyadic_maximal_1d


def brute_1d(values, p):
    K = int(np.log2(len(values)))
    out = np.zeros_like(values)
    for i in range(len(values)):
        best = 0.0
        for s in range(K + 1):  # interval lengths 2^s cells
            w = 1 << s
            lo = (i // w) * w
            best = max(best, np.mean(np.abs(values[lo : lo + w]) ** p) ** (1 / p))
        out[i] = best
    return out


class TestMaximal1D:
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_against_brute_force(self, p):
        rng = np.random.default_rng(1)
        f = GridFunction1D(4, rng.normal(size=16))
        got = dyadic_maximal_1d(f, p)
        assert np.allclose(got.values, brute_1d(f.values, p), atol=1e-12)

    def test_dominates_function(self):
        rng = np.random.default_rng(2)
        f = GridFunction1D(5, rng.normal(size=32))
        assert np.all(dyadic_maximal_1d(f).values >= np.abs(f.values) - 1e-12)

    def test_exponent_monotone(self):
        rng = np.random.default_rng(3)
        f = GridFunction1D(5, rng.normal(size=32))
        m1 = dyadic_maximal_1d(f, 1.0)
        m2 = dyadic_maximal_1d(f, 2.0)
        assert np.all(m2.values >= m1.values - 1e-12)

    def test_bad_exponent(self):
        with pytest.raises(ValueError, match="maximal exponent"):
            dyadic_maximal_1d(GridFunction1D.zeros(2), 0.9)

    def test_weak_1_1_constant_one(self):
        rng = np.random.default_rng(4)
        for seed in range(5):
            f = GridFunction1D(6, np.abs(rng.normal(size=64)))
            m = dyadic_maximal_1d(f)
            for lam in [0.25, 0.5, 1.0, 2.0]:
                measure = level_set(m, lam).integral()
                assert measure <= f.norm(1) / lam + 1e-12


class TestMaximal2D:
    def test_against_brute_force_squares(self):
        rng = np.random.default_rng(5)
        K = 3
        f = GridFunction2D(K, rng.normal(size=(8, 8)))
        got = dyadic_maximal_2d(f, 1.0)
        v = np.abs(f.values)
        for i in range(8):
            for j in range(8):
                best = 0.0
                for s in range(K + 1):
                    w = 1 << s
                    a, b = (i // w) * w, (j // w) * w
                    best = max(best, v[a : a + w, b : b + w].mean())
                assert got.values[i, j] == pytest.approx(best)

    def test_constant_fixed_point(self):
        f = GridFunction2D(4, np.full((16, 16), 3.0))
        assert np.allclose(dyadic_maximal_2d(f).values, 3.0)


class TestDirectional:
    def test_axis_1_rows(self):
        rng = np.random.default_rng(6)
        f = GridFunction2D(4, rng.normal(size=(16, 16)))
        got = directional_maximal(f, p=1.5)
        for r in range(16):
            assert np.allclose(got.values[r], brute_1d(f.values[r], 1.5), atol=1e-12)


class TestLevelSet:
    def test_strict_inequality(self):
        f = GridFunction1D(2, [0.0, 1.0, 2.0, 3.0])
        s = level_set(f, 1.0)
        assert s.values.tolist() == [0.0, 0.0, 1.0, 1.0]
        assert s.integral() == pytest.approx(0.5)

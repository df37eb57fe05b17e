import numpy as np
import pytest

from walshlab.gridfn import GridFunction1D, GridFunction2D
from walshlab.walsh import DyadicInterval


class TestGridFunction1D:
    def test_integral_weighs_cells(self):
        f = GridFunction1D(2, [1.0, 2.0, 3.0, 4.0])
        assert f.integral() == pytest.approx(2.5)

    def test_norms(self):
        f = GridFunction1D(1, [3.0, -4.0])
        assert f.norm(2) == pytest.approx(np.sqrt(12.5))
        assert f.norm(1) == pytest.approx(3.5)
        assert f.norm(np.inf) == 4.0
        with pytest.raises(ValueError):
            f.norm(0.5)

    def test_inner_and_mismatch(self):
        f = GridFunction1D(1, [1.0, 2.0])
        g = GridFunction1D(1, [3.0, 5.0])
        assert f.inner(g) == pytest.approx(6.5)
        with pytest.raises(ValueError, match="resolution mismatch"):
            f.inner(GridFunction1D(2, np.ones(4)))

    def test_indicator_and_restrict(self):
        ind = GridFunction1D.indicator(DyadicInterval(-1, 1), 3)
        assert ind.values.tolist() == [0, 0, 0, 0, 1, 1, 1, 1]
        f = GridFunction1D(3, np.arange(8.0))
        r = f.restrict(DyadicInterval(-2, 1))
        assert r.values.tolist() == [0, 0, 2, 3, 0, 0, 0, 0]

    def test_interval_below_resolution(self):
        with pytest.raises(ValueError, match="interval below resolution"):
            GridFunction1D.indicator(DyadicInterval(-4, 0), 3)

    def test_arithmetic(self):
        f = GridFunction1D(1, [1.0, 2.0])
        g = GridFunction1D(1, [10.0, 20.0])
        assert (f + g).values.tolist() == [11, 22]
        assert (g - f).values.tolist() == [9, 18]
        assert (2 * f).values.tolist() == [2, 4]
        assert (f * g).values.tolist() == [10, 40]
        assert (-f).values.tolist() == [-1, -2]

    def test_bad_shape(self):
        with pytest.raises(ValueError, match="length must be 2\\^resolution"):
            GridFunction1D(2, [1.0, 2.0])


class TestGridFunction2D:
    def test_integral_and_norm(self):
        f = GridFunction2D(1, [[2.0, 0.0], [0.0, 0.0]])
        assert f.integral() == pytest.approx(0.5)
        assert f.norm(2) == pytest.approx(1.0)
        assert f.norm(np.inf) == 2.0

    def test_indicator_box(self):
        f = GridFunction2D.indicator_box(DyadicInterval(-1, 0), DyadicInterval(-1, 1), 1)
        assert f.values.tolist() == [[0.0, 1.0], [0.0, 0.0]]

    def test_restrict_and_transpose(self):
        rng = np.random.default_rng(0)
        f = GridFunction2D(2, rng.normal(size=(4, 4)))
        r = f.restrict(DyadicInterval(-1, 0), DyadicInterval(-1, 1))
        assert np.all(r.values[:2, :2] == 0)
        assert np.all(r.values[:2, 2:] == f.values[:2, 2:])
        assert np.all(f.transpose().values == f.values.T)

    def test_inner_mismatch(self):
        with pytest.raises(ValueError, match="resolution mismatch"):
            GridFunction2D.zeros(1).inner(GridFunction2D.zeros(2))

    def test_bad_shape(self):
        with pytest.raises(ValueError, match=r"\(2\^resolution, 2\^resolution\)"):
            GridFunction2D(1, [1.0, 2.0])


class TestSharedBody:
    def test_restrict_takes_one_interval_per_variable(self):
        half = DyadicInterval(-1, 0)
        with pytest.raises(TypeError):
            GridFunction1D.zeros(2).restrict(half, half)
        with pytest.raises(TypeError):
            GridFunction2D.zeros(2).restrict(half)

    def test_results_keep_their_class(self):
        rng = np.random.default_rng(1)
        f = GridFunction2D(2, rng.normal(size=(4, 4)))
        g = GridFunction1D(2, rng.normal(size=4))
        unit = DyadicInterval(0, 0)
        for h in (f + f, f - f, f * f, 2 * f, -f, f.restrict(unit, unit)):
            assert type(h) is GridFunction2D
        for h in (g + g, g - g, g * g, 2 * g, -g, g.restrict(unit)):
            assert type(h) is GridFunction1D
        assert not isinstance(f, GridFunction1D) and not isinstance(g, GridFunction2D)
        assert repr(f) == "GridFunction2D(K=2)" and repr(g) == "GridFunction1D(K=2)"

    def test_cell_measure_per_dimension(self):
        f, g = GridFunction2D(1, np.ones((2, 2))), GridFunction1D(1, np.ones(2))
        assert f.integral() == g.integral() == 1.0
        assert f.inner(f) == g.inner(g) == f.norm(1) == g.norm(1) == 1.0

    @pytest.mark.parametrize(
        "combine",
        [
            lambda f, g: f + g,  # broadcast to a 2D function once
            lambda f, g: g + f,  # failed once only after building the sum
            lambda f, g: f.inner(g),  # failed once inside np.vdot
            lambda f, g: g - f,
            lambda f, g: g * f,
        ],
        ids=["2d-plus-1d", "1d-plus-2d", "2d-inner-1d", "1d-minus-2d", "1d-times-2d"],
    )
    def test_one_and_two_variables_do_not_mix(self, combine):
        f, g = GridFunction2D(1, np.zeros((2, 2))), GridFunction1D(1, [1.0, 2.0])
        with pytest.raises(TypeError, match="cannot combine GridFunction"):
            combine(f, g)

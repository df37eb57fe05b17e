"""Reproducibility and validity of the shared random ensembles."""

import numpy as np
import pytest

from walshlab import ensembles
from walshlab.cli import _dense_scales
from walshlab.covering import ParallelogramRows, SlopeField, _segments, densities
from walshlab.ensembles import (
    DENSE_MAX_TRIES,
    cone_slope_field,
    dense_parallelograms,
    indicator_with_measure,
    linear_slope_field,
    measure_triple,
    parallelogram_ensemble,
    random_bitile,
    random_convex_collection,
    random_tree,
    signed_indicator,
    uniform_cells_2d,
)
from walshlab.selection import Tree
from walshlab.tiles import all_bitiles, is_convex, le

from .oracles import (
    cone_slope_field_all_anchors,
    cone_slope_field_grid,
    constant_slope_field_grid,
    dense_one_at_a_time,
    dense_parallelograms_grid,
    density,
    down_set,
    linear_slope_field_grid,
    measured_lipschitz,
)


def _canon(b):
    return (-b.scale, b.m0, b.m2, b.n)


def convex_collection_oracle(rng, resolution, tops=2):
    """Union of down-sets, built with the scalar order."""
    coll = set()
    for _ in range(tops):
        coll |= down_set(all_bitiles(resolution), random_bitile(rng, resolution))
    return sorted(coll, key=_canon)


def tree_oracle(rng, resolution, sprouts=3):
    """Members of down(top) above some seed, built with the scalar order."""
    top = random_bitile(rng, resolution)
    below = sorted(down_set(all_bitiles(resolution), top), key=_canon)
    picks = [below[i] for i in rng.integers(0, len(below), size=max(sprouts, 1))]
    return Tree(top, tuple(q for q in below if any(le(p, q) for p in picks)))


def test_determinism_from_seed():
    a = uniform_cells_2d(np.random.default_rng(7), 4)
    b = uniform_cells_2d(np.random.default_rng(7), 4)
    assert np.array_equal(a.values, b.values)
    ra = parallelogram_ensemble(np.random.default_rng(3), 6, 10)
    rb = parallelogram_ensemble(np.random.default_rng(3), 6, 10)
    assert ra == rb


def test_indicator_measure_is_exact():
    e = indicator_with_measure(np.random.default_rng(1), 5, 2.0 ** -3)
    assert e.integral() == pytest.approx(2.0 ** -3)
    assert set(np.unique(e.values)) <= {0.0, 1.0}
    tiny = indicator_with_measure(np.random.default_rng(2), 3, 1e-9)
    assert tiny.integral() == pytest.approx(2.0 ** -6)  # one cell floor
    assert indicator_with_measure(np.random.default_rng(2), 3, 0.0).integral() == 0.0
    with pytest.raises(ValueError, match="measure"):
        indicator_with_measure(np.random.default_rng(0), 3, 1.5)


def test_signed_indicator_dominated():
    rng = np.random.default_rng(4)
    e = indicator_with_measure(rng, 4, 0.25)
    f = signed_indicator(rng, e, scale=2.0)
    assert np.all(np.abs(f.values) <= 2.0 * e.values + 1e-15)
    assert np.all(f.values[e.values == 0.0] == 0.0)


def test_measure_triple():
    es = measure_triple(np.random.default_rng(5), 5, (2, 4, 6))
    for e, j in zip(es, (2, 4, 6)):
        assert e.integral() == pytest.approx(2.0 ** -j)


def test_random_collection_and_tree_are_convex():
    for seed in range(6):
        rng = np.random.default_rng(seed)
        coll = random_convex_collection(rng, 4)
        assert is_convex(coll)
        tree = random_tree(rng, 4)
        assert is_convex(tree.members)
        assert tree.top in tree.members
        assert all(le(p, tree.top) for p in tree.members)


@pytest.mark.parametrize("K", [2, 3, 4, 5, 6])
def test_random_collection_and_tree_match_scalar_order(K):
    for seed in range(8):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for tops in (1, 2, 3):
            assert random_convex_collection(rng, K, tops) == (
                convex_collection_oracle(ref, K, tops)
            )
        for sprouts in (0, 1, 3, 6):
            assert random_tree(rng, K, sprouts) == tree_oracle(ref, K, sprouts)
        assert rng.bit_generator.state == ref.bit_generator.state


def test_slope_field_certificates():
    lin = linear_slope_field(16, 0.3, -0.4, 0.1)
    assert lin.lipschitz == pytest.approx(0.5)
    assert measured_lipschitz(lin) <= lin.lipschitz + 1e-12
    cone = cone_slope_field(np.random.default_rng(6), 32, 0.8)
    assert cone.lipschitz == 0.8
    assert measured_lipschitz(cone) <= 0.8 + 1e-9
    assert np.all(np.abs(cone.values) <= 1.0)


@pytest.mark.parametrize("n", [8, 64, 256])
@pytest.mark.parametrize("lipschitz", [0.0, 0.3, 0.8, 4.0])  # at 4 most cells clip to 1
@pytest.mark.parametrize("anchors", [1, 6, 9])
def test_lowest_cones_first_match_every_cone(n, lipschitz, anchors):
    for seed in range(5):
        rng, ref = np.random.default_rng(400 + seed), np.random.default_rng(400 + seed)
        got = cone_slope_field(rng, n, lipschitz, anchors)
        want = cone_slope_field_all_anchors(ref, n, lipschitz, anchors)
        assert got.values.tobytes() == want.values.tobytes()
        assert got.lipschitz == want.lipschitz == lipschitz
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("lipschitz", [-0.3, -1e-300, np.nan])
def test_cone_field_rejects_negative_or_nan_certificate(lipschitz):
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="nonnegative"):
        cone_slope_field(rng, 8, lipschitz)


def test_parallelogram_ensemble_in_window():
    rs = parallelogram_ensemble(np.random.default_rng(8), 8, 40)
    assert len(rs) == 40
    for r in rs:
        assert 0.0 <= r.x_left < r.x_right <= 1.0
        assert r.height > 0.0
    with pytest.raises(ValueError, match="finer"):
        parallelogram_ensemble(np.random.default_rng(0), 4, 1, scale_range=(-6, -5))


def assert_densities_measured_once(family, u, delta):
    """The densities handed back are a fresh `densities` pass, bit for bit, all >= delta.

    The fresh pass reads the members as `Parallelogram`s, not the table.
    """
    assert isinstance(family, ParallelogramRows)
    assert family.densities.shape == (len(family),)
    assert family.densities.tobytes() == densities(list(family), u).tobytes()
    assert np.all(family.densities >= delta)


def test_dense_parallelograms_meet_density():
    u = cone_slope_field(np.random.default_rng(9), 64, 0.5)
    rs = dense_parallelograms(np.random.default_rng(10), u, 0.5, 12)
    assert rs
    for r in rs:
        assert density(r, u) >= 0.5


@pytest.mark.parametrize(
    "n, delta, count, scale_range",
    [
        (64, 0.5, 30, (-5, -3)),  # fills count over several rounds
        (32, 0.9, 12, (-5, -1)),
        (16, 1.0, 10**6, (-4, -1)),  # stops at DENSE_MAX_TRIES
    ],
)
def test_dense_rounds_match_one_candidate_at_a_time(n, delta, count, scale_range):
    u = cone_slope_field(np.random.default_rng(11), n, 0.5)
    rng, ref = np.random.default_rng(12), np.random.default_rng(12)
    got = dense_parallelograms(rng, u, delta, count, scale_range)
    want = dense_one_at_a_time(ref, u, delta, count, scale_range)
    assert got == want
    assert_densities_measured_once(got, u, delta)
    assert rng.bit_generator.state == ref.bit_generator.state
    assert 0 < len(got) <= count
    if count > DENSE_MAX_TRIES:
        assert len(got) < DENSE_MAX_TRIES
    else:
        assert len(got) == count


@pytest.mark.parametrize("kind", ["constant", "linear", "cone"])
@pytest.mark.parametrize("n", [64, 256, 1024, 2048])
@pytest.mark.parametrize("delta", [0.5, 0.9])
@pytest.mark.parametrize("steep", [1.0, 30.0])  # 30: densities vary, rounds repeat
def test_dense_densities_equal_a_fresh_measurement(kind, n, delta, steep):
    # the cover trial's fields and family, as `cli._cover_trial` draws them,
    # and the same fields with 30 times the slope gradient
    varied = 0
    for seed in range(2):
        rng = np.random.default_rng(980 + seed)
        if kind == "constant":
            u = SlopeField.constant(n, float(rng.uniform(-0.5, 0.5)))
        elif kind == "linear":
            gx, gy, offset = (float(v) for v in rng.uniform(-0.3, 0.3, 3))
            u = linear_slope_field(n, steep * gx, steep * gy, offset)
        else:
            u = cone_slope_field(rng, n, 0.3 * steep)
        family = dense_parallelograms(rng, u, delta, 40, scale_range=_dense_scales(n))
        assert len(family) == 40
        assert_densities_measured_once(family, u, delta)
        varied += np.unique(family.densities).size > 1
    assert varied or steep == 1.0 or kind == "constant"


def field_and_grid(kind, n, lipschitz, seed):
    """A generated field and its oracle grid, from the same draws.

    The constant field ignores the Lipschitz constant; the linear one
    takes a gradient of that length in a random direction.
    """
    rng = np.random.default_rng(seed)
    if kind == "constant":
        value = float(rng.uniform(-1.0, 1.0))
        return SlopeField.constant(n, value), constant_slope_field_grid(n, value)
    if kind == "linear":
        angle, offset = rng.uniform(0.0, 2 * np.pi), rng.uniform(-0.5, 0.5)
        args = (n, lipschitz * np.cos(angle), lipschitz * np.sin(angle), offset)
        return linear_slope_field(*args), linear_slope_field_grid(*args)
    ref = np.random.default_rng(seed)
    got, want = cone_slope_field(rng, n, lipschitz), cone_slope_field_grid(ref, n, lipschitz)
    assert rng.bit_generator.state == ref.bit_generator.state
    return got, want


def same_floats(a, b):
    return (
        a.dtype == b.dtype == np.float64
        and np.array_equal(a, b)
        and np.array_equal(np.signbit(a), np.signbit(b))
    )


KINDS = ("constant", "linear", "cone")


class TestCellReads:
    @pytest.mark.parametrize("n", [8, 32, 256])
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("lipschitz", [0.0, 0.3, 2.0])
    def test_at_equals_the_grid(self, n, kind, lipschitz):
        for seed in range(3):
            u, oracle = field_and_grid(kind, n, lipschitz, 900 + seed)
            want = oracle.values.ravel()
            assert (u.n, u.lipschitz) == (oracle.n, oracle.lipschitz)
            assert same_floats(u.at(np.arange(n * n)), want)
            assert same_floats(u.values, oracle.values)
            rng = np.random.default_rng(seed)
            for size in (1, 2, 7, n, n * n // 3):
                cells = rng.choice(n * n, size=size, replace=False)
                assert same_floats(u.at(cells), want[cells])
                repeated = rng.integers(0, n * n, size=2 * size)
                assert same_floats(u.at(repeated), want[repeated])
            assert same_floats(u.at(np.zeros(0, dtype=np.int64)), want[:0])
            assert same_floats(u.at([]), want[:0])

    @pytest.mark.parametrize("n", [32, 256])
    @pytest.mark.parametrize("kind", KINDS)
    def test_at_on_the_cells_a_family_reads(self, n, kind):
        # the cells a covering trial reads: one family's, member by member
        for seed in range(3):
            u, oracle = field_and_grid(kind, n, 0.3, 950 + seed)
            want = oracle.values.ravel()
            family = dense_parallelograms(
                np.random.default_rng(seed), u, 0.5, 20, scale_range=(-5, -3)
            )
            index, counts, starts = _segments(family, n)
            assert same_floats(u.at(index), want[index])
            for start, count in zip(starts, counts):
                cells = index[start : start + count]
                assert same_floats(u.at(cells), want[cells])

    def test_the_cone_field_evaluates_no_cone_for_no_cells(self, monkeypatch):
        u = cone_slope_field(np.random.default_rng(3), 16, 0.3)
        calls = []
        monkeypatch.setattr(ensembles.np, "hypot", lambda *a: calls.append(a))
        assert u.at([]).shape == (0,)
        assert not calls

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize(
        "delta, count, scale_range",
        [
            (0.5, 40, (-5, -3)),
            (0.9, 12, (-5, -1)),  # needs a second round, except on a constant field
            (1.0, 10**6, (-4, -1)),  # stops at DENSE_MAX_TRIES
        ],
    )
    def test_dense_family_and_draws_match_the_grid_reads(
        self, kind, delta, count, scale_range, monkeypatch
    ):
        n = 64
        u, oracle = field_and_grid(kind, n, 2.0, 970)
        rounds = []
        densities = ensembles.densities
        monkeypatch.setattr(
            ensembles, "densities", lambda rs, v: rounds.append(len(rs)) or densities(rs, v)
        )
        rng, ref = np.random.default_rng(13), np.random.default_rng(13)
        got = dense_parallelograms(rng, u, delta, count, scale_range)
        want = dense_parallelograms_grid(ref, oracle, delta, count, scale_range)
        assert got == want
        assert [float(r.slope).hex() for r in got] == [float(r.slope).hex() for r in want]
        assert_densities_measured_once(got, u, delta)
        assert rng.bit_generator.state == ref.bit_generator.state
        if count > DENSE_MAX_TRIES:
            assert rounds == [DENSE_MAX_TRIES]
            assert len(got) < count
        else:
            assert len(got) == count
        if delta == 0.9 and kind != "constant":  # a constant field makes every candidate dense
            assert len(rounds) >= 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf and overflow, on purpose
class TestGeneratorValidation:
    """The generators accept and reject what the grid-building ones did."""

    @pytest.mark.parametrize(
        "gx, gy, offset, accepted",
        [
            (np.inf, 0.0, 0.0, True),
            (np.inf, np.inf, -0.5, True),
            (-np.inf, 0.3, 0.0, True),
            (1.7e308, 1.7e308, 0.0, True),  # overflows to inf on some cells
            (1.7e308, 1.7e308, np.inf, True),
            (np.inf, -np.inf, 0.0, False),
            (-np.inf, 0.0, np.inf, False),
            (1.7e308, 1.7e308, -np.inf, False),  # NaN on some cells only
            (-1.7e308, -1.7e308, np.inf, False),
            (1.7e308, -1.7e308, -np.inf, True),
            (np.nan, 0.0, 0.0, False),
            (np.nan, np.inf, 0.0, False),  # certified inf, NaN everywhere
            (0.0, 0.0, np.nan, False),
        ],
    )
    @pytest.mark.parametrize("n", [8, 64])
    def test_linear_field_rejects_nan_anywhere(self, gx, gy, offset, accepted, n):
        if not accepted:
            for build in (linear_slope_field, linear_slope_field_grid):
                with pytest.raises(ValueError, match="lie in"):
                    build(n, gx, gy, offset)
            return
        u, oracle = linear_slope_field(n, gx, gy, offset), linear_slope_field_grid(n, gx, gy, offset)
        assert same_floats(u.values, oracle.values)
        assert u.lipschitz == oracle.lipschitz

    @pytest.mark.parametrize("value", [np.nan, 1.5, -1.0000000000000002, np.inf, -np.inf])
    def test_constant_out_of_range_rejected(self, value):
        for build in (SlopeField.constant, constant_slope_field_grid):
            with pytest.raises(ValueError, match="lie in"):
                build(8, value)

    @pytest.mark.parametrize("value", [1.0, -1.0, -0.0, 0.0])
    def test_constant_keeps_its_value_bits(self, value):
        assert same_floats(SlopeField.constant(8, value).values, np.full((8, 8), value))

    @pytest.mark.parametrize("n", [0, 3, 6, 12, 24, -8])
    def test_grid_side_not_a_power_of_two_rejected(self, n):
        with pytest.raises(ValueError, match="power of two"):
            SlopeField.constant(n, 0.0)
        with pytest.raises(ValueError, match="power of two"):
            linear_slope_field(n, 0.1, 0.2, 0.0)
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        with pytest.raises(ValueError, match="power of two"):
            cone_slope_field(rng, n, 0.3)
        if n > 0:
            with pytest.raises(ValueError, match="power of two"):
                cone_slope_field_grid(ref, n, 0.3)
            assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("lipschitz", [-0.3, -np.inf, np.nan])
    def test_cone_certificate_rejected_before_any_draw(self, lipschitz):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="nonnegative"):
            cone_slope_field(rng, 8, lipschitz)
        assert rng.bit_generator.state == state

    def test_infinite_cone_certificate(self):
        # accepted, every cell clips to 1, unless an anchor sits on a cell
        # centre: there 0 * inf is NaN, and both versions reject it
        rng, ref = np.random.default_rng(1), np.random.default_rng(1)
        u, oracle = cone_slope_field(rng, 16, np.inf), cone_slope_field_grid(ref, 16, np.inf)
        assert same_floats(u.values, oracle.values)
        assert np.all(u.values == 1.0) and u.lipschitz == np.inf

        class OnCentre:
            def __init__(self):
                self.draws = iter([np.array([0.3, 5.5 / 16]), np.array([0.7, 9.5 / 16])])

            def random(self, anchors):
                return next(self.draws)

            def uniform(self, lo, hi, anchors):
                return np.array([0.2, -0.4])

        for build in (cone_slope_field, cone_slope_field_grid):
            with pytest.raises(ValueError, match="lie in"):
                build(OnCentre(), 16, np.inf, 2)
        assert cone_slope_field(OnCentre(), 16, 1e300, 2).values[5, 9] == -0.4

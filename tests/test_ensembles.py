"""Reproducibility and validity of the shared random ensembles."""

import numpy as np
import pytest

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
    dense_one_at_a_time,
    density,
    down_set,
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
    assert rng.bit_generator.state == ref.bit_generator.state
    assert 0 < len(got) <= count
    if count > DENSE_MAX_TRIES:
        assert len(got) < DENSE_MAX_TRIES
    else:
        assert len(got) == count

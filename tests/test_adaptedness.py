"""Projection-invariance of single-bitile forms over convex collections.

With structured slot-0 data, projecting all three slots onto a convex
collection leaves the form of every member bitile unchanged.  The slot-1
rule is tied to the slot-0 structure.  In diagonal mode it is the span of
the member bitile regions, which carry the Haar shift on I2; multipliers
of magnitude 2 or more need both, and are pinned down here too.
"""

import hashlib

import numpy as np
import pytest

from walshlab.ensembles import random_convex_collection
from walshlab.gridfn import GridFunction1D, GridFunction2D
from walshlab.tiles import (
    Bitile,
    ProjectionMode,
    Tile,
    all_bitiles,
    diagonal_data,
    diagonal_region,
    disjoint_tiling,
    fiberwise_data,
    proj_bitile,
    proj_collection,
    proj_tile,
)
from walshlab.tiles import _proj_diagonal_span
from walshlab.triform import lambda_bitile
from walshlab.walsh import WalshNumber

from .oracles import down_set

K = 4
N = 1 << K
POOL = all_bitiles(K)


def ordered(coll):
    return sorted(coll, key=lambda b: (b.scale, b.m0, b.m2, b.n))


def random_convex(rng, tops=2):
    coll = set()
    for _ in range(tops):
        coll |= down_set(POOL, POOL[rng.integers(len(POOL))])
    return ordered(coll)


def truncated_down_sets():
    """Down-sets without their top, and cut off below a scale."""
    for top in (Bitile(0, 0, 0, 1), Bitile(0, 0, 0, 3), Bitile(-1, 1, 0, 3)):
        down = down_set(POOL, top)
        yield ordered(down - {top})
        for cut in (-1, -2):
            yield ordered(p for p in down if p.scale >= cut)


def worst_member_deviation(coll, a, seed):
    """Largest invariance deviation over every member of the collection."""
    rng = np.random.default_rng(seed)
    F0 = diagonal_data(GridFunction1D(K, rng.normal(size=N)), a)
    F1 = GridFunction2D(K, rng.normal(size=(N, N)))
    F2 = GridFunction2D(K, rng.normal(size=(N, N)))
    mode = ProjectionMode.diagonal(a)
    projected = [proj_collection(coll, s, F, mode) for s, F in enumerate((F0, F1, F2))]
    worst = 0.0
    for P in coll:
        lhs = lambda_bitile(P, F0, F1, F2)
        rhs = lambda_bitile(P, *projected)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    return worst


def trace(coll, slot, mode):
    """Trace of a collection projection acting on axis-0 fibers."""
    total = 0.0
    for i in range(N):
        E = np.zeros((N, N))
        E[i, :] = 1.0
        total += proj_collection(coll, slot, GridFunction2D(K, E), mode).values[i].sum()
    return total


def deviation(mode_kind, a, seed):
    rng = np.random.default_rng(seed)
    coll = random_convex(rng)
    P = coll[rng.integers(len(coll))]
    f = GridFunction1D(K, rng.normal(size=N))
    if mode_kind == "diagonal":
        F0 = diagonal_data(f, a)
        mode = ProjectionMode.diagonal(a)
    else:
        labels = rng.integers(0, N, size=N)
        F0 = fiberwise_data(f, labels)
        mode = ProjectionMode.fiberwise(labels)
    F1 = GridFunction2D(K, rng.normal(size=(N, N)))
    F2 = GridFunction2D(K, rng.normal(size=(N, N)))
    lhs = lambda_bitile(P, F0, F1, F2)
    rhs = lambda_bitile(
        P,
        proj_collection(coll, 0, F0, mode),
        proj_collection(coll, 1, F1, mode),
        proj_collection(coll, 2, F2, mode),
    )
    return abs(lhs - rhs) / max(1.0, abs(lhs))


class TestInvariance:
    @pytest.mark.parametrize("seed", range(8))
    def test_fiberwise(self, seed):
        assert deviation("fiberwise", None, 7000 + seed) <= 1e-9

    @pytest.mark.parametrize("a_float", [1.0, 1.5, 1.25, 1.75])
    @pytest.mark.parametrize("seed", range(4))
    def test_diagonal_unit_magnitude(self, a_float, seed):
        a = WalshNumber.from_float(a_float)
        assert deviation("diagonal", a, 7100 + seed) <= 1e-9

    def test_projection_fixes_members(self):
        # sanity: slot-0 projection restricted to a member's own pairing
        # data is what the invariance rides on; the collection projection
        # must at least be idempotent on its own output
        rng = np.random.default_rng(3)
        coll = random_convex(rng)
        F = GridFunction2D(K, rng.normal(size=(N, N)))
        once = proj_collection(coll, 0, F)
        twice = proj_collection(coll, 0, once)
        assert np.allclose(once.values, twice.values, atol=1e-12)

    @pytest.mark.parametrize("a_float", [0.5, 0.75, 1.0, 1.25, 1.5, 1.75])
    def test_diagonal_span_is_tiling_sum_below_two(self, a_float):
        # for |a| < 2 the half-tile regions tile the bitile regions, so the
        # span projection, which slot 1 uses only from |a| >= 2 on, equals
        # the sum over the disjoint tiling that it uses below
        a = WalshNumber.from_float(a_float)
        mode = ProjectionMode.diagonal(a)
        for seed in range(7100, 7104):
            rng = np.random.default_rng(seed)
            coll = random_convex(rng)
            F = GridFunction2D(K, rng.normal(size=(N, N)))
            tiled = GridFunction2D.zeros(K)
            for t in disjoint_tiling(coll):
                tiled = tiled + proj_tile(t, 1, F, mode)
            span = _proj_diagonal_span(coll, F, a)
            assert np.max(np.abs(span.values - tiled.values)) <= 1e-12
            assert np.array_equal(proj_collection(coll, 1, F, mode).values, tiled.values)

    @pytest.mark.parametrize("slot", [0, 1, 2])
    @pytest.mark.parametrize("kind", ["diagonal", "fiberwise"])
    def test_collection_is_tiling_sum_bytes(self, slot, kind):
        # each tile's block is added into one output in tiling order: the
        # same bytes as the sum of full-grid tile projections
        for seed in range(7500, 7506):
            rng = np.random.default_rng(seed)
            coll = random_convex(rng, tops=int(rng.integers(1, 4)))
            if kind == "diagonal":
                a = WalshNumber.from_float((1.0, 1.25, 1.5, 1.75, 0.75)[seed % 5])
                mode = ProjectionMode.diagonal(a)
            else:
                mode = ProjectionMode.fiberwise(rng.integers(0, N, size=N))
            F = GridFunction2D(K, rng.normal(size=(N, N)))
            tiled = GridFunction2D.zeros(K)
            for t in disjoint_tiling(coll):
                tiled = tiled + proj_tile(t, slot, F, mode)
            got = proj_collection(coll, slot, F, mode).values
            assert got.tobytes() == tiled.values.tobytes()


class TestLargeMultiplierObstruction:
    """Magnitude-2 multipliers alias two frequency cells onto one image.

    Half-tiles then have no slot-1 region, so slot 1 is projected onto the
    span of the bitile regions.  The invariance must hold there, including
    on collections where a region without the Haar shift on I2 breaks it.
    """

    @pytest.mark.parametrize("a_float", [2.0, 2.75])
    def test_invariance_fails(self, a_float):
        # the test id is kept stable across the fix; the invariance must hold
        a = WalshNumber.from_float(a_float)
        worst = max(deviation("diagonal", a, 7200 + s) for s in range(8))
        assert worst <= 1e-9
        for i, P in enumerate(POOL):
            assert worst_member_deviation([P], a, 7300 + i) <= 1e-9, P
        for i, coll in enumerate(truncated_down_sets()):
            assert worst_member_deviation(coll, a, 7400 + i) <= 1e-9, coll[-1]

    def test_even_multiplier_image_map_drops_top_bit(self):
        from walshlab.tiles import _image_cells

        a = WalshNumber.from_float(2.0)
        images = _image_cells(a, 0, K).tolist()
        assert len(set(images)) < N

    @pytest.mark.parametrize("a_float", [2.0, 2.75])
    def test_refinement_tilings_disagree(self, a_float):
        # the quadrant refinement of a bitile has no slot-1 counterpart once
        # |a| >= 2: quadrant tiles have no region, and the bitile projects
        # onto its own region, the span of that region alone
        rng = np.random.default_rng(11)
        F = GridFunction2D(K, rng.normal(size=(N, N)))
        P = Bitile(-1, 1, 0, 3)
        mode = ProjectionMode.diagonal(WalshNumber.from_float(a_float))
        for h0 in (0, 1):
            for h2 in (0, 1):
                t = Tile(P.scale - 1, 2 * P.m0 + h0, 2 * P.m2 + h2, P.n)
                with pytest.raises(ValueError, match="no half-tile slot-1 region"):
                    proj_tile(t, 1, F, mode)
        vertical = proj_bitile(P, 1, F, mode)
        span = proj_collection([P], 1, F, mode)
        assert np.max(np.abs(vertical.values)) > 1e-6
        assert np.allclose(vertical.values, span.values, atol=1e-12)

    @pytest.mark.parametrize("a_float", [2.0, 2.75])
    def test_slot1_trace_matches_slot0(self, a_float):
        # slot 1 localizes as much as slot 0 on unions of down-sets: the
        # span projection is not the identity on the collection's boxes
        mode = ProjectionMode.diagonal(WalshNumber.from_float(a_float))
        for seed in range(7200, 7208):
            coll = random_convex(np.random.default_rng(seed))
            assert trace(coll, 1, mode) == pytest.approx(trace(coll, 0, mode), abs=1e-9)

    @pytest.mark.parametrize(
        "a_float, digest",
        [
            (2.0, "592e34648e3dbbe1d7a8decef3560aa2fdb7938ca88af73155fa2c215def732e"),
            (2.75, "d67e891861cf8e5102043461535ba85470eb8a98944a6a480659f0df4f33f3b0"),
        ],
    )
    def test_span_projection_bits_pinned(self, a_float, digest):
        # no report reaches the span projection (report multipliers lie in
        # [1, 2)), so its bits are pinned here on a fixed K = 5 case of 346
        # members; no bitile region is empty at K <= 5 for these multipliers
        K5 = 5
        a = WalshNumber.from_float(a_float)
        coll = random_convex_collection(np.random.default_rng(0), K5, tops=3)
        assert len(coll) == 346
        assert all(diagonal_region(p, a, K5).any() for p in coll)
        F = GridFunction2D(K5, np.random.default_rng(100).normal(size=(1 << K5, 1 << K5)))
        got = proj_collection(coll, 1, F, ProjectionMode.diagonal(a)).values
        assert hashlib.sha256(got.tobytes()).hexdigest() == digest

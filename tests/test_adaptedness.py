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

from walshlab import tiles as tiles_module
from walshlab.ensembles import random_convex_collection
from walshlab.gridfn import GridFunction1D, GridFunction2D, _interval_slice
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

from .oracles import down_set, project_rows

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


# -- projection bits ---------------------------------------------------------

PIN_MULTIPLIERS = (0.5, 0.75, 1.0, 1.5, 1.75, 2.0, 2.75)


def signed_zero_data(rng, resolution):
    """Normal cells, some of them -0.0 or +0.0, with one row and one column all -0.0."""
    n = 1 << resolution
    v = rng.normal(size=(n, n))
    v[rng.random((n, n)) < 0.1] = -0.0
    v[rng.random((n, n)) < 0.05] = 0.0
    v[rng.integers(n)] = -0.0
    v[:, rng.integers(n)] = -0.0
    return GridFunction2D(resolution, v)


def sample(items, rng, count):
    """At most `count` of the items, in their order."""
    if len(items) <= count:
        return list(items)
    return [items[i] for i in np.sort(rng.choice(len(items), count, replace=False))]


def projection_cases():
    """(function, tile or collection, slot, F, mode) over K = 2..6, every slot and mode.

    Slots 0 and 2 run without a mode, slot 1 in fiberwise mode and in
    diagonal mode at each of PIN_MULTIPLIERS; half-tiles have no slot-1
    region from |a| = 2 on, so `proj_tile` skips those.
    """
    for res in range(2, 7):
        rng = np.random.default_rng(9000 + res)
        n = 1 << res
        F = signed_zero_data(rng, res)
        modes = [(0, None), (2, None)]
        modes.append((1, ProjectionMode.fiberwise(rng.integers(0, n, size=n))))
        for a in PIN_MULTIPLIERS:
            modes.append((1, ProjectionMode.diagonal(WalshNumber.from_float(a))))
        tiles = [
            Tile(k, m0, m2, nu)
            for k in range(0, -res - 1, -1)
            for m0 in range(1 << -k)
            for m2 in range(1 << -k)
            for nu in range(1 << (res + k))
        ]
        bitiles = list(all_bitiles(res))
        colls = [random_convex_collection(rng, res, tops=t) for t in (1, 2, 3)]
        for slot, mode in modes:
            wide = mode is not None and mode.kind == "diagonal"
            wide = wide and mode.multiplier.magnitude() >= 2.0
            if not wide:
                for t in sample(tiles, rng, 160):
                    yield proj_tile, t, slot, F, mode
            for b in sample(bitiles, rng, 60):
                yield proj_bitile, b, slot, F, mode
            for coll in colls:
                yield proj_collection, coll, slot, F, mode


def rows_oracle(p, slot, F, mode):
    """One tile's (or, in diagonal slot 1, one bitile's) projection by `project_rows`.

    The box is analysed on its own and the block placed into zeros.
    """
    res = F.resolution
    bk = res + p.scale
    if slot == 1:
        mask = diagonal_region(p, mode.multiplier, res)
    else:
        mask = np.arange(1 << bk) == p.n
    axes = {0: (1, 2), 1: (2, 0), 2: (0, 1)}[slot]
    box = tuple(_interval_slice(p.time_interval(i), res) for i in axes)
    out = np.zeros_like(F.values)
    if slot == 2:
        out[box] = project_rows(F.values[box], bk, mask)
    else:
        out[box] = project_rows(F.values[box].T, bk, mask).T
    return out


class TestProjectionBits:
    def test_projection_bits_pinned(self):
        # recorded before the tile blocks came from one transform per
        # scale; the raw bytes, sign bits of -0.0 included
        h = hashlib.sha256()
        count = 0
        for fn, p, slot, F, mode in projection_cases():
            h.update(fn(p, slot, F, mode).values.tobytes())
            count += 1
        assert count == 7314
        assert h.hexdigest() == "28d3621d0968444a8209e89fd5f249f5e8a0f50e352a6627313d84923a358d69"

    def test_single_tiles_match_project_rows(self):
        # each block is bit for bit the masked transform of its box alone
        checked = 0
        for fn, p, slot, F, mode in projection_cases():
            if fn is proj_collection or (mode is not None and mode.kind == "fiberwise"):
                continue
            got = fn(p, slot, F, mode).values
            if fn is proj_tile or slot == 1:
                want = rows_oracle(p, slot, F, mode)
            else:
                want = rows_oracle(p.half(1), slot, F, mode)
                want = want + rows_oracle(p.half(-1), slot, F, mode)
            assert got.tobytes() == want.tobytes(), (fn.__name__, p, slot, mode)
            checked += 1
        assert checked > 5000

    def test_collection_analyses_once_per_scale(self, monkeypatch):
        # one analysis per scale of the tiling, where a transform per tile
        # box would make one per tile
        K6 = 6
        rng = np.random.default_rng(17)
        coll = random_convex_collection(rng, K6, tops=3)
        scales = sorted({t.scale for t in disjoint_tiling(coll)})
        assert len(disjoint_tiling(coll)) > 10 * len(scales)
        F = signed_zero_data(rng, K6)
        calls = []

        def counted(F, slot, scale, real=tiles_module._slot_coefficients):
            calls.append(scale)
            return real(F, slot, scale)

        monkeypatch.setattr(tiles_module, "_slot_coefficients", counted)
        diagonal = ProjectionMode.diagonal(WalshNumber.from_float(1.5))
        for slot, mode in ((0, None), (2, None), (1, diagonal)):
            calls.clear()
            proj_collection(coll, slot, F, mode)
            assert sorted(calls) == scales, slot
        calls.clear()
        proj_collection(coll, 1, F, ProjectionMode.fiberwise(rng.integers(0, 64, size=64)))
        assert calls == []

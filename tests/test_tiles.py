"""Tile order, tilings, and projection axioms.

The tiling is checked against two independent oracles: the union of
half-tile cells of the input must equal the disjoint union of the output
tiles' cells, and the list, order included, must be the one a
cell-occupancy sweep produces.
"""

import dataclasses

import numpy as np
import pytest

from walshlab.gridfn import GridFunction1D, GridFunction2D
from walshlab.tiles import (
    BaseTile,
    Bitile,
    ProjectionMode,
    Tile,
    _bitile_count,
    _decode,
    _image_cells,
    _isin_ints,
    _unique_ints,
    all_bitiles,
    down_sums,
    diagonal_data,
    diagonal_region,
    disjoint_tiling,
    fiberwise_data,
    is_convex,
    le,
    proj_bitile,
    proj_collection,
    proj_tile,
    counts,
    positions,
    scale_views,
    support,
    up_sums,
)
from walshlab.walsh import DyadicInterval, WalshNumber
from walshlab.wavelets import (
    WavePacketSpec,
    coefficient_rows,
    haar,
    wave_packet,
)

from .oracles import (
    comparable,
    diag_image_cell,
    diagonal_data_rows,
    down_set,
    project_tile_1d,
    scale_arrays,
    scale_members,
)


def rand2d(K, seed):
    rng = np.random.default_rng(seed)
    return GridFunction2D(K, rng.normal(size=(1 << K, 1 << K)))


def tile_cells(t: Tile, kmin: int):
    """Set of (spatial0-atom, spatial2-atom, frequency-unit) cells."""
    d = t.scale - kmin
    out = set()
    for a0 in range(t.m0 << d, (t.m0 + 1) << d):
        for a2 in range(t.m2 << d, (t.m2 + 1) << d):
            for f in range(t.n << -t.scale, (t.n + 1) << -t.scale):
                out.add((a0, a2, f))
    return out


def sweep_tiling(bitiles):
    """The tiling by a cell-occupancy sweep, the oracle of `disjoint_tiling`.

    Bitiles are visited coarsest scale first, then by m0, m2, n; each
    half-tile (+1 first) is added unless its cells, spatial atoms at the
    finest scale present times unit frequency atoms, are already covered.
    Convexity makes coverage all-or-nothing.
    """
    coll = list(bitiles)
    kmin = min(p.scale for p in coll)
    atoms = 1 << -kmin
    fmax = max((p.n + 1) << (1 - p.scale) for p in coll)
    covered = np.zeros((atoms, atoms, fmax), dtype=bool)
    out = []
    for p in sorted(coll, key=lambda p: (-p.scale, p.m0, p.m2, p.n)):
        d = p.scale - kmin
        s0 = slice(p.m0 << d, (p.m0 + 1) << d)
        s2 = slice(p.m2 << d, (p.m2 + 1) << d)
        for j in (1, -1):
            t = p.half(j)
            cells = covered[s0, s2, t.n << -t.scale : (t.n + 1) << -t.scale]
            if cells.all():
                continue
            assert not cells.any(), "partly covered half-tile"
            cells[...] = True
            out.append(t)
    return out


def down_union(picks, K):
    """Union of the down-sets of the picks, as a mask over the positions."""
    return up_sums(counts(picks, K)) > 0


def hull(picks, K):
    """down(S) intersected with up(S): convex, and holds S."""
    return (up_sums(counts(picks, K)) > 0) & (down_sums(counts(picks, K)) > 0)


def convex_ensemble(rng, K):
    """Convex collections of every kind the tiling is compared on.

    Unions of down-sets, those unions cut off above or below a scale,
    hulls down(S) & up(S), and a union listed with repeated members.
    """
    pool = all_bitiles(K)
    picks = [pool[i] for i in rng.choice(len(pool), size=rng.integers(1, 4))]
    union = support(down_union(picks, K))
    cut = int(rng.integers(1 - K, 1))
    yield union
    yield [p for p in union if p.scale >= cut] or union
    yield [p for p in union if p.scale <= cut] or union
    yield support(hull(picks, K))
    yield list(union) + [union[i] for i in rng.integers(len(union), size=len(union) // 2 + 1)]


class TestOrder:
    def test_half_tiles(self):
        p = Bitile(-1, 0, 1, 3)
        assert p.half(1) == Tile(-1, 0, 1, 6)
        assert p.half(-1) == Tile(-1, 0, 1, 7)
        assert p.freq.scale == 2 and p.half(1).freq.scale == 1

    def test_one_frozen_base(self):
        # equality stays class-sensitive; hash and repr are the fields'
        t, b = Tile(0, 1, 0, 2), Bitile(0, 1, 0, 2)
        assert isinstance(t, BaseTile) and isinstance(b, BaseTile)
        assert t != b and len({t, b}) == 2
        assert hash(t) == hash(b) == hash((0, 1, 0, 2))
        assert repr(b) == "Bitile(scale=0, m0=1, m2=0, n=2)"
        with pytest.raises(dataclasses.FrozenInstanceError):
            t.n = 3
        with pytest.raises(ValueError, match="tile scale must be nonpositive"):
            Tile(1, 0, 0, 0)
        with pytest.raises(ValueError, match="negative bitile index"):
            Bitile(0, 0, 0, -1)

    def test_middle_interval_is_xor(self):
        assert Bitile(-2, 3, 1, 0).m1 == 2
        assert Tile(-3, 5, 6, 0).time_interval(1).index == 3

    def test_le_example(self):
        fine = Bitile(-1, 0, 1, 0)  # I's length 1/2, omega [0, 4)
        coarse = Bitile(0, 0, 0, 0)  # I's length 1, omega [0, 2)
        assert le(fine, coarse)
        assert not le(coarse, fine)
        assert comparable(fine, coarse)
        assert not comparable(Bitile(-1, 0, 1, 0), Bitile(-1, 1, 1, 0))

    def test_le_requires_all_three_intervals(self):
        # spatial containment in slots 0 and 2 forces slot 1 as well;
        # frequency must nest the other way
        assert not le(Bitile(-1, 0, 1, 1), Bitile(0, 0, 0, 0))
        assert le(Bitile(-1, 1, 0, 0), Bitile(0, 0, 0, 0))

    def test_order_transitive(self):
        a = Bitile(-2, 1, 2, 0)
        b = Bitile(-1, 0, 1, 0)
        c = Bitile(0, 0, 0, 0)
        assert le(a, b) and le(b, c) and le(a, c)

    def test_mixed_tile_bitile(self):
        p = Bitile(-1, 0, 1, 0)
        top = Bitile(0, 0, 0, 0)
        assert le(p.half(1), top)  # omega [0,2) of the half contains [0,2)
        assert not le(p.half(-1), top)


class TestConvexity:
    def test_gap_breaks_convexity(self):
        a = Bitile(-2, 1, 2, 0)
        c = Bitile(0, 0, 0, 0)
        assert not is_convex([a, c])
        b = Bitile(-1, 0, 1, 0)
        assert is_convex([a, b, c])

    def test_down_sets_convex(self):
        K = 4
        universe = all_bitiles(K)
        for top in [Bitile(0, 0, 0, 3), Bitile(-1, 1, 0, 1), Bitile(-2, 2, 3, 0)]:
            assert is_convex(down_set(universe, top))

    def test_incomparable_sets_convex(self):
        assert is_convex([Bitile(-1, 0, 0, 2), Bitile(-1, 1, 1, 5)])


class TestDisjointTiling:
    def test_two_comparable_bitiles_give_three_tiles(self):
        coarse = Bitile(0, 0, 0, 0)
        fine = Bitile(-1, 0, 1, 0)
        tiles = disjoint_tiling([fine, coarse, fine])
        # the fine bitile's lower half is covered by the coarse halves;
        # only its upper half survives; coarsest first, +1 half first
        assert tiles == [Tile(0, 0, 0, 0), Tile(0, 0, 0, 1), Tile(-1, 0, 1, 1)]

    def test_single_bitile_gives_both_halves(self):
        p = Bitile(-1, 1, 0, 2)
        assert sorted(t.n for t in disjoint_tiling([p])) == [4, 5]

    def test_nonconvex_rejected(self):
        with pytest.raises(ValueError, match="collection is not convex"):
            disjoint_tiling([Bitile(-2, 1, 2, 0), Bitile(0, 0, 0, 0)])

    def test_chain_count(self):
        # a maximal chain: each non-top member contributes one tile
        chain = [
            Bitile(0, 0, 0, 5),
            Bitile(-1, 0, 0, 2),
            Bitile(-2, 0, 0, 1),
            Bitile(-3, 0, 0, 0),
        ]
        assert is_convex(chain)
        assert len(disjoint_tiling(chain)) == len(chain) + 1

    @pytest.mark.parametrize("K", [2, 3, 4, 5, 6])
    def test_matches_sweep_oracle(self, K):
        # the same list, order included, as the occupancy sweep
        rng = np.random.default_rng(100 + K)
        for _ in range(40):
            for coll in convex_ensemble(rng, K):
                assert is_convex(coll)
                order = list(coll)
                rng.shuffle(order)
                assert disjoint_tiling(order) == sweep_tiling(coll)

    @pytest.mark.parametrize("seed", range(6))
    def test_partition_matches_cell_oracle(self, seed):
        K = 4
        rng = np.random.default_rng(seed)
        universe = all_bitiles(K)
        tops = [universe[i] for i in rng.choice(len(universe), size=3, replace=False)]
        coll = set()
        for top in tops:
            coll |= down_set(universe, top)
        coll = sorted(coll, key=lambda p: (p.scale, p.m0, p.m2, p.n))
        self.assert_cells_partition(coll)
        # hulls down(S) & up(S) of the same picks are convex without being
        # unions of down-sets
        self.assert_cells_partition(support(hull(tops, K)))

    def assert_cells_partition(self, coll):
        tiles = disjoint_tiling(coll)
        kmin = min(p.scale for p in coll)
        want = set()
        for p in coll:
            want |= tile_cells(p.half(1), kmin) | tile_cells(p.half(-1), kmin)
        got = []
        for t in tiles:
            got.append(tile_cells(t, kmin))
        union = set().union(*got)
        assert union == want
        assert sum(len(c) for c in got) == len(union)  # pairwise disjoint


class TestProjectionAxioms:
    def modes(self, K, seed=0):
        rng = np.random.default_rng(seed)
        return [
            ProjectionMode.fiberwise(rng.integers(0, 1 << K, size=1 << K)),
            ProjectionMode.diagonal(WalshNumber.from_float(1.0)),
            ProjectionMode.diagonal(WalshNumber.from_float(1.5)),
        ]

    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_idempotent_and_selfadjoint(self, slot):
        K = 4
        F = rand2d(K, 1)
        G = rand2d(K, 2)
        t = Tile(-2, 1, 2, 3)
        for mode in self.modes(K):
            P = lambda u: proj_tile(t, slot, u, mode)
            pf = P(F)
            assert np.allclose(P(pf).values, pf.values, atol=1e-12)
            assert pf.inner(G) == pytest.approx(F.inner(P(G)), abs=1e-12)

    def test_support_boxes(self):
        K = 4
        F = rand2d(K, 3)
        t = Tile(-1, 1, 0, 3)
        for mode in self.modes(K):
            p0 = proj_tile(t, 0, F, mode).values
            assert np.all(p0[: 1 << (K - 1) if t.m1 else 0, :] * 0 == 0)
            # slot 0 lives on I1 x I2, slot 1 on I2 x I0, slot 2 on I0 x I1
            m1, m2, m0 = t.m1, t.m2, t.m0
            half = 1 << (K - 1)
            box = np.zeros((1 << K, 1 << K), dtype=bool)
            box[m1 * half : (m1 + 1) * half, m2 * half : (m2 + 1) * half] = True
            assert np.all(p0[~box] == 0)
            p1 = proj_tile(t, 1, F, mode).values
            box1 = np.zeros_like(box)
            box1[m2 * half : (m2 + 1) * half, m0 * half : (m0 + 1) * half] = True
            assert np.all(p1[~box1] == 0)
            p2 = proj_tile(t, 2, F, mode).values
            box2 = np.zeros_like(box)
            box2[m0 * half : (m0 + 1) * half, m1 * half : (m1 + 1) * half] = True
            assert np.all(p2[~box2] == 0)

    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_disjoint_tiles_orthogonal(self, slot):
        K = 4
        F = rand2d(K, 4)
        pairs = [
            (Tile(-1, 0, 1, 2), Tile(-1, 0, 1, 3)),  # same box, split freq
            (Tile(-1, 0, 1, 2), Tile(-1, 1, 1, 2)),  # disjoint boxes
            (Tile(-2, 0, 2, 0), Tile(-1, 0, 1, 3)),  # nested boxes, split freq
        ]
        for mode in self.modes(K):
            for s, t in pairs:
                a = proj_tile(s, slot, F, mode)
                b = proj_tile(t, slot, F, mode)
                assert a.inner(b) == pytest.approx(0.0, abs=1e-12), (slot, mode.kind, s, t)

    def test_scale_compatibility(self):
        # the vertical pair and the quadrant tiling of a bitile give the
        # same projection, for packet slots always and for slot 1 in
        # fiberwise and unit-multiplier diagonal modes
        K = 5
        F = rand2d(K, 5)
        P = Bitile(-1, 1, 0, 3)
        quads = [
            Tile(P.scale - 1, 2 * P.m0 + h0, 2 * P.m2 + h2, P.n)
            for h0 in (0, 1)
            for h2 in (0, 1)
        ]
        for mode in self.modes(K):
            for slot in (0, 1, 2):
                v = proj_bitile(P, slot, F, mode)
                q = GridFunction2D.zeros(K)
                for t in quads:
                    q = q + proj_tile(t, slot, F, mode)
                assert np.allclose(v.values, q.values, atol=1e-12), (slot, mode.kind)

    def test_scale_compatibility_fails_for_valuation_two(self):
        # the obstruction: multiplying by a with |a| = 2 shifts images by
        # a full tile frequency, so the quadrant tiles have no slot-1
        # region; the bitile projects onto its own region, packet by packet
        K = 5
        F = rand2d(K, 6)
        P = Bitile(-1, 1, 0, 3)
        quads = [
            Tile(P.scale - 1, 2 * P.m0 + h0, 2 * P.m2 + h2, P.n)
            for h0 in (0, 1)
            for h2 in (0, 1)
        ]
        a = WalshNumber.from_float(2.75)
        mode = ProjectionMode.diagonal(a)
        for t in quads:
            with pytest.raises(ValueError, match="no half-tile slot-1 region"):
                proj_tile(t, 1, F, mode)
        I2, I0 = P.time_interval(2), P.time_interval(0)
        cells = np.flatnonzero(diagonal_region(P, a, K))
        assert cells.size
        want = np.zeros_like(F.values)
        for x0 in range(I0.index << (K + P.scale), (I0.index + 1) << (K + P.scale)):
            fiber = GridFunction1D(K, F.values[:, x0])
            for nu in cells:
                band = DyadicInterval(-P.scale, int(nu))
                want[:, x0] += project_tile_1d(fiber, I2, band).values
        v = proj_bitile(P, 1, F, mode)
        assert np.allclose(v.values, want, atol=1e-12)

    def test_diagonal_region_unit_multiplier(self):
        t = Tile(-2, 1, 2, 5)
        mask = diagonal_region(t, WalshNumber(1), 5)
        assert mask.sum() == 1 and mask[5]

    def test_diagonal_region_partitions_for_units(self):
        K = 5
        a = WalshNumber.from_float(1.5)
        total = np.zeros(1 << (K - 2), dtype=int)
        for n in range(1 << (K - 2)):
            total += diagonal_region(Tile(-2, 0, 0, n), a, K).astype(int)
        assert np.all(total == 1)

    def test_diagonal_region_haar_shift_witness(self):
        # lambda_bitile pairs slot 1 with h_{I2} <F0(., x2), w_P>: at a = 2
        # the preimage of omega_P = [2, 4) is the odd cells, and the Haar
        # sign on I2 moves them to {0, 2}
        mask = diagonal_region(Bitile(0, 0, 0, 1), WalshNumber.from_float(2.0), 2)
        assert np.flatnonzero(mask).tolist() == [0, 2]

    @pytest.mark.parametrize("a_float", [1.0, 1.5, 2.0, 2.75, 3.0])
    @pytest.mark.parametrize("K", [2, 3, 4])
    def test_diagonal_region_is_spectrum_of_data(self, K, a_float):
        # the region is the set of dual cells of I2 carrying the slot-1
        # partner h_{I2} <F0(., x2), w_{P,j}>, read off by a blockwise FWHT;
        # where the zero-extended data vanishes on I1 nothing is carried,
        # and the region, which still keeps cells there, is only a superset
        a = WalshNumber.from_float(a_float)
        rng = np.random.default_rng(K)
        F0 = diagonal_data(GridFunction1D(K, rng.normal(size=1 << K)), a)
        for P in all_bitiles(K):
            I1, I2 = P.time_interval(1), P.time_interval(2)
            sl1 = slice(I1.index << (K + P.scale), (I1.index + 1) << (K + P.scale))
            sl2 = slice(I2.index << (K + P.scale), (I2.index + 1) << (K + P.scale))
            h = haar(I2, K).values[sl2]
            carried = np.zeros(1 << (K + P.scale), dtype=bool)
            for j in (1, -1):
                w = wave_packet(WavePacketSpec(I1.half(j), P.freq), K)
                spectrum = coefficient_rows(h * (w.values @ F0.values[:, sl2]), K + P.scale)
                carried |= np.abs(spectrum) > 1e-9 * max(1.0, np.abs(spectrum).max())
            if F0.values[sl1].any():
                assert np.array_equal(carried, diagonal_region(P, a, K)), P
            else:
                assert not carried.any(), P

    def test_collection_projection_idempotent(self):
        K = 4
        F = rand2d(K, 7)
        coll = sorted(
            down_set(all_bitiles(K), Bitile(0, 0, 0, 1)),
            key=lambda p: (p.scale, p.m0, p.m2, p.n),
        )
        for mode in self.modes(K):
            for slot in (0, 1, 2):
                pf = proj_collection(coll, slot, F, mode)
                again = proj_collection(coll, slot, pf, mode)
                assert np.allclose(again.values, pf.values, atol=1e-12)

    def test_errors(self):
        F = rand2d(3, 8)
        with pytest.raises(ValueError, match="frequency beyond resolution"):
            proj_tile(Tile(0, 0, 0, 8), 0, F)
        with pytest.raises(ValueError, match="slot 1 requires a projection mode"):
            proj_tile(Tile(0, 0, 0, 1), 1, F)
        with pytest.raises(ValueError, match="not localized"):
            proj_tile(Tile(-1, 2, 0, 1), 0, F)
        with pytest.raises(ValueError, match="resolution too small"):
            all_bitiles(1)


class TestFrequencyTables:
    """The image-cell and character tables against their scalar definitions."""

    # the last two reach past 64 mantissa bits and beyond the grid
    @pytest.mark.parametrize(
        "a",
        [WalshNumber.from_float(x) for x in (0.5, 1.0, 1.5, 2.0, 2.75)]
        + [WalshNumber(2**70 + 5, 62), WalshNumber(5, -3)],
    )
    def test_image_cells_match_scalar_image(self, a):
        for K in range(2, 9):
            for k in range(-K, 1):
                got = _image_cells(a, k, K)
                assert got.dtype == np.int64 and not got.flags.writeable
                want = [diag_image_cell(a, nu, k, K) for nu in range(1 << (K + k))]
                assert got.tolist() == want, (K, k)

    @pytest.mark.parametrize("K", range(0, 8))
    def test_diagonal_data_matches_row_loop(self, K):
        # images past [0, 1) give zero rows; the multipliers below reach
        # beyond the grid, below one cell, and past 64 mantissa bits
        f = GridFunction1D(K, np.random.default_rng(K).normal(size=1 << K))
        wide = [(1, -9), (9, 4), (2**70 + 5, 62)]
        for m, shift in [(1, 0), (3, 1), (11, 1), (5, -3)] + wide:
            a = WalshNumber(m, shift)
            got = diagonal_data(f, a).values
            assert got.tobytes() == diagonal_data_rows(f, a).values.tobytes(), a

    @pytest.mark.parametrize("nu", [-1, 8])
    def test_fiberwise_label_out_of_range(self, nu):
        labels = np.zeros(8, dtype=np.int64)
        labels[3] = nu
        with pytest.raises(ValueError, match="frequency beyond resolution"):
            fiberwise_data(GridFunction1D(3, np.ones(8)), labels)


def flat(X):
    """Per-scale arrays laid end to end, coarsest scale first."""
    return np.concatenate([X[k].ravel() for k in sorted(X, reverse=True)])


@pytest.mark.parametrize("K", range(2, 9))
class TestFlatLayout:
    """Positions, decode table, counts and support against the per-scale layout."""

    def full(self, K):
        shapes = {k: (1 << -k, 1 << -k, 1 << (K + k - 1)) for k in range(1 - K, 1)}
        return {k: np.ones(shape, bool) for k, shape in shapes.items()}

    def test_positions_are_a_bijection_decoding_inverts(self, K):
        rows = scale_members(self.full(K)).rows
        N = _bitile_count(K)
        assert len(rows) == N == (1 << (K - 1)) * ((1 << K) - 1)
        assert np.array_equal(positions(rows, K), np.arange(N))
        assert np.array_equal(_decode(K), rows)
        # the lower half-tile, as a bitile of K + 1, sits at twice the position
        lower = rows * [1, 1, 1, 2]
        assert np.array_equal(positions(lower, K + 1), 2 * np.arange(N))

    def test_counts_and_support_match_per_scale_layout(self, K):
        rng = np.random.default_rng(70 + K)
        pool = scale_members(self.full(K)).rows
        for _ in range(5):
            picks = pool[rng.integers(len(pool), size=int(rng.integers(0, 3 * K)))]
            picks = np.concatenate((picks, picks[: len(picks) // 2]))  # repeats
            assert np.array_equal(counts(picks, K), flat(scale_arrays(picks, K)))
            p = rng.random()
            masks = {k: rng.random(m.shape) < p for k, m in self.full(K).items()}
            assert support(flat(masks)) == scale_members(masks)
            views = scale_views(flat(masks))
            assert all(np.array_equal(views[k], m) for k, m in masks.items())

    def test_all_bitiles_order_unchanged(self, K):
        assert all_bitiles(K) == scale_members(self.full(K), range(1 - K, 1))

    def test_decode_table_is_read_only(self, K):
        with pytest.raises(ValueError):
            _decode(K)[0, 0] = 1


class TestIntegerSets:
    """The sort-based set helpers against `np.unique` and `np.isin`."""

    CASES = {
        "random": lambda rng: rng.integers(-(1 << 62), 1 << 62, size=500),
        "duplicates": lambda rng: rng.integers(-3, 4, size=(40, 25)),
        "one": lambda rng: np.array([7]),
        "empty": lambda rng: np.zeros(0, dtype=np.int64),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_unique_matches_numpy(self, case):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = self.CASES[case](rng)
            got, want = _unique_ints(a), np.unique(a)
            assert got.dtype == want.dtype and got.tolist() == want.tolist()

    @pytest.mark.parametrize("table", list(CASES))
    @pytest.mark.parametrize("keys", list(CASES))
    def test_isin_matches_numpy(self, keys, table):
        rng = np.random.default_rng(12)
        for _ in range(20):
            a, t = self.CASES[keys](rng), self.CASES[table](rng)
            a = np.concatenate([a.reshape(-1), t.reshape(-1)[:5]])  # some hits
            got, want = _isin_ints(a, t), np.isin(a, t)
            assert got.dtype == want.dtype and got.tolist() == want.tolist()

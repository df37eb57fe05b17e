"""Exceptional sets, the directional replacement, and its exactness."""

import dataclasses

import numpy as np
import pytest

from walshlab.gridfn import GridFunction1D, GridFunction2D
from walshlab.mfcz import (
    admissible_bitiles,
    build_good_function,
    counting_function,
    exceptional_sets,
    g_norm_report,
    replacement_check,
)
from walshlab.selection import Tree, select_trees
from walshlab.tiles import Bitile, all_bitiles, is_convex
from walshlab.triform import EpsilonField, lambda_bitile, lambda_direct
from walshlab.walsh import DyadicInterval
from walshlab.wavelets import WavePacketSpec, wave_packet

from .oracles import (
    GoodPiece,
    good_function_by_transforms,
    good_pieces,
    indicator_box,
    maximal_dyadic_intervals,
    parent,
    project_rows,
    project_tile_1d,
    transpose_instance,
)


def indicator(K, rng, density):
    n = 1 << K
    return GridFunction2D(K, (rng.random((n, n)) < density).astype(np.float64))


def cells_of(interval, K):
    width = 1 << (K + interval.scale)
    return range(interval.index * width, (interval.index + 1) * width)


class TestExceptionalSets:
    def test_empty_outer_sets(self):
        K = 4
        rng = np.random.default_rng(0)
        e1 = indicator(K, rng, 0.4)
        sets = exceptional_sets(
            GridFunction2D.zeros(K), e1, GridFunction2D.zeros(K)
        )
        assert sets.b0.norm(1) == 0.0
        assert sets.b2.norm(1) == 0.0
        assert sets.b1_measure == 0.0
        assert np.array_equal(sets.e1_prime.values, e1.values)

    def test_full_square_stays_below_default_threshold(self):
        K = 4
        ones = GridFunction2D(K, np.ones((16, 16)))
        sets = exceptional_sets(ones, ones, ones)
        assert sets.b0.norm(1) == 0.0

    def test_diagonal_pullback_matches_triple_loop(self):
        K = 3
        rng = np.random.default_rng(5)
        e0 = indicator(K, rng, 0.25)
        e1 = indicator(K, rng, 0.5)
        e2 = indicator(K, rng, 0.25)
        sets = exceptional_sets(e0, e1, e2, threshold=1.2)
        assert sets.b0.norm(1) > 0 and sets.b2.norm(1) > 0
        n = 1 << K
        want = np.zeros((n, n))
        for i0 in range(n):
            for i1 in range(n):
                for i2 in range(n):
                    if i0 ^ i1 ^ i2:
                        continue
                    if sets.b0.values[i1, i2] or sets.b2.values[i0, i1]:
                        want[i2, i0] = 1.0
        assert np.array_equal(sets.b1.values, want)
        assert np.array_equal(
            sets.e1_prime.values, e1.values * (1.0 - want)
        )
        assert sets.b1_measure == pytest.approx(want.mean())

    def test_larger_threshold_shrinks_regions(self):
        K = 4
        rng = np.random.default_rng(9)
        e = indicator(K, rng, 0.2)
        lo = exceptional_sets(e, e, e, threshold=1.0)
        hi = exceptional_sets(e, e, e, threshold=3.0)
        assert np.all(hi.b0.values <= lo.b0.values)
        assert np.all(hi.b2.values <= lo.b2.values)
        assert np.all(hi.b1.values <= lo.b1.values)

    def test_rejects_non_indicator(self):
        K = 3
        f = GridFunction2D(K, np.full((8, 8), 0.5))
        z = GridFunction2D.zeros(K)
        with pytest.raises(ValueError, match="0/1 indicator"):
            exceptional_sets(f, z, z)

    def test_rejects_mixed_resolution(self):
        with pytest.raises(ValueError, match="one resolution"):
            exceptional_sets(
                GridFunction2D.zeros(3),
                GridFunction2D.zeros(3),
                GridFunction2D.zeros(4),
            )


class TestMaximalIntervals:
    @pytest.mark.parametrize("seed", range(4))
    def test_partition_and_maximality(self, seed):
        K = 5
        rng = np.random.default_rng(seed)
        row = rng.random(1 << K) < 0.55
        ivs = maximal_dyadic_intervals(row)
        cover = np.zeros(1 << K)
        for iv in ivs:
            for c in cells_of(iv, K):
                assert row[c]
                assert cover[c] == 0.0
                cover[c] = 1.0
            if iv.scale < 0:
                parent_cells = list(cells_of(parent(iv), K))
                assert not row[parent_cells].all()
        assert np.array_equal(cover, row.astype(np.float64))

    def test_full_and_empty_rows(self):
        assert maximal_dyadic_intervals(np.ones(8, dtype=bool)) == [
            DyadicInterval(0, 0)
        ]
        assert maximal_dyadic_intervals(np.zeros(8, dtype=bool)) == []

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError, match="power of two"):
            maximal_dyadic_intervals(np.ones(6, dtype=bool))


class TestGoodFunction:
    def test_empty_region_gives_zero(self):
        K = 4
        rng = np.random.default_rng(1)
        f2 = GridFunction2D(K, rng.standard_normal((16, 16)))
        top = Bitile(0, 0, 0, 2)
        good = build_good_function(
            f2, [Tree(top, (top,))], GridFunction2D.zeros(K)
        )
        assert good.g.norm(2) == 0.0
        assert good_pieces(good) == ()

    def test_empty_forest_gives_zero(self):
        K = 4
        rng = np.random.default_rng(2)
        f2 = GridFunction2D(K, rng.standard_normal((16, 16)))
        b2 = indicator(K, rng, 0.5)
        good = build_good_function(f2, [], b2)
        assert good.g.norm(2) == 0.0
        assert all(p.freqs == () for p in good_pieces(good))

    def test_single_tree_matches_hand_assembly(self):
        # Region rows are the left half line, so every row contributes the
        # single interval J = [0, 1/2); the scale-0 top with frequency
        # block 2 forces the lone packet rectangle J x [4, 6).
        K = 4
        rng = np.random.default_rng(3)
        f2 = GridFunction2D(K, rng.standard_normal((16, 16)))
        b2 = indicator_box(
            DyadicInterval(0, 0), DyadicInterval(-1, 0), K
        )
        top = Bitile(0, 0, 0, 2)
        good = build_good_function(f2, [Tree(top, (top,))], b2)
        assert len(good_pieces(good)) == 16
        for piece in good_pieces(good):
            assert piece.time == DyadicInterval(-1, 0)
            assert piece.freqs == (DyadicInterval(1, 2),)
        for i0 in range(16):
            fiber = GridFunction1D(K, f2.values[i0].copy())
            want = project_tile_1d(fiber, DyadicInterval(-1, 0), DyadicInterval(1, 2))
            np.testing.assert_allclose(
                good.g.values[i0], want.values, atol=1e-12
            )

    def test_shared_frequency_counted_once(self):
        # Two trees at different scales induce the same dual interval on a
        # quarter-line piece; the packet list keeps one copy.
        K = 4
        rng = np.random.default_rng(4)
        f2 = GridFunction2D(K, rng.standard_normal((16, 16)))
        b2 = indicator_box(
            DyadicInterval(0, 0), DyadicInterval(-2, 0), K
        )
        t_a = Bitile(0, 0, 0, 2)
        t_b = Bitile(-1, 0, 0, 1)
        forest = [Tree(t_a, (t_a,)), Tree(t_b, (t_b,))]
        good = build_good_function(f2, forest, b2)
        # Rows in the lower half line sit below both tops; the derived
        # interval [4, 8) still appears exactly once.
        for piece in good_pieces(good):
            assert piece.freqs == (DyadicInterval(2, 1),)

    def test_pieces_partition_region_rows(self):
        K = 5
        rng = np.random.default_rng(6)
        b2 = indicator(K, rng, 0.5)
        f2 = GridFunction2D(K, rng.standard_normal((32, 32)))
        good = build_good_function(f2, [], b2)
        cover = np.zeros_like(b2.values)
        for piece in good_pieces(good):
            for c in cells_of(piece.time, K):
                assert cover[piece.cell0, c] == 0.0
                cover[piece.cell0, c] = 1.0
        assert np.array_equal(cover, b2.values)

    def test_support_and_piece_norm_bound(self):
        K = 4
        rng = np.random.default_rng(7)
        f2 = GridFunction2D(K, rng.standard_normal((16, 16)))
        b2 = indicator(K, rng, 0.6)
        tops = [Bitile(0, 0, 0, 3), Bitile(-1, 1, 0, 2)]
        good = build_good_function(f2, [Tree(t, (t,)) for t in tops], b2)
        assert np.all(good.g.values[b2.values == 0.0] == 0.0)
        for piece in good_pieces(good):
            cells = list(cells_of(piece.time, K))
            gj = good.g.values[piece.cell0, cells]
            norm = np.sqrt((gj ** 2).sum() * 2.0 ** -K)
            height = np.abs(f2.values[piece.cell0, cells]).max()
            bound = (
                np.sqrt(len(piece.freqs))
                * height
                * np.sqrt(piece.time.length)
            )
            assert norm <= bound + 1e-12


def reference_good_function(f2, forest, b2):
    """Packet-by-packet replacement: one tile projection per (piece, frequency)."""
    K = f2.resolution
    mask = b2.values > 0.5
    tops = [t.top for t in forest]
    g = np.zeros_like(f2.values)
    pieces = []
    for cell0 in range(1 << K):
        row = mask[cell0]
        if not row.any():
            continue
        for time in maximal_dyadic_intervals(row):
            freqs = set()
            for top in tops:
                if cell0 >> (K + top.scale) != top.m0:
                    continue
                if time.scale > top.scale - 1:
                    continue
                if not top.time_interval(1).contains(time):
                    continue
                freqs.add(
                    DyadicInterval(
                        -time.scale, top.n >> (top.scale - 1 - time.scale)
                    )
                )
            ordered = tuple(sorted(freqs, key=lambda w: w.index))
            pieces.append(GoodPiece(cell0, time, ordered))
            # one masked block transform per packet; a packet-by-packet
            # inner-product sum would re-associate the floats
            bk = K + time.scale
            cells = slice(time.index << bk, (time.index + 1) << bk)
            fiber = f2.values[None, cell0, cells]
            for freq in ordered:  # area one: a single dual cell
                keep = np.arange(1 << bk) == freq.index
                g[cell0, cells] += project_rows(fiber, bk, keep)[0]
    return g, tuple(pieces)


def good_function_cases():
    """(f2, forest, b2) triples covering the edge cases of the replacement."""
    for K in range(2, 7):
        n = 1 << K
        rng = np.random.default_rng(100 + K)
        bitiles = all_bitiles(K)
        f2 = GridFunction2D(K, rng.standard_normal((n, n)))
        tops = [bitiles[i] for i in rng.integers(0, len(bitiles), size=3 * K)]
        scale0 = [p for p in bitiles if p.scale == 0]
        tops += [scale0[i] for i in rng.integers(0, len(scale0), size=K)]
        forest = [Tree(t, (t,)) for t in tops + tops[:2]]  # two trees share a top
        full_rows = (rng.random((n, n)) < 0.7).astype(np.float64)
        full_rows[rng.random(n) < 0.5] = 1.0
        yield f2, forest, indicator(K, rng, 0.6)
        yield f2, forest, GridFunction2D(K, full_rows)
        yield f2, forest, GridFunction2D(K, np.ones((n, n)))
        yield f2, forest, GridFunction2D.zeros(K)
        yield f2, [], indicator(K, rng, 0.6)
    # one quarter-line piece per row under three scale-0 tops with distinct
    # dual cells: three packets on one piece
    K = 5
    rng = np.random.default_rng(7)
    b2 = indicator_box(
        DyadicInterval(0, 0), DyadicInterval(-2, 0), K
    )
    tops = [Bitile(0, 0, 0, nn) for nn in (4, 0, 2, 1)]
    yield (
        GridFunction2D(K, rng.standard_normal((32, 32))),
        [Tree(t, (t,)) for t in tops],
        b2,
    )


class TestGoodFunctionArrays:
    def test_bit_identical_to_packet_by_packet_projection(self):
        most = 0
        for f2, forest, b2 in good_function_cases():
            good = build_good_function(f2, forest, b2)
            g, pieces = reference_good_function(f2, forest, b2)
            assert good.g.values.tobytes() == g.tobytes()
            assert good_pieces(good) == pieces
            most = max([most] + [len(p.freqs) for p in pieces])
        # three packets on one piece: a single union-mask projection would
        # re-associate their sum
        assert most >= 3

    @pytest.mark.parametrize("K", range(3, 9))
    def test_bit_identical_to_one_hot_synthesis(self, K):
        # c times a character is the inverse transform of a one-hot row
        cases = [case for case in good_function_cases() if case[0].resolution == K]
        cases += [
            (f2, forest, sets.b2)
            for sets, _, _, f2, forest in (replacement_instance(K, s) for s in range(4))
        ]
        assert any(forest for _, forest, _ in cases)
        for f2, forest, b2 in cases:
            good = build_good_function(f2, forest, b2)
            want = good_function_by_transforms(f2, good)
            assert good.g.values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", range(3))
    def test_bit_identical_on_selected_forests(self, seed):
        sets, f0, f1, f2, forest = replacement_instance(5, seed)
        assert forest
        good = build_good_function(f2, forest, sets.b2)
        g, pieces = reference_good_function(f2, forest, sets.b2)
        assert good.g.values.tobytes() == g.tobytes()
        assert good_pieces(good) == pieces
        assert any(p.freqs for p in pieces)


def reference_bad_fibers(bitiles, f1, good):
    """Captured fibers on which the middle function lives, one loop per cell."""
    K = f1.resolution
    by_row = {}
    for piece in good_pieces(good):
        by_row.setdefault(piece.cell0, []).append(piece.time)
    bad = 0
    for p in bitiles:
        width = 1 << (K + p.scale)
        t1 = p.time_interval(1)
        rows = slice(p.m2 * width, (p.m2 + 1) * width)
        for cell0 in range(p.m0 * width, (p.m0 + 1) * width):
            for time in by_row.get(cell0, ()):
                if time.contains(t1):
                    if np.any(f1.values[rows, cell0] != 0.0):
                        bad += 1
                    break
    return bad


class TestArrayPasses:
    @pytest.mark.parametrize("K", range(2, 7))
    def test_admissible_matches_bitile_loop(self, K):
        n = 1 << K
        rng = np.random.default_rng(K)
        for density in (0.5, 0.95, 1.0):
            values = (rng.random((n, n)) < density).astype(np.float64)
            values[: n // 2, : n // 2] = 1.0  # some swallowed blocks at every scale
            b1 = GridFunction2D(K, values)
            want = []
            for p in all_bitiles(K):
                w = 1 << (K + p.scale)
                box = values[p.m2 * w : (p.m2 + 1) * w, p.m0 * w : (p.m0 + 1) * w]
                if not box.all():
                    want.append(p)
            assert admissible_bitiles(b1) == want

    def test_admissible_rejects_small_resolution(self):
        with pytest.raises(ValueError, match="too small"):
            admissible_bitiles(GridFunction2D.zeros(1))

    @pytest.mark.parametrize("K", range(2, 7))
    def test_captured_fiber_count_matches_loop(self, K):
        n = 1 << K
        rng = np.random.default_rng(20 + K)
        bitiles = all_bitiles(K)
        total = 0
        for density in (0.6, 0.9, 1.0):
            b2 = indicator(K, rng, density)
            f1 = GridFunction2D(
                K, rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.2)
            )
            f2 = GridFunction2D(K, rng.standard_normal((n, n)) * b2.values)
            members = [bitiles[i] for i in rng.integers(0, len(bitiles), size=40)]
            members += members[:10]  # repeats count once per occurrence
            good = build_good_function(f2, [], b2)
            _, violations = replacement_check(members, f1, f1, f2, good)
            want = reference_bad_fibers(members, f1, good)
            expected = [f"middle function alive on {want} captured fibers"]
            assert [v for v in violations if "captured fibers" in v] == (
                expected if want else []
            )
            total += want
        assert total > 0


def replacement_instance(K, seed, density2=0.08, threshold=2.0, level=2):
    """Normalized indicator data, trimmed middle set, and a forest."""
    rng = np.random.default_rng(seed)
    e0 = indicator(K, rng, 0.25)
    e1 = indicator(K, rng, 0.35)
    e2 = indicator(K, rng, density2)
    sets = exceptional_sets(e0, e1, e2, threshold=threshold)
    assert np.all(e2.values <= sets.b2.values)

    def normalized(e, p):
        signs = rng.choice([-1.0, 1.0], size=e.values.shape)
        scale = e.values.mean() ** (-1.0 / p) if e.values.any() else 0.0
        return GridFunction2D(K, signs * e.values * scale)

    f0 = normalized(e0, 4.0)
    f1 = normalized(sets.e1_prime, 2.0)
    f2 = normalized(e2, 4.0 / 3.0)

    pool = admissible_bitiles(sets.b1)
    oracle = [
        p
        for p in all_bitiles(K)
        if not sets.b1.values[
            p.m2 * (1 << (K + p.scale)) : (p.m2 + 1) * (1 << (K + p.scale)),
            p.m0 * (1 << (K + p.scale)) : (p.m0 + 1) * (1 << (K + p.scale)),
        ].all()
    ]
    assert pool == oracle
    assert is_convex(pool)
    cert = select_trees(0, pool, f0, level=level)
    return sets, f0, f1, f2, cert.trees


class TestReplacement:
    @pytest.mark.parametrize("seed", range(4))
    def test_bitile_coefficients_unchanged(self, seed):
        K = 5
        sets, f0, f1, f2, forest = replacement_instance(K, seed)
        assert forest
        good = build_good_function(f2, forest, sets.b2)
        members = sorted(
            {p for t in forest for p in t.members},
            key=lambda b: (-b.scale, b.m0, b.m2, b.n),
        )
        dev, violations = replacement_check(members, f0, f1, f2, good)
        assert violations == ()
        assert dev <= 1e-9

    def test_small_grid_instance(self):
        K = 4
        sets, f0, f1, f2, forest = replacement_instance(
            K, 11, density2=0.1, level=1
        )
        assert forest
        good = build_good_function(f2, forest, sets.b2)
        members = [p for t in forest for p in t.members]
        dev, violations = replacement_check(members, f0, f1, f2, good)
        assert violations == ()
        assert dev <= 1e-9

    def test_check_sees_a_changed_coefficient(self):
        # one packet added inside a member's slot-2 box, on a row where the
        # middle function is alive, must show up as the oracle's deviation
        K = 5
        sets, f0, f1, f2, forest = replacement_instance(K, 0)
        good = build_good_function(f2, forest, sets.b2)
        members = sorted(
            {p for t in forest for p in t.members},
            key=lambda b: (-b.scale, b.m0, b.m2, b.n),
        )
        p, row = next(
            (p, row)
            for p in members
            for row in cells_of(p.time_interval(0), K)
            if f1.values[cells_of(p.time_interval(2), K), row].any()
        )
        spec = WavePacketSpec(p.time_interval(1).half(1), p.freq)
        g = good.g.values.copy()
        g[row] += wave_packet(spec, K).values
        bumped = dataclasses.replace(good, g=GridFunction2D(K, g))
        dev, _ = replacement_check(members, f0, f1, f2, bumped)
        want = max(
            abs(lambda_bitile(q, f0, f1, f2) - lambda_bitile(q, f0, f1, bumped.g))
            for q in members
        )
        assert want > 1e-6
        assert dev == pytest.approx(want, rel=1e-12)

    def test_empty_bitile_list(self):
        K = 3
        rng = np.random.default_rng(0)
        f = GridFunction2D(K, rng.standard_normal((8, 8)))
        good = build_good_function(f, [], GridFunction2D.zeros(K))
        z = GridFunction2D(K, np.zeros((8, 8)))
        dev, violations = replacement_check([], f, z, z, good)
        assert dev == 0.0
        assert violations == ()

    def test_untrimmed_data_is_reported(self):
        # A full-line region interval swallows every middle interval; a
        # middle function alive there and a slot-2 function spilling off
        # the region both have to show up as violations.
        K = 4
        ones = GridFunction2D(K, np.ones((16, 16)))
        b2 = indicator_box(
            DyadicInterval(0, 0), DyadicInterval(-1, 0), K
        )
        top = Bitile(-1, 0, 0, 1)
        good = build_good_function(ones, [Tree(top, (top,))], b2)
        dev, violations = replacement_check([top], ones, ones, ones, good)
        assert any("off the region" in v for v in violations)
        assert any("captured fibers" in v for v in violations)
        assert np.isfinite(dev)


class TestTranspose:
    def test_form_value_invariant(self):
        K = 3
        rng = np.random.default_rng(12)
        eps = EpsilonField.random(K, rng)
        fs = [GridFunction2D(K, rng.standard_normal((8, 8))) for _ in range(3)]
        g0, g1, g2, eps_t = transpose_instance(*fs, eps)
        lhs = lambda_direct(eps, *fs)
        rhs = lambda_direct(eps_t, g0, g1, g2)
        assert rhs == pytest.approx(lhs, rel=1e-12, abs=1e-14)

    def test_bitile_coefficients_swap_outer_indices(self):
        K = 3
        rng = np.random.default_rng(13)
        fs = [GridFunction2D(K, rng.standard_normal((8, 8))) for _ in range(3)]
        g0, g1, g2 = transpose_instance(*fs)
        for p in [Bitile(-1, 1, 0, 1), Bitile(-2, 3, 1, 0), Bitile(0, 0, 0, 2)]:
            q = Bitile(p.scale, p.m2, p.m0, p.n)
            assert lambda_bitile(q, g0, g1, g2) == pytest.approx(
                lambda_bitile(p, *fs), rel=1e-12, abs=1e-14
            )


class TestGNormReport:
    def test_single_tree_counting_function(self):
        K = 4
        top = Bitile(-1, 1, 0, 2)
        nk = counting_function([Tree(top, (top,))], K)
        want = np.zeros((16, 16))
        want[8:16, 8:16] = 1.0
        assert np.array_equal(nk.values, want)
        assert nk.norm(2.0) == pytest.approx(0.5)

    def test_report_against_hand_computation(self):
        K = 4
        rng = np.random.default_rng(8)
        f2 = GridFunction2D(K, rng.standard_normal((16, 16)))
        b2 = indicator_box(
            DyadicInterval(0, 0), DyadicInterval(-1, 0), K
        )
        top = Bitile(0, 0, 0, 2)
        forest = [Tree(top, (top,))]
        good = build_good_function(f2, forest, b2)
        report = g_norm_report(good, forest, p2=4.0 / 3.0, p=2.0)
        assert report["g_norm"] == pytest.approx(good.g.norm(2))
        assert report["counting_norm"] == pytest.approx(1.0)
        assert report["exponent"] == pytest.approx(0.5)
        assert report["ratio"] == pytest.approx(good.g.norm(2) ** 2)

    def test_zero_replacement_gives_zero_ratio(self):
        K = 3
        good = build_good_function(
            GridFunction2D.zeros(K), [], GridFunction2D.zeros(K)
        )
        report = g_norm_report(good, [], p2=4.0 / 3.0)
        assert report["g_norm"] == 0.0
        assert report["ratio"] == 0.0

    def test_rejects_bad_exponent(self):
        K = 3
        good = build_good_function(
            GridFunction2D.zeros(K), [], GridFunction2D.zeros(K)
        )
        with pytest.raises(ValueError, match="exceed 1"):
            g_norm_report(good, [], p2=1.0)

"""Wavelet and transform tests.

The transform is pinned by direct inner products against explicitly
constructed characters at small K; those regressions were frozen before
the fast path was written.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from walshlab.gridfn import GridFunction1D
from walshlab.walsh import DyadicInterval, WalshNumber, walsh_mul, character
from walshlab.wavelets import (
    WavePacketSpec,
    fwht,
    fwht_synthesis,
    haar,
    walsh_fn,
    walsh_rows,
    wave_packet,
)

from .oracles import project_region_1d, project_rows, project_tile_1d, walsh_character


def rand_fn(K, seed=0):
    rng = np.random.default_rng(seed)
    return GridFunction1D(K, rng.normal(size=1 << K))


class TestHaar:
    def test_values(self):
        h = haar(DyadicInterval(-1, 1), 3)
        assert h.values.tolist() == [0, 0, 0, 0, 1, 1, -1, -1]

    def test_norm_and_mean(self):
        for K, scale, index in [(4, 0, 0), (4, -2, 3), (6, -5, 17)]:
            h = haar(DyadicInterval(scale, index), K)
            assert h.integral() == pytest.approx(0.0)
            assert h.norm(2) ** 2 == pytest.approx(2.0 ** scale)

    def test_below_resolution(self):
        with pytest.raises(ValueError, match="interval below resolution"):
            haar(DyadicInterval(-3, 0), 3)

    def test_orthogonal_family(self):
        K = 4
        hs = [
            haar(DyadicInterval(s, m), K)
            for s in range(0, -K, -1)
            for m in range(1 << -s)
        ]
        for i, a in enumerate(hs):
            for b in hs[i + 1 :]:
                assert a.inner(b) == pytest.approx(0.0)


class TestWalshFn:
    def test_character_values(self):
        # w_N at cell i agrees with the sign character of N (*) (i 2^-K)
        K = 5
        for N in [0, 1, 2, 7, 19, 31]:
            w = walsh_fn(N, K)
            for i in range(1 << K):
                x = WalshNumber(i, K) if i else WalshNumber(0)
                assert w.values[i] == character(walsh_mul(WalshNumber(N), x))

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="frequency beyond resolution"):
            walsh_fn(8, 3)
        with pytest.raises(ValueError, match="frequency beyond resolution"):
            walsh_fn(-1, 3)

    def test_multiplicative_in_frequency(self):
        K = 4
        for M, N in [(3, 5), (7, 8), (1, 14)]:
            lhs = walsh_fn(M, K) * walsh_fn(N, K)
            rhs = walsh_fn(M ^ N, K)
            assert np.all(lhs.values == rhs.values)

    @pytest.mark.parametrize("K", range(0, 9))
    def test_rows_match_scalar_characters(self, K):
        W = walsh_rows(np.arange(1 << K), K)
        assert W.shape == (1 << K, 1 << K)
        for N in range(1 << K):
            assert W[N].tobytes() == walsh_character(N, K).values.tobytes()

    @pytest.mark.parametrize("nu", [-1, 8])
    def test_rows_out_of_range(self, nu):
        # a negative label must not index the table from its end
        with pytest.raises(ValueError, match="frequency beyond resolution"):
            walsh_rows([0, nu, 1], 3)

    @pytest.mark.parametrize("K", range(2, 11))
    def test_gram_identity(self, K):
        n = 1 << K
        W = np.stack([walsh_fn(N, K).values for N in range(n)])
        gram = (W @ W.T) * 2.0 ** (-K)
        assert np.max(np.abs(gram - np.eye(n))) == 0.0


class TestFWHT:
    def test_matches_direct_inner_products(self):
        for K in [1, 2, 3, 4]:
            f = rand_fn(K, seed=K)
            c = fwht(f)
            direct = [f.inner(walsh_fn(N, K)) for N in range(1 << K)]
            assert np.allclose(c.values, direct, atol=1e-12)

    def test_delta_has_flat_spectrum(self):
        K = 5
        v = np.zeros(1 << K)
        v[0] = 1.0
        c = fwht(GridFunction1D(K, v))
        assert np.allclose(c.values, 2.0 ** (-K))

    @given(st.integers(0, 2**31 - 1), st.integers(1, 7))
    @settings(max_examples=40)
    def test_involution_and_parseval(self, seed, K):
        f = rand_fn(K, seed)
        c = fwht(f)
        again = fwht(c)
        assert np.allclose(again.values, 2.0 ** (-K) * f.values, atol=1e-12)
        assert float(c.values @ c.values) == pytest.approx(f.norm(2) ** 2)

    def test_synthesis_inverts(self):
        f = rand_fn(6, seed=9)
        assert np.allclose(fwht_synthesis(fwht(f)).values, f.values, atol=1e-12)


class TestWavePacket:
    def test_unit_tile_is_character(self):
        K = 4
        spec = WavePacketSpec(DyadicInterval(0, 0), DyadicInterval(0, 5))
        assert np.all(wave_packet(spec, K).values == walsh_fn(5, K).values)

    def test_normalization(self):
        spec = WavePacketSpec(DyadicInterval(-2, 1), DyadicInterval(2, 1))
        w = wave_packet(spec, 5)
        assert w.norm(2) == pytest.approx(1.0)
        assert np.all(w.values[: 1 << 3] == 0)

    def test_frequency_beyond_resolution(self):
        with pytest.raises(ValueError, match="frequency beyond resolution"):
            wave_packet(WavePacketSpec(DyadicInterval(0, 0), DyadicInterval(3, 1)), 3)

    def test_orthonormal_over_fixed_interval(self):
        K = 5
        time = DyadicInterval(-2, 2)
        packets = [
            wave_packet(WavePacketSpec(time, DyadicInterval(2, nu)), K)
            for nu in range(8)
        ]
        for a in range(8):
            for b in range(8):
                assert packets[a].inner(packets[b]) == pytest.approx(float(a == b))

    @pytest.mark.parametrize("seed", range(4))
    def test_split_recursions(self, seed):
        # area-2 rectangle: frequency halves against time halves
        rng = np.random.default_rng(seed)
        K = 6
        k = int(rng.integers(-3, 1))  # time scale, area 2 => freq scale -k+1
        m = int(rng.integers(0, 1 << -k))
        time = DyadicInterval(k, m)
        n = int(rng.integers(0, 1 << (K + k - 1)))
        freq = DyadicInterval(1 - k, n)
        down = wave_packet(WavePacketSpec(time, freq.half(1)), K)
        up = wave_packet(WavePacketSpec(time, freq.half(-1)), K)
        left = wave_packet(WavePacketSpec(time.half(1), freq), K)
        right = wave_packet(WavePacketSpec(time.half(-1), freq), K)
        r = np.sqrt(2.0)
        assert np.allclose(up.values, (left.values - right.values) / r)
        assert np.allclose(down.values, (left.values + right.values) / r)


class TestProjectTile:
    def test_matches_rank_one_oracle(self):
        K = 5
        f = rand_fn(K, seed=3)
        for scale, index, fs, fi in [(-2, 1, 2, 2), (-1, 0, 2, 1), (0, 0, 1, 0)]:
            time, freq = DyadicInterval(scale, index), DyadicInterval(fs, fi)
            bk = K + scale
            cells = slice(index << bk, (index + 1) << bk)
            fast = np.zeros(1 << K)
            mask = np.arange(1 << bk) >> (fs + scale) == fi
            fast[cells] = project_rows(f.values[None, cells], bk, mask)[0]
            slow = project_tile_1d(f, time, freq)
            assert np.allclose(fast, slow.values, atol=1e-12)

    def test_full_frequency_is_restriction(self):
        K = 4
        f = rand_fn(K, seed=5)
        time = DyadicInterval(-2, 3)
        p = project_tile_1d(f, time, DyadicInterval(K, 0))  # freq [0, 2^K)
        assert np.allclose(p.values, f.restrict(time).values)

    def test_area_below_one_rejected(self):
        f = rand_fn(4)
        with pytest.raises(ValueError, match="tile area must be at least 1"):
            project_tile_1d(f, DyadicInterval(-2, 0), DyadicInterval(1, 0))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25)
    def test_idempotent_selfadjoint_contractive(self, seed):
        K = 5
        rng = np.random.default_rng(seed)
        f = GridFunction1D(K, rng.normal(size=1 << K))
        g = GridFunction1D(K, rng.normal(size=1 << K))
        time = DyadicInterval(-2, int(rng.integers(0, 4)))
        freq = DyadicInterval(2, int(rng.integers(0, 4)))
        P = lambda u: project_tile_1d(u, time, freq)
        pf = P(f)
        assert np.allclose(P(pf).values, pf.values, atol=1e-12)
        assert pf.inner(g) == pytest.approx(f.inner(P(g)))
        assert pf.norm(2) <= f.norm(2) + 1e-12

    def test_disjoint_tiles_orthogonal(self):
        K = 5
        f = rand_fn(K, seed=11)
        time = DyadicInterval(-1, 1)
        p1 = project_tile_1d(f, time, DyadicInterval(1, 1))
        p2 = project_tile_1d(f, time, DyadicInterval(1, 2))
        assert p1.inner(p2) == pytest.approx(0.0, abs=1e-12)


class TestProjectRegion:
    def test_unit_multiplier_reduces_to_tile(self):
        K = 5
        f = rand_fn(K, seed=7)
        time = DyadicInterval(-2, 2)
        freq = DyadicInterval(2, 3)
        a = project_region_1d(f, time, WalshNumber(1), freq)
        b = project_tile_1d(f, time, freq)
        assert np.allclose(a.values, b.values, atol=1e-12)

    def test_matches_membership_enumeration(self):
        K = 4
        f = rand_fn(K, seed=8)
        time = DyadicInterval(-1, 1)
        freq = DyadicInterval(2, 1)
        a = WalshNumber.from_float(1.5)
        got = project_region_1d(f, time, a, freq)
        # brute force: image of freq's granularity-K grid under a
        image = {
            walsh_mul(a, WalshNumber(m, K))
            for m in range(freq.index << (freq.scale + K), (freq.index + 1) << (freq.scale + K))
        }
        expect = GridFunction1D.zeros(K)
        for nu in range(1 << (K + time.scale)):
            if WalshNumber(nu, time.scale) in image:
                w = wave_packet(
                    WavePacketSpec(time, DyadicInterval(-time.scale, nu)), K
                )
                expect = expect + f.inner(w) * w
        assert np.allclose(got.values, expect.values, atol=1e-12)

    def test_degenerate_multiplier(self):
        f = rand_fn(3)
        with pytest.raises(ValueError, match="degenerate multiplier"):
            project_region_1d(f, DyadicInterval(0, 0), WalshNumber(0), DyadicInterval(0, 1))

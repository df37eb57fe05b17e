"""Trilinear form tests.

The oracle is a literal triple loop over interval triples and grid cells,
written before the kernel path and kept frozen here.
"""

import math

import numpy as np
import pytest

from walshlab.gridfn import GridFunction1D, GridFunction2D
from walshlab.tiles import Bitile, all_bitiles, scale_views
from walshlab.triform import (
    EpsilonField,
    bitile_table,
    constant_interval_weights,
    haar_multiplier,
    lambda_bitile,
    lambda_bitile_sum,
    lambda_direct,
    lambda_tree,
    max_mod_haar,
    max_mod_haar_sup,
    offset_form,
    random_interval_weights,
    substitution_endpoint,
    substitution_modulated,
    substitution_offset,
    telescoping_profile,
)

from .oracles import eps_weight, max_mod_haar_per_label, offset_form_scalar


def lambda_oracle(eps, F0, F1, F2):
    """Direct sum over interval triples and cells."""
    K = F0.resolution
    n = 1 << K
    total = 0.0
    for k in eps.scales:
        block = 1 << (K + k)
        for m0 in range(1 << -k):
            for m2 in range(1 << -k):
                w = eps.data[k][m0, m2]
                if w == 0.0:
                    continue
                m1 = m0 ^ m2
                acc = 0.0
                for i0 in range(m0 * block, (m0 + 1) * block):
                    h0 = 1.0 if i0 - m0 * block < block // 2 else -1.0
                    for i1 in range(m1 * block, (m1 + 1) * block):
                        h1 = 1.0 if i1 - m1 * block < block // 2 else -1.0
                        for i2 in range(m2 * block, (m2 + 1) * block):
                            h2 = 1.0 if i2 - m2 * block < block // 2 else -1.0
                            acc += (
                                h0
                                * h1
                                * h2
                                * F0.values[i1, i2]
                                * F1.values[i2, i0]
                                * F2.values[i0, i1]
                            )
                total += w * 2.0 ** (-k) * acc / n**3
    return total


def rand_triple(K, seed):
    rng = np.random.default_rng(seed)
    return tuple(
        GridFunction2D(K, rng.normal(size=(1 << K, 1 << K))) for _ in range(3)
    )


class TestLambdaDirect:
    @pytest.mark.parametrize("K", [2, 3])
    def test_matches_oracle(self, K):
        rng = np.random.default_rng(K)
        eps = EpsilonField.random(K, rng, signs_only=False)
        F0, F1, F2 = rand_triple(K, K + 10)
        got = lambda_direct(eps, F0, F1, F2)
        want = lambda_oracle(eps, F0, F1, F2)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-14)

    def test_trilinear(self):
        K = 3
        rng = np.random.default_rng(0)
        eps = EpsilonField.random(K, rng)
        F0, F1, F2 = rand_triple(K, 1)
        G0 = rand_triple(K, 2)[0]
        lhs = lambda_direct(eps, F0 + G0, F1, F2)
        rhs = lambda_direct(eps, F0, F1, F2) + lambda_direct(eps, G0, F1, F2)
        assert lhs == pytest.approx(rhs, rel=1e-12)
        assert lambda_direct(eps, 2.0 * F0, F1, F2) == pytest.approx(
            2.0 * lambda_direct(eps, F0, F1, F2), rel=1e-12
        )

    def test_single_scale_indicator(self):
        # eps supported on one triple picks out exactly that triple
        K = 3
        data = {-1: np.zeros((2, 2))}
        data[-1][1, 0] = 1.0
        eps = EpsilonField(K, data)
        F0, F1, F2 = rand_triple(K, 3)
        got = lambda_direct(eps, F0, F1, F2)
        want = lambda_oracle(eps, F0, F1, F2)
        assert got == pytest.approx(want, rel=1e-12)

    def test_resolution_mismatch(self):
        eps = EpsilonField.constant(3)
        F = GridFunction2D.zeros(2)
        with pytest.raises(ValueError, match="resolution mismatch"):
            lambda_direct(eps, F, F, F)


class TestEpsilonField:
    def test_validation(self):
        with pytest.raises(ValueError, match="weights must lie"):
            EpsilonField(2, {0: np.array([[2.0]])})
        with pytest.raises(ValueError, match="shape"):
            EpsilonField(2, {-1: np.ones((2, 3))})
        with pytest.raises(ValueError, match="scale outside"):
            EpsilonField(2, {-2: np.ones((4, 4))})

    def test_interval_weights_broadcast(self):
        w = {-1: np.array([1.0, -1.0])}
        eps = EpsilonField.from_interval_weights(w, 3)
        assert eps.data[-1].tolist() == [[1.0, 1.0], [-1.0, -1.0]]

    def test_offset_weights_index(self):
        w = {-1: np.array([0.25, -0.5])}
        eps = EpsilonField.from_offset_weights(w, 3, shift=1)
        # index m0 ^ (m2 >> 1): rows m0, cols m2
        assert eps.data[-1].tolist() == [[0.25, 0.25], [-0.5, -0.5]]
        eps2 = EpsilonField.from_offset_weights(w, 3, shift=2)
        assert eps2.data[-1][1, 1] == -0.5


class TestTelescoping:
    @pytest.mark.parametrize("coarsest", range(-6, 1))
    def test_profile_matches_closed_form(self, coarsest):
        kernel, target = telescoping_profile(6, coarsest)
        assert np.max(np.abs(kernel - target)) == 0.0

    def test_constant_field_telescopes_in_form(self):
        # the form with unit signs over scales m+1..0 equals the kernel
        # difference applied to the diagonal product
        K = 4
        m = -2
        F0, F1, F2 = rand_triple(K, 4)
        eps = EpsilonField.constant(K, 1.0, scales=range(m + 1, 1))
        got = lambda_direct(eps, F0, F1, F2)
        n = 1 << K
        kernel, _ = telescoping_profile(K, m)
        total = 0.0
        for i0 in range(n):
            for i2 in range(n):
                for i1 in range(n):
                    s = i0 ^ i1 ^ i2
                    total += (
                        kernel[s]
                        * F0.values[i1, i2]
                        * F1.values[i2, i0]
                        * F2.values[i0, i1]
                    )
        want = total / n**3
        assert got == pytest.approx(want, rel=1e-11)


class TestBitileDecomposition:
    @pytest.mark.parametrize("K", [3, 4])
    def test_sum_matches_direct(self, K):
        rng = np.random.default_rng(K + 20)
        eps = EpsilonField.random(K, rng, signs_only=False)
        F0, F1, F2 = rand_triple(K, K + 30)
        fast = lambda_bitile_sum(eps, F0, F1, F2)
        direct = lambda_direct(eps, F0, F1, F2)
        assert fast == pytest.approx(direct, rel=1e-11, abs=1e-13)

    def test_standalone_bitiles_sum_to_fast_path(self):
        K = 3
        rng = np.random.default_rng(40)
        eps = EpsilonField.random(K, rng)
        F0, F1, F2 = rand_triple(K, 41)
        slow = math.fsum(
            eps_weight(eps, P) * lambda_bitile(P, F0, F1, F2) for P in all_bitiles(K)
        )
        fast = lambda_bitile_sum(eps, F0, F1, F2)
        assert slow == pytest.approx(fast, rel=1e-11, abs=1e-13)

    def test_lambda_tree_is_partial_sum(self):
        K = 3
        rng = np.random.default_rng(42)
        eps = EpsilonField.random(K, rng)
        F0, F1, F2 = rand_triple(K, 43)
        tree = [Q for Q in all_bitiles(K) if Q.scale == -1 and Q.m0 == 0]
        want = math.fsum(eps_weight(eps, P) * lambda_bitile(P, F0, F1, F2) for P in tree)
        assert lambda_tree(tree, eps, F0, F1, F2) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("K", [2, 3, 4])
    def test_table_matches_explicit_packets(self, K):
        # independent, non-symmetric data in all three slots
        F0, F1, F2 = rand_triple(K, K + 50)
        table = scale_views(bitile_table(F0, F1, F2, range(1 - K, 1)))
        assert {k: t.shape for k, t in table.items()} == {
            k: (1 << -k, 1 << -k, 1 << (K + k - 1)) for k in range(1 - K, 1)
        }
        top = max(np.abs(t).max() for t in table.values())
        for P in all_bitiles(K):
            want = lambda_bitile(P, F0, F1, F2)
            assert abs(table[P.scale][P.m0, P.m2, P.n] - want) <= 1e-13 * top

    def test_lambda_tree_counts_repeats(self):
        K = 3
        eps = EpsilonField.random(K, np.random.default_rng(44))
        F0, F1, F2 = rand_triple(K, 45)
        P, Q = Bitile(-1, 1, 0, 1), Bitile(0, 0, 0, 3)
        once = lambda_tree([P, Q], eps, F0, F1, F2)
        twice = lambda_tree([P, Q, P], eps, F0, F1, F2)
        extra = eps_weight(eps, P) * lambda_bitile(P, F0, F1, F2)
        assert extra != 0.0
        assert twice - once == pytest.approx(extra, rel=1e-12)

    @pytest.mark.parametrize(
        "bad", [Bitile(-3, 0, 0, 0), Bitile(0, 0, 0, 4), Bitile(-1, 2, 0, 0)]
    )
    def test_lambda_tree_rejects_misfits(self, bad):
        K = 3
        F = GridFunction2D.zeros(K)
        eps = EpsilonField.constant(K)
        with pytest.raises(ValueError):
            lambda_tree([Bitile(0, 0, 0, 0), bad], eps, F, F, F)

    def test_bitile_errors(self):
        F = GridFunction2D.zeros(3)
        with pytest.raises(ValueError, match="interval below resolution"):
            lambda_bitile(Bitile(-3, 0, 0, 0), F, F, F)
        with pytest.raises(ValueError, match="frequency beyond resolution"):
            lambda_bitile(Bitile(0, 0, 0, 4), F, F, F)


class TestHaarMultiplier:
    def test_unit_weights_remove_mean(self):
        K = 5
        rng = np.random.default_rng(7)
        f = GridFunction1D(K, rng.normal(size=1 << K))
        g = haar_multiplier(constant_interval_weights(K), f)
        assert np.allclose(g.values, f.values - f.integral(), atol=1e-12)

    def test_sign_weights_isometry_on_mean_free(self):
        K = 5
        rng = np.random.default_rng(8)
        f = GridFunction1D(K, rng.normal(size=1 << K))
        w = random_interval_weights(K, rng)
        g = haar_multiplier(w, f)
        assert g.norm(2) ** 2 == pytest.approx(
            f.norm(2) ** 2 - f.integral() ** 2, rel=1e-11
        )

    def test_eigenfunctions(self):
        K = 4
        w = random_interval_weights(K, np.random.default_rng(9))
        for scale in range(0, -K + 1, -1):
            for index in [0, (1 << -scale) - 1]:
                from walshlab.walsh import DyadicInterval
                from walshlab.wavelets import haar

                h = haar(DyadicInterval(scale, index), K)
                out = haar_multiplier(w, h)
                assert np.allclose(
                    out.values, w[scale][index] * h.values, atol=1e-12
                )


class TestModulatedIdentity:
    @pytest.mark.parametrize("seed", range(4))
    def test_form_equals_modulated_pairing(self, seed):
        K = 4
        rng = np.random.default_rng(seed + 100)
        f = GridFunction1D(K, rng.normal(size=1 << K))
        g = GridFunction1D(K, rng.normal(size=1 << K))
        labels = rng.integers(0, 1 << K, size=1 << K)
        w = random_interval_weights(K, rng)
        F0, F1, F2 = substitution_modulated(f, g, labels)
        lhs = lambda_direct(EpsilonField.from_interval_weights(w, K), F0, F1, F2)
        rhs = max_mod_haar(w, labels, f).inner(g)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-13)


class TestEndpointIdentity:
    @pytest.mark.parametrize("seed", range(4))
    def test_form_equals_endpoint_pairing(self, seed):
        K = 4
        rng = np.random.default_rng(seed + 200)
        f, g, h = (
            GridFunction1D(K, rng.normal(size=1 << K)) for _ in range(3)
        )
        w = random_interval_weights(K, rng)
        F0, F1, F2 = substitution_endpoint(f, g, h)
        lhs = lambda_direct(EpsilonField.from_interval_weights(w, K), F0, F1, F2)
        rhs = f.inner(haar_multiplier(w, g * h))
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-13)


class TestOffsetForm:
    @pytest.mark.parametrize("L", [1, 2])
    @pytest.mark.parametrize("K", [3, 4])
    def test_three_routes_agree(self, K, L):
        rng = np.random.default_rng(10 * K + L)
        f, g, h = (
            GridFunction1D(K, rng.normal(size=1 << K)) for _ in range(3)
        )
        w = random_interval_weights(K, rng)
        proj, coef = offset_form(w, L, f, g, h)
        assert proj == pytest.approx(coef, rel=1e-10, abs=1e-13)
        F0, F1, F2 = substitution_offset(f, g, h, L)
        direct = lambda_direct(
            EpsilonField.from_offset_weights(w, K, L), F0, F1, F2
        )
        assert direct == pytest.approx(coef, rel=1e-10, abs=1e-13)

    def test_bad_shift(self):
        f = GridFunction1D.zeros(3)
        with pytest.raises(ValueError, match="shift must be at least 1"):
            offset_form(constant_interval_weights(3), 0, f, f, f)


class TestArrayPassesMatchScalarLoops:
    """`offset_form` and `max_mod_haar` against their scalar loops, bit for bit."""

    @pytest.mark.parametrize("L", [1, 2, 3])
    @pytest.mark.parametrize("K", range(2, 9))
    def test_offset_form_floats(self, K, L):
        rng = np.random.default_rng(100 * K + L)
        f, g, h = (GridFunction1D(K, rng.normal(size=1 << K)) for _ in range(3))
        w = random_interval_weights(K, rng)
        w[0] = np.zeros(1)  # intervals of weight zero are left out
        got = offset_form(w, L, f, g, h)
        want = offset_form_scalar(w, L, f, g, h)
        assert [x.hex() for x in got] == [x.hex() for x in want]

    @pytest.mark.parametrize("K", range(1, 9))
    def test_max_mod_haar_bytes(self, K):
        n = 1 << K
        rng = np.random.default_rng(K)
        f = GridFunction1D(K, rng.normal(size=n))
        w = random_interval_weights(K, rng)
        single, distinct = np.full(n, n - 1), rng.permutation(n)
        for labels in (rng.integers(0, n, size=n), single, distinct):
            got = max_mod_haar(w, labels, f).values
            assert got.tobytes() == max_mod_haar_per_label(w, labels, f).values.tobytes()

    @pytest.mark.parametrize("K", [1, 5, 11])  # K = 11 takes four blocks
    def test_max_mod_haar_sup_bytes(self, K):
        n = 1 << K
        rng = np.random.default_rng(30 + K)
        f = GridFunction1D(K, rng.normal(size=n))
        w = random_interval_weights(K, rng)
        want = np.zeros(n)
        for nu in range(n):
            np.maximum(want, np.abs(max_mod_haar(w, np.full(n, nu), f).values), out=want)
        assert max_mod_haar_sup(w, f).values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("nu", [-1, 8])
    def test_label_out_of_range(self, nu):
        f = GridFunction1D(3, np.ones(8))
        labels = np.zeros(8, dtype=np.int64)
        labels[5] = nu
        with pytest.raises(ValueError, match="frequency beyond resolution"):
            max_mod_haar(constant_interval_weights(3), labels, f)
        with pytest.raises(ValueError, match="frequency beyond resolution"):
            substitution_modulated(f, f, labels)

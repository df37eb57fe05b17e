"""Differential tests of the block kernels against literal oracles.

The per-scale trilinear sum is checked cell by cell, the full form against
the interval-triple oracle of test_triform, and the batched bitile sum
against the explicit-packet bitile contributions.  The block gathers, the
row-axis packet transform, `lambda_direct` and `bitile_table` are checked
bit for bit against the fancy-index and last-axis versions they replaced.
The last test pins the property that the form does not depend on the BLAS
thread count.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import walshlab
from walshlab._kernels import (
    bit_reversal,
    pair_blocks,
    triform_scale_sum,
    walsh_blocks,
)
from walshlab.tiles import all_bitiles, scale_views
from walshlab.triform import (
    EpsilonField,
    bitile_table,
    lambda_bitile,
    lambda_bitile_sum,
    lambda_direct,
)
from walshlab.wavelets import coefficient_rows, synthesis_rows

from .oracles import (
    bit_reversed,
    bitile_table_last_axis,
    coefficient_rows_gather,
    eps_weight,
    lambda_direct_fancy,
    pair_blocks_fancy,
    row_coefficients,
    synthesis_rows_gather,
)
from .test_triform import lambda_oracle, rand_triple


def scale_sum_oracle(F0, F1, F2, epsk, shift):
    """Literal loops over i0, i2 and the offset s; returns (sum, sum of |terms|)."""
    n = F0.shape[0]
    total = 0.0
    mass = 0.0
    for i0 in range(n):
        for i2 in range(n):
            e = epsk[i0 >> shift, i2 >> shift]
            for s in range(1 << shift):
                i1 = i0 ^ i2 ^ s
                r = -1.0 if (s >> (shift - 1)) & 1 else 1.0
                term = e * r * F0[i1, i2] * F1[i2, i0] * F2[i0, i1]
                total += term
                mass += abs(term)
    return total, mass


def fractional_eps(K, rng):
    """eps in [-1, 1] with about a third of the entries exactly zero."""
    eps = EpsilonField.random(K, rng, signs_only=False)
    for a in eps.data.values():
        a[rng.random(a.shape) < 0.3] = 0.0
    return eps


@pytest.mark.parametrize("K", [2, 3, 4, 5])
def test_scale_sum_matches_cell_oracle(K):
    rng = np.random.default_rng(100 + K)
    eps = fractional_eps(K, rng)
    F0, F1, F2 = (F.values for F in rand_triple(K, 110 + K))
    for k in eps.scales:
        got = triform_scale_sum(F0, F1, F2, eps.data[k], K + k)
        want, mass = scale_sum_oracle(F0, F1, F2, eps.data[k], K + k)
        assert abs(got - want) <= 1e-13 * mass, (k, got, want)


@pytest.mark.parametrize("K", range(0, 11))
def test_bit_reversal_matches_binary_strings(K):
    want = [bit_reversed(i, K) for i in range(1 << K)]
    assert bit_reversal(K).dtype == np.int64 and bit_reversal(K).tolist() == want


def test_bit_reversal_is_read_only():
    # the cached permutation is shared by every transform in the process
    with pytest.raises(ValueError):
        bit_reversal(3)[0] = 1
    assert bit_reversal(3).tolist() == [0, 4, 2, 6, 1, 5, 3, 7]


def test_scale_sum_zero_eps():
    F0, F1, F2 = (F.values for F in rand_triple(3, 7))
    assert triform_scale_sum(F0, F1, F2, np.zeros((4, 4)), 1) == 0.0


@pytest.mark.parametrize("shift,pairs", [(1, 3), (1, 16), (2, 4), (2, 16), (3, 1)])
def test_pair_blocks_matches_slices(shift, pairs):
    # both memory layouts (pairs below and at least B^2) give the same stack
    rng = np.random.default_rng(shift * 10 + pairs)
    n = 16
    B = 1 << shift
    F = rng.normal(size=(n, n))
    rows = rng.integers(0, n // B, size=pairs)
    cols = rng.integers(0, n // B, size=pairs)
    for src in (F, F.T):
        got = pair_blocks(src, shift, rows, cols)
        assert got.shape == (pairs, B, B)
        for p in range(pairs):
            want = src[rows[p] * B : (rows[p] + 1) * B, cols[p] * B : (cols[p] + 1) * B]
            assert np.array_equal(got[p], want)


@pytest.mark.parametrize("K", [3, 6, 8])
@pytest.mark.parametrize("sparse", [False, True], ids=["full", "sparse"])
def test_pair_blocks_match_fancy_index(K, sparse):
    # every shift, so both layouts (pairs below and at least B^2), on the
    # pair lists the kernels gather and on a source and its transpose
    rng = np.random.default_rng(K)
    n = 1 << K
    F = rng.normal(size=(n, n))
    for shift in range(1, K + 1):
        nb = n >> shift
        keep = rng.random((nb, nb)) < 0.5 if sparse else np.ones((nb, nb), bool)
        m0, m2 = np.nonzero(keep)
        for src in (F, F.T):
            for rows, cols in ((m0, m0 ^ m2), (m0 ^ m2, m2), (m0, m2)):
                got = pair_blocks(src, shift, rows, cols)
                want = pair_blocks_fancy(src, shift, rows, cols)
                assert np.array_equal(got, want), (shift, len(rows))
                assert got.strides == want.strides, (shift, len(rows))


@pytest.mark.parametrize("K", range(1, 9))
def test_row_coefficients_match_last_axis_transform(K):
    rng = np.random.default_rng(40 + K)
    n = 1 << K
    a = rng.normal(size=(n, n))
    a[rng.random((n, n)) < 0.1] = -0.0
    for s in range(K):
        want = coefficient_rows(a.T.reshape(n, -1, 1 << s), s).reshape(n, n).T
        got = coefficient_rows(a, s, axis=0)
        assert np.array_equal(got, want), s
        assert np.array_equal(np.signbit(got), np.signbit(want)), s


def _same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def _butterfly_inputs(K, rng):
    """(2^K, 6) data of three kinds, each C-ordered, Fortran-ordered and read-only."""
    n = 1 << K
    x = rng.normal(size=(n, 6))
    x[rng.random(x.shape) < 0.1] = -0.0
    for kind, data in (
        ("normal", x),
        ("integer", rng.integers(-9, 10, size=(n, 6))),
        ("tiny", x * 1e-300),
    ):
        frozen = data.copy()
        frozen.flags.writeable = False
        yield kind, (data, np.asfortranarray(data), frozen)


@pytest.mark.parametrize("K", range(0, 10))
def test_walsh_blocks_match_the_butterflies_they_replaced(K):
    # every block resolution, down the rows (axis 0) and along the last
    # axis of the transpose, against the gather-first transform along the
    # last axis and the row-axis transform; sign bits included
    rng = np.random.default_rng(700 + K)
    n = 1 << K
    for kind, sources in _butterfly_inputs(K, rng):
        for a in sources:
            before = a.copy()
            for s in range(K + 1):
                B = 1 << s
                last = coefficient_rows_gather(a.T.reshape(6, -1, B), s).reshape(6, n)
                rows = coefficient_rows(a, s, axis=0)
                assert rows.flags.c_contiguous and not np.shares_memory(rows, a)
                assert _same_bits(rows, last.T), (kind, s)
                assert _same_bits(rows, row_coefficients(a, s)), (kind, s)
                assert _same_bits(coefficient_rows(a.T, s), last), (kind, s)
                unscaled = synthesis_rows_gather(a.T.reshape(6, -1, B), s).reshape(6, n)
                assert _same_bits(walsh_blocks(a, s, axis=0), unscaled.T), (kind, s)
                assert _same_bits(walsh_blocks(a.T, s), unscaled), (kind, s)
                assert _same_bits(synthesis_rows(a.T.reshape(6, -1, B), s).reshape(6, n), unscaled)
            assert _same_bits(a, before), kind


@pytest.mark.parametrize("K", [0, 1, 3, 5])
def test_walsh_blocks_along_a_middle_axis(K):
    rng = np.random.default_rng(800 + K)
    n = 1 << K
    x = rng.normal(size=(3, n, 5))
    for s in range(K + 1):
        want = coefficient_rows_gather(np.moveaxis(x, 1, -1).reshape(3, 5, -1, 1 << s), s)
        want = np.moveaxis(want.reshape(3, 5, n), -1, 1)
        assert _same_bits(coefficient_rows(x, s, axis=1), want), s
        assert _same_bits(coefficient_rows(x, s, axis=-2), want), s


def _eps_kinds(K, rng):
    signs = EpsilonField.random(K, rng)
    holes = EpsilonField.random(K, rng)
    for a in holes.data.values():
        a[rng.random(a.shape) < 0.3] = 0.0
    return {"signs": signs, "fractional": fractional_eps(K, rng), "signs-zeros": holes}


@pytest.mark.parametrize("K", range(2, 9))
def test_kernels_bit_equal_to_fancy_index_versions(K):
    rng = np.random.default_rng(600 + K)
    F0, F1, F2 = rand_triple(K, 610 + K)
    for name, eps in _eps_kinds(K, rng).items():
        got = lambda_direct(eps, F0, F1, F2)
        assert got == lambda_direct_fancy(eps, F0, F1, F2), name
    scales = list(range(-K + 1, 1))
    got = scale_views(bitile_table(F0, F1, F2, scales))
    want = bitile_table_last_axis(F0, F1, F2, scales)
    assert sorted(got) == sorted(want)
    for k in scales:
        assert got[k].shape == want[k].shape, k
        assert got[k].tobytes() == want[k].tobytes(), k


@pytest.mark.parametrize("K", [2, 3, 4])
def test_lambda_direct_matches_oracle(K):
    rng = np.random.default_rng(200 + K)
    eps = fractional_eps(K, rng)
    F0, F1, F2 = rand_triple(K, 210 + K)
    got = lambda_direct(eps, F0, F1, F2)
    want = lambda_oracle(eps, F0, F1, F2)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-14)


def test_bitile_sum_matches_standalone_bitiles_k4():
    K = 4
    rng = np.random.default_rng(300)
    eps = fractional_eps(K, rng)
    F0, F1, F2 = rand_triple(K, 301)
    slow = math.fsum(
        eps_weight(eps, P) * lambda_bitile(P, F0, F1, F2) for P in all_bitiles(K)
    )
    fast = lambda_bitile_sum(eps, F0, F1, F2)
    assert fast == pytest.approx(slow, rel=1e-11, abs=1e-13)


def test_bitile_sum_matches_direct_k6():
    K = 6
    rng = np.random.default_rng(400)
    eps = fractional_eps(K, rng)
    F0, F1, F2 = rand_triple(K, 401)
    fast = lambda_bitile_sum(eps, F0, F1, F2)
    direct = lambda_direct(eps, F0, F1, F2)
    assert fast == pytest.approx(direct, rel=1e-11, abs=1e-13)


_FORM_K7 = """
import numpy as np
from walshlab.gridfn import GridFunction2D
from walshlab.triform import EpsilonField, lambda_bitile_sum, lambda_direct

K = 7
rng = np.random.default_rng(500)
eps = EpsilonField.random(K, rng, signs_only=False)
F = [GridFunction2D(K, rng.normal(size=(1 << K, 1 << K))) for _ in range(3)]
print(lambda_direct(eps, *F).hex(), lambda_bitile_sum(eps, *F).hex())
"""


def _form_k7(blas_threads):
    env = dict(os.environ)
    env.pop("OMP_NUM_THREADS", None)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    src = os.path.dirname(os.path.dirname(os.path.abspath(walshlab.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", _FORM_K7],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.split()


def test_form_bits_independent_of_blas_threads():
    one = _form_k7(1)
    default = _form_k7(None)
    assert len(one) == 2
    assert one == default

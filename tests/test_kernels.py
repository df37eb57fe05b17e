"""Differential tests of the block kernels against literal oracles.

The per-scale trilinear sum is checked cell by cell, the full form against
the interval-triple oracle of test_triform, and the batched bitile sum
against the explicit-packet bitile contributions.  The last test pins the
property that the form does not depend on the BLAS thread count.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import walshlab
from walshlab._kernels import pair_blocks, triform_scale_sum
from walshlab.tiles import all_bitiles
from walshlab.triform import (
    EpsilonField,
    lambda_bitile,
    lambda_bitile_sum,
    lambda_direct,
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
        eps.weight(P) * lambda_bitile(P, F0, F1, F2) for P in all_bitiles(K)
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

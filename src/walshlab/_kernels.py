"""Hot loops: Hadamard butterflies and the per-scale trilinear sum.

The trilinear sum rests on one identity.  Inside a scale of 2^shift cells
per interval, write each cell as its interval's offset plus a local index
a < 2^shift and let hs(a) = -1 on the upper half of the interval, +1 on
the lower.  Top bits add under XOR, so the Haar sign of the offset s with
i1 = i0 ^ i2 ^ s factors as hs(a0) hs(a1) hs(a2).  The sum over one
interval triple (I0, I1, I2) is then a trace of block products,

    sum_{a0,a2} hs(a0) hs(a2) (F2[I0,I1] diag(hs) F0[I1,I2])[a0,a2] F1[I2,I0][a2,a0],

and one batched contraction over the interval pairs evaluates a scale.
The contractions use np.einsum, which does not call BLAS, so the result
does not depend on the BLAS thread count.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

USING_NUMBA = False  # a single numpy build; perfbench records this flag with its results


@lru_cache(maxsize=None)
def bit_reversal(resolution: int) -> np.ndarray:
    """Permutation reversing the low `resolution` bits of each index."""
    n = 1 << resolution
    rev = np.zeros(n, dtype=np.int64)
    for i in range(n):
        r = 0
        v = i
        for _ in range(resolution):
            r = (r << 1) | (v & 1)
            v >>= 1
        rev[i] = r
    return rev


def wht_rows(a: np.ndarray) -> None:
    """In-place Hadamard butterfly along the last axis of a (rows, n) array."""
    rows, n = a.shape
    h = 1
    while h < n:
        v = a.reshape(rows, n // (2 * h), 2, h)
        x = v[:, :, 0, :] + v[:, :, 1, :]
        y = v[:, :, 0, :] - v[:, :, 1, :]
        v[:, :, 0, :] = x
        v[:, :, 1, :] = y
        h *= 2


def haar_signs(shift: int) -> np.ndarray:
    """hs over the 2^shift local cells of one interval: +1 lower, -1 upper half."""
    block = 1 << shift
    out = np.ones(block)
    out[block // 2 :] = -1.0
    return out


def pair_blocks(F: np.ndarray, shift: int, rows, cols) -> np.ndarray:
    """Blocks F[I_rows[p], I_cols[p]] of side B = 2^shift, stacked as (P, B, B).

    `rows` and `cols` hold interval indices at that side, one pair p per
    entry.  The stack is a copy, contiguous in memory with the pair axis
    outermost when P < B^2 and innermost otherwise: einsum keeps that
    layout and runs its inner loop along the last axis in memory, so many
    small blocks would otherwise cost one short loop each.
    """
    block = 1 << shift
    nb = F.shape[0] >> shift
    tiles = F.reshape(nb, block, nb, block)
    if len(rows) < block * block:
        return np.ascontiguousarray(tiles.transpose(0, 2, 1, 3)[rows, cols])
    stack = np.ascontiguousarray(tiles.transpose(1, 3, 0, 2)[:, :, rows, cols])
    return stack.transpose(2, 0, 1)


def triform_scale_sum(F0, F1, F2, epsk, shift) -> float:
    """Sum over cells i0, i2 and offsets s < 2^shift of the signed product

        eps[i0 >> shift, i2 >> shift] * r(s) * F0[i1,i2] F1[i2,i0] F2[i0,i1]

    with i1 = i0 ^ i2 ^ s and r(s) the Haar sign of the offset (bit
    shift-1).  With local indices a = i mod 2^shift, r(s) = hs(a0) hs(a1)
    hs(a2), so each interval pair (m0, m2), m1 = m0 ^ m2, contributes

        eps[m0, m2] sum_{a0,a2} (diag(hs) F2[I0,I1] diag(hs) F0[I1,I2])[a0,a2]
                                * hs(a2) F1[I2,I0][a2,a0],

    one product of 2^shift blocks per pair with eps nonzero.  The caller
    applies the scale weight and the grid measure.
    """
    m0, m2 = np.nonzero(epsk)
    m1 = m0 ^ m2
    hs = haar_signs(shift)
    left = pair_blocks(F2, shift, m0, m1) * np.outer(hs, hs)
    prod = np.einsum("pij,pjk->pik", left, pair_blocks(F0, shift, m1, m2))
    right = pair_blocks(F1.T, shift, m0, m2) * hs  # [p, a0, a2] = F1[i2, i0] hs(a2)
    right *= epsk[m0, m2][:, None, None]
    return float(np.sum(prod * right))

"""Hot loops: the Walsh butterflies and the per-scale trilinear sum.

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

The bits also depend on the operands' memory layout, since einsum loops in
memory order.  So the block gathers pick their layout by size and copy the
blocks whole, and the +-1 sign flips, which are exact and commute with
rounding, are fused and applied in place.  `walsh_blocks` runs the
butterflies on natural order, largest stage first, and bit-reverses each
block after: decimation in frequency on natural order does the same
additions, on the same operands, as decimation in time on bit-reversed
input, so the bits do not depend on the axis transformed.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

USING_NUMBA = False  # a single numpy build; perfbench records this flag with its results


@lru_cache(maxsize=None)
def bit_reversal(resolution: int) -> np.ndarray:
    """Permutation reversing the low `resolution` bits of each index."""
    idx = np.arange(1 << resolution, dtype=np.int64)
    rev = np.zeros_like(idx)
    for b in range(resolution):
        rev |= (idx >> b & 1) << (resolution - 1 - b)
    rev.flags.writeable = False  # cached: a write would corrupt later transforms
    return rev


def walsh_blocks(a: np.ndarray, resolution: int, axis: int = -1) -> np.ndarray:
    """Unscaled Walsh transform of each block of 2^resolution entries along `axis`.

    Entry b * 2^resolution + nu along `axis` is the coefficient nu of block
    b.  Each stage works on whole slices of the later axes of a C-ordered
    copy of `a`, which is returned.
    """
    out = np.array(a, dtype=np.float64, order="C")
    post = math.prod(out.shape[axis % out.ndim + 1 :])
    block = 1 << resolution
    h = block
    while h > 1:
        h //= 2
        v = out.reshape(-1, 2, h * post)
        y = v[:, 0] - v[:, 1]
        v[:, 0] += v[:, 1]
        v[:, 1] = y
    rev = bit_reversal(resolution)
    if post == 1:  # per layout, the faster of a fancy index and a take
        return out.reshape(-1, block)[:, rev].reshape(out.shape)
    return out.reshape(-1, block, post).take(rev, axis=1).reshape(out.shape)


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
    small blocks would otherwise cost one short loop each.  Small blocks
    come from one block-contiguous copy of F by a `take` of their flat
    pair indices rows * nb + cols; large blocks are long rows already,
    and one fancy index copies them as fast.
    """
    block = 1 << shift
    nb = F.shape[0] >> shift
    tiles = F.reshape(nb, block, nb, block)
    if len(rows) < block * block:
        return np.ascontiguousarray(tiles.transpose(0, 2, 1, 3)[rows, cols])
    stack = np.ascontiguousarray(tiles.transpose(1, 3, 0, 2)).reshape(block, block, -1)
    return stack.take(rows * nb + cols, axis=2).transpose(2, 0, 1)


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
    left = pair_blocks(F2, shift, m0, m1)
    left *= np.outer(hs, hs)
    prod = np.einsum("pij,pjk->pik", left, pair_blocks(F0, shift, m1, m2))
    right = pair_blocks(F1.T, shift, m0, m2)  # [p, a0, a2] = F1[i2, i0]
    right *= epsk[m0, m2][:, None, None] * hs  # times eps hs(a2)
    return float(np.sum(prod * right))

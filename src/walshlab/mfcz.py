"""Exceptional sets and the good-function replacement for restricted-type input.

Given three cell sets, the large values of a plain maximal function (slot
0) and a directional maximal function (slot 2) carve out exceptional
regions; pulling their union back through the diagonal x0 ^ x1 ^ x2 = 0
gives the region to delete from the middle set.  Over a forest of trees,
the slot-2 function restricted to the directional region can be replaced
by a sum of one-dimensional wave-packet projections, one packet per
maximal interval of the region and per coarse enough tree frequency.
The replacement leaves every bitile coefficient of the form unchanged
whenever the deletion has been performed, and its L2 norm is controlled
by the counting function of the forest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .gridfn import GridFunction2D
from .maximal import directional_maximal, dyadic_maximal_2d, level_set
from .selection import Forest
from .tiles import (
    Bitile,
    BitileRows,
    _bitile_count,
    _finest_first,
    _unique_ints,
    counts,
    scale_views,
)
from .triform import bitile_table
from .wavelets import coefficient_rows, walsh_rows


def _require_cell_set(e: GridFunction2D, name: str) -> np.ndarray:
    v = e.values
    if not np.all((v == 0.0) | (v == 1.0)):
        raise ValueError(f"{name} must be a 0/1 indicator")
    return v > 0.5


@dataclass(frozen=True)
class ExceptionalSets:
    """Indicator functions of the deleted regions and the trimmed middle set.

    First and third regions live in the argument planes of the slot-0 and
    slot-2 functions; the middle region and the trimmed set live in the
    slot-1 plane (second variable, first variable of the form).
    """

    b0: GridFunction2D
    b2: GridFunction2D
    b1: GridFunction2D
    e1_prime: GridFunction2D
    b1_measure: float


def exceptional_sets(
    e0: GridFunction2D,
    e1: GridFunction2D,
    e2: GridFunction2D,
    p0: float = 4.0,
    p2: float = 4.0 / 3.0,
    threshold: float = 2.0 ** 10,
) -> ExceptionalSets:
    """Superlevel sets of the two maximal functions, pulled onto slot 1.

    The slot-0 set uses the dyadic-square maximal function of the
    measure-normalized indicator, the slot-2 set the directional maximal
    in the second argument.  A slot-1 cell is deleted when the diagonal
    point over it lands in either region; the middle set keeps the rest.
    The threshold is a parameter so that small grids, where the default
    2^10 puts every normalized average below it, still produce nonempty
    regions.
    """
    K = e0.resolution
    if e1.resolution != K or e2.resolution != K:
        raise ValueError("cell sets must share one resolution")
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    m0 = _require_cell_set(e0, "e0")
    m2 = _require_cell_set(e2, "e2")
    _require_cell_set(e1, "e1")

    def superlevel(mask, weight, maximal):
        if not mask.any():
            return GridFunction2D.zeros(K)
        return level_set(maximal(GridFunction2D(K, mask * weight)), threshold)

    meas0 = m0.mean()
    meas2 = m2.mean()
    b0 = superlevel(
        m0,
        meas0 ** (-1.0 / p0) if meas0 else 0.0,
        lambda f: dyadic_maximal_2d(f, p=p0),
    )
    b2 = superlevel(
        m2,
        meas2 ** (-1.0 / p2) if meas2 else 0.0,
        lambda f: directional_maximal(f, p=p2),
    )

    # A diagonal point (x0, x0 ^ x2, x2) sits over the slot-1 cell
    # (x2, x0); membership in either lifted region is read off cellwise
    # because XOR acts on cells.
    idx = np.arange(1 << K)
    i2 = idx[:, None]
    i0 = idx[None, :]
    i1 = i0 ^ i2
    b1_vals = ((b0.values[i1, i2] > 0.5) | (b2.values[i0, i1] > 0.5)).astype(
        np.float64
    )
    b1 = GridFunction2D(K, b1_vals)
    e1_prime = GridFunction2D(K, e1.values * (1.0 - b1_vals))
    return ExceptionalSets(b0, b2, b1, e1_prime, b1.integral())


@dataclass(frozen=True, eq=False)
class GoodFunction:
    """g with its pieces, rows (x0, scale, index) of maximal region intervals,
    and packets, rows (piece, dual cell nu) sorted by piece, then nu."""

    g: GridFunction2D
    pieces: np.ndarray
    packets: np.ndarray
    b2: GridFunction2D


def _region_pieces(mask: np.ndarray):
    """Maximal dyadic intervals of every region row, as three int arrays.

    One block test per scale: an interval is a piece when its block of
    the row is full and its dyadic parent's is not.  Returns (row, scale,
    index) ordered by row, then left end.
    """
    n = len(mask)
    K = n.bit_length() - 1
    found = []
    above = np.zeros((n, 1), dtype=bool)
    for s in range(0, -K - 1, -1):
        full = mask.reshape(n, n >> (K + s), 1 << (K + s)).all(-1)
        row, index = np.nonzero(full & ~above)
        found.append((row, np.full_like(row, s), index))
        above = np.repeat(full, 2, axis=1)
    row, scale, index = (np.concatenate(a) for a in zip(*found))
    order = np.lexsort((index << (K + scale), row))
    return row[order], scale[order], index[order]


def build_good_function(
    f2_tilde: GridFunction2D,
    forest,
    b2: GridFunction2D,
) -> GoodFunction:
    """Replace the slot-2 function by packet projections over the forest.

    Each row of the directional region decomposes into maximal dyadic
    intervals.  An interval J picks up one frequency interval of dual
    length per tree whose top spatial box contains the row cell and J and
    whose top frequency fits inside it; duplicates across trees count
    once.  The replacement on J is the sum of tile projections of the
    row fiber, so it is supported on the region by construction.

    Each time scale takes one batched transform of all its pieces.  The
    projection onto one packet is its coefficient c times its character,
    exactly +-c on every cell, so adding each piece's packets in
    frequency order (first packets of all pieces, then second ones, ...)
    gives every cell the float sums of a packet-by-packet projection.
    """
    K = f2_tilde.resolution
    if b2.resolution != K:
        raise ValueError("cell sets must share one resolution")
    n = 1 << K
    row, scale, index = _region_pieces(_require_cell_set(b2, "b2"))

    # (piece, dual cell nu) pairs, keyed piece * n + nu: nu < 2^(K + scale) <= n;
    # per top scale k, pieces finer than k join the tops on the box key (m0, m1)
    keys = [np.zeros(0, dtype=np.int64)]
    tops = Forest.of(forest).tops.rows
    for k in _unique_ints(tops[:, 0]).tolist():
        _, m0, m2, top_n = tops[tops[:, 0] == k].T
        box = (m0 << -k) + (m0 ^ m2)
        order = np.argsort(box)
        box, top_n = box[order], top_n[order]
        at = np.flatnonzero(scale < k)
        key = (row[at] >> (K + k) << -k) + (index[at] >> (k - scale[at]))
        lo, hi = np.searchsorted(box, (key, key + 1))  # the tops with each key
        count = hi - lo
        hit = np.repeat(at, count)  # a piece's j-th top is box[lo + j]
        top = np.arange(len(hit)) + np.repeat(lo + count - np.cumsum(count), count)
        keys.append(hit * n + (top_n[top] >> (k - 1 - scale[hit])))
    piece, nu = np.divmod(_unique_ints(np.concatenate(keys)), n)
    rank = np.arange(len(piece)) - np.searchsorted(piece, piece)

    g = np.zeros_like(f2_tilde.values)
    for s in _unique_ints(scale[piece]).tolist():
        bk = K + s
        at = scale[piece] == s
        blocks = _unique_ints(piece[at])
        cells = (index[blocks] << bk)[:, None] + np.arange(1 << bk)
        coef = coefficient_rows(f2_tilde.values[row[blocks][:, None], cells], bk)
        local, nu_s, rank_s = np.searchsorted(blocks, piece[at]), nu[at], rank[at]
        for r in range(rank_s.max() + 1):
            j, v = local[rank_s == r], nu_s[rank_s == r]
            packets = coef[j, v][:, None] * walsh_rows(v, bk)
            g[row[blocks[j]][:, None], cells[j]] += packets

    pieces = np.column_stack((row, scale, index))
    return GoodFunction(GridFunction2D(K, g), pieces, np.column_stack((piece, nu)), b2)


def replacement_check(
    bitiles: Sequence[Bitile],
    f0: GridFunction2D,
    f1: GridFunction2D,
    f2: GridFunction2D,
    good: GoodFunction,
) -> Tuple[float, Tuple[str, ...]]:
    """Largest change in any bitile coefficient under the replacement.

    Returns the max over the given bitiles of the absolute difference
    between the coefficient with the original slot-2 function and with
    the replacement (two bitile tables, subtracted: a table of f2 - g would
    change the arithmetic of the exact identity), together with the
    precondition violations found: the slot-2 function must vanish off
    the directional region, and the middle function must vanish on every
    fiber captured by an interval of the region that swallows a bitile's
    middle interval.  Violations are reported, never repaired.
    """
    K = f2.resolution
    n = 1 << K
    mask = good.b2.values > 0.5
    violations: List[str] = []
    if np.any(f2.values[~mask] != 0.0):
        violations.append("slot-2 function does not vanish off the region")

    # A region interval of row x0 swallows I1 exactly when the block
    # b2[x0, I1] is full (the pieces are the maximal intervals of b2).
    x = counts(bitiles, K)
    views = scale_views(x)
    scales = [k for k, v in views.items() if v.any()]
    alive_cells = f1.values != 0.0
    bad_fibers = 0
    for k in scales:
        nb, w = 1 << -k, 1 << (K + k)
        captured = mask.reshape(n, nb, w).all(-1).reshape(nb, w, nb)  # [m0, a, m1]
        alive = alive_cells.reshape(nb, w, n).any(1).reshape(nb, nb, w)  # [m2, m0, a]
        m0, m2 = np.indices((nb, nb))
        hits = captured[m0, :, m0 ^ m2] & alive[m2, m0]  # [m0, m2, a]
        bad_fibers += int((views[k].sum(-1) * hits.sum(-1)).sum())
    if bad_fibers:
        violations.append(
            f"middle function alive on {bad_fibers} captured fibers"
        )

    member = x > 0
    before = bitile_table(f0, f1, f2, scales)
    after = bitile_table(f0, f1, good.g, scales)
    worst = float(np.abs(before - after)[member].max(initial=0.0))
    return worst, tuple(violations)


def admissible_bitiles(b1: GridFunction2D) -> BitileRows:
    """Bitiles whose outer-variable shadow is not swallowed by the region.

    The shadow here is the box of the two outer spatial intervals, read
    in the middle function's plane.  The admissible set is upward closed
    in the tile order, hence convex.  Rows come in `all_bitiles` order.
    """
    K = b1.resolution
    if K < 2:
        raise ValueError("resolution too small for bitiles")
    keep = np.zeros(_bitile_count(K), dtype=bool)
    for k, v in scale_views(keep).items():
        nb, w = 1 << -k, 1 << (K + k)
        swallowed = b1.values.reshape(nb, w, nb, w).all((1, 3))  # [m2, m0]
        v[...] = ~swallowed.T[:, :, None]
    return _finest_first(keep)


def counting_function(forest, resolution: int) -> GridFunction2D:
    """Number of tree tops whose spatial box covers each (x0, x1) cell."""
    acc = np.zeros((1 << resolution, 1 << resolution))
    for k, m0, m2, _ in Forest.of(forest).tops.rows.tolist():
        width = 1 << (resolution + k)
        m1 = m0 ^ m2
        acc[m0 * width : (m0 + 1) * width, m1 * width : (m1 + 1) * width] += 1.0
    return GridFunction2D(resolution, acc)


def g_norm_report(
    good: GoodFunction,
    forest,
    p2: float = 4.0 / 3.0,
    p: float = 2.0,
) -> dict:
    """Compare the replacement's L2 norm against the forest counting bound.

    The bound is the L^p norm of the counting function raised to
    1 - 2/p2', with p2' the conjugate exponent; on each interval of the
    region at most that many packets contribute and each projection is a
    contraction, which is where the exponent comes from.  The caller
    picks p (half the slot-0 exponent in the intended regime).
    """
    if p2 <= 1.0:
        raise ValueError("exponent p2 must exceed 1")
    nk = counting_function(forest, good.g.resolution)
    g_norm = good.g.norm(2)
    nk_norm = nk.norm(p)
    exponent = 1.0 - 2.0 * (p2 - 1.0) / p2
    bound = nk_norm ** exponent
    if g_norm == 0.0:
        ratio = 0.0
    elif bound == 0.0:
        ratio = math.inf
    else:
        ratio = g_norm ** 2 / bound
    return {
        "g_norm": g_norm,
        "counting_function": nk,
        "counting_norm": nk_norm,
        "exponent": exponent,
        "ratio": ratio,
    }

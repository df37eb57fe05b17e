"""Slow explicit constructions that the tests check the package against.

Each one states a definition directly (a packet-by-packet sum, a
quadratic scan, one scalar order test per pair) where the package
computes the same object in per-scale array passes.  No code in
`walshlab` calls these.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from walshlab.covering import Parallelogram, SlopeField, _e_cells, _vertical_margin
from walshlab.gridfn import GridFunction1D, GridFunction2D, _interval_slice
from walshlab.maximal import _check_exponent
from walshlab.tiles import BaseTile, Bitile, le
from walshlab.walsh import DyadicInterval, WalshNumber, coset_membership
from walshlab.wavelets import (
    WavePacketSpec,
    _check_freq,
    _check_time,
    project_rows,
    wave_packet,
)


def comparable(p: BaseTile, q: BaseTile) -> bool:
    return le(p, q) or le(q, p)


def down_set(bitiles: Iterable[Bitile], top: Bitile) -> set[Bitile]:
    """The bitiles p <= top, one scalar `le` each."""
    return {p for p in bitiles if le(p, top)}


def take_tree(remaining, q: Bitile, resolution: int) -> Tuple[Bitile, tuple]:
    """(q, members): down(q) cut out of the remaining masks, one `Bitile` each.

    down(q) at scale q.scale - d is the 2^d x 2^d spatial block under q at
    frequency index n_q >> d; the members come coarsest scale first, then
    m0, m2.  Phase 1 of the selection once ran this once per top, in
    `scale_members` order.
    """
    members = []
    for d in range(q.scale + resolution):
        a0, a2, n = q.m0 << d, q.m2 << d, q.n >> d
        block = remaining[q.scale - d][a0 : a0 + (1 << d), a2 : a2 + (1 << d), n]
        members.extend(
            Bitile(q.scale - d, a0 + i, a2 + i2, n)
            for i, i2 in np.argwhere(block).tolist()
        )
        block[...] = False
    return q, tuple(members)


def project_tile_1d(
    f: GridFunction1D, time: DyadicInterval, freq: DyadicInterval
) -> GridFunction1D:
    """Orthogonal projection onto the packets of the rectangle time x freq.

    The rectangle must have area at least one; it decomposes into area-1
    tiles over the full time interval, one per frequency cell of width
    1/|I|, and the projection is the sum of their rank-one terms.
    """
    K = f.resolution
    _check_time(time, K)
    _check_freq(freq, K)
    span = freq.scale + time.scale  # log2 of the area
    if span < 0:
        raise ValueError("tile area must be at least 1")
    out = GridFunction1D.zeros(K)
    for nu in range(freq.index << span, (freq.index + 1) << span):
        w = wave_packet(WavePacketSpec(time, DyadicInterval(-time.scale, nu)), K)
        out = out + f.inner(w) * w
    return out


def project_region_1d(
    f: GridFunction1D,
    time: DyadicInterval,
    multiplier: WalshNumber,
    freq: DyadicInterval,
) -> GridFunction1D:
    """Projection onto the frequency cells meeting the image of freq.

    Keeps the dual cells nu of the time interval whose representative
    nu/|I| lies in multiplier (*) freq at grid granularity; multiplier = 1
    reduces to project_tile_1d.
    """
    K = f.resolution
    _check_time(time, K)
    _check_freq(freq, K)
    bk = K + time.scale
    xi = [WalshNumber(nu, time.scale) for nu in range(1 << bk)]  # nu / |I|
    mask = np.array([coset_membership(x, multiplier, freq, granularity=-K) for x in xi])
    sl = _interval_slice(time, K)
    out = GridFunction1D.zeros(K)
    out.values[sl] = project_rows(f.values[None, sl], bk, mask)[0]
    return out


def dyadic_maximal_1d(f: GridFunction1D, p: float = 1.0) -> GridFunction1D:
    """sup over dyadic intervals I containing x of (avg_I |f|^p)^(1/p)."""
    _check_exponent(p)
    v = np.abs(f.values) ** p
    best = v.copy()
    avg = v
    width = 1
    while avg.size > 1:
        avg = avg.reshape(-1, 2).mean(axis=1)
        width *= 2
        np.maximum(best, np.repeat(avg, width), out=best)
    return GridFunction1D(f.resolution, best ** (1.0 / p))


def maximal_dyadic_intervals(cells: np.ndarray) -> List[DyadicInterval]:
    """Maximal dyadic intervals inside a 1D cell set, left to right.

    The result is a disjoint family covering the set exactly; an interval
    appears only if its dyadic parent is not fully contained.
    """
    n = len(cells)
    if n & (n - 1):
        raise ValueError("cell count must be a power of two")
    K = n.bit_length() - 1
    out: List[DyadicInterval] = []

    def descend(scale: int, index: int):
        width = 1 << (K + scale)
        seg = cells[index * width : (index + 1) * width]
        if seg.all():
            out.append(DyadicInterval(scale, index))
        elif width > 1 and seg.any():
            descend(scale - 1, 2 * index)
            descend(scale - 1, 2 * index + 1)

    descend(0, 0)
    return out


def transpose_instance(
    f0: GridFunction2D, f1: GridFunction2D, f2: GridFunction2D, eps=None
):
    """Swap the roles of the outer variables: (F0, F1, F2) -> (F2^T, F1^T, F0^T).

    Relabeling the two outer integration variables carries each slot
    function to the transpose of the opposite slot, transposes the sign
    field, and leaves the form's value unchanged; a bitile (k, m0, m2, n)
    pairs with (k, m2, m0, n).  Exponents travel with their slots.
    """
    out = (f2.transpose(), f1.transpose(), f0.transpose())
    if eps is None:
        return out
    return out + (eps.transpose(),)


@dataclass(frozen=True)
class ExpandedParallelogram:
    """Full dilate: both side lengths scaled about the center.

    The shadow of a full dilate is no longer dyadic, so this lives in its
    own type; its uncertainty interval coincides with the original's.
    """

    x_left: float
    x_right: float
    base_y: float
    slope: float
    height: float

    @property
    def uncertainty(self) -> Tuple[float, float]:
        half = self.height / (self.x_right - self.x_left)
        return (self.slope - half, self.slope + half)


def center_y(r: Parallelogram, x: float) -> float:
    return r.base_y + r.slope * (x - r.x_left) + 0.5 * r.height


def cell_mask(r: Parallelogram, n: int) -> np.ndarray:
    """The cells of R on the n x n grid, one column range at a time."""
    out = np.zeros((n, n), dtype=bool)
    for c, lo, hi in zip(*r.grid_cells(n)):
        out[c, lo:hi] = True
    return out


def full_dilate(r: Parallelogram, a: float) -> ExpandedParallelogram:
    if a < 0:
        raise ValueError("dilation factor must be nonnegative")
    xc = 0.5 * (r.x_left + r.x_right)
    half_l = 0.5 * a * r.length
    yc_left = center_y(r, xc - half_l)
    return ExpandedParallelogram(
        xc - half_l,
        xc + half_l,
        yc_left - 0.5 * a * r.height,
        r.slope,
        a * r.height,
    )


def e_set(r: Parallelogram, u: SlopeField) -> np.ndarray:
    """Cells of R whose slope value lies in the uncertainty interval."""
    out = np.zeros((u.n, u.n), dtype=bool)
    cs, ys, _, e = _e_cells(r, u)
    out[cs, ys] = e
    return out


def vertical_superlevel(values: np.ndarray, threshold: float) -> np.ndarray:
    """Cells where the vertical maximal function reaches the threshold.

    A cell passes when some vertical cell interval through it has average
    at least the threshold: the covering loop's removal test.
    """
    return _vertical_margin(values, threshold) >= 0.0


def vertical_maximal(values: np.ndarray) -> np.ndarray:
    """Exact vertical maximal function; quadratic per column."""
    v = np.abs(np.asarray(values, dtype=np.float64))
    n_cols, n = v.shape
    out = np.zeros_like(v)
    for c in range(n_cols):
        s = np.concatenate([[0.0], np.cumsum(v[c])])
        for a in range(n):
            avgs = (s[a + 1 :] - s[a]) / np.arange(1, n - a + 1)
            # cells a..b-1 see the interval [a, b); sweep b downward so a
            # running maximum covers every cell of the interval
            run = np.maximum.accumulate(avgs[::-1])[::-1]
            out[c, a:] = np.maximum(out[c, a:], run)
    return out


def lk_maximal_masked(
    f: GridFunction2D, parallelograms: Sequence[Parallelogram]
) -> GridFunction2D:
    """`lk_maximal` gathering each column's cells through a full-column mask."""
    n = 1 << f.resolution
    out = np.zeros((n, n))
    for r in parallelograms:
        cols = r.grid_cells(n)[0]
        m = cell_mask(r, n)[cols]
        count = int(m.sum())
        if count == 0:
            continue
        total = 0.0
        for c, cells in zip(cols, m):  # per-column sums fix the rounding
            total += f.values[c, cells].sum()
        avg = total / count
        out[cols] = np.where(m, np.maximum(out[cols], avg), out[cols])
    return GridFunction2D(f.resolution, out)


def uncertainty_overlap(rs: Sequence[Parallelogram]) -> bool:
    lo = max(r.uncertainty[0] for r in rs)
    hi = min(r.uncertainty[1] for r in rs)
    return lo <= hi

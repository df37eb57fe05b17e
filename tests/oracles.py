"""Slow explicit constructions that the tests check the package against.

Each one states a definition directly (a packet-by-packet sum, a
quadratic scan, one scalar order test per pair) where the package
computes the same object in per-scale array passes.  No code in
`walshlab` calls these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from walshlab.covering import (
    VERTICAL_THRESHOLD,
    Parallelogram,
    SlopeField,
    _box,
    _columns,
    _in_e,
    _segments,
    cover_picks,
    densities,
    square_integral,
)
from walshlab._kernels import bit_reversal, haar_signs
from walshlab.ensembles import DENSE_HEIGHTS, DENSE_MAX_TRIES
from walshlab.gridfn import GridFunction1D, GridFunction2D, _interval_slice
from walshlab.maximal import _check_exponent
from walshlab.tiles import BaseTile, Bitile, BitileRows, _coords, _fits, le
from walshlab.triform import EpsilonField, haar_multiplier
from walshlab.walsh import DyadicInterval, WalshNumber, _clmul, coset_membership
from walshlab.wavelets import (
    WavePacketSpec,
    _check_freq,
    _check_time,
    coefficient_rows,
    synthesis_rows,
    wave_packet,
)


def to_float(x: WalshNumber) -> float:
    return x.mantissa * 2.0 ** (-x.shift)


def bits(x: WalshNumber) -> str:
    return bin(x.mantissa)[2:] if x.mantissa else "0"


def hi(x: WalshNumber) -> int:
    """Largest k with a nonzero coefficient of 2^(-k) (trailing bit)."""
    if not x.mantissa:
        raise ValueError("zero has no bit bounds")
    return x.shift


def contains_point(i: DyadicInterval, x: WalshNumber) -> bool:
    m, s = x.mantissa, x.shift
    t = s + i.scale
    cell = m >> t if t >= 0 else m << -t
    return cell == i.index


def parent(i: DyadicInterval) -> DyadicInterval:
    return DyadicInterval(i.scale + 1, i.index >> 1)


def sibling(i: DyadicInterval) -> DyadicInterval:
    return DyadicInterval(i.scale, i.index ^ 1)


def indicator(interval: DyadicInterval, resolution: int) -> GridFunction1D:
    """1 on the cells of the interval, 0 elsewhere."""
    return GridFunction1D(resolution, np.ones(1 << resolution)).restrict(interval)


def indicator_box(
    first: DyadicInterval, second: DyadicInterval, resolution: int
) -> GridFunction2D:
    """1 on the cells of the box first x second, 0 elsewhere."""
    n = 1 << resolution
    return GridFunction2D(resolution, np.ones((n, n))).restrict(first, second)


def eps_weight(eps: EpsilonField, p: Bitile) -> float:
    """The sign weight of a bitile's interval triple; 0 on a missing scale."""
    arr = eps.data.get(p.scale)
    return float(arr[p.m0, p.m2]) if arr is not None else 0.0


def comparable(p: BaseTile, q: BaseTile) -> bool:
    return le(p, q) or le(q, p)


def down_set(bitiles: Iterable[Bitile], top: Bitile) -> set[Bitile]:
    """The bitiles p <= top, one scalar `le` each."""
    return {p for p in bitiles if le(p, top)}


# -- the per-scale layout that the flat positions replaced ------------------


def scale_arrays(bitiles: Iterable[Bitile], resolution: int) -> dict[int, np.ndarray]:
    """Multiplicity of every bitile at the resolution, one array per scale.

    A bitile that does not fit the resolution (scale below 1 - K, not
    localized, or frequency beyond 2^K) raises ValueError.
    """
    K = resolution
    c = _coords(bitiles)
    if not _fits(c, K).all():
        raise ValueError("bitile does not fit the resolution")
    X = {}
    for k in range(1 - K, 1):
        X[k] = np.zeros((1 << -k, 1 << -k, 1 << (K + k - 1)), dtype=np.int64)
        _, m0, m2, n = c[c[:, 0] == k].T
        np.add.at(X[k], (m0, m2, n), 1)
    return X


def scale_members(X: dict[int, np.ndarray], scales=None) -> BitileRows:
    """Bitiles with a nonzero entry, coarsest scale first, then m0, m2, n.

    Given scales, the rows come scale by scale in that order instead.
    """
    blocks = [_coords(())]
    for k in sorted(X, reverse=True) if scales is None else scales:
        idx = np.argwhere(X[k])
        blocks.append(np.column_stack((np.full(len(idx), k), idx)))
    return BitileRows(np.concatenate(blocks))


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


def bit_reversed(i: int, resolution: int) -> int:
    """i with its low `resolution` bits in reverse order, via its binary string."""
    return int(bin(i)[2:].zfill(resolution)[::-1], 2)


def walsh_character(frequency: int, resolution: int) -> GridFunction1D:
    """Character with integer frequency index in [0, 2^K), built on its own."""
    if not 0 <= frequency < (1 << resolution):
        raise ValueError("frequency beyond resolution")
    rev = bit_reversed(frequency, resolution)
    idx = np.arange(1 << resolution, dtype=np.int64)
    bits = np.bitwise_count(np.bitwise_and(rev, idx)) & 1
    return GridFunction1D(resolution, 1.0 - 2.0 * bits)


# The Walsh butterflies as they were before one kernel ran them along
# either axis: along the last axis on bit-reversed input, smallest stage
# first, and down the rows, largest stage first, permuting whole rows
# after.  The package must match them bit for bit.


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


def synthesis_rows_gather(coeffs: np.ndarray, resolution: int) -> np.ndarray:
    """`synthesis_rows` by a bit-reversal gather and `wht_rows`."""
    rev = bit_reversal(resolution)
    out = np.ascontiguousarray(coeffs[..., rev], dtype=np.float64)
    wht_rows(out.reshape(-1, out.shape[-1]))
    return out


def coefficient_rows_gather(values: np.ndarray, resolution: int) -> np.ndarray:
    """`coefficient_rows` along a last axis of length 2^K, gather first."""
    out = synthesis_rows_gather(values, resolution)
    out *= 2.0 ** (-resolution)
    return out


def row_coefficients(a: np.ndarray, resolution: int) -> np.ndarray:
    """Walsh coefficients over each block of 2^resolution rows of a (n, m) array.

    Row b * 2^resolution + nu of the result is the coefficient nu of the
    block b, column by column: bit for bit
    `coefficient_rows(a.T.reshape(m, -1, 2^resolution), resolution)`
    reshaped to (m, n) and transposed, with every stage on whole rows.
    """
    block = 1 << resolution
    out = np.array(a, dtype=np.float64)
    h = block
    while h > 1:
        h //= 2
        v = out.reshape(-1, 2, h, out.shape[1])
        y = v[:, 0] - v[:, 1]
        v[:, 0] += v[:, 1]
        v[:, 1] = y
    out = out.reshape(-1, block, out.shape[1]).take(bit_reversal(resolution), axis=1)
    out *= 2.0 ** (-resolution)
    return out.reshape(a.shape)


# The trilinear kernels as they were before their gathers took whole blocks
# and their transforms ran down the rows; the package must match them bit
# for bit.


def pair_blocks_fancy(F: np.ndarray, shift: int, rows, cols) -> np.ndarray:
    """`pair_blocks` by one two-array fancy index, in the same layouts."""
    block = 1 << shift
    nb = F.shape[0] >> shift
    tiles = F.reshape(nb, block, nb, block)
    if len(rows) < block * block:
        return np.ascontiguousarray(tiles.transpose(0, 2, 1, 3)[rows, cols])
    stack = np.ascontiguousarray(tiles.transpose(1, 3, 0, 2)[:, :, rows, cols])
    return stack.transpose(2, 0, 1)


def scale_sum_fancy(F0, F1, F2, epsk, shift) -> float:
    """`triform_scale_sum` on fancy-index gathers, one sign pass at a time."""
    m0, m2 = np.nonzero(epsk)
    m1 = m0 ^ m2
    hs = haar_signs(shift)
    left = pair_blocks_fancy(F2, shift, m0, m1) * np.outer(hs, hs)
    prod = np.einsum("pij,pjk->pik", left, pair_blocks_fancy(F0, shift, m1, m2))
    # [p, a0, a2] = F1[i2, i0] hs(a2)
    right = pair_blocks_fancy(F1.T, shift, m0, m2) * hs
    right *= epsk[m0, m2][:, None, None]
    return float(np.sum(prod * right))


def lambda_direct_fancy(
    eps: EpsilonField, F0: GridFunction2D, F1: GridFunction2D, F2: GridFunction2D
) -> float:
    """`lambda_direct` on `scale_sum_fancy`."""
    K = F0.resolution
    if eps.resolution != K or F1.resolution != K or F2.resolution != K:
        raise ValueError("resolution mismatch")
    parts = []
    for k in eps.scales:
        s = scale_sum_fancy(F0.values, F1.values, F2.values, eps.data[k], K + k)
        parts.append(2.0 ** (-k) * s)
    return math.fsum(parts) * 8.0 ** (-K)


def bitile_table_last_axis(
    F0: GridFunction2D, F1: GridFunction2D, F2: GridFunction2D, scales
):
    """`bitile_table` with each scale's transforms along the last axis.

    `coefficient_rows_gather` gathers every row in bit-reversed order and
    runs the butterflies on it, smallest stage first; the gathers are fancy
    indices.
    """
    K = F0.resolution
    n = 1 << K
    table = {}
    for k in scales:
        shift = K + k
        half = 1 << (shift - 1)  # cells per half interval
        nb = 1 << -k
        m0, m2 = np.divmod(np.arange(nb * nb), nb)
        m1 = m0 ^ m2
        # C0[i2, b * half + nu] ~ packet coefficients of F0 fibers on half-blocks
        C0 = coefficient_rows_gather(F0.values.T.reshape(n, -1, half), shift - 1)
        C2 = coefficient_rows_gather(F2.values.reshape(n, -1, half), shift - 1)
        U = pair_blocks_fancy(C0.reshape(n, n).T, shift, m1, m2)  # [p, (j, nu), a2]
        V = pair_blocks_fancy(C2.reshape(n, n).T, shift, m1, m0)  # [p, (j, nu), a0]
        hs = haar_signs(shift)
        F1blk = pair_blocks_fancy(F1.values, shift, m2, m0) * np.outer(hs, hs)
        rows = np.einsum("prb,prb->pr", np.einsum("pra,pab->prb", U, F1blk), V)
        # packet scaling 2^(k-1) per slot pair, |I1|^-1 = 2^-k, grid measure
        # 4^-K: an exact power of two
        weight = 2.0 ** (k - 1) * 2.0 ** (-k) * 4.0 ** (-K)
        table[k] = (rows[:, :half] - rows[:, half:]).reshape(nb, nb, half) * weight
    return table


def diagonal_data_rows(f: GridFunction1D, a: WalshNumber) -> GridFunction2D:
    """`diagonal_data` one row x1 at a time, multiplying on Python integers."""
    K = f.resolution
    n = 1 << K
    vals = np.empty((n, n))
    for i1 in range(n):
        img = _clmul(a.mantissa, i1)  # a (*) (i1 2^-K) scaled by 2^(K+shift)
        cell = img >> a.shift if a.shift >= 0 else img << -a.shift
        if cell < n:
            vals[i1, :] = f.values[np.arange(n) ^ cell]
        else:
            vals[i1, :] = 0.0
    return GridFunction2D(K, vals)


def diag_image_cell(a: WalshNumber, nu: int, scale: int, resolution: int) -> int:
    """Dual cell of width 2^-scale holding the image of cell nu's left end.

    The product is carry-less on Python integers, truncated to the grid
    (integer part mod 2^K).
    """
    point = nu << -scale  # representative nu * 2^-k as an integer
    prod = _clmul(a.mantissa, point)
    ipart = prod >> a.shift if a.shift >= 0 else prod << -a.shift
    return (ipart & ((1 << resolution) - 1)) >> -scale


def max_mod_haar_per_label(weights, labels, f: GridFunction1D) -> GridFunction1D:
    """`max_mod_haar` with one Haar multiplier call per distinct label."""
    K = f.resolution
    labels = np.asarray(labels, dtype=np.int64)
    out = np.zeros_like(f.values)
    for nu in np.unique(labels):
        w = walsh_character(int(nu), K)
        g = haar_multiplier(weights, w * f)
        sel = labels == nu
        out[sel] = w.values[sel] * g.values[sel]
    return GridFunction1D(K, out)


def offset_form_scalar(weights, shift: int, f, g, h):
    """`offset_form` as a scalar loop over intervals I, cells m and offsets t.

    The projection route builds the three projected functions of each
    (I, m) from characters and integrates their product; the coefficient
    route multiplies the packet coefficients directly.
    """
    K = f.resolution
    L = shift
    route_proj = []
    route_coef = []
    for k in sorted(weights):
        w = np.asarray(weights[k], dtype=np.float64)
        B = 1 << (K + k)
        blocks = 1 << -k
        cf = coefficient_rows(f.values.reshape(blocks, B), K + k)
        cg = coefficient_rows(g.values.reshape(blocks, B), K + k)
        ch = coefficient_rows(h.values.reshape(blocks, B), K + k)
        chars = np.stack([walsh_character(nu, K + k).values for nu in range(B)])
        for I in range(blocks):
            eI = w[I]
            if eI == 0.0:
                continue
            proj_acc = 0.0
            coef_acc = 0.0
            for m in range(B):
                jf = m ^ 1
                if jf >= B:
                    continue
                terms = 0.0
                cells_g = []
                cells_h = []
                for t in range(1 << L):
                    jg = (m << L) ^ t
                    jh = jg ^ jf
                    if jg < B and jh < B:
                        cells_g.append(jg)
                        cells_h.append(jh)
                        terms += cg[I, jg] * ch[I, jh]
                if not cells_g:
                    continue
                coef_acc += cf[I, jf] * terms
                pf = cf[I, jf] * chars[jf]
                pg = np.zeros(B)
                for jg in cells_g:
                    pg += cg[I, jg] * chars[jg]
                ph = np.zeros(B)
                for jh in cells_h:
                    ph += ch[I, jh] * chars[jh]
                proj_acc += float((pf * pg * ph).sum()) * 2.0 ** (-K)
            route_proj.append(eI * proj_acc)
            route_coef.append(eI * coef_acc * 2.0 ** k)
    return math.fsum(route_proj), math.fsum(route_coef)


def project_rows(
    rows: np.ndarray, block_resolution: int, mask: np.ndarray
) -> np.ndarray:
    """Project each row onto span{area-1 packets over its block} in mask.

    `rows` is (count, 2^block_resolution), one block per row: analyse,
    zero the coefficients outside the mask, synthesise.  Phases of the
    left endpoint cancel between analysis and synthesis, so the masked
    local transform needs no global phase bookkeeping.
    """
    c = coefficient_rows(rows, block_resolution)
    c[:, ~mask] = 0.0
    return synthesis_rows(c, block_resolution)


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


@dataclass(frozen=True)
class GoodPiece:
    """One maximal interval of a directional-region row with its packets."""

    cell0: int
    time: DyadicInterval
    freqs: Tuple[DyadicInterval, ...]


def good_pieces(good) -> Tuple[GoodPiece, ...]:
    """The pieces and packets of a `GoodFunction`, one `GoodPiece` per piece."""
    freqs = [[] for _ in good.pieces]
    for p, nu in good.packets.tolist():
        freqs[p].append(DyadicInterval(-int(good.pieces[p, 1]), nu))
    return tuple(
        GoodPiece(row, DyadicInterval(scale, index), tuple(f))
        for (row, scale, index), f in zip(good.pieces.tolist(), freqs)
    )


def good_function_by_transforms(f2_tilde: GridFunction2D, good) -> np.ndarray:
    """g of a `GoodFunction` by inverse transforms of one-hot coefficient rows.

    The packets of its pieces are added in rank order (every piece's first
    packet, then every second one, ...), each rank as one batch of rows
    holding a single coefficient, synthesised back to cell values.
    """
    K = f2_tilde.resolution
    row, scale, index = good.pieces.T
    piece, nu = good.packets.T
    rank = np.arange(len(piece)) - np.searchsorted(piece, piece)
    g = np.zeros_like(f2_tilde.values)
    for s in np.unique(scale[piece]).tolist():
        bk = K + s
        at = scale[piece] == s
        blocks = np.unique(piece[at])
        cells = (index[blocks] << bk)[:, None] + np.arange(1 << bk)
        coef = coefficient_rows(f2_tilde.values[row[blocks][:, None], cells], bk)
        local, nu_s, rank_s = np.searchsorted(blocks, piece[at]), nu[at], rank[at]
        for r in range(rank_s.max() + 1):
            j, v = local[rank_s == r], nu_s[rank_s == r]
            hot = np.zeros((len(j), 1 << bk))
            hot[np.arange(len(j)), v] = coef[j, v]
            g[row[blocks[j]][:, None], cells[j]] += synthesis_rows(hot, bk)
    return g


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


DENSITY_SLOPE_BOUND = 1.0 / 30.0  # L(R) * Lipschitz constant cap


def y_bounds(r: Parallelogram, x: float) -> Tuple[float, float]:
    """Lower and upper edge of R's vertical section at x."""
    lo = r.base_y + r.slope * (x - r.x_left)
    return (lo, lo + r.height)


def measured_lipschitz(u: SlopeField) -> float:
    """Largest slope between adjacent cell centers; a lower bound."""
    dx = np.abs(np.diff(u.values, axis=0)).max(initial=0.0)
    dy = np.abs(np.diff(u.values, axis=1)).max(initial=0.0)
    return max(dx, dy) * u.n


def lipschitz_hypothesis(u: SlopeField, r: Parallelogram) -> bool:
    """Whether L(R) times the certified constant stays under 1/30."""
    if u.lipschitz is None:
        raise ValueError("no Lipschitz certificate recorded")
    return r.length * u.lipschitz <= DENSITY_SLOPE_BOUND


def center_y(r: Parallelogram, x: float) -> float:
    return r.base_y + r.slope * (x - r.x_left) + 0.5 * r.height


def grid_cells_scalar(r: Parallelogram, n: int):
    """`Parallelogram.grid_cells` for one member on its own, with scalar bounds."""
    if r.length * n < 1.0:
        raise ValueError("shadow finer than the grid")
    cols = np.arange(int(round(r.x_left * n)), int(round(r.x_right * n)))
    x = (cols + 0.5) / n
    lo = r.base_y + r.slope * (x - r.x_left)
    edges = np.ceil((lo + np.array([[0.0], [r.height]])) * n - 0.5)
    y_lo, y_hi = edges.clip(0, n).astype(np.int64)
    np.maximum(y_hi, y_lo, out=y_hi)
    return cols, y_lo, y_hi


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
    lo, hi = r.uncertainty
    return cell_mask(r, u.n) & (u.values >= lo) & (u.values <= hi)


def density(r: Parallelogram, u: SlopeField) -> float:
    """|E(R)| / |R| in grid cells for one member; vacuously 1 for a cell-free R."""
    total = int(cell_mask(r, u.n).sum())
    if not total:
        return 1.0
    return int(e_set(r, u).sum()) / total


def all_member_cover(parallelograms: Sequence[Parallelogram], u: SlopeField, delta=None):
    """`greedy_cover` re-gathering every member's margin after each pick."""
    rs = parallelograms
    n = u.n
    if not rs:
        return [], CoverTrace((), ())
    spans = [r.grid_cells(n) for r in rs]
    cols, y_lo, y_hi = map(np.concatenate, zip(*spans))
    widths = y_hi - y_lo
    ends = np.cumsum(widths)
    index = np.repeat(cols * n + y_lo - (ends - widths), widths) + np.arange(ends[-1])
    ncols = np.array([len(c) for c, _, _ in spans])
    sizes = np.add.reduceat(widths, np.cumsum(ncols) - ncols)
    held = np.flatnonzero(sizes)
    starts = (np.cumsum(sizes) - sizes)[held]
    failures = ()
    if delta is not None:
        failures = tuple(i for i, r in enumerate(rs) if density(r, u) < delta)
    order = sorted(range(len(rs)), key=lambda i: (-rs[i].length, -rs[i].height, i))
    left = np.ones(len(rs), dtype=bool)
    margins = np.full(len(rs), np.inf)
    field = np.zeros((n, n))
    best = np.full((n, n), -VERTICAL_THRESHOLD)
    selected, steps = [], []
    for pick in order:
        if not left[pick]:
            continue
        selected.append(pick)
        d = rs[pick].height_dilate(7.0)
        dcols = d.grid_cells(n)[0]
        field += cell_mask(d, n)
        best[dcols] = _vertical_margin(field[dcols], VERTICAL_THRESHOLD)
        if held.size:
            margins[held] = np.minimum.reduceat(best.ravel()[index], starts)
        removed = np.flatnonzero(left & (margins >= 0.0))
        left[removed] = False
        witnesses = VERTICAL_THRESHOLD + margins[removed] / n
        steps.append(CoverStep(pick, tuple(removed.tolist()), tuple(witnesses)))
    return [rs[i] for i in selected], CoverTrace(tuple(steps), failures)


def cone_slope_field_all_anchors(rng, n: int, lipschitz: float, anchors: int = 6) -> SlopeField:
    """`cone_slope_field` taking the minimum over every cone, in draw order."""
    x = (np.arange(n) + 0.5) / n
    ax = rng.random(anchors)
    ay = rng.random(anchors)
    base = rng.uniform(-1.0, 1.0, anchors)
    v = np.full((n, n), np.inf)
    dist = np.empty((n, n))
    for b, cx, cy in zip(base, ax, ay):
        np.hypot(x[:, None] - cx, x[None, :] - cy, out=dist)
        dist *= lipschitz
        dist += b  # b + lipschitz * dist, bit for bit
        np.minimum(v, dist, out=v)
    return SlopeField(np.clip(v, -1.0, 1.0), lipschitz=float(lipschitz))


def dense_one_at_a_time(rng, u: SlopeField, delta: float, count: int, scale_range=(-5, -3)):
    """`dense_parallelograms` drawing and testing one candidate at a time."""
    n = u.n
    out = []
    tries = 0
    while len(out) < count and tries < DENSE_MAX_TRIES:
        tries += 1
        scale = int(rng.integers(scale_range[0], scale_range[1] + 1))
        index = int(rng.integers(0, 1 << -scale))
        height = float(rng.uniform(*DENSE_HEIGHTS))
        x_left = index * 2.0 ** scale
        cx = int(min(max((x_left + 0.5 * 2.0 ** scale) * n, 0), n - 1))
        cy = int(rng.integers(0, n))
        slope = float(min(max(u.values[cx, cy], -1.0), 1.0))
        base = (cy + 0.5) / n - 0.5 * height - slope * ((cx + 0.5) / n - x_left)
        r = Parallelogram(DyadicInterval(scale, index), base, slope, height)
        if density(r, u) >= delta:
            out.append(r)
    return out


def constant_slope_field_grid(n: int, value: float) -> SlopeField:
    """`SlopeField.constant` as an n x n array."""
    return SlopeField(np.full((n, n), float(value)), lipschitz=0.0)


def linear_slope_field_grid(n: int, gx: float, gy: float, offset: float) -> SlopeField:
    """`linear_slope_field` as an n x n array."""
    x = (np.arange(n) + 0.5) / n
    v = gx * x[:, None] + gy * x[None, :] + offset
    return SlopeField(np.clip(v, -1.0, 1.0), lipschitz=float(np.hypot(gx, gy)))


def cone_slope_field_grid(rng, n: int, lipschitz: float, anchors: int = 6) -> SlopeField:
    """`cone_slope_field` as an n x n array, stopping on the whole grid's maximum."""
    if not lipschitz >= 0.0:  # NaN fails too
        raise ValueError("Lipschitz constant must be nonnegative")
    x = (np.arange(n) + 0.5) / n
    ax = rng.random(anchors)
    ay = rng.random(anchors)
    base = rng.uniform(-1.0, 1.0, anchors)
    v = np.full((n, n), np.inf)
    dist = np.empty((n, n))
    top = np.inf
    for i in np.argsort(base, kind="stable"):
        if base[i] > top:
            break
        np.hypot(x[:, None] - ax[i], x[None, :] - ay[i], out=dist)
        dist *= lipschitz
        dist += base[i]  # base + lipschitz * dist, bit for bit
        np.minimum(v, dist, out=v)
        top = v.max()
    return SlopeField(np.clip(v, -1.0, 1.0), lipschitz=float(lipschitz))


def square_integral_bincount(selected: Sequence[Parallelogram], grid: int) -> float:
    """`square_integral` through the n x n field of indicator sums."""
    field = np.bincount(_segments(selected, grid)[0], minlength=grid * grid)
    return float((field ** 2).sum() * (1.0 / grid ** 2))


def dense_parallelograms_grid(rng, u: SlopeField, delta: float, count: int, scale_range=(-5, -3)):
    """`dense_parallelograms` reading each candidate's slope from the field's grid."""
    grid = u.values
    n = u.n
    out = []
    tries = 0
    while len(out) < count and tries < DENSE_MAX_TRIES:
        batch = []
        for _ in range(min(count - len(out), DENSE_MAX_TRIES - tries)):
            scale = int(rng.integers(scale_range[0], scale_range[1] + 1))
            index = int(rng.integers(0, 1 << -scale))
            height = float(rng.uniform(*DENSE_HEIGHTS))
            x_left = index * 2.0 ** scale
            cx = int(min(max((x_left + 0.5 * 2.0 ** scale) * n, 0), n - 1))
            cy = int(rng.integers(0, n))
            slope = float(min(max(grid[cx, cy], -1.0), 1.0))
            base = (cy + 0.5) / n - 0.5 * height - slope * ((cx + 0.5) / n - x_left)
            batch.append(Parallelogram(DyadicInterval(scale, index), base, slope, height))
        tries += len(batch)
        out += [r for r, d in zip(batch, densities(batch, u)) if d >= delta]
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
    """`lk_maximal` member by member: its own `grid_cells` and full-column masks."""
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


def _fractions(r: Parallelogram):
    xl = Fraction(r.shadow.index) * Fraction(2) ** r.shadow.scale
    xr = Fraction(r.shadow.index + 1) * Fraction(2) ** r.shadow.scale
    return xl, xr, Fraction(r.base_y), Fraction(r.slope), Fraction(r.height)


def lemma7r_fraction(r: Parallelogram, rp: Parallelogram):
    """`lemma7r_check` in exact rational arithmetic, one `Fraction` per input."""
    if r.shadow != rp.shadow:
        return "inapplicable"
    xl, xr, b, s, h = _fractions(r)
    _, _, bp, sp, hp = _fractions(rp)
    if 7 * h > hp:
        return "inapplicable"
    length = xr - xl
    if abs(s - sp) * length > h + hp:  # uncertainty intervals disjoint
        return "inapplicable"

    def center_gap(x):
        return (bp + sp * (x - xl) + hp / 2) - (b + s * (x - xl) + h / 2)

    g_l, g_r = center_gap(xl), center_gap(xr)
    touch = (h + hp) / 2
    crosses = (g_l <= 0 <= g_r) or (g_r <= 0 <= g_l)
    if not (crosses or abs(g_l) < touch or abs(g_r) < touch):
        return "inapplicable"
    slack = (7 * hp - 7 * h) / 2
    return abs(g_l) <= slack and abs(g_r) <= slack


def _linear_cross(p0, p1, q0, q1, xl, xr):
    """x where two chords over [xl, xr] cross, if strictly inside."""
    d0 = p0 - q0
    d1 = p1 - q1
    if d0 == d1:
        return None
    t = d0 / (d0 - d1)
    if 0.0 < t < 1.0:
        return xl + t * (xr - xl)
    return None


def intersection_measure(rs: Sequence[Parallelogram]) -> float:
    """Exact area of the intersection of finitely many parallelograms."""
    if not rs:
        return 0.0
    xl = max(r.x_left for r in rs)
    xr = min(r.x_right for r in rs)
    if xl >= xr:
        return 0.0
    bots = [(y_bounds(r, xl)[0], y_bounds(r, xr)[0]) for r in rs]
    tops = [(y_bounds(r, xl)[1], y_bounds(r, xr)[1]) for r in rs]
    cuts = {xl, xr}
    chords = bots + tops
    for i in range(len(chords)):
        for j in range(i + 1, len(chords)):
            x = _linear_cross(*chords[i], *chords[j], xl, xr)
            if x is not None:
                cuts.add(x)
    xs = sorted(cuts)

    def gap(x):
        t = (x - xl) / (xr - xl)
        top = min(a + t * (b - a) for a, b in tops)
        bot = max(a + t * (b - a) for a, b in bots)
        return top - bot

    area = 0.0
    for a, b in zip(xs, xs[1:]):
        ga, gb = gap(a), gap(b)
        if ga <= 0.0 and gb <= 0.0:
            continue
        if ga >= 0.0 and gb >= 0.0:
            area += 0.5 * (ga + gb) * (b - a)
        else:
            # one sign change; the chord crossing zero cuts the trapezoid
            root = a + (b - a) * ga / (ga - gb)
            if ga > 0.0:
                area += 0.5 * ga * (root - a)
            else:
                area += 0.5 * gb * (b - root)
    return area


def overlap_check(
    selected: Sequence[Parallelogram],
    u: SlopeField,
    q_or_n: int,
    delta: float = 1.0,
) -> dict:
    """Overlap functionals of a selected family, with comparison ratios.

    Computes the q-th power integral of the sum of E(R) indicators, the
    n-fold overlap sum over ordered tuples with intersecting uncertainty
    intervals (exact areas), and the grid square integral of the sum of R
    indicators against delta^-1 times the total measure.
    """
    n = int(q_or_n)
    if n < 1:
        raise ValueError("order must be at least 1")
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    grid = u.n
    index, counts, _ = _segments(selected, grid)
    e_field = np.bincount(index[_in_e(selected, u, index, counts)], minlength=grid * grid)
    e_integral = float((e_field ** n).sum() * (1.0 / grid ** 2))
    square = square_integral(selected, grid)
    total = sum(r.measure for r in selected)

    overlap = 0.0
    if selected:
        order = [(r, *r.uncertainty) for r in selected]

        # (lo, hi) is the intersection of the chain's uncertainty intervals:
        # they share a slope exactly when lo <= hi
        def extend(chain: List[Parallelogram], lo: float, hi: float):
            nonlocal overlap
            for r, r_lo, r_hi in order:
                t_lo, t_hi = max(lo, r_lo), min(hi, r_hi)
                if not t_lo <= t_hi:
                    continue
                trial = chain + [r]
                area = intersection_measure(trial)
                if area <= 0.0:
                    continue
                if len(trial) == n:
                    overlap += area
                else:
                    extend(trial, t_lo, t_hi)

        extend([], -np.inf, np.inf)

    def ratio(num, den):
        if num == 0.0:
            return 0.0
        return num / den if den else np.inf

    return {
        "order": n,
        "e_integral": e_integral,
        "e_ratio": ratio(e_integral, total),
        "u_overlap_sum": overlap,
        "u_overlap_ratio": ratio(overlap, total),
        "square_integral": square,
        "square_ratio": ratio(square, total / delta),
        "sum_measures": total,
        "delta": delta,
    }


# -- the covering selection with certified witnesses ------------------------


def _vertical_margin(values: np.ndarray, threshold: float) -> np.ndarray:
    """Best sum of values minus threshold over vertical intervals through each cell.

    With g = values - threshold and S its running sum along a column
    (S[0] = 0), the best interval ending at cell y sums to
    S[y+1] - min(S[i], i <= y) and the best one starting at y to
    max(S[k], k > y) - S[y]; the best through y is their sum minus g[y].
    Columns are independent.  The vertical maximal function reaches the
    threshold exactly where the margin is nonnegative.
    """
    g = np.asarray(values, dtype=np.float64) - threshold
    s = np.zeros((g.shape[0], g.shape[1] + 1))
    np.cumsum(g, axis=1, out=s[:, 1:])
    fwd = s[:, 1:] - np.minimum.accumulate(s[:, :-1], axis=1)
    bwd = np.maximum.accumulate(s[:, :0:-1], axis=1)[:, ::-1] - s[:, :-1]
    return fwd + bwd - g


@dataclass(frozen=True)
class CoverStep:
    selected: int
    removed: Tuple[int, ...]
    witnesses: Tuple[float, ...]


@dataclass(frozen=True)
class CoverTrace:
    steps: Tuple[CoverStep, ...]
    density_failures: Tuple[int, ...]


def greedy_cover(
    parallelograms: Sequence[Parallelogram],
    u: SlopeField,
    delta: Optional[float] = None,
):
    """The covering selection of `cover_picks`, with a certified witness per removal.

    Takes the picks and each step's removals from `cover_picks` and
    replays them through the vertical margin field: each pick adds its
    7-fold height-dilate to the field and rescans only its own columns
    (columns are independent).  Then only that step's removed members
    read their minimum margin, and the trace records for each a certified
    lower bound on the vertical maximal function over its cells (+inf for
    a cell-free member).  A removed member whose margin is negative raises
    `RuntimeError`, so the replay checks the column-mass decision.  The
    selected parallelograms come back in pick order; the trace also holds
    the members failing |E(R)| >= delta |R| when delta is given, by one
    `densities` pass.  They are still processed: `cover_picks` does not
    read densities.
    """
    if delta is not None and not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    picks, removals = cover_picks(parallelograms, u)
    rs = parallelograms
    n = u.n
    if not len(rs):
        return [], CoverTrace((), ())
    failures = ()
    if delta is not None:  # cell-free members pass
        failures = tuple(np.flatnonzero(densities(rs, u) < delta).tolist())
    index, counts, starts = _segments(rs, n)
    *dilates, ncols = _columns([rs[i].height_dilate(7.0) for i in picks], n)
    first = np.cumsum(ncols) - ncols
    field = np.zeros((n, n))
    best = np.full((n, n), -VERTICAL_THRESHOLD)  # margin of an empty column
    steps: List[CoverStep] = []
    for pick, removed, start, size in zip(picks, removals, first, ncols):
        cs, ys, m = _box(*(a[start : start + size] for a in dilates))
        field[cs, ys] += m
        best[cs] = _vertical_margin(field[cs], VERTICAL_THRESHOLD)
        # min of best over each removed member's cells; +inf without cells
        gone = np.array(removed, dtype=np.int64)
        sizes = counts[gone]
        offsets = np.cumsum(sizes) - sizes
        at = np.repeat(starts[gone] - offsets, sizes) + np.arange(sizes.sum())
        margins = np.full(gone.size, np.inf)
        held = sizes > 0
        if held.any():
            margins[held] = np.minimum.reduceat(best.ravel()[index[at]], offsets[held])
        if np.any(margins < 0.0):
            raise RuntimeError("column mass removed a member below the threshold")
        witnesses = VERTICAL_THRESHOLD + margins / n
        steps.append(CoverStep(pick, removed, tuple(witnesses)))
    return [rs[i] for i in picks], CoverTrace(tuple(steps), failures)

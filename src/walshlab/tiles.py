"""Tiles, bitiles, their partial order, tilings, and slot projections.

A tile of scale k <= 0 occupies a triple of spatial intervals of length
2^k (the middle one determined by XOR of the outer indices) and one
frequency interval of length 2^-k, so each spatial/frequency pair has
area one.  A bitile doubles the frequency side; its two half-tiles split
that interval, j = +1 taking the lower half.

At resolution K the N = 2^(K-1) (2^K - 1) bitiles that fit have one
flat position each: scales coarsest first (1-K <= k <= 0), each scale a
block [m0, m2, n] of shape (2^-k, 2^-k, 2^(K+k-1)) in C order, so
Bitile(k, m0, m2, n) sits at (2^-k - 1) 2^(K-1) + (m0 2^-k + m2) 2^(K+k-1)
+ n.  A collection is one array over the positions (a mask, counts or
values); `positions` maps rows there, the cached `_decode` table maps
back, and `support` lists a collection as `BitileRows` in position order.
The two half-tiles of the bitile at position p sit at 2p and 2p + 1 of
the layout of K + 1, whose scales coarser than -K are the tiles of
resolution K.

The bitiles one scale below a top q are exactly its four spatial children
with frequency index n_q >> 1, and their down-sets partition
down(q) minus q; dually the bitiles one scale above P are its spatial
parent with index 2 n_P or 2 n_P + 1, and their up-sets partition up(P)
minus P.  So every down-set or up-set sum is one pass across the scales,
on the per-scale views X[k][m0, m2, n] of `scale_views`.

Slot projections act on one argument slot of a trilinear form: slots 0
and 2 project a fiber onto the wave packet of the tile, slot 1 localizes
the data fiber in frequency according to the mode (a fixed carry-less
multiplier, or a per-fiber frequency label).  The packet coefficients of
every tile of a scale come from one transform of the slot's fibers
(`_slot_coefficients`); a tile's block is their masked synthesis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .gridfn import GridFunction1D, GridFunction2D, _interval_slice
from .walsh import DyadicInterval, WalshNumber
from .wavelets import coefficient_rows, synthesis_rows, walsh_rows


@dataclass(frozen=True)
class BaseTile:
    """Spatial indices and frequency index shared by tiles and bitiles.

    Tile and Bitile differ only in the frequency length: equality stays
    class-sensitive, so a tile never equals the bitile with its indices.
    """

    scale: int
    m0: int
    m2: int
    n: int

    def __post_init__(self):
        if self.scale > 0:
            raise ValueError(f"{type(self).__name__.lower()} scale must be nonpositive")
        if min(self.m0, self.m2, self.n) < 0:
            raise ValueError(f"negative {type(self).__name__.lower()} index")

    @property
    def m1(self) -> int:
        return self.m0 ^ self.m2

    def time_interval(self, i: int) -> DyadicInterval:
        return DyadicInterval(self.scale, (self.m0, self.m1, self.m2)[i])

    def is_localized(self) -> bool:
        return max(self.m0, self.m2) < 1 << -self.scale


class Tile(BaseTile):
    @property
    def freq(self) -> DyadicInterval:
        return DyadicInterval(-self.scale, self.n)


class Bitile(BaseTile):
    @property
    def freq(self) -> DyadicInterval:
        return DyadicInterval(1 - self.scale, self.n)

    def half(self, j: int) -> Tile:
        """Half-tile with the lower (j=+1) or upper (j=-1) frequency half."""
        if j not in (1, -1):
            raise ValueError("half index must be +1 or -1")
        return Tile(self.scale, self.m0, self.m2, 2 * self.n + (0 if j == 1 else 1))


def le(p: BaseTile, q: BaseTile) -> bool:
    """Order: every spatial interval nests upward, frequency downward.

    The scalar definition of the order, kept as public API.  The package
    itself reasons with the per-scale sums below (`down_sums`, `up_sums`),
    which the tests check against this definition.
    """
    return (
        all(q.time_interval(i).contains(p.time_interval(i)) for i in (0, 1, 2))
        and p.freq.contains(q.freq)
    )


class BitileRows(Sequence):
    """Read-only sequence of bitiles held as int64 rows (scale, m0, m2, n).

    Built from rows or any bitile iterable.  Only indexing and iteration
    build `Bitile`s.  It equals any sequence of the same bitiles in the
    same order, and hashes like the tuple of them.
    """

    def __init__(self, bitiles):
        self.rows = _coords(bitiles).reshape(-1, 4)  # a new view: the flag is its own
        self.rows.flags.writeable = False

    @classmethod
    def concat(cls, collections) -> "BitileRows":
        """The bitiles of several collections, one after another."""
        return cls(np.concatenate([_coords(())] + [_coords(c) for c in collections]))

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return BitileRows(self.rows[i])
        return Bitile(*self.rows[i].tolist())

    def __iter__(self):
        return (Bitile(*r) for r in self.rows.tolist())

    def __eq__(self, other):
        if isinstance(other, BitileRows):
            return np.array_equal(self.rows, other.rows)
        if isinstance(other, Sequence):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"BitileRows({self.rows.tolist()})"


def _coords(objs) -> np.ndarray:
    """Rows (scale, m0, m2, n) of tiles, bitiles or an array of rows, as int64."""
    if isinstance(objs, BitileRows):
        return objs.rows
    if isinstance(objs, np.ndarray):
        return objs.astype(np.int64, copy=False)
    return np.array(
        [(p.scale, p.m0, p.m2, p.n) for p in objs], dtype=np.int64
    ).reshape(-1, 4)


def _unique_ints(a: np.ndarray) -> np.ndarray:
    """The distinct values of an integer array, ascending: `np.unique(a)` by one sort.

    numpy's own `np.unique` without index outputs imports `numpy.ma` on its
    first call, which every forked trial worker would pay for again.
    """
    s = np.sort(a, axis=None)
    first = np.ones(s.shape, dtype=bool)
    np.not_equal(s[1:], s[:-1], out=first[1:])
    return s[first]


def _isin_ints(a: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Whether each value of the integer array `a` occurs in `table` (`np.isin`)."""
    t = np.sort(table, axis=None)
    if not t.size:
        return np.zeros(np.shape(a), dtype=bool)
    return t[np.searchsorted(t, a).clip(max=t.size - 1)] == a


def _fits(c: np.ndarray, resolution: int) -> np.ndarray:
    """Which rows fit: 1 - K <= scale <= 0, localized, 0 <= n < 2^(K+k-1)."""
    k, m0, m2, n = c.T
    ok = (k >= 1 - resolution) & (k <= 0) & (np.minimum(np.minimum(m0, m2), n) >= 0)
    k = np.where(ok, k, 0)  # keeps the shifts below in range
    return ok & (np.maximum(m0, m2) < 1 << -k) & (n < 1 << (resolution + k - 1))


def _bitile_count(resolution: int) -> int:
    """Number of bitiles that fit the resolution K: 2^(K-1) (2^K - 1)."""
    return ((1 << resolution) - 1) << (resolution - 1)


def _resolution(x: np.ndarray) -> int:
    """The resolution whose positions index x's first axis, read off its length."""
    return (len(x).bit_length() + 1) // 2


def _position(k, m0, m2, n, resolution: int):
    """Position of fitting (scale, m0, m2, n) in the flat order of the resolution.

    The scales come coarsest first, each as its block [m0, m2, n] in C
    order; scale k holds 2^(K-k-1) bitiles, so the coarser scales fill
    the first (2^-k - 1) 2^(K-1) positions.
    """
    K = resolution
    return (((1 << -k) - 1) << (K - 1)) + ((((m0 << -k) + m2) << (K + k - 1)) + n)


def positions(bitiles, resolution: int) -> np.ndarray:
    """Flat position of each bitile at the resolution, as int64.

    A bitile that does not fit the resolution (scale below 1 - K, not
    localized, or frequency beyond 2^K) raises ValueError.
    """
    c = _coords(bitiles)
    if not _fits(c, resolution).all():
        raise ValueError("bitile does not fit the resolution")
    return _position(*c.T, resolution)


def _keys(c: np.ndarray, resolution: int) -> np.ndarray:
    """One integer key per row, equal exactly for equal rows.

    A row that fits keys by its position; one that does not, by N plus
    its rank among the distinct rows that do not fit.
    """
    fits = _fits(c, resolution)
    if fits.all():
        return _position(*c.T, resolution)
    keys = np.empty(len(c), dtype=np.int64)
    keys[fits] = _position(*c[fits].T, resolution)
    misfit = c[~fits]
    order = np.lexsort(misfit.T)
    new = np.ones(len(order), dtype=bool)
    new[1:] = (misfit[order[1:]] != misfit[order[:-1]]).any(axis=1)
    keys[np.flatnonzero(~fits)[order]] = _bitile_count(resolution) - 1 + np.cumsum(new)
    return keys


@lru_cache(maxsize=8)  # one resolution per run; 32 N bytes each
def _decode(resolution: int) -> np.ndarray:
    """Read-only rows (scale, m0, m2, n) of the bitiles, one per position."""
    K = resolution
    blocks = []
    for k in range(0, -K, -1):
        idx = np.indices((1 << -k, 1 << -k, 1 << (K + k - 1))).reshape(3, -1).T
        blocks.append(np.column_stack((np.full(len(idx), k), idx)))
    rows = np.concatenate(blocks)
    rows.flags.writeable = False
    return rows


def scale_views(x: np.ndarray) -> dict[int, np.ndarray]:
    """Views X[k][m0, m2, n] of an array over the positions, coarsest scale first.

    Scale k has shape (2^-k, 2^-k, 2^(K+k-1)), followed by x's other axes.
    """
    K = _resolution(x)
    views, start = {}, 0
    for k in range(0, -K, -1):
        size = 1 << (K - k - 1)
        shape = (1 << -k, 1 << -k, 1 << (K + k - 1))
        views[k] = x[start : start + size].reshape(shape + x.shape[1:])
        start += size
    return views


def counts(bitiles, resolution: int) -> np.ndarray:
    """Multiplicity of every bitile at the resolution, over the positions.

    A bitile that does not fit the resolution raises ValueError.
    """
    N = _bitile_count(resolution)
    return np.bincount(positions(bitiles, resolution), minlength=N)


def support(x: np.ndarray) -> BitileRows:
    """The bitiles where x is nonzero, coarsest scale first, then m0, m2, n."""
    return BitileRows(_decode(_resolution(x))[np.flatnonzero(x)])


def _finest_first(x: np.ndarray) -> BitileRows:
    """The bitiles of `support(x)` with the scales finest first."""
    rows = support(x).rows
    return BitileRows(rows[np.argsort(rows[:, 0], kind="stable")])


def all_bitiles(resolution: int) -> BitileRows:
    """Every localized bitile representable at the resolution, finest scale first."""
    if resolution < 2:
        raise ValueError("resolution too small for bitiles")
    return _finest_first(np.ones(_bitile_count(resolution), dtype=bool))


def down_sums(x: np.ndarray) -> np.ndarray:
    """D[q] = sum of x[p] over the bitiles p <= q, finest scale first."""
    D = x.copy()
    V = scale_views(D)
    for k in sorted(V)[1:]:
        nb = V[k].shape[0]
        children = V[k - 1].reshape(nb, 2, nb, 2, -1).sum(axis=(1, 3))
        V[k] += np.repeat(children, 2, axis=2)
    return D


def up_sums(x: np.ndarray, op=np.add) -> np.ndarray:
    """U[p] = sum (or with op = np.minimum, minimum) of x[q] over the bitiles q >= p."""
    U = x.copy()
    V = scale_views(U)
    for k in sorted(V, reverse=True)[1:]:
        nb, _, nf = V[k + 1].shape
        parents = op.reduce(V[k + 1].reshape(nb, nb, nf // 2, 2), axis=3)
        op(V[k], np.repeat(np.repeat(parents, 2, axis=0), 2, axis=1), out=V[k])
    return U


def half_down_sums(x: np.ndarray, j: int) -> np.ndarray:
    """S[q] = sum of x[p] over the bitiles p with p.half(j) <= q.

    p.half(j) <= q exactly when the bitile r one scale above p with index
    n_r = 2 n_p + (0 if j == 1 else 1) satisfies r <= q; so each value is
    lifted onto that r before the down-set recursion.
    """
    lifted = np.zeros_like(x)
    L = scale_views(lifted)
    for k, v in scale_views(x).items():
        if k < 0:
            nb = v.shape[0] // 2
            parent = v.reshape(nb, 2, nb, 2, -1).sum(axis=(1, 3))
            L[k + 1][:, :, (0 if j == 1 else 1) :: 2] = parent
    return down_sums(lifted)


def convex_scales(x: np.ndarray) -> bool:
    """No bitile outside the support lies both above and below a member."""
    member = (x > 0).astype(np.int64)
    below, above = down_sums(member), up_sums(member)
    return not ((below > 0) & (above > 0) & (member == 0)).any()


def _least_resolution(c: np.ndarray) -> int:
    """The least resolution at which rows of localized bitiles all fit."""
    # n < 2^(K + k - 1) exactly when K >= bit_length(n) + 1 - k; frexp's
    # exponent is the bit length of an integer below 2^53
    return int((np.frexp(c[:, 3])[1] + 1 - c[:, 0]).max(initial=1))


def is_convex(bitiles: Iterable[Bitile]) -> bool:
    """Closed under the intermediates of every comparable pair.

    The members must be localized (ValueError otherwise).
    """
    c = _coords(bitiles)
    return convex_scales(counts(c, _least_resolution(c)))


def disjoint_tiling(bitiles: Sequence[Bitile]) -> list[Tile]:
    """Pairwise disjoint tiles covering the half-tiles of a convex set.

    P.half(j) is a tile exactly when no member lies above the bitile r
    one scale up: P's spatial parent with frequency index
    n_r = 2 n_P + (0 if j == 1 else 1).  Since P.half(j) <= Q exactly when
    r <= Q (see `half_down_sums`), a half-tile is left out exactly when it
    lies below a coarser member, whose tiles already cover its cells; so
    the tiling is one `up_sums` of the member counts.  Tiles come in
    `support` order, the +1 half before the -1 half, and a repeated
    member counts once.
    """
    c = _coords(bitiles)
    K = _least_resolution(c)
    x = counts(c, K)
    if not convex_scales(x):
        raise ValueError("collection is not convex")
    above = up_sums(x)
    k, m0, m2, n = _decode(K)[np.flatnonzero(x)].T
    halves = 2 * n[:, None] + np.array([0, 1])  # the +1 half, then the -1 half
    free = np.ones(halves.shape, dtype=bool)
    up = k < 0
    r = _position(k[up, None] + 1, m0[up, None] >> 1, m2[up, None] >> 1, halves[up], K)
    free[up] = above[r] == 0
    i, h = np.nonzero(free)
    columns = (k[i], m0[i], m2[i], halves[i, h])
    return [Tile(*t) for t in zip(*(a.tolist() for a in columns))]


# -- structured slot-0 data --------------------------------------------------


def diagonal_data(f, a: WalshNumber):
    """Slot-0 data F(x1, x2) = f(x2 ^ (a (*) x1)) on the grid.

    Cell representatives are multiplied exactly; images beyond [0, 1)
    fall outside the support of f and give zero.
    """
    if a.is_zero():
        raise ValueError("degenerate multiplier")
    if not isinstance(f, GridFunction1D):
        raise TypeError("slot-0 profile must be a 1D grid function")
    K = f.resolution
    i1 = np.arange(1 << K)
    cell = _image_cells(a, 0, K)  # a (*) i1 mod 2^K
    # a carry-less product keeps its leading bit: below 2^K iff bitlen(i1) - lo <= K
    inside = (i1 == 0) | (np.frexp(i1)[1] - a.lo <= K)
    vals = np.where(inside[:, None], f.values[cell[:, None] ^ i1], 0.0)
    return GridFunction2D(K, vals)


def fiberwise_data(f, labels):
    """Slot-0 data F(x1, x2) = f(x2) w_{N(x2)}(x1)."""
    if not isinstance(f, GridFunction1D):
        raise TypeError("slot-0 profile must be a 1D grid function")
    K = f.resolution
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != f.values.shape:
        raise ValueError("fiberwise labels must give one frequency per cell")
    cols = np.ascontiguousarray(walsh_rows(labels, K).T)  # cols[x1, x2]
    return GridFunction2D(K, cols * f.values[None, :])


# -- slot projections --------------------------------------------------------


@dataclass(frozen=True)
class ProjectionMode:
    """Structure of the slot-0 data that slot 1 must respect.

    kind "diagonal": slot-0 data is a one-variable function of
    x2 ^ (a (*) x1); slot 1 then localizes the x2-frequency to the dual
    cells of I2 given by `diagonal_region`.  A bitile's region exists for
    every multiplier; a half-tile's only for |a| < 2.  kind "fiberwise":
    slot-0 data oscillates with a per-fiber frequency label N[x2]; slot 1
    keeps the fibers whose label lies in the tile frequency.
    """

    kind: str
    multiplier: WalshNumber | None = None
    labels: tuple | None = None

    @classmethod
    def diagonal(cls, a: WalshNumber) -> "ProjectionMode":
        if a.is_zero():
            raise ValueError("degenerate multiplier")
        return cls("diagonal", multiplier=a)

    @classmethod
    def fiberwise(cls, labels) -> "ProjectionMode":
        return cls("fiberwise", labels=tuple(int(v) for v in labels))


@lru_cache(maxsize=256)  # one multiplier per run; at most 2^K cells each
def _image_cells(a: WalshNumber, scale: int, resolution: int) -> np.ndarray:
    """Dual cell of width 2^-scale holding the image of each cell nu's left end.

    Read-only, over nu < 2^(K+scale).  Image frequencies are truncated to
    the grid (integer part mod 2^K).  The image of the whole cell is the
    coset of width 2^e 2^-scale through this point, where
    2^e <= |a| < 2^(e+1): one cell for 1 <= |a| < 2, part of one for
    |a| < 1, and 2^e aligned cells for |a| >= 2.
    """
    K = resolution
    point = np.arange(1 << (K + scale), dtype=np.int64) << -scale  # nu 2^-k, < 2^K
    # a (*) point is the XOR of point 2^(b - shift) over the mantissa bits b;
    # a shift by K or more bits leaves nothing below 2^K
    ipart = np.zeros_like(point)
    for b in range(a.mantissa.bit_length()):
        d = b - a.shift
        if a.mantissa >> b & 1 and -K < d < K:
            ipart ^= point << d if d >= 0 else point >> -d
    out = (ipart & ((1 << K) - 1)) >> -scale
    out.flags.writeable = False
    return out


def _require_half_tile_regions(a: WalshNumber) -> None:
    """Half-tile slot-1 regions exist only for multipliers with |a| < 2.

    At |a| >= 2 the preimage of a half-tile frequency is narrower than one
    dual cell of I2, so no area-1 region carries it.
    """
    if a.magnitude() >= 2.0:
        raise ValueError(
            "no half-tile slot-1 region for a diagonal multiplier with "
            "|a| >= 2; use the bitile region"
        )


def diagonal_region(p: BaseTile, a: WalshNumber, resolution: int) -> np.ndarray:
    """Boolean mask over the dual cells of I2 kept by the slot-1 projection.

    A bitile P keeps the cells nu whose sibling nu ^ 1, multiplied by a
    and reduced mod 2^K, meets omega_P.  The x2-spectrum on I2 of
    h_{I2} . <F0(., x2), w_P>, the slot-1 partner in `lambda_bitile`, lies
    in this region: the x2-frequencies of the inner product lie in
    a^-1 omega_P, and the Haar sign h_{I2} moves each one from cell nu to
    nu ^ 1.  The two are equal where the diagonal data is nonzero on I1;
    where it vanishes there (|a| >= 2, images beyond [0, 1)) the spectrum
    is empty and the region keeps its cells.

    A half-tile keeps the cells whose image lands in its own frequency.
    The two half-tile regions of a bitile partition its region when
    |a| < 2 and do not exist otherwise (ValueError).
    """
    k = p.scale
    if isinstance(p, Tile):
        _require_half_tile_regions(a)
        flip, width = 0, -k
    else:
        flip, width = 1, 1 - k
    # cell images have width 2^(e-k) with e = -a.lo; two aligned intervals
    # meet iff they agree above the wider one's width
    group = max(width, -a.lo - k)
    target = (p.n << width) >> group
    cells = _image_cells(a, k, resolution)
    return cells[np.arange(len(cells)) ^ flip] >> (group + k) == target


def _check_tile(p: BaseTile, resolution: int) -> None:
    if p.scale < -resolution:
        raise ValueError("interval below resolution")
    if (p.freq.index + 1) << p.freq.scale > 1 << resolution:
        raise ValueError("frequency beyond resolution")
    if not p.is_localized():
        raise ValueError("tile not localized in the unit cube")


def _slot_coefficients(F: GridFunction2D, slot: int, scale: int) -> np.ndarray:
    """C[fiber, block, nu]: packet coefficients of every slot fiber's blocks at the scale.

    Slot 0 analyses F(x1, x2) along x1, slot 1 F(x2, x0) along x2 and
    slot 2 F(x0, x1) along x1, in blocks of 2^(K+scale) cells; the fibers
    are x2 for slot 0 and x0 for slots 1 and 2.
    """
    K = F.resolution
    A = F.values if slot == 2 else F.values.T
    return coefficient_rows(A.reshape(1 << K, 1 << -scale, 1 << (K + scale)), K + scale)


def _slot_blocks(tiles, slot: int, F: GridFunction2D, mode: ProjectionMode | None):
    """(box, block) for each tile in order: its slot projection of F is block on box.

    Slots 0 and 2 take tiles; slot 1 takes tiles, and bitiles in diagonal
    mode, whose block is each x0 fiber of I0 projected onto the region
    over I2.  A block synthesises the tile's fiber coefficients with those
    outside its packet (or region) zeroed, from one `_slot_coefficients`
    per scale; fiberwise slot 1 keeps whole fibers by label instead.
    Each tile passes `_check_tile` before its box is built.
    """
    if slot not in (0, 1, 2):
        raise ValueError("slot must be 0, 1, or 2")
    if slot == 1 and mode is None:
        raise ValueError("slot 1 requires a projection mode")
    K = F.resolution
    fiberwise = slot == 1 and mode.kind == "fiberwise"
    if fiberwise:
        labels = np.asarray(mode.labels)
        if labels.shape != (1 << K,):
            raise ValueError("fiberwise labels must give one frequency per cell")
    coefficients = {}
    for p in tiles:
        _check_tile(p, K)
        k = p.scale
        bk = K + k
        # the fiber and block indices of the coefficients, and the box over F's axes
        fiber, blk = ((p.m2, p.m1), (p.m0, p.m2), (p.m0, p.m1))[slot]
        rows = slice(fiber << bk, (fiber + 1) << bk)
        cols = slice(blk << bk, (blk + 1) << bk)
        box = (rows, cols) if slot == 2 else (cols, rows)
        if fiberwise:
            keep = (labels[cols] >> -k) == p.n
            yield box, F.values[box] * keep[:, None]
            continue
        if slot == 1:
            mask = diagonal_region(p, mode.multiplier, K)
        else:
            mask = np.arange(1 << bk) == p.n
        if k not in coefficients:
            coefficients[k] = _slot_coefficients(F, slot, k)
        block = synthesis_rows(np.where(mask, coefficients[k][rows, blk], 0.0), bk)
        yield box, (block if slot == 2 else block.T)


def _placed(p: BaseTile, slot: int, F: GridFunction2D, mode) -> GridFunction2D:
    """The slot projection onto p as a grid function."""
    ((box, block),) = _slot_blocks([p], slot, F, mode)
    out = GridFunction2D.zeros(F.resolution)
    out.values[box] = block
    return out


def proj_tile(
    tile: Tile, slot: int, F: GridFunction2D, mode: ProjectionMode | None = None
) -> GridFunction2D:
    """Projection of one argument slot onto the tile.

    Slot 0 acts on data F(x1, x2), slot 1 on F(x2, x0), slot 2 on
    F(x0, x1); the output vanishes outside the tile's spatial box.  Slot 1
    in diagonal mode raises ValueError for |a| >= 2, where a half-tile has
    no region (see `diagonal_region`).  It analyses the whole grid at the
    tile's scale, the per-scale transform `proj_collection` shares, so one
    tile costs about n^2: 2.1-3.2 ms for a scale -4 tile at K = 8, against
    0.15 ms for the tile's box alone (one CPU, 2-core x86-64 machine).
    """
    return _placed(tile, slot, F, mode)


def proj_bitile(
    bitile: Bitile, slot: int, F: GridFunction2D, mode: ProjectionMode | None = None
) -> GridFunction2D:
    """Sum of the two half-tile projections (the vertical tiling).

    Slot 1 in diagonal mode projects onto the bitile region instead, which
    exists for every multiplier; for |a| < 2 the two agree.  Like
    `proj_tile`, that analyses the whole grid at the bitile's scale: 3.3 ms
    at scale -4 and K = 8, against 0.15 ms for the box alone.
    """
    if slot == 1 and mode is not None and mode.kind == "diagonal":
        return _placed(bitile, slot, F, mode)
    return proj_tile(bitile.half(1), slot, F, mode) + proj_tile(
        bitile.half(-1), slot, F, mode
    )


def _proj_diagonal_span(
    bitiles: list[Bitile], F: GridFunction2D, a: WalshNumber
) -> GridFunction2D:
    """Slot 1, diagonal mode: each x0 fiber onto the span of member regions.

    The members whose I0 holds x0 contribute their regions over I2.  The
    projection is read off the eigenvectors of the sum of the members'
    region projectors, whose range is that span; x0 atoms covered by the
    same members share one eigendecomposition.
    """
    K = F.resolution
    kmin = min(p.scale for p in bitiles)
    covering: dict[int, list[int]] = {}  # x0 atom of scale kmin -> members
    for i, p in enumerate(bitiles):
        _check_tile(p, K)
        d = p.scale - kmin
        for t in range(p.m0 << d, (p.m0 + 1) << d):
            covering.setdefault(t, []).append(i)
    atoms_of: dict[tuple[int, ...], list[int]] = {}
    for t, members in covering.items():
        atoms_of.setdefault(tuple(members), []).append(t)
    width = 1 << (K + kmin)  # grid columns per x0 atom
    out = GridFunction2D.zeros(K)
    for members, atoms in atoms_of.items():
        gram = np.zeros((1 << K, 1 << K))
        for i in members:
            p = bitiles[i]
            bk = K + p.scale
            sl2 = _interval_slice(p.time_interval(2), K)
            # the region projector: 2^-bk times the sum of its packets' outer products
            packets = walsh_rows(np.flatnonzero(diagonal_region(p, a, K)), bk)
            gram[sl2, sl2] += 2.0**-bk * (packets.T @ packets)
        # a zero diagonal entry of a positive semidefinite matrix is a zero row
        rows = np.flatnonzero(np.diagonal(gram) > 0.0)
        if rows.size == 0:
            continue
        lam, vec = np.linalg.eigh(gram[np.ix_(rows, rows)])
        # round-off zeros sit near 1e-15; nonzero eigenvalues measured >= 1
        basis = vec[:, lam > 1e-9 * max(1.0, lam[-1])]
        cols = np.concatenate([np.arange(t * width, (t + 1) * width) for t in atoms])
        box = np.ix_(rows, cols)
        out.values[box] = basis @ (basis.T @ F.values[box])
    return out


def proj_collection(
    bitiles: Sequence[Bitile],
    slot: int,
    F: GridFunction2D,
    mode: ProjectionMode | None = None,
) -> GridFunction2D:
    """Projection onto a convex collection.

    Sums the tile projections over the disjoint tiling: each tile's block,
    read from one analysis per scale (`_slot_blocks`), is added into its
    box of one output array, in tiling order, so every cell sees the same
    additions as a sum of `proj_tile` outputs.  The tiling is one up-set
    count of the members (see `disjoint_tiling`: P.half(j) is a tile
    exactly when no member lies above P's parent r with
    n_r = 2 n_P + (0 if j == 1 else 1)).  Slot 1 in diagonal mode with
    |a| >= 2 has no half-tile regions to tile with (see
    `diagonal_region`); there each x0 fiber is projected orthogonally onto
    the span of the bitile regions I2(P) x diagonal_region(P) of the
    members P with x0 in I0(P), which cross without tiling.  For |a| < 2
    that span projection equals the tiling sum.
    """
    coll = list(bitiles)
    out = GridFunction2D.zeros(F.resolution)
    if not coll:
        return out
    tiles = disjoint_tiling(coll)
    if slot == 1 and mode is not None and mode.kind == "diagonal":
        if mode.multiplier.magnitude() >= 2.0:
            return _proj_diagonal_span(coll, F, mode.multiplier)
    for box, block in _slot_blocks(tiles, slot, F, mode):
        out.values[box] += block
    return out

"""Tiles, bitiles, their partial order, tilings, and slot projections.

A tile of scale k <= 0 occupies a triple of spatial intervals of length
2^k (the middle one determined by XOR of the outer indices) and one
frequency interval of length 2^-k, so each spatial/frequency pair has
area one.  A bitile doubles the frequency side; its two half-tiles split
that interval, j = +1 taking the lower half.

At resolution K a bitile collection is one array per scale: scale k
(1-K <= k <= 0) holds X[k][m0, m2, n], of shape (2^-k, 2^-k, 2^(K+k-1)).
The bitiles one scale below a top q are exactly its four spatial children
with frequency index n_q >> 1, and their down-sets partition
down(q) minus q; dually the bitiles one scale above P are its spatial
parent with index 2 n_P or 2 n_P + 1, and their up-sets partition up(P)
minus P.  So every down-set or up-set sum is one pass across the scales.

Slot projections act on one argument slot of a trilinear form: slots 0
and 2 project a fiber onto the wave packet of the tile, slot 1 localizes
the data fiber in frequency according to the mode (a fixed carry-less
multiplier, or a per-fiber frequency label).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .gridfn import GridFunction2D, _interval_slice
from .walsh import DyadicInterval, WalshNumber
from .wavelets import project_rows, synthesis_rows, walsh_rows


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


def all_bitiles(resolution: int) -> BitileRows:
    """Every localized bitile representable at the resolution, finest scale first."""
    if resolution < 2:
        raise ValueError("resolution too small for bitiles")
    K = resolution
    scales = range(1 - K, 1)
    full = {k: np.ones((1 << -k, 1 << -k, 1 << (K + k - 1)), bool) for k in scales}
    return scale_members(full, scales)


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


def down_sums(X: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
    """D[q] = sum of X[p] over the bitiles p <= q, finest scale first."""
    D: dict[int, np.ndarray] = {}
    for k in sorted(X):
        D[k] = X[k].copy()
        if k - 1 in D:
            nb = D[k].shape[0]
            children = D[k - 1].reshape(nb, 2, nb, 2, -1).sum(axis=(1, 3))
            D[k] += np.repeat(children, 2, axis=2)
    return D


def up_sums(X: dict[int, np.ndarray], op=np.add) -> dict[int, np.ndarray]:
    """U[p] = sum (or with op = np.minimum, minimum) of X[q] over the bitiles q >= p."""
    U: dict[int, np.ndarray] = {}
    for k in sorted(X, reverse=True):
        U[k] = X[k].copy()
        if k + 1 in U:
            nb, _, nf = U[k + 1].shape
            parents = op.reduce(U[k + 1].reshape(nb, nb, nf // 2, 2), axis=3)
            U[k] = op(U[k], np.repeat(np.repeat(parents, 2, axis=0), 2, axis=1))
    return U


def half_down_sums(X: dict[int, np.ndarray], j: int) -> dict[int, np.ndarray]:
    """S[q] = sum of X[p] over the bitiles p with p.half(j) <= q.

    p.half(j) <= q exactly when the bitile r one scale above p with index
    n_r = 2 n_p + (0 if j == 1 else 1) satisfies r <= q; so each value is
    lifted onto that r before the down-set recursion.
    """
    lifted = {k: np.zeros_like(x) for k, x in X.items()}
    for k, x in X.items():
        if k + 1 in lifted:
            nb = x.shape[0] // 2
            parent = x.reshape(nb, 2, nb, 2, -1).sum(axis=(1, 3))
            lifted[k + 1][:, :, (0 if j == 1 else 1) :: 2] = parent
    return down_sums(lifted)


def convex_scales(X: dict[int, np.ndarray]) -> bool:
    """No bitile outside the support lies both above and below a member."""
    member = {k: (x > 0).astype(np.int64) for k, x in X.items()}
    below, above = down_sums(member), up_sums(member)
    return not any(
        ((below[k] > 0) & (above[k] > 0) & (member[k] == 0)).any() for k in X
    )


def _member_arrays(bitiles: Iterable[Bitile]) -> dict[int, np.ndarray] | None:
    """Member indicators at the smallest resolution holding every member.

    None for an empty collection; the members must be localized.
    """
    coll = BitileRows(bitiles)
    if not coll:
        return None
    # n < 2^(K + k - 1) exactly when K >= bit_length(n) + 1 - k; frexp's
    # exponent is the bit length of an integer below 2^53
    K = int((np.frexp(coll.rows[:, 3])[1] + 1 - coll.rows[:, 0]).max())
    return {k: (x > 0).astype(np.int64) for k, x in scale_arrays(coll, K).items()}


def is_convex(bitiles: Iterable[Bitile]) -> bool:
    """Closed under the intermediates of every comparable pair."""
    member = _member_arrays(bitiles)
    return member is None or convex_scales(member)


def disjoint_tiling(bitiles: Sequence[Bitile]) -> list[Tile]:
    """Pairwise disjoint tiles covering the half-tiles of a convex set.

    P.half(j) is a tile exactly when no member lies above the bitile r
    one scale up: P's spatial parent with frequency index
    n_r = 2 n_P + (0 if j == 1 else 1).  Since P.half(j) <= Q exactly when
    r <= Q (see `half_down_sums`), a half-tile is left out exactly when it
    lies below a coarser member, whose tiles already cover its cells; so
    the tiling is one `up_sums` of the member indicator.  Tiles come in
    `scale_members` order, the +1 half before the -1 half, and a repeated
    member counts once.
    """
    member = _member_arrays(bitiles)
    if member is None:
        return []
    if not convex_scales(member):
        raise ValueError("collection is not convex")
    above = up_sums(member)
    out: list[Tile] = []
    for k in sorted(member, reverse=True):
        m0, m2, n = (i[:, None] for i in np.nonzero(member[k]))
        halves = 2 * n + np.array([0, 1])  # the +1 half, then the -1 half
        if k + 1 in above:
            free = above[k + 1][m0 >> 1, m2 >> 1, halves] == 0
        else:
            free = np.ones(halves.shape, dtype=bool)
        i, h = np.nonzero(free)
        out.extend(
            Tile(k, *t)
            for t in zip(m0[i, 0].tolist(), m2[i, 0].tolist(), halves[i, h].tolist())
        )
    return out


# -- structured slot-0 data --------------------------------------------------


def diagonal_data(f, a: WalshNumber):
    """Slot-0 data F(x1, x2) = f(x2 ^ (a (*) x1)) on the grid.

    Cell representatives are multiplied exactly; images beyond [0, 1)
    fall outside the support of f and give zero.
    """
    from .gridfn import GridFunction1D

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
    from .gridfn import GridFunction1D

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


def _slot_block(
    p: BaseTile, slot: int, F: GridFunction2D, mode: ProjectionMode | None
):
    """(box, block): the slot projection of F onto p is block on box, 0 elsewhere.

    Slots 0 and 2 take tiles; slot 1 takes tiles, and bitiles in diagonal
    mode, whose block is each x0 fiber of I0 projected onto the region
    over I2.
    """
    K = F.resolution
    bk = K + p.scale
    if slot in (0, 2):
        axes = (1, 2) if slot == 0 else (0, 1)
        box = tuple(_interval_slice(p.time_interval(i), K) for i in axes)
        mask = np.zeros(1 << bk, dtype=bool)
        mask[p.n] = True
        if slot == 0:
            return box, project_rows(F.values[box].T, bk, mask).T
        return box, project_rows(F.values[box], bk, mask)
    if slot != 1:
        raise ValueError("slot must be 0, 1, or 2")
    if mode is None:
        raise ValueError("slot 1 requires a projection mode")
    box = tuple(_interval_slice(p.time_interval(i), K) for i in (2, 0))
    if mode.kind == "diagonal":
        mask = diagonal_region(p, mode.multiplier, K)
        return box, project_rows(F.values[box].T, bk, mask).T
    labels = np.asarray(mode.labels)
    if labels.shape != (1 << K,):
        raise ValueError("fiberwise labels must give one frequency per cell")
    lo = p.n << -p.scale
    hi = (p.n + 1) << -p.scale
    keep = (labels[box[0]] >= lo) & (labels[box[0]] < hi)
    return box, F.values[box] * keep[:, None]


def _placed(p: BaseTile, slot: int, F: GridFunction2D, mode) -> GridFunction2D:
    """The slot projection onto p as a grid function, after `_check_tile`."""
    _check_tile(p, F.resolution)
    box, block = _slot_block(p, slot, F, mode)
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
    no region (see `diagonal_region`).
    """
    return _placed(tile, slot, F, mode)


def proj_bitile(
    bitile: Bitile, slot: int, F: GridFunction2D, mode: ProjectionMode | None = None
) -> GridFunction2D:
    """Sum of the two half-tile projections (the vertical tiling).

    Slot 1 in diagonal mode projects onto the bitile region instead, which
    exists for every multiplier; for |a| < 2 the two agree.
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
            packets = synthesis_rows(np.eye(1 << bk)[diagonal_region(p, a, K)], bk)
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

    Sums the tile projections over the disjoint tiling: each tile's block
    is added into its box of one output array, in tiling order, so every
    cell sees the same additions as a sum of `proj_tile` outputs.  The
    tiling is one up-set count of the members (see `disjoint_tiling`:
    P.half(j) is a tile exactly when no member lies above P's parent r
    with n_r = 2 n_P + (0 if j == 1 else 1)).  Slot 1 in diagonal mode with
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
    for t in tiles:
        _check_tile(t, F.resolution)
        box, block = _slot_block(t, slot, F, mode)
        out.values[box] += block
    return out

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
from typing import Iterable, Sequence, Union

import numpy as np

from .gridfn import GridFunction2D, _interval_slice
from .walsh import DyadicInterval, WalshNumber, _clmul
from .wavelets import project_rows, synthesis_rows


@dataclass(frozen=True)
class Tile:
    scale: int
    m0: int
    m2: int
    n: int

    def __post_init__(self):
        if self.scale > 0:
            raise ValueError("tile scale must be nonpositive")
        if min(self.m0, self.m2, self.n) < 0:
            raise ValueError("negative tile index")

    @property
    def m1(self) -> int:
        return self.m0 ^ self.m2

    def time_interval(self, i: int) -> DyadicInterval:
        return DyadicInterval(self.scale, (self.m0, self.m1, self.m2)[i])

    @property
    def freq(self) -> DyadicInterval:
        return DyadicInterval(-self.scale, self.n)

    def is_localized(self) -> bool:
        return max(self.m0, self.m2) < 1 << -self.scale


@dataclass(frozen=True)
class Bitile:
    scale: int
    m0: int
    m2: int
    n: int

    def __post_init__(self):
        if self.scale > 0:
            raise ValueError("bitile scale must be nonpositive")
        if min(self.m0, self.m2, self.n) < 0:
            raise ValueError("negative bitile index")

    @property
    def m1(self) -> int:
        return self.m0 ^ self.m2

    def time_interval(self, i: int) -> DyadicInterval:
        return DyadicInterval(self.scale, (self.m0, self.m1, self.m2)[i])

    @property
    def freq(self) -> DyadicInterval:
        return DyadicInterval(1 - self.scale, self.n)

    def half(self, j: int) -> Tile:
        """Half-tile with the lower (j=+1) or upper (j=-1) frequency half."""
        if j not in (1, -1):
            raise ValueError("half index must be +1 or -1")
        return Tile(self.scale, self.m0, self.m2, 2 * self.n + (0 if j == 1 else 1))

    def is_localized(self) -> bool:
        return max(self.m0, self.m2) < 1 << -self.scale


TileLike = Union[Tile, Bitile]


def le(p: TileLike, q: TileLike) -> bool:
    """Order: every spatial interval nests upward, frequency downward.

    The scalar reference for the per-scale recursions below: an oracle
    and test helper, which no code of the package calls on a hot path.
    """
    return (
        all(q.time_interval(i).contains(p.time_interval(i)) for i in (0, 1, 2))
        and p.freq.contains(q.freq)
    )


def comparable(p: TileLike, q: TileLike) -> bool:
    return le(p, q) or le(q, p)


def all_bitiles(resolution: int) -> list[Bitile]:
    """Every localized bitile representable at the resolution."""
    if resolution < 2:
        raise ValueError("resolution too small for bitiles")
    out = []
    for k in range(-resolution + 1, 1):
        for m0 in range(1 << -k):
            for m2 in range(1 << -k):
                for n in range(1 << (resolution + k - 1)):
                    out.append(Bitile(k, m0, m2, n))
    return out


def scale_arrays(bitiles: Iterable[Bitile], resolution: int) -> dict[int, np.ndarray]:
    """Multiplicity of every bitile at the resolution, one array per scale.

    A bitile that does not fit the resolution (scale below 1 - K, not
    localized, or frequency beyond 2^K) raises ValueError.
    """
    K = resolution
    X = {
        k: np.zeros((1 << -k, 1 << -k, 1 << (K + k - 1)), dtype=np.int64)
        for k in range(1 - K, 1)
    }
    for p in bitiles:
        if p.scale < 1 - K or not p.is_localized() or p.n >> (K + p.scale - 1):
            raise ValueError("bitile does not fit the resolution")
        X[p.scale][p.m0, p.m2, p.n] += 1
    return X


def scale_members(X: dict[int, np.ndarray]) -> list[Bitile]:
    """Bitiles with a nonzero entry, coarsest scale first, then m0, m2, n."""
    return [
        Bitile(k, m0, m2, n)
        for k in sorted(X, reverse=True)
        for m0, m2, n in np.argwhere(X[k]).tolist()
    ]


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


def up_sums(X: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
    """U[p] = sum of X[q] over the bitiles q >= p, coarsest scale first."""
    U: dict[int, np.ndarray] = {}
    for k in sorted(X, reverse=True):
        U[k] = X[k].copy()
        if k + 1 in U:
            nb, _, nf = U[k + 1].shape
            parents = U[k + 1].reshape(nb, nb, nf // 2, 2).sum(axis=3)
            U[k] += np.repeat(np.repeat(parents, 2, axis=0), 2, axis=1)
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


def is_convex(bitiles: Iterable[Bitile]) -> bool:
    """Closed under the intermediates of every comparable pair.

    Evaluated on the per-scale arrays of the smallest resolution that
    holds every member, so the members must be localized.
    """
    coll = set(bitiles)
    if not coll:
        return True
    K = max(p.n.bit_length() + 1 - p.scale for p in coll)
    return convex_scales(scale_arrays(coll, K))


def down_set(bitiles: Iterable[Bitile], top: Bitile) -> set[Bitile]:
    """The bitiles p <= top, one scalar `le` each.

    An oracle and test helper; the package builds down-sets with
    `up_sums` of the top's indicator.
    """
    return {p for p in bitiles if le(p, top)}


def disjoint_tiling(bitiles: Sequence[Bitile]) -> list[Tile]:
    """Pairwise disjoint tiles covering the half-tiles of a convex set.

    Bitiles are visited in increasing frequency length (coarsest spatial
    scale first); each half-tile is added unless its cells are already
    covered.  Convexity makes coverage all-or-nothing, which is asserted
    on a cell-level occupancy array (spatial atoms at the finest scale
    present, unit frequency atoms).
    """
    coll = list(bitiles)
    if not coll:
        return []
    if not is_convex(coll):
        raise ValueError("collection is not convex")
    return _tiling_inner(coll, min(p.scale for p in coll))


def _tiling_inner(coll: list[Bitile], kmin: int) -> list[Tile]:
    atoms = 1 << -kmin  # spatial atoms per axis at the finest scale
    fmax = max((p.n + 1) << (1 - p.scale) for p in coll)
    covered = np.zeros((atoms, atoms, fmax), dtype=bool)
    order = sorted(coll, key=lambda p: (-p.scale, p.m0, p.m2, p.n))
    out: list[Tile] = []
    for p in order:
        d = p.scale - kmin  # widen spatial indices to atom scale
        s0 = slice(p.m0 << d, (p.m0 + 1) << d)
        s2 = slice(p.m2 << d, (p.m2 + 1) << d)
        for j in (1, -1):
            t = p.half(j)
            sf = slice(t.n << -t.scale, (t.n + 1) << -t.scale)
            cells = covered[s0, s2, sf]
            if cells.all():
                continue
            if cells.any():
                raise ValueError("collection is not convex")
            covered[s0, s2, sf] = True
            out.append(t)
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


def fiberwise_data(f, labels):
    """Slot-0 data F(x1, x2) = f(x2) w_{N(x2)}(x1)."""
    from .gridfn import GridFunction1D
    from .wavelets import walsh_fn

    if not isinstance(f, GridFunction1D):
        raise TypeError("slot-0 profile must be a 1D grid function")
    K = f.resolution
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != f.values.shape:
        raise ValueError("fiberwise labels must give one frequency per cell")
    cols = np.stack([walsh_fn(int(nu), K).values for nu in labels], axis=1)
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


def _diag_image_cell(a: WalshNumber, nu: int, scale: int, resolution: int) -> int:
    """Dual cell of width 2^-scale holding the image of cell nu's left end.

    Image frequencies are truncated to the grid (integer part mod 2^K).
    The image of the whole cell is the coset of width 2^e 2^-scale through
    this point, where 2^e <= |a| < 2^(e+1): one cell for 1 <= |a| < 2,
    part of one for |a| < 1, and 2^e aligned cells for |a| >= 2.
    """
    point = nu << -scale  # representative nu * 2^-k as an integer
    prod = _clmul(a.mantissa, point)
    ipart = prod >> a.shift if a.shift >= 0 else prod << -a.shift
    return (ipart & ((1 << resolution) - 1)) >> -scale


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


def diagonal_region(p: TileLike, a: WalshNumber, resolution: int) -> np.ndarray:
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
    shift = group + k
    return np.array(
        [
            (_diag_image_cell(a, nu ^ flip, k, resolution) >> shift) == target
            for nu in range(1 << (resolution + k))
        ],
        dtype=bool,
    )


def _check_tile(p: TileLike, resolution: int) -> None:
    if p.scale < -resolution:
        raise ValueError("interval below resolution")
    if (p.freq.index + 1) << p.freq.scale > 1 << resolution:
        raise ValueError("frequency beyond resolution")
    if not p.is_localized():
        raise ValueError("tile not localized in the unit cube")


def _proj_diagonal_region(
    p: TileLike, F: GridFunction2D, a: WalshNumber
) -> GridFunction2D:
    """Slot 1, diagonal mode: each x0 fiber of I0 onto the region over I2."""
    K = F.resolution
    sl2 = _interval_slice(p.time_interval(2), K)
    sl0 = _interval_slice(p.time_interval(0), K)
    mask = diagonal_region(p, a, K)
    out = GridFunction2D.zeros(K)
    out.values[sl2, sl0] = project_rows(F.values[sl2, sl0].T, K + p.scale, mask).T
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
    K = F.resolution
    _check_tile(tile, K)
    bk = K + tile.scale
    out = GridFunction2D.zeros(K)
    if slot == 0:
        sl1 = _interval_slice(tile.time_interval(1), K)
        sl2 = _interval_slice(tile.time_interval(2), K)
        mask = np.zeros(1 << bk, dtype=bool)
        mask[tile.n] = True
        out.values[sl1, sl2] = project_rows(F.values[sl1, sl2].T, bk, mask).T
        return out
    if slot == 2:
        sl0 = _interval_slice(tile.time_interval(0), K)
        sl1 = _interval_slice(tile.time_interval(1), K)
        mask = np.zeros(1 << bk, dtype=bool)
        mask[tile.n] = True
        out.values[sl0, sl1] = project_rows(F.values[sl0, sl1], bk, mask)
        return out
    if slot != 1:
        raise ValueError("slot must be 0, 1, or 2")
    if mode is None:
        raise ValueError("slot 1 requires a projection mode")
    if mode.kind == "diagonal":
        return _proj_diagonal_region(tile, F, mode.multiplier)
    labels = np.asarray(mode.labels)
    if labels.shape != (1 << K,):
        raise ValueError("fiberwise labels must give one frequency per cell")
    sl2 = _interval_slice(tile.time_interval(2), K)
    sl0 = _interval_slice(tile.time_interval(0), K)
    lo = tile.n << -tile.scale
    hi = (tile.n + 1) << -tile.scale
    keep = (labels[sl2] >= lo) & (labels[sl2] < hi)
    out.values[sl2, sl0] = F.values[sl2, sl0] * keep[:, None]
    return out


def proj_bitile(
    bitile: Bitile, slot: int, F: GridFunction2D, mode: ProjectionMode | None = None
) -> GridFunction2D:
    """Sum of the two half-tile projections (the vertical tiling).

    Slot 1 in diagonal mode projects onto the bitile region instead, which
    exists for every multiplier; for |a| < 2 the two agree.
    """
    if slot == 1 and mode is not None and mode.kind == "diagonal":
        _check_tile(bitile, F.resolution)
        return _proj_diagonal_region(bitile, F, mode.multiplier)
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

    Sums the tile projections over the disjoint tiling.  Slot 1 in
    diagonal mode with |a| >= 2 has no half-tile regions to tile with
    (see `diagonal_region`); there each x0 fiber is projected orthogonally
    onto the span of the bitile regions I2(P) x diagonal_region(P) of the
    members P with x0 in I0(P), which cross without tiling.  For |a| < 2
    that span projection equals the tiling sum.
    """
    coll = list(bitiles)
    out = GridFunction2D.zeros(F.resolution)
    if not coll:
        return out
    if not is_convex(coll):
        raise ValueError("collection is not convex")
    if slot == 1 and mode is not None and mode.kind == "diagonal":
        if mode.multiplier.magnitude() >= 2.0:
            return _proj_diagonal_span(coll, F, mode.multiplier)
    for t in _tiling_inner(coll, min(p.scale for p in coll)):
        out = out + proj_tile(t, slot, F, mode)
    return out

"""Size functional and the three-phase tree selection with certificates.

A tree is a convex collection of bitiles lying below a common top.  The
selection algorithm peels off trees whose projections carry too much
energy, in three phases: heavy single bitiles, then heavy tree sums for
each frequency half.  What remains has small size, and the removed trees
satisfy a Carleson-type counting bound with constant 9 * 2^(2n) over
every dyadic test box.  Certificates carry enough data to re-check all
of this independently.

The partial-order work runs on one flat array over the bitile positions
of `tiles`: a collection is a mask, the half-tile norms and the scores
are values over the positions, and every elementwise step is one numpy
operation.  The size functional and the selection phases are down-set or
up-set sums, one pass across the scales each, and all trees of phase 1
are cut out of the remaining mask by one up-set minimum.  The
certificate checks key each row by its position.  Collections, tree
members and the remainder leave as `BitileRows`, built once per result
from the positions; a forest leaves as one `Forest` of rows.  Per-tile
projection norms come from local coefficient tables, not from forming
any projection explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gridfn import GridFunction2D
from .tiles import (
    Bitile,
    BitileRows,
    ProjectionMode,
    _bitile_count,
    _coords,
    _decode,
    _fits,
    _image_cells,
    _isin_ints,
    _keys,
    _least_resolution,
    _position,
    _require_half_tile_regions,
    _resolution,
    _slot_coefficients,
    _unique_ints,
    convex_scales,
    counts,
    half_down_sums,
    is_convex,
    scale_views,
    support,
    up_sums,
)
from .triform import lambda_tree

__all__ = [
    "Tree",
    "Forest",
    "SelectionCertificate",
    "size",
    "select_forests",
    "select_trees",
    "verify_certificate",
    "single_tree_report",
]


@dataclass(frozen=True)
class Tree:
    """Convex collection of bitiles below (and containing) a top; members as rows."""

    top: Bitile
    members: BitileRows

    def __post_init__(self):
        object.__setattr__(self, "members", BitileRows(self.members))
        if not (self.members.rows == _coords([self.top])).all(1).any():
            raise ValueError("tree top must be a member")

    @property
    def area(self) -> float:
        """Product of the two free spatial interval lengths."""
        return 4.0**self.top.scale


@dataclass(frozen=True, eq=False)
class Forest(Sequence):
    """Trees as rows: the tops, all members tree after tree, each member's tree.

    owner is nondecreasing.  Only indexing and iteration build `Tree`s; a
    forest equals any sequence of the same trees in the same order.
    """

    tops: BitileRows
    members: BitileRows
    owner: np.ndarray

    @classmethod
    def of(cls, trees) -> "Forest":
        """The trees of an iterable of trees and forests, in order."""
        if isinstance(trees, Forest):
            return trees
        parts = [
            t if isinstance(t, Forest)
            else cls(BitileRows([t.top]), t.members, np.zeros(len(t.members), np.int64))
            for t in trees
        ]
        start = np.cumsum([0] + [len(f) for f in parts]).tolist()
        owner = [np.zeros(0, np.int64)] + [f.owner + i for f, i in zip(parts, start)]
        return cls(
            BitileRows.concat(f.tops for f in parts),
            BitileRows.concat(f.members for f in parts),
            np.concatenate(owner),
        )

    def __len__(self) -> int:
        return len(self.tops)

    def __getitem__(self, i):
        i = range(len(self))[i]
        if isinstance(i, range):
            return Forest.of(self[j] for j in i)
        lo, hi = np.searchsorted(self.owner, [i, i + 1])
        return Tree(self.tops[i], self.members.rows[lo:hi])

    def __eq__(self, other):
        if isinstance(other, Forest):
            mine, theirs = (self.tops, self.members), (other.tops, other.members)
            return mine == theirs and np.array_equal(self.owner, other.owner)
        if isinstance(other, Sequence):
            return tuple(self) == tuple(other)
        return NotImplemented


@dataclass(frozen=True, eq=False)
class SelectionCertificate:
    """Everything needed to re-check a selection run.

    `select_trees` gives collection and remainder as `BitileRows`; forests
    may be given as any tree sequences and are held as `Forest`s.  counting
    maps each test-box scale kJ to arrays (lhs, rhs) of shape (2^-kJ, 2^-kJ):
    at [m0, m2], the sum of the tree areas inside the box (kJ, m0, m2) and
    the bound allowed for it.
    """

    collection: BitileRows
    remainder: BitileRows
    forests: tuple[Forest, Forest, Forest]
    slot: int
    level: int
    mode: ProjectionMode | None
    counting: dict[int, tuple[np.ndarray, np.ndarray]]

    def __post_init__(self):
        object.__setattr__(self, "forests", tuple(Forest.of(f) for f in self.forests))

    def __eq__(self, other):
        """Field by field; forests and counting arrays compare by value."""
        if not isinstance(other, SelectionCertificate):
            return NotImplemented

        def fields(c):
            tables = {
                k: [np.asarray(t).tolist() for t in p] for k, p in c.counting.items()
            }
            return c.collection, c.remainder, c.forests, c.slot, c.level, c.mode, tables

        return fields(self) == fields(other)

    @property
    def trees(self) -> Forest:
        return Forest.of(self.forests)


# -- projection norm tables --------------------------------------------------


def tile_norm_table(
    F: GridFunction2D,
    slot: int,
    mode: ProjectionMode | None,
    scales,
) -> np.ndarray:
    """Squared projection norms of the half-tiles of every bitile of the scales.

    Row p holds P.half(+1) and P.half(-1) of the bitile P at position p
    (tiles 2n and 2n + 1); bitiles of other scales read 0.  So the tiles
    of scale k, an array [m0, m2, nu] of shape (2^-k, 2^-k, 2^(K+k)), are
    `scale_views(table)[k]` with its last two axes merged.
    Packet slots reduce to one local coefficient per tile; slot 1 reduces
    to masked row-energy sums.  In diagonal mode these group each dual
    cell under the one tile its image lands in, which needs |a| < 2;
    larger multipliers raise ValueError.
    """
    if slot == 1 and mode is None:
        raise ValueError("slot 1 requires a projection mode")
    if slot == 1 and mode.kind == "diagonal":
        _require_half_tile_regions(mode.multiplier)
    K = F.resolution
    ngrid = 1 << K
    blocks = {}  # the table comes after the scales, so it never adds to their temporaries
    for k in sorted(set(scales)):
        if not 1 - K <= k <= 0:
            raise ValueError("scale outside resolution range")
        B = 1 << (K + k)
        nb = 1 << -k
        g0, g2 = np.arange(nb)[:, None], np.arange(nb)
        if slot in (0, 2):
            # slot 0: C[i2, m1, nu] -> S[m2, m1, nu]; slot 2: C[i0, m1, nu] -> S[m0, m1, nu]
            C = _slot_coefficients(F, slot, k)
            S = (C**2).reshape(nb, B, nb, B).sum(axis=1)
            blocks[k] = np.multiply(S[g2 if slot == 0 else g0, g0 ^ g2], 2.0 ** (k - K))
        elif mode.kind == "fiberwise":
            labels = np.asarray(mode.labels, dtype=np.int64)
            if labels.shape != (ngrid,):
                raise ValueError("fiberwise labels must give one frequency per cell")
            R = (F.values**2).reshape(ngrid, nb, B).sum(axis=2)  # [i2, m0]
            acc = np.zeros((nb, nb, B))  # [m2, m0, nu]
            rows = np.arange(ngrid) >> (K + k)
            np.add.at(acc, (rows, slice(None), labels >> -k), R)
            blocks[k] = np.multiply(acc.transpose(1, 0, 2), 2.0 ** (-2 * K))
        else:
            # C[i0, m2, nu] -> D[i0, m2, image cell] -> S[m0, m2, nu]
            C = _slot_coefficients(F, 1, k)
            img = _image_cells(mode.multiplier, k, K)
            D = np.zeros((ngrid, nb, B))
            np.add.at(D, (slice(None), slice(None), img), C**2)
            S = D.reshape(nb, B, nb, B).sum(axis=1)
            blocks[k] = np.multiply(S, 2.0 ** (k - K))
    table = np.zeros((_bitile_count(K), 2))
    for k, block in blocks.items():
        scale_views(table)[k].reshape(block.shape)[...] = block
    return table


def _half_norms(F, slot, mode, member):
    """Squared norms of the lower (2n) and upper (2n+1) half of every bitile.

    Only the scales holding a member are tabulated; the others read zero.
    """
    scales = [k for k, m in scale_views(member).items() if m.any()]
    return tile_norm_table(F, slot, mode, scales).T


def _areas(member) -> np.ndarray:
    """4^k, the area of the spatial box, of each member of a mask."""
    return 4.0 ** _decode(_resolution(member))[member, 0]


def _size(member, lower, upper):
    """Size of a nonempty member mask, whose convexity is settled, and the half sums.

    The squared tree projection norm below a top decomposes orthogonally:
    both halves of the top plus, for each member whose j-half sits below
    the top, the opposite half.  halves[j] is that second sum below every
    potential top; the values are meaningful on members only.
    """
    halves = {
        1: half_down_sums(upper * member, 1),
        -1: half_down_sums(lower * member, -1),
    }
    energy = lower + upper + (halves[1] + halves[-1])
    worst = float(np.max(energy[member] / _areas(member)))
    return float(np.sqrt(worst)), halves


def size(
    slot: int,
    bitiles,
    F: GridFunction2D,
    mode: ProjectionMode | None = None,
) -> float:
    """Largest normalized tree projection norm over all tops.

    The supremum over arbitrary sub-trees is attained on full down-sets
    because the tree tiling refines monotonically, so only tops need to
    be scanned.
    """
    member = counts(bitiles, F.resolution) > 0
    if not member.any():
        return 0.0
    if not convex_scales(member):
        raise ValueError("collection is not convex")
    return _size(member, *_half_norms(F, slot, mode, member))[0]


# -- the selection algorithm -------------------------------------------------


def _box_energy(F: GridFunction2D, slot: int):
    """Raw squared sums of F over every dyadic test box, per scale."""
    K = F.resolution
    SQ = F.values**2
    out = {}
    for kJ in range(0, -K - 1, -1):
        B = 1 << (K + kJ)
        nb = 1 << -kJ
        BS = SQ.reshape(nb, B, nb, B).sum(axis=(1, 3))  # [arg1_blk, arg2_blk]
        grid0, grid2 = np.arange(nb)[:, None], np.arange(nb)
        if slot == 0:
            energy = BS[grid0 ^ grid2, grid2]
        elif slot == 1:
            energy = BS[grid2, grid0]
        else:
            energy = BS[grid0, grid0 ^ grid2]
        out[kJ] = energy * 2.0 ** (-2 * K)
    return out


def _counting_tables(forest, F, slot, level):
    """Per-scale (sum of contained tree areas, bound) arrays over all dyadic boxes.

    A top outside the unit square lies in no box; it is left out (and its
    tree fails `trees-convex-with-top`).
    """
    box_rhs = _box_energy(F, slot)
    kT, a0, a2, _ = Forest.of(forest).tops.rows.T
    square = (np.minimum(a0, a2) >= 0) & (np.maximum(a0, a2) < 1 << -np.minimum(kT, 0))
    bound = 9.0 * 4.0**level
    counting = {}
    for kJ, rhs in box_rhs.items():
        nb = rhs.shape[0]
        inside = square & (kT <= kJ)
        d = kJ - kT[inside]
        lhs = np.zeros((nb, nb))
        # in tree order, as a running sum per box
        np.add.at(lhs, (a0[inside] >> d, a2[inside] >> d), 4.0 ** kT[inside])
        counting[kJ] = (lhs, bound * rhs)
    return counting


def _take_trees(remaining, tops: np.ndarray) -> Forest:
    """Cut the down-set of each top position, in order, out of the remaining mask.

    Taken one at a time, each remaining bitile goes to the first top above
    it: the minimum of the top ranks over its up-set, so one pass takes
    them all.  Within one tree the frequency index is fixed per scale, so
    a stable sort by owner of the positions lists each tree's members
    coarsest scale first, then by m0, m2.
    """
    rank = np.full(len(remaining), len(tops))
    rank[tops] = np.arange(len(tops))
    owner = up_sums(rank, np.minimum)
    owned = remaining & (owner < len(tops))
    of = owner[owned]
    order = np.argsort(of, kind="stable")
    remaining &= ~owned
    rows = _decode(_resolution(remaining))
    members = BitileRows(rows[np.flatnonzero(owned)[order]])
    return Forest(BitileRows(rows[tops]), members, of[order])


def select_forests(
    slot: int,
    bitiles,
    F: GridFunction2D,
    mode: ProjectionMode | None = None,
    level: int = 0,
) -> tuple[BitileRows, BitileRows, tuple[Forest, Forest, Forest]]:
    """Three-phase tree removal at size threshold 2^(-level).

    Phase 1 removes down-sets of the maximal bitiles whose own projection
    is heavy.  Phases 2 and 3 (frequency halves j = -1 then j = +1)
    iteratively remove the down-set of the top with extremal frequency
    endpoint among those whose half-sums are heavy.  Every removal is a
    down-set, so the remainder and all removed collections stay convex.
    Returns the collection, the remainder and the three phases' forests;
    `select_trees` adds the counting tables that make them a certificate.
    """
    K = F.resolution
    member = counts(bitiles, K) > 0
    if not member.any():
        return (), (), (Forest.of(()),) * 3
    if not convex_scales(member):
        raise ValueError("collection is not convex")
    lower, upper = _half_norms(F, slot, mode, member)
    rows = _decode(K)
    bar = 4.0 ** (-level) / 3.0 * 4.0 ** rows[:, 0]  # the threshold times the area
    remaining = member.copy()

    # phase 1: heavy bitiles, maximal ones first, coarsest to finest
    heavy = member & (lower + upper > bar)
    tops1 = heavy & (up_sums(heavy.astype(np.int64)) == 1)
    forest1 = _take_trees(remaining, np.flatnonzero(tops1))

    # phases 2 and 3: heavy half-tile sums over T_j, extremal endpoint first
    half_forests = []
    for j in (-1, 1):
        contrib = upper if j == 1 else lower  # norm of P^{-j}
        picked = []
        while True:
            scores = half_down_sums(contrib * remaining, j)
            cand = np.flatnonzero(remaining & (scores > bar))
            if not len(cand):
                break
            ks, m0s, m2s, ns = rows[cand].T
            if j == -1:
                endpoint = ns << (1 - ks)
            else:
                endpoint = -((ns + 1) << (1 - ks))
            first = np.lexsort((m2s, m0s, ks, endpoint))[0]
            picked.append(_take_trees(remaining, cand[[first]]))
        half_forests.append(Forest.of(picked))

    return support(member), support(remaining), (forest1, *half_forests)


def select_trees(
    slot: int,
    bitiles,
    F: GridFunction2D,
    mode: ProjectionMode | None = None,
    level: int = 0,
) -> SelectionCertificate:
    """The certificate of `select_forests`: its forests and their counting tables."""
    collection, remainder, forests = select_forests(slot, bitiles, F, mode, level)
    counting = _counting_tables(Forest.of(forests), F, slot, level)
    return SelectionCertificate(
        collection, remainder, forests, slot, level, mode, counting
    )


# -- verification ------------------------------------------------------------


def _incomparable(c: np.ndarray, resolution: int) -> bool:
    """No two rows comparable and none repeated.

    p <= q with q d >= 1 scales above p exactly when (scale + d, m0 >> d,
    m2 >> d, n) of p equals (scale, m0, m2, n >> d) of q (see `le`).  With
    both sides keyed d N + position, one set lookup finds every comparable
    pair.
    """
    if not _fits(c, resolution).all():
        return False
    if _unique_ints(_position(*c.T, resolution)).size < len(c):
        return False
    k, m0, m2, n = c.T
    d = np.arange(1, resolution)[:, None]
    N = _bitile_count(resolution)
    up = np.minimum(k + d, 0)  # an ancestor exists where scale + d <= 0
    ancestors = (d * N + _position(up, m0 >> d, m2 >> d, n, resolution))[k + d <= 0]
    below = d * N + _position(k, m0, m2, n >> d, resolution)
    return not _isin_ints(ancestors, below).any()


def _tree_arrays(forest):
    """Member rows of all trees, each with its tree's index and top row."""
    forest = Forest.of(forest)
    return forest.owner, forest.members.rows, forest.tops.rows[forest.owner]


def _below_top(c: np.ndarray, top: np.ndarray):
    """Depth d of each row under its top row, and whether it lies below it.

    p <= q exactly when q sits d >= 0 scales above p, p's spatial indices
    shifted down by d are q's, and n_q shifted down by d is n_p (`le`).
    """
    d = top[:, 0] - c[:, 0]
    s = np.maximum(d, 0)
    return d, (
        (d >= 0)
        & (c[:, 1] >> s == top[:, 1])
        & (c[:, 2] >> s == top[:, 2])
        & (top[:, 3] >> s == c[:, 3])
    )


def _trees_ok(owner, c, top, resolution: int) -> bool:
    """Every tree is convex and its members fit and lie below its top.

    Inside down(q), each bitile other than q at depth d has exactly one
    parent in down(q): its spatial parent with frequency index
    n_q >> (d - 1) (going up multiplies n by 2, plus 0 or 1).  Since the
    down-sets one scale below a bitile partition the rest of its
    down-set, every bitile of down(q) above p lies on this parent chain
    from p to q.  So a collection below q that holds q is convex exactly
    when it holds the parent of each of its members other than q.
    Takes the rows of `_tree_arrays`.
    """
    if not (_fits(c, resolution).all() and _fits(top, resolution).all()):
        return False  # below a top that does not fit, a member or parent does not
    d, below = _below_top(c, top)
    if not below.all():
        return False
    inner = d > 0  # the members other than the top
    k, m0, m2, _ = c[inner].T
    parent_n = top[inner, 3] >> (d[inner] - 1)
    N = _bitile_count(resolution)
    parents = _position(k + 1, m0 >> 1, m2 >> 1, parent_n, resolution)
    keys = owner * N + _position(*c.T, resolution)
    return bool(_isin_ints(owner[inner] * N + parents, keys).all())


def _selected_halves(forest, j: int) -> np.ndarray:
    """Rows of P.half(-j) for the members P whose j-half lies below the top.

    P.half(j) <= q exactly when P sits d >= 1 scales below q and bit
    d - 1 of n_q is 0 for j = +1 (the lower half), 1 for j = -1.
    """
    _, c, top = _tree_arrays(forest)
    d, below = _below_top(c, top)
    bit = top[:, 3] >> np.maximum(d - 1, 0) & 1
    picked = below & (d > 0) & (bit == (j == -1))
    k, m0, m2, n = c[picked].T
    return np.column_stack((k, m0, m2, 2 * n + (j == 1)))


def _isclose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise `math.isclose` with rel_tol = abs_tol = 1e-12."""
    diff = np.abs(a - b)
    near = diff <= np.maximum(1e-12 * np.maximum(np.abs(a), np.abs(b)), 1e-12)
    return (a == b) | (np.isfinite(a) & np.isfinite(b) & near)


def _counting_bound(counting):
    """(bound holds, worst box, worst ratio) over the boxes of counting tables.

    A box with rhs = 0 reads ratio inf when lhs > 0, else 0.  The worst box
    (kJ, m0, m2) is the first of largest ratio in table order, None when
    every ratio is 0.  There is at least one box, the unit square.
    """
    lhs, rhs = (
        np.concatenate([pair[i].ravel() for pair in counting.values()]) for i in (0, 1)
    )
    bound_ok = not (lhs > rhs * (1.0 + 1e-12)).any()
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(rhs > 0, lhs / rhs, np.where(lhs > 0, math.inf, 0.0))
    i = int(np.argmax(ratio))
    if ratio[i] == 0.0:
        return bound_ok, None, 0.0
    worst = float(ratio[i])
    for kJ, (table, _) in counting.items():
        if i < table.size:
            return bound_ok, (kJ, *map(int, np.unravel_index(i, table.shape))), worst
        i -= table.size


def verify_certificate(cert: SelectionCertificate, F: GridFunction2D):
    """Re-check a selection certificate from scratch, at its slot and level.

    Returns (ok, report).  The report lists each check with its outcome
    and carries both readings of the per-tree threshold (linear and
    squared in the tree area) for the remainder.
    """
    slot, level = cert.slot, cert.level
    checks: list[tuple[str, bool, str]] = []

    def check(name, ok, detail=""):
        checks.append((name, bool(ok), detail))

    # partition, on one key per row: sorted unique keys compare as sets
    K = F.resolution
    trees = cert.trees
    owner, members, tops = _tree_arrays(trees)
    remainder = _coords(cert.remainder)
    parts = len(remainder) + len(members)
    keys = _keys(np.concatenate((remainder, members, _coords(cert.collection))), K)
    seen = _unique_ints(keys[:parts])
    check("partition-disjoint", len(seen) == parts)
    check("partition-union", np.array_equal(seen, _unique_ints(keys[parts:])))

    # convexity of remainder (localized first) and of each tree, tree tops
    # dominate members
    localized = _fits(remainder, _least_resolution(remainder)).all()
    check("remainder-convex", localized and is_convex(remainder))
    # rows, unlike `Tree`s, can hold a tree without members
    nonempty = np.bincount(owner, minlength=len(trees)).all()
    check("trees-convex-with-top", nonempty and _trees_ok(owner, members, tops, K))

    # phase 1 tops pairwise disjoint (as bitiles: no two comparable)
    check("phase1-tops-disjoint", _incomparable(cert.forests[0].tops.rows, K))

    # phases 2, 3: selected opposite halves pairwise disjoint per phase; a
    # tile at resolution K orders like the bitile with its indices at K + 1
    for forest, j, name in (
        (cert.forests[1], -1, "phase2-halves-disjoint"),
        (cert.forests[2], 1, "phase3-halves-disjoint"),
    ):
        check(name, _incomparable(_selected_halves(forest, j), K + 1))

    # remainder size, and both readings of the per-tree half-sum threshold
    rem_size, worst_lin, worst_sq = _remainder_readings(cert, F, slot, level)
    target = 2.0 ** (-level)
    check(
        "remainder-size",
        rem_size <= target * (1.0 + 1e-9),
        f"size {rem_size:.6e} vs 2^-{level}",
    )

    # counting bound, recomputed from scratch; the stored tables must match
    # it in scale keys, then in shapes, then in values
    recomputed = _counting_tables(trees, F, slot, level)
    stored = {kJ: [np.asarray(t) for t in p] for kJ, p in cert.counting.items()}
    match = stored.keys() == recomputed.keys() and all(
        [a.shape for a in stored[kJ]] == [b.shape for b in p]
        for kJ, p in recomputed.items()
    )
    match = match and all(
        _isclose(a, b).all()
        for kJ, p in recomputed.items()
        for a, b in zip(stored[kJ], p)
    )
    check("counting-tables-match", match)
    bound_ok, worst_box, worst_ratio = _counting_bound(recomputed)
    check("counting-bound", bound_ok, f"worst box {worst_box} ratio {worst_ratio:.4f}")

    ok = all(passed for _, passed, _ in checks)
    report = {
        "checks": checks,
        "remainder_size": rem_size,
        "size_target": target,
        "counting_worst_box": worst_box,
        "counting_worst_ratio": worst_ratio,
        "halfsum_ratio_linear": worst_lin,
        "halfsum_ratio_squared": worst_sq,
    }
    return ok, report


def _remainder_readings(cert, F, slot, level):
    """Remainder size and max half-sum ratios, linear and squared area readings.

    Both come from one set of member arrays, half-norm tables and half
    sums.  A remainder that does not fit F's resolution reads size inf, ratios nan.
    """
    if not _fits(_coords(cert.remainder), F.resolution).all():
        return math.inf, math.nan, math.nan
    member = counts(cert.remainder, F.resolution) > 0
    if not member.any():
        return 0.0, 0.0, 0.0
    rem_size, halves = _size(member, *_half_norms(F, slot, cert.mode, member))
    threshold = 4.0 ** (-level) / 3.0
    area = _areas(member)
    worst_lin = 0.0
    worst_sq = 0.0
    for j in (-1, 1):
        s = halves[j][member]
        worst_lin = max(worst_lin, float(np.max(s / (threshold * area))))
        worst_sq = max(worst_sq, float(np.max(s / (threshold * area**2))))
    return rem_size, worst_lin, worst_sq


# -- single-tree form report -------------------------------------------------


def single_tree_report(
    tree: Tree,
    eps,
    F0: GridFunction2D,
    F1: GridFunction2D,
    F2: GridFunction2D,
    mode: ProjectionMode | None = None,
) -> dict:
    """Tree form value against the product-of-sizes bound.

    The bound is the tree area times the three slot sizes; the ratio is
    the empirical constant of the single-tree estimate.
    """
    value = lambda_tree(tree.members, eps, F0, F1, F2)
    member = counts(tree.members, F0.resolution) > 0
    if not convex_scales(member):
        raise ValueError("collection is not convex")
    sizes = tuple(
        _size(member, *_half_norms(F, slot, m, member))[0]
        for slot, F, m in ((0, F0, None), (1, F1, mode), (2, F2, None))
    )
    bound = tree.area * sizes[0] * sizes[1] * sizes[2]
    if bound > 0.0:
        ratio = abs(value) / bound
    else:
        ratio = math.inf if abs(value) > 0 else 0.0
    return {
        "value": value,
        "area": tree.area,
        "sizes": sizes,
        "bound": bound,
        "ratio": ratio,
    }

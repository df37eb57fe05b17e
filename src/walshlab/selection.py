"""Size functional and the three-phase tree selection with certificates.

A tree is a convex collection of bitiles lying below a common top.  The
selection algorithm peels off trees whose projections carry too much
energy, in three phases: heavy single bitiles, then heavy tree sums for
each frequency half.  What remains has small size, and the removed trees
satisfy a Carleson-type counting bound with constant 9 * 2^(2n) over
every dyadic test box.  Certificates carry enough data to re-check all
of this independently.

The partial-order work runs on one array per scale (see `tiles`): the
size functional, the selection phases and the disjointness checks are
down-set or up-set sums, one pass across the scales each, and a tree is
cut out of the remaining arrays one spatial block per scale.  Per-tile
projection norms come from local coefficient tables, not from forming
any projection explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gridfn import GridFunction2D
from .tiles import (
    Bitile,
    ProjectionMode,
    Tile,
    _diag_image_cell,
    _require_half_tile_regions,
    convex_scales,
    down_sums,
    half_down_sums,
    is_convex,
    le,
    scale_arrays,
    scale_members,
    up_sums,
)
from .walsh import DyadicInterval
from .wavelets import coefficient_rows

__all__ = [
    "Tree",
    "SelectionCertificate",
    "size",
    "select_trees",
    "verify_certificate",
    "single_tree_report",
]


@dataclass(frozen=True)
class Tree:
    """Convex collection of bitiles below (and containing) a top."""

    top: Bitile
    members: tuple[Bitile, ...]

    def __post_init__(self):
        if self.top not in self.members:
            raise ValueError("tree top must be a member")

    @property
    def scale(self) -> int:
        return self.top.scale

    @property
    def area(self) -> float:
        """Product of the two free spatial interval lengths."""
        return 4.0**self.top.scale

    @property
    def freq(self) -> DyadicInterval:
        return self.top.freq

    def spatial(self, i: int) -> DyadicInterval:
        return self.top.time_interval(i)


@dataclass(frozen=True)
class SelectionCertificate:
    """Everything needed to re-check a selection run.

    counting maps each dyadic test box (scale, m0, m2) to the pair
    (sum of tree areas inside the box, allowed bound for that box).
    """

    collection: tuple[Bitile, ...]
    remainder: tuple[Bitile, ...]
    forests: tuple[tuple[Tree, ...], tuple[Tree, ...], tuple[Tree, ...]]
    slot: int
    level: int
    mode: ProjectionMode | None
    counting: dict[tuple[int, int, int], tuple[float, float]]

    @property
    def trees(self) -> tuple[Tree, ...]:
        return tuple(t for forest in self.forests for t in forest)


# -- projection norm tables --------------------------------------------------


def tile_norm_table(
    F: GridFunction2D,
    slot: int,
    mode: ProjectionMode | None,
    scales,
) -> dict[int, np.ndarray]:
    """Squared projection norms of every scale-k tile, k in scales.

    Scale k maps to an array [m0, m2, nu] of shape (2^-k, 2^-k, 2^(K+k)).
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
    table: dict[int, np.ndarray] = {}
    for k in sorted(set(scales)):
        if not -K <= k <= 0:
            raise ValueError("scale outside resolution range")
        B = 1 << (K + k)
        nb = 1 << -k
        g0, g2 = np.meshgrid(np.arange(nb), np.arange(nb), indexing="ij")
        if slot == 0:
            # C[i2, m1, nu] -> S[m2, m1, nu]
            C = coefficient_rows(F.values.T.reshape(ngrid, nb, B), K + k)
            S = (C**2).reshape(nb, B, nb, B).sum(axis=1)
            table[k] = 2.0 ** (k - K) * S[g2, g0 ^ g2]
        elif slot == 2:
            # C[i0, m1, nu] -> S[m0, m1, nu]
            C = coefficient_rows(F.values.reshape(ngrid, nb, B), K + k)
            S = (C**2).reshape(nb, B, nb, B).sum(axis=1)
            table[k] = 2.0 ** (k - K) * S[g0, g0 ^ g2]
        elif mode.kind == "fiberwise":
            labels = np.asarray(mode.labels, dtype=np.int64)
            if labels.shape != (ngrid,):
                raise ValueError("fiberwise labels must give one frequency per cell")
            R = (F.values**2).reshape(ngrid, nb, B).sum(axis=2)  # [i2, m0]
            acc = np.zeros((nb, nb, B))  # [m2, m0, nu]
            rows = np.arange(ngrid) >> (K + k)
            np.add.at(acc, (rows, slice(None), labels >> -k), R)
            table[k] = 2.0 ** (-2 * K) * acc.transpose(1, 0, 2)
        else:
            # C[i0, m2, nu] -> D[i0, m2, image cell] -> S[m0, m2, nu]
            C = coefficient_rows(F.values.T.reshape(ngrid, nb, B), K + k)
            img = np.array(
                [_diag_image_cell(mode.multiplier, nu, k, K) for nu in range(B)],
                dtype=np.int64,
            )
            D = np.zeros((ngrid, nb, B))
            np.add.at(D, (slice(None), slice(None), img), C**2)
            S = D.reshape(nb, B, nb, B).sum(axis=1)
            table[k] = 2.0 ** (k - K) * S
    return table


def _half_norms(F, slot, mode, member):
    """Squared norms of the lower (2n) and upper (2n+1) half of every bitile.

    Only the scales holding a member are tabulated; the others read zero.
    """
    table = tile_norm_table(F, slot, mode, [k for k, m in member.items() if m.any()])
    lower, upper = {}, {}
    for k, m in member.items():
        t = table.get(k, np.zeros(m.shape[:2] + (2 * m.shape[2],)))
        lower[k], upper[k] = t[:, :, 0::2], t[:, :, 1::2]
    return lower, upper


def _tree_energy(member, lower, upper):
    """Squared tree projection norm below every potential top.

    Orthogonal decomposition: both halves of the top plus, for each
    member whose j-half sits below the top, the opposite half.  The value
    is meaningful on members only.
    """
    plus = half_down_sums({k: upper[k] * m for k, m in member.items()}, 1)
    minus = half_down_sums({k: lower[k] * m for k, m in member.items()}, -1)
    return {k: lower[k] + upper[k] + (plus[k] + minus[k]) for k in member}


def _size(member, F, slot, mode) -> float:
    """Size of the members, whose convexity the caller has settled."""
    energy = _tree_energy(member, *_half_norms(F, slot, mode, member))
    worst = max(
        float(np.max(energy[k][m] / 4.0**k)) for k, m in member.items() if m.any()
    )
    return float(np.sqrt(worst))


def _members(bitiles, resolution):
    """Per-scale membership arrays, or None for an empty collection."""
    member = {k: x > 0 for k, x in scale_arrays(bitiles, resolution).items()}
    return member if any(m.any() for m in member.values()) else None


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
    member = _members(bitiles, F.resolution)
    if member is None:
        return 0.0
    if not convex_scales(member):
        raise ValueError("collection is not convex")
    return _size(member, F, slot, mode)


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
        grid0, grid2 = np.meshgrid(np.arange(nb), np.arange(nb), indexing="ij")
        if slot == 0:
            energy = BS[grid0 ^ grid2, grid2]
        elif slot == 1:
            energy = BS[grid2, grid0]
        else:
            energy = BS[grid0, grid0 ^ grid2]
        out[kJ] = energy * 2.0 ** (-2 * K)
    return out


def _counting_tables(trees, F, slot, level):
    """Per-box (sum of contained tree areas, bound) for all dyadic boxes."""
    K = F.resolution
    box_rhs = _box_energy(F, slot)
    lhs = {kJ: np.zeros((1 << -kJ, 1 << -kJ)) for kJ in box_rhs}
    for t in trees:
        kT, a0, a2 = t.top.scale, t.top.m0, t.top.m2
        for kJ in range(kT, 1):
            d = kJ - kT
            lhs[kJ][a0 >> d, a2 >> d] += 4.0**kT
    bound = 9.0 * 4.0**level
    counting = {}
    for kJ in box_rhs:
        nb = 1 << -kJ
        for a in range(nb):
            for b in range(nb):
                counting[(kJ, a, b)] = (
                    float(lhs[kJ][a, b]),
                    float(bound * box_rhs[kJ][a, b]),
                )
    return counting


def select_trees(
    slot: int,
    bitiles,
    F: GridFunction2D,
    mode: ProjectionMode | None = None,
    level: int = 0,
) -> SelectionCertificate:
    """Three-phase tree removal at size threshold 2^(-level).

    Phase 1 removes down-sets of the maximal bitiles whose own projection
    is heavy.  Phases 2 and 3 (frequency halves j = -1 then j = +1)
    iteratively remove the down-set of the top with extremal frequency
    endpoint among those whose half-sums are heavy.  Every removal is a
    down-set, so the remainder and all removed collections stay convex.
    """
    K = F.resolution
    member = _members(bitiles, K)
    if member is None:
        return SelectionCertificate(
            (), (), ((), (), ()), slot, level, mode, _counting_tables([], F, slot, level)
        )
    if not convex_scales(member):
        raise ValueError("collection is not convex")
    collection = tuple(scale_members(member))
    lower, upper = _half_norms(F, slot, mode, member)
    threshold = 4.0 ** (-level) / 3.0
    remaining = {k: m.copy() for k, m in member.items()}

    def take_tree(q: Bitile) -> Tree:
        # down(q) at scale q.scale - d: the 2^d x 2^d spatial block under
        # q at frequency index n_q >> d
        members = []
        for d in range(q.scale + K):
            a0, a2, n = q.m0 << d, q.m2 << d, q.n >> d
            block = remaining[q.scale - d][a0 : a0 + (1 << d), a2 : a2 + (1 << d), n]
            members.extend(
                Bitile(q.scale - d, a0 + i, a2 + i2, n)
                for i, i2 in np.argwhere(block).tolist()
            )
            block[...] = False
        return Tree(q, tuple(members))

    # phase 1: heavy bitiles, maximal ones first, coarsest to finest
    heavy = {
        k: m & ((lower[k] + upper[k]) > threshold * 4.0**k) for k, m in member.items()
    }
    heavy_above = up_sums({k: h.astype(np.int64) for k, h in heavy.items()})
    tops1 = {k: h & (heavy_above[k] == 1) for k, h in heavy.items()}
    forest1 = tuple(take_tree(q) for q in scale_members(tops1))

    # phases 2 and 3: heavy half-tile sums over T_j, extremal endpoint first
    half_forests = []
    for j in (-1, 1):
        contrib = upper if j == 1 else lower  # norm of P^{-j}
        picked = []
        while True:
            weights = {k: contrib[k] * r for k, r in remaining.items()}
            scores = half_down_sums(weights, j)
            cand = []
            for k, r in remaining.items():
                idx = np.argwhere(r & (scores[k] > threshold * 4.0**k))
                cand.append(np.column_stack((np.full(len(idx), k), idx)))
            cand = np.concatenate(cand)
            if not len(cand):
                break
            ks, m0s, m2s, ns = cand.T
            if j == -1:
                endpoint = ns << (1 - ks)
            else:
                endpoint = -((ns + 1) << (1 - ks))
            k, m0, m2, n = cand[np.lexsort((m2s, m0s, ks, endpoint))[0]].tolist()
            picked.append(take_tree(Bitile(k, m0, m2, n)))
        half_forests.append(tuple(picked))

    remainder = tuple(scale_members(remaining))
    forests = (forest1, half_forests[0], half_forests[1])
    all_trees = [t for forest in forests for t in forest]
    counting = _counting_tables(all_trees, F, slot, level)
    return SelectionCertificate(
        collection, remainder, forests, slot, level, mode, counting
    )


# -- verification ------------------------------------------------------------


def _incomparable(objs, resolution: int) -> bool:
    """No two comparable and none repeated: each own down-set count is 1."""
    X = scale_arrays(objs, resolution)
    below = down_sums(X)
    return all((below[k][x > 0] == 1).all() for k, x in X.items())


def _tree_ok(tree: Tree, resolution: int) -> bool:
    """Convex, and every member lies below the top: its down-set counts all.

    A member that does not fit the resolution fails the check.
    """
    try:
        X = scale_arrays(tree.members, resolution)
    except ValueError:
        return False
    q = tree.top
    return down_sums(X)[q.scale][q.m0, q.m2, q.n] == len(tree.members) and convex_scales(X)


def _tree_selected_halves(tree: Tree, j: int) -> list[Tile]:
    return [
        P.half(-j)
        for P in tree.members
        if P != tree.top and le(P.half(j), tree.top)
    ]


def verify_certificate(
    cert: SelectionCertificate,
    F: GridFunction2D,
    slot: int | None = None,
    level: int | None = None,
):
    """Re-check a selection certificate from scratch.

    Returns (ok, report).  The report lists each check with its outcome
    and carries both readings of the per-tree threshold (linear and
    squared in the tree area) for the remainder.
    """
    slot = cert.slot if slot is None else slot
    level = cert.level if level is None else level
    checks: list[tuple[str, bool, str]] = []

    def check(name, ok, detail=""):
        checks.append((name, bool(ok), detail))

    # partition
    parts = [b for part in (cert.remainder, *[t.members for t in cert.trees]) for b in part]
    seen = set(parts)
    check("partition-disjoint", len(seen) == len(parts))
    check("partition-union", seen == set(cert.collection))

    # convexity of remainder and of each tree, tree tops dominate members
    K = F.resolution
    check("remainder-convex", is_convex(cert.remainder))
    check("trees-convex-with-top", all(_tree_ok(t, K) for t in cert.trees))

    # phase 1 tops pairwise disjoint (as bitiles: no two comparable)
    check("phase1-tops-disjoint", _incomparable([t.top for t in cert.forests[0]], K))

    # phases 2, 3: selected opposite halves pairwise disjoint per phase; a
    # tile at resolution K orders like the bitile with its indices at K + 1
    for forest, j, name in (
        (cert.forests[1], -1, "phase2-halves-disjoint"),
        (cert.forests[2], 1, "phase3-halves-disjoint"),
    ):
        halves = [h for t in forest for h in _tree_selected_halves(t, j)]
        check(name, _incomparable(halves, K + 1))

    # remainder size, read on any remainder (its convexity is checked above)
    rem_member = _members(cert.remainder, K)
    rem_size = 0.0 if rem_member is None else _size(rem_member, F, slot, cert.mode)
    target = 2.0 ** (-level)
    check(
        "remainder-size",
        rem_size <= target * (1.0 + 1e-9),
        f"size {rem_size:.6e} vs 2^-{level}",
    )

    # counting bound, recomputed from scratch
    recomputed = _counting_tables(list(cert.trees), F, slot, level)
    stored_match = all(
        math.isclose(cert.counting[box][0], recomputed[box][0], rel_tol=1e-12, abs_tol=1e-12)
        and math.isclose(cert.counting[box][1], recomputed[box][1], rel_tol=1e-12, abs_tol=1e-12)
        for box in recomputed
    ) and set(cert.counting) == set(recomputed)
    check("counting-tables-match", stored_match)
    worst_box, worst_ratio = None, 0.0
    bound_ok = True
    for box, (lhs, rhs) in recomputed.items():
        if lhs > rhs * (1.0 + 1e-12):
            bound_ok = False
        ratio = lhs / rhs if rhs > 0 else (math.inf if lhs > 0 else 0.0)
        if ratio > worst_ratio:
            worst_box, worst_ratio = box, ratio
    check("counting-bound", bound_ok, f"worst box {worst_box} ratio {worst_ratio:.4f}")

    # both readings of the per-tree half-sum threshold on the remainder
    readings = _threshold_readings(cert, F, slot, level)

    ok = all(passed for _, passed, _ in checks)
    report = {
        "checks": checks,
        "remainder_size": rem_size,
        "size_target": target,
        "counting_worst_box": worst_box,
        "counting_worst_ratio": worst_ratio,
        **readings,
    }
    return ok, report


def _threshold_readings(cert, F, slot, level):
    """Max remainder half-sum ratios, linear and squared area readings."""
    member = _members(cert.remainder, F.resolution)
    if member is None:
        return {"halfsum_ratio_linear": 0.0, "halfsum_ratio_squared": 0.0}
    lower, upper = _half_norms(F, slot, cert.mode, member)
    threshold = 4.0 ** (-level) / 3.0
    worst_lin = 0.0
    worst_sq = 0.0
    for j in (-1, 1):
        contrib = upper if j == 1 else lower
        scores = half_down_sums({k: contrib[k] * m for k, m in member.items()}, j)
        for k, m in member.items():
            if m.any():
                s, area = scores[k][m], 4.0**k
                worst_lin = max(worst_lin, float(np.max(s / (threshold * area))))
                worst_sq = max(worst_sq, float(np.max(s / (threshold * area**2))))
    return {"halfsum_ratio_linear": worst_lin, "halfsum_ratio_squared": worst_sq}


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
    from .triform import lambda_tree

    value = lambda_tree(tree.members, eps, F0, F1, F2)
    sizes = (
        size(0, tree.members, F0),
        size(1, tree.members, F1, mode),
        size(2, tree.members, F2),
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

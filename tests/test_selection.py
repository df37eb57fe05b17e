"""Tree selection tests.

Projection-norm tables are checked against explicitly formed projections,
the per-scale down-set, up-set and half-tile sums against the scalar
order, and the size functional against exhaustive enumeration of every
sub-tree of small collections.  Selection certificates are validated end
to end, then mutated to confirm the verifier rejects, one check at a time;
its whole-array checks are held to per-object references.
"""

import dataclasses
import hashlib
import itertools
import math

import numpy as np
import pytest

from walshlab.ensembles import (
    indicator_with_measure,
    random_bitile,
    random_tree,
    signed_indicator,
)
from walshlab.gridfn import GridFunction2D
from walshlab.selection import (
    Forest,
    SelectionCertificate,
    Tree,
    _box_energy,
    _coords,
    _counting_bound,
    _counting_tables,
    _incomparable,
    _selected_halves,
    _take_trees,
    _tree_arrays,
    _trees_ok,
    select_trees,
    single_tree_report,
    size,
    tile_norm_table,
    verify_certificate,
)
from walshlab.tiles import (
    BaseTile,
    Bitile,
    BitileRows,
    ProjectionMode,
    Tile,
    _keys,
    all_bitiles,
    convex_scales,
    counts,
    down_sums,
    half_down_sums,
    is_convex,
    le,
    positions,
    proj_bitile,
    proj_collection,
    proj_tile,
    scale_views,
    support,
    up_sums,
)
from walshlab.walsh import WalshNumber

from .oracles import down_set, eps_weight, take_tree


def rand2d(K, seed):
    rng = np.random.default_rng(seed)
    return GridFunction2D(K, rng.normal(size=(1 << K, 1 << K)))


def indicator2d(K, seed, density=0.3):
    rng = np.random.default_rng(seed)
    return GridFunction2D(
        K, (rng.random((1 << K, 1 << K)) < density).astype(float)
    )


def modes_for(K, seed=0):
    rng = np.random.default_rng(seed)
    return [
        (0, None),
        (2, None),
        (1, ProjectionMode.fiberwise(rng.integers(0, 1 << K, size=1 << K))),
        (1, ProjectionMode.diagonal(WalshNumber.from_float(1.5))),
    ]


class TestNormTables:
    def test_table_matches_formed_projections(self):
        K = 4
        F = rand2d(K, 1)
        rng = np.random.default_rng(2)
        for slot, mode in modes_for(K):
            table = tile_norm_table(F, slot, mode, range(-K + 1, 1))
            for _ in range(25):
                k = int(rng.integers(-K + 1, 1))
                nb = 1 << -k
                t = Tile(
                    k,
                    int(rng.integers(nb)),
                    int(rng.integers(nb)),
                    int(rng.integers(1 << (K + k))),
                )
                want = proj_tile(t, slot, F, mode).norm(2) ** 2
                got = scale_views(table)[t.scale].reshape(nb, nb, -1)[t.m0, t.m2, t.n]
                assert got == pytest.approx(want, rel=1e-10, abs=1e-15)

    def test_slot1_requires_mode(self):
        F = rand2d(3, 3)
        with pytest.raises(ValueError, match="projection mode"):
            tile_norm_table(F, 1, None, [0])

    @pytest.mark.parametrize("a_float", [2.0, 2.75])
    def test_slot1_diagonal_rejects_large_multipliers(self, a_float):
        # per-tile energies group cells under half-tiles, which have no
        # slot-1 region once |a| >= 2
        F = rand2d(3, 3)
        mode = ProjectionMode.diagonal(WalshNumber.from_float(a_float))
        with pytest.raises(ValueError, match="no half-tile slot-1 region"):
            tile_norm_table(F, 1, mode, [0])


class TestVectorizedOrder:
    def test_scale_sums_match_scalar(self):
        K = 4
        pool = all_bitiles(K)
        rng = np.random.default_rng(4)
        value = {p: float(v) for p, v in zip(pool, rng.normal(size=len(pool)))}
        at = dict(zip(pool, positions(pool, K).tolist()))
        X = np.zeros(len(pool))
        for p, v in value.items():
            X[at[p]] = v
        sums = {
            "down": (down_sums(X), le),
            "up": (up_sums(X), lambda p, q: le(q, p)),
            "half+1": (half_down_sums(X, 1), lambda p, q: le(p.half(1), q)),
            "half-1": (half_down_sums(X, -1), lambda p, q: le(p.half(-1), q)),
        }
        for name, (got, rel) in sums.items():
            for q in pool:
                want = sum(value[p] for p in pool if rel(p, q))
                assert got[at[q]] == pytest.approx(
                    want, rel=1e-12, abs=1e-12
                ), (name, q)

    def test_scale_members_order_and_multiplicity(self):
        K = 4
        pool = all_bitiles(K)
        rng = np.random.default_rng(6)
        picks = [pool[i] for i in rng.integers(len(pool), size=40)]
        X = counts(picks, K)
        for p in set(picks):
            assert scale_views(X)[p.scale][p.m0, p.m2, p.n] == picks.count(p)
        assert support(X) == sorted(
            set(picks), key=lambda b: (-b.scale, b.m0, b.m2, b.n)
        )
        assert int(X.sum()) == len(picks)

    @pytest.mark.parametrize(
        "bad",
        [
            Bitile(-4, 0, 0, 0),  # below the finest bitile scale
            Bitile(-1, 2, 0, 0),  # not localized
            Bitile(-1, 0, 0, 4),  # frequency beyond 2^K
            Bitile(0, 0, 0, 8),
            # rows no `Bitile` can hold: negative indices, positive scale
            np.array([[-1, -1, 0, 0]]),
            np.array([[-1, 0, -1, 0]]),
            np.array([[0, 0, 0, -1]]),
            np.array([[1, 0, 0, 0]]),
        ],
    )
    def test_scale_arrays_rejects_misfits(self, bad):
        with pytest.raises(ValueError, match="does not fit"):
            counts(bad if isinstance(bad, np.ndarray) else [bad], 4)

    def test_convexity_matches_reference(self):
        K = 4
        full = all_bitiles(K)

        def brute(coll):
            # convex: no outside b with p <= b <= q for members p, q
            return not any(
                b not in coll
                and any(le(p, b) for p in coll)
                and any(le(b, q) for q in coll)
                for b in full
            )

        rng = np.random.default_rng(5)
        seen = set()
        for trial in range(24):
            if trial % 3 == 0:
                coll = {p for p in full if rng.random() < 0.1}
            else:
                coll = set()
                for _ in range(2):
                    coll |= down_set(full, full[rng.integers(len(full))])
            middle = [
                b for b in coll
                if any(le(p, b) and p != b for p in coll)
                and any(le(b, q) and q != b for q in coll)
            ]
            if trial % 3 == 2 and middle:
                # removing a member between two others breaks convexity
                coll.discard(middle[rng.integers(len(middle))])
            want = brute(coll)
            seen.add(want)
            assert is_convex(coll) == want
        assert seen == {True, False}


def all_trees(collection):
    """Every subset that is a convex tree with top, brute force."""
    coll = list(collection)
    for r in range(1, len(coll) + 1):
        for subset in itertools.combinations(coll, r):
            tops = [b for b in subset if all(le(p, b) for p in subset)]
            if tops and is_convex(subset):
                yield subset


class TestSize:
    def test_empty(self):
        assert size(0, [], rand2d(3, 0)) == 0.0

    def test_single_bitile(self):
        K = 4
        F = rand2d(K, 6)
        P = Bitile(-1, 1, 0, 3)
        want = 2.0 ** -P.scale * proj_bitile(P, 0, F).norm(2)
        assert size(0, [P], F) == pytest.approx(want, rel=1e-12)

    def test_exhaustive_subtree_oracle(self):
        K = 3
        F = rand2d(K, 7)
        full = all_bitiles(K)
        # two tops sharing spatial support, six members total
        t1 = Bitile(-1, 1, 0, 0)
        t2 = Bitile(-1, 1, 0, 1)
        coll = down_set(full, t1) | down_set(full, t2)
        assert len(coll) <= 8
        for slot, mode in modes_for(K, seed=8):
            best = 0.0
            for tree in all_trees(coll):
                top = max(tree, key=lambda b: b.scale)
                norm = proj_collection(list(tree), slot, F, mode).norm(2)
                best = max(best, 2.0 ** -top.scale * norm)
            assert size(slot, list(coll), F, mode) == pytest.approx(best, rel=1e-10)

    def test_non_convex_rejected(self):
        K = 3
        coll = [Bitile(0, 0, 0, 0), Bitile(-2, 0, 0, 0)]
        with pytest.raises(ValueError, match="not convex"):
            size(0, coll, rand2d(K, 9))


class TestSelectTrees:
    def test_zero_function_keeps_everything(self):
        K = 4
        coll = all_bitiles(K)
        cert = select_trees(0, coll, GridFunction2D.zeros(K), level=1)
        assert set(cert.remainder) == set(coll)
        assert cert.trees == ()
        ok, _ = verify_certificate(cert, GridFunction2D.zeros(K))
        assert ok

    def test_small_size_input_untouched(self):
        K = 4
        coll = all_bitiles(K)
        F = GridFunction2D(K, np.full((1 << K, 1 << K), 1e-6))
        cert = select_trees(0, coll, F, level=1)
        assert set(cert.remainder) == set(coll) and cert.trees == ()

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("level", [1, 2])
    def test_indicator_certificates_verify(self, seed, level):
        K = 4
        coll = all_bitiles(K)
        F = indicator2d(K, 100 + seed)
        for slot, mode in modes_for(K, seed=200 + seed)[:3]:
            cert = select_trees(slot, coll, F, mode, level=level)
            ok, report = verify_certificate(cert, F)
            assert ok, report["checks"]
            assert size(slot, cert.remainder, F, mode) <= 2.0**-level * (1 + 1e-9)
            members = set(cert.remainder)
            for t in cert.trees:
                members |= set(t.members)
            assert members == set(coll)

    def test_k5_certificate(self):
        K = 5
        coll = all_bitiles(K)
        F = indicator2d(K, 42)
        cert = select_trees(0, coll, F, level=2)
        ok, report = verify_certificate(cert, F)
        assert ok, report["checks"]
        assert len(cert.trees) > 0

    def test_deterministic(self):
        K = 4
        F = indicator2d(K, 7)
        c1 = select_trees(2, all_bitiles(K), F, level=2)
        c2 = select_trees(2, all_bitiles(K), F, level=2)
        assert c1 == c2

    def test_counting_rhs_definition(self):
        K = 4
        F = indicator2d(K, 8)
        level = 1
        cert = select_trees(0, all_bitiles(K), F, level=level)
        # slot 0 restricts the function arguments (x1, x2) to (J1, J2)
        for kJ, a, b in [(0, 0, 0), (-1, 1, 0), (-2, 3, 2)]:
            block = 1 << (K + kJ)
            m1 = a ^ b
            sub = F.values[
                m1 * block : (m1 + 1) * block, b * block : (b + 1) * block
            ]
            want = 9.0 * 4.0**level * (sub**2).sum() * 4.0**-K
            assert cert.counting[kJ][1][a, b] == pytest.approx(want, rel=1e-12)

    def test_non_convex_rejected(self):
        with pytest.raises(ValueError, match="not convex"):
            select_trees(0, [Bitile(0, 0, 0, 0), Bitile(-2, 0, 0, 0)], rand2d(3, 1))

    def test_mutated_certificate_rejected(self):
        K = 4
        cert = F = None
        for seed, level, density in [(3, 1, 0.05), (9, 1, 0.1), (3, 2, 0.05)]:
            Fc = indicator2d(K, seed, density)
            c = select_trees(0, all_bitiles(K), Fc, level=level)
            if any(t.top.scale < 0 for t in c.trees):
                cert, F = c, Fc
                break
        assert cert is not None, "no configuration produced a finer-scale top"
        mutated = None
        for fi, forest in enumerate(cert.forests):
            for ti, tree in enumerate(forest):
                if tree.top.scale < 0:
                    big = Bitile(
                        tree.top.scale + 1,
                        tree.top.m0 >> 1,
                        tree.top.m2 >> 1,
                        2 * tree.top.n,
                    )
                    new_tree = Tree(big, (*tree.members, big))
                    new_forest = (*forest[:ti], new_tree, *forest[ti + 1 :])
                    forests = (
                        cert.forests[:fi] + (new_forest,) + cert.forests[fi + 1 :]
                    )
                    mutated = dataclasses.replace(cert, forests=forests)
                    break
            if mutated:
                break
        assert mutated is not None
        ok, _ = verify_certificate(mutated, F)
        assert not ok


class TestCertificateChecks:
    """Hand-built certificates, each failing exactly one named check.

    F = 0.3 on the whole grid keeps every small remainder's size at most
    0.3 < 2^-1 and every test box's bound (3.24 times the box area) above
    the tree areas used here, so only the mutated check can fail.
    """

    F = GridFunction2D(4, np.full((16, 16), 0.3))

    def cert(self, forests, remainder=()):
        trees = [t for forest in forests for t in forest]
        collection = tuple(remainder) + tuple(p for t in trees for p in t.members)
        counting = _counting_tables(trees, self.F, 0, 1)
        return SelectionCertificate(
            collection, tuple(remainder), forests, 0, 1, None, counting
        )

    def names(self, cert):
        ok, report = verify_certificate(cert, self.F)
        names = {name for name, passed, _ in report["checks"] if not passed}
        assert ok == (not names)
        return names

    def failed(self, forests, remainder=()):
        return self.names(self.cert(forests, remainder))

    def test_remainder_convex(self):
        p, b, q = Bitile(-2, 0, 0, 0), Bitile(-1, 0, 0, 0), Bitile(0, 0, 0, 0)
        assert self.failed(((), (), ()), (q, b, p)) == set()
        # b leaves the remainder although p <= b <= q stay
        assert self.failed(((Tree(b, (b,)),), (), ()), (q, p)) == {"remainder-convex"}

    def test_phase1_tops_disjoint(self):
        q, b = Bitile(0, 0, 0, 0), Bitile(-1, 0, 0, 0)
        assert self.failed(((Tree(q, (q,)),), (), ())) == set()
        assert self.failed(((Tree(q, (q,)), Tree(b, (b,))), (), ())) == {
            "phase1-tops-disjoint"
        }

    def test_phase1_repeated_top(self):
        # a repeated top is a repeated member as well
        b = Bitile(-1, 0, 0, 0)
        assert self.failed(((Tree(b, (b,)), Tree(b, (b,))), (), ())) == {
            "partition-disjoint",
            "phase1-tops-disjoint",
        }

    def test_member_outside_top(self):
        q, b = Bitile(-1, 0, 0, 0), Bitile(-2, 1, 0, 0)
        assert self.failed(((Tree(q, (q, b)),), (), ())) == set()
        # same scale as the top, next spatial block: incomparable to it
        out = Bitile(-1, 1, 0, 0)
        assert self.failed(((Tree(q, (q, out)),), (), ())) == {
            "trees-convex-with-top"
        }
        # below the top, but finer than the resolution 4 of F: fails, no raise
        fine = Bitile(-4, 0, 0, 0)
        assert self.failed(((Tree(q, (q, fine)),), (), ())) == {
            "trees-convex-with-top"
        }

    def test_phase2_halves_disjoint(self):
        # selected upper halves Tile(-1, 0, 0, 0) and Tile(-2, 0, 0, 0) nest
        t1 = Tree(Bitile(0, 0, 0, 1), (Bitile(0, 0, 0, 1), Bitile(-1, 0, 0, 0)))
        t2 = Tree(Bitile(-1, 0, 0, 1), (Bitile(-1, 0, 0, 1), Bitile(-2, 0, 0, 0)))
        assert self.failed(((), (t1,), ())) == set()
        assert self.failed(((), (t1, t2), ())) == {"phase2-halves-disjoint"}
        assert self.failed(((), (), (t1, t2))) == set()

    def test_misfit_top_fails_without_raising(self):
        # scale -4 is below the finest bitile scale at the resolution 4 of F
        fine = Bitile(-4, 0, 0, 0)
        assert self.failed(((Tree(fine, (fine,)),), (), ())) == {
            "phase1-tops-disjoint",
            "trees-convex-with-top",
        }

    def test_misfit_selected_half_fails_without_raising(self):
        # the lower half of Bitile(-5, 0, 0, 0) lies below the top, so phase
        # 3 selects its upper half, which is finer than the tiles of
        # resolution 4
        top, fine = Bitile(0, 0, 0, 0), Bitile(-5, 0, 0, 0)
        assert self.failed(((), (), (Tree(top, (top, fine)),))) == {
            "phase3-halves-disjoint",
            "trees-convex-with-top",
        }

    def test_tree_without_members_fails(self):
        # rows can hold trees that `Tree` rejects: one without members, and
        # one without its top (which the parent-chain test already fails)
        q, b, p = Bitile(0, 0, 0, 0), Bitile(-1, 0, 0, 0), Bitile(0, 0, 0, 1)
        qb = BitileRows([q, b])
        for forest in (
            Forest(BitileRows([q, p]), qb, np.array([0, 0])),
            Forest(BitileRows([p, q]), qb, np.array([1, 1])),
            Forest(BitileRows([q]), BitileRows([b]), np.array([0])),
        ):
            cert = dataclasses.replace(
                self.cert(((Tree(q, (q, b)),), (), ())),
                collection=forest.members,
                forests=(forest, (), ()),
                counting=_counting_tables(forest, self.F, 0, 1),
            )
            assert self.names(cert) == {"trees-convex-with-top"}

    def test_misfit_remainder_fails_without_raising(self):
        # scale -4 is below the finest bitile scale at the resolution 4 of F
        cert = self.cert(((), (), ()), (Bitile(-4, 0, 0, 0),))
        assert self.names(cert) == {"remainder-size"}
        _, report = verify_certificate(cert, self.F)
        assert report["remainder_size"] == math.inf
        assert math.isnan(report["halfsum_ratio_linear"])

    def test_unlocalized_remainder_fails_without_raising(self):
        # Bitile(0, 1, 0, 0) lies outside the unit cube, so no resolution
        # holds it
        cert = self.cert(((), (), ()), (Bitile(0, 1, 0, 0),))
        assert self.names(cert) == {"remainder-convex", "remainder-size"}

    @pytest.mark.parametrize("phase", [0, 1, 2])
    @pytest.mark.parametrize("top", [Bitile(0, 1, 0, 0), Bitile(-1, 2, 0, 0)])
    def test_unlocalized_top_fails_without_raising(self, top, phase):
        # the top lies in no counting box; its tree fails, and in phase 1
        # the tops do too
        forests = [(), (), ()]
        forests[phase] = (Tree(top, (top,)),)
        want = {"trees-convex-with-top"}
        if phase == 0:
            want.add("phase1-tops-disjoint")
        assert self.failed(tuple(forests)) == want

    def test_counting_keys_compared_first(self):
        q = Bitile(-1, 0, 0, 0)
        cert = self.cert(((Tree(q, (q,)),), (), ()))
        assert self.names(cert) == set()
        lhs, rhs = cert.counting[-1]
        for counting in (
            {},
            {kJ: v for kJ, v in cert.counting.items() if kJ != 0},
            {**cert.counting, -9: (np.zeros((512, 512)), np.ones((512, 512)))},
            {**cert.counting, -1: (lhs[:1], rhs[:1])},
            {**cert.counting, -1: (lhs, rhs, rhs)},
        ):
            mutated = dataclasses.replace(cert, counting=counting)
            assert self.names(mutated) == {"counting-tables-match"}

    def test_counting_values_compared_like_isclose(self):
        q = Bitile(-1, 0, 0, 0)
        cert = self.cert(((Tree(q, (q,)),), (), ()))
        kJ, a, b = -1, 0, 0
        lhs, rhs = (t[a, b] for t in cert.counting[kJ])
        for value, close in (
            ((lhs * (1 + 1e-13), rhs), True),
            ((lhs, rhs + 5e-13), True),
            ((lhs * (1 + 1e-9), rhs), False),
            ((math.inf, rhs), False),
            ((math.nan, rhs), False),
        ):
            tables = tuple(t.copy() for t in cert.counting[kJ])
            for t, v in zip(tables, value):
                t[a, b] = v
            counting = {**cert.counting, kJ: tables}
            failed = self.names(dataclasses.replace(cert, counting=counting))
            assert failed == (set() if close else {"counting-tables-match"})

    def test_phase3_halves_disjoint(self):
        # selected lower halves Tile(-1, 0, 0, 3) and Tile(-2, 0, 0, 1) nest
        t1 = Tree(Bitile(0, 0, 0, 2), (Bitile(0, 0, 0, 2), Bitile(-1, 0, 0, 1)))
        t2 = Tree(Bitile(-1, 0, 0, 0), (Bitile(-1, 0, 0, 0), Bitile(-2, 0, 0, 0)))
        assert self.failed(((), (), (t1,))) == set()
        assert self.failed(((), (), (t1, t2))) == {"phase3-halves-disjoint"}
        assert self.failed(((), (t1, t2), ())) == set()


def tree_oracle(tree, K):
    """Per-tree reference: members fit, are convex and lie below the top."""
    try:
        X = counts(tree.members, K)
    except ValueError:
        return False
    return convex_scales(X) and all(le(p, tree.top) for p in tree.members)


def incomparable_oracle(objs, K):
    """Each own down-set count is 1, on the arrays over the positions."""
    try:
        X = counts(objs, K)
    except ValueError:
        return False
    return (down_sums(X)[X > 0] == 1).all()


def counting_oracle(trees, F, slot, level):
    """Per-scale counting tables, one tree and one box at a time."""
    box_rhs = _box_energy(F, slot)
    lhs = {kJ: np.zeros((1 << -kJ, 1 << -kJ)) for kJ in box_rhs}
    for t in trees:
        kT, a0, a2 = t.top.scale, t.top.m0, t.top.m2
        for kJ in range(kT, 1):
            d = kJ - kT
            lhs[kJ][a0 >> d, a2 >> d] += 4.0**kT
    bound = 9.0 * 4.0**level
    rhs = {kJ: np.zeros_like(lhs[kJ]) for kJ in box_rhs}
    for kJ, a, b in boxes(box_rhs):
        rhs[kJ][a, b] = bound * box_rhs[kJ][a, b]
    return {kJ: (lhs[kJ], rhs[kJ]) for kJ in box_rhs}


def boxes(counting):
    """Every box (kJ, a, b) of per-scale tables, in table order."""
    return [
        (kJ, a, b)
        for kJ in counting
        for a in range(1 << -kJ)
        for b in range(1 << -kJ)
    ]


def bound_oracle(counting):
    """Counting bound and worst box, one box at a time."""
    worst_box, worst_ratio, bound_ok = None, 0.0, True
    for box in boxes(counting):
        kJ, a, b = box
        lhs, rhs = (float(t[a, b]) for t in counting[kJ])
        if lhs > rhs * (1.0 + 1e-12):
            bound_ok = False
        ratio = lhs / rhs if rhs > 0 else (math.inf if lhs > 0 else 0.0)
        if ratio > worst_ratio:
            worst_box, worst_ratio = box, ratio
    return bound_ok, worst_box, worst_ratio


def perturbed_tree(rng, K, pool):
    """A random tree, full down-set, or either with a hole or a stray."""
    kind = int(rng.integers(6))
    if kind < 2:
        tree = random_tree(rng, K)
    else:
        top = random_bitile(rng, K)
        tree = Tree(top, tuple(down_set(pool, top)))
    members = list(tree.members)
    others = [p for p in members if p != tree.top]
    if kind in (1, 3) and others:
        # a hole: breaks convexity when the removed member has a descendant
        members.remove(others[rng.integers(len(others))])
    if kind in (4, 5):
        # a stray from the whole pool, or one below the finest scale
        if kind == 5 and rng.random() < 0.3:
            members.append(Bitile(-K, 0, 0, 0))
        else:
            members.append(pool[rng.integers(len(pool))])
    rng.shuffle(members)
    return Tree(tree.top, tuple(members))


class TestArrayChecks:
    """The whole-array certificate checks against per-object references."""

    def test_trees_ok_matches_per_tree_oracle(self):
        rng = np.random.default_rng(11)
        seen = set()
        count = 0
        for K in (2, 3, 4, 5):
            pool = all_bitiles(K)
            for _ in range(50):
                forest = [perturbed_tree(rng, K, pool) for _ in range(8)]
                want = [tree_oracle(t, K) for t in forest]
                count += len(forest)
                seen.update(want)
                for t, w in zip(forest, want):
                    assert _trees_ok(*_tree_arrays([t]), K) == w, (K, t)
                assert _trees_ok(*_tree_arrays(forest), K) == all(want)
        assert count >= 1600
        assert seen == {True, False}
        assert _trees_ok(*_tree_arrays([]), 3)

    def test_trees_ok_rejects_a_top_above_scale_zero(self):
        # rows can hold a top at scale 1; the parent of its scale-0 member
        # has no position, and must not match the member of another tree
        # at position N - 4 = 24 of resolution 3
        c = np.array([[-2, 3, 0, 0], [0, 0, 0, 0]])
        top = np.array([[-2, 3, 0, 0], [1, 0, 0, 0]])
        assert _trees_ok(np.array([0]), c[:1], top[:1], 3)
        assert not _trees_ok(np.array([0, 1]), c, top, 3)

    @pytest.mark.parametrize("K", [2, 4, 6])
    def test_row_keys_equal_exactly_for_equal_rows(self, K):
        # fitting rows from the pool; misfits below the finest scale, above
        # scale 0, unlocalized, with n too large, negative or huge.  Packed,
        # n = 2^K spills into the m2 field: the last three misfits would
        # share a key with each other or with the fitting (-1, 0, 1, 0)
        rng = np.random.default_rng(80 + K)
        pool = np.concatenate((all_bitiles(K).rows, [[-1, 0, 1, 0]]))
        misfits = np.array(
            [[-K, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [-1, -1, 0, 0],
             [0, 0, 0, -3], [-1, 0, 2**40, 0], [-2**40, 0, 0, 0],
             [0, 0, 0, 1 << K], [0, 0, 1, 0], [-1, 0, 0, 1 << K]]
        )
        for _ in range(20):
            rows = np.concatenate(
                (pool[rng.integers(len(pool), size=30)], pool[-1:],
                 misfits[rng.integers(len(misfits), size=int(rng.integers(0, 8)))])
            )
            rows = rows[rng.permutation(len(rows))]
            keys = _keys(rows, K)
            same_key = keys[:, None] == keys[None, :]
            same_row = (rows[:, None, :] == rows[None, :, :]).all(-1)
            assert np.array_equal(same_key, same_row)

    def test_partition_matches_set_version(self):
        # the coordinate-row partition checks give the verdicts of the
        # checks on Python sets of bitiles they replaced
        F = GridFunction2D(4, np.full((16, 16), 0.3))
        rng = np.random.default_rng(14)
        pool = all_bitiles(4)
        seen = set()
        for trial in range(72):
            trees = [random_tree(rng, 4) for _ in range(int(rng.integers(1, 4)))]
            members = [p for t in trees for p in t.members]
            remainder = [p for p in pool[:40] if p not in members][: rng.integers(4)]
            collection = remainder + members
            kind = trial % 6
            if kind == 1:  # a repeated member
                remainder.append(members[rng.integers(len(members))])
            elif kind == 2:  # a missing member
                collection.pop(int(rng.integers(len(collection))))
            elif kind == 3:  # an extra collection member
                collection.append(Bitile(0, 0, 0, 1 + int(rng.integers(7))))
            elif kind == 4:  # a misfit member, in the remainder or the collection
                misfit = Bitile(-4, 0, 0, 0)
                (remainder if trial % 2 else collection).append(misfit)
            elif kind == 5:  # a collection member swapped for another bitile
                i = int(rng.integers(len(collection)))
                collection[i] = Bitile(-1, 1, 1, int(rng.integers(4)))
            forests = (tuple(trees), (), ())
            counting = _counting_tables(trees, F, 0, 1)
            cert = SelectionCertificate(
                tuple(collection), tuple(remainder), forests, 0, 1, None, counting
            )
            parts = remainder + members
            want = {
                "partition-disjoint": len(set(parts)) == len(parts),
                "partition-union": set(parts) == set(collection),
            }
            _, report = verify_certificate(cert, F)
            got = {name: ok for name, ok, _ in report["checks"] if name in want}
            assert got == want, (trial, cert)
            seen.update(want.items())
        assert len(seen) == 4  # each check both passes and fails

    @pytest.mark.parametrize("j", [-1, 1])
    def test_selected_halves_match_le_list(self, j):
        rng = np.random.default_rng(12 + j)
        for K in (2, 3, 4, 5):
            pool = all_bitiles(K)
            for _ in range(40):
                size = int(rng.integers(0, 6))
                forest = [perturbed_tree(rng, K, pool) for _ in range(size)]
                want = [
                    P.half(-j)
                    for t in forest
                    for P in t.members
                    if P != t.top and le(P.half(j), t.top)
                ]
                got = _selected_halves(forest, j)
                assert got.shape == (len(want), 4)
                assert np.array_equal(got, _coords(want))

    def test_incomparable_matches_down_set_counts(self):
        rng = np.random.default_rng(13)
        seen = set()
        for K in (2, 3, 4, 5):
            pool = all_bitiles(K)
            # tiles at resolution K order like bitiles at K + 1
            tiles = [
                Tile(p.scale, p.m0, p.m2, 2 * p.n + h) for p in pool for h in (0, 1)
            ]
            for trial in range(80):
                objs, R = (pool, K) if trial % 2 else (tiles, K + 1)
                idx = rng.integers(len(objs), size=rng.integers(0, 8))
                picked = [objs[i] for i in idx]
                if trial % 8 == 0:
                    picked.append(Bitile(-R, 0, 0, 0))  # below the finest scale
                want = incomparable_oracle(picked, R)
                seen.add(want)
                assert _incomparable(_coords(picked), R) == want, (R, picked)
        assert seen == {True, False}

    def test_counting_tables_match_per_box_loop(self):
        rng = np.random.default_rng(14)
        for K in (2, 3, 4, 5):
            F = rand2d(K, K)
            trees = [random_tree(rng, K) for _ in range(int(rng.integers(0, 30)))]
            for slot in (0, 1, 2):
                got = _counting_tables(trees, F, slot, 1)
                want = counting_oracle(trees, F, slot, 1)
                assert list(got) == list(want)
                for kJ, pair in want.items():
                    assert all(map(np.array_equal, got[kJ], pair))

    def test_counting_bound_matches_per_box_loop(self):
        rng = np.random.default_rng(15)
        K = 4
        # an all-zero F and no trees: every ratio is 0, no worst box
        cases = [([], GridFunction2D.zeros(K))]
        # F vanishes on the left half: boxes there have rhs 0 and lhs > 0
        half = rand2d(K, 16).values
        half[: 1 << (K - 1)] = 0.0
        for F in (GridFunction2D(K, half), rand2d(K, 17), indicator2d(K, 18, 0.05)):
            trees = [random_tree(rng, K) for _ in range(int(rng.integers(1, 40)))]
            cases.append((trees, F))
        seen_inf = seen_none = False
        for trees, F in cases:
            for slot in (0, 1, 2):
                counting = _counting_tables(trees, F, slot, 0)
                got = _counting_bound(counting)
                want = bound_oracle(counting)
                assert got == want
                seen_inf |= want[2] == math.inf
                seen_none |= want[1] is None
        assert seen_inf and seen_none


def random_masks(rng, K):
    """A mask over the positions, of one random density in (0.2, 1), drawn per scale."""
    density = rng.uniform(0.2, 1.0)
    shapes = {k: (1 << -k, 1 << -k, 1 << (K + k - 1)) for k in range(1 - K, 1)}
    masks = {k: rng.random(shape) < density for k, shape in shapes.items()}
    return np.concatenate([masks[k].ravel() for k in range(0, -K, -1)])


def random_tops(rng, remaining, count):
    """Up to count pairwise incomparable members, in random order."""
    pool = support(remaining)
    tops = []
    for i in rng.permutation(len(pool)):
        p = pool[i]
        if not any(le(p, q) or le(q, p) for q in tops):
            tops.append(p)
        if len(tops) == count:
            break
    return tops


class TestRowSelection:
    """Tree cuts on rows against the per-`Bitile` take loop."""

    def takes_match_oracle(self, remaining, tops, K):
        """One pass against sequential takes; True when down-sets overlap."""
        got_left, want_left = remaining.copy(), remaining.copy()
        got = _take_trees(got_left, positions(tops, K))
        want = [take_tree(scale_views(want_left), q, K) for q in tops]
        assert [(t.top, t.members) for t in got] == want
        assert np.array_equal(got_left, want_left)
        # a remaining bitile below two tops: the first top decides
        return (up_sums(counts(tops, K))[remaining] > 1).any()

    @pytest.mark.parametrize("order", [1, -1])
    def test_first_top_takes_the_overlap(self, order):
        # down(q) and down(p) share the scale -2 block under p, n = 0
        K = 3
        tops = [Bitile(0, 0, 0, 0), Bitile(-1, 0, 0, 1)][::order]
        remaining = up_sums(counts(tops, K)) > 0
        assert self.takes_match_oracle(remaining, tops, K)
        first, second = _take_trees(remaining, positions(tops, K))
        assert Bitile(-2, 0, 0, 0) in first.members
        assert Bitile(-2, 0, 0, 0) not in second.members

    @pytest.mark.parametrize("K", [2, 3, 4, 5, 6])
    def test_one_pass_matches_sequential_takes(self, K):
        # phase 1 passes its tops in position order; any order works
        rng = np.random.default_rng(20 + K)
        overlaps = 0
        for trial in range(30):
            remaining = random_masks(rng, K)
            tops = random_tops(rng, remaining, int(rng.integers(0, 8)))
            if trial % 2:
                tops = list(support(counts(tops, K)))
            overlaps += self.takes_match_oracle(remaining, tops, K)
        assert overlaps > 0

    @pytest.mark.parametrize("K", [2, 3, 4, 5, 6])
    def test_take_tree_matches_oracle_over_picks(self, K):
        # phases 2 and 3 cut one tree per pick from what earlier picks left
        rng = np.random.default_rng(30 + K)
        for _ in range(10):
            got_left = random_masks(rng, K)
            want_left = got_left.copy()
            for _ in range(12):
                pool = support(got_left)
                if not len(pool):
                    break
                q = pool[rng.integers(len(pool))]
                (got,) = _take_trees(got_left, positions([q], K))
                assert (got.top, got.members) == take_tree(scale_views(want_left), q, K)
                assert np.array_equal(got_left, want_left)

    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_selection_builds_no_bitile_per_member(self, slot, monkeypatch):
        # pool, forests, remainder and counting boxes stay rows: no bitile
        # and no tree is built as an object
        built = 0
        post_init = BaseTile.__post_init__

        def counted(tile):
            nonlocal built
            built += 1
            post_init(tile)

        def no_tree(tree):
            raise AssertionError("a Tree was built")

        K = 6
        rng = np.random.default_rng(40 + slot)
        e = indicator_with_measure(rng, K, float(rng.uniform(0.05, 0.4)))
        F = signed_indicator(rng, e, scale=float(e.values.mean()) ** -0.5)
        mode = ProjectionMode.diagonal(WalshNumber.from_float(1.0)) if slot == 1 else None
        monkeypatch.setattr(BaseTile, "__post_init__", counted)
        monkeypatch.setattr(Tree, "__post_init__", no_tree)
        cert = select_trees(slot, all_bitiles(K), F, mode=mode, level=1 + slot % 2)
        ok, _ = verify_certificate(cert, F)
        monkeypatch.undo()
        assert ok and len(cert.collection) == 2016 and len(cert.trees) > 0
        assert built == 0


class TestSingleTreeReport:
    def test_single_bitile_tree(self):
        from walshlab.triform import EpsilonField, lambda_bitile

        K = 4
        P = Bitile(-1, 0, 1, 2)
        tree = Tree(P, (P,))
        F0, F1, F2 = (rand2d(K, 20 + i) for i in range(3))
        eps = EpsilonField.constant(K)
        mode = ProjectionMode.diagonal(WalshNumber.from_float(1.0))
        rep = single_tree_report(tree, eps, F0, F1, F2, mode)
        assert rep["value"] == pytest.approx(
            lambda_bitile(P, F0, F1, F2), rel=1e-12
        )
        assert rep["area"] == 4.0**-1
        assert rep["bound"] == pytest.approx(
            rep["area"] * rep["sizes"][0] * rep["sizes"][1] * rep["sizes"][2]
        )
        assert np.isfinite(rep["ratio"])

    def test_random_trees_match_per_bitile_sums(self):
        from walshlab.triform import EpsilonField, bitile_table

        K = 4
        rng = np.random.default_rng(50)
        mode = ProjectionMode.diagonal(WalshNumber.from_float(1.0))
        for trial in range(12):
            tree = random_tree(rng, K)
            F0, F1, F2 = (rand2d(K, 60 + 3 * trial + i) for i in range(3))
            eps = EpsilonField.random(K, rng)
            if trial % 3 == 0:  # a missing scale weighs zero
                eps = EpsilonField(K, {k: a for k, a in eps.data.items() if k != -1})
            rep = single_tree_report(tree, eps, F0, F1, F2, mode)
            table = scale_views(bitile_table(F0, F1, F2, range(1 - K, 1)))
            want = math.fsum(
                eps_weight(eps, P) * table[P.scale][P.m0, P.m2, P.n] for P in tree.members
            )
            assert rep["value"] == want
            sizes = (
                size(0, tree.members, F0),
                size(1, tree.members, F1, mode),
                size(2, tree.members, F2),
            )
            assert rep["sizes"] == sizes

    def test_non_convex_tree_rejected(self):
        from walshlab.triform import EpsilonField

        top, fine = Bitile(0, 0, 0, 0), Bitile(-2, 0, 0, 0)
        F = rand2d(3, 70)
        with pytest.raises(ValueError, match="not convex"):
            single_tree_report(Tree(top, (top, fine)), EpsilonField.constant(3), F, F, F)

    def test_top_must_be_member(self):
        with pytest.raises(ValueError, match="top must be a member"):
            Tree(Bitile(0, 0, 0, 0), (Bitile(-1, 0, 0, 0),))


class TestForest:
    """A forest of rows against the tuple of `Tree`s it stands for."""

    def trees(self):
        rng = np.random.default_rng(60)
        return tuple(random_tree(rng, 4) for _ in range(5))

    def test_sequence_of_trees(self):
        trees = self.trees()
        forest = Forest.of(trees)
        assert len(forest) == 5 and forest == trees and tuple(forest) == trees
        assert [forest[i] for i in range(-5, 5)] == list(trees * 2)
        assert forest[1:4] == trees[1:4] and isinstance(forest[1:4], Forest)
        assert forest[::-2] == trees[::-2] and Forest.of(forest) is forest
        for i in (5, -6):
            with pytest.raises(IndexError):
                forest[i]
        empty = Forest.of(())
        assert empty == () and len(empty) == 0 and empty != trees and forest != 1

    def test_rows_and_owners(self):
        trees = self.trees()
        forest = Forest.of(trees)
        assert forest.tops == [t.top for t in trees]
        assert forest.members == [p for t in trees for p in t.members]
        assert forest.owner.tolist() == [
            i for i, t in enumerate(trees) for _ in t.members
        ]
        # the same rows split between the trees another way
        moved = Forest(forest.tops, forest.members, forest.owner.copy())
        moved.owner[np.searchsorted(moved.owner, 1) - 1] = 1
        assert moved != forest

    def test_forests_concatenate(self):
        trees = self.trees()
        parts = (Forest.of(trees[:2]), Forest.of(()), trees[2], Forest.of(trees[3:]))
        joined = Forest.of(parts)
        assert joined == Forest.of(trees) and joined == trees
        assert Forest.of([]) == ()

    def test_certificate_holds_forests(self):
        # forests given as tree tuples compare equal to the selection's own
        F = rand2d(4, 61)
        cert = select_trees(0, all_bitiles(4), F, level=1)
        assert all(isinstance(f, Forest) for f in cert.forests)
        as_tuples = dataclasses.replace(
            cert, forests=tuple(tuple(f) for f in cert.forests)
        )
        assert as_tuples == cert and as_tuples.trees == tuple(cert.trees)
        assert verify_certificate(as_tuples, F) == verify_certificate(cert, F)
        one_less = dataclasses.replace(
            cert, forests=(cert.forests[0][1:],) + cert.forests[1:]
        )
        assert one_less != cert


def half_phase_case(rng, K):
    """(F, fiberwise mode, level) whose selection picks trees in phases 2 and 3.

    Tops q sit on the diagonal boxes of one scale k, one row block each.  A
    fiber's label decides its tile, so q's rows alternate between a label in
    O_1 and one in O_2, the opposite halves of q's members one and two
    scales down; q's frequency index ends in bits 00 (a phase-3 top) or 11
    (phase 2), so both depths count.  Each quarter of q's box puts its O_1
    energy on one of its four sub-boxes, at 4a times the threshold T there,
    so phase 1 removes that sub-box; the rest hold O_2 energy b.  No bitile
    left is heavy (a, b <= T), while q's half sum reads a + 3b/4 > T.
    """
    n = 1 << K
    k = -int(rng.integers(1, K - 2))  # boxes of side 2^(K+k) >= 8
    w = 1 << (K + k)
    level = int(rng.integers(3))
    T = 4.0**-level / 3.0
    labels = np.zeros(n, dtype=np.int64)
    sq = np.zeros((n, n))  # F^2 at [i2, i0]
    even = np.arange(w) % 2 == 0
    for m in range(1 << -k):
        top_n = int(rng.integers(1 << (K + k - 3))) << 2 | int(rng.choice([0, 3]))
        o1 = ((top_n ^ 1) << (1 - k)) + int(rng.integers(1 << (1 - k)))
        o2 = (((top_n >> 1) ^ 1) << (2 - k)) + int(rng.integers(1 << (2 - k)))
        box = slice(m * w, (m + 1) * w)
        labels[box] = np.where(even, o1, o2)
        a, b = T * rng.uniform(0.6, 0.95, 2)
        heavy = np.zeros((4, 4))
        for i, j in np.ndindex(2, 2):
            s = int(rng.integers(4))
            heavy[2 * i + s // 2, 2 * j + s % 2] = 1
        on = np.kron(heavy, np.ones((w // 4, w // 4))) > 0
        sq[box, box] = np.where(on, 8 * a * even[:, None], 2 * b * ~even[:, None])
    signs = rng.choice([-1.0, 1.0], size=(n, n))
    F = GridFunction2D(K, signs * np.sqrt(sq))
    return F, ProjectionMode.fiberwise(labels), level


def certificate_digest(cases) -> str:
    """sha256 over each (certificate, F): collection, remainder, every tree's
    top and member rows in order, the counting arrays and the report of
    `verify_certificate`."""
    h = hashlib.sha256()

    def put(a):
        a = np.ascontiguousarray(a)
        h.update(repr((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())

    for cert, F in cases:
        put(_coords(cert.collection))
        put(_coords(cert.remainder))
        for forest in cert.forests:
            h.update(b"forest %d" % len(forest))
            for tree in forest:
                put(_coords([tree.top]))
                put(tree.members.rows)
        for kJ, pair in cert.counting.items():
            h.update(b"scale %d" % kJ)
            for t in pair:
                put(np.asarray(t))
        h.update(repr(verify_certificate(cert, F)).encode())
    return h.hexdigest()


class TestPinnedSelections:
    """Selections whose trees, counting tables and reports are pinned.

    The digests were recorded before forests were held as rows.
    """

    def test_gate_certificates(self):
        # K = 4..6; indicator, normal and sparse F; three slots; two modes;
        # levels 0-2: 162 certificates
        cases = []
        for K in (4, 5, 6):
            n = 1 << K
            rng = np.random.default_rng(50 + K)
            normal = rng.normal(size=(n, n))
            values = (
                (rng.random((n, n)) < 0.3).astype(float),
                normal,
                normal * (rng.random((n, n)) < 0.1),
            )
            modes = (
                ProjectionMode.diagonal(WalshNumber.from_float(1.0)),
                ProjectionMode.fiberwise(rng.integers(0, n, size=n)),
            )
            pool = all_bitiles(K)
            for v, slot, mode, level in itertools.product(
                values, range(3), modes, range(3)
            ):
                F = GridFunction2D(K, v)
                cases.append((select_trees(slot, pool, F, mode=mode, level=level), F))
        assert len(cases) == 162
        assert certificate_digest(cases) == GATE_DIGEST

    def test_forced_half_phase_picks(self):
        # phases 2 and 3 cut their trees one top at a time
        cases, picks = [], [0, 0, 0]
        for K in (5, 6):
            for seed in range(6):
                F, mode, level = half_phase_case(np.random.default_rng(seed), K)
                cert = select_trees(1, all_bitiles(K), F, mode=mode, level=level)
                ok, _ = verify_certificate(cert, F)
                assert ok, (K, seed)
                assert len(cert.forests[1]) + len(cert.forests[2]) > 0, (K, seed)
                picks = [p + len(f) for p, f in zip(picks, cert.forests)]
                cases.append((cert, F))
        assert min(picks) >= 10
        assert certificate_digest(cases) == HALF_PHASE_DIGEST


GATE_DIGEST = "bf35698959c9ae1f9b50dd05b63113cc9bef372f5534242d99363cea210ed9d4"
HALF_PHASE_DIGEST = "a975a686423c74e4b9715909229edb3a72ff7af790afa2744d904570738ed496"

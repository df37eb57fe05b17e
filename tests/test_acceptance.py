"""Acceptance checklist: one test per numbered criterion, at full stated size.

Each test prints one summary line (ACCEPTANCE nn name: PASS/FAIL with the
measured figure) and then asserts, so the verdict survives both -v output
and captured stdout.  Criterion 3 is run exactly as stated, including the
diagonal multipliers of magnitude two and above.  For those, half-tiles
have no slot-1 region (the frequency image map drops a bit, and the
quadrant tiling no longer refines the vertical one), so slot 1 projects
onto the span of the bitile regions, which carry the Haar shift on I2.
"""

import math
import time

import numpy as np
import pytest

from walshlab.cli import _certificate_case, _replacement_case, build_config
from walshlab.covering import (
    SlopeField,
    lemma7r_check,
)
from walshlab.ensembles import (
    cone_slope_field,
    dense_parallelograms,
    indicator_with_measure,
    lemma7r_pair,
    linear_slope_field,
    measure_triple,
    random_tree,
    signed_indicator,
    uniform_cells_2d,
)
from walshlab.gridfn import GridFunction1D, GridFunction2D
from walshlab.mfcz import build_good_function, g_norm_report, replacement_check
from walshlab.selection import select_trees, single_tree_report, verify_certificate
from walshlab.tiles import (
    Bitile,
    ProjectionMode,
    all_bitiles,
    diagonal_data,
    fiberwise_data,
    proj_bitile,
    proj_collection,
    proj_tile,
)
from walshlab.triform import (
    EpsilonField,
    haar_multiplier,
    lambda_bitile,
    lambda_bitile_sum,
    lambda_direct,
    max_mod_haar,
    offset_form,
    random_interval_weights,
    substitution_endpoint,
    substitution_modulated,
    substitution_offset,
    telescoping_profile,
)
from walshlab.walsh import WalshNumber, walsh_add, walsh_mul
from walshlab.wavelets import fwht, walsh_fn

from .oracles import down_set, greedy_cover, overlap_check, vertical_superlevel

TOL = 1e-9


def note(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_01_telescoping():
    start = time.perf_counter()
    worst = 0.0
    for m in range(-5, 1):
        kernel, target = telescoping_profile(6, m)
        worst = max(worst, float(np.max(np.abs(kernel - target))))
    elapsed = time.perf_counter() - start
    ok = worst <= TOL and elapsed < 10.0
    note(1, "telescoping", ok, f"worst dev {worst:.3g}, {elapsed:.2f}s")
    assert worst <= TOL
    assert elapsed < 10.0


def test_criterion_02_bitile_decomposition():
    K = 6
    start = time.perf_counter()
    worst = 0.0
    for t in range(20):
        rng = np.random.default_rng(200 + t)
        eps = EpsilonField.random(K, rng)
        F0, F1, F2 = (uniform_cells_2d(rng, K) for _ in range(3))
        direct = lambda_direct(eps, F0, F1, F2)
        summed = lambda_bitile_sum(eps, F0, F1, F2)
        worst = max(worst, abs(direct - summed) / max(1.0, abs(direct)))
    elapsed = time.perf_counter() - start
    ok = worst <= TOL and elapsed < 120.0
    note(2, "bitile decomposition", ok, f"worst rel {worst:.3g}, {elapsed:.1f}s")
    assert worst <= TOL
    assert elapsed < 120.0


def _projection_deviation(K: int, kind: str, a_float, seed: int) -> float:
    rng = np.random.default_rng(seed)
    pool = all_bitiles(K)
    coll = set()
    for _ in range(2):
        coll |= down_set(pool, pool[int(rng.integers(len(pool)))])
    coll = sorted(coll, key=lambda b: (b.scale, b.m0, b.m2, b.n))
    P = coll[int(rng.integers(len(coll)))]
    n = 1 << K
    f = GridFunction1D(K, rng.normal(size=n))
    if kind == "diagonal":
        a = WalshNumber.from_float(a_float)
        data0 = diagonal_data(f, a)
        mode = ProjectionMode.diagonal(a)
    else:
        labels = rng.integers(0, n, size=n)
        data0 = fiberwise_data(f, labels)
        mode = ProjectionMode.fiberwise(labels)
    F1 = GridFunction2D(K, rng.normal(size=(n, n)))
    F2 = GridFunction2D(K, rng.normal(size=(n, n)))
    lhs = lambda_bitile(P, data0, F1, F2)
    rhs = lambda_bitile(
        P,
        proj_collection(coll, 0, data0, mode),
        proj_collection(coll, 1, F1, mode),
        proj_collection(coll, 2, F2, mode),
    )
    return abs(lhs - rhs) / max(1.0, abs(lhs))


def test_criterion_03_adaptedness():
    K = 5
    modes = [
        ("fiberwise", None),
        ("diagonal", 1.0),
        ("diagonal", 1.5),
        ("diagonal", 2.0),
        ("diagonal", 2.75),
    ]
    worst = {}
    for kind, a in modes:
        label = kind if a is None else f"a={a}"
        worst[label] = max(
            _projection_deviation(K, kind, a, 300 + i) for i in range(50)
        )
    ok = all(v <= TOL for v in worst.values())
    detail = ", ".join(f"{k}: {v:.3g}" for k, v in worst.items())
    note(3, "adaptedness", ok, detail)
    assert ok, f"projection invariance deviations: {detail}"


def test_criterion_04_appendix_reductions():
    K = 6
    n = 1 << K
    worst_mod = worst_end = worst_bht = 0.0
    for t in range(50):
        rng = np.random.default_rng(400 + t)
        f, g, h = (GridFunction1D(K, rng.normal(size=n)) for _ in range(3))
        labels = rng.integers(0, n, size=n)
        w = random_interval_weights(K, rng)
        eps = EpsilonField.from_interval_weights(w, K)

        lhs = lambda_direct(eps, *substitution_modulated(f, g, labels))
        rhs = max_mod_haar(w, labels, f).inner(g)
        worst_mod = max(worst_mod, abs(lhs - rhs) / max(1.0, abs(rhs)))

        lhs = lambda_direct(eps, *substitution_endpoint(f, g, h))
        rhs = f.inner(haar_multiplier(w, g * h))
        worst_end = max(worst_end, abs(lhs - rhs) / max(1.0, abs(rhs)))

        for L in (1, 2):
            proj, coef = offset_form(w, L, f, g, h)
            direct = lambda_direct(
                EpsilonField.from_offset_weights(w, K, L),
                *substitution_offset(f, g, h, L),
            )
            scale = max(1.0, abs(coef))
            worst_bht = max(
                worst_bht,
                abs(proj - coef) / scale,
                abs(direct - coef) / scale,
            )
    ok = max(worst_mod, worst_end, worst_bht) <= TOL
    note(
        4,
        "appendix reductions",
        ok,
        f"max-mod {worst_mod:.3g}, endpoint {worst_end:.3g}, offset {worst_bht:.3g}",
    )
    assert worst_mod <= TOL
    assert worst_end <= TOL
    assert worst_bht <= TOL


def test_criterion_05_selection_certificates():
    K = 5
    start = time.perf_counter()
    pool = all_bitiles(K)
    checked = 0
    for t in range(30):
        rng = np.random.default_rng(500 + t)
        e = indicator_with_measure(rng, K, float(rng.uniform(0.05, 0.4)))
        F = signed_indicator(rng, e, scale=float(e.values.mean()) ** -0.5)
        slot = t % 3
        mode = None
        if slot == 1:
            mode = ProjectionMode.diagonal(WalshNumber.from_float(1.0))
        for level in (1, 2, 3):
            cert = select_trees(slot, pool, F, mode=mode, level=level)
            ok_run, report = verify_certificate(cert, F)
            assert ok_run, f"certificate rejected at trial {t}, level {level}"
            assert report["counting_worst_ratio"] <= 1.0
            checked += 1
    elapsed = time.perf_counter() - start
    ok = checked == 90 and elapsed < 60.0
    note(5, "selection certificates", ok, f"{checked} certificates, {elapsed:.1f}s")
    assert elapsed < 60.0


def _tree_ratios(K: int, count: int, base_seed: int):
    mode = ProjectionMode.diagonal(WalshNumber.from_float(1.0))
    out = []
    for t in range(count):
        rng = np.random.default_rng(base_seed + t)
        tree = random_tree(rng, K)
        eps = EpsilonField.random(K, rng)
        F0, F1, F2 = (uniform_cells_2d(rng, K) for _ in range(3))
        rep = single_tree_report(tree, eps, F0, F1, F2, mode)
        out.append(rep["ratio"])
    return out


def test_criterion_06_single_tree_constant():
    c0 = max(_tree_ratios(4, 200, 600))
    c6 = max(_tree_ratios(6, 200, 600))
    ok = math.isfinite(c0) and c6 <= 2.0 * c0
    note(6, "single-tree constant", ok, f"C0(K=4)={c0:.4g}, max(K=6)={c6:.4g}")
    assert math.isfinite(c0)
    assert c6 <= 2.0 * c0


def _restricted_ratios(K: int, count: int, base_seed: int):
    ratios = []
    for t in range(count):
        rng = np.random.default_rng(base_seed + t)
        j1 = int(rng.integers(0, 9))
        j0 = int(rng.integers(0, j1 + 1))
        j2 = int(rng.integers(0, 9))
        e0, e1, e2 = measure_triple(rng, K, (j0, j1, j2))
        F0, F1, F2 = (signed_indicator(rng, e) for e in (e0, e1, e2))
        eps = EpsilonField.random(K, rng)
        a0, a1, a2 = (float(e.values.mean()) for e in (e0, e1, e2))
        # log base 2: natural for measures that are dyadic by construction
        bound = math.sqrt(a1 * a2) * (1.0 + math.log2(a0 / a1))
        ratios.append(abs(lambda_direct(eps, F0, F1, F2)) / bound)
    return ratios


def test_criterion_07_restricted_type():
    fitted = max(_restricted_ratios(4, 100, 700))
    ratios = _restricted_ratios(6, 100, 700)
    top = max(ratios)
    p95 = float(np.percentile(ratios, 95))
    ok = math.isfinite(fitted) and top <= 3.0 * fitted
    note(
        7,
        "restricted type",
        ok,
        f"fitted(K=4)={fitted:.4g}, K=6 max={top:.4g} p95={p95:.4g}",
    )
    assert math.isfinite(fitted)
    assert top <= 3.0 * fitted


def test_criterion_08_replacement_identity():
    K = 5
    worst = 0.0
    norms = []
    for t in range(30):
        rng = np.random.default_rng(800 + t)
        sets, f0, f1, f2, forest = _replacement_case(rng, K)
        good = build_good_function(f2, forest, sets.b2)
        members = sorted(
            {p for tree in forest for p in tree.members},
            key=lambda b: (-b.scale, b.m0, b.m2, b.n),
        )
        dev, violations = replacement_check(members, f0, f1, f2, good)
        assert violations == ()
        worst = max(worst, dev)
        norms.append(g_norm_report(good, forest)["g_norm"])
    ok = worst <= TOL and all(math.isfinite(v) for v in norms)
    note(
        8,
        "replacement identity",
        ok,
        f"worst dev {worst:.3g}, max |G|_2 {max(norms):.4g}",
    )
    assert worst <= TOL
    assert all(math.isfinite(v) for v in norms)


def _cover_field(rng, kind: str, n: int):
    if kind == "constant":
        return SlopeField.constant(n, float(rng.uniform(-0.5, 0.5)))
    if kind == "linear":
        return linear_slope_field(
            n,
            float(rng.uniform(-0.3, 0.3)),
            float(rng.uniform(-0.3, 0.3)),
            float(rng.uniform(-0.3, 0.3)),
        )
    return cone_slope_field(rng, n, 0.3)


def test_criterion_09_covering():
    n = 256
    kinds = ("constant", "linear", "cone")

    # constructive cover property, verified against the final dilate field
    uncovered = 0
    for t in range(100):
        rng = np.random.default_rng(900 + t)
        u = _cover_field(rng, kinds[t % 3], n)
        family = dense_parallelograms(rng, u, 0.5, count=30)
        selected, _ = greedy_cover(family, u)
        field = np.zeros((n, n))
        for r in selected:
            cols, lo, hi = r.height_dilate(7.0).grid_cells(n)
            for c, a, b in zip(cols, lo, hi):
                field[c, a:b] += 1.0
        mask = vertical_superlevel(field, 1e-4)
        for r in family:
            cols, lo, hi = r.grid_cells(n)
            if not all(mask[c, a:b].all() for c, a, b in zip(cols, lo, hi)):
                uncovered += 1

    # overlap ratio against delta^-1 sum |R| across shrinking densities
    per_delta = {}
    for d, delta in enumerate((1.0, 0.5, 0.25, 0.125)):
        ratios = []
        for t in range(3):
            rng = np.random.default_rng(950 + 10 * d + t)
            u = _cover_field(rng, kinds[t % 3], n)
            family = dense_parallelograms(rng, u, delta, count=20)
            selected, _ = greedy_cover(family, u, delta)
            ratios.append(
                overlap_check(selected, u, 2, delta)["square_ratio"]
            )
        per_delta[delta] = max(ratios)
    fitted = max(per_delta.values())

    failures = 0
    rng = np.random.default_rng(999)
    for _ in range(10_000):
        r, rp = lemma7r_pair(rng)
        if lemma7r_check(r, rp) is not True:
            failures += 1

    ok = uncovered == 0 and math.isfinite(fitted) and failures == 0
    detail = (
        f"uncovered {uncovered}/100 ensembles, overlap fitted {fitted:.4g} "
        f"(by delta: {', '.join(f'{k}: {v:.3g}' for k, v in per_delta.items())}), "
        f"7R failures {failures}/10000"
    )
    note(9, "covering", ok, detail)
    assert uncovered == 0
    assert math.isfinite(fitted)
    assert failures == 0


def test_criterion_10_unit_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(1000)

    # group and ring laws on random dyadic rationals
    # integer width stays within 8 bits so products fit the 16-bit cap
    nums = [
        WalshNumber(int(rng.integers(1, 1 << 8)), int(rng.integers(0, 9)))
        for _ in range(12)
    ]
    zero = WalshNumber(0)
    for u, v, w in zip(nums, nums[1:], nums[2:]):
        assert walsh_add(walsh_add(u, v), w) == walsh_add(u, walsh_add(v, w))
        assert walsh_add(u, v) == walsh_add(v, u)
        assert walsh_add(u, u) == zero
        assert walsh_add(u, zero) == u
        assert walsh_mul(u, walsh_add(v, w)) == walsh_add(
            walsh_mul(u, v), walsh_mul(u, w)
        )
        assert walsh_mul(walsh_mul(u, v), w) == walsh_mul(u, walsh_mul(v, w))

    # FWHT Parseval at K = 10
    K = 10
    f = GridFunction1D(K, rng.normal(size=1 << K))
    g = GridFunction1D(K, rng.normal(size=1 << K))
    parseval = abs(float(fwht(f).values @ fwht(g).values) - f.inner(g))
    assert parseval <= 1e-9

    # Walsh-basis Gram identity: full at K = 8, sampled pairs at K = 10
    W = np.stack([walsh_fn(nu, 8).values for nu in range(256)])
    gram_dev = float(np.max(np.abs(W @ W.T / 256.0 - np.eye(256))))
    assert gram_dev <= 1e-12
    for _ in range(100):
        i, j = (int(v) for v in rng.integers(0, 1 << K, size=2))
        want = 1.0 if i == j else 0.0
        assert abs(walsh_fn(i, K).inner(walsh_fn(j, K)) - want) <= 1e-12

    # projection idempotence and orthogonality of the two half-tiles
    F = GridFunction2D(4, rng.normal(size=(16, 16)))
    proj_dev = 0.0
    for P in (Bitile(0, 0, 0, 2), Bitile(-1, 1, 0, 1), Bitile(-2, 3, 2, 0)):
        for slot in (0, 2):
            once = proj_bitile(P, slot, F)
            twice = proj_bitile(P, slot, once)
            proj_dev = max(
                proj_dev, float(np.max(np.abs(twice.values - once.values)))
            )
            upper = proj_tile(P.half(1), slot, F)
            lower = proj_tile(P.half(-1), slot, F)
            proj_dev = max(proj_dev, abs(upper.inner(lower)))
    assert proj_dev <= 1e-12

    elapsed = time.perf_counter() - start
    note(
        10,
        "unit identities",
        True,
        f"parseval {parseval:.2g}, gram {gram_dev:.2g}, "
        f"projection {proj_dev:.2g}, {elapsed:.2f}s",
    )

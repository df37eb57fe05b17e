"""Parallelogram geometry, the covering iteration, and its certificates."""

import dataclasses
import itertools

import numpy as np
import pytest

from walshlab import covering
from walshlab.covering import (
    VERTICAL_THRESHOLD,
    Parallelogram,
    ParallelogramRows,
    SlopeField,
    cover_picks,
    densities,
    lemma7r_check,
    lk_maximal,
    square_integral,
    _box,
    _columns,
    _segments,
)
from walshlab.ensembles import (
    cone_slope_field,
    dense_parallelograms,
    lemma7r_pair,
    linear_slope_field,
)
from walshlab.gridfn import GridFunction2D
from walshlab.walsh import DyadicInterval

from . import oracles
from .oracles import (
    CoverStep,
    CoverTrace,
    ExpandedParallelogram,
    all_member_cover,
    cell_mask,
    center_y,
    density,
    e_set,
    full_dilate,
    greedy_cover,
    grid_cells_scalar,
    intersection_measure,
    lemma7r_fraction,
    lipschitz_hypothesis,
    lk_maximal_masked,
    measured_lipschitz,
    overlap_check,
    square_integral_bincount,
    uncertainty_overlap,
    _vertical_margin,
    vertical_maximal,
    vertical_superlevel,
    y_bounds,
)


def make(shadow_scale, shadow_index, base_y, slope, height):
    return Parallelogram(
        DyadicInterval(shadow_scale, shadow_index), base_y, slope, height
    )


def brute_mask(r, n):
    out = np.zeros((n, n), dtype=bool)
    for ix in range(n):
        x = (ix + 0.5) / n
        if not r.x_left <= x < r.x_right:
            continue
        lo, hi = y_bounds(r, x)
        for iy in range(n):
            y = (iy + 0.5) / n
            out[ix, iy] = lo <= y < hi
    return out


class TestParallelogram:
    def test_uncertainty_arithmetic(self):
        r = make(-2, 1, 0.3, 0.25, 0.125)
        lo, hi = r.uncertainty
        assert hi - lo == pytest.approx(2 * r.height / r.length)
        assert (lo + hi) / 2 == pytest.approx(r.slope)
        wide = r.height_dilate(3.0)
        wlo, whi = wide.uncertainty
        assert whi - wlo == pytest.approx(3 * (hi - lo))
        assert (wlo + whi) / 2 == pytest.approx(r.slope)
        grown = full_dilate(r, 5.0)
        assert isinstance(grown, ExpandedParallelogram)
        assert grown.uncertainty == pytest.approx((lo, hi))
        assert grown.x_right - grown.x_left == pytest.approx(5 * r.length)

    def test_height_dilate_keeps_center(self):
        r = make(-1, 1, 0.2, -0.5, 0.1)
        d = r.height_dilate(7.0)
        for x in (r.x_left, 0.8, r.x_right):
            assert center_y(d, x) == pytest.approx(center_y(r, x))
        assert d.height == pytest.approx(0.7)
        assert r.height_dilate(1.0) == r

    @pytest.mark.parametrize("seed", range(5))
    def test_grid_cells_match_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = 16
        scale = int(rng.integers(-3, 1))
        index = int(rng.integers(0, 1 << -scale)) if scale else 0
        r = make(
            scale,
            index,
            float(rng.uniform(-0.3, 1.0)),
            float(rng.uniform(-1, 1)),
            float(rng.uniform(0.0, 0.6)),
        )
        assert np.array_equal(cell_mask(r, n), brute_mask(r, n))

    def test_measure_and_validation(self):
        assert make(-1, 0, 0.0, 0.0, 0.25).measure == pytest.approx(0.125)
        with pytest.raises(ValueError, match="nonnegative"):
            make(0, 0, 0.0, 0.0, -1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            make(0, 0, 0.0, 0.0, 1.0).height_dilate(-2.0)
        with pytest.raises(ValueError, match="finer than the grid"):
            make(-5, 0, 0.0, 0.0, 1.0).grid_cells(16)


def random_members(rng, n, count):
    """Random parallelograms, among them empty ones and ones clipped at y = 0, 1."""
    rs = []
    for k in range(count):
        scale = int(rng.integers(-(n.bit_length() - 1), 1))
        height = float(rng.uniform(0.0, 0.6)) if k % 4 else 0.0
        base = float(rng.uniform(-0.5, 1.2))
        if k % 5 == 1:
            base = -float(rng.uniform(0.0, 0.3))  # clipped at y = 0
        if k % 5 == 2:
            base = 1.0 - 0.5 * height  # clipped at y = 1
        rs.append(
            make(
                scale,
                int(rng.integers(0, 1 << -scale)),
                base,
                float(rng.uniform(-1, 1)),
                height,
            )
        )
    return rs


class TestCellSetsAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(3))
    def test_mask_e_set_and_density(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = 16
        u = SlopeField(rng.uniform(-1, 1, (n, n)))
        rs = random_members(rng, n, 40)
        empty = clipped_lo = clipped_hi = 0
        for r in rs:
            m = brute_mask(r, n)
            lo, hi = r.uncertainty
            e = m & (u.values >= lo) & (u.values <= hi)
            assert np.array_equal(cell_mask(r, n), m)
            assert np.array_equal(e_set(r, u), e)
            want = e.sum() / m.sum() if m.any() else 1.0
            assert densities([r], u)[0] == want
            cols, y_lo, y_hi = r.grid_cells(n)
            rows = np.arange(n)
            ranges = (rows >= y_lo[:, None]) & (rows < y_hi[:, None])
            assert np.array_equal(ranges, m[cols])
            assert not m[np.setdiff1d(np.arange(n), cols)].any()
            cs, ys, bm = _box(*r.grid_cells(n))
            assert np.array_equal(bm, m[cs, ys])
            assert m[cs, ys].sum() == m.sum() == (y_hi - y_lo).sum()
            empty += not m.any()
            clipped_lo += bool(m[:, 0].any()) and r.base_y < 0.0
            clipped_hi += bool(m[:, -1].any()) and r.base_y + r.height > 1.0
        assert empty and clipped_lo and clipped_hi


def one_column_members(rng, n, count):
    """Members whose shadow is a single grid column."""
    scale = -(n.bit_length() - 1)
    return [
        make(
            scale,
            int(rng.integers(0, n)),
            float(rng.uniform(-0.2, 1.0)),
            float(rng.uniform(-1, 1)),
            float(rng.uniform(0.0, 0.5)),
        )
        for _ in range(count)
    ]


class TestParallelogramRows:
    def family(self, n=64):
        rng = np.random.default_rng(21)
        return random_members(rng, n, 16) + one_column_members(rng, n, 3)

    def test_sequence_of_the_members(self):
        rs = self.family()
        rows = ParallelogramRows(rs)
        assert len(rows) == len(rs) and rows.table.shape == (len(rs), 5)
        assert list(rows) == rs and rows == rs and rs == rows
        for i in (0, 3, len(rs) - 1, -1, -len(rs), np.int64(5)):
            assert rows[i] == rs[i]
        with pytest.raises(IndexError):
            rows[len(rs)]
        assert rows[2:9:3] == rs[2:9:3] and isinstance(rows[2:9:3], ParallelogramRows)
        assert rows[[4, 0, 4]] == [rs[4], rs[0], rs[4]]
        assert ParallelogramRows(rows.table) == rows == ParallelogramRows(rows)
        assert rows != rs[:-1] and rows != ParallelogramRows(rs[1:])
        assert [m.hex() for m in rows.measures.tolist()] == [r.measure.hex() for r in rs]

    def test_table_and_densities_are_read_only(self):
        rows = ParallelogramRows(self.family(), densities=np.linspace(0.0, 1.0, 19))
        for a in (rows.table, rows.densities, rows[1:].table, rows[1:].densities):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.5
        assert rows[[2, 7]].densities.tolist() == rows.densities[[2, 7]].tolist()
        assert ParallelogramRows(self.family()).densities is None

    def test_negative_height_rejected_as_by_parallelogram(self):
        table = ParallelogramRows(self.family()).table.copy()
        table[3, 4] = -0.25
        with pytest.raises(ValueError, match="height"):
            ParallelogramRows(table)

    def test_family_functions_read_the_table_as_the_list(self):
        n = 64
        rs = self.family(n)
        rows = ParallelogramRows(rs)
        u = cone_slope_field(np.random.default_rng(22), n, 0.3)
        f = GridFunction2D(6, np.random.default_rng(23).standard_normal((n, n)))
        assert densities(rows, u).tobytes() == densities(rs, u).tobytes()
        assert cover_picks(rows, u) == cover_picks(rs, u)
        assert square_integral(rows, n) == square_integral(rs, n)
        assert lk_maximal(f, rows).values.tobytes() == lk_maximal(f, rs).values.tobytes()

    def test_empty_family(self):
        u = SlopeField.constant(16, 0.0)
        f = GridFunction2D(4, np.ones((16, 16)))
        for empty in ([], ParallelogramRows([]), ParallelogramRows(np.zeros((0, 5)))):
            rows = ParallelogramRows(empty)
            assert len(rows) == 0 and list(rows) == [] and rows == []
            assert densities(empty, u).size == 0
            assert cover_picks(empty, u) == ([], [])
            assert square_integral(empty, 16) == 0.0
            assert not lk_maximal(f, empty).values.any()


class TestFamilyCells:
    @pytest.mark.parametrize("n", [16, 64])
    @pytest.mark.parametrize("seed", range(3))
    def test_segments_match_per_member_cells_and_brute_force(self, n, seed):
        rng = np.random.default_rng(110 + seed)
        rs = random_members(rng, n, 40) + one_column_members(rng, n, 6)
        rs.insert(3, make(-2, 1, 3.1 / n, 0.0, 0.4 / n))  # between two rows of centres
        index, counts, starts = _segments(rs, n)
        cols, y_lo, y_hi, ncols = _columns(rs, n)
        first = np.cumsum(ncols) - ncols
        assert np.array_equal(starts, np.cumsum(counts) - counts)
        assert starts[-1] + counts[-1] == index.size
        empty = clipped_lo = clipped_hi = 0
        for i, r in enumerate(rs):
            span = slice(first[i], first[i] + ncols[i])
            want = grid_cells_scalar(r, n)
            for got, one, w in zip((cols[span], y_lo[span], y_hi[span]), r.grid_cells(n), want):
                assert np.array_equal(got, w) and np.array_equal(one, w)
            m = brute_mask(r, n)
            seg = index[starts[i] : starts[i] + counts[i]]
            assert np.array_equal(seg, np.flatnonzero(m))  # column by column, rows upward
            empty += not m.any()
            clipped_lo += bool(m[:, 0].any()) and r.base_y < 0.0
            clipped_hi += bool(m[:, -1].any()) and r.base_y + r.height > 1.0
        assert empty and clipped_lo and clipped_hi
        assert (ncols == 1).sum() >= 6

    def test_grid_sides_are_kept_apart(self):
        r = make(-3, 5, 0.1, 0.7, 0.3)
        for n in (64, 128):
            cols, y_lo, y_hi = r.grid_cells(n)
            assert y_lo.shape == y_hi.shape == cols.shape
            x = (np.arange(n) + 0.5) / n
            assert np.array_equal(cols, np.flatnonzero((x >= r.x_left) & (x < r.x_right)))
            assert np.array_equal(cell_mask(r, n), brute_mask(r, n))

    def test_batch_raises_finer_than_grid(self):
        fine = make(-5, 0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="finer than the grid"):
            _segments([make(-1, 0, 0.2, 0.0, 0.3), fine], 16)
        u = SlopeField.constant(16, 0.0)
        with pytest.raises(ValueError, match="finer than the grid"):
            densities([fine], u)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("base_y", np.nan),
            ("base_y", -np.inf),
            ("slope", np.nan),
            ("slope", np.inf),
            ("height", np.nan),
            ("height", np.inf),
        ],
    )
    def test_non_finite_geometry_raises(self, field, value):
        bad = dataclasses.replace(make(-1, 0, 0.2, 0.1, 0.1), **{field: value})
        rs = [make(-2, 1, 0.3, 0.0, 0.2), bad]
        u = SlopeField.constant(16, 0.0)
        for call in (lambda: _columns(rs, 16), lambda: densities(rs, u), lambda: greedy_cover(rs, u)):
            with pytest.raises(ValueError, match="finite"):
                call()

    def test_empty_family(self):
        index, counts, starts = _segments([], 16)
        assert index.size == counts.size == starts.size == 0
        assert densities([], SlopeField.constant(16, 0.0)).size == 0
        assert square_integral([], 16) == 0.0

    @pytest.mark.parametrize("seed", range(3))
    def test_densities_match_scalar_oracle(self, seed):
        rng = np.random.default_rng(120 + seed)
        n = 32
        rs = random_members(rng, n, 40) + one_column_members(rng, n, 4)
        seen = set()
        for u in (SlopeField(rng.uniform(-1, 1, (n, n))), *slope_fields(rng, n)):
            got = densities(rs, u)
            want = [density(r, u) for r in rs]
            assert [float(d).hex() for d in got] == [float(d).hex() for d in want]
            seen |= {min(d, 0.5) if d < 1.0 else 1.0 for d in want if d > 0.0}
        assert seen >= {0.5, 1.0}  # both proper fractions and full densities


class TestSlopeField:
    def test_validation(self):
        with pytest.raises(ValueError, match="square"):
            SlopeField(np.zeros((4, 8)))
        with pytest.raises(ValueError, match="power of two"):
            SlopeField(np.zeros((6, 6)))
        with pytest.raises(ValueError, match="lie in"):
            SlopeField(np.full((4, 4), 1.5))

    def test_nan_slopes_rejected(self):
        values = np.zeros((4, 4))
        values[1, 2] = np.nan
        with pytest.raises(ValueError, match="lie in"):
            SlopeField(values)

    @pytest.mark.parametrize("lipschitz", [-0.3, -1e-300, np.nan])
    def test_negative_or_nan_certificate_rejected(self, lipschitz):
        with pytest.raises(ValueError, match="nonnegative"):
            SlopeField(np.zeros((4, 4)), lipschitz=lipschitz)
        assert SlopeField(np.zeros((4, 4)), lipschitz=0.0).lipschitz == 0.0

    @pytest.mark.parametrize("value", [np.inf, -np.inf, -1.0000000000000002])
    def test_out_of_range_slopes_rejected(self, value):
        values = np.zeros((8, 8))
        values[7, 0] = value
        with pytest.raises(ValueError, match="lie in"):
            SlopeField(values)

    def test_array_field_reads_its_cells(self):
        values = np.random.default_rng(3).uniform(-1, 1, (16, 16))
        values[2, 5] = -0.0
        u = SlopeField(values.tolist(), lipschitz=2.0)
        cells = np.array([2 * 16 + 5, 0, 255, 37, 37])
        assert u.at(cells).tobytes() == values.ravel()[cells].tobytes()
        assert u.at([]).dtype == np.float64 and u.at([]).shape == (0,)
        assert u.values.tobytes() == values.tobytes()
        with pytest.raises(IndexError):
            u.at([256])

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="power of two"):
            SlopeField(np.zeros((0, 0)))

    @pytest.mark.parametrize("kind", ["array", "constant", "linear", "cone"])
    def test_values_is_a_read_only_snapshot(self, kind):
        rng = np.random.default_rng(4)
        source = rng.uniform(-1, 1, (8, 8))
        u = {
            "array": lambda: SlopeField(source),
            "constant": lambda: SlopeField.constant(8, 0.25),
            "linear": lambda: linear_slope_field(8, 0.1, -0.2, 0.3),
            "cone": lambda: cone_slope_field(rng, 8, 0.3),
        }[kind]()
        before = u.values.copy()
        with pytest.raises(ValueError, match="read-only"):
            u.values[1, 2] = 0.5
        with pytest.raises(AttributeError):
            u.values = np.zeros((8, 8))
        source[:] = 0.75  # the array field holds its own copy
        assert u.values.tobytes() == before.tobytes()
        assert u.at(np.arange(64)).tobytes() == before.tobytes()

    def test_measured_lipschitz_of_linear_field(self):
        n = 16
        x = (np.arange(n) + 0.5) / n
        u = SlopeField(np.tile(0.5 * x[:, None], (1, n)))
        assert measured_lipschitz(u) == pytest.approx(0.5)
        assert measured_lipschitz(SlopeField.constant(8, 0.3)) == 0.0

    def test_lipschitz_hypothesis(self):
        u = SlopeField(np.zeros((8, 8)), lipschitz=1.0 / 15.0)
        assert lipschitz_hypothesis(u, make(-1, 0, 0.0, 0.0, 0.1))
        assert not lipschitz_hypothesis(u, make(0, 0, 0.0, 0.0, 0.1))
        bare = SlopeField(np.zeros((8, 8)))
        with pytest.raises(ValueError, match="certificate"):
            lipschitz_hypothesis(bare, make(0, 0, 0.0, 0.0, 0.1))


class TestESet:
    def test_constant_center_slope_captures_everything(self):
        r = make(-1, 0, 0.1, 0.4, 0.2)
        u = SlopeField.constant(16, 0.4)
        assert np.array_equal(e_set(r, u), cell_mask(r, 16))
        assert densities([r], u)[0] == 1.0

    def test_constant_outside_uncertainty_is_empty(self):
        r = make(-1, 0, 0.1, 0.4, 0.2)
        u = SlopeField.constant(16, -0.9)
        assert not e_set(r, u).any()
        assert densities([r], u)[0] == 0.0

    def test_uncertainty_endpoints_are_inside(self):
        r = make(-1, 0, 0.1, 0.2, 0.1)
        for end in r.uncertainty:
            u = SlopeField.constant(16, end)
            assert np.array_equal(e_set(r, u), cell_mask(r, 16))
            assert densities([r], u)[0] == 1.0

    def test_linear_field_strip_fraction(self):
        # u(x, y) = y against a slope-0 box [0,1) x [1/4, 3/4): the
        # uncertainty interval [-1/2, 1/2] admits exactly the lower half.
        n = 16
        y = (np.arange(n) + 0.5) / n
        u = SlopeField(np.tile(y[None, :], (n, 1)))
        r = make(0, 0, 0.25, 0.0, 0.5)
        assert densities([r], u)[0] == pytest.approx(0.5)


class TestVerticalMaximal:
    def test_single_spike_column(self):
        n = 8
        v = np.zeros((n, n))
        v[2, 5] = 1.0
        mv = vertical_maximal(v)
        for i in range(n):
            assert mv[2, i] == pytest.approx(1.0 / (abs(i - 5) + 1))
        assert np.all(mv[[0, 1, 3, 4, 5, 6, 7]] == 0.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_superlevel_matches_exact_maximal(self, seed):
        rng = np.random.default_rng(seed)
        v = rng.random((16, 16)) * (rng.random((16, 16)) < 0.4)
        mv = vertical_maximal(v)
        for t in (1e-4, 0.1, 0.35, 0.8):
            sup = vertical_superlevel(v, t)
            clear = np.abs(mv - t) > 1e-9
            assert np.array_equal(sup[clear], (mv >= t)[clear])


def brute_margin(values, threshold):
    """Best sum of values minus threshold over column intervals through each cell."""
    g = np.asarray(values, dtype=np.float64) - threshold
    n_cols, n = g.shape
    out = np.full(g.shape, -np.inf)
    for c in range(n_cols):
        for a in range(n):
            for b in range(a + 1, n + 1):
                out[c, a:b] = np.maximum(out[c, a:b], g[c, a:b].sum())
    return out


class TestVerticalMargin:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("threshold", [1e-4, 0.1, 0.8])
    def test_matches_best_interval_oracle(self, seed, threshold):
        rng = np.random.default_rng(seed)
        v = rng.random((12, 16)) * (rng.random((12, 16)) < 0.4)
        v[[1, 6]] = 0.0  # all-zero columns
        got = _vertical_margin(v, threshold)
        np.testing.assert_allclose(got, brute_margin(v, threshold), rtol=0, atol=1e-12)

    def test_column_restricted_recompute_equals_full(self):
        rng = np.random.default_rng(7)
        v = rng.integers(0, 3, (32, 32)).astype(np.float64)
        full = _vertical_margin(v, VERTICAL_THRESHOLD)
        for cols in (np.arange(8, 16), np.arange(0, 32, 3), np.array([31])):
            assert np.array_equal(_vertical_margin(v[cols], VERTICAL_THRESHOLD), full[cols])

    def test_incremental_field_keeps_signs(self):
        # the covering loop's bookkeeping: start every column at the empty
        # margin and rescan only the columns a dilate touches
        rng = np.random.default_rng(8)
        n = 32
        field = np.zeros((n, n))
        best = np.full((n, n), -VERTICAL_THRESHOLD)
        for r in random_members(rng, n, 12):
            d = r.height_dilate(7.0)
            cols = d.grid_cells(n)[0]
            field += cell_mask(d, n)
            best[cols] = _vertical_margin(field[cols], VERTICAL_THRESHOLD)
            full = _vertical_margin(field, VERTICAL_THRESHOLD)
            np.testing.assert_allclose(best, full, rtol=0, atol=1e-12)
            assert np.array_equal(best >= 0.0, full >= 0.0)


def per_member_cover(parallelograms, u, delta=None):
    """The covering loop with one masked min per stock member; an oracle."""
    n = u.n
    failures = ()
    if delta is not None:
        failures = tuple(
            i for i, r in enumerate(parallelograms) if density(r, u) < delta
        )
    stock = list(range(len(parallelograms)))
    field = np.zeros((n, n))
    best = np.full((n, n), -VERTICAL_THRESHOLD)
    selected, steps = [], []
    while stock:
        pick = min(
            stock,
            key=lambda i: (-parallelograms[i].length, -parallelograms[i].height, i),
        )
        selected.append(pick)
        d = parallelograms[pick].height_dilate(7.0)
        cols = d.grid_cells(n)[0]
        field += cell_mask(d, n)
        best[cols] = _vertical_margin(field[cols], VERTICAL_THRESHOLD)
        removed, witnesses = [], []
        for i in stock:
            m_i = cell_mask(parallelograms[i], n)
            margin = np.min(best, where=m_i, initial=np.inf)
            if margin < 0.0:
                continue
            removed.append(i)
            witnesses.append(VERTICAL_THRESHOLD + margin / n)
        gone = set(removed)
        stock = [i for i in stock if i not in gone]
        steps.append(CoverStep(pick, tuple(removed), tuple(witnesses)))
    chosen = [parallelograms[i] for i in selected]
    return chosen, CoverTrace(tuple(steps), failures)


def witness_bits(trace):
    return [float(w).hex() for step in trace.steps for w in step.witnesses]


def slope_fields(rng, n):
    yield SlopeField.constant(n, float(rng.uniform(-0.5, 0.5)))
    yield linear_slope_field(n, *rng.uniform(-0.3, 0.3, 3))
    yield cone_slope_field(rng, n, 0.3)


class TestGreedyCover:
    def grid(self, n=64):
        return SlopeField.constant(n, 0.0)

    def test_single_parallelogram(self):
        r = make(-1, 0, 0.2, 0.1, 0.1)
        chosen, trace = greedy_cover([r], self.grid())
        assert chosen == [r]
        assert len(trace.steps) == 1
        assert trace.steps[0].removed == (0,)
        assert trace.steps[0].witnesses[0] >= 1e-4

    def test_disjoint_shadows_both_selected(self):
        a = make(-1, 0, 0.2, 0.1, 0.1)
        b = make(-1, 1, 0.6, -0.2, 0.1)
        chosen, trace = greedy_cover([a, b], self.grid())
        assert chosen == [a, b]
        assert len(trace.steps) == 2

    def test_congruent_stack_collapses_to_one(self):
        rs = [make(-1, 0, 0.2 + 0.002 * i, 0.1, 0.1) for i in range(50)]
        chosen, trace = greedy_cover(rs, self.grid())
        assert chosen == [rs[0]]
        assert set(trace.steps[0].removed) == set(range(50))

    @pytest.mark.parametrize("seed", range(3))
    def test_constructive_cover_property(self, seed):
        rng = np.random.default_rng(seed)
        n = 64
        rs = []
        for _ in range(30):
            scale = int(rng.integers(-4, 0))
            rs.append(
                make(
                    scale,
                    int(rng.integers(0, 1 << -scale)),
                    float(rng.uniform(0, 0.9)),
                    float(rng.uniform(-1, 1)),
                    float(rng.uniform(0.02, 0.2)),
                )
            )
        u = self.grid(n)
        chosen, trace = greedy_cover(rs, u)
        field = np.zeros((n, n))
        for r in chosen:
            field += cell_mask(r.height_dilate(7.0), n)
        sup = vertical_superlevel(field, 1e-4)
        for r in rs:
            assert np.all(sup[cell_mask(r, n)])
        assert trace == greedy_cover(rs, u)[1]

    @pytest.mark.parametrize("seed", range(3))
    def test_witnesses_bound_exact_maximal(self, seed):
        rng = np.random.default_rng(40 + seed)
        n = 32
        rs = random_members(rng, n, 24)
        chosen, trace = greedy_cover(rs, self.grid(n))
        field = np.zeros((n, n))
        for step in trace.steps:
            field += cell_mask(rs[step.selected].height_dilate(7.0), n)
            mv = vertical_maximal(field)
            for i, w in zip(step.removed, step.witnesses):
                m = cell_mask(rs[i], n)
                assert w >= VERTICAL_THRESHOLD
                assert w <= mv[m].min(initial=np.inf) + 1e-12

    @pytest.mark.parametrize("n", [32, 64])
    @pytest.mark.parametrize("seed", range(3))
    def test_segment_reduction_matches_per_member_loop(self, n, seed):
        rng = np.random.default_rng(70 + seed)
        for u in slope_fields(rng, n):
            rs = random_members(rng, n, 30)
            # a member between two rows of cell centres holds no cell; one
            # member appears twice, and once more as an equal copy
            thin = make(-2, 1, 3.1 / n, 0.0, 0.4 / n)
            assert not cell_mask(thin, n).any()
            twin = rs[9]
            rs[5:5] = [thin, twin]
            rs.append(dataclasses.replace(twin))
            failed = 0
            for delta in (None, 0.1, 0.3, 0.5, 0.9, 1.0):
                chosen, trace = greedy_cover(rs, u, delta)
                want_chosen, want = per_member_cover(rs, u, delta)
                assert chosen == want_chosen
                assert trace == want
                assert witness_bits(trace) == witness_bits(want)
                assert "inf" in witness_bits(trace)  # the cell-free members
                failed += len(trace.density_failures)
            assert failed  # the sweep reaches deltas that some members fail

    @pytest.mark.parametrize("n", [32, 128])
    @pytest.mark.parametrize("seed", range(3))
    def test_shadow_local_regather_matches_all_member_gather(self, n, seed):
        rng = np.random.default_rng(130 + seed)
        for u in slope_fields(rng, n):
            # narrow shadows, so most picks leave most members alone
            rs = list(dense_parallelograms(rng, u, 0.3, 40, scale_range=(-5, -3)))
            rs += [r for r in random_members(rng, n, 20) if r.length <= 0.125]
            rs += one_column_members(rng, n, 4)
            rs.insert(7, make(-2, 1, 3.1 / n, 0.0, 0.4 / n))  # cell-free
            for delta in (None, 0.3, 0.8):
                chosen, trace = greedy_cover(rs, u, delta)
                want_chosen, want = all_member_cover(rs, u, delta)
                assert chosen == want_chosen
                assert trace == want
                assert witness_bits(trace) == witness_bits(want)
            assert len(trace.steps) >= 6

    def test_density_failures_reported(self):
        u = SlopeField.constant(32, 0.9)
        close = make(-1, 0, 0.2, 0.9, 0.1)
        far = make(-1, 1, 0.2, -0.9, 0.1)
        chosen, trace = greedy_cover([close, far], u, delta=0.5)
        assert trace.density_failures == (1,)
        assert far in chosen

    def test_bad_delta(self):
        with pytest.raises(ValueError, match="delta"):
            greedy_cover([], self.grid(), delta=0.0)

    def test_empty_family(self):
        for delta in (None, 0.5):
            assert greedy_cover([], self.grid(), delta) == ([], CoverTrace((), ()))


def step_table(trace):
    return (
        [step.selected for step in trace.steps],
        [step.removed for step in trace.steps],
        trace.density_failures,
    )


class TestCoverPicks:
    @pytest.mark.parametrize("n", [16, 32, 64, 128, 256])
    @pytest.mark.parametrize("seed", range(2))
    def test_column_mass_matches_margins(self, n, seed):
        rng = np.random.default_rng(150 + seed)
        lo = max(-5, 1 - n.bit_length())
        steps = failing = 0
        for u in slope_fields(rng, n):
            # narrow random members, so that picks leave others standing
            rs = [r for r in random_members(rng, n, 30) if r.length <= 0.25]
            rs += one_column_members(rng, n, 4)
            rs += dense_parallelograms(rng, u, 0.3, 20, scale_range=(lo, max(-3, lo)))
            rs.insert(5, make(-2, 1, 3.1 / n, 0.0, 0.4 / n))  # cell-free
            # the widest member, picked first: it leaves the grid at the top
            # early, so its dilate holds cells in a few of its columns only
            rs.append(make(-1, 0, 0.9, 1.0, 0.02))
            picks, removals = cover_picks(rs, u)
            assert cover_picks(ParallelogramRows(rs), u) == (picks, removals)
            for delta in (None, 0.3, 0.8):
                chosen, trace = greedy_cover(rs, u, delta)
                want_chosen, want = all_member_cover(rs, u, delta)
                assert step_table(trace) == step_table(want)
                assert (picks, removals) == step_table(trace)[:2]
                assert [rs[i] for i in picks] == chosen == want_chosen
                assert picks[0] == len(rs) - 1 and 5 in removals[0]
                assert sorted(i for step in removals for i in step) == list(range(len(rs)))
                steps += len(picks)
                failing += len(trace.density_failures)
        assert steps >= 5 * 9  # about five picks per family or more
        assert failing > 0  # one `densities` pass is compared with the scalar oracle too

    def test_premise_checked(self, monkeypatch):
        n = 32
        u = SlopeField.constant(n, 0.0)
        rs = [make(-1, 0, 0.2, 0.1, 0.1)]
        monkeypatch.setattr(covering, "VERTICAL_THRESHOLD", 1.0 / n)
        for call in (cover_picks, greedy_cover):
            with pytest.raises(ValueError, match="threshold"):
                call(rs, u)

    def test_replay_refuses_an_uncovered_removal(self, monkeypatch):
        a = make(-1, 0, 0.2, 0.1, 0.1)
        b = make(-1, 1, 0.6, -0.2, 0.1)  # its columns hold no cell of a's dilate
        wrong = lambda rs, u: ([0], [(0, 1)])
        monkeypatch.setattr(oracles, "cover_picks", wrong)
        with pytest.raises(RuntimeError, match="below the threshold"):
            greedy_cover([a, b], SlopeField.constant(32, 0.0))

    def test_empty_family_and_bad_delta(self):
        # the density condition is the caller's: cover_picks takes no delta
        u = SlopeField.constant(16, 0.0)
        assert cover_picks([], u) == cover_picks(ParallelogramRows([]), u) == ([], [])
        with pytest.raises(TypeError):
            cover_picks([], u, 0.5)
        with pytest.raises(ValueError, match="delta"):
            greedy_cover([], u, delta=1.5)


class TestIntersectionMeasure:
    def test_axis_aligned_boxes(self):
        a = make(0, 0, 0.1, 0.0, 0.5)
        b = make(-1, 1, 0.4, 0.0, 0.5)
        # overlap is [1/2, 1) x [0.4, 0.6)
        assert intersection_measure([a, b]) == pytest.approx(0.1)
        assert intersection_measure([a]) == pytest.approx(a.measure)

    def test_crossing_strips_match_slope_formula(self):
        # two strips crossing inside the common shadow intersect in a
        # parallelogram of area H H' / |slope difference|
        a = make(0, 0, 0.45, 0.0, 0.1)
        b = make(0, 0, 0.2, 0.5, 0.1)
        assert intersection_measure([a, b]) == pytest.approx(0.1 * 0.1 / 0.5)

    def test_disjoint_and_empty(self):
        a = make(-1, 0, 0.0, 0.0, 0.2)
        b = make(-1, 1, 0.0, 0.0, 0.2)
        assert intersection_measure([a, b]) == 0.0
        assert intersection_measure([]) == 0.0
        c = make(-1, 0, 0.9, 0.0, 0.2)
        assert intersection_measure([a, c]) == 0.0

    def test_grid_count_agrees(self):
        a = make(0, 0, 0.35, 0.2, 0.3)
        b = make(-1, 1, 0.1, -0.4, 0.4)
        n = 256
        count = float((cell_mask(a, n) & cell_mask(b, n)).sum()) / n ** 2
        assert count == pytest.approx(intersection_measure([a, b]), abs=2e-3)


class TestOverlapCheck:
    def test_single_aligned_parallelogram(self):
        r = make(-1, 0, 0.25, 0.0, 0.25)
        u = SlopeField.constant(16, 0.0)
        report = overlap_check([r], u, 2)
        assert report["e_ratio"] <= 1.0 + 1e-12
        assert report["u_overlap_ratio"] == pytest.approx(1.0)
        assert report["square_ratio"] <= 1.0 + 1e-12

    def test_disjoint_family(self):
        rs = [make(-2, i, 0.2, 0.0, 0.25) for i in range(4)]
        u = SlopeField.constant(16, 0.0)
        report = overlap_check(rs, u, 2)
        assert report["e_ratio"] <= 1.0 + 1e-12
        # only the diagonal tuples survive, so the overlap sum is the
        # total measure
        assert report["u_overlap_sum"] == pytest.approx(
            report["sum_measures"]
        )

    def test_u_filter_excludes_separated_slopes(self):
        a = make(0, 0, 0.4, 0.9, 0.01)
        b = make(0, 0, 0.4, -0.9, 0.01)
        assert not uncertainty_overlap([a, b])
        u = SlopeField.constant(16, 0.0)
        report = overlap_check([a, b], u, 2)
        assert report["u_overlap_sum"] == pytest.approx(
            a.measure + b.measure
        )

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_overlap_sum_matches_tuple_enumeration(self, q):
        rng = np.random.default_rng(80)
        n = 32
        u = cone_slope_field(rng, n, 0.3)
        rs = [
            make(
                int(rng.integers(-2, 0)),
                0,
                float(rng.uniform(0.2, 0.5)),
                float(rng.uniform(-0.2, 0.2)),
                float(rng.uniform(0.05, 0.3)),
            )
            for _ in range(7)
        ]
        rs.append(rs[3])
        report = overlap_check(rs, u, q)
        want = 0.0
        for chain in itertools.product(rs, repeat=q):
            if uncertainty_overlap(chain) and intersection_measure(chain) > 0.0:
                want += intersection_measure(chain)
        if q > 1:  # off-diagonal tuples contribute: the family overlaps
            assert want > sum(r.measure for r in rs)
        assert report["u_overlap_sum"] == want
        e_field = sum(e_set(r, u).astype(float) for r in rs)
        r_field = sum(cell_mask(r, n).astype(float) for r in rs)
        assert report["e_integral"] == float((e_field ** q).sum() / n ** 2)
        assert report["square_integral"] == float((r_field ** 2).sum() / n ** 2)

    @pytest.mark.parametrize("seed", range(3))
    def test_square_integral_matches_overlap_check(self, seed):
        rng = np.random.default_rng(140 + seed)
        n = 64
        for u in slope_fields(rng, n):
            rs = list(dense_parallelograms(rng, u, 0.5, 12, scale_range=(-4, -2)))
            rs += random_members(rng, n, 8)
            report = overlap_check(rs, u, 2, 0.5)
            assert square_integral(rs, n) == report["square_integral"]
            r_field = sum(cell_mask(r, n).astype(float) for r in rs)
            assert report["square_integral"] == float((r_field ** 2).sum() / n ** 2)

    @pytest.mark.parametrize("n", [8, 32, 256])
    def test_square_integral_counts_cells_as_the_field_did(self, n):
        rng = np.random.default_rng(160 + n)
        for _ in range(5):
            rs = random_members(rng, n, 30) + one_column_members(rng, n, 3)
            rs += rs[:4]  # repeated members overlap themselves
            assert (_segments(rs, n)[1] == 0).any()  # cell-free members among them
            for selected in (rs, rs[:1], rs[::3], [r for r in rs if r.height == 0.0], []):
                got = square_integral(selected, n)
                assert float(got).hex() == float(square_integral_bincount(selected, n)).hex()
        assert square_integral([], n) == square_integral_bincount([], n) == 0.0

    @pytest.mark.parametrize("n", [64, 1024, 2048])
    def test_square_integral_runs_match_cell_counts_on_cover_selections(self, n):
        # the families and selections `cover` integrates, stacked and
        # repeated so that runs open and close at shared rows
        rng = np.random.default_rng(170 + n)
        lo = max(-5, 1 - n.bit_length())
        for u in slope_fields(rng, n):
            rs = dense_parallelograms(rng, u, 0.5, 40, scale_range=(lo, max(-3, lo)))
            for selected in (rs[cover_picks(rs, u)[0]], rs, rs[[0, 0, 1, 0]]):
                got = square_integral(selected, n)
                assert float(got).hex() == float(square_integral_bincount(selected, n)).hex()

    def test_validation(self):
        u = SlopeField.constant(8, 0.0)
        with pytest.raises(ValueError, match="at least 1"):
            overlap_check([], u, 0)
        with pytest.raises(ValueError, match="delta"):
            overlap_check([], u, 2, delta=2.0)


def random_7r_pair(rng):
    scale = int(rng.integers(-3, 1))
    shadow = DyadicInterval(scale, int(rng.integers(0, 1 << -scale)))
    length = shadow.length
    h = float(rng.uniform(0.001, 0.05))
    hp = float(rng.uniform(7 * h, 10 * h))
    s = float(rng.uniform(-0.8, 0.8))
    sp = s + float(rng.uniform(-1, 1)) * (h + hp) / length
    sp = float(np.clip(sp, -1.0, 1.0))
    b = float(rng.uniform(0.0, 0.8))
    r = Parallelogram(shadow, b, s, h)
    x_star = r.x_left + float(rng.random()) * length
    gap = float(rng.uniform(-0.999, 0.999)) * (h + hp) / 2
    bp = (
        b
        + s * (x_star - r.x_left)
        + h / 2
        + gap
        - hp / 2
        - sp * (x_star - r.x_left)
    )
    return r, Parallelogram(shadow, bp, sp, hp)


class TestLemma7R:
    def test_congruent_pair_inapplicable(self):
        r = make(-1, 0, 0.2, 0.1, 0.1)
        assert lemma7r_check(r, r) == "inapplicable"

    def test_distinct_shadows_inapplicable(self):
        r = make(-1, 0, 0.2, 0.1, 0.01)
        rp = make(-1, 1, 0.2, 0.1, 0.2)
        assert lemma7r_check(r, rp) == "inapplicable"

    def test_separated_uncertainty_inapplicable(self):
        r = make(0, 0, 0.45, 0.8, 0.01)
        rp = make(0, 0, 0.45, -0.8, 0.1)
        assert lemma7r_check(r, rp) == "inapplicable"

    def test_disjoint_bodies_inapplicable(self):
        r = make(-3, 0, 0.05, 0.0, 0.001)
        rp = make(-3, 0, 0.9, 0.0, 0.05)
        assert lemma7r_check(r, rp) == "inapplicable"

    def test_degenerate_height_contained(self):
        r = make(-1, 0, 0.3, 0.1, 0.0)
        rp = make(-1, 0, 0.25, 0.1, 0.1)
        assert lemma7r_check(r, rp) is True

    @pytest.mark.parametrize("seed", range(4))
    def test_random_hypothesis_pairs_always_contained(self, seed):
        rng = np.random.default_rng(seed)
        hits = 0
        for _ in range(250):
            r, rp = random_7r_pair(rng)
            got = lemma7r_check(r, rp)
            if got == "inapplicable":
                continue
            hits += 1
            assert got is True
        assert hits > 200


def free_7r_pair(rng):
    """Two parallelograms drawn without the hypotheses, scales -4..0.

    Most pairs share a shadow; heights, slopes and bases are spread so that
    every hypothesis both holds and fails, with mantissas of every length.
    """
    scale = int(rng.integers(-4, 1))
    shadow = DyadicInterval(scale, int(rng.integers(0, 1 << -scale)))
    other = shadow
    if rng.random() < 0.1:
        other = DyadicInterval(scale, int(rng.integers(0, 1 << -scale)))
    h = float(rng.uniform(0.0, 0.05)) * 2.0 ** -int(rng.integers(0, 20))
    hp = h * float(rng.uniform(5.0, 12.0)) + float(rng.uniform(0, 1e-3))
    s = float(rng.uniform(-1, 1))
    sp = s + float(rng.normal()) * (h + hp) / shadow.length
    b = float(rng.uniform(-1, 1))
    bp = b + float(rng.normal()) * (h + hp) + (h - hp) / 2
    return Parallelogram(shadow, b, s, h), Parallelogram(other, bp, sp, hp)


class TestLemma7RExactIntegers:
    """The integer check against the `Fraction` one it replaced."""

    @pytest.mark.parametrize("pairs", [lemma7r_pair, free_7r_pair])
    def test_matches_fraction_oracle(self, pairs):
        rng = np.random.default_rng(70)
        seen = set()
        for _ in range(3000):
            r, rp = pairs(rng)
            got, want = lemma7r_check(r, rp), lemma7r_fraction(r, rp)
            assert (type(got), got) == (type(want), want), (r, rp)
            seen.add(got)
        # under the hypotheses |gap| <= 3(h + h')/2 < 7(h' - h)/2, so no
        # pair is ever found uncontained
        assert seen == ({True} if pairs is lemma7r_pair else {True, "inapplicable"})

    @pytest.mark.parametrize(
        "r, rp, want",
        [
            # 7 h = h', centre lines equal
            (make(-1, 0, 0.5, 0.0, 0.0625), make(-1, 0, 0.3125, 0.0, 0.4375), True),
            (make(-1, 0, 0.5, 0.0, 0.0625), make(-1, 0, 0.3125, 0.0, 0.4375 - 2**-40),
             "inapplicable"),
            # slope gap times length = h + h' (uncertainty intervals touch)
            (make(-1, 0, 0.25, 0.5, 0.0625), make(-1, 0, 0.28125, -0.625, 0.5), True),
            (make(-1, 0, 0.25, 0.5, 0.0625), make(-1, 0, 0.28125, -0.625 - 2**-40, 0.5),
             "inapplicable"),
            # |centre gap| = (h + h') / 2 at both ends, no crossing
            (make(-1, 0, 0.25, 0.0, 0.0625), make(-1, 0, 0.3125, 0.0, 0.5),
             "inapplicable"),
            (make(-1, 0, 0.25, 0.0, 0.0625), make(-1, 0, 0.3125 - 2**-40, 0.0, 0.5),
             True),
            # the centre gap is 0 at the left end and grows: a crossing
            (make(-2, 1, 0.25, 0.0, 0.0625), make(-2, 1, 0.03125, 2.25, 0.5), True),
        ],
    )
    def test_comparisons_at_equality(self, r, rp, want):
        assert lemma7r_check(r, rp) == lemma7r_fraction(r, rp) == want

    @pytest.mark.parametrize(
        "value, error", [(np.nan, ValueError), (np.inf, OverflowError)]
    )
    @pytest.mark.parametrize("at", range(6))
    def test_non_finite_inputs_raise_like_fractions(self, value, error, at):
        fields = [0.25, 0.0, 0.0625, 0.3125, 0.0, 0.4375]
        fields[at] = value
        r = make(-1, 0, *fields[:3])
        rp = make(-1, 0, *fields[3:])
        for check in (lemma7r_check, lemma7r_fraction):
            with pytest.raises(error):
                check(r, rp)


class TestLKMaximal:
    def test_constant_function(self):
        rs = [make(-1, 0, 0.25, 0.0, 0.25), make(-2, 2, 0.6, 0.2, 0.1)]
        f = GridFunction2D(4, np.ones((16, 16)))
        out = lk_maximal(f, rs)
        union = cell_mask(rs[0], 16) | cell_mask(rs[1], 16)
        assert np.all(out.values[union] == pytest.approx(1.0))
        assert np.all(out.values[~union] == 0.0)

    def test_single_average(self):
        rng = np.random.default_rng(3)
        f = GridFunction2D(4, rng.standard_normal((16, 16)))
        r = make(-1, 1, 0.2, 0.3, 0.3)
        m = cell_mask(r, 16)
        want = f.values[m].mean()
        out = lk_maximal(f, [r])
        assert np.all(out.values[m] == pytest.approx(want))

    def test_pointwise_supremum(self):
        rng = np.random.default_rng(4)
        n = 16
        f = GridFunction2D(4, rng.random((n, n)))
        rs = [
            make(-1, 0, 0.1, 0.2, 0.4),
            make(-1, 0, 0.3, -0.1, 0.3),
            make(0, 0, 0.5, 0.0, 0.2),
        ]
        out = lk_maximal(f, rs)
        want = np.zeros((n, n))
        for r in rs:
            m = cell_mask(r, n)
            if m.any():
                want[m] = np.maximum(want[m], f.values[m].mean())
        np.testing.assert_allclose(out.values, want, atol=1e-12)

    @pytest.mark.parametrize("n", [16, 64])
    @pytest.mark.parametrize("seed", range(3))
    def test_row_slices_match_masked_gather_bit_for_bit(self, n, seed):
        rng = np.random.default_rng(90 + seed)
        f = GridFunction2D(n.bit_length() - 1, rng.standard_normal((n, n)))
        rs = random_members(rng, n, 30)
        got = lk_maximal(f, rs).values
        assert np.array_equal(got, lk_maximal_masked(f, rs).values)
        assert got.any()

    @pytest.mark.parametrize("n", [16, 32, 64])
    @pytest.mark.parametrize("seed", range(4))
    def test_one_columns_pass_matches_per_member_cells_bit_for_bit(self, n, seed):
        # one `_columns` pass for the family against each member's own
        # `grid_cells`, also on dense families (as the lk_weak probe draws
        # them) and on the empty family
        rng = np.random.default_rng(190 + seed)
        f = GridFunction2D(n.bit_length() - 1, rng.standard_normal((n, n)))
        u = cone_slope_field(rng, n, 0.3)
        for rs in (
            random_members(rng, n, 30),
            dense_parallelograms(rng, u, 0.5, count=15, scale_range=(-3, -1)),
            [],
        ):
            got = lk_maximal(f, rs).values
            assert np.array_equal(got, lk_maximal_masked(f, rs).values)

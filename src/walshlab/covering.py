"""Parallelogram covering algorithms and the Lipschitz-Kakeya maximal operator.

Parallelograms have two vertical edges and a dyadic shadow on the
horizontal axis.  The covering algorithm repeatedly selects a widest
remaining parallelogram and discards everything already buried under the
vertical maximal function of the height-dilated selection; the selected
family admits exact overlap certificates.  All set measurements happen on
an N x N grid of cell centers over the unit square, with N a power of
two; measures of single parallelograms are exact shadow times height.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .gridfn import GridFunction2D
from .walsh import DyadicInterval

VERTICAL_THRESHOLD = 1e-4  # removal level of the covering iteration


@dataclass(frozen=True)
class Parallelogram:
    """Vertical-edged parallelogram over a dyadic shadow.

    The lower edge starts at (left end of shadow, base_y) and runs with
    the given slope; vertical edges have the given height.  Vertical
    sections are half-open, matching the half-open shadow.
    """

    shadow: DyadicInterval
    base_y: float
    slope: float
    height: float

    def __post_init__(self):
        if self.height < 0:
            raise ValueError("height must be nonnegative")

    @property
    def length(self) -> float:
        return self.shadow.length

    @property
    def x_left(self) -> float:
        return self.shadow.index * self.shadow.length

    @property
    def x_right(self) -> float:
        return (self.shadow.index + 1) * self.shadow.length

    @property
    def measure(self) -> float:
        return self.length * self.height

    @property
    def uncertainty(self) -> Tuple[float, float]:
        """Closed slope interval of length 2 height / length, centered."""
        half = self.height / self.length
        return (self.slope - half, self.slope + half)

    def height_dilate(self, a: float) -> "Parallelogram":
        """Same center, slope, and shadow; height scaled by a.

        This is the dilate the covering iteration uses.
        """
        if a < 0:
            raise ValueError("dilation factor must be nonnegative")
        return Parallelogram(
            self.shadow,
            self.base_y + 0.5 * (1.0 - a) * self.height,
            self.slope,
            a * self.height,
        )

    def grid_cells(self, n: int):
        """Column indices with per-column half-open cell index ranges."""
        return _columns([self], n)[:3]


class ParallelogramRows(Sequence):
    """Read-only family of parallelograms held as float64 rows
    (scale, index, base_y, slope, height).

    Built from rows or any parallelogram iterable.  Only indexing by an
    int and iteration build `Parallelogram`s; a slice or an int array
    picks a sub-family.  It equals any sequence of the same parallelograms
    in the same order.  `densities` is None, or each member's |E(R)| / |R|
    as the density filter that drew the family measured it.
    """

    def __init__(self, parallelograms, densities=None):
        self.table = _table(parallelograms).reshape(-1, 5)  # a new view: the flag is its own
        self.table.flags.writeable = False
        if np.any(self.table[:, 4] < 0):
            raise ValueError("height must be nonnegative")
        self.densities = None
        if densities is not None:
            self.densities = np.array(densities, dtype=np.float64)
            self.densities.flags.writeable = False

    @property
    def measures(self) -> np.ndarray:
        """Each member's measure, shadow length times height, as `Parallelogram.measure`."""
        return np.ldexp(1.0, self.table[:, 0].astype(np.int64)) * self.table[:, 4]

    def __len__(self) -> int:
        return len(self.table)

    def __getitem__(self, i):
        if isinstance(i, (int, np.integer)):
            return _parallelogram(*self.table[i].tolist())
        d = self.densities
        return ParallelogramRows(self.table[i], None if d is None else d[i])

    def __iter__(self):
        return (_parallelogram(*row) for row in self.table.tolist())

    def __eq__(self, other):
        if isinstance(other, ParallelogramRows):
            return np.array_equal(self.table, other.table)
        if isinstance(other, Sequence):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"ParallelogramRows({self.table.tolist()})"


def _parallelogram(scale, index, base_y, slope, height) -> Parallelogram:
    return Parallelogram(DyadicInterval(int(scale), int(index)), base_y, slope, height)


def _table(rs) -> np.ndarray:
    """Rows (scale, index, base_y, slope, height) of a family, as float64."""
    if isinstance(rs, ParallelogramRows):
        return rs.table
    if isinstance(rs, np.ndarray):
        return rs.astype(np.float64, copy=False)
    return np.array(
        [(r.shadow.scale, r.shadow.index, r.base_y, r.slope, r.height) for r in rs],
        dtype=np.float64,
    ).reshape(-1, 5)


def _columns(rs, n: int):
    """Every member's shadow columns, member after member, in one array pass.

    Returns the column indices, the half-open row ranges [y_lo, y_hi) of
    the cell centers inside the member, and each member's column count.
    """
    table = _table(rs)
    if not np.isfinite(table[:, 2:]).all():
        raise ValueError("base, slope and height must be finite")
    scale, index, base, slope, height = table.T
    length = np.ldexp(1.0, scale.astype(np.int64))
    if np.any(length * n < 1.0):
        raise ValueError("shadow finer than the grid")
    x_left = index * length
    c_lo = np.rint(x_left * n).astype(np.int64)
    ncols = np.rint((index + 1) * length * n).astype(np.int64) - c_lo
    member = np.repeat(np.arange(len(table)), ncols)
    cols = np.repeat(c_lo - (np.cumsum(ncols) - ncols), ncols) + np.arange(len(member))
    x = (cols + 0.5) / n
    lo = base[member] + slope[member] * (x - x_left[member])
    edges = np.ceil(np.stack([lo, lo + height[member]]) * n - 0.5)
    y_lo, y_hi = edges.clip(0, n).astype(np.int64)
    np.maximum(y_hi, y_lo, out=y_hi)
    return cols, y_lo, y_hi, ncols


def _segments(rs, n: int):
    """The family's cells as flat indices column * n + row, one segment per member.

    Returns the indices, each member's cell count and segment start.
    """
    cols, y_lo, y_hi, ncols = _columns(rs, n)
    widths = y_hi - y_lo
    ends = np.cumsum(widths)
    index = np.repeat(cols * n + y_lo - (ends - widths), widths) + np.arange(widths.sum())
    counts = np.add.reduceat(widths, np.cumsum(ncols) - ncols)
    return index, counts, np.cumsum(counts) - counts


class SlopeField:
    """Slope values in [-1, 1] on an n x n grid, read cell by cell through `at`.

    Generators evaluate a formula at the cells read and hold no grid.  The
    certificate is a recorded constant, exact for minima of cone functions.
    """

    def __init__(self, values, lipschitz: Optional[float] = None):
        v = np.asarray(values, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError("slope field must be square")
        self._bind(v.shape[0], v.flatten().take, lipschitz, np.arange(v.size))

    def _bind(self, n: int, at, lipschitz, probe) -> "SlopeField":
        """Read cells through `at`; its values at `probe` show any NaN or |slope| > 1."""
        if n < 1 or n & (n - 1):
            raise ValueError("grid side must be a power of two")
        if not np.all(np.abs(at(np.asarray(probe, dtype=np.int64))) <= 1.0):  # NaN fails too
            raise ValueError("slopes must lie in [-1, 1]")
        if lipschitz is not None and not lipschitz >= 0.0:  # NaN fails too
            raise ValueError("Lipschitz constant must be nonnegative")
        self.n, self._at = n, at
        self.lipschitz = None if lipschitz is None else float(lipschitz)
        return self

    def at(self, cells) -> np.ndarray:
        """The float64 slopes at flat cells col * n + row."""
        return self._at(np.asarray(cells, dtype=np.int64))

    @property
    def values(self) -> np.ndarray:
        """Read-only n x n snapshot of the field, evaluated at every cell."""
        v = self.at(np.arange(self.n * self.n)).reshape(self.n, self.n)
        v.flags.writeable = False
        return v

    @classmethod
    def constant(cls, n: int, value: float) -> "SlopeField":
        value = float(value)  # one cell shows a NaN or |value| > 1
        return cls.__new__(cls)._bind(n, lambda cells: np.full(cells.shape, value), 0.0, [0])


def _box(cols, y_lo, y_hi):
    """A member's bounding box as column and row slices, with its cells in it."""
    top, bottom = int(y_lo.min()), int(y_hi.max())
    rows = np.arange(top, bottom)
    m = (rows >= y_lo[:, None]) & (rows < y_hi[:, None])
    return slice(cols[0], cols[-1] + 1), slice(top, bottom), m


def _in_e(rs, u: SlopeField, index, counts) -> np.ndarray:
    """Which of the family's cells, as `_segments` lists them, lie in their E(R)."""
    scale, _, _, slope, height = _table(rs).T
    half = height / np.ldexp(1.0, scale.astype(np.int64))  # `Parallelogram.uncertainty`
    v = u.at(index)
    return (v >= np.repeat(slope - half, counts)) & (v <= np.repeat(slope + half, counts))


def densities(rs: Sequence[Parallelogram], u: SlopeField) -> np.ndarray:
    """|E(R)| / |R| in grid cells for each member; vacuously 1 for a cell-free R."""
    table = _table(rs)
    index, counts, starts = _segments(table, u.n)
    out = np.ones(len(counts))
    held = np.flatnonzero(counts)
    e = np.add.reduceat(_in_e(table, u, index, counts), starts[held], dtype=np.int64)
    out[held] = e / counts[held]
    return out


def cover_picks(parallelograms: Sequence[Parallelogram], u: SlopeField):
    """Iterative covering selection with the 1e-4 vertical threshold.

    Repeatedly selects a remaining parallelogram of maximal shadow length
    (ties: larger height, then input order) and removes everything whose
    cells all sit where the vertical maximal function of the selection's
    7-fold height-dilates reaches VERTICAL_THRESHOLD.  Returns the picks
    in order and each step's removed members in input order.  The density
    condition |E(R)| >= delta |R| is the caller's precondition, and is not
    measured here: `dense_parallelograms` hands back the densities its
    filter measured.  The family is read as one table; the dilates are
    columns computed from it, with no `Parallelogram` built.

    Removals are decided by column mass, with no n x n array.  The dilate
    field counts whole cells, so if a column holds one dilate cell, every
    cell of that column lies in a vertical interval of at most n cells
    that reaches it, whose average is at least 1/n.  A column without one
    has maximal function 0.  So while n * VERTICAL_THRESHOLD < 1 (checked:
    ValueError otherwise), a member is removed exactly when each column
    holding a cell of it is massed, that is, holds a cell of a selected
    dilate; a cell-free member leaves at the first step.
    """
    table = _table(parallelograms)
    n = u.n
    if not n * VERTICAL_THRESHOLD < 1.0:
        raise ValueError("column mass decides removals only while n * threshold < 1")
    if not len(table):
        return [], []
    scale, index, base, slope, height = table.T
    order = np.lexsort((-height, -scale))  # stable: ties keep input order
    cols, y_lo, y_hi, ncols = _columns(table, n)
    first = np.cumsum(ncols) - ncols
    # `Parallelogram.height_dilate(7.0)` column-wise, with its float operations;
    # a dilate keeps its member's shadow, so its columns are the member's
    dilates = [scale, index, base + 0.5 * (1.0 - 7.0) * height, slope, 7.0 * height]
    _, d_lo, d_hi, _ = _columns(np.column_stack(dilates), n)
    mass = d_hi > d_lo
    unmassed = y_hi > y_lo  # a member's cell columns that hold no dilate cell yet
    massed = np.zeros(n, dtype=bool)
    left = np.ones(len(table), dtype=bool)
    picks: List[int] = []
    removals: List[Tuple[int, ...]] = []
    for pick in order.tolist():
        if not left[pick]:
            continue
        picks.append(pick)
        span = slice(first[pick], first[pick] + ncols[pick])
        massed[cols[span][mass[span]]] = True
        unmassed &= ~massed[cols]
        removed = np.flatnonzero(left & ~np.logical_or.reduceat(unmassed, first))
        left[removed] = False
        removals.append(tuple(removed.tolist()))
    return picks, removals


def square_integral(selected: Sequence[Parallelogram], grid: int) -> float:
    """Grid integral of the squared sum of the members' indicators.

    It counts cells by runs, not one by one: each member's row range in a
    column opens at y_lo and closes at y_hi.  Sorted by (column, row), the
    running count of open ranges is the multiplicity m of every cell up to
    the next end, so m^2 times the run length, summed in int64, is the sum
    of squared cell multiplicities.  After a column's last end m is 0.
    """
    cols, y_lo, y_hi, _ = _columns(selected, grid)
    ends = np.concatenate([y_lo, y_hi]) + np.tile(cols * (grid + 1), 2)
    order = np.argsort(ends)  # at equal ends the runs between them are empty
    m = np.cumsum(np.repeat([1, -1], len(cols))[order])
    return float((m[:-1] ** 2 * np.diff(ends[order])).sum() * (1.0 / grid ** 2))


def lemma7r_check(r: Parallelogram, rp: Parallelogram):
    """Containment of 7-fold height-dilates, in exact integer arithmetic.

    Hypotheses: equal shadows, touching uncertainty intervals, nonempty
    intersection, and 7 H(R) <= H(R').  When any fails the answer is the
    string "inapplicable" rather than False; under the hypotheses the
    containment 7R inside 7R' is checked at the shadow endpoints, which
    suffices because the boundary gaps are linear in x.

    Every input (slopes times the shadow length) is a dyadic rational: all
    are integers over one power of two, each comparison is the rational one
    multiplied through by it, and nan or inf raises as `Fraction` would.
    """
    if r.shadow != rp.shadow:
        return "inapplicable"
    terms = [
        (v.as_integer_ratio(), shift)
        for q in (r, rp)
        for v, shift in ((q.base_y, 0), (q.slope, -r.shadow.scale), (q.height, 0))
    ]
    e = max(d.bit_length() + shift for (_, d), shift in terms)
    b, s, h, bp, sp, hp = (n << (e - d.bit_length() - t) for (n, d), t in terms)
    if 7 * h > hp:
        return "inapplicable"
    if abs(s - sp) > h + hp:  # uncertainty intervals disjoint
        return "inapplicable"
    # twice the gaps between the centre lines at the shadow's two ends
    g_l = 2 * (bp - b) + hp - h
    g_r = g_l + 2 * (sp - s)
    touch = h + hp
    crosses = (g_l <= 0 <= g_r) or (g_r <= 0 <= g_l)
    if not (crosses or abs(g_l) < touch or abs(g_r) < touch):
        return "inapplicable"
    slack = 7 * (hp - h)
    return abs(g_l) <= slack and abs(g_r) <= slack


def lk_maximal(
    f: GridFunction2D, parallelograms: Sequence[Parallelogram]
) -> GridFunction2D:
    """Pointwise largest average of f over a family member through the cell."""
    n = 1 << f.resolution
    out = np.zeros((n, n))
    cols, y_lo, y_hi, ncols = _columns(parallelograms, n)
    starts = np.cumsum(ncols) - ncols
    counts = np.add.reduceat(y_hi - y_lo, starts)
    spans = cols.tolist(), y_lo.tolist(), y_hi.tolist()
    for start, size, count in zip(starts.tolist(), ncols.tolist(), counts.tolist()):
        if count == 0:
            continue
        member = slice(start, start + size)
        total = 0.0
        for c, a, b in zip(*(span[member] for span in spans)):
            total += f.values[c, a:b].sum()  # per-column sums fix the rounding
        cs, ys, m = _box(cols[member], y_lo[member], y_hi[member])
        box = out[cs, ys]
        np.maximum(box, total / count, out=box, where=m)
    return GridFunction2D(f.resolution, out)

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


def _columns(rs: Sequence[Parallelogram], n: int):
    """Every member's shadow columns, member after member, in one array pass.

    Returns the column indices, the half-open row ranges [y_lo, y_hi) of
    the cell centers inside the member, and each member's column count.
    """
    table = np.reshape(
        [(r.shadow.scale, r.shadow.index, r.base_y, r.slope, r.height) for r in rs],
        (-1, 5),
    )
    if not np.isfinite(table[:, 2:]).all():
        raise ValueError("base, slope and height must be finite")
    scale, index, base, slope, height = table.T
    length = np.ldexp(1.0, scale.astype(np.int64))
    if np.any(length * n < 1.0):
        raise ValueError("shadow finer than the grid")
    x_left = index * length
    c_lo = np.rint(x_left * n).astype(np.int64)
    ncols = np.rint((index + 1) * length * n).astype(np.int64) - c_lo
    member = np.repeat(np.arange(len(rs)), ncols)
    cols = np.repeat(c_lo - (np.cumsum(ncols) - ncols), ncols) + np.arange(len(member))
    x = (cols + 0.5) / n
    lo = base[member] + slope[member] * (x - x_left[member])
    edges = np.ceil(np.stack([lo, lo + height[member]]) * n - 0.5)
    y_lo, y_hi = edges.clip(0, n).astype(np.int64)
    np.maximum(y_hi, y_lo, out=y_hi)
    return cols, y_lo, y_hi, ncols


def _segments(rs: Sequence[Parallelogram], n: int, columns=None):
    """The family's cells as flat indices column * n + row, one segment per member.

    `columns` is the family's `_columns(rs, n)` when the caller has it.
    Returns the indices, each member's cell count and segment start.
    """
    cols, y_lo, y_hi, ncols = _columns(rs, n) if columns is None else columns
    widths = y_hi - y_lo
    ends = np.cumsum(widths)
    index = np.repeat(cols * n + y_lo - (ends - widths), widths) + np.arange(widths.sum())
    counts = np.add.reduceat(widths, np.cumsum(ncols) - ncols)
    return index, counts, np.cumsum(counts) - counts


class SlopeField:
    """Grid of slope values in [-1, 1] with an optional Lipschitz certificate.

    The certificate is a recorded constant, not recomputed; generators
    that construct fields as minima of cone functions certify it exactly.
    """

    def __init__(self, values, lipschitz: Optional[float] = None):
        v = np.asarray(values, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError("slope field must be square")
        n = v.shape[0]
        if n & (n - 1):
            raise ValueError("grid side must be a power of two")
        if not np.all(np.abs(v) <= 1.0):  # NaN fails too
            raise ValueError("slopes must lie in [-1, 1]")
        if lipschitz is not None and not lipschitz >= 0.0:  # NaN fails too
            raise ValueError("Lipschitz constant must be nonnegative")
        self.values = v
        self.n = n
        self.lipschitz = None if lipschitz is None else float(lipschitz)

    @classmethod
    def constant(cls, n: int, value: float) -> "SlopeField":
        return cls(np.full((n, n), float(value)), lipschitz=0.0)


def _box(cols, y_lo, y_hi):
    """A member's bounding box as column and row slices, with its cells in it."""
    top, bottom = int(y_lo.min()), int(y_hi.max())
    rows = np.arange(top, bottom)
    m = (rows >= y_lo[:, None]) & (rows < y_hi[:, None])
    return slice(cols[0], cols[-1] + 1), slice(top, bottom), m


def _in_e(rs: Sequence[Parallelogram], u: SlopeField, index, counts) -> np.ndarray:
    """Which of the family's cells, as `_segments` lists them, lie in their E(R)."""
    bounds = np.reshape([r.uncertainty for r in rs], (-1, 2))
    lo, hi = np.repeat(bounds, counts, axis=0).T
    v = u.values.ravel()[index]
    return (v >= lo) & (v <= hi)


def densities(rs: Sequence[Parallelogram], u: SlopeField, columns=None) -> np.ndarray:
    """|E(R)| / |R| in grid cells for each member; vacuously 1 for a cell-free R.

    `columns` is the family's `_columns(rs, u.n)` when the caller has it.
    """
    index, counts, starts = _segments(rs, u.n, columns)
    out = np.ones(len(rs))
    held = np.flatnonzero(counts)
    e = np.add.reduceat(_in_e(rs, u, index, counts), starts[held], dtype=np.int64)
    out[held] = e / counts[held]
    return out


def cover_picks(
    parallelograms: Sequence[Parallelogram],
    u: SlopeField,
    delta: Optional[float] = None,
):
    """Iterative covering selection with the 1e-4 vertical threshold.

    Repeatedly selects a remaining parallelogram of maximal shadow length
    (ties: larger height, then input order) and removes everything whose
    cells all sit where the vertical maximal function of the selection's
    7-fold height-dilates reaches VERTICAL_THRESHOLD.  Returns the picks
    in order, each step's removed members in input order, and the inputs
    failing the density condition |E(R)| >= delta |R| when delta is given;
    those are still processed: the precondition is the caller's.

    Removals are decided by column mass, with no n x n array.  The dilate
    field counts whole cells, so if a column holds one dilate cell, every
    cell of that column lies in a vertical interval of at most n cells
    that reaches it, whose average is at least 1/n.  A column without one
    has maximal function 0.  So while n * VERTICAL_THRESHOLD < 1 (checked:
    ValueError otherwise), a member is removed exactly when each column
    holding a cell of it is massed, that is, holds a cell of a selected
    dilate; a cell-free member leaves at the first step.
    """
    if delta is not None and not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    rs = parallelograms
    n = u.n
    if not n * VERTICAL_THRESHOLD < 1.0:
        raise ValueError("column mass decides removals only while n * threshold < 1")
    if not rs:
        return [], [], ()
    columns = _columns(rs, n)
    failures = ()
    if delta is not None:  # cell-free members pass
        failures = tuple(np.flatnonzero(densities(rs, u, columns) < delta).tolist())
    order = sorted(range(len(rs)), key=lambda i: (-rs[i].length, -rs[i].height, i))
    cols, y_lo, y_hi, ncols = columns
    first = np.cumsum(ncols) - ncols
    # a dilate keeps its member's shadow, so its columns are the member's
    _, d_lo, d_hi, _ = _columns([r.height_dilate(7.0) for r in rs], n)
    mass = d_hi > d_lo
    unmassed = y_hi > y_lo  # a member's cell columns that hold no dilate cell yet
    massed = np.zeros(n, dtype=bool)
    left = np.ones(len(rs), dtype=bool)
    picks: List[int] = []
    removals: List[Tuple[int, ...]] = []
    for pick in order:
        if not left[pick]:
            continue
        picks.append(pick)
        span = slice(first[pick], first[pick] + ncols[pick])
        massed[cols[span][mass[span]]] = True
        unmassed &= ~massed[cols]
        removed = np.flatnonzero(left & ~np.logical_or.reduceat(unmassed, first))
        left[removed] = False
        removals.append(tuple(removed.tolist()))
    return picks, removals, failures


def square_integral(selected: Sequence[Parallelogram], grid: int) -> float:
    """Grid integral of the squared sum of the members' indicators."""
    field = np.bincount(_segments(selected, grid)[0], minlength=grid * grid)
    return float((field ** 2).sum() * (1.0 / grid ** 2))


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

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
DENSITY_SLOPE_BOUND = 1.0 / 30.0  # L(R) * Lipschitz constant cap


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

    def y_bounds(self, x: float) -> Tuple[float, float]:
        lo = self.base_y + self.slope * (x - self.x_left)
        return (lo, lo + self.height)

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
    scale, index, base, slope, height = np.reshape(
        [(r.shadow.scale, r.shadow.index, r.base_y, r.slope, r.height) for r in rs],
        (-1, 5),
    ).T
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


def _segments(rs: Sequence[Parallelogram], n: int):
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
        if np.any(np.abs(v) > 1.0):
            raise ValueError("slopes must lie in [-1, 1]")
        self.values = v
        self.n = n
        self.lipschitz = None if lipschitz is None else float(lipschitz)

    @classmethod
    def constant(cls, n: int, value: float) -> "SlopeField":
        return cls(np.full((n, n), float(value)), lipschitz=0.0)

    def measured_lipschitz(self) -> float:
        """Largest slope between adjacent cell centers; a lower bound."""
        dx = np.abs(np.diff(self.values, axis=0)).max(initial=0.0)
        dy = np.abs(np.diff(self.values, axis=1)).max(initial=0.0)
        return max(dx, dy) * self.n

    def lipschitz_hypothesis(self, r: Parallelogram) -> bool:
        """Whether L(R) times the certified constant stays under 1/30."""
        if self.lipschitz is None:
            raise ValueError("no Lipschitz certificate recorded")
        return r.length * self.lipschitz <= DENSITY_SLOPE_BOUND


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


def _densities(rs: Sequence[Parallelogram], u: SlopeField, index, counts, starts):
    out = np.ones(len(rs))
    held = np.flatnonzero(counts)
    e = np.add.reduceat(_in_e(rs, u, index, counts), starts[held], dtype=np.int64)
    out[held] = e / counts[held]
    return out


def densities(rs: Sequence[Parallelogram], u: SlopeField) -> np.ndarray:
    """|E(R)| / |R| in grid cells for each member; vacuously 1 for a cell-free R."""
    return _densities(rs, u, *_segments(rs, u.n))


def _vertical_margin(values: np.ndarray, threshold: float) -> np.ndarray:
    """Best sum of values minus threshold over vertical intervals through each cell.

    With g = values - threshold and S its running sum along a column
    (S[0] = 0), the best interval ending at cell y sums to
    S[y+1] - min(S[i], i <= y) and the best one starting at y to
    max(S[k], k > y) - S[y]; the best through y is their sum minus g[y].
    Columns are independent.  The vertical maximal function reaches the
    threshold exactly where the margin is nonnegative.
    """
    g = np.asarray(values, dtype=np.float64) - threshold
    s = np.zeros((g.shape[0], g.shape[1] + 1))
    np.cumsum(g, axis=1, out=s[:, 1:])
    fwd = s[:, 1:] - np.minimum.accumulate(s[:, :-1], axis=1)
    bwd = np.maximum.accumulate(s[:, :0:-1], axis=1)[:, ::-1] - s[:, :-1]
    return fwd + bwd - g


@dataclass(frozen=True)
class CoverStep:
    selected: int
    removed: Tuple[int, ...]
    witnesses: Tuple[float, ...]


@dataclass(frozen=True)
class CoverTrace:
    steps: Tuple[CoverStep, ...]
    density_failures: Tuple[int, ...]


def greedy_cover(
    parallelograms: Sequence[Parallelogram],
    u: SlopeField,
    delta: Optional[float] = None,
):
    """Iterative covering selection with the 1e-4 vertical threshold.

    Repeatedly selects a remaining parallelogram of maximal shadow length
    (ties: larger height, then input order) and removes everything whose
    cells all sit where the vertical maximal function of the selection's
    7-fold height-dilates reaches 1e-4.  The margin field is kept across
    steps: a pick changes the dilate field only on its shadow's columns,
    and columns are independent, so only those are rescanned and only the
    members left over them re-read their minimum margin.  The trace
    records, per removed input, a certified lower bound on that maximal
    function over its cells.  When delta is given, inputs failing the
    density condition |E(R)| >= delta |R| are reported in the trace and
    still processed: the precondition is the caller's, not repaired here.
    """
    if delta is not None and not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    rs = parallelograms
    n = u.n
    if not rs:
        return [], CoverTrace((), ())
    segments = index, counts, starts = _segments(rs, n)
    failures = ()
    if delta is not None:  # cell-free members pass
        failures = np.flatnonzero(_densities(rs, u, *segments) < delta).tolist()
    order = sorted(range(len(rs)), key=lambda i: (-rs[i].length, -rs[i].height, i))
    x_left, x_right = np.array([(r.x_left, r.x_right) for r in rs]).T
    *dilates, ncols = _columns([r.height_dilate(7.0) for r in rs], n)
    first = np.cumsum(ncols) - ncols
    # a member's margin is best's minimum over its cells: that of an empty
    # column before any pick, +inf without cells (any step removes it)
    held = counts > 0
    left = np.ones(len(rs), dtype=bool)
    margins = np.where(held, -VERTICAL_THRESHOLD, np.inf)
    field = np.zeros((n, n))
    best = np.full((n, n), -VERTICAL_THRESHOLD)  # margin of an empty column
    selected: List[int] = []
    steps: List[CoverStep] = []
    for pick in order:
        if not left[pick]:
            continue
        selected.append(pick)
        r = rs[pick]
        span = slice(first[pick], first[pick] + ncols[pick])
        cs, ys, m = _box(*(a[span] for a in dilates))
        field[cs, ys] += m
        best[cs] = _vertical_margin(field[cs], VERTICAL_THRESHOLD)
        # best moved on the pick's columns alone: re-gather the members
        # left there, one segment each
        near = np.flatnonzero(left & held & (x_left < r.x_right) & (x_right > r.x_left))
        sizes = counts[near]
        offsets = np.cumsum(sizes) - sizes
        at = np.repeat(starts[near] - offsets, sizes) + np.arange(sizes.sum())
        margins[near] = np.minimum.reduceat(best.ravel()[index[at]], offsets)
        removed = np.flatnonzero(left & (margins >= 0.0))
        left[removed] = False
        witnesses = VERTICAL_THRESHOLD + margins[removed] / n
        steps.append(CoverStep(pick, tuple(removed.tolist()), tuple(witnesses)))
    chosen = [rs[i] for i in selected]
    return chosen, CoverTrace(tuple(steps), tuple(failures))


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

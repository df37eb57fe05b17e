"""Seeded random ensembles shared by the command line harness and the checks.

Every generator draws from a numpy Generator (PCG64 behind
default_rng), so an ensemble is reproducible from its 64-bit seed alone;
nothing here keeps hidden state.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from .covering import Parallelogram, ParallelogramRows, SlopeField, densities
from .gridfn import GridFunction2D
from .selection import Tree
from .tiles import Bitile, counts, down_sums, support, up_sums
from .walsh import DyadicInterval

ENSEMBLE_HEIGHTS = (0.01, 0.2)  # height range of parallelogram_ensemble
DENSE_HEIGHTS = (0.01, 0.1)  # height range of dense_parallelograms
DENSE_MAX_TRIES = 2000  # candidates dense_parallelograms draws at most


def uniform_cells_2d(rng, resolution: int) -> GridFunction2D:
    n = 1 << resolution
    return GridFunction2D(resolution, rng.uniform(-1.0, 1.0, (n, n)))


def indicator_with_measure(rng, resolution: int, measure: float) -> GridFunction2D:
    """Indicator of a uniformly random cell union of the given measure.

    The cell count is the rounded measure, at least one cell whenever the
    requested measure is positive; the exact measure is the integral of
    the result.
    """
    if not 0.0 <= measure <= 1.0:
        raise ValueError("measure must lie in [0, 1]")
    n = 1 << resolution
    total = n * n
    count = int(round(measure * total))
    if measure > 0.0:
        count = max(count, 1)
    flat = np.zeros(total)
    flat[rng.choice(total, size=count, replace=False)] = 1.0
    return GridFunction2D(resolution, flat.reshape(n, n))


def signed_indicator(rng, e: GridFunction2D, scale: float = 1.0) -> GridFunction2D:
    """Random signs on the support, scaled; magnitude stays below 1_E."""
    signs = rng.choice([-1.0, 1.0], size=e.values.shape)
    return GridFunction2D(e.resolution, signs * e.values * scale)


def random_bitile(rng, resolution: int) -> Bitile:
    k = int(rng.integers(-resolution + 1, 1))
    blocks = 1 << -k
    return Bitile(
        k,
        int(rng.integers(0, blocks)),
        int(rng.integers(0, blocks)),
        int(rng.integers(0, 1 << (resolution + k - 1))),
    )


def _down_mask(tops, resolution: int) -> np.ndarray:
    """Mask over the positions of the union of the tops' down-sets."""
    return up_sums(counts(tops, resolution)) > 0


def random_convex_collection(rng, resolution: int, tops: int = 2):
    """Union of down-sets of random bitiles, sorted coarsest first."""
    picked = [random_bitile(rng, resolution) for _ in range(tops)]
    return support(_down_mask(picked, resolution))


def random_tree(rng, resolution: int, sprouts: int = 3) -> Tree:
    """Random convex tree: the order interval between seeds and their top.

    The members are the bitiles of down(top), coarsest first, that lie
    above at least one seed.
    """
    top = random_bitile(rng, resolution)
    mask = _down_mask([top], resolution)
    below = np.flatnonzero(mask)
    picks = below[rng.integers(0, len(below), size=max(sprouts, 1))]
    above = down_sums(np.bincount(picks, minlength=len(mask)))
    return Tree(top, support(mask & (above > 0)))


def measure_triple(
    rng, resolution: int, exponents: Sequence[int]
) -> Tuple[GridFunction2D, GridFunction2D, GridFunction2D]:
    """Indicator triple with measures 2^-j for the given j's."""
    if len(exponents) != 3:
        raise ValueError("need three measure exponents")
    return tuple(
        indicator_with_measure(rng, resolution, 2.0 ** -j) for j in exponents
    )


def _centres(cells: np.ndarray, n: int):
    """Centres (x, y) of flat cells col * n + row; `_bind` has checked that n = 2^s."""
    s = n.bit_length() - 1
    return ((cells >> s) + 0.5) / n, ((cells & (n - 1)) + 0.5) / n


def linear_slope_field(n: int, gx: float, gy: float, offset: float) -> SlopeField:
    """Clipped affine slope field; the gradient length is its certificate.

    A NaN on some cells only needs gx * x + gy * y to overflow there, both
    terms of one sign, so also at the last cell (x, y largest): the probe.
    """

    def at(cells):
        x, y = _centres(cells, n)
        return np.clip(gx * x + gy * y + offset, -1.0, 1.0)

    return SlopeField.__new__(SlopeField)._bind(n, at, float(np.hypot(gx, gy)), [n * n - 1])


def cone_slope_field(rng, n: int, lipschitz: float, anchors: int = 6) -> SlopeField:
    """Minimum of random cones: the certificate is exact by construction.

    Each cone value + lipschitz * distance is Lipschitz with exactly that
    constant, and minima and clipping never increase it.

    At the cells read, cones are taken from the lowest base up, stopping
    at the first base above the running maximum over those cells (no cell,
    no cone).  A computed cone value fl(fl(hypot * lipschitz) + base) is
    at least its base (hypot >= 0, rounding is monotone), the maximum only
    falls and later bases are no lower, so a skipped cone is above every
    evaluated value; a minimum of floats does not depend on its order.
    Each cell reads the all-anchor minimum bit for bit, and the generator
    draws the same.  NaN is 0 * inf, at an anchor's cell when lipschitz
    is inf (no cone is skipped then): those cells are the probe.
    """
    if not lipschitz >= 0.0:  # NaN fails too
        raise ValueError("Lipschitz constant must be nonnegative")
    ax = rng.random(anchors)
    ay = rng.random(anchors)
    base = rng.uniform(-1.0, 1.0, anchors)

    def at(cells):
        x, y = _centres(cells, n)
        v = np.full(x.shape, np.inf)
        for i in np.argsort(base, kind="stable"):
            if base[i] > v.max(initial=-np.inf):
                break
            np.minimum(v, np.hypot(x - ax[i], y - ay[i]) * lipschitz + base[i], out=v)
        return np.clip(v, -1.0, 1.0)

    probe = (ax * n).astype(np.int64) * n + (ay * n).astype(np.int64)
    return SlopeField.__new__(SlopeField)._bind(n, at, float(lipschitz), probe)


def parallelogram_ensemble(
    rng,
    grid_log: int,
    count: int,
    scale_range: Tuple[int, int] = (-5, -1),
) -> ParallelogramRows:
    """Random parallelograms with dyadic shadows inside the unit square."""
    rows = []
    lo, hi = scale_range
    if lo < -grid_log:
        raise ValueError("shadow scale finer than the grid")
    for _ in range(count):
        scale = int(rng.integers(lo, hi + 1))
        index = int(rng.integers(0, 1 << -scale))
        height = float(rng.uniform(*ENSEMBLE_HEIGHTS))
        slope = float(rng.uniform(-1.0, 1.0))
        reach = abs(slope) * 2.0 ** scale
        base = float(rng.uniform(0.0, max(1.0 - height - reach, 0.01)))
        rows.append((scale, index, base, slope, height))
    return ParallelogramRows(np.array(rows, dtype=np.float64))


def dense_parallelograms(
    rng,
    u: SlopeField,
    delta: float,
    count: int,
    scale_range: Tuple[int, int] = (-5, -3),
) -> ParallelogramRows:
    """Parallelograms aligned with the slope field, then density-filtered.

    Each candidate centers its slope on the field value at a random cell
    of its body, which makes the density condition |E(R)| >= delta |R|
    achievable; candidates failing it are discarded.  Candidates are drawn
    in rounds no larger than the remaining need; a round reads its slopes
    in one `at` call and is tested at once, so the draws and the picks are
    those of one candidate at a time.  A round is one table, and the
    family keeps its members' densities as the filter measured them, once.
    """
    n = u.n
    kept, measured = [np.empty((0, 5))], [np.empty(0)]
    found = tries = 0
    while found < count and tries < DENSE_MAX_TRIES:
        draws = []  # no draw depends on a slope
        for _ in range(min(count - found, DENSE_MAX_TRIES - tries)):
            scale = int(rng.integers(scale_range[0], scale_range[1] + 1))
            index = int(rng.integers(0, 1 << -scale))
            height = float(rng.uniform(*DENSE_HEIGHTS))
            x_left = index * 2.0 ** scale
            cx = int(min(max((x_left + 0.5 * 2.0 ** scale) * n, 0), n - 1))
            draws.append((scale, index, height, x_left, cx, int(rng.integers(0, n))))
        tries += len(draws)
        scale, index, height, x_left, cx, cy = np.array(draws, dtype=np.float64).T
        slope = u.at((cx * n + cy).astype(np.int64))
        base = (cy + 0.5) / n - 0.5 * height - slope * ((cx + 0.5) / n - x_left)
        batch = ParallelogramRows(np.column_stack([scale, index, base, slope, height]))
        d = densities(batch, u)
        keep = d >= delta
        kept.append(batch.table[keep])
        measured.append(d[keep])
        found += int(np.count_nonzero(keep))
    return ParallelogramRows(np.concatenate(kept), np.concatenate(measured))


def lemma7r_pair(rng) -> Tuple[Parallelogram, Parallelogram]:
    """Random pair satisfying every hypothesis of the seven-fold inclusion.

    Shared shadow, 7H <= H', uncertainty intervals meeting (slope gap at
    most (H + H')/L), and overlapping bodies (the center gap at a random
    abscissa stays strictly inside (H + H')/2).
    """
    scale = int(rng.integers(-3, 1))
    shadow = DyadicInterval(scale, int(rng.integers(0, 1 << -scale)))
    length = shadow.length
    h = float(rng.uniform(0.001, 0.05))
    hp = float(rng.uniform(7 * h, 10 * h))
    s = float(rng.uniform(-0.8, 0.8))
    sp = s + float(rng.uniform(-1, 1)) * (h + hp) / length
    sp = float(np.clip(sp, -1.0, 1.0))
    base = float(rng.uniform(0.0, 0.8))
    r = Parallelogram(shadow, base, s, h)
    x_star = r.x_left + float(rng.random()) * length
    gap = float(rng.uniform(-0.999, 0.999)) * (h + hp) / 2
    base_p = (
        base
        + s * (x_star - r.x_left)
        + h / 2
        + gap
        - hp / 2
        - sp * (x_star - r.x_left)
    )
    return r, Parallelogram(shadow, base_p, sp, hp)

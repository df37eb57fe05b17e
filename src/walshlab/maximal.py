"""Dyadic maximal operators on the grid.

All suprema run over dyadic cells through the point (intervals in 1D,
squares in 2D, intervals along the second argument for the directional
variant), down to single grid cells.  With dyadic cells the weak (1,1)
constant is one, which the tests exercise.
"""

from __future__ import annotations

import numpy as np

from .gridfn import GridFunction2D


def _check_exponent(p: float):
    if p < 1:
        raise ValueError("maximal exponent must be at least 1")


def dyadic_maximal_2d(f: GridFunction2D, p: float = 1.0) -> GridFunction2D:
    """sup over dyadic squares through the point of (avg |f|^p)^(1/p)."""
    _check_exponent(p)
    v = np.abs(f.values) ** p
    best = v.copy()
    avg = v
    width = 1
    while avg.shape[0] > 1:
        n = avg.shape[0] // 2
        avg = avg.reshape(n, 2, n, 2).mean(axis=(1, 3))
        width *= 2
        np.maximum(best, np.kron(avg, np.ones((width, width))), out=best)
    return GridFunction2D(f.resolution, best ** (1.0 / p))


def directional_maximal(f: GridFunction2D, p: float = 1.0) -> GridFunction2D:
    """1D dyadic maximal over the second argument, the first held fixed."""
    _check_exponent(p)
    v = np.abs(f.values) ** p
    best = v.copy()
    avg = v
    width = 1
    while avg.shape[1] > 1:
        avg = avg.reshape(avg.shape[0], -1, 2).mean(axis=2)
        width *= 2
        np.maximum(best, np.repeat(avg, width, axis=1), out=best)
    return GridFunction2D(f.resolution, best ** (1.0 / p))


def level_set(f, threshold: float):
    """Indicator of the strict superlevel set {f > threshold}."""
    return type(f)(f.resolution, (f.values > threshold).astype(np.float64))

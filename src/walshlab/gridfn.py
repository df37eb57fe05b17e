"""Cell-constant functions on the dyadic grid of resolution K.

A 1D function is a vector of 2^K values, one per cell [i 2^-K, (i+1) 2^-K)
of [0, 1); a 2D function is the analogous 2^K x 2^K array, first index =
first argument.  Integrals weigh cells by 2^-K per axis, so all norms and
inner products match the continuum ones for cell-constant integrands.
"""

from __future__ import annotations

import numpy as np

from .walsh import DyadicInterval


def _check_resolution(resolution: int):
    if not isinstance(resolution, (int, np.integer)) or resolution < 0:
        raise ValueError("resolution must be a nonnegative integer")


def _interval_slice(interval: DyadicInterval, resolution: int) -> slice:
    if interval.scale < -resolution:
        raise ValueError("interval below resolution")
    if interval.scale > 0 or not DyadicInterval(0, 0).contains(interval):
        raise ValueError("interval not contained in [0, 1)")
    width = 1 << (resolution + interval.scale)
    return slice(interval.index * width, (interval.index + 1) * width)


class _GridFunction:
    """The body of the 1D and 2D grid functions; `ndim` counts the variables."""

    __slots__ = ("resolution", "values")
    ndim: int

    def __init__(self, resolution: int, values):
        _check_resolution(resolution)
        v = np.asarray(values, dtype=np.float64)
        if v.shape != (1 << resolution,) * self.ndim:
            raise ValueError(
                "values length must be 2^resolution"
                if self.ndim == 1
                else "values shape must be (2^resolution, 2^resolution)"
            )
        self.resolution = int(resolution)
        self.values = v

    @classmethod
    def zeros(cls, resolution: int):
        return cls(resolution, np.zeros((1 << resolution,) * cls.ndim))

    def _compat(self, other):
        if type(other) is not type(self):
            raise TypeError(
                f"cannot combine {type(self).__name__} with {type(other).__name__}"
            )
        if self.resolution != other.resolution:
            raise ValueError("resolution mismatch")

    def _cell(self) -> float:
        """Measure of one grid cell, 2^(-ndim K)."""
        return 2.0 ** (-self.ndim * self.resolution)

    def integral(self) -> float:
        return float(self.values.sum()) * self._cell()

    def norm(self, p: float = 2.0) -> float:
        if p == np.inf:
            return float(np.abs(self.values).max(initial=0.0))
        if p < 1:
            raise ValueError("norm exponent must be >= 1 or inf")
        return (float((np.abs(self.values) ** p).sum()) * self._cell()) ** (1.0 / p)

    def inner(self, other) -> float:
        self._compat(other)
        return float(np.vdot(self.values, other.values)) * self._cell()

    def restrict(self, *intervals: DyadicInterval):
        """Zero outside the dyadic box of the intervals, one per variable."""
        if len(intervals) != self.ndim:
            raise TypeError(f"restrict takes {self.ndim} interval(s)")
        box = tuple(_interval_slice(i, self.resolution) for i in intervals)
        v = np.zeros_like(self.values)
        v[box] = self.values[box]
        return type(self)(self.resolution, v)

    def __add__(self, other):
        self._compat(other)
        return type(self)(self.resolution, self.values + other.values)

    def __sub__(self, other):
        self._compat(other)
        return type(self)(self.resolution, self.values - other.values)

    def __mul__(self, other):
        if isinstance(other, _GridFunction):
            self._compat(other)
            return type(self)(self.resolution, self.values * other.values)
        return type(self)(self.resolution, self.values * float(other))

    __rmul__ = __mul__

    def __neg__(self):
        return type(self)(self.resolution, -self.values)

    def __repr__(self):
        return f"{type(self).__name__}(K={self.resolution})"


class GridFunction1D(_GridFunction):
    __slots__ = ()
    ndim = 1

    @classmethod
    def indicator(cls, interval: DyadicInterval, resolution: int) -> "GridFunction1D":
        return cls(resolution, np.ones(1 << resolution)).restrict(interval)


class GridFunction2D(_GridFunction):
    __slots__ = ()
    ndim = 2

    @classmethod
    def indicator_box(
        cls, first: DyadicInterval, second: DyadicInterval, resolution: int
    ) -> "GridFunction2D":
        n = 1 << resolution
        return cls(resolution, np.ones((n, n))).restrict(first, second)

    def transpose(self) -> "GridFunction2D":
        return GridFunction2D(self.resolution, self.values.T.copy())

"""Haar functions, Walsh characters, wave packets, and their projections.

Grid frequencies are integers N in [0, 2^K); the character with frequency
N has cell values (-1)^popcount(bitrev_K(N) & i).  A wave packet on a
time interval I carries the character of the left endpoint of its
frequency interval, scaled |I|^(-1/2); packets of area one over a fixed
time interval are an orthonormal family, which is what the fast transform
diagonalizes blockwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import bit_reversal, walsh_blocks
from .gridfn import GridFunction1D, _interval_slice
from .walsh import DyadicInterval


def haar(interval: DyadicInterval, resolution: int) -> GridFunction1D:
    """L-infinity normalized Haar function: +1 left half, -1 right half."""
    if interval.scale - 1 < -resolution:
        raise ValueError("interval below resolution")
    f = GridFunction1D.zeros(resolution)
    f.values[_interval_slice(interval.half(1), resolution)] = 1.0
    f.values[_interval_slice(interval.half(-1), resolution)] = -1.0
    return f


def walsh_rows(frequencies, resolution: int) -> np.ndarray:
    """The characters of the frequencies (each in [0, 2^K)) as rows of cell values."""
    nu = np.asarray(frequencies, dtype=np.int64)
    if ((nu < 0) | (nu >= 1 << resolution)).any():
        raise ValueError("frequency beyond resolution")
    idx = np.arange(1 << resolution, dtype=np.int64)
    bits = np.bitwise_count(bit_reversal(resolution)[nu][..., None] & idx) & 1
    return 1.0 - 2.0 * bits


def walsh_fn(frequency: int, resolution: int) -> GridFunction1D:
    """Character with integer frequency index in [0, 2^K)."""
    return GridFunction1D(resolution, walsh_rows(frequency, resolution))


@dataclass(frozen=True)
class WavePacketSpec:
    """Time-frequency rectangle I x omega, both factors dyadic."""

    time: DyadicInterval
    freq: DyadicInterval

    @property
    def area_log2(self) -> int:
        return self.time.scale + self.freq.scale

    @property
    def area(self) -> float:
        return 2.0 ** self.area_log2


def _check_time(time: DyadicInterval, resolution: int):
    if time.scale < -resolution:
        raise ValueError("interval below resolution")
    if not DyadicInterval(0, 0).contains(time):
        raise ValueError("time interval not contained in [0, 1)")


def _check_freq(freq: DyadicInterval, resolution: int):
    if freq.scale < 0:
        raise ValueError("frequency interval below unit scale")
    if (freq.index + 1) << freq.scale > 1 << resolution:
        raise ValueError("frequency beyond resolution")


def wave_packet(spec: WavePacketSpec, resolution: int) -> GridFunction1D:
    """|I|^(-1/2) 1_I times the character of the left frequency endpoint."""
    _check_time(spec.time, resolution)
    _check_freq(spec.freq, resolution)
    phase = walsh_fn(spec.freq.index << spec.freq.scale, resolution)
    out = GridFunction1D.zeros(resolution)
    sl = _interval_slice(spec.time, resolution)
    out.values[sl] = phase.values[sl] * 2.0 ** (-spec.time.scale / 2.0)
    return out


# -- fast transform ----------------------------------------------------------
#
# Analysis maps cell values to the 2^K coefficients <f, w_N>; synthesis is
# the unscaled inverse.  Applying analysis twice returns 2^-K times the
# input (the permuted Hadamard matrix squares to 2^K times the identity).


def coefficient_rows(values: np.ndarray, resolution: int, axis: int = -1) -> np.ndarray:
    """Batched analysis of each block of 2^K entries along `axis`."""
    out = walsh_blocks(values, resolution, axis)
    out *= 2.0 ** (-resolution)
    return out


def synthesis_rows(coeffs: np.ndarray, resolution: int) -> np.ndarray:
    """Batched synthesis of each block of 2^K coefficients along the last axis."""
    return walsh_blocks(coeffs, resolution)


def fwht(f: GridFunction1D) -> GridFunction1D:
    """Coefficient sequence N -> <f, w_N> as a grid function."""
    return GridFunction1D(
        f.resolution, coefficient_rows(f.values[None, :], f.resolution)[0]
    )


def fwht_synthesis(coeffs: GridFunction1D) -> GridFunction1D:
    return GridFunction1D(
        coeffs.resolution, synthesis_rows(coeffs.values[None, :], coeffs.resolution)[0]
    )


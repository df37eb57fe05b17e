"""Exact arithmetic in the dyadic field of finite binary expansions.

Numbers are nonnegative reals of the form sum_k a_k 2^(-k) with finitely
many bits.  Addition is XOR of aligned expansions (every element is its
own inverse), multiplication is carry-less polynomial multiplication over
GF(2) with bit positions adding.  Dyadic intervals [m 2^k, (m+1) 2^k) are
cosets of the subgroups [0, 2^k), which is what makes the combinatorics
of this package work.

Values are stored exactly as (mantissa, shift) with value
mantissa * 2^(-shift), mantissa odd unless zero.  Width is capped at 64
fractional and 16 integer bits; products that would exceed the cap raise
OverflowError instead of silently truncating.
"""

from __future__ import annotations

from dataclasses import dataclass

MAX_FRACTIONAL_BITS = 64
MAX_INTEGER_BITS = 16


def _clmul(x: int, y: int) -> int:
    """Carry-less product of two nonnegative ints (GF(2)[t] multiply)."""
    acc = 0
    while y:
        if y & 1:
            acc ^= x
        x <<= 1
        y >>= 1
    return acc


@dataclass(frozen=True)
class WalshNumber:
    """An element of the field, immutable and canonical.

    value = mantissa * 2^(-shift); mantissa is odd unless the value is 0
    (then mantissa = shift = 0).  shift may be negative for even integers.
    """

    mantissa: int
    shift: int = 0

    def __post_init__(self):
        mantissa, shift = self.mantissa, self.shift
        if mantissa < 0:
            raise ValueError("walsh numbers are nonnegative")
        if mantissa == 0:
            shift = 0
        else:
            while mantissa & 1 == 0:
                mantissa >>= 1
                shift -= 1
        if shift > MAX_FRACTIONAL_BITS:
            raise OverflowError("walsh number overflow: fractional width > 64 bits")
        if mantissa.bit_length() - shift > MAX_INTEGER_BITS:
            raise OverflowError("walsh number overflow: integer width > 16 bits")
        object.__setattr__(self, "mantissa", mantissa)
        object.__setattr__(self, "shift", shift)

    @classmethod
    def from_float(cls, x: float) -> "WalshNumber":
        num, den = float(x).as_integer_ratio()
        # den is a power of two for every finite float
        return cls(num, den.bit_length() - 1)

    @property
    def lo(self) -> int:
        """Smallest k with a nonzero coefficient of 2^(-k) (leading bit)."""
        if not self.mantissa:
            raise ValueError("zero has no bit bounds")
        return self.shift - self.mantissa.bit_length() + 1

    def is_zero(self) -> bool:
        return self.mantissa == 0

    def magnitude(self) -> float:
        """Value of the leading bit, 2^(-lo); 0 for the zero element."""
        return 0.0 if self.mantissa == 0 else 2.0 ** (-self.lo)

    def __xor__(self, other: "WalshNumber") -> "WalshNumber":
        return walsh_add(self, other)

    __add__ = __xor__

    def __mul__(self, other: "WalshNumber") -> "WalshNumber":
        return walsh_mul(self, other)

    def __repr__(self):
        return f"WalshNumber({self.mantissa}, {self.shift})"


ZERO = WalshNumber(0)
ONE = WalshNumber(1)


def walsh_add(a: WalshNumber, b: WalshNumber) -> WalshNumber:
    """Bitwise XOR of the two expansions (the field addition)."""
    s = max(a.shift, b.shift)
    m = (a.mantissa << (s - a.shift)) ^ (b.mantissa << (s - b.shift))
    return WalshNumber(m, s)


def walsh_mul(a: WalshNumber, b: WalshNumber) -> WalshNumber:
    """Carry-less product; exact, may raise OverflowError at the width cap."""
    return WalshNumber(_clmul(a.mantissa, b.mantissa), a.shift + b.shift)


def character(x: WalshNumber) -> int:
    """Sign character: -1 if the coefficient of 2^(-1) in x is set, else +1."""
    if x.shift < 1:
        return 1  # x is an integer, the 2^(-1) bit is absent
    return -1 if (x.mantissa >> (x.shift - 1)) & 1 else 1


def grid_frequency(x: WalshNumber, resolution: int) -> int:
    """Index in [0, 2^K) of the K fractional bits of x at 2^(-1)..2^(-K).

    On the resolution-K grid the character pattern of e(x (*) .) depends on
    x only through this index: it equals the Walsh function with it.
    """
    if resolution < 0:
        raise ValueError("resolution must be nonnegative")
    m, s = x.mantissa, x.shift
    v = m << (resolution - s) if s <= resolution else m >> (s - resolution)
    return v & ((1 << resolution) - 1)


@dataclass(frozen=True)
class DyadicInterval:
    """[index * 2^scale, (index+1) * 2^scale); a coset of [0, 2^scale)."""

    scale: int
    index: int

    def __post_init__(self):
        if self.index < 0:
            raise ValueError("negative interval index")

    @property
    def length(self) -> float:
        return 2.0 ** self.scale

    @property
    def left(self) -> WalshNumber:
        return WalshNumber(self.index, -self.scale)

    def contains(self, other: "DyadicInterval") -> bool:
        if other.scale > self.scale:
            return False
        return (other.index >> (self.scale - other.scale)) == self.index

    def left_half(self) -> "DyadicInterval":
        return DyadicInterval(self.scale - 1, 2 * self.index)

    def right_half(self) -> "DyadicInterval":
        return DyadicInterval(self.scale - 1, 2 * self.index + 1)

    def half(self, j: int) -> "DyadicInterval":
        """j = +1 left half, j = -1 right half (sign convention of Haar)."""
        if j not in (1, -1):
            raise ValueError("half index must be +1 or -1")
        return self.left_half() if j == 1 else self.right_half()


def coset_membership(
    xi: WalshNumber,
    a: WalshNumber,
    omega: DyadicInterval,
    granularity: int = -MAX_FRACTIONAL_BITS,
) -> bool:
    """Whether xi lies in a (*) omega sampled at the given granularity.

    True iff xi ^ (a (*) l(omega)) is in the GF(2) span of
    {a (*) 2^j : granularity <= j, 2^j < |omega|}, the image of the grid
    points of omega under multiplication by a.  Decided by bit-matrix
    elimination; `granularity` is the scale exponent of the working grid.
    """
    if a.is_zero():
        raise ValueError("degenerate multiplier")
    # raw (mantissa, shift) pairs: the span generators may be narrower than
    # the public width cap allows, so the elimination works on plain ints
    am, ash = a.mantissa, a.shift
    left = omega.left
    ts = ash + left.shift
    s0 = max(xi.shift, ts)
    target = (xi.mantissa << (s0 - xi.shift)) ^ (_clmul(am, left.mantissa) << (s0 - ts))
    if target == 0:
        return True
    gens = [(am, ash - j) for j in range(granularity, omega.scale)]
    smax = max([s0] + [s for _, s in gens])
    basis: dict[int, int] = {}
    for gm, gs in gens:
        v = gm << (smax - gs)
        while v:
            lead = v.bit_length()
            if lead in basis:
                v ^= basis[lead]
            else:
                basis[lead] = v
                break
    v = target << (smax - s0)
    while v:
        lead = v.bit_length()
        if lead not in basis:
            return False
        v ^= basis[lead]
    return True

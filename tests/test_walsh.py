"""Field arithmetic tests with independent oracles.

The carry-less product oracle below is a double loop over bit positions,
deliberately different from the shift-and-accumulate loop in the package.
Coset membership is checked against brute-force enumeration of the image
set at coarse resolutions.
"""

import pytest
from hypothesis import given, settings, strategies as st

from walshlab.walsh import (
    WalshNumber,
    DyadicInterval,
    walsh_add,
    walsh_mul,
    character,
    grid_frequency,
    coset_membership,
)

from .oracles import bits, contains_point, hi, parent, sibling, to_float


def clmul_oracle(x: int, y: int) -> int:
    acc = 0
    for i in range(x.bit_length()):
        for j in range(y.bit_length()):
            if (x >> i) & 1 and (y >> j) & 1:
                acc ^= 1 << (i + j)
    return acc


def wn(x: float) -> WalshNumber:
    return WalshNumber.from_float(x)


# value < 1 with at most 16 fractional bits: triple products stay in range
frac = st.integers(min_value=0, max_value=2**16 - 1).map(lambda m: WalshNumber(m, 16))
# mixed integer/fractional, safe under addition
mixed = st.tuples(
    st.integers(min_value=0, max_value=2**16 - 1),
    st.integers(min_value=0, max_value=20),
).map(lambda t: WalshNumber(*t))


class TestRepresentation:
    def test_canonical_odd_mantissa(self):
        assert WalshNumber(4, 2) == WalshNumber(1, 0)
        assert WalshNumber(6, 3).mantissa == 3
        assert WalshNumber(6, 3).shift == 2

    def test_zero(self):
        z = WalshNumber(0, 17)
        assert z.mantissa == 0 and z.shift == 0
        assert z.is_zero() and z.magnitude() == 0.0

    def test_from_float_round_trip(self):
        for x in [0.0, 1.0, 0.5, 0.75, 2.0, 5.25, 0.015625]:
            assert to_float(wn(x)) == x

    def test_bit_window(self):
        x = wn(5.25)  # 101.01
        assert x.lo == -2 and hi(x) == 2
        assert bits(x) == "10101"

    def test_width_caps(self):
        with pytest.raises(OverflowError):
            WalshNumber(1, 65)
        with pytest.raises(OverflowError):
            WalshNumber(1 << 33, 0)
        with pytest.raises(OverflowError):
            walsh_mul(WalshNumber(1, 33), WalshNumber(1, 33))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            WalshNumber(-1, 0)

    def test_immutable_and_hashed_by_value(self):
        x = WalshNumber(6, 3)
        for name in ("mantissa", "shift", "other"):
            with pytest.raises(AttributeError):
                setattr(x, name, 1)
        assert hash(x) == hash(WalshNumber(3, 2)) == hash((3, 2))
        assert repr(x) == "WalshNumber(3, 2)"
        assert x != (3, 2) and WalshNumber(mantissa=3, shift=2) == x


class TestArithmetic:
    def test_mul_matches_oracle_spot(self):
        # 0.11 (*) 0.11 = 0.0101
        assert walsh_mul(wn(0.75), wn(0.75)) == wn(0.3125)
        assert walsh_mul(wn(2.0), wn(1.5)) == wn(3.0)
        assert walsh_mul(wn(3.0), wn(3.0)) == wn(5.0)

    @given(x=st.integers(0, 2**24 - 1), y=st.integers(0, 2**24 - 1))
    def test_mul_matches_oracle(self, x, y):
        a = WalshNumber(x, 24)
        b = WalshNumber(y, 24)
        assert walsh_mul(a, b) == WalshNumber(clmul_oracle(x, y), 48)

    @given(x=mixed, y=mixed)
    def test_add_is_xor_self_inverse(self, x, y):
        s = walsh_add(x, y)
        assert walsh_add(s, y) == x
        assert walsh_add(x, x).is_zero()

    @given(x=mixed, y=mixed, z=mixed)
    def test_add_associative_commutative(self, x, y, z):
        assert walsh_add(walsh_add(x, y), z) == walsh_add(x, walsh_add(y, z))
        assert walsh_add(x, y) == walsh_add(y, x)

    @given(x=frac, y=frac, z=frac)
    @settings(max_examples=60)
    def test_ring_laws(self, x, y, z):
        assert walsh_mul(walsh_mul(x, y), z) == walsh_mul(x, walsh_mul(y, z))
        assert walsh_mul(x, y) == walsh_mul(y, x)
        assert walsh_mul(x, walsh_add(y, z)) == walsh_add(
            walsh_mul(x, y), walsh_mul(x, z)
        )

    @given(x=frac, y=frac)
    def test_magnitude_multiplicative(self, x, y):
        p = walsh_mul(x, y)
        assert p.magnitude() == x.magnitude() * y.magnitude()

    def test_powers_of_two_scale(self):
        # t^k acts as scaling by 2^(-k)
        assert walsh_mul(wn(0.5), wn(0.5)) == wn(0.25)
        assert walsh_mul(wn(2.0), wn(0.25)) == wn(0.5)


class TestCharacter:
    def test_values(self):
        assert character(wn(0.0)) == 1
        assert character(wn(0.5)) == -1
        assert character(wn(0.25)) == 1
        assert character(wn(1.0)) == 1
        assert character(wn(0.75)) == -1
        assert character(wn(1.5)) == -1

    @given(x=mixed, y=mixed)
    def test_multiplicative(self, x, y):
        assert character(walsh_add(x, y)) == character(x) * character(y)


class TestGridFrequency:
    @given(m=st.integers(0, 2**20 - 1), k=st.integers(0, 8))
    def test_matches_float_formula(self, m, k):
        x = WalshNumber(m, 14)
        expected = int(to_float(x) * 2**k) % 2**k
        assert grid_frequency(x, k) == expected

    def test_examples(self):
        assert grid_frequency(wn(0.625), 3) == 5
        assert grid_frequency(wn(2.625), 3) == 5
        assert grid_frequency(wn(0.625), 1) == 1


class TestDyadicInterval:
    def test_containment(self):
        unit = DyadicInterval(0, 0)
        assert unit.contains(DyadicInterval(-2, 3))
        assert not unit.contains(DyadicInterval(-2, 4))
        assert not DyadicInterval(-2, 3).contains(unit)

    def test_halves_and_parent(self):
        i = DyadicInterval(-1, 3)  # [1.5, 2)
        assert parent(i) == DyadicInterval(0, 1)
        assert i.half(1) == DyadicInterval(-2, 6)
        assert i.half(-1) == DyadicInterval(-2, 7)
        assert sibling(i) == DyadicInterval(-1, 2)

    def test_contains_point(self):
        i = DyadicInterval(-2, 5)  # [1.25, 1.5)
        assert contains_point(i, wn(1.25))
        assert contains_point(i, wn(1.3125))
        assert not contains_point(i, wn(1.5))
        assert not contains_point(i, wn(1.0))

    def test_point_membership_respects_cosets(self):
        # an interval is a coset of [0, 2^scale): XOR by elements below
        # the scale never leaves it
        i = DyadicInterval(-1, 3)
        x = wn(1.5)
        for off in [0.0, 0.25, 0.375, 0.46875]:
            assert contains_point(i, walsh_add(x, wn(off)))


class TestCosetMembership:
    def test_known_memberships(self):
        unit = DyadicInterval(0, 1)  # [1, 2)
        assert coset_membership(wn(1.0), wn(1.0), unit)
        assert not coset_membership(wn(0.5), wn(1.0), unit)
        assert coset_membership(wn(2.0), wn(2.0), unit)

    def test_degenerate_multiplier(self):
        with pytest.raises(ValueError, match="degenerate multiplier"):
            coset_membership(wn(1.0), wn(0.0), DyadicInterval(0, 1))

    def test_unit_multiplier_is_interval_membership(self):
        # a = 1: the image of omega at full granularity is omega itself
        omega = DyadicInterval(-1, 3)
        assert coset_membership(wn(1.5), wn(1.0), omega)
        assert coset_membership(wn(1.984375), wn(1.0), omega)
        assert not coset_membership(wn(2.0), wn(1.0), omega)

    @pytest.mark.parametrize(
        "a", [1.0, 1.5, 2.0, 2.75, 0.5, 3.25], ids=lambda a: f"a={a}"
    )
    @pytest.mark.parametrize("scale,index", [(0, 1), (-1, 2), (-1, 3), (-2, 5)])
    def test_against_enumeration(self, a, scale, index):
        K = 6
        am = WalshNumber.from_float(a)
        omega = DyadicInterval(scale, index)
        lo = index << (K + scale)
        image = {
            walsh_mul(am, WalshNumber(m, K)) for m in range(lo, lo + 2**(K + scale))
        }
        # probe every grid point of a wide window at matching granularity
        for m in range(0, 2**(K + 2)):
            xi = WalshNumber(m, K)
            got = coset_membership(xi, am, omega, granularity=-K)
            assert got == (xi in image), (a, scale, index, m)

    def test_granularity_refines(self):
        # membership at coarse granularity implies membership at finer
        a = wn(1.5)
        omega = DyadicInterval(0, 1)
        for m in range(0, 2**8):
            xi = WalshNumber(m, 4)
            if coset_membership(xi, a, omega, granularity=-4):
                assert coset_membership(xi, a, omega, granularity=-8)
                assert coset_membership(xi, a, omega)

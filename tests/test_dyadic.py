"""Exact dyadic arithmetic."""

import random
from fractions import Fraction

import pytest

from sdlisp.dyadic import Dyadic, mass, sum_dyadic


class TestArithmetic:
    def test_normalization(self):
        assert Dyadic(4, 3) == Dyadic(1, 1)
        assert Dyadic(0, 7) == Dyadic(0)

    def test_negative_exponent_scales_up(self):
        assert Dyadic(3, -2) == Dyadic(12)

    def test_add_sub(self):
        assert Dyadic(1, 1) + Dyadic(1, 2) == Dyadic(3, 2)
        assert Dyadic(1, 1) - Dyadic(1, 5) == Dyadic(15, 5)

    def test_signed_subtraction(self):
        d = Dyadic(1, 2) - Dyadic(1, 1)
        assert d < 0 < Dyadic(1, 2)

    def test_ordering(self):
        assert Dyadic(15, 5) < Dyadic(1, 1) <= Dyadic(1, 1)
        assert Dyadic(1, 1) > Dyadic(31, 6)

    def test_a_whole_value_hashes_as_the_int_it_equals(self):
        for n in (0, 1, -3, 2**70):
            assert Dyadic(n) == n and hash(Dyadic(n)) == hash(n)
        assert hash(Dyadic(4, 2)) == hash(1)
        assert {1: "a"}.get(Dyadic(1)) == "a" and {Dyadic(2): "b"}.get(2) == "b"
        assert len({Dyadic(1), 1, Dyadic(2, 1)}) == 1

    @pytest.mark.parametrize("other", [0.5, "1", None, Fraction(1, 2)])
    def test_ordering_against_another_type_raises(self, other):
        for compare in (lambda: Dyadic(1) < other, lambda: Dyadic(1) <= other,
                        lambda: Dyadic(1) > other, lambda: other >= Dyadic(1)):
            with pytest.raises(TypeError):
                compare()

    @pytest.mark.parametrize("other", [0.5, "1", None, Fraction(1, 2)])
    def test_arithmetic_with_another_type_raises(self, other):
        for operate in (lambda: Dyadic(1) + other, lambda: other + Dyadic(1),
                        lambda: Dyadic(1) - other, lambda: other - Dyadic(1)):
            with pytest.raises(TypeError):
                operate()
        assert (Dyadic(1) == other) is False and Dyadic(1) != other

    def test_an_int_operand_on_either_side(self):
        assert Dyadic(1) + 1 == Dyadic(2) and 1 + Dyadic(1, 1) == Dyadic(3, 1)
        assert Dyadic(1) - 1 == Dyadic(0) and 1 - Dyadic(1, 1) == Dyadic(1, 1)
        assert sum([Dyadic(1, 1)] * 3) == Dyadic(3, 1)

    def test_sum(self):
        parts = [Dyadic.half_power(k) for k in range(1, 11)]
        assert sum_dyadic(parts) == Dyadic(1) - Dyadic.half_power(10)


def as_fraction(d: Dyadic) -> Fraction:
    return Fraction(d.num, 1 << d.exp)


def assert_normalized(d: Dyadic) -> None:
    assert d.exp >= 0
    assert d.exp == 0 or d.num % 2 == 1


def random_dyadic(rng) -> tuple[Dyadic, Fraction]:
    """Zero, wide, or few-significant-bit numerators of either sign; some
    negative exponents."""
    num = rng.choice([0, rng.randrange(-2**70, 2**70),
                      rng.randrange(-64, 65) << rng.randrange(40)])
    exp = rng.randrange(-12, 80)
    return Dyadic(num, exp), Fraction(num) / Fraction(2) ** exp


def binary_expansion(f: Fraction) -> str:
    """The terminating expansion of a dyadic *f*, digit by digit."""
    sign, f = ("-" if f < 0 else ""), abs(f)
    whole = f.numerator // f.denominator
    digits, f = "", f - whole
    while f:
        digit = int(2 * f >= 1)
        digits += str(digit)
        f = 2 * f - digit
    return f"{sign}{whole:b}" + (f".{digits}" if digits else "")


class TestAgainstFractions:
    """Seeded random checks of the exact arithmetic against the stdlib."""

    def test_construction(self):
        rng = random.Random(1)
        for _ in range(2000):
            d, f = random_dyadic(rng)
            assert_normalized(d)
            assert as_fraction(d) == f

    def test_add_and_sub(self):
        rng, ints = random.Random(2), random.Random(8)  # the int operands draw apart
        for _ in range(2000):
            (a, fa), (b, fb) = random_dyadic(rng), random_dyadic(rng)
            n = ints.choice([ints.randrange(-3, 4), round(fa), ints.randrange(-2**70, 2**70)])
            for d, f in ((a + b, fa + fb), (a - b, fa - fb), (a + n, fa + n), (n + a, n + fa),
                         (a - n, fa - n), (n - a, n - fa)):
                assert type(d) is Dyadic
                assert_normalized(d)
                assert as_fraction(d) == f

    def test_ordering(self):
        rng = random.Random(6)
        for _ in range(2000):
            (a, fa), (b, fb) = random_dyadic(rng), random_dyadic(rng)
            n = rng.choice([rng.randrange(-3, 4), round(fa)])
            for x, fx, y, fy in ((a, fa, b, fb), (a, fa, a, fa), (a, fa, n, n), (n, n, a, fa)):
                assert (x < y, x <= y, x > y, x >= y, x == y) == (
                    fx < fy, fx <= fy, fx > fy, fx >= fy, fx == fy), (x, y)

    def test_binary_expansion(self):
        rng = random.Random(7)
        for _ in range(2000):
            d, f = random_dyadic(rng)
            assert d.bin_str() == binary_expansion(f)
            assert Dyadic(-d.num, d.exp).bin_str() == binary_expansion(-f)

    def test_sum(self):
        assert sum_dyadic([]) == Dyadic(0)
        rng = random.Random(3)
        for _ in range(300):
            pairs = [random_dyadic(rng) for _ in range(rng.randrange(0, 12))]
            total = sum_dyadic(d for d, _ in pairs)
            assert_normalized(total)
            assert as_fraction(total) == sum((f for _, f in pairs), Fraction(0))

    def test_mass(self):
        assert mass([]) == Dyadic(0)
        rng = random.Random(4)
        for _ in range(300):
            lengths = [rng.randrange(0, 40) for _ in range(rng.randrange(0, 20))]
            assert as_fraction(mass(lengths)) == sum((Fraction(1, 2 ** k) for k in lengths),
                                                     Fraction(0))

    def test_mass_of_repeated_lengths(self):
        rng = random.Random(5)
        for _ in range(200):
            lengths = [rng.randrange(0, 6) for _ in range(rng.randrange(0, 300))]
            expected = sum((Fraction(1, 2 ** k) for k in lengths), Fraction(0))
            assert as_fraction(mass(lengths)) == expected
            assert mass(iter(lengths)) == mass(sorted(lengths))
        # 2^k programs of each length k up to 14: one unit per length
        assert mass(k for k in range(15) for _ in range(2 ** k)) == Dyadic(15)


class TestFormatting:
    def test_fraction_text(self):
        assert str(Dyadic(15, 5)) == "15/32"
        assert str(Dyadic(2, 1)) == "1"

    def test_binary_expansion(self):
        assert Dyadic(15, 5).bin_str() == "0.01111"
        assert Dyadic(3, 2).bin_str() == "0.11"
        assert Dyadic(0).bin_str() == "0"
        assert Dyadic(5, 1).bin_str() == "10.1"

    def test_fixed_expansion(self):
        assert Dyadic(1, 1).bin_str_fixed(4) == "0.1000"
        assert Dyadic(15, 5).bin_str_fixed(4) == "0.0111"

    def test_parse(self):
        assert Dyadic.parse("15/32") == Dyadic(15, 5)
        assert Dyadic.parse("3") == Dyadic(3)
        with pytest.raises(ValueError):
            Dyadic.parse("1/3")

"""Exact dyadic rationals: integers divided by a power of two.

All probability and measure arithmetic in this package is exact; halting
probabilities compared at bit precision cannot tolerate rounding.
"""

from __future__ import annotations

from collections import Counter
from functools import total_ordering


@total_ordering
class Dyadic:
    """num / 2**exp, kept normalized (num odd or exp == 0)."""

    __slots__ = ("num", "exp")

    def __init__(self, num: int, exp: int = 0):
        if exp < 0:
            num <<= -exp
            exp = 0
        if num:
            shift = min(exp, (num & -num).bit_length() - 1)  # trailing zeros
            num >>= shift
            exp -= shift
        else:
            exp = 0
        self.num = num
        self.exp = exp

    @classmethod
    def half_power(cls, k: int) -> "Dyadic":
        """2**-k, the measure of one k-bit program."""
        return cls(1, k)

    @classmethod
    def parse(cls, text: str) -> "Dyadic":
        """Read 'a/b' with b a power of two, or a bare integer."""
        text = text.strip()
        if "/" in text:
            a, b = text.split("/", 1)
            num, den = int(a), int(b)
            if den <= 0 or den & (den - 1):
                raise ValueError(f"denominator must be a power of two: {text!r}")
            return cls(num, den.bit_length() - 1)
        return cls(int(text))

    def __add__(self, other):
        other = _as_dyadic(other)
        return NotImplemented if other is None else sum_dyadic((self, other))

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_dyadic(other)
        return NotImplemented if other is None else sum_dyadic((self, Dyadic(-other.num, other.exp)))

    def __rsub__(self, other):
        other = _as_dyadic(other)
        return NotImplemented if other is None else other - self

    def __eq__(self, other):
        other = _as_dyadic(other)
        return NotImplemented if other is None else self.num == other.num and self.exp == other.exp

    def __hash__(self) -> int:
        # a whole value hashes as the int it equals
        return hash((self.num, self.exp)) if self.exp else hash(self.num)

    def __lt__(self, other):
        other = _as_dyadic(other)
        return NotImplemented if other is None else (self - other).num < 0

    def bin_str(self) -> str:
        """Terminating binary expansion, e.g. 3/4 -> '0.11'."""
        sign = "-" if self.num < 0 else ""
        return sign + Dyadic(abs(self.num), self.exp).bin_str_fixed(self.exp)

    def bin_str_fixed(self, n: int) -> str:
        """Binary expansion truncated to exactly n fractional digits."""
        if self.num < 0:
            raise ValueError("fixed expansion is for non-negative values")
        scaled = (self.num << n) >> self.exp if self.exp <= n else self.num >> (self.exp - n)
        ip, frac = scaled >> n, scaled & ((1 << n) - 1)
        if n == 0:
            return format(ip, "b")
        return f"{format(ip, 'b')}.{format(frac, f'0{n}b')}"

    def __str__(self) -> str:
        if self.exp == 0:
            return str(self.num)
        return f"{self.num}/{1 << self.exp}"

    def __repr__(self) -> str:
        return f"Dyadic({self.num}, {self.exp})"


def _as_dyadic(x) -> Dyadic | None:
    """Every operator's operand: a Dyadic as it is, an int as the Dyadic it
    equals, else None, for which the operator returns NotImplemented."""
    if isinstance(x, Dyadic):
        return x
    return Dyadic(x) if isinstance(x, int) else None


def sum_dyadic(items) -> Dyadic:
    """Exact sum: integer numerators at a common exponent, normalized once."""
    num = exp = 0
    for item in items:
        if item.exp > exp:
            num <<= item.exp - exp
            exp = item.exp
        num += item.num << (exp - item.exp)
    return Dyadic(num, exp)


def mass(lengths) -> Dyadic:
    """Sum of 2**-k over *lengths*: the measure of programs of those sizes."""
    return sum_dyadic(Dyadic(c, k) for k, c in Counter(lengths).items())

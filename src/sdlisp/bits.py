"""Bit strings and bit streams.

A bit string is a plain ``str`` over the characters ``0`` and ``1`` (the
compact text form is the representation).  A :class:`BitStream` adds a read
cursor so self-delimiting decoders can consume exactly as much as they need.
"""

from __future__ import annotations

import re
from itertools import product


class OutOfData(Exception):
    """Raised when a read runs past the end of the available binary data."""


def check_bits(bits: str) -> str:
    """Validate that *bits* contains only 0s and 1s and return it."""
    if bits.strip("01"):
        raise ValueError(f"not a bit string: {bits!r}")
    return bits


class BitStream:
    """A bit string with a single-owner read cursor."""

    __slots__ = ("bits", "pos")

    def __init__(self, bits: str = ""):
        self.bits = check_bits(bits)
        self.pos = 0

    @property
    def remaining(self) -> int:
        return len(self.bits) - self.pos

    def read(self, n: int) -> str:
        """Consume and return the next *n* bits; raise OutOfData if short."""
        if self.pos + n > len(self.bits):
            raise OutOfData(f"needed {n} bits, {self.remaining} left")
        out = self.bits[self.pos:self.pos + n]
        self.pos += n
        return out

    def __repr__(self) -> str:
        return f"BitStream({self.bits!r}, pos={self.pos})"


def doubled(x: str) -> str:
    """Each bit of *x* written twice: the body of a doubling codeword."""
    return x.replace("0", "00").replace("1", "11")


# equal pairs, then the unequal pair that ends them
_DOUBLED_WORD = re.compile("(?:00|11)*(?:01|10)")


def read_doubled(bits: str, i: int = 0) -> tuple[str, int] | None:
    """The doubled word at index *i* of *bits* (each equal pair carries a bit,
    the first unequal pair ends it) and the index past that pair, or None
    when the bits run out first.  The caller decides which pairs may end it."""
    found = _DOUBLED_WORD.match(bits, i)
    if found is None:
        return None
    j = found.end()
    return bits[i:j - 2:2], j


def all_bitstrings(length: int):
    """All bit strings of exactly *length* bits, in lexicographic order."""
    return map("".join, product("01", repeat=length))


def bitstrings_up_to(max_len: int):
    """All bit strings of length <= max_len, shortest first, then lexicographic."""
    for length in range(max_len + 1):
        yield from all_bitstrings(length)


def parse_bit_text(text: str) -> str:
    """Read a bit string in either accepted text form.

    Compact form: ``01101`` (whitespace ignored).  List form: ``(0 1 1 0 1)``,
    the dialect's own representation of binary data.
    """
    stripped = text.strip()
    if stripped.startswith("("):
        if not stripped.endswith(")"):
            raise ValueError(f"unterminated bit list: {text!r}")
        items = stripped[1:-1].split()
        if items == ["nil"]:
            items = []
        return check_bits("".join(items))
    return check_bits("".join(stripped.split()))


_BIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


def bit_values(bits: str) -> tuple:
    """The dialect's list of 0/1 naturals for a string already known to be bits."""
    return tuple(bits.encode().translate(_BIT_VALUES))


def bits_to_sexpr(bits: str) -> tuple:
    """Bit string as the dialect sees it: a list of 0/1 naturals."""
    return bit_values(check_bits(bits))

"""Self-delimiting encodings of bit strings.

Four ways a program can carry its own length: doubling every bit, a doubled
length numeral followed by the raw bits, two stacked headers, and a header
that is itself a shortest-found program for the length.  Each encoder's
output set is prefix-free, so a decoder can stop by itself with no end
marker.

The encoders always terminate a doubling with 01; the decoders accept either
unequal pair, so a 10-terminated stream still decodes (liberal in what they
accept, conservative in what they produce).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .bits import BitStream, OutOfData, check_bits, doubled, read_doubled


@dataclass(frozen=True)
class Codec:
    """A self-delimiting code: encode a bit string, decode one off a stream."""

    name: str
    encode: Callable[[str], str]
    decode: Callable[[BitStream], str]

    def decode_text(self, bits: str) -> tuple[str, int]:
        """Decode from the front of *bits*; returns (payload, bits consumed)."""
        stream = BitStream(bits)
        payload = self.decode(stream)
        return payload, stream.pos


def _numeral(n: int) -> str:
    """Base-two numeral, most significant bit first; 0 is the empty string,
    which keeps the length laws exact at zero."""
    return format(n, "b") if n else ""


def encode_doubling(x: str) -> str:
    """Each bit twice, then the unequal pair 01: 2|x| + 2 bits."""
    return doubled(check_bits(x)) + "01"


def decode_doubling(stream: BitStream) -> str:
    """Consume pairs while they match; the first unequal pair ends the word."""
    found = read_doubled(stream.bits, stream.pos)
    if found is None:
        raise OutOfData(f"no unequal pair in the {stream.remaining} bits left")
    word, stream.pos = found
    return word


def encode_header_numeral(x: str) -> str:
    """Doubled numeral of the length, then the bits: 2 log2 N + N + 2-ish."""
    return encode_doubling(_numeral(len(check_bits(x)))) + x


def decode_header_numeral(stream: BitStream) -> str:
    numeral = decode_doubling(stream)
    n = int(numeral, 2) if numeral else 0
    return stream.read(n)


def encode_two_header(x: str) -> str:
    """First header: doubled numeral of the second header's length.  Second
    header: the numeral of |x| with no bits doubled.  Then the bits."""
    numeral = _numeral(len(check_bits(x)))
    return encode_doubling(_numeral(len(numeral))) + numeral + x


def decode_two_header(stream: BitStream) -> str:
    width_numeral = decode_doubling(stream)
    width = int(width_numeral, 2) if width_numeral else 0
    numeral = stream.read(width)
    n = int(numeral, 2) if numeral else 0
    return stream.read(n)


DOUBLING = Codec("doubling", encode_doubling, decode_doubling)
HEADER = Codec("header", encode_header_numeral, decode_header_numeral)
TWO_HEADER = Codec("two-header", encode_two_header, decode_two_header)

CODECS = {c.name: c for c in (DOUBLING, HEADER, TWO_HEADER)}


def make_elegant_codec(machine, size_cap: int, budget: int | None) -> Codec:
    """Header = a shortest found program computing |x| on *machine*.

    The machine must output naturals.  Encoding searches for the program
    (raising SearchExhausted if the caps are too small); decoding runs the
    machine on growing prefixes of the stream, which is unambiguous because
    the machine's domain is prefix-free.
    """
    from .ait import H_upper, SearchExhausted  # heavy module, import on use
    from .universal import OUT_OF_DATA

    def encode(x: str) -> str:
        record = H_upper(len(check_bits(x)), machine, size_cap, budget)
        return record.witness + x

    def decode(stream: BitStream) -> str:
        # every outcome but out-of-data is final for all longer headers
        header = ""
        result = None
        while len(header) < size_cap:
            header += stream.read(1)
            result = machine.run(header, budget)
            if result.reason != OUT_OF_DATA:
                break
        if result is None or not result.halted or not isinstance(result.value, int):
            raise SearchExhausted(f"no length program within {size_cap} bits")
        return stream.read(result.value)

    return Codec("elegant", encode, decode)

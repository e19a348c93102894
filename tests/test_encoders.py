"""Self-delimiting codec laws: round trips, exact lengths, prefix-freeness."""

import random

import pytest

from sdlisp.bits import (
    BitStream,
    OutOfData,
    all_bitstrings,
    bitstrings_up_to,
    doubled,
    read_doubled,
)
from sdlisp.encoders import (
    CODECS,
    DOUBLING,
    HEADER,
    TWO_HEADER,
    decode_doubling,
    encode_doubling,
    encode_header_numeral,
    encode_two_header,
    make_elegant_codec,
)
from sdlisp.universal import ToyNumeral

from oracles import read_doubled_reference


class TestDoubling:
    def test_paper_example(self):
        assert encode_doubling("001") == "00001101"
        assert DOUBLING.decode_text("00001101") == ("001", 8)

    def test_empty(self):
        assert encode_doubling("") == "01"

    def test_single_bit(self):
        assert encode_doubling("1") == "1101"

    def test_liberal_terminator(self):
        assert DOUBLING.decode_text("10") == ("", 2)

    def test_length_law(self):
        for x in bitstrings_up_to(10):
            assert len(encode_doubling(x)) == 2 * len(x) + 2

    def test_odd_truncation_out_of_data(self):
        with pytest.raises(OutOfData):
            decode_doubling(BitStream("000"))

    def test_kraft_sum_is_half(self):
        # the codeword mass over a complete length range telescopes to 1/2
        from fractions import Fraction
        total = sum(Fraction(1, 2 ** (2 * n + 2)) * 2 ** n for n in range(40))
        assert total == Fraction(1, 2) - Fraction(1, 2 ** 41)
        assert total < Fraction(1, 2)


def _pairs_heavy(rng, length):
    """A bit string of *length* bits whose pairs are equal with a drawn
    probability, most often close to one: long runs of equal pairs."""
    p_equal = rng.choice((0.5, 0.9, 0.97, 0.995, 1.0))
    pairs = []
    for _ in range(length // 2):
        bit = rng.choice("01")
        pairs.append(bit + bit if rng.random() < p_equal else bit + "10"[int(bit)])
    return "".join(pairs) + rng.choice("01") * (length % 2)


class TestReadDoubled:
    """read_doubled against the pair-by-pair reference."""

    def test_matches_the_reference_on_random_strings(self):
        rng = random.Random(61)
        for k in range(5000):
            length = rng.randrange(81)
            if k % 2:
                bits = _pairs_heavy(rng, length)
            else:
                bits = "".join(rng.choice("01") for _ in range(length))
            for i in range(length + 2):
                assert read_doubled(bits, i) == read_doubled_reference(bits, i), (bits, i)

    def test_matches_the_reference_on_a_long_stream(self):
        rng = random.Random(67)
        body = "".join(rng.choice(("00", "11")) for _ in range(49_990))
        stream = body + "01" + "".join(rng.choice("01") for _ in range(18))
        assert len(stream) == 100_000
        starts = [0, 1, 2, 3, len(body) - 1, len(body), len(body) + 1, 99_999, 100_000,
                  100_001] + [rng.randrange(100_000) for _ in range(10)]
        for i in starts:
            assert read_doubled(stream, i) == read_doubled_reference(stream, i), i
        assert read_doubled(stream, 0) == (body[::2], len(body) + 2)
        assert read_doubled(body, 0) is None
        assert read_doubled(body + "0", 0) is None

    def test_matches_the_reference_for_every_word_length_up_to_1200(self):
        # words of every length, each after an even and an odd head
        rng = random.Random(71)
        tail = "".join(rng.choice("01") for _ in range(5000))
        for length in range(1200):
            x = "".join(rng.choice("01") for _ in range(length))
            for head in ("", "1"):
                stream = head + doubled(x) + rng.choice(("01", "10")) + tail
                found = read_doubled(stream, len(head))
                assert found == read_doubled_reference(stream, len(head)), length
                assert found == (x, len(stream) - len(tail)), length

    def test_reads_back_every_doubled_word(self):
        for x in bitstrings_up_to(8):
            assert doubled(x) == "".join(c + c for c in x)
            for tail in ("", "0", "10"):
                assert read_doubled(doubled(x) + "01" + tail) == (x, 2 * len(x) + 2)


class TestHeaderNumeral:
    def test_empty(self):
        assert encode_header_numeral("") == "01"

    def test_spec_example(self):
        assert encode_header_numeral("1010") == "110000011010"

    def test_length_law(self):
        for x in bitstrings_up_to(10):
            numeral_len = len(format(len(x), "b")) if x else 0
            assert len(encode_header_numeral(x)) == 2 * numeral_len + 2 + len(x)

    def test_exhaustive_roundtrip_to_twelve(self):
        for x in bitstrings_up_to(12):
            assert HEADER.decode_text(encode_header_numeral(x)) == (x, 2 * (len(format(len(x), "b")) if x else 0) + 2 + len(x))


class TestTwoHeader:
    def test_empty(self):
        assert encode_two_header("") == "01"

    def test_length_four_case(self):
        # numeral of 4 is 100 (3 bits); doubled numeral of 3 is 1111 then 01
        assert encode_two_header("1010") == "111101" + "100" + "1010"

    def test_decoder_confirms_headers(self):
        assert TWO_HEADER.decode_text(encode_two_header("1010")) == ("1010", 13)


@pytest.mark.parametrize("codec", [DOUBLING, HEADER, TWO_HEADER], ids=lambda c: c.name)
class TestCodecLaws:
    def test_roundtrip_with_junk_suffix(self, codec):
        rng = random.Random(17)
        for x in bitstrings_up_to(10):
            junk = "".join(rng.choice("01") for _ in range(rng.randrange(0, 8)))
            encoded = codec.encode(x)
            assert codec.decode_text(encoded + junk) == (x, len(encoded))

    def test_prefix_free(self, codec):
        words = sorted(codec.encode(x) for x in bitstrings_up_to(10))
        for a, b in zip(words, words[1:]):
            assert not b.startswith(a), (a, b)

    def test_injective(self, codec):
        words = {codec.encode(x) for x in bitstrings_up_to(10)}
        assert len(words) == 2 ** 11 - 1


class TestElegantHeader:
    codec = make_elegant_codec(ToyNumeral(), size_cap=24, budget=None)

    def test_empty_payload_uses_two_bit_length_program(self):
        assert self.codec.encode("") == "01"

    def test_roundtrip_small_library(self):
        for x in ["", "1", "01", "111", "10101", "0000000000"]:
            encoded = self.codec.encode(x)
            assert self.codec.decode_text(encoded + "0101") == (x, len(encoded))

    def test_header_is_shortest_length_program(self):
        # length 4 -> numeral 100 -> doubled: 8 bits
        assert self.codec.encode("1010") == "11000001" + "1010"

    def test_cap_too_small_raises(self):
        from sdlisp.ait import SearchExhausted
        tiny = make_elegant_codec(ToyNumeral(), size_cap=2, budget=None)
        with pytest.raises(SearchExhausted):
            tiny.encode("1010")

    def test_decode_stops_at_a_final_header(self):
        # 10 is a parse error for every extension: nothing past it is read
        from sdlisp.ait import SearchExhausted
        for bits in ("10", "10" + "0" * 30):
            stream = BitStream(bits)
            with pytest.raises(SearchExhausted):
                self.codec.decode(stream)
            assert stream.pos == 2

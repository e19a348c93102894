"""Reader, printer, and bit-codec tests."""

import random
import sys

import pytest

from sdlisp import sexpr
from sdlisp.bits import BitStream, OutOfData
from sdlisp.interp import Closure
from sdlisp.sexpr import (
    ArityTable,
    SExprSyntaxError,
    iter_forms,
    parse_full,
    parse_implicit,
    print_canonical,
    read_exp_from_stream,
    size_chars,
    text_bits,
    to_bits,
)

from oracles import (
    iter_forms_reference,
    parse_full_reference,
    parse_implicit_reference,
    random_any_sexpr,
    random_data_sexpr,
)

PAIR_PREFIX_TEXT = "(cons (eval (read-exp)) (cons (eval (read-exp)) nil))"


class TestParseFull:
    def test_arithmetic_example(self):
        assert parse_full("(* (+ 1 2) 3)") == ("*", ("+", 1, 2), 3)

    def test_empty_list_is_nil(self):
        assert parse_full("()") == ()
        assert parse_full("nil") == ()

    def test_nested_tuples(self):
        assert parse_full("((A bc) 39 x-y-z)") == (("A", "bc"), 39, "x-y-z")

    def test_quote_sugar(self):
        assert parse_full("'x") == ("'", "x")
        assert parse_full("'(a b)") == ("'", ("a", "b"))
        assert parse_full("''x") == ("'", ("'", "x"))

    def test_standalone_apostrophe_is_a_symbol(self):
        assert parse_full("(' x)") == ("'", "x")
        assert parse_full("(bits 'x)") == ("bits", ("'", "x"))

    def test_whitespace_insignificant(self):
        assert parse_full("( a\n\t b  c )") == ("a", "b", "c")

    @pytest.mark.parametrize("bad", ["", "(a", "a)", "(a))", "a b", "(a) b"])
    def test_errors(self, bad):
        with pytest.raises(SExprSyntaxError):
            parse_full(bad)

    def test_error_carries_position(self):
        with pytest.raises(SExprSyntaxError) as info:
            parse_full("(a\nb))")
        assert info.value.line == 2

    def test_numerals(self):
        assert parse_full("0") == 0
        assert parse_full("007") == 7
        assert parse_full("123456789012345678901234567890") == 123456789012345678901234567890

    def test_numerals_of_any_length(self):
        assert parse_full("9" * 5000) == 10 ** 5000 - 1
        assert parse_full("0" * 4999 + "1") == 1
        assert parse_implicit("+ " + "1" + "0" * 4400 + " 1") == ("+", 10 ** 4400, 1)


class TestParseImplicit:
    def test_arithmetic(self):
        assert parse_implicit("* + 1 2 3") == parse_full("(* (+ 1 2) 3)")

    def test_universal_computer_definition(self):
        expr = parse_implicit("cadr try no-time-limit ' eval read-exp p")
        assert expr == ("cadr", ("try", "no-time-limit",
                                 ("'", ("eval", ("read-exp",))), "p"))

    def test_attached_quote_also_consumes_by_arity(self):
        assert parse_implicit("'eval read-exp") == ("'", ("eval", ("read-exp",)))

    def test_zero_arity_primitives_become_calls(self):
        assert parse_implicit("read-bit") == ("read-bit",)
        assert parse_implicit("(read-exp)") == ("read-exp",)

    def test_user_arity_from_table(self):
        table = ArityTable()
        table.define("f", 1)
        assert parse_implicit("f 4", table) == ("f", 4)

    def test_fully_parenthesized_factorial(self):
        text = "(define (f n) (if (= n 0) 1 (* n (f (- n 1)))))"
        assert parse_implicit(text) == parse_full(text)

    def test_implicit_factorial_matches_parenthesized(self):
        implicit = parse_implicit("define (f n)\nif = n 0  1\n   * n (f - n 1)")
        full = parse_full("(define (f n) (if (= n 0) 1 (* n (f (- n 1)))))")
        assert implicit == full

    def test_grouping_parens_are_redundant(self):
        assert parse_implicit("(cadr try 9 'a nil)") == parse_implicit("cadr try 9 'a nil")

    def test_data_lists_still_read_as_data(self):
        assert parse_implicit("(a b c)") == ("a", "b", "c")
        assert parse_implicit("((a b))") == (("a", "b"),)
        assert parse_implicit("(x)") == ("x",)

    def test_exhausted_stream_errors(self):
        with pytest.raises(SExprSyntaxError):
            parse_implicit("+ 1")

    def test_iter_forms_threads_defines(self):
        forms = list(iter_forms("define (g x) + x 1\ng 5"))
        assert forms == [("define", ("g", "x"), ("+", "x", 1)), ("g", 5)]


class TestPrinter:
    def test_nil(self):
        assert print_canonical(()) == "nil"
        assert size_chars(()) == 3

    def test_simple_list(self):
        assert print_canonical(("a", "b", "c")) == "(a b c)"

    def test_quote_prints_without_sugar(self):
        assert print_canonical(("'", "x")) == "(' x)"

    def test_pair_prefix_measures_53_chars(self):
        expr = parse_full(PAIR_PREFIX_TEXT)
        assert print_canonical(expr) == PAIR_PREFIX_TEXT
        assert size_chars(expr) == 53

    def test_numeral_sizes(self):
        assert size_chars(24) == 2
        assert size_chars(0) == 1

    def test_booleans_are_rejected(self):
        for e in (True, ("a", False)):
            with pytest.raises(TypeError):
                print_canonical(e)
            with pytest.raises(TypeError):
                size_chars(e)

    @pytest.mark.parametrize("k", [1, 2, 599, 600, 601, 603, 604, 640, 641,
                                   1024, 1025, 4300, 4301, 9000])
    def test_wide_numerals_print_exactly(self, k):
        for n, text in ((10 ** k - 1, "9" * k), (10 ** k, "1" + "0" * k),
                        (10 ** k + 7, "1" + "0" * (k - 1) + "7")):
            assert print_canonical(n) == text
            assert size_chars(n) == len(text)

    def test_deep_value_prints_and_measures(self):
        e = ()
        for _ in range(20000):
            e = (e,)
        assert print_canonical(e) == "(" * 20000 + "nil" + ")" * 20000
        assert size_chars(e) == 40003
        assert len(to_bits(e)) == 8 * 40004

    def test_size_of_a_very_deep_value(self):
        # hashing or comparing a tree this deep recurses on the C stack;
        # measuring it must not
        e = "x"
        for _ in range(200_000):
            e = (e,)
        assert size_chars(e) == 400_001

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="this Python has no int/str digit limit")
    def test_lowest_digit_limit_setting_is_not_reached(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            n = 3 ** 5000  # 2,386 digits
            text = print_canonical(n)
            assert size_chars(n) == len(text) == 2386
            assert parse_full(text) == n
        finally:
            sys.set_int_max_str_digits(limit)


class TestRoundTrips:
    def test_random_roundtrip_full_parser(self):
        rng = random.Random(1234)
        for _ in range(400):
            e = random_any_sexpr(rng)
            assert parse_full(print_canonical(e)) == e

    def test_parser_agreement_on_data(self):
        # Implicit notation reinterprets arity-bearing symbols, so agreement
        # is quantified over data expressions (no primitive atoms).
        rng = random.Random(99)
        for _ in range(400):
            e = random_data_sexpr(rng)
            text = print_canonical(e)
            assert parse_implicit(text) == parse_full(text)

    def test_canonical_call_forms_agree_across_parsers(self):
        for text in [
            "(cons (eval (read-exp)) (cons (eval (read-exp)) nil))",
            "(read-bit)",
            "(' (a b c))",
            "(if (= 1 2) 3 4)",
            "(size (' foo))",
        ]:
            assert parse_implicit(text) == parse_full(text)


class TestBits:
    def test_nil_is_32_bits(self):
        assert to_bits(()) == format(ord("n"), "08b") + format(ord("i"), "08b") \
            + format(ord("l"), "08b") + format(10, "08b")
        assert len(to_bits(())) == 32

    def test_zero_is_16_bits(self):
        assert to_bits(0) == "00110000" + "00001010"

    def test_pair_prefix_is_432_bits(self):
        assert len(to_bits(parse_full(PAIR_PREFIX_TEXT))) == 432

    def test_text_bits_matches_per_character_format(self):
        rng = random.Random(12)
        ranges = [(32, 126), (0, 255), (256, 0xFFFF), (0x10000, 0x10FFFF)]
        for _ in range(2000):
            text = "".join(chr(rng.randint(*rng.choice(ranges)))
                           for _ in range(rng.randrange(0, 8)))
            assert text_bits(text) == "".join(format(ord(c), "08b") for c in text)

    def test_length_law(self):
        rng = random.Random(7)
        for _ in range(100):
            e = random_any_sexpr(rng)
            assert len(to_bits(e)) == 8 * (size_chars(e) + 1)

    def test_roundtrip_with_cursor(self):
        rng = random.Random(8)
        for _ in range(200):
            e = random_data_sexpr(rng)
            stream = BitStream(to_bits(e) + "1101")
            assert read_exp_from_stream(stream) == e
            assert stream.pos == 8 * (size_chars(e) + 1)

    def test_deterministic(self):
        e = parse_full("(a (b 7) nil)")
        assert to_bits(e) == to_bits(parse_full(print_canonical(e)))

    def test_out_of_data_mid_character(self):
        with pytest.raises(OutOfData):
            read_exp_from_stream(BitStream("0110000"))

    def test_out_of_data_before_newline(self):
        with pytest.raises(OutOfData):
            read_exp_from_stream(BitStream(format(ord("a"), "08b")))

    def test_parse_error_is_distinct(self):
        bits = format(ord("("), "08b") + format(10, "08b")
        with pytest.raises(SExprSyntaxError):
            read_exp_from_stream(BitStream(bits))

    def test_printed_zero_arity_primitive_reads_back_as_call(self):
        stream = BitStream(to_bits("read-bit"))
        assert read_exp_from_stream(stream) == ("read-bit",)


def _wide_natural(rng):
    roll = rng.random()
    if roll < 0.5:
        return rng.randrange(0, 1000)
    k = rng.choice([1, 2, 3, 599, 600, 601, 640, 641, 1024, 1025, 4300, 4301,
                    rng.randrange(1, 5001)])
    if roll < 0.7:
        return 10 ** k - 1
    if roll < 0.85:
        return 10 ** k
    return rng.randrange(10 ** (k - 1), 10 ** k)


def _random_tree(rng, closures, depth=4):
    roll = rng.random()
    if depth == 0 or roll < 0.4:
        kind = rng.randrange(3)
        if kind == 0:
            return _wide_natural(rng)
        if kind == 1:
            return rng.choice(("a", "bc", "x-y-z", "'", "lambda", "+", "read-exp"))
        return ()
    items = tuple(_random_tree(rng, closures, depth - 1) for _ in range(rng.randrange(1, 4)))
    if closures and rng.random() < 0.2:
        return Closure(("lambda", ("x",), items), {})
    return items


class TestSizeProperty:
    """size_chars counts the structure; it must agree with the printed text."""

    def test_size_agrees_with_text_and_bits(self):
        rng = random.Random(20260)
        for i in range(300):
            closures = i % 2 == 1
            e = _random_tree(rng, closures)
            text = print_canonical(e)
            n = size_chars(e)
            assert n == len(text) == len(to_bits(e)) // 8 - 1
            if not closures:
                assert parse_full(text) == e
            assert size_chars(e) == n  # the second call is a cache hit

    def test_cache_is_keyed_by_identity_and_bounded(self):
        a = ("a", 1)
        b = ("a", int("1"))  # equal to a, but not the same object
        assert a is not b
        assert size_chars(a) == size_chars(b) == 5
        assert sexpr._SIZE_CACHE[id(a)][0] is a
        assert sexpr._SIZE_CACHE[id(b)][0] is b
        for i in range(2 * sexpr._SIZE_CACHE_MAX):
            assert size_chars(("n", i)) == 4 + len(str(i))
        assert len(sexpr._SIZE_CACHE) <= sexpr._SIZE_CACHE_MAX


def _outcome(read):
    """What a reader gives: its value, or the text of its syntax error."""
    try:
        return "value", read()
    except SExprSyntaxError as exc:
        return "error", str(exc)


def _forms_outcome(forms):
    """The forms read before a syntax error, and the error's text if any."""
    out = []
    try:
        for form in forms:
            out.append(form)
    except SExprSyntaxError as exc:
        return out, str(exc)
    return out, None


class TestStackReader:
    """The readers keep their own stack: the same values and errors as the
    recursive reference readers, at any nesting depth."""

    PIECES = ["(", "(", ")", ")", "'", "' ", "define", "(f x)", "(g)", "f", "g", "x",
              "a", "0", "12", "nil", "+", "car", "cons", "if", "lambda", "let", "=",
              "size", "read-exp", "read-bit", "try", "eval", "display"]

    def _soup(self, rng):
        """Pieces up to 50 parentheses deep, usually in one outer group and
        balanced, sometimes with a stray or a missing parenthesis."""
        parts, open_parens = ["("], 1
        for _ in range(rng.randrange(0, 60)):
            piece = rng.choice(self.PIECES)
            if piece == "(" and open_parens < 50:
                open_parens += 1
            elif piece == ")" and (open_parens > 1 or rng.random() < 0.05):
                open_parens -= 1
            elif piece in "()":
                continue
            parts.append(piece)
            parts.append(rng.choice(["", " ", " ", "\n"]))
        parts.append(")" * max(0, open_parens - (rng.random() < 0.1)))
        if rng.random() < 0.2:
            parts[0] = ""
        return "".join(parts)

    def test_random_soup_matches_the_recursive_reference(self):
        rng = random.Random(60221)
        for _ in range(3000):
            text = self._soup(rng)
            assert _outcome(lambda: parse_full(text)) == \
                _outcome(lambda: parse_full_reference(text)), text
            assert _outcome(lambda: parse_implicit(text)) == \
                _outcome(lambda: parse_implicit_reference(text)), text
            table, ref_table = ArityTable(), ArityTable()
            assert _forms_outcome(iter_forms(text, table)) == \
                _forms_outcome(iter_forms_reference(text, ref_table)), text
            assert table.user == ref_table.user

    def test_deeply_nested_text_reads(self):
        text = "(" * 20000 + ")" * 20000
        inner = "(" * 19999 + "nil" + ")" * 19999
        assert print_canonical(parse_full(text)) == inner
        assert print_canonical(parse_implicit(text)) == inner
        [form] = iter_forms(text)
        assert print_canonical(form) == inner

    def test_deep_values_round_trip(self):
        for leaf in ((), 7, "a", ("+", 1, 2)):
            e = leaf
            for _ in range(20000):
                e = (e, "b") if leaf == 7 else (e,)
            text = print_canonical(e)
            assert print_canonical(parse_full(text)) == text
            assert print_canonical(parse_implicit(text)) == text
            stream = BitStream(to_bits(e))
            assert print_canonical(read_exp_from_stream(stream)) == text
            assert stream.remaining == 0

    def test_deep_errors_keep_their_positions(self):
        with pytest.raises(SExprSyntaxError, match=r"unbalanced parenthesis \(line 1, column 2\)"):
            parse_implicit("((" + "(" * 20000 + ")" * 20000)
        with pytest.raises(SExprSyntaxError, match=r"unexpected end of input \(line 1, column 19999\)"):
            parse_implicit("+ " * 10000)

"""Universal computer, toy machines, and the 0^k1 composition."""

import random
from itertools import islice

import pytest

from sdlisp import bits, universal
from sdlisp.bits import bit_values, bitstrings_up_to, check_bits, doubled
from sdlisp.interp import run_source
from sdlisp.kraft import Requirement, build_computer
from sdlisp.sexpr import (
    NIL,
    NOT_AN_ATOM,
    SExprSyntaxError,
    parse_full,
    parse_implicit,
    single_atom,
    text_bits,
    to_bits,
)
from sdlisp.universal import (
    OUT_OF_DATA,
    PARSE_ERROR,
    PARTIAL_CONSUMPTION,
    ComposedUniversal,
    LispU,
    RunResult,
    ToyDoubling,
    ToyNumeral,
    ToyPair,
    encode_program,
    halted,
    invalid,
    run_U,
    still_running,
)

from oracles import is_doubling_codeword, lispu_run_without_data, toy_domain_up_to

U = LispU()


def quote_program(text: str) -> str:
    return to_bits(parse_full(text))


class TestRunU:
    def test_quoted_list_program(self):
        result = run_U(quote_program("(' (a b c))"))
        assert result.halted
        assert result.value == ("a", "b", "c")
        assert result.consumed == 96

    def test_read_bit_zero(self):
        result = run_U(quote_program("(read-bit)") + "0")
        assert result.halted and result.value == 0

    def test_read_bit_one(self):
        result = run_U(quote_program("(read-bit)") + "1")
        assert result.halted and result.value == 1

    def test_numeral_prefix(self):
        result = run_U(to_bits(0))
        assert result.halted and result.value == 0 and result.consumed == 16

    def test_unread_data_invalidates(self):
        result = run_U(quote_program("(' x)") + "01")
        assert result.status == "invalid"
        assert result.reason == "partial-consumption"

    def test_reading_past_end_invalidates(self):
        result = run_U(quote_program("(read-bit)"))
        assert result.status == "invalid" and result.reason == "out-of-data"

    def test_no_newline_is_out_of_data(self):
        assert run_U("0110000101100010").reason == "out-of-data"

    def test_garbage_prefix_is_parse_error(self):
        result = run_U(to_bits(parse_full("nil"))[:32].replace(
            format(ord("n"), "08b"), format(ord("("), "08b"), 1))
        assert result.reason == "parse-error"

    def test_unprintable_character_is_parse_error(self):
        assert run_U("00000001" + format(10, "08b")).reason == "parse-error"

    def test_undecodable_read_exp_data_is_parse_error(self):
        program = to_bits(("read-exp",))
        assert run_U(program + "00000001").reason == "parse-error"
        assert run_U(program + "0000000").reason == "out-of-data"

    def test_budget_expiry_is_still_running(self):
        looping = quote_program("(let loop (lambda (l) (l l)) (loop loop))")
        assert run_U(looping, budget=100).status == "still-running"

    def test_budget_monotone(self):
        program = quote_program("(* (+ 1 2) 3)")
        first_halting = None
        previous = None
        for budget in range(0, 12):
            result = U.run(program, budget)
            if result.halted:
                if first_halting is None:
                    first_halting = budget
                    previous = result
                else:
                    assert result == previous
            else:
                assert first_halting is None
        assert first_halting is not None
        assert U.run(program, 10_000) == previous

    def test_session_defines_do_not_leak_into_U(self):
        run_source("define (f n) * n n")
        result = run_U(quote_program("(f 3)"))
        # f is unbound inside U, so the application yields nil
        assert result.halted and result.value == ()

    def test_run_utm_on_macro_matches_host_runner(self):
        program = quote_program("(' (a b c))")
        bit_list = "(" + " ".join(program) + ")"
        results = run_source(f"run-utm-on (' {bit_list})")
        assert results == [("value", ("a", "b", "c"))]

    def test_prefix_free_on_sampled_halting_programs(self):
        rng = random.Random(5)
        halting = [
            quote_program("(' (a b c))"),
            quote_program("(read-bit)") + "0",
            quote_program("(read-bit)") + "1",
            quote_program("0"),
            encode_program(parse_full("(cons (read-bit) nil)"), "1"),
        ]
        for p in halting:
            assert U.run(p, 10_000).halted
            for q in halting:
                if p is not q:
                    assert not q.startswith(p)
            for _ in range(20):
                extension = p + "".join(rng.choice("01") for _ in range(rng.randrange(1, 5)))
                assert not U.run(extension, 10_000).halted
            for cut in range(1, len(p)):
                assert not U.run(p[:cut], 10_000).halted


PRINTABLE = [chr(c) for c in range(32, 127)]
SHORT_TEXTS = PRINTABLE + [a + b for a in PRINTABLE for b in PRINTABLE]


def _parse_or_none(text):
    try:
        return parse_implicit(text)
    except SExprSyntaxError:
        return None


class TestSingleAtom:
    """The token check that lets U settle a lone numeral or symbol without a
    session must agree with the reader and with the paper's definition."""

    def assert_agrees_with_reader(self, text):
        value = single_atom(text)
        parsed = _parse_or_none(text)
        if value is NOT_AN_ATOM:
            # the reader gives a bare atom only for a single token
            assert not isinstance(parsed, (int, str)), text
        else:
            assert type(parsed) is type(value) and parsed == value, text
            assert isinstance(value, (int, str)) or text.strip() == "nil", text

    def test_agrees_with_the_reader_on_short_texts(self):
        for text in SHORT_TEXTS:
            self.assert_agrees_with_reader(text)

    def test_agrees_with_the_reader_on_sampled_3_char_texts(self):
        rng = random.Random(8)
        alphabet = PRINTABLE + ["\t", "\r", "\n", "\x7f", "\xa0", "\xe9"]
        for _ in range(20_000):
            self.assert_agrees_with_reader("".join(rng.choices(alphabet, k=3)))

    @pytest.mark.parametrize("text", ["()", "'a", "read-bit", "car", "", "  ", "a b",
                                      "(a)", "'", " + ", "nil)"])
    def test_rejects(self, text):
        assert single_atom(text) is NOT_AN_ATOM

    @pytest.mark.parametrize("text, value", [("x", "x"), (" 12 ", 12), ("nil", NIL),
                                             ("\tfoo\n", "foo"), ("007", 7), ("true", "true")])
    def test_accepts(self, text, value):
        assert single_atom(text) == value

    def test_short_runs_match_the_paper_definition(self):
        texts = [t for t in SHORT_TEXTS if _parse_or_none(t) is not None]
        for text in texts + ["nil", " 12345 ", "read-bit", "read-exp", "(' x)", "+ 1 2"]:
            bits = text_bits(text + "\n")
            for budget in (0, 1, 2, 64, None):
                assert U.run(bits, budget) == lispu_run_without_data(bits, budget), \
                    (text, budget)

    @pytest.mark.parametrize("text", ["\tx", "x\r", "\x7fx", "x\x00", "\xe9", "x\u0101"])
    def test_atom_with_a_character_u_does_not_read(self, text):
        assert U.run(text_bits(text + "\n"), 64).reason == "parse-error"

    def test_atom_before_an_inner_newline_is_partial_consumption(self):
        assert U.run(text_bits("x\ny\n"), 64).reason == PARTIAL_CONSUMPTION

    @pytest.mark.parametrize("text", ["7", "x", " nil ", "12345"])
    def test_atom_with_data_is_partial_consumption(self, text):
        prefix = text_bits(text + "\n")
        assert U.run(prefix, 2).halted
        for data in bitstrings_up_to(8):
            if data:
                result = U.run(prefix + data, 64)
                assert result.reason == PARTIAL_CONSUMPTION, (text, data)


class TestToyDoubling:
    toy = ToyDoubling()

    def test_paper_codeword(self):
        result = self.toy.run("00001101")
        assert result.halted and result.value == (0, 0, 1)
        assert result.consumed == 8

    def test_empty_payload(self):
        result = self.toy.run("01")
        assert result.halted and result.value == ()

    def test_incomplete_program(self):
        assert self.toy.run("0").status == "invalid"
        assert self.toy.run("0000").status == "invalid"

    def test_wrong_terminator_rejected(self):
        assert not self.toy.run("10").halted
        assert not self.toy.run("0010").halted

    def test_trailing_bits_rejected(self):
        assert self.toy.run("011").reason == "partial-consumption"

    def test_domain_matches_oracle_up_to_12(self):
        for p in bitstrings_up_to(12):
            assert self.toy.run(p).halted == is_doubling_codeword(p), p

    def test_candidates_are_exactly_the_domain(self):
        assert [p for p, _ in self.toy.roots(12)] == sorted(toy_domain_up_to(12), key=lambda p: (len(p), p))

    def test_budget_is_irrelevant(self):
        assert self.toy.run("00001101", 0).halted


class TestToyNumeral:
    def test_decodes_binary_numerals(self):
        machine = ToyNumeral()
        assert machine.run("01").value == 0
        assert machine.run("1101").value == 1
        assert machine.run("11000001").value == 4

    def test_leading_zero_numerals_share_values(self):
        machine = ToyNumeral()
        assert machine.run("0001").value == 0

    def test_agrees_with_the_doubling_machine(self):
        toy, numeral = ToyDoubling(), ToyNumeral()
        for p in bitstrings_up_to(12):
            a, b = toy.run(p), numeral.run(p)
            if a.halted:
                digits = "".join(map(str, a.value))
                assert b == (a.status, int(digits, 2) if digits else 0, a.consumed, None), p
            else:
                assert b == a, p


class TestToyPair:
    def test_pairs(self):
        machine = ToyPair()
        assert machine.run("0101").value == ((), ())
        assert machine.run("1101001101").value == ((1,), (0, 1))

    def test_partial_rejected(self):
        assert not ToyPair().run("01").halted


class TestToyRoots:
    """The toys' streamed roots against their definition: the doubled
    codeword of every bit string, with the value run gives it."""

    @staticmethod
    def strings(max_len):
        return [format(i, f"0{n}b") if n else "" for n in range(max_len + 1) for i in range(1 << n)]

    @pytest.mark.parametrize("machine", [ToyDoubling(), ToyNumeral()], ids=lambda m: m.name)
    def test_roots_match_the_definition_through_20_bits(self, machine):
        reference = [(doubled(x) + "01", machine._output(x)) for x in self.strings(9)]
        for max_len in range(21):
            assert list(machine.roots(max_len)) == [r for r in reference if len(r[0]) <= max_len], max_len

    def test_pair_roots_match_the_definition_through_16_bits(self):
        reference = sorted(((doubled(x) + "01" + doubled(y) + "01", (bit_values(x), bit_values(y)))
                            for x in self.strings(6) for y in self.strings(6 - len(x))),
                           key=lambda r: (len(r[0]), r[0]))
        for max_len in range(17):
            assert list(ToyPair().roots(max_len)) == [r for r in reference if len(r[0]) <= max_len], max_len

    @pytest.mark.parametrize("machine", [ToyDoubling(), ToyNumeral()], ids=lambda m: m.name)
    def test_values_are_the_outputs_of_run(self, machine):
        """_values(n) streams what run's _output builds, exhaustively through
        16 decoded bits, so the two cannot drift apart (test_omega checks
        each settled root against its run)."""
        for n in range(17):
            strings = (format(i, f"0{n}b") if n else "" for i in range(1 << n))
            assert list(machine._values(n)) == list(map(machine._output, strings)), n

    def test_roots_stream_without_building_a_length(self):
        assert list(islice(ToyDoubling().roots(10_000), 3)) == [("01", ()), ("0001", (0,)), ("1101", (1,))]
        assert list(islice(ToyNumeral().roots(10_000), 3)) == [("01", 0), ("0001", 0), ("1101", 1)]


@pytest.mark.parametrize("machine", [ToyDoubling(), ToyNumeral(), ToyPair(), LispU(),
                                     ComposedUniversal([ToyDoubling(), ToyPair()]),
                                     build_computer([Requirement(1, 0), Requirement(2, 1)])],
                         ids=lambda m: m.name)
@pytest.mark.parametrize("program", ["0a", "2201", "01 ", "0x01"])
def test_non_bit_programs_are_rejected(machine, program):
    with pytest.raises(ValueError, match="not a bit string"):
        machine.run(program, 100)


@pytest.mark.parametrize("machine,program,checked", [
    (ToyDoubling(), "00001101", "00001101"), (ToyNumeral(), "11001101", "11001101"),
    (ToyPair(), "1101001101", "1101001101"),
    # the selector is checked by its own scan, the rest by the component
    (ComposedUniversal([ToyDoubling(), ToyPair()]), "01" + "1101001101", "1101001101"),
], ids=["toy", "toy-numeral", "toy-pair", "composed"])
def test_a_halting_toy_run_checks_its_program_once(machine, program, checked, monkeypatch):
    calls = []

    def counting(bits_):
        calls.append(bits_)
        return check_bits(bits_)

    monkeypatch.setattr(bits, "check_bits", counting)
    monkeypatch.setattr(universal, "check_bits", counting)
    assert machine.run(program).halted
    assert calls == [checked]


@pytest.mark.parametrize("program", ["0x1" + "00001101", "01" + "0000110x", "001" + "0x"],
                         ids=["selector", "rest", "past-the-machines"])
def test_a_composed_run_rejects_a_non_bit_anywhere(program):
    with pytest.raises(ValueError, match="not a bit string"):
        ComposedUniversal([ToyDoubling(), ToyPair()]).run(program)


class TestCompose:
    def test_k0_is_a_one_bit_prefix(self):
        comp = ComposedUniversal([ToyDoubling()])
        result = comp.run("1" + "00001101")
        assert result.halted and result.value == (0, 0, 1)
        assert result.consumed == 9

    def test_k1_doubling_decoder(self):
        comp = ComposedUniversal([ToyNumeral(), ToyDoubling()])
        result = comp.run("01" + "00001101")
        assert result.halted and result.value == (0, 0, 1)

    def test_all_zero_program_invalid(self):
        comp = ComposedUniversal([ToyDoubling()])
        assert comp.run("0000").reason == "out-of-data"
        assert comp.run("").reason == "out-of-data"

    def test_unknown_machine_index_invalid(self):
        comp = ComposedUniversal([ToyDoubling()])
        assert comp.run("01" + "01").reason == "parse-error"

    def test_simulation_overhead_is_exactly_k_plus_one(self):
        machines = [ToyDoubling(), ToyNumeral(), ToyPair()]
        comp = ComposedUniversal(machines)
        for k, machine in enumerate(machines):
            for q, _ in machine.roots(10):
                direct = machine.run(q)
                composed = comp.run("0" * k + "1" + q)
                assert composed.halted
                assert composed.value == direct.value
                assert composed.consumed == direct.consumed + k + 1

    def test_prefix_free_domain(self):
        comp = ComposedUniversal([ToyDoubling(), ToyNumeral()])
        domain = sorted(p for p in bitstrings_up_to(11) if comp.run(p).halted)
        for i, p in enumerate(domain):
            for q in domain[i + 1:]:
                assert not q.startswith(p) or p == q

    def test_exact_omega_combines(self):
        comp = ComposedUniversal([ToyDoubling(), ToyDoubling()])
        assert str(comp.exact_omega) == "3/8"


class TestRunResult:
    def test_defaults_and_positional_fields(self):
        assert RunResult("halted") == RunResult("halted", None, 0, None)
        result = RunResult("halted", (0, 1), 6)
        assert (result.status, result.value, result.consumed, result.reason) == \
            ("halted", (0, 1), 6, None)
        assert result.halted
        assert halted((0, 1), 6) == result

    def test_fields_cannot_be_assigned(self):
        result = halted(3, 4)
        for field in ("status", "value", "consumed", "reason"):
            with pytest.raises(AttributeError):
                setattr(result, field, None)
        assert result == RunResult("halted", 3, 4)

    @pytest.mark.parametrize("reason", [OUT_OF_DATA, PARSE_ERROR, PARTIAL_CONSUMPTION])
    def test_invalid_results_are_shared(self, reason):
        result = invalid(reason)
        assert result == invalid(reason) == RunResult("invalid", reason=reason)
        assert result is invalid(reason)
        assert not result.halted
        assert (result.status, result.value, result.consumed) == ("invalid", None, 0)

    def test_still_running_is_shared(self):
        result = still_running()
        assert result.status == "still-running"
        assert result == RunResult("still-running") and result is still_running()
        assert not result.halted

    def test_compares_equal_to_a_plain_tuple(self):
        assert halted(3, 4) == ("halted", 3, 4, None)

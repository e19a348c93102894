"""Complexity searches, elegance, pairing, theories, and the searcher."""

import hashlib
from dataclasses import replace

import pytest

from sdlisp import ait
from sdlisp.ait import (
    ExpressionSpace,
    H_upper,
    P_lower,
    SearchExhausted,
    berry_searcher,
    build_searcher,
    elegant_search,
    info_measures,
    lisp_complexity_upper,
    pair_prefix,
    pair_prefix_bits,
    pair_program,
    run_pair,
    run_theory,
    sound_mock_theory,
    unsound_mock_theory,
)
from sdlisp.bits import bitstrings_up_to
from sdlisp.dyadic import Dyadic
from sdlisp.interp import Budget, OutOfData, OutOfTime, Session, applies_as_nil, evaluate
from sdlisp.sexpr import (
    NIL,
    PRIMITIVE_ARITY,
    parse_full,
    parse_implicit,
    print_canonical,
    size_chars,
    to_bits,
)
from sdlisp.universal import (
    ComposedUniversal,
    LispU,
    ToyDoubling,
    ToyNumeral,
    ToyPair,
    still_running,
)

from oracles import (
    Env,
    ReferenceCtx,
    berry_malformed_reference,
    berry_searcher_reference,
    brute_force_elegance,
    evaluate_reference,
    first_witness,
    root_pairs,
    texts_of_size,
)
from test_interp import nil_in_one_step
from test_omega import _Blind, _seeded_kraft_machine

TOY = ToyDoubling()


class _Stalling(ToyDoubling):
    """The toy, except that one codeword runs on under every budget; its
    root is left to the run, so the walk sees it."""

    def __init__(self, stalled):
        self.stalled = stalled

    def run(self, program, budget=None):
        return still_running() if program == self.stalled else super().run(program, budget)

    def roots(self, max_len, budget=None):
        # one span per root, so the stalled one is left to its run alone
        for programs, values in super().roots(max_len, budget):
            for p, value in zip(programs, values):
                yield [p], None if p == self.stalled else [value]


@pytest.fixture
def reversed_layout(monkeypatch):
    """Each size's list groups in reverse: a size's nested heads, the first
    expressions to run out of time, come before its sums.  The cached sizes
    are built from the layout, so the cache is cleared around the test."""
    layout = ait._layout
    monkeypatch.setattr(ait, "_layout", lambda space, size: layout(space, size)[::-1])
    ait._space_of_size.cache_clear()
    yield
    ait._space_of_size.cache_clear()


class TestHUpper:
    def test_toy_is_exact_and_tight(self):
        record = H_upper((0, 0, 1), TOY, 10, None)
        assert record.size == 8 and record.exact
        assert record.witness == "00001101"

    def test_empty_string_costs_two_bits(self):
        record = H_upper((), TOY, 10, None)
        assert record.size == 2 and record.witness == "01"

    def test_witness_reproduces_target(self):
        for target in [(), (1,), (0, 1), (1, 1, 0, 1)]:
            record = H_upper(target, TOY, 12, None)
            assert TOY.run(record.witness).value == target

    def test_not_found_with_tiny_caps(self):
        with pytest.raises(SearchExhausted):
            H_upper(("a", "b"), LispU(), 8, 10)

    def test_lispu_record_is_exact_when_no_shorter_program_runs_on(self):
        # no root is shorter than 16 bits, so nothing shorter ran at all
        record = H_upper(0, LispU(), 16, 100)
        assert record.size == 16 and record.exact

    def test_still_running_shorter_program_makes_witness_inexact(self):
        machine = _Stalling("0001")  # the 4-bit codeword of (0)
        assert H_upper((), machine, 10, None).exact  # 2 bits, before it
        assert H_upper((1,), machine, 10, None).exact  # "1101": 4 bits, the same length
        record = H_upper((0, 0), machine, 10, None)
        assert record.witness == "000001" and not record.exact
        with pytest.raises(SearchExhausted):
            H_upper((0,), machine, 10, None)

    @pytest.mark.parametrize("machine, target, cap, budget", [
        (TOY, (0, 0, 1), 10, None),
        (ToyNumeral(), 5, 10, None),
        (ComposedUniversal([TOY, ToyPair()]), ((0,), (1,)), 16, None),
        (LispU(), 0, 16, 100),
        (_Stalling("0001"), (0, 0), 10, None),
    ])
    def test_run_only_wrapper_gives_the_same_record(self, machine, target, cap, budget):
        assert H_upper(target, _Blind(machine), cap, budget) == H_upper(target, machine, cap, budget)

    @pytest.mark.parametrize("seed", range(20))
    def test_seeded_kraft_machines_are_exact(self, seed):
        machine = _seeded_kraft_machine(seed)
        first = {}  # each output's first codeword in (length, bit) order
        for codeword, output in sorted(machine.assignments, key=lambda a: (len(a[0]), a[0])):
            first.setdefault(output, codeword)
        cap = max(map(len, first.values()), default=0)
        for output, codeword in first.items():
            record = H_upper(output, machine, cap, None)
            assert (record.witness, record.exact) == (codeword, True)

    def test_counting_bound_on_toy(self):
        # fewer than 2^k strings have a program shorter than k bits
        outputs = {}
        for p, _ in root_pairs(TOY, 12):
            result = TOY.run(p)
            outputs.setdefault(result.value, len(p))
        for k in range(0, 13):
            count = sum(1 for size in outputs.values() if size <= k)
            assert count < 2 ** k or (count == 0 and k == 0)

    def test_composition_overhead_bound(self):
        comp = ComposedUniversal([ToyNumeral(), TOY])
        for target in [(), (1, 0)]:
            direct = H_upper(target, TOY, 12, None)
            via_comp = H_upper(target, comp, 14, None)
            assert via_comp.size <= direct.size + 1 + 1


class TestLispComplexity:
    def test_numeral_is_its_own_program(self):
        record = lisp_complexity_upper(24, 4, 64)
        assert record.witness == 24 and record.size == 2

    def test_nil_is_three_chars(self):
        record = lisp_complexity_upper((), 4, 64)
        assert record.size == 3 and record.witness == ()

    def test_quote_form_for_data_list(self):
        space = ExpressionSpace(symbols=("'", "a", "b", "c"), numeral_limit=9)
        record = lisp_complexity_upper(("a", "b", "c"), 11, 64, space)
        assert record.size <= size_chars(parse_full("(' (a b c))"))
        session = Session()
        assert session.evaluate(record.witness, 64) == ("a", "b", "c")

    def test_upper_bound_coherence(self):
        space = ExpressionSpace(symbols=("'", "a", "nil"), numeral_limit=9)
        targets = [(), 5, "a", ("a", 1)]
        for x in targets:
            record = lisp_complexity_upper(x, size_chars(x) + 4, 128, space)
            assert record.size <= size_chars(("'", x))

    def test_not_found(self):
        with pytest.raises(SearchExhausted):
            lisp_complexity_upper(10 ** 9, 3, 16)

    @pytest.mark.parametrize("target", [81, parse_full("(1)"), 7, ()])
    def test_witness_after_runs_out_of_time(self, target):
        # the search shares one budget; each expression must still get
        # exactly its budget, as with a fresh budget apiece, and the
        # witness is exact when no smaller expression ran out of time
        space = ExpressionSpace(numeral_limit=9)
        for budget in (0, 1, 4, 64):
            text, out_of_time = first_witness(target, 8, budget, space.symbols, numeral_limit=9)
            if budget == 1 and target in (81, (1,)):
                assert out_of_time
            if text is None:
                with pytest.raises(SearchExhausted):
                    lisp_complexity_upper(target, 8, budget, space)
                continue
            record = lisp_complexity_upper(target, 8, budget, space)
            assert print_canonical(record.witness) == text
            assert record.size == len(text)
            assert record.exact == all(size >= len(text) for size in out_of_time)

    @pytest.mark.parametrize("numeral_limit", [9, None])
    @pytest.mark.parametrize("budget", [0, 1, 64, None])
    def test_nil_without_a_nil_symbol_is_a_settled_list(self, budget, numeral_limit):
        # (0) is the first list whose value is nil, and its block is settled
        # under any budget of a step or more; at budget 0 every list runs
        space = ExpressionSpace(symbols=("a", "+"), numeral_limit=numeral_limit)
        text, out_of_time = first_witness(NIL, 5, budget, space.symbols, numeral_limit)
        if text is None:
            assert budget == 0
            with pytest.raises(SearchExhausted):
                lisp_complexity_upper(NIL, 5, budget, space)
            return
        record = lisp_complexity_upper(NIL, 5, budget, space)
        assert text == "(0)"
        assert print_canonical(record.witness) == text
        assert record.size == len(text)
        assert record.exact == all(size >= len(text) for size in out_of_time)

    @pytest.mark.parametrize("numeral_limit", [9, 99, None])
    def test_numeral_and_other_targets_match_the_assembled_walk(self, numeral_limit):
        # a size's numerals are checked by membership, not walked: a numeral
        # target past the limit or the cap, a list and a symbol still get
        # the first witness of the assembled texts
        space = ExpressionSpace(symbols=("'", "a", "car"), numeral_limit=numeral_limit)
        for target in (0, 7, 10, 99, 100, 1234, parse_full("(1)"), "a", NIL):
            for budget in (0, 4):
                text, out_of_time = first_witness(target, 4, budget, space.symbols, numeral_limit)
                if text is None:
                    with pytest.raises(SearchExhausted):
                        lisp_complexity_upper(target, 4, budget, space)
                    continue
                record = lisp_complexity_upper(target, 4, budget, space)
                assert print_canonical(record.witness) == text
                assert record.size == len(text)
                assert record.exact == all(size >= len(text) for size in out_of_time)

    def test_same_size_out_of_time_keeps_the_witness_exact(self, reversed_layout):
        space = ExpressionSpace(numeral_limit=9)
        # at budget 2, (((0))) runs out of time before (* 2 9), both 7 chars
        record = lisp_complexity_upper(18, 7, 2, space)
        assert print_canonical(record.witness) == "(* 2 9)" and record.exact
        # at budget 1, ((0)) runs out of time first, at 5 chars
        record = lisp_complexity_upper(18, 7, 1, space)
        assert print_canonical(record.witness) == "(* 2 9)" and not record.exact


def _elegance_by_reference(char_cap, budget, space):
    """The listing, minimum sizes and elegant pairs, rebuilt from assembled
    texts with the reference evaluator and a fresh budget per expression."""
    session = Session()
    listing, min_size, elegant = {}, {}, []
    for size in range(1, char_cap + 1):
        for text in texts_of_size(size, space.symbols, space.numeral_limit):
            expr = parse_full(text)
            genv = Env(session.genv)
            ctx = ReferenceCtx(Budget(budget), None, [], genv, session.table)
            try:
                value = evaluate_reference(expr, genv, ctx)
            except (OutOfTime, OutOfData):
                continue
            listing[expr] = value
            if min_size.setdefault(value, size) == size:
                elegant.append((expr, value))
    return listing, min_size, tuple(elegant)


class TestElegance:
    def test_every_numeral_is_elegant(self):
        report = elegant_search(3, 64, ExpressionSpace(numeral_limit=999))
        for n in range(1000):
            assert (n, n) in set(report.elegant)

    def test_sum_form_is_not_elegant(self):
        space = ExpressionSpace(symbols=("+",), numeral_limit=99)
        report = elegant_search(7, 64, space)
        addition = parse_full("(+ 1 1)")
        assert addition in report.listing
        assert (addition, 2) not in report.elegant
        assert (2, 2) in report.elegant

    def test_matches_brute_force_oracle_at_cap_five(self):
        space = ExpressionSpace(numeral_limit=9999)
        report = elegant_search(5, 128, space)
        listing, min_size, elegant = brute_force_elegance(
            5, 128, space.symbols, numeral_limit=9999)
        assert report.listing == listing
        assert report.min_size == min_size
        assert set(report.elegant) == elegant

    @pytest.mark.parametrize("budget", [0, 1, 2, 3])
    def test_matches_brute_force_oracle_at_small_budgets(self, budget):
        # runs out of time are common here, and the oracle gives each
        # expression a fresh budget: no step may leak between expressions
        space = ExpressionSpace(numeral_limit=9)
        report = elegant_search(8, budget, space)
        listing, min_size, elegant = brute_force_elegance(
            8, budget, space.symbols, numeral_limit=9)
        assert report.listing == listing
        assert report.min_size == min_size
        assert set(report.elegant) == elegant

    def test_non_elegance_is_budget_monotone(self):
        space = ExpressionSpace(symbols=("+", "a"), numeral_limit=99)
        small = elegant_search(7, 8, space)
        large = elegant_search(7, 512, space)
        # collisions found at the small budget persist at the large one
        small_marks = {expr for expr, _ in small.elegant}
        large_marks = {expr for expr, _ in large.elegant}
        for expr in small.listing:
            if expr not in small_marks and expr in large.listing:
                assert expr not in large_marks

    def test_elegant_keeps_listing_order(self, capsys):
        # budget 2 cuts some runs, and (display) must print nothing.  The
        # oracle assembles every text, so the cap stays at 10: cap 11 costs
        # it about 15 times as long.
        space = ExpressionSpace(symbols=("display", "+", "a"), numeral_limit=9)
        report = elegant_search(10, 2, space)
        assert report.elegant == tuple(
            (e, v) for e, v in report.listing.items()
            if report.min_size[v] == size_chars(e))
        listing, min_size, _ = brute_force_elegance(10, 2, space.symbols, numeral_limit=9)
        assert report.listing == listing
        assert report.min_size == min_size
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("char_cap, budget, space", [
        (8, 0, ExpressionSpace(numeral_limit=9)),
        (8, 1, ExpressionSpace(numeral_limit=9)),
        (8, 2, ExpressionSpace(numeral_limit=9)),
        (8, 64, ExpressionSpace(numeral_limit=9)),
        # every list runs out of time, and every numeral keeps its value
        (4, 0, ExpressionSpace(numeral_limit=999)),
        (8, 128, ExpressionSpace(numeral_limit=9)),
    ])
    def test_matches_the_reference_evaluator(self, char_cap, budget, space):
        # brute_force_elegance evaluates with the package's own evaluator; this
        # one does not, so it sees a change to evaluate or to the search's loop
        report = elegant_search(char_cap, budget, space)
        listing, min_size, elegant = _elegance_by_reference(char_cap, budget, space)
        got = report.listing
        # no expression is listed twice, and every view reads in order
        assert len(got) == len(dict(got.items())) == len(listing)
        assert list(got) == list(got.keys()) == list(listing.keys())
        assert list(got.values()) == list(listing.values())
        assert list(got.items()) == list(listing.items())
        for view in (got.keys(), got.values(), got.items()):
            assert len(view) == len(listing) and list(view) == list(view)
        assert got == listing and listing == got
        assert got != {} and {} != got
        for expr, value in listing.items():
            assert expr in got and got[expr] == value
        missing = parse_full("(a b c d e f g h)")
        assert missing not in got and got.get(missing) is None
        with pytest.raises(KeyError):
            got[missing]
        assert report.min_size == min_size
        assert report.elegant == elegant


def _steps(expr, budget):
    """The steps *expr* takes under a fresh budget, whatever its outcome."""
    spent = Budget(budget)
    try:
        evaluate(expr, {}, Session()._ctx(spent))
    except (OutOfTime, OutOfData):
        pass
    return spent.used


class TestSearchBudget:
    """One budget totals a character search: every list costs its own steps,
    and a settled list costs its one step without a run."""

    @pytest.fixture
    def budgets(self, monkeypatch):
        made = []

        class Recorded(Budget):
            def __init__(self, limit=None):
                super().__init__(limit)
                made.append(self)

        monkeypatch.setattr(ait, "Budget", Recorded)
        return made

    @pytest.mark.parametrize("budget", [0, 1, 2, 64])
    def test_used_totals_every_expressions_steps(self, budgets, budget):
        space = ExpressionSpace(numeral_limit=9)
        expected = sum(_steps(e, budget) for size in range(1, 8) for e in space.of_size(size))
        elegant_search(7, budget, space)
        with pytest.raises(SearchExhausted):
            lisp_complexity_upper("zz", 7, budget, space)
        assert [b.used for b in budgets] == [expected, expected]


class TestExpressionSpace:
    @pytest.mark.parametrize("space, cap", [
        (ExpressionSpace(numeral_limit=99), 5),
        # a negative limit leaves no numeral of any width
        (ExpressionSpace(symbols=("a", "b", "car", "'"), numeral_limit=-1), 7),
        (ExpressionSpace(symbols=("nil", "a"), numeral_limit=9), 7),
    ])
    def test_of_size_yields_exactly_that_size(self, space, cap):
        sized = [(size, e) for size in range(1, cap + 1) for e in space.of_size(size)]
        assert sized
        assert all(size_chars(e) == size for size, e in sized)

    @pytest.mark.parametrize("space, cap", [
        (ExpressionSpace(), 5),
        (ExpressionSpace(numeral_limit=9), 8),
        (ExpressionSpace(symbols=("nil", "ab", "x", "+"), numeral_limit=3), 11),
    ])
    def test_of_size_keeps_the_oracle_order(self, space, cap):
        # the elegant tuple and the CLI's --list follow this order
        for size in range(1, cap + 1):
            texts = texts_of_size(size, space.symbols, space.numeral_limit)
            assert space.of_size(size) == tuple(map(parse_full, texts))

    @pytest.mark.parametrize("space, cap", [
        (ExpressionSpace(), 5),
        (ExpressionSpace(numeral_limit=9), 10),
        (ExpressionSpace(symbols=("nil", "ab", "x", "+"), numeral_limit=3), 11),
    ])
    def test_blocks_concatenate_to_of_size(self, space, cap):
        # the spans the searches walk are of_size in order, the atoms first;
        # a settled one is a block of lists whose one head applies as nil,
        # and needs a step
        genv = Session().genv
        for budget in (None, 0, 64):
            for size in range(1, cap + 1):
                spans = [(settled, exprs if settled else tuple(exprs))
                         for settled, exprs in ait._spans(space, size, genv, budget)]
                assert tuple(e for _, exprs in spans for e in exprs) == space.of_size(size)
                assert not any(type(e) is tuple and e != NIL for e in spans[0][1])
                for settled, exprs in spans:
                    if not settled:
                        continue
                    assert budget != 0 and type(exprs) is tuple
                    head = exprs[0][0]
                    assert all(type(e) is tuple and e != NIL and e[0] == head for e in exprs)
                    assert applies_as_nil(head, genv)

    def test_no_expression_has_fewer_than_one_char(self):
        space = ExpressionSpace()
        assert space.of_size(0) == space.of_size(-1) == ()

    def test_the_cache_holds_only_lists(self):
        # the atoms of a size, numerals above all, are made afresh from ranges
        space = ExpressionSpace()
        for k in range(1, 6):
            lists = ait._space_of_size(space, k)
            assert all(type(e) is tuple and e != NIL for e in lists)
            assert space.of_size(k) == (*space.atoms_of_size(k), *lists)

    def test_every_block_of_the_eight_char_space_is_settled_by_the_rule(self):
        # where a head applies as nil, its block's first list is nil in one
        # step, and where a compound head does not, that list is not.  A
        # primitive head gives nil in one step on some arguments, (car) for
        # one, so test_interp checks each primitive on a list where it does not.
        space = ExpressionSpace(numeral_limit=9)
        session = Session()
        settled = 0
        for size in range(1, 9):
            # the first span holds the size's atoms, each later one a block
            spans = list(ait._spans(space, size, session.genv, None))[1:]
            for is_settled, exprs in spans:
                first = next(iter(exprs))
                if is_settled:
                    settled += 1
                    assert nil_in_one_step(first, session)
                elif first[0] not in PRIMITIVE_ARITY:
                    assert not nil_in_one_step(first, session)
        assert settled

    @pytest.mark.parametrize("cap", [4, 6, 8, 10])
    def test_a_search_caches_only_the_sizes_it_builds_from(self, cap):
        # a list of size s is built from sizes <= s - 2, so a search to cap
        # c streams sizes c - 1 and c
        space = ExpressionSpace(numeral_limit=9)
        ait._space_of_size.cache_clear()
        elegant_search(cap, 128, space)
        assert ait._space_of_size.cache_info().currsize == cap - 2
        ait._space_of_size.cache_clear()
        with pytest.raises(SearchExhausted):
            lisp_complexity_upper("zz", cap, 64, space)
        assert ait._space_of_size.cache_info().currsize == cap - 2

    def test_a_head_bound_in_the_globals_is_not_settled(self):
        space = ExpressionSpace(numeral_limit=9)

        def settled_heads(genv):
            return {e[0] for settled, exprs in ait._spans(space, 5, genv, None)
                    if settled for e in exprs}

        assert "a" in settled_heads({})
        assert "a" not in settled_heads({"a": ("lambda", (), 5)})
        assert settled_heads({"a": ("lambda", (), 5)}) == settled_heads({}) - {"a"}

    def test_repeated_symbols_enumerate_once(self):
        once = ExpressionSpace(symbols=("a",), numeral_limit=0)
        twice = ExpressionSpace(symbols=("a", "a"), numeral_limit=0)
        exprs = [e for size in range(1, 6) for e in twice.of_size(size)]
        assert len(exprs) == len(set(exprs)) == 10
        assert elegant_search(5, 64, twice) == elegant_search(5, 64, once)

    @pytest.mark.parametrize("symbol", ["12", "a b", "()", "", " a"])
    def test_a_symbol_that_does_not_read_back_as_itself_raises(self, symbol):
        # "12" would print as the numeral 12, "a b" reads as two atoms
        with pytest.raises(ValueError, match="does not read back"):
            ExpressionSpace(symbols=("a", symbol), numeral_limit=20)

    def test_nil_and_primitives_read_back_as_themselves(self):
        space = ExpressionSpace(symbols=("nil", "'", "+", "a"), numeral_limit=20)
        assert space.symbols_of_size(1) == ["'", "+", "a"]
        assert space.symbols_of_size(3) == [NIL]


class TestPairing:
    def test_prefix_is_the_canonical_composer(self):
        assert print_canonical(pair_prefix()) == \
            "(cons (eval (read-exp)) (cons (eval (read-exp)) nil))"

    def test_prefix_is_432_bits(self):
        assert len(pair_prefix_bits()) == 432

    def test_read_bit_programs_pair_up(self):
        xstar = to_bits(parse_full("(read-bit)")) + "0"
        ystar = to_bits(parse_full("(read-bit)")) + "1"
        result = run_pair(xstar, ystar)
        assert result.halted and result.value == (0, 1)
        assert result.consumed == 432 + len(xstar) + len(ystar)

    def test_quote_nil_pairs(self):
        star = to_bits(parse_full("(' nil)"))
        result = run_pair(star, star)
        assert result.halted and result.value == ((), ())

    def test_pair_length_is_the_sum_plus_the_constant(self):
        xstar = to_bits(7)
        ystar = to_bits(parse_full("(' (a))"))
        assert len(pair_program(xstar, ystar)) == len(xstar) + len(ystar) + 432


class TestAlgorithmicProbability:
    def test_unique_program_mass(self):
        assert P_lower((0, 0, 1), TOY, 10, None) == Dyadic(1, 8)

    def test_unreachable_output_has_zero_mass(self):
        assert P_lower("frog", TOY, 10, None) == Dyadic(0)

    def test_easy_direction_p_at_least_two_to_minus_h(self):
        targets = [(), (1,), (0, 0), (1, 0, 1)]
        for x in targets:
            record = H_upper(x, TOY, 12, None)
            assert P_lower(x, TOY, 12, None) >= Dyadic.half_power(record.size)

    def test_multiple_programs_add_up(self):
        machine = ToyNumeral()
        # 0 decodes from the empty numeral and from every all-zero numeral
        mass = P_lower(0, machine, 6, None)
        assert mass == Dyadic(1, 2) + Dyadic(1, 4) + Dyadic(1, 6)

    @pytest.mark.parametrize("machine, x, cap, budget", [
        (TOY, (0, 0, 1), 10, None),
        (ToyNumeral(), 0, 6, None),
        (ComposedUniversal([TOY, ToyPair()]), ((0,), (1,)), 16, None),
        (LispU(), 0, 16, 64),
    ])
    def test_run_only_wrapper_gives_the_same_mass(self, machine, x, cap, budget):
        # the wrapper hides the roots, so every halting program comes from a run
        assert P_lower(x, _Blind(machine), cap, budget) == P_lower(x, machine, cap, budget) > 0


class TestInfoMeasures:
    machine = ComposedUniversal([ToyDoubling(), ToyPair()])

    def test_exact_on_composed_toys(self):
        report = info_measures((0,), (1,), self.machine, 16, None)
        assert report.exact
        assert report.h_x.size == 1 + 4
        assert report.h_xy.size == 2 + 4 + 4
        assert report.mutual == 0
        assert report.label == "exact"

    @pytest.mark.parametrize("x, y", [((0,), (1,)), ((), (1, 1))])
    def test_run_only_wrapper_gives_the_same_report(self, x, y):
        bare = info_measures(x, y, self.machine, 16, None)
        assert info_measures(x, y, _Blind(self.machine), 16, None) == bare
        assert bare.exact

    def test_equal_arguments_report(self):
        report = info_measures((), (), self.machine, 12, None)
        assert report.h_xy.size == 2 + 2 + 2
        assert report.mutual == (3 + 3) - 6

    def test_pairless_machine_cannot_do_joint(self):
        with pytest.raises(SearchExhausted):
            info_measures((0,), (1,), TOY, 12, None)


class TestTheories:
    def test_sound_theory_emits_numeral_theorems(self):
        run = run_theory(sound_mock_theory(), 120)
        assert not run.terminated
        assert run.theorems[:3] == (("elegant", 0), ("elegant", 1), ("elegant", 2))

    def test_captures_grow_with_budget(self):
        theory = sound_mock_theory()
        small = run_theory(theory, 100)
        large = run_theory(theory, 400)
        assert len(large.theorems) > len(small.theorems)
        assert large.theorems[:len(small.theorems)] == small.theorems

    def test_zero_budget_no_theorems(self):
        assert run_theory(sound_mock_theory(), 0).theorems == ()

    def test_terminating_source_is_flagged(self):
        run = run_theory(parse_full("(+ 1 1)"), 100)
        assert run.terminated and run.payload == 2


class TestBerry:
    def test_searcher_constant_is_stable(self):
        for theory, digest in (
            (sound_mock_theory(), "45e4f0191eb493f111a82864b9715ae0964d2c99184f597c68357238409eb685"),
            (unsound_mock_theory(), "287e2ddeb2b9f98254a4091bb5821829570e0e52e48c09352692187d099c9f70"),
        ):
            expr1, c1 = build_searcher(theory)
            expr2, c2 = build_searcher(theory)
            assert (expr1, c1) == (expr2, c2)
            assert size_chars(expr1) == size_chars(theory) + c1
            assert c1 == 355
            text = print_canonical(expr1)
            assert hashlib.sha256(text.encode()).hexdigest() == digest
            assert parse_full(text) == expr1

    def test_sound_theory_never_triggers(self):
        outcome = berry_searcher(sound_mock_theory(), [256, 1024, 4096])
        assert not outcome.found

    def test_unsound_theory_triggers_and_returns_the_value(self):
        outcome = berry_searcher(unsound_mock_theory(), [1 << 12, 1 << 16, 1 << 20])
        assert outcome.found
        assert outcome.theorem_size > outcome.threshold
        assert outcome.theorem[0] == "elegant"
        # the searcher's value is the oversized expression's value
        assert outcome.value == outcome.theorem[1]
        assert size_chars(outcome.value) == outcome.theorem_size

    def test_empty_theory_not_found(self):
        empty = parse_full("(let loop (lambda (l) (l l)) (loop loop))")
        outcome = berry_searcher(empty, [200, 800])
        assert not outcome.found


BERRY_THEORIES = {
    "sound": sound_mock_theory(),
    "unsound": unsound_mock_theory(),
    "loop": parse_full("(let loop (lambda (l) (l l)) (loop loop))"),
    "terminating": parse_full("(+ 1 1)"),
    # the unsound theory, displaying its counter after each claim: a
    # malformed theorem for every claim
    "unsound-malformed": parse_full(
        "(let pow (lambda (p k a) (if (= k 0) a (p p (- k 1) (* 10 a))))"
        " (let loop (lambda (l n)"
        " (let d (display (cons (' elegant) (cons (pow pow n 1) nil)))"
        " (let m (display n)"
        " (l l (+ n n)))))"
        " (loop loop 1)))"),
}
# ascending, descending, duplicated, empty and with 0; the unsound theory's
# searcher needs 34,084 steps, so its schedules straddle that
BERRY_SCHEDULES = {
    "sound": ([256, 1024, 4096], [4096, 1024, 256], [1024, 1024, 256, 256], [],
              [0], [0, 2048]),
    "unsound": ([1024, 4096, 40000, 1 << 20], [40000, 4096], [40000, 36000, 34084],
                [4096, 4096, 40000, 40000], [], [0], [0, 40000],
                [34083], [34084], [34083, 34084, 34085], [34085, 34084, 34083]),
    "loop": ([200, 800], [800, 200, 0], [], [0]),
    "terminating": ([1, 16, 256], [256, 16], [16, 16], [], [0, 64]),
    "unsound-malformed": ([4096, 65536, 1048576], [1048576]),
}


def _expected_berry(theory, schedule):
    """The rerunning searcher's outcome, with ``malformed`` counted in the
    winning round, as the host replay of the searcher's doubling counts it."""
    want = berry_searcher_reference(theory, schedule)
    return replace(want, malformed=berry_malformed_reference(theory) if want.found else 0)


class TestBerryOneRun:
    """One searcher run settles the schedule exactly as rerunning the
    searcher at each budget in turn does."""

    @pytest.mark.parametrize("theory,schedule", [
        pytest.param(theory, schedule, id=f"{theory}-[{','.join(map(str, schedule))}]")
        for theory, schedules in BERRY_SCHEDULES.items() for schedule in schedules])
    def test_agrees_with_the_rerunning_searcher(self, theory, schedule):
        got = berry_searcher(BERRY_THEORIES[theory], schedule)
        assert got == _expected_berry(BERRY_THEORIES[theory], schedule)

    def test_schedule_may_be_an_iterator(self):
        theory = BERRY_THEORIES["unsound"]
        got = berry_searcher(theory, iter([4096, 40000]))
        assert got == _expected_berry(theory, [4096, 40000])
        assert got.found and got.budget == 40000

    @pytest.mark.parametrize("schedule,budget", [([4096, 65536, 1048576], 65536),
                                                 ([1048576], 1048576)])
    def test_malformed_counts_the_winning_round_whatever_the_schedule(self, schedule, budget):
        # the winning round tries the theory for 16,384 steps and sees 11
        # counters; the schedule entry does not matter
        got = berry_searcher(BERRY_THEORIES["unsound-malformed"], schedule)
        assert (got.found, got.budget, got.malformed) == (True, budget, 11)

    def test_no_theory_runs_on_the_host(self, monkeypatch):
        calls = []

        def counting(theory, budget):
            calls.append(budget)
            return run_theory(theory, budget)

        monkeypatch.setattr(ait, "run_theory", counting)
        assert berry_searcher(unsound_mock_theory(), [4096, 65536, 1048576]).found
        assert calls == []

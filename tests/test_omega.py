"""Halting-probability estimates, the count trick, and the oracle."""

import heapq
import random
from fractions import Fraction
from itertools import repeat

import pytest

from sdlisp.ait import H_upper, SearchExhausted
from sdlisp.bits import bitstrings_up_to
from sdlisp.dyadic import Dyadic
from sdlisp.kraft import Allocator, Exhausted, KraftMachine, Requirement, build_computer
from sdlisp.omega import (
    Inconclusive,
    _walk,
    halting_oracle_from_omega,
    omega_lower_bound,
    omega_prime_lower,
    solve_halting_by_count,
)
from sdlisp.sexpr import SExprSyntaxError, parse_implicit, to_bits
from sdlisp.universal import (
    PARSE_ERROR,
    ComposedUniversal,
    LispU,
    ToyDoubling,
    ToyNumeral,
    ToyPair,
    halted,
    invalid,
    still_running,
)

from oracles import (
    UNSETTLED,
    dyadic_as_fraction,
    halted_by_suffix_enumeration,
    is_doubling_codeword,
    omega_by_enumeration,
    root_pairs,
    runs_reference,
    toy_omega_partial,
)


def runs(machine, max_len, budget):
    """The walk as (program, result) pairs, a result rebuilt for each
    halting program of its spans."""
    for p, outcome in _walk(machine, max_len, budget):
        if type(p) is str:
            yield p, outcome
        else:
            yield from zip(p, map(halted, outcome, repeat(len(p[0]))))


class _Blind:
    """Hides a machine's candidate enumeration to force blind dovetailing."""

    def __init__(self, machine):
        self._machine = machine

    def run(self, program, budget=None):
        return self._machine.run(program, budget)


TOY = ToyDoubling()


class TestLowerBound:
    def test_matches_analytic_partial_sums(self):
        for max_len in range(0, 17):
            estimate = omega_lower_bound(TOY, max_len, None)
            assert dyadic_as_fraction(estimate.value) == toy_omega_partial(max_len), max_len

    def test_fifteen_thirtyseconds_at_eight(self):
        estimate = omega_lower_bound(TOY, 8, 1000)
        assert str(estimate.value) == "15/32"
        assert estimate.value.bin_str() == "0.01111"

    def test_empty_domain_machine(self):
        class Never:
            def run(self, program, budget=None):
                from sdlisp.universal import invalid
                return invalid("out-of-data")
        estimate = omega_lower_bound(Never(), 0, 10)
        assert estimate.value == Dyadic(0)

    def test_matches_blind_enumeration_oracle(self):
        estimate = omega_lower_bound(_Blind(TOY), 10, None)
        assert dyadic_as_fraction(estimate.value) == omega_by_enumeration(TOY, 10, None)

    def test_candidate_and_blind_paths_agree(self):
        fast = omega_lower_bound(TOY, 12, None)
        slow = omega_lower_bound(_Blind(TOY), 12, None)
        assert fast.value == slow.value
        assert fast.halted == slow.halted

    def test_monotone_in_length_and_budget(self):
        values = {}
        for max_len in (2, 6, 10, 14):
            for budget in (1, 16, 256):
                values[max_len, budget] = omega_lower_bound(TOY, max_len, budget).value
        for (l1, t1), v1 in values.items():
            for (l2, t2), v2 in values.items():
                if l1 <= l2 and t1 <= t2:
                    assert v1 <= v2

    def test_bounded_by_one(self):
        assert omega_lower_bound(TOY, 20, None).value <= Dyadic(1)

    def test_converges_to_one_half(self):
        assert omega_lower_bound(TOY, 40, None).value == Dyadic(1, 1) - Dyadic(1, 21)

    def test_halted_set_is_prefix_free(self):
        halted = sorted(omega_lower_bound(TOY, 12, None).halted)
        for a, b in zip(halted, halted[1:]):
            assert not b.startswith(a)

    def test_lispu_candidates_match_blind_enumeration(self):
        u = LispU()
        fast = omega_lower_bound(u, 17, 64)
        slow = omega_lower_bound(_Blind(u), 17, 64)
        assert fast.value == slow.value
        assert set(fast.halted) == set(slow.halted)

    def test_lispu_monotone_and_bounded_at_24(self):
        u = LispU()
        previous = Dyadic(0)
        for max_len in (16, 20, 24):
            value = omega_lower_bound(u, max_len, 64).value
            assert previous <= value <= Dyadic(1)
            previous = value
        for budget in (8, 64, 512):
            value = omega_lower_bound(u, 20, budget).value
            assert value <= omega_lower_bound(u, 20, budget * 2).value


class _OneText(LispU):
    """U with a single candidate text, so the walk grows only its data."""

    def __init__(self, text):
        self.root = to_bits(parse_implicit(text))

    def roots(self, max_len, budget=None):
        return iter((([self.root], None),))


class TestRuns:
    def test_lispu_runs_each_halting_program_once(self):
        pairs = list(runs(LispU(), 24, 64))
        assert len({p for p, _ in pairs}) == len(pairs) == 9120
        assert sum(result.halted for _, result in pairs) == 8625
        # the other 495 are texts the reader rejects
        unparseable = [(p, result) for p, result in pairs if not result.halted]
        assert len(unparseable) == 495
        for p, result in unparseable:
            assert result == invalid(PARSE_ERROR)
            with pytest.raises(SExprSyntaxError):
                parse_implicit(int(p, 2).to_bytes(len(p) // 8, "big")[:-1].decode())

    def test_length_then_lexicographic_order(self):
        programs = [p for p, _ in runs(_Blind(TOY), 12, None)]
        assert programs == sorted(set(programs), key=lambda p: (len(p), p))

    def test_kraft_walk_stops_where_no_codeword_extends(self):
        from sdlisp.kraft import Requirement, build_computer
        machine = build_computer(
            [Requirement(2, "a"), Requirement(3, "b"), Requirement(3, ("c", 1))])
        programs = [p for p, _ in runs(_Blind(machine), 12, None)]
        assert programs == ["", "0", "1", "00", "01", "010", "011"]

    @pytest.mark.parametrize("text", [
        "read-bit", "(cons (read-bit) (read-bit))", "read-exp", "(size (read-exp))",
        # reads up to the first 1, so it halts at every data length up to the cap
        "(let f (lambda (g) (if (= (read-bit) 1) 0 (g g))) (f f))",
    ])
    def test_grown_data_equals_suffix_enumeration(self, text):
        machine = _OneText(text)
        estimate = omega_lower_bound(machine, len(machine.root) + 12, 64)
        assert estimate.halted == halted_by_suffix_enumeration([machine.root], 12, 64)


def _seeded_kraft_machine(seed):
    rng = random.Random(seed)
    allocator = Allocator()
    for i in range(rng.randrange(40)):
        try:
            allocator.request(Requirement(rng.randint(0, 12), rng.choice((i, ("k", i)))))
        except Exhausted:
            pass
    return KraftMachine(allocator.assigned)


# (id, machine, max_len, budget) for the walk against its reference
WALKS = [
    *((f"lispu-24-budget-{b}", LispU(), 24, b) for b in (0, 1, 2, 64)),
    ("lispu-blind-16", _Blind(LispU()), 16, 64),
    ("toy-20", ToyDoubling(), 20, None),
    ("toy-numeral-20", ToyNumeral(), 20, None),
    ("toy-pair-20", ToyPair(), 20, None),
    ("composed", ComposedUniversal([ToyDoubling(), ToyPair()]), 18, None),
    ("composed-rootless", ComposedUniversal([ToyNumeral(), _Blind(ToyPair()), ToyDoubling()]), 16, 5),
    *((f"kraft-{seed}", _seeded_kraft_machine(seed), random.Random(seed).randint(0, 13), None)
      for seed in range(20)),
]


class TestWalkAgainstReference:
    """runs against the bucket-and-sort walk that runs every root."""

    @pytest.mark.parametrize("machine, max_len, budget",
                             [w[1:] for w in WALKS], ids=[w[0] for w in WALKS])
    def test_same_runs_in_the_same_order(self, machine, max_len, budget):
        assert list(runs(machine, max_len, budget)) == list(runs_reference(machine, max_len, budget))

    @pytest.mark.parametrize("machine, max_len, budget",
                             [w[1:] for w in WALKS if hasattr(w[1], "roots")],
                             ids=[w[0] for w in WALKS if hasattr(w[1], "roots")])
    def test_settled_roots_agree_with_run(self, machine, max_len, budget):
        roots = list(root_pairs(machine, max_len, budget))
        assert [p for p, _ in roots] == sorted({p for p, _ in roots}, key=lambda p: (len(p), p))
        for p, value in roots:
            if value is not UNSETTLED:
                assert machine.run(p, budget) == halted(value, len(p)), p

    @pytest.mark.parametrize("budget", [0, 1, 64])
    def test_lispu_runs_every_root(self, budget):
        class Counted(LispU):
            calls = 0

            def run(self, program, budget=None):
                Counted.calls += 1
                return super().run(program, budget)

        # every printable text of one and two characters: 95 + 95 ** 2
        roots = list(root_pairs(LispU(), 24, budget))
        assert len(roots) == 9120
        assert all(value is UNSETTLED for _, value in roots)
        pairs = list(runs(Counted(), 24, budget))
        assert Counted.calls == len(pairs) == 9120
        assert [p for p, _ in pairs] == [p for p, _ in roots]
        if budget < 2:
            # run's early return comes before any reading, parseable or not
            assert all(result == still_running() for _, result in pairs)

    def test_a_settled_root_is_not_run(self):
        class Counted(ToyDoubling):
            calls = 0

            def run(self, program, budget=None):
                Counted.calls += 1
                return super().run(program, budget)

        estimate = omega_lower_bound(Counted(), 16, None)
        assert len(estimate.halted) == 255 and Counted.calls == 0

    def test_a_root_equal_to_the_one_before_raises(self):
        class Twice(ToyDoubling):
            def roots(self, max_len, budget=None):
                # each span as two halves that share its middle root
                for programs, values in super().roots(max_len, budget):
                    values, h = list(values), len(programs) // 2
                    yield programs[:h + 1], values[:h + 1]
                    yield programs[h:], values[h:]

        with pytest.raises(ValueError, match="Twice yields root '01' after '01'"):
            list(runs(Twice(), 10, None))

    @pytest.mark.parametrize("order", [("1", "0"), ("00", "1", "0"), ("01", "", "1")])
    def test_roots_out_of_order_raise(self, order):
        class Shuffled(ToyDoubling):
            def roots(self, max_len, budget=None):
                return (([p], None) for p in order)

        with pytest.raises(ValueError, match="Shuffled"):
            list(runs(Shuffled(), 4, None))


class _Headed(KraftMachine):
    """A Kraft machine whose roots also hold the first bit of each of its
    longer codewords, left to the run: the walk grows those bits, so their
    extensions fall inside the settled spans and meet the codewords there."""

    def roots(self, max_len, budget=None):
        heads = sorted({word[0] for word in self.codewords if len(word) > 1})
        spans = [([head], None) for head in heads] if max_len >= 1 else []
        return heapq.merge(spans, super().roots(max_len, budget),
                           key=lambda span: (len(span[0][0]), span[0][0]))


class TestSpans:
    """The span walk: the Ω fold against the reference walk, a settled span
    run with the extensions inside it, and spans out of order."""

    @pytest.mark.parametrize("machine, max_len, budget",
                             [w[1:] for w in WALKS], ids=[w[0] for w in WALKS])
    def test_omega_folds_the_reference_walk(self, machine, max_len, budget):
        halted = tuple(p for p, result in runs_reference(machine, max_len, budget) if result.halted)
        estimate = omega_lower_bound(machine, max_len, budget)
        assert estimate.halted == halted
        assert dyadic_as_fraction(estimate.value) == sum(Fraction(1, 2 ** len(p)) for p in halted)

    def test_extensions_cut_a_settled_span(self):
        requests = [Requirement(2, "a"), Requirement(3, "b"), Requirement(3, "c"), Requirement(2, "d")]
        machine = _Headed(build_computer(requests).assignments)
        assert machine.codewords == ["00", "010", "011", "10"]
        walk = list(runs(machine, 4, None))
        # "01" grows from the head "0" and falls between the roots "00" and
        # "10"; the extensions "00", "10", "010" and "011" are those roots
        assert [(p, result.status, result.value) for p, result in walk] == [
            ("0", "invalid", None), ("1", "invalid", None), ("00", "halted", "a"),
            ("01", "invalid", None), ("10", "halted", "d"), ("11", "invalid", None),
            ("010", "halted", "b"), ("011", "halted", "c")]
        assert walk == list(runs_reference(machine, 4, None))
        assert omega_lower_bound(machine, 4, None).halted == ("00", "10", "010", "011")

    def test_a_span_with_extensions_inside_runs_its_own_roots(self):
        class Rooted(KraftMachine):
            def roots(self, max_len, budget=None):
                yield ["01"], None
                yield from super().roots(max_len, budget)

        machine = Rooted([("000", "a"), ("011", "b"), ("110", "c")])
        walk = list(runs(machine, 3, None))
        # "010" and "011" grow from the run root "01" and fall between the
        # settled roots "000" and "110", which no extension reaches: the
        # span runs whole with them, "011" once
        assert [(p, result.status, result.value) for p, result in walk] == [
            ("01", "invalid", None), ("000", "halted", "a"), ("010", "invalid", None),
            ("011", "halted", "b"), ("110", "halted", "c")]
        assert walk == list(runs_reference(machine, 3, None))
        assert omega_lower_bound(machine, 3, None).value == Dyadic(3, 3)

    @pytest.mark.parametrize("seed", range(20))
    def test_cut_spans_match_the_reference(self, seed):
        machine = _Headed(_seeded_kraft_machine(seed).assignments)
        max_len = random.Random(seed).randint(0, 13)
        assert list(runs(machine, max_len, None)) == list(runs_reference(machine, max_len, None))
        halted = tuple(p for p, result in runs_reference(machine, max_len, None) if result.halted)
        assert omega_lower_bound(machine, max_len, None).halted == halted

    @pytest.mark.parametrize("spans", [
        [["1", "0"]], [["0", "0"]], [["0", "00"]], [["01"], ["00", "11"]]])
    def test_a_span_out_of_order_or_of_two_lengths_raises(self, spans):
        class Unordered(ToyDoubling):
            def roots(self, max_len, budget=None):
                return ((programs, None) for programs in spans)

        with pytest.raises(ValueError, match="Unordered"):
            list(runs(Unordered(), 4, None))


class TestCountSolver:
    def test_paper_trick_on_known_set(self):
        programs = ["01", "1101", "00", "10", "000011"]
        truth = [is_doubling_codeword(p) for p in programs]
        statuses = solve_halting_by_count(programs, sum(truth), TOY)
        assert statuses == ["halts" if t else "never-halts" for t in truth]

    def test_count_zero_is_immediate(self):
        assert solve_halting_by_count(["00", "11"], 0, TOY) == ["never-halts", "never-halts"]

    def test_all_halt(self):
        programs = ["01", "0001", "1101"]
        assert solve_halting_by_count(programs, 3, TOY) == ["halts"] * 3

    def test_overstated_count_is_inconclusive(self):
        with pytest.raises(Inconclusive):
            solve_halting_by_count(["00", "01"], 2, TOY, max_rounds=8)

    def test_a_settled_program_is_not_rerun(self):
        # halted and invalid are final under every larger budget, so only a
        # still-running program would be run again; a toy run never is
        calls = []

        class Counted(ToyDoubling):
            def run(self, program, budget=None):
                calls.append(program)
                return super().run(program, budget)

        programs = ["01", "00", "1101", "10", "0001"]
        statuses = solve_halting_by_count(programs, 3, Counted())
        assert statuses == ["halts", "never-halts", "halts", "never-halts", "halts"]
        assert sorted(calls) == sorted(programs)
        calls.clear()
        with pytest.raises(Inconclusive, match="only 3 of the promised 4 halted"):
            solve_halting_by_count(programs, 4, Counted())
        assert sorted(calls) == sorted(programs)

    def test_random_sets_against_membership_oracle(self):
        rng = random.Random(41)
        pool = list(bitstrings_up_to(10))
        for _ in range(50):
            programs = rng.sample(pool, 12)
            truth = [is_doubling_codeword(p) for p in programs]
            statuses = solve_halting_by_count(programs, sum(truth), TOY)
            assert statuses == ["halts" if t else "never-halts" for t in truth]


class TestOracleFromOmega:
    def test_classifies_up_to_six_bits(self):
        statuses = halting_oracle_from_omega(TOY, TOY.exact_omega, 6)
        assert len(statuses) == 2 ** 7 - 1
        for p, status in statuses.items():
            assert (status == "halts") == is_doubling_codeword(p), p

    def test_trivial_report_at_zero(self):
        statuses = halting_oracle_from_omega(TOY, TOY.exact_omega, 0)
        assert statuses == {"": "never-halts"}

    def test_wrong_omega_is_inconclusive(self):
        with pytest.raises(Inconclusive):
            halting_oracle_from_omega(TOY, Dyadic(3, 2), 6, max_rounds=16)


class TestEstimateInvariants:
    def test_value_is_exactly_the_mass_of_the_halted_set(self):
        from fractions import Fraction
        for machine, max_len in ((TOY, 14), (LispU(), 17), (ToyNumeral(), 10)):
            estimate = omega_lower_bound(machine, max_len, 64)
            mass = sum(Fraction(1, 2 ** len(p)) for p in estimate.halted)
            assert dyadic_as_fraction(estimate.value) == mass
            assert Dyadic(0) <= estimate.value <= Dyadic(1)

    def test_halted_sets_are_prefix_free(self):
        for machine, max_len in ((TOY, 12), (LispU(), 17)):
            halted = sorted(omega_lower_bound(machine, max_len, 64).halted)
            for a, b in zip(halted, halted[1:]):
                assert not b.startswith(a)

    def test_every_machines_halted_set_is_prefix_free(self):
        rng = random.Random(16)
        kraft_machine = build_computer([Requirement(rng.randint(8, 14), i) for i in range(200)])
        for machine, max_len, budget in (
                (LispU(), 24, 64), (TOY, 18, None), (ToyNumeral(), 18, None), (ToyPair(), 18, None),
                (ComposedUniversal([TOY, ToyPair()]), 18, None), (kraft_machine, 14, None)):
            halted = sorted(p for p, result in runs(machine, max_len, budget) if result.halted)
            assert halted, machine.name
            for a, b in zip(halted, halted[1:]):
                assert not b.startswith(a), (machine.name, a, b)
            # the walk never runs past a halted program, so ask the machine
            for p in halted:
                for bit in "01":
                    assert not machine.run(p + bit, budget).halted, (machine.name, p + bit)

    def test_composed_and_kraft_machines_agree_with_blind_oracle(self):
        kraft_machine = build_computer(
            [Requirement(2, "a"), Requirement(3, "b"), Requirement(3, ("c", 1))])
        composed = ComposedUniversal([TOY, ToyNumeral()])
        partly_blind = ComposedUniversal([TOY, _Blind(ToyNumeral())])
        for machine in (kraft_machine, composed, partly_blind, _Blind(kraft_machine)):
            estimate = omega_lower_bound(machine, 9, None)
            assert dyadic_as_fraction(estimate.value) == omega_by_enumeration(machine, 9, None)


class TestOmegaPrime:
    def test_lower_bound_over_small_range(self):
        # shortest numeral programs on the doubled-numeral machine:
        # 0 -> 2 bits, 1 -> 4 bits, 2 and 3 -> 6 bits
        bound = omega_prime_lower(ToyNumeral(), 3, 10, None)
        assert dyadic_as_fraction(bound) == Fraction(1, 4) + Fraction(1, 16) + 2 * Fraction(1, 64)

    def test_grows_with_range(self):
        m = ToyNumeral()
        assert omega_prime_lower(m, 1, 12, None) < omega_prime_lower(m, 5, 12, None)

    @pytest.mark.parametrize("machine, n_max, size_cap, budget, value", [
        (ToyNumeral(), 60, 28, None, "6109/16384"),
        (LispU(), 30, 24, 64, "2581/16777216"),
    ])
    def test_pinned_values(self, machine, n_max, size_cap, budget, value):
        assert omega_prime_lower(machine, n_max, size_cap, budget) == Dyadic.parse(value)

    @pytest.mark.parametrize("machine, n_max, size_cap, budget", [
        (ToyNumeral(), 60, 20, None),
        (LispU(), 30, 16, 8),
    ])
    def test_one_walk_agrees_with_a_search_per_natural(self, machine, n_max, size_cap, budget):
        terms = Fraction(0)
        for n in range(n_max + 1):
            try:
                terms += Fraction(1, 2 ** H_upper(n, machine, size_cap, budget).size)
            except SearchExhausted:
                pass
        assert terms > 0
        bound = omega_prime_lower(machine, n_max, size_cap, budget)
        assert dyadic_as_fraction(bound) == terms

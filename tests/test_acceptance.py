"""Acceptance criteria, one test per criterion.

Each test prints a PASS line with its elapsed time (visible with -s, or in
the captured output); every stated time bound is asserted, not just hoped
for.  Run as:

    pytest tests/test_acceptance.py -v -s
"""

import random
import time
from fractions import Fraction

import pytest

from sdlisp.ait import (
    ExpressionSpace,
    H_upper,
    berry_searcher,
    build_searcher,
    elegant_search,
    pair_prefix_bits,
    pair_program,
    run_pair,
    sound_mock_theory,
    unsound_mock_theory,
)
from sdlisp.bits import bitstrings_up_to
from sdlisp.dyadic import Dyadic
from sdlisp.encoders import DOUBLING, HEADER, TWO_HEADER
from sdlisp.interp import Budget, OutOfData, OutOfTime, Session, evaluate, run_source
from sdlisp.kraft import Allocator, Exhausted, Requirement
from sdlisp.omega import halting_oracle_from_omega, omega_lower_bound, solve_halting_by_count
from sdlisp.sexpr import QUOTE, parse_full, print_canonical, size_chars, to_bits
from sdlisp.universal import LispU, ToyDoubling, run_U

from oracles import brute_force_elegance, dyadic_as_fraction, is_doubling_codeword, toy_omega_partial

TOY = ToyDoubling()


class _Clock:
    def __init__(self, number, label, bound):
        self.number = number
        self.label = label
        self.bound = bound
        self.start = time.monotonic()

    def done(self):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.bound, f"criterion {self.number} took {elapsed:.1f}s"
        print(f"PASS criterion {self.number:2d} ({self.label}): {elapsed:.2f}s")


def test_01_paper_examples_exact():
    clock = _Clock(1, "paper examples, bit exact", 1.0)
    assert run_source("define (f n)\nif = n 0  1\n   * n (f - n 1)\n(f 4)")[-1] == ("value", 24)
    quoted = run_U(to_bits(parse_full("(' (a b c))")))
    assert quoted.halted and quoted.value == ("a", "b", "c")
    read0 = run_U(to_bits(parse_full("(read-bit)")) + "0")
    read1 = run_U(to_bits(parse_full("(read-bit)")) + "1")
    assert read0.halted and read0.value == 0
    assert read1.halted and read1.value == 1
    assert DOUBLING.decode_text("00001101") == ("001", 8)
    clock.done()


def test_02_pair_prefix_constant_432():
    clock = _Clock(2, "pair prefix is 432 bits", 1.0)
    assert size_chars(parse_full("(cons (eval (read-exp)) (cons (eval (read-exp)) nil))")) == 53
    assert len(pair_prefix_bits()) == 432
    clock.done()


def _program_library():
    programs = [to_bits(n) for n in (0, 1, 7, 24, 999)]
    programs += [
        to_bits(parse_full(text))
        for text in ["(' nil)", "(' (a b c))", "(' x)", "(+ 1 2)", "(* (+ 1 2) 3)"]
    ]
    programs += [to_bits(parse_full("(read-bit)")) + b for b in "01"]
    programs.append(to_bits(parse_full("(cons (read-bit) nil)")) + "1")
    programs.append(to_bits(parse_full("(read-exp)")) + to_bits(42))
    programs.append(to_bits(parse_full("(cons (read-exp) nil)")) + to_bits(("a", "b")))
    return programs


def test_03_subadditivity_witnesses():
    clock = _Clock(3, "pair programs halt on U", 10.0)
    library = _program_library()
    outputs = []
    for p in library:
        result = run_U(p, 10_000)
        assert result.halted, p
        outputs.append(result.value)
    pairs = 0
    for i, xstar in enumerate(library):
        for j, ystar in enumerate(library):
            if pairs >= 25:
                break
            program = pair_program(xstar, ystar)
            assert len(program) == len(xstar) + len(ystar) + 432
            result = run_U(program, 100_000)
            assert result.halted, (i, j)
            assert result.value == (outputs[i], outputs[j])
            pairs += 1
    assert pairs >= 20
    clock.done()


def test_04_codec_suite():
    clock = _Clock(4, "codec suite over all strings to length 10", 30.0)
    rng = random.Random(2024)
    every = list(bitstrings_up_to(10))
    assert len(every) == 2047
    for codec in (DOUBLING, HEADER, TWO_HEADER):
        words = []
        for x in every:
            encoded = codec.encode(x)
            words.append(encoded)
            junk = "".join(rng.choice("01") for _ in range(rng.randrange(0, 9)))
            assert codec.decode_text(encoded + junk) == (x, len(encoded))
        # exact length laws
        for x, w in zip(every, words):
            numeral_len = len(format(len(x), "b")) if x else 0
            if codec is DOUBLING:
                assert len(w) == 2 * len(x) + 2
            elif codec is HEADER:
                assert len(w) == 2 * numeral_len + 2 + len(x)
            else:
                assert len(w) == 2 * (len(format(numeral_len, "b")) if numeral_len else 0) \
                    + 2 + numeral_len + len(x)
        ordered = sorted(words)
        for a, b in zip(ordered, ordered[1:]):
            assert a != b and not b.startswith(a)
    clock.done()


def test_05_kraft_allocator_bulk():
    clock = _Clock(5, "10000 feasible + 1000 overflowing streams", 60.0)
    rng = random.Random(11)

    def assert_prefix_free(words):
        ordered = sorted(words)
        for a, b in zip(ordered, ordered[1:]):
            assert not b.startswith(a)

    for _ in range(10_000):
        allocator = Allocator()
        used = Fraction(0)
        words = []
        while True:
            s = rng.randrange(0, 10)
            if used + Fraction(1, 2 ** s) > 1:
                break
            words.append(allocator.request(Requirement(s, "o")))
            used += Fraction(1, 2 ** s)
            assert_prefix_free(words)
        assert allocator.measure_used() <= Dyadic.one()

    for _ in range(1_000):
        # fill to exactly 1 with 2^k equal blocks, then one more must fail
        k = rng.randrange(0, 6)
        allocator = Allocator()
        for _ in range(2 ** k):
            allocator.request(Requirement(k, "o"))
        overflow_size = rng.randrange(k, 10)
        with pytest.raises(Exhausted):
            allocator.request(Requirement(overflow_size, "o"))
        assert allocator.measure_used() == Dyadic.one()
    clock.done()


def test_06_omega_desk_scale():
    clock = _Clock(6, "omega bounds: toy exact, lispu monotone", 120.0)
    for max_len in range(0, 17):
        estimate = omega_lower_bound(TOY, max_len, 1000)
        assert dyadic_as_fraction(estimate.value) == toy_omega_partial(max_len), max_len
    assert str(omega_lower_bound(TOY, 8, 1000).value) == "15/32"
    grid = {}
    for max_len in (2, 6, 10, 14, 16):
        for budget in (1, 64, 1024):
            grid[max_len, budget] = omega_lower_bound(TOY, max_len, budget).value
    for (l1, t1), v1 in grid.items():
        for (l2, t2), v2 in grid.items():
            if l1 <= l2 and t1 <= t2:
                assert v1 <= v2
    # the exact value is known for the toy machine, so its leading bits are
    # certified and stable: 0.1000
    assert TOY.exact_omega.bin_str_fixed(4) == "0.1000"
    for max_len in (12, 14, 16):
        assert omega_lower_bound(TOY, max_len, None).value < TOY.exact_omega

    u = LispU()
    previous = Dyadic.zero()
    for max_len in (16, 20, 24):
        value = omega_lower_bound(u, max_len, 128).value
        assert previous <= value <= Dyadic.one()
        previous = value
    small = omega_lower_bound(u, 24, 16).value
    assert small <= omega_lower_bound(u, 24, 256).value <= Dyadic.one()
    clock.done()


def test_07_halting_by_count():
    clock = _Clock(7, "count side-information solves halting", 30.0)
    rng = random.Random(77)
    pool = list(bitstrings_up_to(12))
    for _ in range(100):
        programs = rng.sample(pool, rng.randrange(5, 25))
        truth = [is_doubling_codeword(p) for p in programs]
        statuses = solve_halting_by_count(programs, sum(truth), TOY)
        assert statuses == ["halts" if t else "never-halts" for t in truth]
    clock.done()


def test_08_omega_as_halting_oracle():
    clock = _Clock(8, "first bits of omega settle short programs", 30.0)
    statuses = halting_oracle_from_omega(TOY, TOY.exact_omega, 6)
    assert len(statuses) == 2 ** 7 - 1
    for p, status in statuses.items():
        assert (status == "halts") == is_doubling_codeword(p), p
    clock.done()


def test_09_elegance_matches_brute_force():
    clock = _Clock(9, "elegant search equals independent enumerator", 60.0)
    space = ExpressionSpace()
    report = elegant_search(6, 128, space)
    listing, min_size, elegant = brute_force_elegance(6, 128, space.symbols, None)
    assert report.listing == listing
    assert report.min_size == min_size
    assert set(report.elegant) == elegant
    assert (24, 24) in elegant
    clock.done()


def test_10_counting_bound():
    clock = _Clock(10, "fewer than 2^k strings have H <= k", 30.0)
    smallest = {}
    for p in bitstrings_up_to(12):
        result = TOY.run(p)
        if result.halted and result.value not in smallest:
            smallest[result.value] = len(p)
    for k in range(0, 13):
        count = sum(1 for size in smallest.values() if size <= k)
        assert count < 2 ** k or count == 0
        expected = 2 ** (k // 2) - 1 if k >= 2 else 0
        assert count == expected
    # spot-check the exhaustive map against the budgeted search
    for value, size in list(smallest.items())[:16]:
        assert H_upper(value, TOY, 12, None).size == size
    clock.done()


def test_11_berry_mechanism():
    clock = _Clock(11, "oversized-theorem searcher", 60.0)
    sound = sound_mock_theory()
    _, c1 = build_searcher(sound)
    _, c2 = build_searcher(sound)
    assert c1 == c2 and c1 > 0
    outcome = berry_searcher(sound, [512, 2048, 8192])
    assert not outcome.found

    unsound = unsound_mock_theory()
    _, c3 = build_searcher(unsound)
    assert c3 == c1  # the routine's own size does not depend on the theory
    hit = berry_searcher(unsound, [1 << 12, 1 << 16, 1 << 20])
    assert hit.found
    assert hit.theorem_size > hit.threshold == size_chars(unsound) + hit.searcher_constant
    assert hit.value == hit.theorem[1]
    assert hit.classic_constant == 410
    print(f"    searcher constant {hit.searcher_constant} (classic dialect: 410); "
          f"threshold {hit.threshold} < found size {hit.theorem_size}")
    clock.done()


# --- criterion 12: randomized interpreter properties ------------------------

ATOM_POOL = (0, 1, 2, 7, 40, "a", "b", "x", "true", "false", ())
SYM_POOL = ("a", "b", "x", "y")


def _gen(rng, depth, pure):
    if depth == 0 or rng.random() < 0.35:
        return rng.choice(ATOM_POOL)
    kind = rng.randrange(14 if pure else 17)
    g = lambda: _gen(rng, depth - 1, pure)
    if kind == 0:
        return ("if", g(), g(), g())
    if kind == 1:
        return ("let", rng.choice(SYM_POOL), g(), g())
    if kind == 2:
        return ("cons", g(), g())
    if kind == 3:
        return ("append", g(), g())
    if kind == 4:
        return (rng.choice(("car", "cdr", "cadr", "atom", "size")), g())
    if kind == 5:
        return (rng.choice(("=", "+", "-", "*", "<")), g(), g())
    if kind == 6:
        return (QUOTE, g())
    if kind == 7:
        return ("eval", (QUOTE, g()))
    if kind == 8:
        params = tuple(rng.sample(SYM_POOL, rng.randrange(1, 3)))
        return (("lambda", params, g()), *(g() for _ in params))
    if kind in (9, 10, 11, 12, 13):
        return (rng.choice(("cons", "+", "=")), g(), g())
    if kind == 14:
        return ("display", g())
    if kind == 15:
        data = (QUOTE, tuple(rng.randrange(2) for _ in range(rng.randrange(0, 4))))
        return ("try", rng.randrange(0, 64), (QUOTE, g()), data)
    return rng.choice((("read-bit",), ("read-exp",)))


def _outcome(expr, budget):
    session = Session()
    captures = []
    ctx = session._ctx(Budget(budget), stream=None, captures=captures)
    try:
        value = evaluate(expr, session.genv, ctx)
    except OutOfTime:
        return ("out-of-time",)
    except OutOfData:
        return ("out-of-data",)
    return ("ok", value, tuple(captures))


def test_12_interpreter_properties():
    clock = _Clock(12, "determinism, monotonicity, isolation, laziness", 120.0)
    rng = random.Random(1905)
    generated = 0

    # determinism: bit-for-bit identical reruns
    for _ in range(4000):
        expr = _gen(rng, 4, pure=False)
        generated += 1
        assert _outcome(expr, 128) == _outcome(expr, 128)

    # budget monotonicity: once it succeeds, more time changes nothing
    for _ in range(3000):
        expr = _gen(rng, 4, pure=False)
        generated += 1
        succeeded = None
        for budget in (4, 16, 64, 256, 1024):
            outcome = _outcome(expr, budget)
            if succeeded is not None:
                assert outcome == succeeded
            elif outcome[0] != "out-of-time":
                succeeded = outcome
        if succeeded is not None:
            assert _outcome(expr, 100_000) == succeeded

    # capture isolation: a nested TRY keeps its displays to itself
    session = Session()
    for _ in range(1500):
        inner = ("cons", ("display", 77), (QUOTE, _gen(rng, 2, pure=True)))
        outer = ("let", "u", ("try", 64, (QUOTE, inner), (QUOTE, ())),
                 ("display", 800))
        generated += 1
        status, payload, captures = session.try_expression(outer, 512, "")
        assert status == "success"
        assert captures == (800,)

    # if-laziness: only the chosen branch's displays happen
    for _ in range(1500):
        cond = _gen(rng, 2, pure=True)
        generated += 1
        expr = ("if", cond, ("display", 901), ("display", 902))
        outcome = _outcome(expr, 4096)
        if outcome[0] != "ok":
            continue
        chosen = _outcome(cond, 4096)
        if chosen[0] != "ok":
            continue
        expected = 901 if chosen[1] != "false" else 902
        assert outcome[2] == (expected,)
        assert outcome[1] == expected

    assert generated >= 10_000
    clock.done()

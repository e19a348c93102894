"""Nothing in the public surface may crash on arbitrary input.

Blind enumeration feeds the machines every bit string there is, and the
readers see every byte soup a stream can decode to; the contract is that
they either return a value or raise their own declared error, never
anything else.
"""

import os
import random
import string
import subprocess
import sys

import pytest

from sdlisp.bits import BitStream, OutOfData
from sdlisp.interp import MAX_DEPTH, Budget, OutOfTime, Session, Closure, evaluate, run_source
from sdlisp.sexpr import (
    QUOTE,
    SExprSyntaxError,
    parse_full,
    parse_implicit,
    print_canonical,
    read_exp_from_stream,
    size_chars,
    text_bits,
    to_bits,
)
from sdlisp.universal import LispU, RunResult, run_U


class TestParserTotality:
    ALPHABET = "()' abc019+-*=<\n\t" + "xyz"

    def test_random_token_soup_parses_or_raises_cleanly(self):
        rng = random.Random(4242)
        for _ in range(3000):
            text = "".join(rng.choice(self.ALPHABET) for _ in range(rng.randrange(0, 24)))
            for parser in (parse_full, parse_implicit):
                try:
                    result = parser(text)
                except SExprSyntaxError:
                    continue
                assert isinstance(result, (int, str, tuple))

    def test_non_ascii_rejected_cleanly(self):
        for text in ["\x7f", "café", "a\x00b"]:
            with pytest.raises(SExprSyntaxError):
                parse_full(text)

    def test_stream_soup_reads_or_raises_cleanly(self):
        rng = random.Random(77)
        for _ in range(2000):
            bits = "".join(rng.choice("01") for _ in range(rng.randrange(0, 80)))
            stream = BitStream(bits)
            try:
                expr = read_exp_from_stream(stream)
            except (OutOfData, SExprSyntaxError):
                continue
            assert isinstance(expr, (int, str, tuple))
            assert stream.pos % 8 == 0


class TestMachineTotality:
    def test_run_U_is_total_over_random_bits(self):
        rng = random.Random(90125)
        u = LispU()
        for _ in range(4000):
            p = "".join(rng.choice("01") for _ in range(rng.randrange(0, 48)))
            result = u.run(p, budget=rng.choice([0, 1, 7, 64, None]))
            assert result.status in ("halted", "still-running", "invalid")
            if result.halted:
                assert result.consumed == len(p)

    def test_biased_toward_valid_prefixes(self):
        # byte-aligned printable soup exercises the evaluator paths more
        rng = random.Random(31337)
        u = LispU()
        for _ in range(1500):
            chars = "".join(rng.choice("()' abc01+=x") for _ in range(rng.randrange(0, 6)))
            data = "".join(rng.choice("01") for _ in range(rng.randrange(0, 10)))
            p = "".join(format(ord(c), "08b") for c in chars) + format(10, "08b") + data
            result = u.run(p, budget=256)
            assert result.status in ("halted", "still-running", "invalid")
            if result.halted:
                assert result.consumed == len(p)


class TestWideAndDeepValues:
    """`size`, `bits`, the reader and the printer have no width or depth
    limit of their own: host limits never leak out of a run."""

    NINES = "9" * 2201  # its square has 4,402 digits, past CPython's str() cap

    def run(self, text, budget):
        return LispU().run(to_bits(parse_implicit(text)), budget)

    def test_bits_of_a_wide_product(self):
        result = self.run(f"bits * {self.NINES} {self.NINES}", 10)
        assert result.halted
        assert len(result.value) == 8 * 4403

    def test_size_of_a_wide_product(self):
        result = self.run(f"size * {self.NINES} {self.NINES}", 10)
        assert result.halted and result.value == 4402

    def test_wide_numeral_in_read_exp_data(self):
        n = (10 ** 4400 - 1) // 9 * 7  # 4,400 sevens
        result = LispU().run(to_bits(parse_implicit("read-exp")) + to_bits(n), 10)
        assert result.halted and result.value == n

    def test_size_of_a_deeply_nested_value(self):
        result = self.run(
            "let f (lambda (g n x) (if (= n 0) x (g g (- n 1) (cons x nil)))) "
            "(size (f f 20000 nil))", None)
        assert result.halted and result.value == 40003

    NEST = "let f (lambda (g n x) (if (= n 0) x (g g (- n 1) (cons x nil)))) "

    def test_equal_deep_values(self):
        result = self.run(self.NEST + "(= (f f 20000 nil) (f f 20000 nil))", None)
        assert result.halted and result.value == "true"

    @pytest.mark.parametrize("other", ["(f f 20000 0)", "(f f 19999 nil)", "(f f 20001 nil)"])
    def test_unequal_deep_values(self, other):
        result = self.run(self.NEST + f"(= (f f 20000 nil) {other})", None)
        assert result.halted and result.value == "false"


class TestClosuresAsData:
    def run(self, text, session=None):
        session = session or Session()
        return session.evaluate(parse_implicit(text, session.table), budget=10_000)

    def test_closures_print_as_their_form(self):
        f = self.run("lambda (x) (+ x 1)")
        assert print_canonical(f) == "(lambda (x) (+ x 1))"
        assert size_chars(f) == 20

    def test_size_and_equality_see_the_form(self):
        assert self.run("size (lambda (x) x)") == len("(lambda (x) x)")
        assert self.run("= (lambda (x) x) (' (lambda (x) x))") == "true"

    def test_closures_survive_list_surgery(self):
        out = self.run("((car (cons (lambda (x) (* x x)) nil)) 9)")
        assert out == 81

    def test_closure_carried_through_data_keeps_its_scope(self):
        out = self.run("let a 6 ((car (cons (lambda (x) (* x a)) nil)) 7)")
        assert out == 42

    def test_lambda_returned_from_try_is_usable(self):
        out = self.run("((cadr (try 99 (' (lambda (x) (+ x 2))) nil)) 5)")
        assert out == 7

    def test_self_call_inside_own_lambda_is_not_recursive(self):
        # the binding is made after the closure exists, so the inner name
        # is unbound and the application yields nil
        assert self.run("let f (lambda (x) (f x)) (f 1)") == ()

    def test_display_of_closure_is_plain_data(self):
        session = Session()
        status, payload, captures = session.try_expression(
            parse_implicit("display (lambda (x) x)"), 99, "")
        assert status == "success"
        assert captures == (("lambda", ("x",), "x"),)
        assert isinstance(captures[0], Closure)


class TestBudgetEdges:
    def test_unlimited_budget_never_counts(self):
        budget = Budget(None)
        for _ in range(5):
            budget.charge()
        assert budget.used == 0 and budget.limit is None

    def test_deep_nesting_within_budget(self):
        session = Session()
        expr = 1
        for _ in range(500):
            expr = ("+", 1, expr)
        assert session.evaluate(expr, budget=1000) == 501

    def test_host_stack_exhaustion_becomes_out_of_time_in_try(self):
        # a non-tail self-application recursion deeper than the host stack
        source = "(let f (lambda (g n) (+ 1 (g g n))) (f f 0))"
        status, payload, _ = Session().try_expression(parse_full(source), None, "")
        assert (status, payload) == ("failure", "out-of-time")


def _from_deeper(frames, call):
    """call() made from *frames* more Python frames than the caller's."""
    if frames == 0:
        return call()
    return _from_deeper(frames - 1, call)


def _nested(k, inner=0):
    """(+ 1 (+ 1 ... inner)) with k applications of +."""
    e = inner
    for _ in range(k):
        e = ("+", 1, e)
    return e


class TestDepthRule:
    """Nesting depth is counted against MAX_DEPTH, so a run's outcome is a
    function of the program and its budget alone, not of the host stack."""

    COUNT = "let f ' lambda (g n) if = n 0 0 + 1 (g g - n 1) (f f {})"
    DEEP_TEXT = "(" * 20000 + ")" * 20000

    @pytest.mark.parametrize("program, budget, expected", [
        (to_bits(parse_implicit(COUNT.format(3000))), None, RunResult("halted", 3000)),
        (to_bits(parse_implicit(COUNT.format(9994))), None, RunResult("still-running")),
        (to_bits(parse_implicit("size read-exp")) + text_bits(DEEP_TEXT + "\n"), None,
         RunResult("halted", 40001)),
        (text_bits("size '" + DEEP_TEXT + "\n"), None, RunResult("halted", 40001)),
        (text_bits(print_canonical(_nested(20000)) + "\n"), None, RunResult("still-running")),
        (text_bits(print_canonical(_nested(20000)) + "\n"), 10, RunResult("still-running")),
    ], ids=["count-3000", "count-9994", "read-exp-deep-data", "deep-quoted-text",
            "deep-code-text", "deep-code-text-budget-10"])
    def test_outcome_is_the_same_from_any_caller_depth(self, program, budget, expected):
        for frames in (0, 300):
            result = _from_deeper(frames, lambda: LispU().run(program, budget))
            assert (result.status, result.value, result.reason) == \
                (expected.status, expected.value, expected.reason)
            if result.halted:
                assert result.consumed == len(program)

    def test_depth_limit_is_exact(self):
        # the innermost (+ 1 0) of k nested forms is k - 1 levels deep
        assert Session().evaluate(_nested(MAX_DEPTH + 1)) == MAX_DEPTH + 1
        with pytest.raises(OutOfTime):
            Session().evaluate(_nested(MAX_DEPTH + 2))

    def test_a_quoted_operand_is_one_level_deeper(self):
        # the quote under k nested forms is k levels deep, and costs a step
        assert Session().evaluate(_nested(MAX_DEPTH, (QUOTE, 0))) == MAX_DEPTH
        with pytest.raises(OutOfTime):
            Session().evaluate(_nested(MAX_DEPTH + 1, (QUOTE, 0)))
        assert Session().evaluate(_nested(2, (QUOTE, 0)), budget=3) == 2
        with pytest.raises(OutOfTime):
            Session().evaluate(_nested(2, (QUOTE, 0)), budget=2)

    def test_try_counts_one_level(self):
        # try at level 1 runs its expression at level 2
        def tried(k):
            return ("cadr", ("try", "no-time-limit", (QUOTE, _nested(k)), ()))
        assert Session().evaluate(tried(MAX_DEPTH - 1)) == MAX_DEPTH - 1
        assert Session().evaluate(tried(MAX_DEPTH)) == "out-of-time"

    @pytest.mark.parametrize("limit", [None, 10 ** 9, MAX_DEPTH + 2])
    def test_innermost_try_takes_the_overrun_whatever_its_limit(self, limit):
        status, payload, _ = Session().try_expression(_nested(MAX_DEPTH + 2), limit, "")
        assert (status, payload) == ("failure", "out-of-time")

    def test_outer_try_sees_the_inner_failure(self):
        inner = ("try", "no-time-limit", (QUOTE, _nested(MAX_DEPTH)), ())
        status, payload, _ = Session().try_expression(("cadr", inner), 10 ** 6, "")
        assert (status, payload) == ("success", "out-of-time")

    def test_a_smaller_budget_runs_out_first(self):
        with pytest.raises(OutOfTime) as info:
            Session().evaluate(_nested(MAX_DEPTH + 2), budget=100)
        assert type(info.value) is OutOfTime

    def test_run_source_reports_too_deep_forms_as_out_of_time(self):
        deep = print_canonical(_nested(20000))
        assert run_source(f"{deep}\n(define x {deep})\nx\n5") == [
            ("error", "out-of-time"), ("error", "out-of-time"), ("value", "x"), ("value", 5)]

    def test_import_leaves_the_recursion_limit_alone(self):
        code = ("import sys; sys.setrecursionlimit(1234); import sdlisp; "
                "assert sys.getrecursionlimit() == 1234; "
                "from sdlisp.interp import MAX_DEPTH, Session; Session(); "
                "assert sys.getrecursionlimit() >= 2 * MAX_DEPTH; "
                "sys.setrecursionlimit(50000); Session(); "
                "assert sys.getrecursionlimit() == 50000")
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)

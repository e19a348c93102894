"""Evaluator semantics: primitives, budgets, TRY, captures."""

import time

import pytest

from sdlisp import interp
from sdlisp.interp import (
    Budget,
    Closure,
    OutOfData,
    OutOfTime,
    Session,
    applies_as_nil,
    run_source,
)
from sdlisp.sexpr import PRIMITIVE_ARITY, QUOTE, parse_full, parse_implicit, to_bits

FACTORIAL = "define (f n)\nif = n 0  1\n   * n (f - n 1)"


def ev(text, budget=None, session=None):
    session = session or Session()
    return session.evaluate(parse_implicit(text, session.table), budget)


class TestAtoms:
    def test_naturals_self_evaluate(self):
        assert ev("41") == 41

    def test_unbound_symbols_self_evaluate(self):
        assert ev("zebra") == "zebra"

    def test_nil_evaluates_to_nil(self):
        assert ev("nil") == ()

    def test_error_atoms_are_plain_symbols(self):
        for atom in ("out-of-time", "out-of-data", "success", "failure", "no-time-limit"):
            assert ev(atom) == atom


class TestPrimitives:
    def test_factorial_of_four(self):
        assert run_source(FACTORIAL + "\n(f 4)")[-1] == ("value", 24)

    def test_addition(self):
        assert ev("+ 1 2") == 3

    def test_subtraction_saturates(self):
        assert ev("- 2 5") == 0
        assert ev("- 5 2") == 3

    def test_arithmetic_coerces_non_numbers_to_zero(self):
        assert ev("+ a 3") == 3
        assert ev("* (' (1 2)) 5") == 0

    def test_comparison(self):
        assert ev("< 1 2") == "true"
        assert ev("< 2 1") == "false"

    def test_equality_is_deep(self):
        assert ev("= (' (a (b) 3)) (' (a (b) 3))") == "true"
        assert ev("= (' (a)) (' (b))") == "false"
        assert ev("= 1 (' 1)") == "true"

    def test_car_cdr_cadr(self):
        assert ev("car (' (a b))") == "a"
        assert ev("cdr (' (a b))") == ("b",)
        assert ev("cadr (' (a b))") == "b"

    def test_car_cdr_of_atom_give_the_atom(self):
        assert ev("car 5") == 5
        assert ev("cdr x") == "x"
        assert ev("car nil") == ()

    def test_cons_and_append(self):
        assert ev("cons a (' (b c))") == ("a", "b", "c")
        assert ev("cons a b") == ("a",)
        assert ev("append (' (1 2)) (' (3))") == (1, 2, 3)
        assert ev("append x (' (3))") == (3,)

    def test_atom_predicate(self):
        assert ev("atom 5") == "true"
        assert ev("atom nil") == "true"
        assert ev("atom (' (a))") == "false"

    def test_quote(self):
        assert ev("' (a b)") == ("a", "b")

    def test_if_only_false_atom_is_false(self):
        assert ev("if false 1 2") == 2
        assert ev("if true 1 2") == 1
        assert ev("if nil 1 2") == 1
        assert ev("if 0 1 2") == 1

    def test_size_and_bits(self):
        assert ev("size (' (a b c))") == 7
        assert ev("bits nil") == tuple(int(c) for c in to_bits(()))

    def test_lambda_value_is_its_own_form(self):
        f = ev("lambda (x) (+ x 1)")
        assert isinstance(f, Closure)
        assert f == ("lambda", ("x",), ("+", "x", 1))

    def test_let_binds_locally(self):
        assert ev("let x 3 (+ x x)") == 6
        assert ev("let x 3 (let x 4 x)") == 4

    def test_closures_capture_their_scope(self):
        assert ev("let a 5 (let f (lambda (x) (+ x a)) (let a 0 (f 1)))") == 6

    def test_data_lambda_applies_over_globals(self):
        session = Session()
        session.run_source("define g 7")
        assert ev("((car (' ((lambda (x) (+ x g))))) 1)", session=session) == 8

    def test_applying_non_functions_yields_nil(self):
        assert ev("(3 4)") == ()
        assert ev("(x 1 2)") == ()
        assert ev("((' (a b)) 1)") == ()

    def test_missing_arguments_read_as_nil(self):
        # under-applied forms are not writable in implicit notation, but
        # they are perfectly legal values to evaluate
        session = Session()
        assert session.evaluate(("+", 1)) == 1
        assert session.evaluate(("cons", ("'", "a"))) == ("a",)

    def test_extra_arguments_ignored(self):
        session = Session()
        assert session.evaluate(("+", 1, 2, 3)) == 3

    def test_define_in_expression_position_is_inert(self):
        session = Session()
        assert ev("define (h x) x", session=session) == "h"
        assert "h" not in session.genv


class TestGlobalsAndScope:
    """Locals shadow globals; globals are read when used, not when a closure
    is made."""

    def test_closure_sees_globals_defined_and_redefined_later(self):
        results = run_source(
            "(define x 1)"
            " (define f (let y 2 (lambda (z) (+ x (h y)))))"
            " (f 0)"
            " (define (h n) n)"
            " (f 0)"
            " (define x 5)"
            " (f 0)")
        assert [v for kind, v in results if kind == "value"] == [1, 3, 7]

    def test_parameters_and_let_shadow_globals(self):
        session = Session()
        session.run_source("define x 10\ndefine (g x) (+ x 1)")
        assert ev("(g 1)", session=session) == 2
        assert ev("let x 3 (+ x x)", session=session) == 6
        assert ev("let x 3 (g x)", session=session) == 4
        assert ev("let f (lambda (x) (* x 2)) (f 7)", session=session) == 14
        assert ev("x", session=session) == 10


class TestRunSource:
    def test_factorial_session(self):
        results = run_source(FACTORIAL + "\n(f 4)")
        assert results == [("define", "f"), ("value", 24)]

    def test_empty_source(self):
        assert run_source("") == []

    def test_cadr_hand_example(self):
        assert run_source("(cadr '(a b))") == [("value", "b")]

    def test_value_define(self):
        results = run_source("define x + 1 2\nx")
        assert results == [("define", "x"), ("value", 3)]

    def test_top_level_read_is_reported(self):
        assert run_source("read-bit") == [("error", "out-of-data")]

    def test_define_that_runs_out_of_data_binds_nothing(self):
        assert run_source("(define x (read-bit)) x 5") == [
            ("error", "out-of-data"), ("value", "x"), ("value", 5)]
        assert run_source("define x 1\ndefine x read-exp\nx") == [
            ("define", "x"), ("error", "out-of-data"), ("value", 1)]

    def test_top_level_display_emits(self):
        seen = []
        session = Session(emit=seen.append)
        session.run_source("display 7")
        assert seen == [7]


class TestBudgets:
    def test_atoms_are_free(self):
        session = Session()
        assert session.evaluate(parse_implicit("x"), budget=0) == "x"

    def test_lists_cost_one(self):
        session = Session()
        with pytest.raises(OutOfTime):
            session.evaluate(parse_implicit("(+ 1 2)"), budget=0)
        assert session.evaluate(parse_implicit("(+ 1 2)"), budget=1) == 3

    def test_if_does_not_evaluate_the_unchosen_branch(self):
        # the unchosen branch would cost steps; budget proves it never ran
        assert ev("if true 1 (+ 1 (+ 1 (+ 1 1)))", budget=2) == 1

    def test_budget_monotone_on_factorial(self):
        source = FACTORIAL + "\n(f 4)"
        session = Session()
        forms = list(parse_implicit(FACTORIAL, session.table) for _ in range(0))
        # find the minimal budget, then confirm identical value above it
        needed = None
        for t in range(1, 200):
            s = Session()
            s.run_source(FACTORIAL)
            try:
                value = s.evaluate(parse_implicit("(f 4)", s.table), budget=t)
            except OutOfTime:
                continue
            needed = t
            assert value == 24
            break
        assert needed is not None
        for t in (needed + 1, needed * 2, needed * 10):
            s = Session()
            s.run_source(FACTORIAL)
            assert s.evaluate(parse_implicit("(f 4)", s.table), budget=t) == 24


class TestAtomCalls:
    """An atom costs no step and no depth, so ``evaluate`` takes it in place:
    one call per non-atomic expression outside a tail position, none per
    atom, in head position, as an argument of a value primitive or of a
    lambda application or as an operand of a control form, and none per
    quoted argument of a value primitive."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        evaluate = interp.evaluate

        def counting(*args):
            seen.append(args[0])
            return evaluate(*args)

        monkeypatch.setattr(interp, "evaluate", counting)
        return seen

    @pytest.fixture
    def session(self):
        session = Session()
        session.run_source("define x 5\ndefine y ' (1 2)\ndefine (f a b) (cons a b)")
        return session

    @pytest.mark.parametrize("text, value, count", [
        ("(1 2 3)", (), 1),
        ("(nil 1 2)", (), 1),
        ("(zebra 1 2)", (), 1),
        ("(+ 1 2)", 3, 1),
        ("(+ x x)", 10, 1),
        ("(car y)", 1, 1),
        ("(cons x nil)", (5,), 1),
        ("(cons zebra y)", ("zebra", 1, 2), 1),
        ("(f 1 2)", (1,), 1),
        ("(f x y)", (5, 1, 2), 1),
        ("((lambda (a b) (+ a b)) 3 4)", 7, 2),
        ("((lambda (a b) (+ a b)) x x)", 10, 2),
        ("(+ (* 2 3) x)", 11, 2),
        ("(f (car y) (cdr y))", (1, 2), 3),
        ("(cons (' a) y)", ("a", 1, 2), 1),
        ("(= (car y) (' 1))", "true", 2),
        ("(f (' a) nil)", ("a",), 2),
    ])
    def test_one_call_per_non_atomic_expression(self, session, calls, text, value, count):
        expr = parse_full(text)
        calls.clear()
        assert session.evaluate(expr) == value
        assert len(calls) == count
        assert all(isinstance(e, tuple) and e for e in calls)

    @pytest.mark.parametrize("text, value, count", [
        ("(if x 1 2)", 1, 1),
        ("(if false 1 2)", 2, 1),
        ("(if (atom x) 1 2)", 1, 2),
        ("(let z x (+ z 1))", 6, 1),
        ("(let z nil z)", (), 1),
        ("(display y)", (1, 2), 1),
        ("(eval y)", (), 1),
        # the try's own run of its expression is the second call
        ("(try 5 x nil)", ("success", 5, ()), 2),
        ("(try x 7 y)", ("success", 7, ()), 2),
    ])
    def test_atom_operands_of_control_forms_are_read_in_place(self, session, calls, text,
                                                              value, count):
        expr = parse_full(text)
        calls.clear()
        assert session.evaluate(expr) == value
        assert len(calls) == count


def nil_in_one_step(expr, session=None) -> bool:
    """Whether *expr*, run over an empty local frame, is nil in exactly one
    step: nil under ``Budget(1)`` with ``used == 1``, and out of time under
    ``Budget(0)``."""
    session = session or Session()
    budget = Budget(1)
    try:
        value = interp.evaluate(expr, {}, session._ctx(budget))
    except (OutOfTime, OutOfData):
        return False
    if value != () or budget.used != 1:
        return False
    try:
        interp.evaluate(expr, {}, session._ctx(Budget(0)))
    except OutOfTime:
        return True
    return False


class TestAppliesAsNil:
    """The rule the character searches settle whole blocks of lists by: a
    list whose head applies as nil is nil in one step, whatever follows."""

    ARGUMENTS = [(), (1,), ("x",), (("+", 1, 2),), (("read-exp",), ("car", "x"), 7),
                 ((QUOTE, (1,)), ("lambda", ("x",), "x"))]

    @pytest.mark.parametrize("head", [0, 7, 123, (), "zebra", "true", "false", "a"])
    def test_a_settled_head_gives_nil_in_one_step_whatever_the_arguments(self, head):
        session = Session()
        assert applies_as_nil(head, session.genv)
        for args in self.ARGUMENTS:
            assert nil_in_one_step((head, *args), session)

    @pytest.mark.parametrize("name", sorted(PRIMITIVE_ARITY))
    def test_a_primitive_head_is_not_settled(self, name):
        assert not applies_as_nil(name, {})
        # some lists with a primitive head are nil in one step, (car) for
        # one, but not every list: this one is not, for any primitive
        assert not nil_in_one_step((name, (QUOTE, (1,)), "a", 1))

    @pytest.mark.parametrize("head", [(0,), (QUOTE, "a"), ("lambda", (), 5), ((),)])
    def test_a_compound_head_is_not_settled(self, head):
        assert not applies_as_nil(head, {})
        assert not nil_in_one_step((head, 1))

    def test_a_symbol_bound_in_the_session_is_not_settled(self):
        session = Session()
        session.run_source("define (f) 5\ndefine g 5")
        assert not applies_as_nil("f", session.genv)
        assert not applies_as_nil("g", session.genv)
        assert applies_as_nil("h", session.genv)
        assert session.evaluate(("f", 1)) == 5
        assert applies_as_nil("f", Session().genv)


WALK = "(let w (lambda (w l n) (if (atom l) n (w w (cdr l) (+ n 1)))) (w w (' ({})) 0))"


class TestSharedTails:
    """``cdr`` shares its list's tail; a caller only ever sees tuples."""

    @staticmethod
    def ev(text):
        return Session().evaluate(parse_full(text))

    @pytest.mark.parametrize("text, value", [
        ("(cdr (' (a b c)))", ("b", "c")),
        ("(cdr (cdr (' (a b c))))", ("c",)),
        ("(cdr (cdr (cdr (' (a b c)))))", ()),
        ("(let x (cdr (' (a b c))) x)", ("b", "c")),
        ("(cons (cdr (' (a b))) (cdr (' (c d))))", (("b",), "d")),
        ("(append (cdr (' (a b))) (cdr (' (c d))))", ("b", "d")),
        ("(try 9 (cdr (' (a car (' (1 2))))) nil)", ("success", 1, ())),
        ("(cdr (try 9 (' (display (cdr (' (a b))))) nil))", (("b",), (("b",),))),
    ])
    def test_a_shared_tail_reaches_the_host_as_a_tuple(self, text, value):
        got = self.ev(text)
        assert got == value
        assert type(got) is tuple and all(type(v) in (int, str, tuple) for v in got)

    @pytest.mark.parametrize("text, value", [
        ("(car (cdr (' (a b c))))", "b"),
        ("(cadr (cdr (' (a b c))))", "c"),
        ("(cadr (cdr (' (a b))))", ()),
        ("(atom (cdr (' (a b))))", "false"),
        ("(+ 1 (cdr (' (a b))))", 1),
        ("(if (cdr (' (a b))) 1 2)", 1),
        ("(= (cdr (' (a b c))) (' (b c)))", "true"),
        ("(size (cdr (' (a bc))))", 4),
        ("(eval (cdr (' (a + 1 2))))", 3),
        ("((cdr (' (0 lambda (x) (+ x 1)))) 4)", 5),
    ])
    def test_a_shared_tail_is_read_in_place_or_as_its_tuple(self, text, value):
        assert self.ev(text) == value

    def test_walking_a_long_list_by_cdr_is_linear(self):
        # each cdr copied the rest of the list before tails were shared:
        # 20 s for this walk, against 0.34 s (2 vCPUs, CPython 3.11.7)
        expr = parse_full(WALK.format(" 0" * 100_000))
        start = time.perf_counter()
        assert Session().evaluate(expr) == 100_000
        assert time.perf_counter() - start < 2


class TestTry:
    def ev_try(self, text, session=None):
        return ev(text, session=session)

    def test_zero_budget_fails_out_of_time(self):
        assert self.ev_try("try 0 (' (+ 1 2)) nil") == ("failure", "out-of-time", ())

    def test_zero_budget_atom_succeeds(self):
        assert self.ev_try("try 0 (' x) nil") == ("success", "x", ())

    def test_success_with_value(self):
        assert self.ev_try("try 99 (' (+ 1 2)) nil") == ("success", 3, ())

    def test_read_bit_from_data(self):
        assert self.ev_try("try no-time-limit (' (read-bit)) (' (1))") == ("success", 1, ())
        assert self.ev_try("try no-time-limit (' (read-bit)) (' (0))") == ("success", 0, ())

    def test_out_of_data(self):
        assert self.ev_try("try 9 (' (read-bit)) nil") == ("failure", "out-of-data", ())

    def test_captures_displays_in_order(self):
        out = self.ev_try("try 99 (' (cons (display 1) (cons (display 2) nil))) nil")
        assert out == ("success", (1, 2), (1, 2))

    def test_nonterminating_theory_keeps_its_displays(self):
        source = ("let loop (lambda (l n) (let d (display n) (l l (+ n 1)))) (loop loop 0)")
        status, payload, captures = self.ev_try(f"try 50 (' ({source})) nil")
        assert (status, payload) == ("failure", "out-of-time")
        assert captures[:3] == (0, 1, 2)

    def test_capture_isolation(self):
        text = ("try 200 (' (let inner (try 99 (' (display 7)) nil) (display 8))) nil")
        status, payload, captures = self.ev_try(text)
        assert status == "success"
        assert captures == (8,)
        assert payload == 8

    def test_inner_try_result_carries_its_own_captures(self):
        text = "try 200 (' (try 99 (' (display 7)) nil)) nil"
        status, payload, captures = self.ev_try(text)
        assert payload == ("success", 7, (7,))
        assert captures == ()

    def test_fresh_global_environment_hides_locals(self):
        assert self.ev_try("let x 5 (try 99 (' x) nil)") == ("success", "x", ())
        session = Session()
        session.run_source("define x 10")
        text = "let x 5 (let y 6 (try 99 (' (cons x (cons y nil))) nil))"
        assert self.ev_try(text, session=session) == ("success", (10, "y"), ())

    def test_eval_uses_global_not_local(self):
        assert ev("let x 5 (eval (' x))") == "x"
        session = Session()
        session.run_source("define x 12")
        assert ev("let x 5 (eval (' x))", session=session) == 12
        assert ev("((lambda (x y) (eval (' (cons x (cons y nil))))) 5 6)",
                  session=session) == (12, "y")

    def test_limit_that_is_not_a_number_or_marker_means_zero(self):
        assert self.ev_try("try frog (' (+ 1 2)) nil") == ("failure", "out-of-time", ())

    def test_outer_budget_exhaustion_propagates(self):
        # inner limit 1000 but outer only 10: the outer run dies, the TRY
        # does not convert the abort into its own value
        session = Session()
        with pytest.raises(OutOfTime):
            session.evaluate(
                parse_full("(try 1000 (' (let loop (lambda (l) (l l)) (loop loop))) nil)"),
                budget=10,
            )

    def test_inner_limit_within_outer_budget_is_a_value(self):
        session = Session()
        out = session.evaluate(
            parse_full("(try 5 (' (let loop (lambda (l) (l l)) (loop loop))) nil)"),
            budget=1000,
        )
        assert out == ("failure", "out-of-time", ())

    def test_no_time_limit_inherits_outer(self):
        session = Session()
        with pytest.raises(OutOfTime):
            session.evaluate(
                parse_full("(try no-time-limit (' (let loop (lambda (l) (l l)) (loop loop))) nil)"),
                budget=50,
            )

    def test_malformed_data_reads_as_zero_bits(self):
        assert self.ev_try("try 9 (' (read-bit)) (' (2 frog))") == ("success", 0, ())

    def test_run_utm_on_empty_bits_fails(self):
        assert ev("run-utm-on nil") == "out-of-data"

    def test_run_utm_on_numeral_program(self):
        assert run_source("run-utm-on bits 0") == [("value", 0)]


class TestDeterminism:
    def test_repeat_runs_agree(self):
        text = "try 64 (' (cons (display (+ 1 2)) (read-bit))) (' (1 0))"
        assert ev(text) == ev(text)

    def test_no_side_effects_between_evaluations(self):
        session = Session()
        expr = parse_implicit("cons (display 1) nil", session.table)
        first = session.evaluate(expr)
        second = session.evaluate(expr)
        assert first == second

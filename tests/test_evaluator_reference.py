"""The evaluator against its reference, on seeded random programs.

The package dispatches value primitives through one table and finds a name
in a flat dict of locals, then in the globals; the reference in ``oracles``
spells out every primitive in its own branch and walks a chain of frames.
On programs built from every primitive, ``lambda``, ``let`` and ``try``
over data that ``read-bit`` and ``read-exp`` consume, and over globals that
free names read, both must agree on the outcome, the value, the steps used,
the displayed values and the data read, at every budget.  The same runs
check that the evaluator is total, that every final outcome is
budget-monotone, and that every value and capture the package returns is
built of numerals, symbols and tuples alone: a tail that ``cdr`` shares
never escapes, which list walks feeding it to every form test hardest.
"""

import ast
import inspect
import random
import textwrap

from sdlisp import interp
from sdlisp.bits import BitStream, OutOfData
from sdlisp.interp import NO_TIME_LIMIT, Budget, Closure, OutOfTime, Session, evaluate
from sdlisp.sexpr import PRIMITIVE_ARITY, QUOTE, to_bits

from oracles import Env, ReferenceCtx, evaluate_reference

BUDGETS = (0, 1, 2, 7, 64, 1000)
VARIABLES = ("x", "y", "f")
VALUE_HEADS = ("car", "cdr", "cadr", "cons", "append", "atom", "=", "+", "-", "*", "<",
               "size", "bits")


def _control_forms():
    """The primitive names the if-chain of ``interp.evaluate`` compares the
    head against."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(interp.evaluate)))
    forms = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Compare) and isinstance(node.left, ast.Name)
                and node.left.id == "head" and isinstance(node.ops[0], ast.Eq)):
            right = node.comparators[0]
            if isinstance(right, ast.Constant):
                forms.add(right.value)
            else:
                forms.add(getattr(interp, right.id))
    return forms


def test_value_table_and_control_forms_cover_every_primitive_once():
    table = set(interp._VALUE_PRIMITIVES)
    forms = _control_forms()
    assert table == set(VALUE_HEADS)
    assert forms == {QUOTE, "if", "lambda", "let", "define", "eval", "display",
                     "read-bit", "read-exp", "try", "run-utm-on"}
    assert not table & forms
    assert table | forms == set(PRIMITIVE_ARITY)
    # the dispatcher evaluates one or two arguments
    assert {PRIMITIVE_ARITY[name] for name in table} == {1, 2}


def _bits(rng):
    """Data for read-bit and read-exp: an encoded expression, random bits,
    or both."""
    roll = rng.random()
    raw = "".join(rng.choice("01") for _ in range(rng.randrange(0, 12)))
    if roll < 0.5:
        expr = rng.choice((7, "x", (), (QUOTE, (1, 2)), ("+", 1, 2), ("read-bit",),
                           ("cons", ("read-bit",), ("read-bit",))))
        return to_bits(expr) + (raw if roll < 0.2 else "")
    return raw


def _leaf(rng):
    return rng.choice((
        lambda: rng.randrange(0, 12),
        lambda: rng.choice(VARIABLES),
        lambda: rng.choice(("nil", "true", "false", "a")),
        lambda: (QUOTE, rng.choice(((1, 2, 3), ("a", ("b",)), (), 5))),
        lambda: ("read-bit",),
        lambda: ("read-exp",),
    ))()


def random_program(rng, depth=4):
    if depth == 0 or rng.random() < 0.25:
        return _leaf(rng)

    def sub():
        return random_program(rng, depth - 1)

    kind = rng.randrange(10)
    if kind < 4:
        head = rng.choice(VALUE_HEADS)
        return (head, *(sub() for _ in range(PRIMITIVE_ARITY[head])))
    if kind == 4:
        return ("if", sub(), sub(), sub())
    if kind == 5:
        return ("let", rng.choice(VARIABLES), sub(), sub())
    if kind == 6:
        params = tuple(rng.sample(VARIABLES, rng.randrange(0, 3)))
        args = tuple(sub() for _ in range(rng.randrange(0, 3)))
        if rng.random() < 0.4:
            return (("lambda", params, sub()), *args)
        # a function that calls itself, maybe forever; its values grow by
        # at most one cell or one unit a call, so no run outgrows memory
        steps = tuple(rng.choice((("cdr", v), ("-", v, 1), ("+", v, 1), ("cons", 0, v), v))
                      for v in ("x", "y"))
        body = ("if", sub(), sub(), ("f", "f", *steps))
        return ("let", "f", ("lambda", ("f", "x", "y"), body), ("f", "f", *args))
    if kind == 7:
        limit = rng.choice((0, 1, 3, 10, NO_TIME_LIMIT, sub()))
        data = tuple(int(b) for b in _bits(rng))
        return ("try", limit, (QUOTE, sub()), (QUOTE, data))
    if kind == 8:
        return (rng.choice(("display", "eval")), sub())
    return rng.choice((
        lambda: (QUOTE, sub()),
        lambda: ("define", rng.choice(VARIABLES), sub()),
        lambda: ("eval", (QUOTE, sub())),
        lambda: ("run-utm-on", (QUOTE, tuple(int(b) for b in to_bits(sub())))),
    ))()


# Both evaluators run over the same globals: a value and a function, so a
# free ``y`` reads 3 and ``g`` applies.  No run can change them, since a
# define in expression position binds nothing.
GLOBALS = Session()
GLOBALS.run_source("define y 3\ndefine (g x) (cons x y)")


def _outcome(run, expr, budget, data):
    """(kind, value, steps used, displayed values, bits read)."""
    bud = Budget(budget)
    stream = BitStream(data)
    captures = []
    try:
        value = run(GLOBALS, expr, bud, stream, captures)
        kind = "value"
    except OutOfTime:
        value, kind = None, "out-of-time"
    except OutOfData:
        value, kind = None, "out-of-data"
    return kind, value, bud.used, tuple(captures), stream.pos


def assert_plain(value):
    """No shared tail escapes: *value* is built of numerals, symbols and
    tuples only (a ``Closure`` is a tuple)."""
    stack = [value]
    while stack:
        v = stack.pop()
        assert type(v) in (int, str, tuple, Closure), (type(v), value)
        if type(v) is not int and type(v) is not str:
            stack.extend(v)


def _package(session, expr, bud, stream, captures):
    try:
        value = evaluate(expr, {}, session._ctx(bud, stream=stream, captures=captures))
    finally:
        assert_plain(tuple(captures))
    assert_plain(value)
    return value


def _reference(session, expr, bud, stream, captures):
    genv = Env(session.genv)
    ctx = ReferenceCtx(bud, stream, captures, genv, session.table)
    return evaluate_reference(expr, genv, ctx)


def test_package_agrees_with_reference_on_random_programs():
    rng = random.Random(20031)
    kinds = set()
    for _ in range(4000):
        expr = random_program(rng)
        data = _bits(rng)
        final = None
        for budget in BUDGETS:
            got = _outcome(_package, expr, budget, data)
            assert got == _outcome(_reference, expr, budget, data), (expr, data, budget)
            kind = got[0]
            kinds.add(kind)
            # total: a value, out-of-time or out-of-data, nothing else
            assert kind in ("value", "out-of-time", "out-of-data")
            # budget-monotone: once a run ends other than out of time, every
            # larger budget gives the identical outcome
            if final is not None:
                assert got == final, (expr, data, budget)
            elif kind != "out-of-time":
                final = got
    assert kinds == {"value", "out-of-time", "out-of-data"}


def test_try_under_an_unlimited_budget_agrees_with_reference():
    # an unlimited budget never counts, so a try under it must give back the
    # steps its own limit counted
    rng = random.Random(20033)
    for _ in range(2000):
        program = random_program(rng)
        data = _bits(rng)
        expr = ("try", 64, (QUOTE, program), (QUOTE, tuple(int(b) for b in data)))
        got = _outcome(_package, expr, None, data)
        assert got == _outcome(_reference, expr, None, data), (program, data)
        assert got[0] == "value" and got[2] == 0


# Application heads the evaluator resolves without a primitive branch: a
# symbol head is looked up in place, any other head is evaluated.  Drawn from
# their own seeded stream; subexpressions come from random_program.
HEAD_KINDS = ("numeral", "global or unbound symbol", "let-bound value", "primitive bound by let",
              "quoted lambda", "closure as data", "computed head")


def random_application(rng, depth=3):
    def sub():
        return random_program(rng, depth - 1)

    kind = rng.choice(HEAD_KINDS)
    args = tuple(sub() for _ in range(rng.randrange(0, 4)))
    fn = ("lambda", tuple(rng.sample(VARIABLES, rng.randrange(0, 3))), sub())
    if kind == "numeral":
        expr = (rng.randrange(0, 12), *args)
    elif kind == "global or unbound symbol":
        expr = (rng.choice(("g", "nil", "true", "false", "lambda-ish")), *args)
    elif kind == "let-bound value":
        expr = ("let", "g", rng.choice((sub(), (QUOTE, (1, 2)), 5)), ("g", *args))
    elif kind == "primitive bound by let":
        # in head position the primitive wins; elsewhere the binding does
        name = rng.choice(sorted(PRIMITIVE_ARITY))
        call = (name, *(sub() for _ in range(PRIMITIVE_ARITY[name])))
        expr = ("let", name, rng.choice((fn, sub())), rng.choice((call, ("cons", name, call))))
    elif kind == "quoted lambda":
        # a plain lambda list is applied over the global environment
        expr = rng.choice((((QUOTE, fn), *args), ("let", "g", (QUOTE, fn), ("g", *args))))
    elif kind == "closure as data":
        expr = ("let", "g", fn, rng.choice((
            (("lambda", ("h",), ("h", *args)), "g"),
            (("car", ("cons", "g", ())), *args),
            ("cons", "g", ("g", *args)),
            ("let", "x", ("cons", "g", "x"), (("car", "x"), *args)),
            # bound one frame further out than the call
            ("let", rng.choice(VARIABLES), sub(), ("g", *args)),
        )))
    else:
        expr = (("if", sub(), fn, rng.choice((sub(), ()))), *args)
    return kind, expr


def test_package_agrees_with_reference_on_application_heads():
    rng = random.Random(20032)
    kinds = set()
    heads = set()
    for _ in range(4000):
        head_kind, expr = random_application(rng)
        heads.add(head_kind)
        data = _bits(rng)
        final = None
        for budget in BUDGETS:
            got = _outcome(_package, expr, budget, data)
            assert got == _outcome(_reference, expr, budget, data), (expr, data, budget)
            kind = got[0]
            kinds.add(kind)
            if final is not None:
                assert got == final, (expr, data, budget)
            elif kind != "out-of-time":
                final = got
    assert heads == set(HEAD_KINDS)
    assert kinds == {"value", "out-of-time", "out-of-data"}


# What a walk over a list by ``cdr`` does with the current tail ``l``, which
# the package holds as a shared tail: each use must read it as the tuple it
# stands for, wherever it is stored, compared, measured, run or returned.
TAIL_USES = {
    "=": lambda rng: ("=", "l", rng.choice(("l", ("cdr", "l"), (QUOTE, (1, 2)), 3))),
    "cons": lambda rng: rng.choice((("cons", "l", "l"), ("cons", 1, "l"), ("cons", "l", 2))),
    "append": lambda rng: rng.choice((("append", "l", ("cdr", "l")), ("append", "l", 5))),
    "size": lambda rng: ("size", rng.choice(("l", ("cdr", "l")))),
    "bits": lambda rng: ("bits", rng.choice(("l", ("cdr", "l")))),
    "display": lambda rng: ("display", rng.choice(("l", ("cdr", "l")))),
    "eval": lambda rng: ("eval", rng.choice(("l", ("cdr", "l")))),
    "try": lambda rng: ("try", rng.choice((0, 3, 20, NO_TIME_LIMIT)), rng.choice(("l", ("cdr", "l"))),
                        rng.choice(("l", ("cdr", "l")))),
    "let": lambda rng: ("let", "x", rng.choice(("l", ("cdr", "l"))),
                        rng.choice(("x", ("car", "x"), ("cons", "x", ()), ("atom", "x")))),
    "if": lambda rng: ("if", rng.choice(("l", ("cdr", "l"))), 1, 2),
    "head": lambda rng: (rng.choice(("l", ("cdr", "l"))), rng.randrange(0, 12), "l"),
}


def _list_item(rng):
    """An item of a walked list; some tails of the list are code: a value
    primitive's call, a bit read, or a lambda form."""
    return rng.choice((
        lambda: rng.randrange(0, 12),
        lambda: rng.choice(("a", "l", "+", "car", "cdr", "atom", "false", "nil", "read-bit")),
        lambda: rng.choice(((1, 2), ("+", 1, 2), ("cdr", (QUOTE, (1, 2, 3))), ("read-bit",))),
        lambda: ("lambda", ("x",), ("cons", "x", "x")),
    ))()


def random_walk(rng):
    """A quoted list of 0-40 items, walked by a self-applying lambda over
    ``cdr`` that feeds the current tail to one to three of TAIL_USES each
    step, and returns what it gathered or, stopping early, the tail itself
    (read at depth 0)."""
    items = [_list_item(rng) for _ in range(rng.randrange(0, 41))]
    if items and rng.random() < 0.3:
        # a tail that is a lambda form, for the head position to apply
        at = rng.randrange(len(items))
        items[at:] = ["lambda", ("x",), ("+", "x", 1)]
    uses = rng.sample(sorted(TAIL_USES), rng.randint(1, 3))
    gathered = "acc"
    for use in uses:
        gathered = ("cons", TAIL_USES[use](rng), gathered)
    done = rng.choice(("acc", "l", ("cdr", "l"), ("cons", "l", "acc")))
    body = ("if", ("atom", "l"), "acc",
            ("if", ("<", ("size", "acc"), rng.choice((10, 100, 1000))),
             ("w", "w", ("cdr", "l"), gathered), done))
    walk = ("let", "w", ("lambda", ("w", "l", "acc"), body),
            ("w", "w", (QUOTE, tuple(items)), ()))
    return uses, walk


def test_package_agrees_with_reference_on_list_walks():
    rng = random.Random(20034)
    kinds = set()
    used = set()
    for _ in range(2000):
        uses, expr = random_walk(rng)
        used.update(uses)
        data = _bits(rng)
        final = None
        for budget in BUDGETS:
            got = _outcome(_package, expr, budget, data)
            assert got == _outcome(_reference, expr, budget, data), (expr, data, budget)
            kinds.add(got[0])
            if final is not None:
                assert got == final, (expr, data, budget)
            elif got[0] != "out-of-time":
                final = got
    assert used == set(TAIL_USES)
    assert kinds == {"value", "out-of-time", "out-of-data"}

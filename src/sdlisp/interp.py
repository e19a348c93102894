"""Evaluator for the dialect: environments, step budgets, display capture,
and the TRY mechanism with self-delimiting binary data.

The evaluator is total over its value domain: every run either produces a
value, runs out of time, or runs out of data.  That is what makes blind
enumeration of programs meaningful, so the conventions for ill-typed
applications all yield values instead of aborting:

* applying anything that is not a three-element ``(lambda (params) body)``
  form yields nil; missing arguments read as nil and extras are ignored;
* car/cdr of an atom give the atom back; cons and append treat a non-list
  tail as nil;
* arithmetic treats non-numbers as 0, and subtraction floors at 0;
* only the atom ``false`` is false to ``if``.

The value primitives, whose result depends only on their evaluated
arguments (``car cdr cadr cons append atom = + - * < size bits``), are
entries of one table, each with its argument count from ``PRIMITIVE_ARITY``,
the table the reader drops parentheses by; ``evaluate`` keeps a branch only
for the forms that steer evaluation or use the context.

``evaluate`` is the hot loop of every search, so it makes no call per step
that it can do without: it charges the step inline, with
:meth:`Budget.charge` as the rule's specification, fetches arguments by
index against one ``len``, and takes an atom in head position, as an
argument of a value primitive or of a lambda application, or as an operand
of ``if``, ``let``, ``display``, ``eval`` or ``try``, in place (an atom costs
no step and no depth): a numeral or nil as itself, a symbol as its binding
in the local frame, else in the session's globals, else itself.  A quoted
argument of a value primitive is read in place too; it still costs its
step, and at the depth limit it goes through ``evaluate``'s own rule.

``cdr`` shares its list, as ``cdr`` over cells does in McCarthy's LISP:
``cdr`` of a list of two or more items is a shared tail (:class:`_Rest`),
its items from some index on, not a copy, so walking a list by ``cdr`` costs
O(1) host work a step.  A shared tail lives only in local frames (``let``
and a lambda application bind it as it is) and in ``evaluate``'s own
intermediate results.  ``car``, ``cdr``, ``cadr`` and ``atom`` read it in
place, arithmetic reads it as any non-number, and an ``if`` test as any
value but ``false``.  It becomes the tuple it stands for, and nowhere else,
before it is stored in a tuple (``cons``, ``append``, a ``display`` capture,
the ``try`` triple), compared or measured (``=``, ``size``, ``bits``), run
as code (``eval``, ``try``'s expression and data, a head that may be a
lambda form), or returned to the host (``evaluate`` at depth 0, and the
value of a ``try``).  So no tuple ever holds one, and every value a caller
sees is made of numerals, symbols and tuples.  ``cons`` and ``append`` still
copy.

A local frame is one flat dict of every local binding in scope: ``let``
copies it with one name added, and a lambda application copies its
closure's.  A copy costs at most the number of distinct names in the
program text, which a chain of frames would pay per lookup instead; search
frames hold about six names, while a 16,000-deep tail ``let`` chain takes
2 s (0.03 s as a chain; 2 vCPUs, CPython 3.11.7).  A closure *is* the
S-expression ``(lambda (params) body)`` (:class:`Closure` subclasses
tuple), so function values print, compare, and hash like any other value.
It keeps its local frame but reads the globals when applied, so it sees a
later top-level ``define``; one narrowing: applied in another
:class:`Session`, it reads that session's globals.  A plain lambda list
arriving as data, ``eval`` and ``try`` run over the globals alone, so a
program fed to the universal computer means the same anywhere.

A run owns one :class:`Budget`, and a ``try`` lowers its ceiling for the
run of its expression (see :func:`_try`): an inner ``try`` never outlasts
an outer one, and running out of an outer ceiling is the outer's failure.

Nesting depth is counted like steps: an argument, a condition or the
expression a ``try`` runs is one level deeper, a tail position (``if``
branches, ``let`` and lambda bodies, ``eval``) is not.  A non-atomic
expression more than :data:`MAX_DEPTH` levels deep ends the run out-of-time
(:class:`DepthExceeded`); the innermost enclosing ``try`` returns that as
``(failure out-of-time ...)`` whatever its limit.  So an outcome depends on
the program, its data and its budget, never on the caller's host stack.
"""

from __future__ import annotations

import sys

from .bits import BitStream, OutOfData, bits_to_sexpr
from .sexpr import (
    NIL,
    QUOTE,
    PRIMITIVE_ARITY,
    ArityTable,
    SExpr,
    SExprSyntaxError,
    iter_forms,
    read_exp_from_stream,
    size_chars,
    to_bits,
)

# A level costs at most two host frames (evaluate, and _try's for a try;
# nothing else recurses on nesting).  Session makes room for them plus 2,000
# frames of caller headroom, 10,000 in all, which CPython 3.10 and 3.11 run
# on a default stack; a caller deeper than that gets Python's own stack
# error, never a different outcome.
MAX_DEPTH = 4000
_RECURSION_LIMIT = 2 * MAX_DEPTH + 2000

TRUE = "true"
FALSE = "false"
SUCCESS = "success"
FAILURE = "failure"
OUT_OF_TIME = "out-of-time"
OUT_OF_DATA = "out-of-data"
NO_TIME_LIMIT = "no-time-limit"


class OutOfTime(Exception):
    """Raised when the step budget is exhausted."""


class DepthExceeded(OutOfTime):
    """Raised when evaluation nests more than MAX_DEPTH levels deep."""


class Budget:
    """A step allowance: one step per non-atomic expression evaluated.

    A run owns one budget.  ``limit`` is None for an unlimited budget, which
    never counts; a ``try`` lowers ``limit`` while its expression runs.
    """

    __slots__ = ("limit", "used")

    def __init__(self, limit: int | None = None):
        self.limit = limit
        self.used = 0

    def charge(self) -> None:
        """Spend one step, or raise OutOfTime if none is left.  ``evaluate``
        inlines this; it is the rule's written form."""
        if self.limit is not None:
            if self.used >= self.limit:
                raise OutOfTime()
            self.used += 1


class Closure(tuple):
    """A function value: the lambda form itself, plus its local frame.

    Being a tuple, it is structurally the S-expression (lambda params body);
    only application looks at the attached environment.
    """

    def __new__(cls, form: tuple, env: dict[str, SExpr]):
        self = super().__new__(cls, form)
        self.env = env
        return self


class _Ctx:
    """Everything one evaluation threads along besides the local frame."""

    __slots__ = ("budget", "stream", "genv", "table", "emit", "watch", "watched")

    def __init__(self, budget, stream, genv, table, emit=None):
        self.budget = budget
        self.stream = stream
        self.genv = genv
        self.table = table
        self.emit = emit
        # a try run from this context whose expression is *watch* leaves its
        # captures in *watched* (see _try); a try's own context watches nothing
        self.watch = None
        self.watched = None


class _Rest:
    """A shared tail: the items of *base* from index *start* on, with
    ``1 <= start < len(base)``, standing for ``base[start:]`` without the
    copy.  Only ``cdr`` makes one; see the module docstring for where it
    becomes that tuple."""

    __slots__ = ("base", "start")

    def __init__(self, base: tuple, start: int):
        self.base = base
        self.start = start


def _plain(v: SExpr) -> SExpr:
    """*v*, with a shared tail made the tuple it stands for."""
    return v.base[v.start:] if type(v) is _Rest else v


def _list(v: SExpr) -> tuple:
    """*v* as a plain list, or nil when it is an atom."""
    if isinstance(v, tuple):
        return v
    return v.base[v.start:] if type(v) is _Rest else NIL


def _arg(e: tuple, i: int) -> SExpr:
    return e[i] if i < len(e) else NIL


def _nat(v: SExpr) -> int:
    return v if type(v) is int else 0


def _coerce_data(v: SExpr) -> str:
    if not isinstance(v, tuple):
        return ""
    return "".join("1" if b == 1 and b is not True else "0" for b in v)


def _equal(a: SExpr, b: SExpr) -> bool:
    """Structural equality, a shared tail read as its tuple.  Python's == on
    two tuples recurses on the host stack, so lists are compared with an
    explicit stack."""
    if type(a) is _Rest:
        a = a.base[a.start:]
    if type(b) is _Rest:
        b = b.base[b.start:]
    if not (isinstance(a, tuple) and isinstance(b, tuple)):
        return a == b
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        if isinstance(x, tuple) and isinstance(y, tuple):
            if len(x) != len(y):
                return False
            stack.extend(zip(x, y))
        elif isinstance(x, tuple) or isinstance(y, tuple) or x != y:
            return False
    return True


def _car(v: SExpr) -> SExpr:
    if type(v) is _Rest:
        return v.base[v.start]
    return v[0] if isinstance(v, tuple) and v else v


def _cdr(v: SExpr) -> SExpr:
    if type(v) is _Rest:
        base, start = v.base, v.start + 1
    elif isinstance(v, tuple) and v:
        base, start = v, 1
    else:
        return v
    return _Rest(base, start) if start < len(base) else NIL


def _cadr(v: SExpr) -> SExpr:
    if type(v) is _Rest:
        base, start = v.base, v.start + 1
    elif isinstance(v, tuple) and v:
        base, start = v, 1
    else:
        return v
    return base[start] if start < len(base) else NIL


# size and bits call through this module's globals, so that a wrapper
# installed on them sees every call.  Each entry is (function, arity), the
# arity read from PRIMITIVE_ARITY, so dispatch is one lookup.  car, cdr,
# cadr and atom read a shared tail in place, and + - * < read it as any
# other non-number; the rest take it as a tuple.
_VALUE_PRIMITIVES = {name: (fn, PRIMITIVE_ARITY[name]) for name, fn in {
    "car": _car,
    "cdr": _cdr,
    "cadr": _cadr,
    "cons": lambda a, d: (_plain(a), *_list(d)),
    "append": lambda a, b: _list(a) + _list(b),
    "atom": lambda v: FALSE if type(v) is _Rest or isinstance(v, tuple) and v else TRUE,
    "=": lambda a, b: TRUE if _equal(a, b) else FALSE,
    "+": lambda a, b: _nat(a) + _nat(b),
    "-": lambda a, b: max(0, _nat(a) - _nat(b)),
    "*": lambda a, b: _nat(a) * _nat(b),
    "<": lambda a, b: TRUE if _nat(a) < _nat(b) else FALSE,
    "size": lambda v: size_chars(_plain(v)),
    "bits": lambda v: bits_to_sexpr(to_bits(_plain(v))),
}.items()}


def applies_as_nil(head: SExpr, genv: dict[str, SExpr]) -> bool:
    """Whether every list with this head, run over an empty local frame and
    the globals *genv*, is nil in one step whatever its arguments: the head
    is a numeral, nil, or a symbol neither primitive nor bound in *genv*.
    ``evaluate`` inlines this; it is the rule's written form."""
    if type(head) is str:
        return head not in PRIMITIVE_ARITY and head not in genv
    return type(head) is int or head == NIL


def evaluate(e: SExpr, env: dict[str, SExpr], ctx: _Ctx, depth: int = 0) -> SExpr:
    while True:
        if type(e) is int:
            return e
        if type(e) is str:
            v = env[e] if e in env else ctx.genv.get(e, e)
            return v if depth else _plain(v)
        n = len(e)
        if not n:
            return NIL

        if depth > MAX_DEPTH:
            raise DepthExceeded()
        budget = ctx.budget  # Budget.charge, inlined
        if budget.limit is not None:
            if budget.used >= budget.limit:
                raise OutOfTime()
            budget.used += 1
        head = e[0]
        if type(head) is str:
            entry = _VALUE_PRIMITIVES.get(head)
            if entry is not None:
                fn, arity = entry
                a = e[1] if n > 1 else NIL
                if type(a) is str:
                    a = env[a] if a in env else ctx.genv.get(a, a)
                elif type(a) is not int and a:
                    if a[0] == QUOTE and depth < MAX_DEPTH:
                        if budget.limit is not None:  # a quote's step
                            if budget.used >= budget.limit:
                                raise OutOfTime()
                            budget.used += 1
                        a = a[1] if len(a) > 1 else NIL
                    else:
                        a = evaluate(a, env, ctx, depth + 1)
                if arity == 1:
                    return fn(a) if depth else _plain(fn(a))
                b = e[2] if n > 2 else NIL
                if type(b) is str:
                    b = env[b] if b in env else ctx.genv.get(b, b)
                elif type(b) is not int and b:
                    if b[0] == QUOTE and depth < MAX_DEPTH:
                        if budget.limit is not None:  # a quote's step
                            if budget.used >= budget.limit:
                                raise OutOfTime()
                            budget.used += 1
                        b = b[1] if len(b) > 1 else NIL
                    else:
                        b = evaluate(b, env, ctx, depth + 1)
                return fn(a, b)
            if head in PRIMITIVE_ARITY:
                if head == QUOTE:
                    return e[1] if n > 1 else NIL
                if head == "if":
                    cond = e[1] if n > 1 else NIL
                    if type(cond) is str:
                        cond = env[cond] if cond in env else ctx.genv.get(cond, cond)
                    elif type(cond) is not int and cond:
                        cond = evaluate(cond, env, ctx, depth + 1)
                    i = 2 if cond != FALSE else 3
                    e = e[i] if i < n else NIL
                    continue
                if head == "display":
                    v = e[1] if n > 1 else NIL
                    if type(v) is str:
                        v = env[v] if v in env else ctx.genv.get(v, v)
                    elif type(v) is not int and v:
                        v = evaluate(v, env, ctx, depth + 1)
                    v = _plain(v)
                    if ctx.emit is not None:
                        ctx.emit(v)
                    return v
                if head == "lambda":
                    return e if isinstance(e, Closure) else Closure(e, env)
                if head == "let":
                    name = e[1] if n > 1 else NIL
                    value = e[2] if n > 2 else NIL
                    if type(value) is str:
                        value = env[value] if value in env else ctx.genv.get(value, value)
                    elif type(value) is not int and value:
                        value = evaluate(value, env, ctx, depth + 1)
                    if isinstance(name, str):
                        env = {**env, name: value}
                    e = e[3] if n > 3 else NIL
                    continue
                if head == "define":
                    # Bindings happen at the top level; in expression position a
                    # define form is inert and evaluates to the name it mentions.
                    sig = e[1] if n > 1 else NIL
                    if isinstance(sig, tuple) and sig and isinstance(sig[0], str):
                        return sig[0]
                    return sig if isinstance(sig, str) else NIL
                if head == "eval":
                    x = e[1] if n > 1 else NIL
                    if type(x) is str:
                        x = env[x] if x in env else ctx.genv.get(x, x)
                    elif type(x) is not int and x:
                        x = evaluate(x, env, ctx, depth + 1)
                    e = _plain(x)
                    env = {}
                    continue
                if head == "read-bit":
                    if ctx.stream is None:
                        raise OutOfData("no binary data in this context")
                    return int(ctx.stream.read(1))
                if head == "read-exp":
                    if ctx.stream is None:
                        raise OutOfData("no binary data in this context")
                    try:
                        return read_exp_from_stream(ctx.stream, ctx.table)
                    except SExprSyntaxError as exc:
                        # Inside a computation, undecodable data is just bad
                        # data; the outcome vocabulary stays closed.
                        raise OutOfData(str(exc)) from exc
                if head == "try":
                    operands = []
                    for x in e[1:4]:
                        if type(x) is str:
                            x = env[x] if x in env else ctx.genv.get(x, x)
                        elif type(x) is not int and x:
                            x = evaluate(x, env, ctx, depth + 1)
                        operands.append(_plain(x))
                    limit, tried, data = (*operands, NIL, NIL, NIL)[:3]
                    return _try(tried, limit, _coerce_data(data), ctx, depth + 1)
                if head == "run-utm-on":
                    e = ("cadr", ("try", NO_TIME_LIMIT, (QUOTE, ("eval", ("read-exp",))),
                                  e[1] if n > 1 else NIL))
                    continue
            # a symbol in head position is looked up here, as evaluate would:
            # an atom costs no step and no depth
            f = env[head] if head in env else ctx.genv.get(head, head)
        elif type(head) is int or not head:
            return NIL  # a numeral or nil is itself, and applies as nil
        else:
            f = evaluate(head, env, ctx, depth + 1)
        if type(f) is _Rest:
            f = f.base[f.start:]
        if isinstance(f, tuple) and len(f) == 3 and f[0] == "lambda":
            params = f[1] if isinstance(f[1], tuple) else ()
            frame = dict(f.env) if isinstance(f, Closure) else {}
            for i, p in enumerate(params, 1):
                v = e[i] if i < n else NIL
                if type(v) is str:
                    v = env[v] if v in env else ctx.genv.get(v, v)
                elif type(v) is not int and v:
                    v = evaluate(v, env, ctx, depth + 1)
                if isinstance(p, str):
                    frame[p] = v
            env = frame
            e = f[2]
            continue
        return NIL


def _try(expr: SExpr, limit: SExpr, data: str, ctx: _Ctx, depth: int = 0) -> SExpr:
    """Run *expr* over the globals alone, with its own data stream.

    Returns the outcome triple.  A declared limit lowers the run's one
    ceiling to ``used + limit`` while *expr* runs, unless the enclosing
    ceiling is already at or below that; the ceiling, and under an unlimited
    budget the count, are restored after.  Out-of-time is a value of this
    TRY only when its own ceiling was hit, or when *expr* nested too deep;
    exhausting an enclosing ceiling propagates, which is what keeps success
    budget-monotone.
    """
    if type(limit) is int:
        declared = limit
    elif limit == NO_TIME_LIMIT:
        declared = None
    else:
        declared = 0

    budget = ctx.budget
    outer, used = budget.limit, budget.used
    own = declared is not None and (outer is None or used + declared <= outer)
    if own:
        budget.limit = used + declared
    captures: list[SExpr] = []
    if expr is ctx.watch:
        ctx.watched = captures  # and the previous round's captures go
    inner = _Ctx(budget, BitStream(data), ctx.genv, ctx.table, captures.append)
    try:
        value = evaluate(expr, {}, inner, depth)
    except OutOfTime as exc:
        if not (own or isinstance(exc, DepthExceeded)):
            raise
        return (FAILURE, OUT_OF_TIME, tuple(captures))
    except OutOfData:
        return (FAILURE, OUT_OF_DATA, tuple(captures))
    finally:
        budget.limit = outer
        if outer is None:
            budget.used = used  # an unlimited budget never counts
    return (SUCCESS, _plain(value), tuple(captures))


class Session:
    """A top-level environment: primitives plus accumulated defines."""

    def __init__(self, emit=None):
        # every evaluation runs in a session, so this is the one place the
        # host stack is made deep enough for MAX_DEPTH; it is never lowered
        if sys.getrecursionlimit() < _RECURSION_LIMIT:
            sys.setrecursionlimit(_RECURSION_LIMIT)
        self.genv: dict[str, SExpr] = {}
        self.table = ArityTable()
        self.emit = emit

    def _ctx(self, budget: Budget, stream=None, captures=None) -> _Ctx:
        """A context whose display goes to *captures*, if given, or else emit."""
        emit = self.emit if captures is None else captures.append
        return _Ctx(budget, stream, self.genv, self.table, emit)

    def evaluate(self, e: SExpr, budget: int | None = None) -> SExpr:
        return evaluate(e, {}, self._ctx(Budget(budget)))

    def try_expression(self, e: SExpr, limit: int | None, data: str) -> tuple:
        """Host-side TRY: returns the (status payload captures) triple."""
        return _try(e, NO_TIME_LIMIT if limit is None else limit, data, self._ctx(Budget(limit)))

    def define(self, form: tuple) -> str | None:
        """Install a top-level define; returns the bound name."""
        sig = _arg(form, 1)
        body = _arg(form, 2)
        if isinstance(sig, tuple) and sig and isinstance(sig[0], str):
            name = sig[0]
            params = tuple(p for p in sig[1:])
            self.genv[name] = ("lambda", params, body)
            self.table.define(name, len(params))
            return name
        if isinstance(sig, str):
            self.genv[sig] = self.evaluate(body)
            return sig
        return None

    def run_source(self, text: str) -> list[tuple[str, SExpr]]:
        """Evaluate top-level forms in order.

        Returns (kind, payload) pairs: ("define", name) for bindings,
        ("value", v) for results, ("error", atom) for a form, define or
        not, that ran out of data or time at the top level; such a define
        binds nothing.
        """
        results: list[tuple[str, SExpr]] = []
        for form in iter_forms(text, self.table):
            try:
                if isinstance(form, tuple) and form[:1] == ("define",):
                    name = self.define(form)
                    results.append(("define", name if name is not None else NIL))
                else:
                    results.append(("value", self.evaluate(form)))
            except OutOfData:
                results.append(("error", OUT_OF_DATA))
            except OutOfTime:
                results.append(("error", OUT_OF_TIME))
        return results


def run_source(text: str, emit=None) -> list[tuple[str, SExpr]]:
    return Session(emit=emit).run_source(text)

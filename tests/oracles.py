"""Independent oracles the tests check the package against.

Everything here is deliberately written as a separate code path from the
package: membership is decided declaratively, sums use fractions.Fraction
instead of the package's dyadic type, the expression enumerator works
on character strings through the parser instead of building trees, the
reference readers recurse on nesting where the package's keep a stack, and
the reference evaluator spells out every primitive in its own branch where
the package's dispatches value primitives through a table, and finds a name
by walking a chain of frames down to the globals where the package's looks
in one flat dict of locals and then in the globals, the reference ``try``
nests a second budget where the package's lowers one ceiling, the
reference Berry searcher reruns the searcher at each budget of its schedule
where the package's settles the schedule with one run, the reference
``malformed`` count replays the searcher's doubling rounds on the host
where the package's reads the winning round's captures, the reference
doubling decoder compares pair by pair where the package's compares
windows of pairs as two numerals, the reference allocator scans its free
depths where the package's reads them off a bitmask, and the reference
walk runs every root it is given and sorts them into buckets by length
where the package's takes settled spans of roots without a run and merges
the machine's ordered spans with the extensions it grows.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from itertools import repeat

from sdlisp.ait import BerryOutcome, _theorem_expression, build_searcher, run_theory
from sdlisp.bits import BitStream, bits_to_sexpr, bitstrings_up_to
from sdlisp.interp import (
    FAILURE,
    FALSE,
    MAX_DEPTH,
    NO_TIME_LIMIT,
    OUT_OF_TIME,
    SUCCESS,
    TRUE,
    Budget,
    Closure,
    DepthExceeded,
    OutOfData,
    OutOfTime,
    Session,
    _arg,
    _coerce_data,
    _equal,
    _nat,
    evaluate,
)
from sdlisp.sexpr import (
    NIL,
    PRIMITIVE_ARITY,
    QUOTE,
    ArityTable,
    SExpr,
    SExprSyntaxError,
    _atom,
    parse_full,
    print_canonical,
    read_exp_from_stream,
    size_chars,
    to_bits,
    tokenize,
)
from sdlisp.kraft import Exhausted, Requirement
from sdlisp.universal import OUT_OF_DATA, LispU, RunResult, halted, invalid, still_running


def is_doubling_codeword(p: str) -> bool:
    """Membership in the toy machine's domain, stated as a shape check:
    equal pairs followed by the terminator pair 01, nothing after."""
    if len(p) < 2 or len(p) % 2:
        return False
    if p[-2:] != "01":
        return False
    return all(p[i] == p[i + 1] for i in range(0, len(p) - 2, 2))


def toy_domain_up_to(max_len: int) -> list[str]:
    return [p for p in bitstrings_up_to(max_len) if is_doubling_codeword(p)]


def toy_omega_partial(max_len: int) -> Fraction:
    """The toy machine's mass over programs of <= max_len bits, in closed
    form: codewords of 2n+2 bits come 2^n to a string length, so the
    partial sum over n <= m is 1/2 - 2^-(m+2)."""
    if max_len < 2:
        return Fraction(0)
    m = (max_len - 2) // 2
    return Fraction(1, 2) - Fraction(1, 2 ** (m + 2))


# The value root_pairs gives a root that only a run can settle.
UNSETTLED = object()


def root_pairs(machine, max_len: int, budget=None):
    """machine.roots flattened lazily into (program, value) pairs, in the
    machine's order; a root of a span left to its runs gets UNSETTLED."""
    for programs, values in machine.roots(max_len, budget):
        yield from zip(programs, repeat(UNSETTLED) if values is None else values)


def omega_by_enumeration(machine, max_len: int, budget) -> Fraction:
    """Blind sum over every bit string up to the cap."""
    total = Fraction(0)
    for p in bitstrings_up_to(max_len):
        if machine.run(p, budget).halted:
            total += Fraction(1, 2 ** len(p))
    return total


def halted_by_suffix_enumeration(roots, k: int, budget) -> tuple[str, ...]:
    """Every root followed by every data suffix of <= k bits that halts on a
    plain LispU, shortest first, then lexicographic: the suffixes are
    enumerated blindly instead of being grown only out of data."""
    u = LispU()
    found = [r + s for r in roots for s in bitstrings_up_to(k) if u.run(r + s, budget).halted]
    return tuple(sorted(found, key=lambda p: (len(p), p)))


def runs_reference(machine, max_len: int, budget):
    """omega.runs as a bucket-and-sort walk that runs every root: the
    programs of machine.roots (or the empty program) are bucketed by length,
    each bucket is sorted, and a run that ends out of data puts both
    one-bit extensions in the next bucket."""
    roots = [p for p, _ in root_pairs(machine, max_len, budget)] if hasattr(machine, "roots") else [""]
    buckets = defaultdict(set)
    for p in roots:
        if len(p) <= max_len:
            buckets[len(p)].add(p)
    for n in range(max_len + 1):
        for p in sorted(buckets.pop(n, ())):
            result = machine.run(p, budget)
            yield p, result
            if n < max_len and result.reason == OUT_OF_DATA:
                buckets[n + 1].update((p + "0", p + "1"))


def lispu_run_without_data(bits: str, budget) -> RunResult:
    """U on a program that is one text and its newline, with no data bits,
    as the paper defines it: the value slot of
    ``try <budget> '(eval (read-exp)) bits`` in a fresh session.  The try
    does not check that every bit was read, so it is only an oracle for
    programs without data."""
    status, payload, _ = Session().try_expression(
        parse_full("(eval (read-exp))"), budget, bits)
    if status == "success":
        return halted(payload, len(bits))
    if payload == "out-of-time":
        return still_running()
    return invalid(OUT_OF_DATA)


def read_doubled_reference(bits: str, i: int = 0) -> tuple[str, int] | None:
    """bits.read_doubled pair by pair: the first unequal pair from index *i*
    ends the word."""
    for j in range(i, len(bits) - 1, 2):
        if bits[j] != bits[j + 1]:
            return bits[i:j:2], j + 2
    return None


class AllocatorReference:
    """kraft.Allocator finding the deepest free depth <= s by a scan of its
    free blocks."""

    def __init__(self):
        self.free: dict[int, int] = {0: 0}
        self.assigned: list[tuple[str, SExpr]] = []

    def request(self, req: Requirement) -> str:
        depth = max((d for d in self.free if d <= req.size), default=None)
        if depth is None:
            raise Exhausted(f"no free {req.size}-bit codeword")
        index = self.free.pop(depth)
        while depth < req.size:
            index <<= 1
            depth += 1
            self.free[depth] = index + 1
        codeword = format(index, f"0{req.size}b") if req.size else ""
        self.assigned.append((codeword, req.output))
        return codeword


def first_fit_by_definition(sizes) -> list[str | None]:
    """The codeword first fit hands out for each size in turn, straight from
    its definition: the lexicographically least s-bit string that is neither
    a prefix nor an extension of a word assigned so far, or None when there
    is no such string (and nothing is assigned)."""
    assigned: list[str] = []
    out: list[str | None] = []
    for s in sizes:
        words = (format(i, f"0{s}b") if s else "" for i in range(2 ** s))
        fit = next((w for w in words
                    if not any(w.startswith(a) or a.startswith(w) for a in assigned)), None)
        if fit is not None:
            assigned.append(fit)
        out.append(fit)
    return out


def dyadic_as_fraction(d) -> Fraction:
    return Fraction(d.num, 2 ** d.exp)


# --- canonical-text enumeration (string assembly through the parser) -------

def _numeral_texts(width: int, limit: int | None) -> list[str]:
    lo = 0 if width == 1 else 10 ** (width - 1)
    hi = 10 ** width - 1
    if limit is not None:
        hi = min(hi, limit)
    return [str(n) for n in range(lo, hi + 1)]


def texts_of_size(size: int, symbols: tuple[str, ...], limit: int | None) -> list[str]:
    return list(_texts_of_size(size, symbols, limit))


@lru_cache(maxsize=None)
def _texts_of_size(size: int, symbols: tuple[str, ...], limit: int | None) -> tuple[str, ...]:
    out = _numeral_texts(size, limit)
    out.extend(name for name in symbols if len(name) == size)
    if size >= 3:
        out.extend("(" + body + ")" for body in _bodies(size - 2, symbols, limit))
    return tuple(out)


@lru_cache(maxsize=None)
def _bodies(chars: int, symbols: tuple[str, ...], limit: int | None) -> tuple[str, ...]:
    """Blank-separated element runs rendering to exactly *chars* characters."""
    out = []
    for first_size in range(1, chars + 1):
        for first in _texts_of_size(first_size, symbols, limit):
            if first_size == chars:
                out.append(first)
            elif first_size + 2 <= chars:
                out.extend(first + " " + rest
                           for rest in _bodies(chars - first_size - 1, symbols, limit))
    return tuple(out)


def brute_force_elegance(char_cap: int, budget: int | None, symbols: tuple[str, ...],
                         numeral_limit: int | None = None):
    """Full elegance marking rebuilt from scratch off assembled texts.

    Returns (listing, min_size, elegant) with the same shapes the package
    reports, so acceptance can compare them wholesale.
    """
    session = Session()
    listing = {}
    min_size = {}
    for size in range(1, char_cap + 1):
        for text in texts_of_size(size, symbols, numeral_limit):
            expr = parse_full(text)
            assert print_canonical(expr) == text, f"non-canonical text {text!r}"
            ctx = session._ctx(Budget(budget), stream=None, captures=[])
            try:
                value = evaluate(expr, {}, ctx)
            except (OutOfTime, OutOfData):
                continue
            listing[expr] = value
            if value not in min_size:
                min_size[value] = size
    elegant = set()
    for expr, value in listing.items():
        if min_size[value] == len(print_canonical(expr)):
            elegant.add((expr, value))
    return listing, min_size, elegant


def first_witness(x, char_cap: int, budget: int | None, symbols: tuple[str, ...],
                  numeral_limit: int | None = None):
    """The first assembled text, sizes ascending, whose value is *x* within
    a fresh budget, and the sizes of the texts before it that ran out of
    time, in order; the text is None when no text up to the cap evaluates
    to *x*."""
    session = Session()
    out_of_time = []
    for size in range(1, char_cap + 1):
        for text in texts_of_size(size, symbols, numeral_limit):
            ctx = session._ctx(Budget(budget), stream=None, captures=[])
            try:
                if evaluate(parse_full(text), {}, ctx) == x:
                    return text, out_of_time
            except OutOfTime:
                out_of_time.append(size)
            except OutOfData:
                pass
    return None, out_of_time


# --- random S-expressions for round-trip properties -------------------------

SAFE_ATOM_SYMBOLS = ("a", "bc", "x-y-z", "A", "foo", "b2", "zz")


def random_data_sexpr(rng, depth: int = 3):
    """Data-only expressions: no primitive symbols, so every reader and the
    bits round trip agree on them."""
    roll = rng.random()
    if depth == 0 or roll < 0.45:
        kind = rng.randrange(3)
        if kind == 0:
            return rng.randrange(0, 10 ** rng.randrange(1, 5))
        if kind == 1:
            return rng.choice(SAFE_ATOM_SYMBOLS)
        return ()
    return tuple(random_data_sexpr(rng, depth - 1) for _ in range(rng.randrange(1, 4)))


def random_any_sexpr(rng, depth: int = 3):
    """Arbitrary expressions including primitive symbols and quote forms;
    the plain reader and printer must round-trip even these."""
    roll = rng.random()
    if depth == 0 or roll < 0.4:
        kind = rng.randrange(4)
        if kind == 0:
            return rng.randrange(0, 1000)
        if kind == 1:
            return rng.choice(SAFE_ATOM_SYMBOLS)
        if kind == 2:
            return rng.choice(sorted(PRIMITIVE_ARITY))
        return ()
    return tuple(random_any_sexpr(rng, depth - 1) for _ in range(rng.randrange(1, 4)))


# --- reference readers -------------------------------------------------------

class RecursiveReader:
    """The readers written as one recursive call per nested expression; the
    package's stack-based reader must agree with them on every text they
    can read without exhausting the host stack."""

    def __init__(self, text: str, table: ArityTable | None = None):
        self.tokens = tokenize(text)
        self.pos = 0
        self.table = table or ArityTable()

    def at_end(self) -> bool:
        return self.pos >= len(self.tokens)

    def _next(self):
        if self.at_end():
            last = self.tokens[-1] if self.tokens else None
            raise SExprSyntaxError(
                "unexpected end of input",
                last.line if last else 1,
                last.col if last else 1,
            )
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def read_plain(self):
        tok = self._next()
        if tok.text == "(":
            items = []
            while True:
                nxt = self._peek()
                if nxt is None:
                    raise SExprSyntaxError("unbalanced parenthesis", tok.line, tok.col)
                if nxt.text == ")":
                    self.pos += 1
                    return tuple(items)
                items.append(self.read_plain())
        if tok.text == ")":
            raise SExprSyntaxError("unexpected ')'", tok.line, tok.col)
        if tok.text == QUOTE:
            if tok.attached:
                return (QUOTE, self.read_plain())
            return QUOTE
        return _atom(tok.text)

    def read_arity(self):
        tok = self._next()
        if tok.text == "(":
            items = []
            built = []
            while True:
                nxt = self._peek()
                if nxt is None:
                    raise SExprSyntaxError("unbalanced parenthesis", tok.line, tok.col)
                if nxt.text == ")":
                    self.pos += 1
                    break
                e, b = self.read_arity()
                items.append(e)
                built.append(b)
            if len(items) == 1 and built[0]:
                return items[0], False
            return tuple(items), False
        if tok.text == ")":
            raise SExprSyntaxError("unexpected ')'", tok.line, tok.col)
        if tok.text == QUOTE:
            arg, _ = self.read_arity()
            return (QUOTE, arg), True
        a = _atom(tok.text)
        if isinstance(a, str):
            k = self.table.arity(a)
            if k is not None:
                if a == "define":
                    sig, _ = self.read_arity()
                    if isinstance(sig, tuple) and sig and isinstance(sig[0], str):
                        self.table.define(sig[0], len(sig) - 1)
                    body, _ = self.read_arity()
                    return ("define", sig, body), True
                args = [self.read_arity()[0] for _ in range(k)]
                return (a, *args), True
        return a, False

    def _one(self, expr):
        if not self.at_end():
            tok = self.tokens[self.pos]
            raise SExprSyntaxError(f"trailing input {tok.text!r}", tok.line, tok.col)
        return expr


def parse_full_reference(text: str):
    reader = RecursiveReader(text)
    if reader.at_end():
        raise SExprSyntaxError("empty input")
    return reader._one(reader.read_plain())


def parse_implicit_reference(text: str, table: ArityTable | None = None):
    reader = RecursiveReader(text, table)
    if reader.at_end():
        raise SExprSyntaxError("empty input")
    return reader._one(reader.read_arity()[0])


def iter_forms_reference(text: str, table: ArityTable | None = None):
    reader = RecursiveReader(text, table)
    while not reader.at_end():
        yield reader.read_arity()[0]


# --- reference evaluator -----------------------------------------------------
# One branch per primitive, each evaluating its own count of arguments, and a
# context that carries captures beside emit; the package's evaluator must
# agree with it on every outcome, step count and displayed value.

class Env:
    """A frame of bindings with a link to the frame beneath it; the globals
    are the bottom frame."""

    __slots__ = ("bindings", "parent")

    def __init__(self, bindings: dict[str, SExpr], parent: "Env | None" = None):
        self.bindings = bindings
        self.parent = parent


class ReferenceCtx:
    """Everything one evaluation threads along besides the environment."""

    __slots__ = ("budget", "stream", "captures", "genv", "table", "emit")

    def __init__(self, budget, stream, captures, genv, table, emit=None):
        self.budget = budget
        self.stream = stream
        self.captures = captures
        self.genv = genv
        self.table = table
        self.emit = emit


def evaluate_reference(e: SExpr, env: Env, ctx: ReferenceCtx, depth: int = 0) -> SExpr:
    while True:
        if type(e) is int:
            return e
        if type(e) is str:
            scope = env
            while scope is not None:
                if e in scope.bindings:
                    return scope.bindings[e]
                scope = scope.parent
            return e
        if e == ():
            return NIL

        if depth > MAX_DEPTH:
            raise DepthExceeded()
        ctx.budget.charge()
        head = e[0]
        if type(head) is str and head in PRIMITIVE_ARITY:
            h = head
            if h == QUOTE:
                return _arg(e, 1)
            if h == "if":
                cond = evaluate_reference(_arg(e, 1), env, ctx, depth + 1)
                e = _arg(e, 2) if cond != FALSE else _arg(e, 3)
                continue
            if h == "car":
                v = evaluate_reference(_arg(e, 1), env, ctx, depth + 1)
                return v[0] if isinstance(v, tuple) and v else v
            if h == "cdr":
                v = evaluate_reference(_arg(e, 1), env, ctx, depth + 1)
                return v[1:] if isinstance(v, tuple) and v else v
            if h == "cadr":
                v = evaluate_reference(_arg(e, 1), env, ctx, depth + 1)
                v = v[1:] if isinstance(v, tuple) and v else v
                return v[0] if isinstance(v, tuple) and v else v
            if h == "cons":
                a = evaluate_reference(_arg(e, 1), env, ctx, depth + 1)
                d = evaluate_reference(_arg(e, 2), env, ctx, depth + 1)
                return (a, *d) if isinstance(d, tuple) else (a,)
            if h == "append":
                a = evaluate_reference(_arg(e, 1), env, ctx, depth + 1)
                b = evaluate_reference(_arg(e, 2), env, ctx, depth + 1)
                la = a if isinstance(a, tuple) else ()
                lb = b if isinstance(b, tuple) else ()
                return la + lb
            if h == "atom":
                v = evaluate_reference(_arg(e, 1), env, ctx, depth + 1)
                return FALSE if isinstance(v, tuple) and v else TRUE
            if h == "=":
                a = evaluate_reference(_arg(e, 1), env, ctx, depth + 1)
                b = evaluate_reference(_arg(e, 2), env, ctx, depth + 1)
                return TRUE if _equal(a, b) else FALSE
            if h == "+":
                a = evaluate_reference(_arg(e, 1), env, ctx, depth + 1)
                b = evaluate_reference(_arg(e, 2), env, ctx, depth + 1)
                return _nat(a) + _nat(b)
            if h == "-":
                a = evaluate_reference(_arg(e, 1), env, ctx, depth + 1)
                b = evaluate_reference(_arg(e, 2), env, ctx, depth + 1)
                return max(0, _nat(a) - _nat(b))
            if h == "*":
                a = evaluate_reference(_arg(e, 1), env, ctx, depth + 1)
                b = evaluate_reference(_arg(e, 2), env, ctx, depth + 1)
                return _nat(a) * _nat(b)
            if h == "<":
                a = evaluate_reference(_arg(e, 1), env, ctx, depth + 1)
                b = evaluate_reference(_arg(e, 2), env, ctx, depth + 1)
                return TRUE if _nat(a) < _nat(b) else FALSE
            if h == "size":
                return size_chars(evaluate_reference(_arg(e, 1), env, ctx, depth + 1))
            if h == "bits":
                return bits_to_sexpr(to_bits(evaluate_reference(_arg(e, 1), env, ctx, depth + 1)))
            if h == "display":
                v = evaluate_reference(_arg(e, 1), env, ctx, depth + 1)
                if ctx.captures is not None:
                    ctx.captures.append(v)
                elif ctx.emit is not None:
                    ctx.emit(v)
                return v
            if h == "lambda":
                return e if isinstance(e, Closure) else Closure(e, env)
            if h == "let":
                name = _arg(e, 1)
                value = evaluate_reference(_arg(e, 2), env, ctx, depth + 1)
                if isinstance(name, str):
                    env = Env({name: value}, env)
                e = _arg(e, 3)
                continue
            if h == "define":
                # Bindings happen at the top level; in expression position a
                # define form is inert and evaluates to the name it mentions.
                sig = _arg(e, 1)
                if isinstance(sig, tuple) and sig and isinstance(sig[0], str):
                    return sig[0]
                return sig if isinstance(sig, str) else NIL
            if h == "eval":
                e = evaluate_reference(_arg(e, 1), env, ctx, depth + 1)
                env = ctx.genv
                continue
            if h == "read-bit":
                if ctx.stream is None:
                    raise OutOfData("no binary data in this context")
                return int(ctx.stream.read(1))
            if h == "read-exp":
                if ctx.stream is None:
                    raise OutOfData("no binary data in this context")
                try:
                    return read_exp_from_stream(ctx.stream, ctx.table)
                except SExprSyntaxError as exc:
                    # Inside a computation, undecodable data is just bad
                    # data; the outcome vocabulary stays closed.
                    raise OutOfData(str(exc)) from exc
            if h == "try":
                limit = evaluate_reference(_arg(e, 1), env, ctx, depth + 1)
                tried = evaluate_reference(_arg(e, 2), env, ctx, depth + 1)
                data = evaluate_reference(_arg(e, 3), env, ctx, depth + 1)
                return try_reference(tried, limit, _coerce_data(data), ctx, depth + 1)
            if h == "run-utm-on":
                e = ("cadr", ("try", NO_TIME_LIMIT, (QUOTE, ("eval", ("read-exp",))), _arg(e, 1)))
                continue
            raise AssertionError(f"unhandled primitive {h}")

        f = evaluate_reference(head, env, ctx, depth + 1)
        if isinstance(f, tuple) and len(f) == 3 and f[0] == "lambda":
            params = f[1] if isinstance(f[1], tuple) else ()
            frame = {}
            for i, p in enumerate(params):
                v = evaluate_reference(_arg(e, 1 + i), env, ctx, depth + 1)
                if isinstance(p, str):
                    frame[p] = v
            env = Env(frame, f.env if isinstance(f, Closure) else ctx.genv)
            e = f[2]
            continue
        return NIL


def try_reference(expr: SExpr, limit: SExpr, data: str, ctx: ReferenceCtx,
                  depth: int = 0) -> SExpr:
    """Run *expr* in a fresh global environment over its own data stream.

    Returns the outcome triple.  Out-of-time is a value of this TRY only
    when the declared limit itself was hit, or when *expr* nested too deep;
    exhausting the enclosing budget propagates, which is what keeps success
    budget-monotone.
    """
    if type(limit) is int:
        declared = limit
    elif limit == NO_TIME_LIMIT:
        declared = None
    else:
        declared = 0

    parent = ctx.budget
    if declared is None:
        inner_budget = parent
    elif parent.limit is None:
        inner_budget = Budget(declared)
    else:
        inner_budget = Budget(min(declared, parent.limit - parent.used))

    captures: list[SExpr] = []
    inner = ReferenceCtx(inner_budget, BitStream(data), captures, ctx.genv, ctx.table)
    try:
        value = evaluate_reference(expr, ctx.genv, inner, depth)
    except DepthExceeded:
        return (FAILURE, OUT_OF_TIME, tuple(captures))
    except OutOfTime:
        if inner_budget is parent or inner_budget.limit < declared:
            raise
        return (FAILURE, OUT_OF_TIME, tuple(captures))
    except OutOfData:
        return (FAILURE, OUT_OF_DATA, tuple(captures))
    finally:
        if inner_budget is not parent and parent.limit is not None:
            parent.used += inner_budget.used
    return (SUCCESS, value, tuple(captures))


# --- reference Berry searcher -------------------------------------------------
# The searcher rerun from scratch at each budget of the schedule, in order,
# until one succeeds; the package runs it once and reads the budget off the
# steps spent.

def berry_searcher_reference(theory: SExpr, schedule) -> BerryOutcome:
    """Run the searcher over increasing outer budgets.

    A sound theory never names an expression past the threshold, so the
    searcher exhausts the schedule; an unsound one trips it, and the
    searcher's value equals the value of the oversized expression it was
    promised no small program could match.
    """
    n = size_chars(theory)
    searcher, constant = build_searcher(theory)
    threshold = n + constant
    base = BerryOutcome(
        found=False, searcher_constant=constant, threshold=threshold, theory_size=n,
    )
    for budget in schedule:
        status, payload, _ = Session().try_expression(searcher, budget, "")
        if status != SUCCESS:
            continue
        run = run_theory(theory, budget)
        malformed = sum(1 for t in run.theorems if _theorem_expression(t) is None)
        for theorem in run.theorems:
            expr = _theorem_expression(theorem)
            if expr is not None and size_chars(expr) > threshold:
                return BerryOutcome(
                    found=True,
                    searcher_constant=constant,
                    threshold=threshold,
                    theory_size=n,
                    value=payload,
                    theorem=theorem,
                    theorem_size=size_chars(expr),
                    budget=budget,
                    malformed=malformed,
                )
        return BerryOutcome(
            found=True, searcher_constant=constant, threshold=threshold,
            theory_size=n, value=payload, budget=budget, malformed=malformed,
        )
    return base


def berry_malformed_reference(theory: SExpr) -> int:
    """The malformed theorems of the searcher's winning round, replayed on
    the host: the theory runs for 1, 2, 4, ... steps, as the searcher's
    doubling ``try`` runs it, until a run displays a claim about an
    expression past the threshold; the count is that run's displays that
    are not such claims.  Call it only for a theory whose searcher
    succeeded, or it does not return.
    """
    threshold = size_chars(theory) + build_searcher(theory)[1]
    b = 1
    while True:
        theorems = run_theory(theory, b).theorems
        exprs = [_theorem_expression(t) for t in theorems]
        if any(x is not None and size_chars(x) > threshold for x in exprs):
            return exprs.count(None)
        b *= 2

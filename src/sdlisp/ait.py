"""Program-size complexity, budgeted everywhere it must be.

True minimal program size is uncomputable, so every search here is capped:
by program length in bits (or characters), and by evaluation steps.  A
minimum search runs every smaller program before it finds its witness, and
one rule reads exactness off those runs: a witness of size k is exact when
no run smaller than k ended undecided (still running, or out of time), since
every other outcome is final under every larger budget.  Otherwise the
record is an upper bound and nothing more.  "Elegant" always means elegant
at the given caps and budget.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import chain, compress, count, islice, repeat
from operator import eq
from typing import Iterable, Iterator

from .dyadic import Dyadic, sum_dyadic
from .interp import (
    Budget,
    OutOfData,
    OutOfTime,
    SUCCESS,
    Session,
    applies_as_nil,
    evaluate,
)
from .omega import _walk
from .sexpr import (
    NIL,
    PRIMITIVE_ARITY,
    QUOTE,
    SExpr,
    parse_full,
    print_canonical,
    single_atom,
    size_chars,
    to_bits,
)
from .universal import STILL_RUNNING, LispU

# Size in characters of the analogous searcher routine in the dialect this
# construction was first carried out in; reported next to ours for scale.
CLASSIC_SEARCHER_CHARS = 410


class SearchExhausted(Exception):
    """No program within the given caps produced the target."""


@dataclass(frozen=True)
class ComplexityRecord:
    """A witness that the target has a program of this size.

    ``exact`` means the minimum is certified, not merely bounded: every
    smaller program (or expression of the space) ran, and none ended
    undecided, so none computes the target under any budget.
    """

    target: SExpr
    witness: object
    size: int
    search_cap: int
    budget: int | None
    exact: bool
    unit: str = "bits"


def H_upper(x: SExpr, machine, size_cap: int, budget: int | None) -> ComplexityRecord:
    """Smallest program found for *x*: length order, then lexicographic.

    The witness is exact when no shorter run ended still running: by the
    machine contract (see universal) the walk then decided every shorter
    program.  The toys and Kraft machines never answer still-running.
    """
    undecided = size_cap + 1  # length of the first still-running program
    for p, outcome in _walk(machine, size_cap, budget):
        if type(p) is str:  # a run that did not halt
            if outcome.status == STILL_RUNNING:
                undecided = min(undecided, len(p))
            continue
        # halting programs: the first whose value is x, if any
        i = next(compress(count(), map(eq, outcome, repeat(x))), None)
        if i is not None:
            return ComplexityRecord(target=x, witness=p[i], size=len(p[i]), search_cap=size_cap,
                                    budget=budget, exact=len(p[i]) <= undecided)
    raise SearchExhausted(f"no program of <= {size_cap} bits computes {print_canonical(x)}")


# ---------------------------------------------------------------------------
# Expression enumeration

DEFAULT_SYMBOLS = tuple(sorted(set(PRIMITIVE_ARITY) | {"nil", "true", "false", "a", "b", "c"}))


@dataclass(frozen=True)
class ExpressionSpace:
    """The universe a character-level search enumerates.

    Numerals of every width that fits are always present (optionally capped
    in value); other atoms come from a finite alphabet.  A size holds its
    atoms, then its lists in blocks, one per first item: the item followed
    by the items of each list of the remaining size, or alone (see
    :func:`_layout`), so membership is exactly "canonical text of this size
    over this alphabet".
    """

    symbols: tuple[str, ...] = DEFAULT_SYMBOLS
    numeral_limit: int | None = None

    def __post_init__(self):
        # a repeated symbol would enumerate every expression using it twice
        object.__setattr__(self, "symbols", tuple(dict.fromkeys(self.symbols)))
        for name in self.symbols:
            if name not in PRIMITIVE_ARITY and single_atom(name) != (NIL if name == "nil" else name):
                raise ValueError(f"symbol {name!r} does not read back as itself")

    def atoms_of_size(self, size: int) -> Iterator[SExpr]:
        return chain(self.numerals_of_size(size), self.symbols_of_size(size))

    def numerals_of_size(self, size: int) -> range:
        if size < 1:
            return range(0)
        lo = 0 if size == 1 else 10 ** (size - 1)
        hi = 10 ** size - 1
        if self.numeral_limit is not None:
            hi = min(hi, self.numeral_limit)
        return range(lo, hi + 1)

    def symbols_of_size(self, size: int) -> list[SExpr]:
        return [NIL if name == "nil" else name for name in self.symbols if len(name) == size]

    def of_size(self, size: int) -> tuple:
        """Every canonical expression of the space that prints in exactly
        *size* characters, in order: ``size_chars(expr) == size`` for each
        one, which the searches rely on instead of measuring.  The tuple is
        built afresh; the searches stream their sizes and cache only the
        lists that longer lists are built from."""
        return tuple(chain(self.atoms_of_size(size), _space_of_size(self, size)))


def _layout(space: ExpressionSpace, size: int) -> list[tuple[int, tuple]]:
    """The lists ( items ) of *size* with single blanks, in order, as (k,
    tails) groups: each expression of k chars in turn heads one list per
    tail, the tail's items after it.  The tails are the lists of size - k -
    1 chars, or the empty tail alone when k == size - 2.  Every part is at
    most size - 2 chars, so a size is built from smaller sizes' atoms and
    cached lists.  This is the one description of the order: :func:`_spans` walks it, and
    ``_space_of_size`` builds from that walk."""
    groups = [(k, _space_of_size(space, size - k - 1)) for k in range(1, size - 3)]
    if size >= 3:
        groups.append((size - 2, ((),)))
    return groups


@lru_cache(maxsize=None)
def _space_of_size(space: ExpressionSpace, size: int) -> tuple:
    # the lists: the spans after the atoms, which a budget of 0 leaves in order
    lists = islice(_spans(space, size, {}, 0), 1, None)
    return tuple(chain.from_iterable(exprs for _, exprs in lists))


def _spans(space: ExpressionSpace, size: int, genv: dict,
           budget: int | None) -> Iterator[tuple[bool, Iterable[SExpr]]]:
    """The expressions of *size* in order, streamed as (settled, exprs)
    spans: the atoms, then one block per head of :func:`_layout`, the
    heads of k chars being k's atoms, then its cached lists.  A block whose head applies as nil over
    *genv* (see :func:`~sdlisp.interp.applies_as_nil`) is settled, a tuple,
    when the budget allows a step; every other span is to be read once."""
    settles = budget is None or budget >= 1
    yield False, space.atoms_of_size(size)
    for k, tails in _layout(space, size):
        for head in chain(space.atoms_of_size(k), _space_of_size(space, k)):
            block = map((head,).__add__, tails)
            if settles and applies_as_nil(head, genv):
                yield True, tuple(block)
            else:
                yield False, block


# ---------------------------------------------------------------------------
# Character-level complexity and elegance
#
# A character search builds one context with no emit, so ``display`` output
# is dropped, and one budget, whose ``used`` totals the search: each
# expression gets *budget* more steps.  A numeral is its own value at no
# step, so it is taken without a call.  A list whose head applies as nil
# (see :func:`~sdlisp.interp.applies_as_nil`) is nil in one step, so under
# a budget of at least one step its whole block is settled without a call,
# and ``used`` advances by one step per list; at budget 0 every list runs.

def lisp_complexity_upper(x: SExpr, char_cap: int, budget: int | None,
                          space: ExpressionSpace | None = None) -> ComplexityRecord:
    """Smallest enumerated expression whose value is *x*.

    The witness is exact when no smaller expression ran out of time (depth
    included); out-of-data is final, since the search gives no data.  A
    size's numerals are checked by membership: each is its own value, so
    only the numeral *x* itself can be the witness, and it comes before the
    rest of its size.  A settled block of lists whose head applies as nil
    (budget at least 1) holds the witness, its first list, when *x* is nil,
    and is passed over otherwise.
    """
    space = space or ExpressionSpace()
    ctx = Session()._ctx(Budget(budget))
    shared = ctx.budget
    undecided = char_cap + 1  # size of the first expression out of time

    def found(witness, size):
        return ComplexityRecord(target=x, witness=witness, size=size, search_cap=char_cap,
                                budget=budget, exact=size <= undecided, unit="chars")

    for size in range(1, char_cap + 1):
        if type(x) is int and x in space.numerals_of_size(size):
            return found(x, size)
        # the size's symbols, then its blocks of lists (_spans less its atoms)
        blocks = islice(_spans(space, size, ctx.genv, budget), 1, None)
        for settled, exprs in chain([(False, space.symbols_of_size(size))], blocks):
            if settled:
                if x == NIL:
                    return found(exprs[0], size)
                if budget is not None:
                    shared.used += len(exprs)
                continue
            for expr in exprs:
                if budget is not None:
                    shared.limit = shared.used + budget
                try:
                    value = evaluate(expr, {}, ctx)
                except OutOfTime:
                    undecided = min(undecided, size)
                    continue
                except OutOfData:
                    continue
                if value == x:
                    return found(expr, size)
    raise SearchExhausted(f"no expression of <= {char_cap} chars evaluates to {print_canonical(x)}")


class Listing(Mapping):
    """A read-only mapping of expressions to their values, in enumeration
    order, over two parallel lists.  Length and iteration read the lists
    without hashing; the first lookup (``[]``, ``in``, ``get``, and so
    ``values``, ``items`` and ``==``) builds a dict index and keeps it."""

    def __init__(self, exprs: list, vals: list):
        self._exprs = exprs
        self._vals = vals
        self._index = None

    def __len__(self) -> int:
        return len(self._exprs)

    def __iter__(self) -> Iterator[SExpr]:
        return iter(self._exprs)

    def __getitem__(self, expr: SExpr) -> SExpr:
        if self._index is None:
            self._index = dict(zip(self._exprs, self._vals))
        return self._index[expr]


@dataclass(frozen=True)
class ElegantReport:
    """What :func:`elegant_search` found.  ``listing`` maps every expression
    that ended with a value to that value, in enumeration order (a
    :class:`Listing`; a lookup in it builds its index on first use);
    ``min_size`` maps each value to the smallest size that reached it, and
    ``elegant`` holds the (expression, value) pairs of that size, in
    order."""

    char_cap: int
    budget: int | None
    listing: Listing
    min_size: dict
    elegant: tuple


def elegant_search(char_cap: int, budget: int | None,
                   space: ExpressionSpace | None = None) -> ElegantReport:
    """Mark every enumerated expression budget-elegant or not.

    An expression is budget-elegant at these caps when no strictly smaller
    enumerated expression evaluates to the same value within the budget.
    Enlarging the budget can only reveal more collisions, so non-elegance
    is final; elegance is always relative to the caps.  A numeral is its
    own value and costs no step, so it is listed under any budget, even 0.
    Under a budget of at least 1, a block of lists whose head applies as
    nil is listed as nil all at once, in order, with one step per list.
    """
    space = space or ExpressionSpace()
    ctx = Session()._ctx(Budget(budget))
    shared = ctx.budget
    # every expression is enumerated once, so the listing is two parallel
    # lists, hashed only if a caller looks one up
    listed: list = []
    vals: list = []
    min_size: dict = {}
    elegant: list = []
    # sizes ascend, so a value's first size is its minimum and appending
    # here keeps the listing's order
    for size in range(1, char_cap + 1):
        for settled, exprs in _spans(space, size, ctx.genv, budget):
            if settled:
                if budget is not None:
                    shared.used += len(exprs)
                listed.extend(exprs)
                vals.extend(repeat(NIL, len(exprs)))
                if min_size.setdefault(NIL, size) == size:
                    elegant.extend(zip(exprs, repeat(NIL)))
                continue
            for expr in exprs:
                if type(expr) is int:
                    value = expr
                else:
                    if budget is not None:
                        shared.limit = shared.used + budget
                    try:
                        value = evaluate(expr, {}, ctx)
                    except (OutOfTime, OutOfData):
                        continue
                listed.append(expr)
                vals.append(value)
                if min_size.setdefault(value, size) == size:
                    elegant.append((expr, value))
    return ElegantReport(char_cap, budget, Listing(listed, vals), min_size, tuple(elegant))


# ---------------------------------------------------------------------------
# Pairing and derived information measures

def pair_prefix() -> SExpr:
    """The expression that reads and runs two programs off its data and
    returns the list of their two values."""
    return parse_full("(cons (eval (read-exp)) (cons (eval (read-exp)) nil))")


def pair_prefix_bits() -> str:
    return to_bits(pair_prefix())


def pair_program(xstar: str, ystar: str) -> str:
    """A program for the pair of the two programs' outputs; its length is
    |xstar| + |ystar| plus the fixed prefix, which is the whole point."""
    return pair_prefix_bits() + xstar + ystar


def run_pair(xstar: str, ystar: str, budget: int | None = None):
    return LispU().run(pair_program(xstar, ystar), budget)


def P_lower(x: SExpr, machine, max_len: int, budget: int | None) -> Dyadic:
    """Mass of the programs of length <= max_len that compute *x* in time."""
    counts = []
    for p, outcome in _walk(machine, max_len, budget):
        if type(p) is not str:  # halting programs, all of one length
            counts.append(Dyadic(sum(map(eq, outcome, repeat(x))), len(p[0])))
    return sum_dyadic(counts)


@dataclass(frozen=True)
class InfoReport:
    x: SExpr
    y: SExpr
    h_x: ComplexityRecord
    h_y: ComplexityRecord
    h_xy: ComplexityRecord
    exact: bool

    @property
    def mutual(self) -> int:
        return self.h_x.size + self.h_y.size - self.h_xy.size

    @property
    def label(self) -> str:
        return "exact" if self.exact else "estimate, not a bound"


def info_measures(x: SExpr, y: SExpr, machine, size_cap: int, budget: int | None) -> InfoReport:
    """Individual and joint sizes plus the derived mutual information.

    The joint target is the two-element list; the machine must be able to
    output pairs for the joint search to succeed.  Differences of mere
    upper bounds bound nothing, so the report is exact only when its three
    records are, and is labeled accordingly.
    """
    h_x = H_upper(x, machine, size_cap, budget)
    h_y = H_upper(y, machine, size_cap, budget)
    h_xy = H_upper((x, y), machine, size_cap, budget)
    return InfoReport(x, y, h_x, h_y, h_xy, exact=h_x.exact and h_y.exact and h_xy.exact)


# ---------------------------------------------------------------------------
# Theories as programs, and the oversized-theorem searcher

@dataclass(frozen=True)
class TheoryRun:
    status: str
    payload: SExpr
    theorems: tuple
    terminated: bool


def run_theory(theory: SExpr, budget: int | None) -> TheoryRun:
    """Run the theory for a while; its theorems are the captured displays.

    A theory is an expression that never terminates and displays each
    theorem it proves; its size is that of its text.  A theory that
    terminates is legal but suspicious, and is flagged.
    """
    status, payload, captures = Session().try_expression(theory, budget, "")
    return TheoryRun(status, payload, captures, terminated=(status == SUCCESS))


@lru_cache(maxsize=None)
def _searcher_body(constant: int) -> SExpr:
    # read once per constant; _searcher_expr binds t to the quoted theory
    return parse_full(
        "(let walk (lambda (w lst)"
        " (if (atom lst) nil (let m (car lst) (if (atom m) (w w (cdr lst))"
        f" (if (= (car m) (' elegant)) (if (< (+ (size t) {constant}) (size (cadr m)))"
        " m (w w (cdr lst))) (w w (cdr lst)))))))"
        " (let loop (lambda (l b) (let hit (walk walk (car (cdr (cdr (try b t nil)))))"
        " (if (atom hit) (l l (* 2 b)) (eval (cadr hit)))))"
        " (loop loop 1)))"
    )


def _searcher_expr(theory: SExpr, constant: int) -> SExpr:
    """The searcher, written in the dialect, applied to the quoted theory.

    It measures the theory's size, runs it under doubling budgets, scans
    the captured theorems for a well-formed claim about an expression
    bigger than (size of theory + constant), and evaluates that expression
    as its own value.  The theory is quoted as the object itself, so a
    context watching it sees the searcher's rounds.
    """
    return ("let", "t", (QUOTE, theory), _searcher_body(constant))


def build_searcher(theory: SExpr) -> tuple[SExpr, int]:
    """The searcher for *theory* and its own constant.

    The constant must satisfy size(searcher) = size(theory) + constant while
    appearing inside the searcher as a numeral, so only its digit count
    changes the searcher's size: the rest is measured once, with a one-digit
    constant, and constant = rest + digits(constant) solved by iteration,
    which only grows and settles within a few rounds.
    """
    rest = size_chars(_searcher_expr(theory, 1)) - size_chars(theory) - 1
    constant = rest + 1
    while constant < rest + len(str(constant)):
        constant = rest + len(str(constant))
    return _searcher_expr(theory, constant), constant


@dataclass(frozen=True)
class BerryOutcome:
    """What the searcher did under a schedule.

    When it succeeds, ``theorem`` is the first oversized claim and
    ``malformed`` counts the displays that are not ``(elegant x)`` claims,
    both among the theorems its own winning round saw: the theory's
    displays within that round's ``try`` limit.  ``budget`` is the first
    schedule entry that covers the steps the searcher spent.
    """

    found: bool
    searcher_constant: int
    threshold: int
    theory_size: int
    value: SExpr = NIL
    theorem: SExpr = NIL
    theorem_size: int = 0
    budget: int | None = None
    malformed: int = 0
    classic_constant: int = CLASSIC_SEARCHER_CHARS


def _theorem_expression(theorem: SExpr) -> SExpr | None:
    if (isinstance(theorem, tuple) and len(theorem) >= 2 and theorem[0] == "elegant"):
        return theorem[1]
    return None


def berry_searcher(theory: SExpr, schedule: Iterable[int]) -> BerryOutcome:
    """Run the searcher under a schedule of outer budgets.

    A sound theory never names an expression past the threshold, so the
    searcher exhausts the schedule; an unsound one trips it, and the
    searcher's value equals the value of the oversized expression it was
    promised no small program could match.

    The outcome is that of the first budget, in the schedule's own order,
    under which the searcher succeeds, and one run settles them all.
    Success is budget-monotone: a run that needs s steps succeeds, with the
    same value, under every budget of at least s and under none below it,
    because an inner ``try`` whose limit its parent's remainder cuts short
    propagates out-of-time instead of returning it.  So the searcher runs
    once, under the largest budget, and the reported budget is the first
    entry of at least the steps it spent.  If that run fails, every entry
    fails.

    The searcher's rounds ``try`` the theory object itself, so its context
    watches that object and keeps the captures of the latest such round;
    the theorem and ``malformed`` are read off the winning round's, and no
    theory runs on the host.  A run's displays under a smaller limit are a
    prefix of its displays under a larger one, so the theorem is the first
    oversized one the theory displays at all.
    """
    n = size_chars(theory)
    searcher, constant = build_searcher(theory)
    base = BerryOutcome(
        found=False, searcher_constant=constant, threshold=n + constant, theory_size=n,
    )
    schedule = list(schedule)
    if not schedule:
        return base
    ctx = Session()._ctx(Budget(max(schedule)))
    ctx.watch = theory
    try:
        payload = evaluate(searcher, {}, ctx)
    except (OutOfTime, OutOfData):
        return base
    budget = next(b for b in schedule if b >= ctx.budget.used)
    theorems = ctx.watched
    found = replace(base, found=True, value=payload, budget=budget,
                    malformed=sum(1 for t in theorems if _theorem_expression(t) is None))
    for theorem in theorems:
        expr = _theorem_expression(theorem)
        if expr is not None and size_chars(expr) > base.threshold:
            return replace(found, theorem=theorem, theorem_size=size_chars(expr))
    return found


def sound_mock_theory() -> SExpr:
    """Claims the elegance of every numeral, forever.

    Not every claim is true: ``(let p (lambda (p k a) (if (= k 0) a (p p
    (- k 1) (* 10 a)))) (p p 100 1))`` is 74 chars and evaluates to 10^100,
    whose numeral has 101.  No search at desk scale reaches such a claim.
    """
    return parse_full(
        "(let loop (lambda (l n)"
        " (let d (display (cons (' elegant) (cons n nil)))"
        " (l l (+ n 1))))"
        " (loop loop 0))"
    )


def unsound_mock_theory() -> SExpr:
    """Claims elegance of ever larger powers of ten.

    The claims are false (long round numerals have far smaller programs),
    which is exactly what lets the searcher expose the mechanism.
    """
    return parse_full(
        "(let pow (lambda (p k a) (if (= k 0) a (p p (- k 1) (* 10 a))))"
        " (let loop (lambda (l n)"
        " (let d (display (cons (' elegant) (cons (pow pow n 1) nil)))"
        " (l l (+ n n))))"
        " (loop loop 1)))"
    )

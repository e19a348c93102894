"""Machines over bit strings: the universal computer built on the dialect,
small decidable machines for desk-scale experiments, and the 0^k1 universal
composition.

A machine maps bit strings to S-expressions.  A run counts as halting only
when the computation converges *and* every bit of the program was consumed;
that exact-consumption rule is what forces the halting set to be prefix-free,
which the halting-probability machinery requires.

Every machine keeps one contract with the searches that extend programs bit
by bit (omega._walk): the reason out-of-data means the run needed bits past
the end of the program, and every other outcome is final for every
extension of it.  Every outcome but still-running is final under every
larger budget too, so a walk in which nothing below k bits ended still
running has decided every program shorter than k (ait.H_upper).

A machine may also enumerate the roots of those searches:
``roots(max_len, budget)`` yields spans ``(programs, values)``, lazily and
length by length, such that every halting program starts with one of their
programs.  ``programs`` is a non-empty sequence of programs of one length,
at most max_len bits, in strictly increasing order, and each span comes
after the one before it in (length, lexicographic) order.  ``values`` is
None when only a run can tell the programs' outcomes.  Otherwise it
iterates one value per program: a promise that the program halts under
*budget* with that value and consumes every bit, so the search takes the
span whole, without a run, unless an out-of-data extension of a shorter
program falls inside its range; then its programs run with the
extensions.  The decidable machines settle every span and ignore the
budget.  LispU's roots are every printable text, each left to its runs:
run alone decides what parses, its shortcut settles a single atom without
a session, and a text that does not parse costs none.

A search builds one :class:`RunResult` per program it runs, so it is a
NamedTuple, and the non-halting results are shared instances built once.
The walk, omega._walk, hands a halting run on as a one-program span, as it
does a settled span, so no search keeps a halting run's result.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple

from .bits import BitStream, OutOfData, bit_values, check_bits, read_doubled
from .dyadic import Dyadic, sum_dyadic
from .interp import Budget, OutOfTime, Session, evaluate
from .sexpr import (
    NEWLINE_BITS,
    NOT_AN_ATOM,
    ArityTable,
    SExpr,
    SExprSyntaxError,
    parse_implicit,
    read_prefix_text,
    single_atom,
    to_bits,
)

HALTED = "halted"
STILL_RUNNING = "still-running"
INVALID = "invalid"

OUT_OF_DATA = "out-of-data"
PARSE_ERROR = "parse-error"
PARTIAL_CONSUMPTION = "partial-consumption"


class RunResult(NamedTuple):
    status: str
    value: SExpr | None = None
    consumed: int = 0
    reason: str | None = None

    @property
    def halted(self) -> bool:
        return self.status == HALTED


_new_result = tuple.__new__
_STILL_RUNNING = RunResult(STILL_RUNNING)
_INVALID = {reason: RunResult(INVALID, reason=reason)
            for reason in (OUT_OF_DATA, PARSE_ERROR, PARTIAL_CONSUMPTION)}


def halted(value: SExpr, consumed: int) -> RunResult:
    # tuple.__new__ skips the Python-level __new__ NamedTuple writes, which a
    # search pays once per halting program
    return _new_result(RunResult, (HALTED, value, consumed, None))


def still_running() -> RunResult:
    return _STILL_RUNNING


def invalid(reason: str) -> RunResult:
    """The shared result for out-of-data, parse-error or partial-consumption."""
    return _INVALID[reason]


class LispU:
    """The universal computer: an expression in 8-bit characters up to a
    newline, evaluated with the remaining bits as its binary data.

    Equivalent to taking the value slot of
    ``try <budget> '(eval (read-exp)) p`` in a pristine session, with the
    prefix parse failure reported separately so garbage stays out of the
    halting set.  A program that is one text holding a single numeral or
    non-primitive symbol halts after those two steps with that atom, so it
    is settled without a session.
    """

    name = "lispu"
    exact_omega = None

    def run(self, program: str, budget: int | None = None) -> RunResult:
        check_bits(program)
        if budget is not None and budget < 2:
            return still_running()  # (eval ...) and (read-exp) take a step each
        n = len(program)
        if n % 8 == 0 and program.endswith(NEWLINE_BITS):
            text = int(program, 2).to_bytes(n // 8, "big")[:-1].decode("latin-1")
            # no earlier newline and no control character: the whole program
            # is the text read_prefix_text would read
            if text.isprintable():
                value = single_atom(text)
                if value is not NOT_AN_ATOM:
                    return halted(value, n)
        stream = BitStream(program)
        bud = Budget(budget)
        bud.charge()  # (eval ...)
        bud.charge()  # (read-exp)
        try:
            text = read_prefix_text(stream)
        except OutOfData:
            return invalid(OUT_OF_DATA)
        except SExprSyntaxError:
            return invalid(PARSE_ERROR)
        table = ArityTable()
        try:
            expr = parse_implicit(text, table)
        except SExprSyntaxError:
            return invalid(PARSE_ERROR)
        session = Session()  # only a text that parses costs a session
        session.table = table  # the arities the text defines, for its read-exp
        ctx = session._ctx(bud, stream=stream)
        try:
            value = evaluate(expr, {}, ctx)
        except OutOfTime:
            return still_running()
        except OutOfData as exc:
            # read-exp on undecodable data: no extension can mend it
            if isinstance(exc.__cause__, SExprSyntaxError):
                return invalid(PARSE_ERROR)
            return invalid(OUT_OF_DATA)
        if stream.remaining:
            return invalid(PARTIAL_CONSUMPTION)
        return halted(value, len(program))

    def roots(self, max_len: int, budget: int | None = None):
        """The bits of every printable text and its newline, up to max_len,
        one span per length and first character, each left to its runs:
        run decides every root, so the rules for what parses and for a
        single atom stay in that one place.  A text that does not parse
        ends parse-error, which is final for every extension.

        Every halting program starts with one of them and continues with
        data, which omega._walk grows only while the run ends out of data.
        Texts come in code order, which is the bits' order.  The count is
        exponential in max_len/8, so keep max_len small; a span per first
        character keeps a length's bits from being listed at once.
        """
        codes = [format(c, "08b") for c in range(32, 127)]  # text_bits of each character
        for nchars in range(1, max_len // 8):
            rest = [codes] * (nchars - 1)
            for code in codes:
                yield list(map("".join, product((code,), *rest, (NEWLINE_BITS,)))), None


def run_U(program: str, budget: int | None = None) -> RunResult:
    return LispU().run(program, budget)


def encode_program(expr: SExpr, data: str = "") -> str:
    """Bits of a program for the universal computer: prefix plus raw data."""
    return to_bits(expr) + data


def _read_codeword(program: str, i: int):
    """Decode the doubled codeword starting at index *i* of *program*.

    Only the encoder's own terminator 01 ends the word; a 10 pair is not in
    the domain (it would double the mass of every codeword and push the
    total to 1).  Returns the decoded bits and the index just past the
    terminator, or None and the reason the program is invalid.
    """
    found = read_doubled(program, i)
    if found is None:
        return None, OUT_OF_DATA
    if program[found[1] - 2] == "1":
        return None, PARSE_ERROR
    return found


def _codewords(n: int):
    """The doubling codewords (each bit twice, then 01) of the n-bit
    strings, in the strings' order."""
    return map("".join, product(*[("00", "11")] * n, ("01",)))


class ToyDoubling:
    """Reads pairs of equal bits and echoes one of each; an unequal pair
    stops the reading.  Halting is decidable, the domain is the doubled
    codewords, and the halting probability is exactly 1/2.
    """

    name = "toy"
    exact_omega = Dyadic(1, 1)

    _output = staticmethod(bit_values)  # the value built from the decoded bits

    @staticmethod
    def _values(n: int):
        """_output of every n-bit string, in order."""
        return product((0, 1), repeat=n)

    def run(self, program: str, budget: int | None = None) -> RunResult:
        bits, end = _read_codeword(check_bits(program), 0)
        if bits is None:
            return invalid(end)
        if end != len(program):
            return invalid(PARTIAL_CONSUMPTION)
        return halted(self._output(bits), end)

    def roots(self, max_len: int, budget: int | None = None):
        """Every codeword of the domain up to max_len, settled, one span per
        length: its words and its lazy values come in the same (bit)
        order."""
        for n in range(max_len // 2):
            yield list(_codewords(n)), self._values(n)


class ToyNumeral(ToyDoubling):
    """Doubling-decoded bits read as a binary numeral; outputs a natural."""

    name = "toy-numeral"

    @staticmethod
    def _output(bits: str) -> int:
        return int(bits, 2) if bits else 0

    @staticmethod
    def _values(n: int):
        return range(1 << n)


class ToyPair:
    """Two doubling codewords back to back; outputs the pair of strings."""

    name = "toy-pair"
    exact_omega = Dyadic(1, 2)

    def run(self, program: str, budget: int | None = None) -> RunResult:
        check_bits(program)
        parts = []
        end = 0
        for _ in range(2):
            bits, end = _read_codeword(program, end)
            if bits is None:
                return invalid(end)
            parts.append(bit_values(bits))
        if end != len(program):
            return invalid(PARTIAL_CONSUMPTION)
        return halted(tuple(parts), end)

    def roots(self, max_len: int, budget: int | None = None):
        """Every pair of codewords up to max_len, settled, one span per
        length.  The pairs of one length interleave in bit order, so each
        length is sorted."""
        words = [list(zip(_codewords(k), ToyDoubling._values(k))) for k in range(max_len // 2 - 1)]
        for n in range(4, max_len + 1, 2):
            pairs = sorted((x + y, (u, v)) for a in range(n // 2 - 1)
                           for (x, u), (y, v) in product(words[a], words[n // 2 - 2 - a]))
            yield [p for p, _ in pairs], [value for _, value in pairs]


def _behind(head: str, spans):
    for programs, values in spans:
        yield list(map(head.__add__, programs)), values


class ComposedUniversal:
    """The 0^k 1 composition: k zeros and a one select machine k, and the
    rest of the program goes to it.  Prefix-free components keep the
    composed domain prefix-free, and the overhead for machine k is exactly
    k + 1 bits.
    """

    name = "composed"

    def __init__(self, machines):
        self.machines = list(machines)
        omegas = [getattr(m, "exact_omega", None) for m in self.machines]
        if self.machines and all(o is not None for o in omegas):
            self.exact_omega = sum_dyadic(
                Dyadic(omega.num, omega.exp + k + 1) for k, omega in enumerate(omegas))
        else:
            self.exact_omega = None

    def run(self, program: str, budget: int | None = None) -> RunResult:
        # each bit is checked once: the selector by the zero scan, the rest
        # by the component's own run
        k = len(program) - len(program.lstrip("0"))
        if k == len(program):
            return invalid(OUT_OF_DATA)
        if program[k] != "1":
            check_bits(program)  # raises: a non-bit ends the selector
        rest = program[k + 1:]
        if k >= len(self.machines):
            check_bits(rest)
            return invalid(PARSE_ERROR)
        result = self.machines[k].run(rest, budget)
        if result.halted:
            return halted(result.value, len(program))
        return result

    def roots(self, max_len: int, budget: int | None = None):
        """The components' spans behind their selectors, merged by first
        program: the selectors are prefix-free, so spans of one length
        never interleave.  A component without roots gives its bare
        selector, which omega._walk grows."""
        # imported here: only compositions merge, and at module level heapq
        # costs every process that imports the package about 0.1 MB
        from heapq import merge

        streams = []
        for k, machine in enumerate(self.machines[:max_len]):
            head = "0" * k + "1"
            if hasattr(machine, "roots"):
                streams.append(_behind(head, machine.roots(max_len - k - 1, budget)))
            else:
                streams.append(iter((([head], None),)))
        return merge(*streams, key=lambda span: (len(span[0][0]), span[0][0]))

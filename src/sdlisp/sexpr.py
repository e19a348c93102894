"""S-expressions: the value domain, the two readers, the canonical printer,
and the expression<->bits codec.

Values are plain Python data: naturals are ``int``, symbols are ``str``,
lists are ``tuple``.  The empty tuple is the atom ``nil``; the reader maps
the token ``nil`` to ``()`` and the printer maps ``()`` back to ``nil``, so
they are one value throughout.

Two readers share one tokenizer:

* ``parse_full`` reads plain, fully parenthesized text.  An apostrophe glued
  to the next token is sugar for the quote form; a free-standing apostrophe
  is an ordinary one-character symbol, which is what lets the canonical
  printed quote form ``(' x)`` read back as itself.

* ``parse_implicit`` reads the dialect's abbreviated notation, where a
  symbol of known arity k consumes the next k complete expressions and a
  zero-arity primitive becomes a call, so ``read-exp`` reads as
  ``(read-exp)``.  Parentheses group; a pair of parentheses whose content
  reduces to a single arity-built application is redundant and drops out,
  which makes fully parenthesized source mean the same thing it means to
  ``parse_full``.
"""

from __future__ import annotations

from typing import Iterator, Union

SExpr = Union[int, str, tuple]

NIL: SExpr = ()
QUOTE = "'"

# Fixed argument count for every primitive form.  User functions get their
# own arities recorded in an ArityTable as `define` forms are read.
PRIMITIVE_ARITY = {
    QUOTE: 1,
    "if": 3,
    "define": 2,
    "lambda": 2,
    "let": 3,
    "car": 1,
    "cdr": 1,
    "cadr": 1,
    "cons": 2,
    "append": 2,
    "atom": 1,
    "=": 2,
    "+": 2,
    "-": 2,
    "*": 2,
    "<": 2,
    "size": 1,
    "bits": 1,
    "display": 1,
    "eval": 1,
    "read-bit": 0,
    "read-exp": 0,
    "try": 3,
    "run-utm-on": 1,
}


class SExprSyntaxError(ValueError):
    """Reader failure, with the source position when one is known."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"{message} (line {line}, column {col})"
        super().__init__(message)


class ArityTable:
    """Primitive arities plus arities of user-defined functions."""

    def __init__(self, user: dict[str, int] | None = None):
        self.user = dict(user or {})

    def arity(self, name: str) -> int | None:
        k = PRIMITIVE_ARITY.get(name)
        if k is not None:
            return k
        return self.user.get(name)

    def define(self, name: str, arity: int) -> None:
        if name not in PRIMITIVE_ARITY:
            self.user[name] = arity


_WHITESPACE = " \t\r\n"
_SPECIAL = "()'"
_SYMBOL_CHARS = frozenset(chr(c) for c in range(33, 127)) - frozenset(_SPECIAL)


class _Token:
    __slots__ = ("text", "line", "col", "attached")

    def __init__(self, text: str, line: int, col: int, attached: bool = False):
        self.text = text
        self.line = line
        self.col = col
        self.attached = attached


def tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c in _WHITESPACE:
            if c == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1
            continue
        if c in "()":
            tokens.append(_Token(c, line, col))
            i += 1
            col += 1
            continue
        if c == QUOTE:
            attached = i + 1 < n and text[i + 1] not in _WHITESPACE and text[i + 1] != ")"
            tokens.append(_Token(c, line, col, attached))
            i += 1
            col += 1
            continue
        if c not in _SYMBOL_CHARS:
            raise SExprSyntaxError(f"illegal character {c!r}", line, col)
        start = i
        while i < n and text[i] in _SYMBOL_CHARS:
            i += 1
        tokens.append(_Token(text[start:i], line, col))
        col += i - start
    return tokens


def _atom(text: str) -> SExpr:
    if text.isdigit():
        return _decimal_value(text)
    if text == "nil":
        return NIL
    return text


NOT_AN_ATOM = object()


def single_atom(text: str) -> SExpr:
    """The value of a text that is one non-primitive token between blanks,
    which both readers read as that atom; NOT_AN_ATOM for any other text.

    Uses tokenize's own character classes, so it never accepts a text the
    readers would read differently.
    """
    token = text.strip(_WHITESPACE)
    if not token or not _SYMBOL_CHARS.issuperset(token) or token in PRIMITIVE_ARITY:
        return NOT_AN_ATOM
    return _atom(token)


class _Reader:
    def __init__(self, tokens: list[_Token], table: ArityTable | None = None):
        self.tokens = tokens
        self.pos = 0
        self.table = table or ArityTable()

    def at_end(self) -> bool:
        return self.pos >= len(self.tokens)

    def _next(self) -> _Token:
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

    def _peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def read(self, plain: bool) -> tuple[SExpr, bool]:
        """Read one expression.  The plain reader builds lists from
        parentheses only; the arity reader also lets a symbol of known arity
        consume the expressions after it.  Returns (expression, built by
        arity); the flag lets grouping parentheses around one application
        drop out.
        """
        # The forms still open, innermost last: [open-paren token, items,
        # flag of the last item] for a group, [head, args, arity] for an
        # application.  An explicit stack, so text of any depth reads.
        stack: list[list] = []
        while True:
            tok = self._next()
            if tok.text == "(":
                stack.append([tok, [], False])
                value = None
            elif tok.text == ")":
                raise SExprSyntaxError("unexpected ')'", tok.line, tok.col)
            elif tok.text == QUOTE and tok.attached:
                stack.append([QUOTE, [], 1])
                continue
            else:  # a free-standing ' is a symbol, of arity 1 to the arity reader
                a = _atom(tok.text)
                k = None if plain or not isinstance(a, str) else self.table.arity(a)
                if k is None:
                    value = (a, False)
                elif k == 0:
                    value = ((a,), True)
                else:
                    stack.append([a, [], k])
                    continue
            # hand the value to the forms it completes
            while stack:
                top = stack[-1]
                if isinstance(top[0], _Token):
                    if value is not None:
                        top[1].append(value[0])
                        top[2] = value[1]
                    nxt = self._peek()
                    if nxt is None:
                        raise SExprSyntaxError("unbalanced parenthesis", top[0].line, top[0].col)
                    if nxt.text != ")":
                        break
                    self.pos += 1
                    stack.pop()
                    _, items, built = top
                    value = (items[0] if len(items) == 1 and built else tuple(items), False)
                    continue
                head, args, k = top
                args.append(value[0])
                if head == "define" and len(args) == 1:
                    sig = args[0]
                    if isinstance(sig, tuple) and sig and isinstance(sig[0], str):
                        # Register the arity up front so the body may call
                        # the function being defined without parentheses.
                        self.table.define(sig[0], len(sig) - 1)
                if len(args) < k:
                    break
                stack.pop()
                value = ((head, *args), not plain)
            else:
                return value


def _read_whole(reader: _Reader, plain: bool) -> SExpr:
    """The one expression that is all of the reader's text."""
    if reader.at_end():
        raise SExprSyntaxError("empty input")
    expr, _ = reader.read(plain)
    if not reader.at_end():
        tok = reader.tokens[reader.pos]
        raise SExprSyntaxError(f"trailing input {tok.text!r}", tok.line, tok.col)
    return expr


def parse_full(text: str) -> SExpr:
    """Read one complete, fully parenthesized expression."""
    return _read_whole(_Reader(tokenize(text)), plain=True)


def parse_implicit(text: str, table: ArityTable | None = None) -> SExpr:
    """Read one expression in the abbreviated (implicit-parenthesis) notation."""
    return _read_whole(_Reader(tokenize(text), table), plain=False)


def iter_forms(text: str, table: ArityTable | None = None) -> Iterator[SExpr]:
    """Read successive top-level forms lazily.

    Laziness matters: a `define` read now extends the arity table used to
    read the forms after it.
    """
    reader = _Reader(tokenize(text), table)
    while not reader.at_end():
        yield reader.read(plain=False)[0]


# CPython refuses int<->str conversions wider than
# sys.get_int_max_str_digits() (4,300 digits by default; a nonzero setting is
# never below 640).  Numerals of at most _STR_SAFE_BITS bits (603 digits) go
# through str() and int() directly; wider ones are split by powers 10^w with
# w a power of two, so the dialect's numerals have no width limit under any
# setting.
_STR_SAFE_BITS = 2000
_STR_SAFE_DIGITS = 600
# floor(log10(2) * 2**128): b * _LOG10_2_Q128 >> 128 is floor(b * log10(2))
# for any bit length b a machine can hold.
_LOG10_2_Q128 = 102435199438739363750012109250103232700


def _decimal(n: int) -> str:
    """Exact decimal text of a natural of any width."""
    if n.bit_length() <= _STR_SAFE_BITS:
        return str(n)
    if n < 0:
        return "-" + _decimal(-n)
    # (b - 1) * 3 // 10 <= digits - 1, so the high half is never zero.
    w = 1 << (((n.bit_length() - 1) * 3 // 10).bit_length() - 1)
    hi, lo = divmod(n, 10 ** w)
    return _decimal(hi) + _decimal(lo).zfill(w)


def _decimal_value(text: str) -> int:
    """The natural a digit string of any length denotes; inverse of _decimal."""
    if len(text) <= _STR_SAFE_DIGITS:
        return int(text)
    w = 1 << ((len(text) - 1).bit_length() - 1)
    return _decimal_value(text[:-w]) * 10 ** w + _decimal_value(text[-w:])


def _numeral_chars(n) -> int:
    """len(_decimal(n)), counted from the bit length without any text."""
    if type(n) is not int and (isinstance(n, bool) or not isinstance(n, int)):
        raise TypeError(f"not an S-expression: {n!r}")
    b = n.bit_length()
    if b <= _STR_SAFE_BITS:
        return len(str(n))
    if n < 0:
        return 1 + _numeral_chars(-n)
    # 2^(b-1) <= n < 2^b, so n has m or m + 1 digits for m = floor(b log10 2).
    m = b * _LOG10_2_Q128 >> 128
    return m + (n >= 10 ** m)


def print_canonical(e: SExpr) -> str:
    """Deterministic canonical text: full parentheses, single blanks,
    ``nil`` for the empty list, no apostrophe sugar.

    The walk keeps its own stack, so a value of any depth prints.
    """
    parts: list[str] = []
    stack = [e]
    while stack:
        x = stack.pop()
        if isinstance(x, str):  # a symbol, or punctuation pushed below
            parts.append(x)
        elif isinstance(x, tuple):
            if not x:
                parts.append("nil")
                continue
            parts.append("(")
            stack.append(")")
            for item in reversed(x[1:]):
                stack.append(item)
                stack.append(" ")
            stack.append(x[0])
        elif isinstance(x, bool) or not isinstance(x, int):
            raise TypeError(f"not an S-expression: {x!r}")
        else:
            parts.append(_decimal(x))
    return "".join(parts)


# Sizes of recently measured lists, keyed by identity.  Each entry holds the
# list itself, so its id cannot be reused by another object while cached;
# keying by value would hash the whole tree, recursively on the host stack.
_SIZE_CACHE: dict[int, tuple[tuple, int]] = {}
_SIZE_CACHE_MAX = 4096


def size_chars(e: SExpr) -> int:
    """Character size of the canonical text; the dialect's complexity unit.

    Equal to ``len(print_canonical(e))`` but counted from the structure: a
    symbol is its name, nil is 3, a numeral its decimal digits, and a
    non-empty list its items plus two parentheses and len(e) - 1 blanks.
    """
    if isinstance(e, str):
        return len(e)
    if not isinstance(e, tuple):
        return _numeral_chars(e)
    if not e:
        return 3
    hit = _SIZE_CACHE.get(id(e))
    if hit is not None:
        return hit[1]
    total = 0
    stack = [e]
    while stack:
        x = stack.pop()
        if isinstance(x, str):
            total += len(x)
        elif isinstance(x, tuple):
            if x:
                total += 1 + len(x)
                stack.extend(x)
            else:
                total += 3
        else:
            total += _numeral_chars(x)
    if len(_SIZE_CACHE) >= _SIZE_CACHE_MAX:
        _SIZE_CACHE.clear()
    _SIZE_CACHE[id(e)] = (e, total)
    return total


NEWLINE_BITS = format(10, "08b")


def text_bits(text: str) -> str:
    """Each character's code as 8 bits, MSB first (wider codes in full)."""
    try:
        data = text.encode("latin-1")
    except UnicodeEncodeError:
        return "".join(format(ord(c), "08b") for c in text)
    # a leading 1 byte keeps the leading zero bits of the first character
    return bin(int.from_bytes(b"\x01" + data, "big"))[3:]


def to_bits(e: SExpr) -> str:
    """Canonical text as bits, 8 per character (MSB first), newline appended."""
    return text_bits(print_canonical(e) + "\n")


def read_prefix_text(stream) -> str:
    """Consume 8-bit characters up to and including a newline.

    Raises OutOfData if the stream ends first and SExprSyntaxError on a
    character outside printable ASCII; the two conditions stay distinct.
    """
    chars = []
    while True:
        value = int(stream.read(8), 2)
        if value == 10:
            return "".join(chars)
        if not 32 <= value <= 126:
            raise SExprSyntaxError(f"unprintable character code {value} in expression bits")
        chars.append(chr(value))


def read_exp_from_stream(stream, table: ArityTable | None = None) -> SExpr:
    """Read one newline-delimited expression from a bit stream.

    The text is read with the implicit reader, so a printed zero-arity
    primitive like ``read-bit`` comes back as the call ``(read-bit)``.
    """
    return parse_implicit(read_prefix_text(stream), table)

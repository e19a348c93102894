"""A self-delimiting LISP dialect, a universal computer over bit strings,
and a toolkit for desk-scale program-size experiments."""

from .bits import BitStream, OutOfData, bits_to_sexpr, parse_bit_text
from .dyadic import Dyadic
from .interp import Budget, OutOfTime, Session, run_source
from .sexpr import (
    ArityTable,
    SExpr,
    SExprSyntaxError,
    parse_full,
    parse_implicit,
    print_canonical,
    read_exp_from_stream,
    size_chars,
    to_bits,
)
from .universal import (
    LispU,
    RunResult,
    ToyDoubling,
    ToyNumeral,
    ToyPair,
    encode_program,
    run_U,
)

__all__ = [
    "ArityTable",
    "BitStream",
    "Budget",
    "Dyadic",
    "LispU",
    "OutOfData",
    "OutOfTime",
    "RunResult",
    "SExpr",
    "SExprSyntaxError",
    "Session",
    "ToyDoubling",
    "ToyNumeral",
    "ToyPair",
    "bits_to_sexpr",
    "encode_program",
    "parse_bit_text",
    "parse_full",
    "parse_implicit",
    "print_canonical",
    "read_exp_from_stream",
    "run_U",
    "run_source",
    "size_chars",
    "to_bits",
]

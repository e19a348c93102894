"""Command-line front end.

One verb per subsystem; every verb is deterministic in its inputs.  Exit
codes: 0 on success, 1 on a domain failure (nothing found, space exhausted,
inconclusive), 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import sys

from . import ait, encoders, kraft, omega
from .bits import BitStream, OutOfData, parse_bit_text
from .dyadic import Dyadic
from .interp import Session
from .sexpr import (
    SExprSyntaxError,
    parse_implicit,
    print_canonical,
    read_exp_from_stream,
    size_chars,
    to_bits,
)
from .universal import ComposedUniversal, LispU, ToyDoubling, ToyNumeral, ToyPair

MACHINES = {
    "lispu": LispU,
    "toy": ToyDoubling,
    "toy-numeral": ToyNumeral,
    "toy-pair": ToyPair,
    "toy+pair": lambda: ComposedUniversal([ToyDoubling(), ToyPair()]),
}


class DomainFailure(Exception):
    """A verb ran correctly but the domain said no."""


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def format_dyadic(d: Dyadic) -> str:
    return f"{d} = {d.bin_str()}"


def format_run_result(result) -> str:
    if result.status == "halted":
        return f"halted {print_canonical(result.value)}"
    if result.status == "still-running":
        return "still-running"
    return f"invalid {result.reason}"


# ---------------------------------------------------------------------------
# verbs

def _run_and_print(session: Session, text: str) -> None:
    """Evaluate top-level forms, printing definitions, values and errors."""
    for kind, payload in session.run_source(text):
        if kind == "define":
            print(f"define {print_canonical(payload)}")
        elif kind == "error":
            print(f"error {print_canonical(payload)}", file=sys.stderr)
        else:
            print(print_canonical(payload))


def cmd_run(args) -> int:
    session = Session(emit=lambda v: print(print_canonical(v)))
    _run_and_print(session, _read_text(args.source))
    return 0


def cmd_repl(args) -> int:
    session = Session(emit=lambda v: print(print_canonical(v)))
    print("sdlisp repl; blank line evaluates, ctrl-d exits", file=sys.stderr)
    buffer: list[str] = []
    while True:
        print("> " if not buffer else ". ", end="", file=sys.stderr, flush=True)
        try:
            line = input()
        except EOFError:
            print(file=sys.stderr)
            return 0
        if line.strip() or not buffer:
            buffer.append(line)
            if line.strip():
                continue
        text = "\n".join(buffer)
        buffer = []
        if not text.strip():
            continue
        try:
            _run_and_print(session, text)
        except SExprSyntaxError as exc:
            print(f"parse error: {exc}", file=sys.stderr)


def cmd_u(args) -> int:
    program = parse_bit_text(_read_text(args.program))
    result = LispU().run(program, args.budget)
    print(format_run_result(result))
    return 0


def cmd_bits(args) -> int:
    if args.decode:
        stream = BitStream(parse_bit_text(_read_text(args.expr)))
        expr = read_exp_from_stream(stream)
        print(print_canonical(expr))
        if args.stats:
            print(f"consumed: {stream.pos}")
        return 0
    expr = parse_implicit(args.expr)
    print(to_bits(expr))
    if args.stats:
        print(f"canonical: {print_canonical(expr)}")
        print(f"chars: {size_chars(expr)}")
        print(f"bits: {len(to_bits(expr))}")
    return 0


def _codec(args):
    if args.scheme == "elegant":
        return encoders.make_elegant_codec(MACHINES[args.machine](), args.size_cap, args.budget)
    return encoders.CODECS[args.scheme]


def cmd_encode(args) -> int:
    print(_codec(args).encode(parse_bit_text(args.bits)))
    return 0


def cmd_decode(args) -> int:
    payload, consumed = _codec(args).decode_text(parse_bit_text(args.bits))
    print(payload if payload else "(empty)")
    print(f"consumed: {consumed}")
    return 0


def cmd_kraft(args) -> int:
    allocator = kraft.Allocator()
    for lineno, line in enumerate(_read_text(args.requirements).splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        size_text, _, output_text = line.partition(" ")
        try:
            requirement = kraft.Requirement(int(size_text), parse_implicit(output_text or "nil"))
        except (ValueError, SExprSyntaxError) as exc:
            raise SExprSyntaxError(f"line {lineno}: {exc}") from exc
        try:
            codeword = allocator.request(requirement)
        except kraft.Exhausted:
            print(f"measure: {format_dyadic(allocator.measure_used())}")
            raise DomainFailure(f"requirement on line {lineno} exhausted the code space")
        print(f"{codeword if codeword else '(empty)'} -> {print_canonical(requirement.output)}")
    print(f"measure: {format_dyadic(allocator.measure_used())}")
    return 0


def cmd_omega(args) -> int:
    machine = MACHINES[args.machine]()
    # round r of the oracle walks max(--oracle, r) bits; round r of the count
    # solver runs each program for 2^(r-1) steps
    dovetails = args.count_file is not None or args.oracle is not None
    scale = max(args.oracle or 0, args.max_rounds) if dovetails else args.max_len
    if args.machine == "lispu" and scale > 24 and not args.force:
        raise SExprSyntaxError("lispu above 24 bits or 24 rounds needs --force")
    if args.count_file is not None:
        programs = [parse_bit_text(line) for line in _read_text(args.count_file).split()]
        statuses = omega.solve_halting_by_count(programs, args.count, machine,
                                                max_rounds=args.max_rounds)
        for p, status in zip(programs, statuses):
            print(f"{p if p else '(empty)'}: {status}")
        return 0
    if args.oracle is not None:
        exact = machine.exact_omega if args.omega is None else Dyadic.parse(args.omega)
        if exact is None:
            raise DomainFailure("no exact halting probability known for this machine")
        statuses = omega.halting_oracle_from_omega(machine, exact, args.oracle,
                                                   max_rounds=args.max_rounds)
        for p in sorted(statuses, key=lambda q: (len(q), q)):
            print(f"{p if p else '(empty)'}: {statuses[p]}")
        return 0
    if args.prime is not None:
        bound = omega.omega_prime_lower(machine, args.prime, args.max_len, args.budget)
        print(f"{format_dyadic(bound)} (lower bound of a lower bound)")
        return 0
    estimate = omega.omega_lower_bound(machine, args.max_len, args.budget)
    print(f"{estimate.value.bin_str()} (dyadic {estimate.value})")
    if args.bits is not None:
        exact = machine.exact_omega
        if exact is not None:
            print(f"first {args.bits} bits: {exact.bin_str_fixed(args.bits)}")
        else:
            print("lower bound only; no bit of the true value is certified")
    return 0


def cmd_elegant(args) -> int:
    space = ait.ExpressionSpace(numeral_limit=args.numeral_limit)
    report = ait.elegant_search(args.char_cap, args.budget, space)
    print(f"expressions evaluated: {len(report.listing)}")
    print(f"distinct values: {len(report.min_size)}")
    print(f"budget-elegant: {len(report.elegant)}")
    if args.list:
        for expr, value in report.elegant:
            print(f"{print_canonical(expr)} : {print_canonical(value)}")
    return 0


def cmd_complexity(args) -> int:
    target = parse_implicit(args.target)
    if args.chars:
        record = ait.lisp_complexity_upper(target, args.char_cap, args.budget)
        witness = print_canonical(record.witness)
    else:
        record = ait.H_upper(target, MACHINES[args.machine](), args.size_cap, args.budget)
        witness = record.witness
    print(f"target: {print_canonical(target)}")
    print(f"size: {record.size} {record.unit}")
    print(f"witness: {witness}")
    print(f"exact: {'yes' if record.exact else 'no (upper bound)'}")
    return 0


def cmd_pair(args) -> int:
    if args.info:
        x = parse_implicit(args.info[0])
        y = parse_implicit(args.info[1])
        report = ait.info_measures(x, y, MACHINES[args.machine](), args.size_cap, args.budget)
        print(f"H(x): {report.h_x.size}")
        print(f"H(y): {report.h_y.size}")
        print(f"H(x,y): {report.h_xy.size}")
        print(f"H(x:y): {report.mutual} ({report.label})")
        return 0
    if args.xstar is None or args.ystar is None:
        raise SExprSyntaxError("pair needs two program files (or --info X Y)")
    xstar = parse_bit_text(_read_text(args.xstar))
    ystar = parse_bit_text(_read_text(args.ystar))
    print(f"prefix bits: {len(ait.pair_prefix_bits())}")
    result = ait.run_pair(xstar, ystar, args.budget)
    print(format_run_result(result))
    return 0


def cmd_paradox(args) -> int:
    theory = ait.sound_mock_theory() if args.theory == "sound" else ait.unsound_mock_theory()
    outcome = ait.berry_searcher(theory, args.schedule)
    print(f"theory size: {outcome.theory_size} chars")
    print(f"searcher constant: {outcome.searcher_constant} chars"
          f" (classic dialect: {outcome.classic_constant})")
    print(f"threshold: {outcome.threshold} chars")
    if not outcome.found:
        print("not-found: no provably elegant expression above the threshold")
        return 1
    print(f"found: theorem {print_canonical(outcome.theorem)}")
    print(f"sizes: {outcome.threshold} < {outcome.theorem_size}")
    print(f"value: {print_canonical(outcome.value)}")
    return 0


# ---------------------------------------------------------------------------

def _natural(text: str) -> int:
    """Option type for sizes, caps, limits and budgets: a whole number >= 0."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a whole number >= 0, got {text!r}")
    return int(text)


def _schedule(text: str) -> list[int]:
    """Option type for a budget schedule: naturals separated by commas."""
    return [_natural(b) for b in text.split(",")]


def _add_machine_opts(sub, default="toy"):
    sub.add_argument("--machine", choices=list(MACHINES), default=default)
    sub.add_argument("--budget", type=_natural, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sdlisp")
    verbs = parser.add_subparsers(dest="verb", required=True)

    sub = verbs.add_parser("run", help="evaluate a source file of top-level forms")
    sub.add_argument("source")
    sub.set_defaults(func=cmd_run)

    sub = verbs.add_parser("repl", help="interactive session")
    sub.set_defaults(func=cmd_repl)

    sub = verbs.add_parser("u", help="run the universal computer on a bit-string file")
    sub.add_argument("program", help="file of bits ('-' for stdin)")
    sub.add_argument("--budget", type=_natural, default=None)
    sub.set_defaults(func=cmd_u)

    sub = verbs.add_parser("bits", help="expression to bits, or back with --decode")
    sub.add_argument("expr", help="expression text, or a bits file with --decode")
    sub.add_argument("--decode", action="store_true")
    sub.add_argument("--stats", action="store_true")
    sub.set_defaults(func=cmd_bits)

    for name, func in (("encode", cmd_encode), ("decode", cmd_decode)):
        sub = verbs.add_parser(name, help=f"{name} with a self-delimiting scheme")
        sub.add_argument("bits")
        sub.add_argument("--scheme", choices=["doubling", "header", "two-header", "elegant"],
                         default="doubling")
        sub.add_argument("--size-cap", type=_natural, default=16,
                         help="search cap for the elegant scheme's length program")
        _add_machine_opts(sub, default="toy-numeral")
        sub.set_defaults(func=func)

    sub = verbs.add_parser("kraft", help="first-fit codewords for 'size output' lines")
    sub.add_argument("requirements", help="file of lines ('-' for stdin)")
    sub.set_defaults(func=cmd_kraft)

    sub = verbs.add_parser("omega", help="halting-probability lower bounds and oracles")
    _add_machine_opts(sub)
    sub.add_argument("--max-len", type=_natural, default=8)
    sub.add_argument("--bits", type=_natural, default=None,
                     help="also print this many leading bits when the exact value is known")
    sub.add_argument("--force", action="store_true")
    sub.add_argument("--count-file", default=None,
                     help="classify these programs given --count of them halt")
    sub.add_argument("--count", type=_natural, default=0)
    sub.add_argument("--oracle", type=_natural, default=None,
                     help="classify all programs up to this length from the exact value")
    sub.add_argument("--omega", default=None, help="override the exact value, e.g. 1/2")
    sub.add_argument("--prime", type=_natural, default=None,
                     help="budgeted lower bound on the information-content sum over 0..N")
    sub.add_argument("--max-rounds", type=_natural, default=64)
    sub.set_defaults(func=cmd_omega)

    sub = verbs.add_parser("elegant", help="budget-elegant expressions up to a size cap")
    sub.add_argument("--char-cap", type=_natural, default=4)
    sub.add_argument("--budget", type=_natural, default=256)
    sub.add_argument("--numeral-limit", type=_natural, default=None)
    sub.add_argument("--list", action="store_true")
    sub.set_defaults(func=cmd_elegant)

    sub = verbs.add_parser("complexity", help="smallest found program for a target")
    sub.add_argument("target")
    sub.add_argument("--chars", action="store_true", help="search expressions, not bit programs")
    sub.add_argument("--char-cap", type=_natural, default=8)
    sub.add_argument("--size-cap", type=_natural, default=24)
    _add_machine_opts(sub)
    sub.set_defaults(func=cmd_complexity)

    sub = verbs.add_parser("pair", help="combine two programs into one for the pair")
    sub.add_argument("xstar", nargs="?", help="bits file of the first program")
    sub.add_argument("ystar", nargs="?", help="bits file of the second program")
    sub.add_argument("--info", nargs=2, metavar=("X", "Y"),
                     help="report individual/joint/mutual sizes for two values")
    sub.add_argument("--size-cap", type=_natural, default=24)
    _add_machine_opts(sub, default="toy+pair")
    sub.set_defaults(func=cmd_pair)

    sub = verbs.add_parser("paradox", help="run the oversized-theorem searcher on a mock theory")
    sub.add_argument("--theory", choices=["sound", "unsound"], default="unsound")
    sub.add_argument("--schedule", type=_schedule, default="1024,65536,1048576")
    sub.set_defaults(func=cmd_paradox)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SExprSyntaxError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainFailure, ait.SearchExhausted, kraft.BuildFailure,
            omega.Inconclusive, OutOfData) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        pass  # report it below, once leaving this block has freed the search
    print(f"failure: {args.verb} ran out of memory", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())

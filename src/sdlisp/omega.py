"""Halting-probability machinery at desk scale.

Every halting program of k bits contributes 2^-k, so running all programs
up to a length cap for a step budget gives an exact lower bound that only
grows as the caps grow.  Knowing the exact value (or exactly how many of a
batch halt) then turns the lower bound into a halting oracle: dovetail until
the bound crosses the known mass, and whatever has not halted never will.

All arithmetic is exact dyadic; no bit of an estimate is ever rounded.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import groupby, islice, repeat
from operator import lt

from .bits import bitstrings_up_to
from .dyadic import Dyadic, mass, sum_dyadic
from .universal import HALTED, OUT_OF_DATA, STILL_RUNNING, halted

HALTS = "halts"
NEVER_HALTS = "never-halts"


class Inconclusive(Exception):
    """The dovetail cap was reached before the target condition was met."""


@dataclass(frozen=True)
class OmegaEstimate:
    value: Dyadic
    max_len: int
    budget: int | None
    halted: tuple[str, ...]


def runs(machine, max_len: int, budget: int | None):
    """Runs of the programs of <= max_len bits that may halt, as
    (program, result) pairs in (length, lexicographic) order.

    The walk merges the machine's roots (see universal; a machine without
    them is walked from the empty program) with the out-of-data extensions
    of the programs before them: a program grows by one bit only when its
    run ended out of data.  That is exact under the machine contract: out
    of data means the run needed bits past the end, and every other outcome
    is final for every extension.  The extensions of one length come in
    order because their parents ran in order, so nothing is sorted or kept
    beyond one length's extensions.

    Roots come in spans of one length, each checked in bulk: its programs
    must be of one length and strictly increasing, and its first must come
    after the root before it; one equal to that root is skipped, and one
    before it raises ValueError.  A settled span with no extension inside
    its range is taken whole: its programs halt with its values, without a
    run.  Otherwise the extensions cut it, and a root equal to an extension
    takes its place.  It is a loop, not a recursion, so every run starts at
    the same host stack depth.
    """
    for p, outcome in _walk(machine, max_len, budget):
        if type(p) is str:
            yield p, outcome
        else:
            yield from zip(p, map(halted, outcome, repeat(len(p[0]))))


_END = (None, ())


def _walk(machine, max_len: int, budget: int | None):
    """The walk of :func:`runs`, in its order: (program, result) for each
    program run, and (programs, values) for each settled piece of a span,
    taken without a run."""
    run = machine.run
    lengths = groupby(_spans(machine, max_len, budget), lambda span: len(span[0][0]))
    length, spans = next(lengths, _END)
    grown: list[str] = []  # this length's extensions, in order
    for n in range(max_len + 1):
        children: list[str] = []
        for programs, values in _segments(spans, grown) if length == n else ((grown, None),):
            if values is not None:
                yield programs, values
                continue
            for p in programs:
                result = run(p, budget)
                if n < max_len and result.reason == OUT_OF_DATA:
                    children += (p + "0", p + "1")
                yield p, result
        if length == n:
            length, spans = next(lengths, _END)
        grown = children


def _spans(machine, max_len: int, budget: int | None):
    """The machine's spans, checked in bulk and in order; a first root
    equal to the last root before it is dropped."""
    if not hasattr(machine, "roots"):
        yield [""], None
        return
    name = type(machine).__name__
    previous = None
    for programs, values in machine.roots(max_len, budget):
        n = len(programs[0])
        if not (list(map(len, programs)).count(n) == len(programs)
                and all(map(lt, programs, islice(programs, 1, None)))):
            raise ValueError(f"{name} yields a span from {programs[0]!r} whose roots are not "
                             "of one length in strictly increasing order")
        if previous is not None and (n, programs[0]) <= (len(previous), previous):
            if programs[0] != previous:
                raise ValueError(f"{name} yields root {programs[0]!r} after {previous!r}: "
                                 "roots must come in (length, lexicographic) order")
            programs = programs[1:]
            if values is not None:
                values = islice(values, 1, None)
            if not programs:
                continue
        previous = programs[-1]
        yield programs, values


def _segments(spans, grown: list[str]):
    """One length's spans merged with its extensions *grown*, as segments
    in order: (programs, None) to run and (programs, values) settled."""
    i = 0
    for programs, values in spans:
        j = bisect_left(grown, programs[0], i)
        k = bisect_right(grown, programs[-1], j)
        if i < j:
            yield grown[i:j], None
        if j == k:
            yield programs, values
        else:
            # cut the span at each extension inside it; one equal to a root
            # is that root
            if values is not None:
                values = list(values)
            lo = 0
            for extension in islice(grown, j, k):
                r = bisect_left(programs, extension, lo)
                if lo < r:
                    yield programs[lo:r], None if values is None else values[lo:r]
                if programs[r] != extension:
                    yield [extension], None
                lo = r
            yield programs[lo:], None if values is None else values[lo:]
        i = k
    if i < len(grown):
        yield grown[i:], None


def omega_lower_bound(machine, max_len: int, budget: int | None) -> OmegaEstimate:
    """Mass of every program of length <= max_len that halts within budget.

    A pure function of (machine, max_len, budget).  Runs are streamed in
    order, so memory holds the roots, the walk's frontier and the halting
    set, not the space.  It folds the walk of :func:`runs`, and a settled
    span joins the halting set whole, with no result built.
    """
    halted: list[str] = []
    for p, outcome in _walk(machine, max_len, budget):
        if type(p) is not str:
            halted += p
        elif outcome.status == HALTED:
            halted.append(p)
    return OmegaEstimate(_mass_in_order(halted), max_len, budget, tuple(halted))


def _mass_in_order(programs: list[str]) -> Dyadic:
    """mass(map(len, programs)) for programs in nondecreasing length, as
    the walk yields them: one bisect per length, not a count per program."""
    counts, i = [], 0
    while i < len(programs):
        n = len(programs[i])
        j = bisect_right(programs, n, i, key=len)
        counts.append(Dyadic(j - i, n))
        i = j
    return sum_dyadic(counts)


def solve_halting_by_count(programs, count: int, machine, max_rounds: int = 64) -> list[str]:
    """Classify each program given that exactly *count* of them halt.

    Runs the programs with doubling budgets until the promised number have
    halted; the rest never will.  Only a still-running program runs again:
    every other outcome is final.  An overstated *count* is Inconclusive
    once none is still running, or after *max_rounds* rounds.
    """
    programs = list(programs)
    if not 0 <= count <= len(programs):
        raise ValueError("count out of range")
    halted: set[int] = set()
    running = range(len(programs))
    budget = 1
    for _ in range(max_rounds):
        if len(halted) >= count or not running:
            break
        results = [(i, machine.run(programs[i], budget)) for i in running]
        halted.update(i for i, result in results if result.halted)
        running = [i for i, result in results if result.status == STILL_RUNNING]
        budget *= 2
    if len(halted) < count:
        raise Inconclusive(f"only {len(halted)} of the promised {count} halted")
    return [HALTS if i in halted else NEVER_HALTS for i in range(len(programs))]


def halting_oracle_from_omega(machine, omega_exact: Dyadic, max_len: int,
                              max_rounds: int = 64) -> dict[str, str]:
    """Statuses of all programs up to max_len bits, from the exact halting
    probability.

    Dovetails until the certified lower bound exceeds omega_exact - 2^-N
    strictly.  Past that point a further halting program of <= N bits would
    push the true mass above omega_exact itself, so every still-unhalted
    short program never halts.  (The strict form stays sound even when the
    halting probability is itself dyadic, as the toy machine's 1/2 is.)
    """
    target = omega_exact - Dyadic.half_power(max_len)
    for r in range(1, max_rounds + 1):
        estimate = omega_lower_bound(machine, max(max_len, r), 1 << r)
        if estimate.value > target:
            halted = set(estimate.halted)
            return {
                p: (HALTS if p in halted else NEVER_HALTS)
                for p in bitstrings_up_to(max_len)
            }
    raise Inconclusive(f"lower bound never exceeded {target}")


def omega_prime_lower(machine, n_max: int, size_cap: int, budget: int | None) -> Dyadic:
    """Budgeted lower bound on the mass-by-information-content sum
    over the naturals 0..n_max.

    Each term uses an upper bound on the program size of N, so each term is
    a lower bound, and the range is finite: this is a lower bound of a lower
    bound, reported as nothing more.  One walk serves every N: in its
    (length, lexicographic) order the first program that halts with N is
    the witness H_upper would find.
    """
    wanted = range(n_max + 1)
    sizes: dict[int, int] = {}
    for p, result in runs(machine, size_cap, budget):
        if result.halted and type(result.value) is int and result.value in wanted:
            sizes.setdefault(result.value, len(p))
    return mass(sizes.values())

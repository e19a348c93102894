"""First-fit construction of a self-delimiting computer from size requests.

Each requirement asks for an s-bit program with a chosen output.  The
allocator hands out the lexicographically least s-bit string that is neither
a prefix nor an extension of anything already assigned - equivalently, the
leftmost free dyadic interval of length 2^-s in the unit interval.  The
construction succeeds exactly when the running sum of 2^-s stays at or
below one, so a stream fails at the first request whose running sum goes
above one.

First fit keeps the invariant behind the Kraft-Chaitin lemma: there is at
most one free aligned block at each depth, and a deeper free block lies to
the left of every shallower one.  The free depths are therefore the 1-bits
of one minus the used measure, and the leftmost block that can hold a
2^-s interval is simply the deepest free block no deeper than s.  Splitting
it frees one right half at each depth it passes, all of them depths that
held no free block, so the invariant survives every request.  The allocator
keeps the free depths as a bitmask too: that block's depth is the mask's
highest 1-bit at or below s.

A build therefore needs no allocation to know whether it fails.  The
running sum only grows, so the stream's total decides: a stream whose total
is at most one is allocated with no failure check, and one whose total
exceeds one fails where its exact running sum first passes one, found
without making a codeword.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, compress, count, groupby
from operator import attrgetter, itemgetter

from .bits import check_bits
from .dyadic import Dyadic, mass
from .sexpr import SExpr
from .universal import OUT_OF_DATA, PARSE_ERROR, PARTIAL_CONSUMPTION, RunResult, halted, invalid


@dataclass(frozen=True)
class Requirement:
    size: int
    output: SExpr

    def __post_init__(self):
        if self.size < 0:
            raise ValueError("requirement size must be non-negative")


class Exhausted(Exception):
    """No codeword of the requested size is available."""


class Allocator:
    """First-fit codeword allocator over one unit of dyadic storage."""

    def __init__(self):
        # free[d] = index i of the one free block [i/2^d, (i+1)/2^d) at depth d
        self.free: dict[int, int] = {0: 0}
        self.free_mask = 1  # bit d set exactly when d is a key of free
        self.assigned: list[tuple[str, SExpr]] = []

    def measure_used(self) -> Dyadic:
        return mass(len(codeword) for codeword, _ in self.assigned)

    def request(self, req: Requirement) -> str:
        """Assign and return a codeword for *req*; raises Exhausted."""
        self.place((req,))
        return self.assigned[-1][0]

    def place(self, requirements) -> None:
        """Assign codewords to *requirements* in turn, appending each to
        ``assigned``; raises Exhausted at the first that does not fit, with
        the allocator as the requirements before it left it."""
        free, mask, append = self.free, self.free_mask, self.assigned.append
        try:
            for req in requirements:
                size = req.size
                top = 2 << size
                # the deepest free depth at or below size holds the block
                depth = (mask & (top - 1)).bit_length() - 1
                if depth < 0:
                    raise Exhausted(f"no free {size}-bit codeword")
                # take depth's block; the split frees depths depth+1..size
                mask ^= top - (1 << depth)
                index = free.pop(depth)
                while depth < size:
                    # split: descend into the left half, free the right half
                    index <<= 1
                    depth += 1
                    free[depth] = index + 1
                append((bin(index | 1 << size)[3:], req.output))
        finally:
            self.free_mask = mask


class KraftMachine:
    """The computer realized by an allocation: each codeword is a program
    for its requirement's output, consumed exactly."""

    name = "kraft"

    def __init__(self, assignments: list[tuple[str, SExpr]]):
        self.assignments = list(assignments)
        self.outputs = dict(self.assignments)
        # In sorted order a word that is a prefix of another is a prefix of
        # its successor, so neighbours alone decide prefix-freeness.
        words = self.codewords = sorted(map(itemgetter(0), self.assignments))
        for i in compress(count(), map(str.startswith, words[1:], words)):
            raise ValueError(f"codewords are not prefix-free: {words[i]!r} and {words[i + 1]!r}")
        self.exact_omega = mass(map(len, words))

    def run(self, program: str, budget: int | None = None) -> RunResult:
        if check_bits(program) in self.outputs:
            return halted(self.outputs[program], len(program))
        # Only the predecessor can be a prefix of the program, and if any
        # codeword extends it, the successor does.
        i = bisect_right(self.codewords, program)
        if i and program.startswith(self.codewords[i - 1]):
            return invalid(PARTIAL_CONSUMPTION)
        if i < len(self.codewords) and self.codewords[i].startswith(program):
            return invalid(OUT_OF_DATA)
        return invalid(PARSE_ERROR)

    def roots(self, max_len: int, budget: int | None = None):
        """Every codeword up to max_len with its output, settled, one span
        per length: the stable sort by length keeps each length in bit
        order."""
        words = sorted(self.codewords, key=len)
        del words[bisect_right(words, max_len, key=len):]
        for _, span in groupby(words, len):
            span = list(span)
            yield span, map(self.outputs.__getitem__, span)


@dataclass(frozen=True)
class BuildFailure(Exception):
    index: int
    requirement: Requirement

    def __str__(self):
        return f"requirement {self.index} (size {self.requirement.size}) exhausted the code space"


def build_computer(requirements) -> KraftMachine:
    """Process requirements in order into a machine; fails at the first
    request that cannot be met, reporting its index.

    The stream's total mass decides whether it fails: the running sum only
    grows, so a stream whose total is at most one is allocated with no
    failure check, and a stream whose total exceeds one fails at the first
    request whose running sum goes above one.  Those sums are exact integer
    prefix sums at scale 2^max(size), and no codeword is made."""
    if not isinstance(requirements, (list, tuple)):
        requirements = list(requirements)  # a one-shot stream is read twice
    if mass(map(attrgetter("size"), requirements)) > 1:
        sizes = list(map(attrgetter("size"), requirements))
        one = 1 << max(sizes)
        sums = accumulate(map(one.__rshift__, sizes))
        i = next(compress(count(), map(one.__lt__, sums)))
        raise BuildFailure(i, requirements[i])
    allocator = Allocator()
    allocator.place(requirements)
    return KraftMachine(allocator.assigned)

"""First-fit construction of a self-delimiting computer from size requests.

Each requirement asks for an s-bit program with a chosen output.  The
allocator hands out the lexicographically least s-bit string that is neither
a prefix nor an extension of anything already assigned - equivalently, the
leftmost free dyadic interval of length 2^-s in the unit interval.  The
construction succeeds exactly when the running sum of 2^-s stays at or
below one.

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
is at most one is allocated with no per-request check, and one whose total
exceeds one is scanned with the free-depth rule alone, on the bitmask,
making no codeword, to find the first request that does not fit.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from operator import attrgetter

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


def _fit(free_mask: int, size: int) -> tuple[int, int]:
    """First fit's free-depth rule for a size-bit request: the depth of the
    block it splits (the deepest free depth at or below size) and the free
    mask after the split.  Raises Exhausted when no such depth is free."""
    depth = (free_mask & ((2 << size) - 1)).bit_length() - 1
    if depth < 0:
        raise Exhausted(f"no free {size}-bit codeword")
    # take depth's block; the split frees depths depth+1..size
    return depth, free_mask ^ ((1 << depth) | ((2 << size) - (2 << depth)))


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
        size, free = req.size, self.free
        depth, self.free_mask = _fit(self.free_mask, size)
        index = free.pop(depth)
        while depth < size:
            # split: descend into the left half, free the right half
            index <<= 1
            depth += 1
            free[depth] = index + 1
        codeword = bin(index | 1 << size)[3:]
        self.assigned.append((codeword, req.output))
        return codeword


class KraftMachine:
    """The computer realized by an allocation: each codeword is a program
    for its requirement's output, consumed exactly."""

    name = "kraft"

    def __init__(self, assignments: list[tuple[str, SExpr]]):
        self.assignments = list(assignments)
        self.outputs = dict(self.assignments)
        # In sorted order a word that is a prefix of another is a prefix of
        # its successor, so neighbours alone decide prefix-freeness.
        self.codewords = sorted(codeword for codeword, _ in self.assignments)
        for a, b in zip(self.codewords, self.codewords[1:]):
            if b.startswith(a):
                raise ValueError(f"codewords are not prefix-free: {a!r} and {b!r}")
        self.exact_omega = mass(len(codeword) for codeword, _ in self.assignments)

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
        """Every codeword up to max_len with its output, settled: the
        stable sort by length keeps each length in bit order."""
        words = sorted(self.codewords, key=len)
        del words[bisect_right(words, max_len, key=len):]
        return zip(words, map(self.outputs.__getitem__, words))


@dataclass(frozen=True)
class BuildFailure(Exception):
    index: int
    requirement: Requirement

    def __str__(self):
        return f"requirement {self.index} (size {self.requirement.size}) exhausted the code space"


def build_computer(requirements) -> KraftMachine:
    """Process requirements in order into a machine; fails at the first
    request that cannot be met, reporting its index.

    The stream's total mass decides which: the running sum only grows, so a
    stream whose total is at most one is allocated with no failure check,
    and a stream whose total exceeds one is scanned on the free mask alone,
    making no codeword, for the first request that does not fit."""
    if not isinstance(requirements, (list, tuple)):
        requirements = list(requirements)  # a one-shot stream is read twice
    if mass(map(attrgetter("size"), requirements)) > 1:
        raise _first_misfit(requirements)
    allocator = Allocator()
    request = allocator.request
    for req in requirements:
        request(req)
    return KraftMachine(allocator.assigned)


def _first_misfit(requirements) -> BuildFailure:
    """The failure of a stream whose total exceeds one: the first request
    the free-depth rule cannot place, found on the free mask alone."""
    free_mask = 1
    for i, req in enumerate(requirements):
        try:
            free_mask = _fit(free_mask, req.size)[1]
        except Exhausted:
            return BuildFailure(i, req)

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
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

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
        depth = (self.free_mask & ((2 << req.size) - 1)).bit_length() - 1
        if depth < 0:
            raise Exhausted(f"no free {req.size}-bit codeword")
        index = self.free.pop(depth)
        # take depth's block; the split below frees depths depth+1..size
        self.free_mask ^= (1 << depth) | ((2 << req.size) - (2 << depth))
        while depth < req.size:
            # split: descend into the left half, free the right half
            index <<= 1
            depth += 1
            self.free[depth] = index + 1
        codeword = format(index, f"0{req.size}b") if req.size else ""
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
    request that cannot be met, reporting its index."""
    allocator = Allocator()
    for i, req in enumerate(requirements):
        try:
            allocator.request(req)
        except Exhausted:
            raise BuildFailure(i, req) from None
    return KraftMachine(allocator.assigned)

"""First-fit construction of a self-delimiting computer from size requests.

Each requirement asks for an s-bit program with a chosen output.  The
allocator hands out the lexicographically least s-bit string that is neither
a prefix nor an extension of anything already assigned - equivalently, the
leftmost free dyadic interval of length 2^-s in the unit interval.  The
construction succeeds exactly when the running sum of 2^-s stays at or
below one.

Free space is a buddy structure: per-depth sorted lists of free aligned
blocks, split leftward on demand.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass

from .dyadic import Dyadic, mass
from .sexpr import SExpr
from .universal import RunResult, halted, invalid


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
        # free[d] = sorted indices of free blocks [i/2^d, (i+1)/2^d)
        self.free: dict[int, list[int]] = {0: [0]}
        self.assigned: list[tuple[str, SExpr]] = []

    def measure_used(self) -> Dyadic:
        return mass(len(codeword) for codeword, _ in self.assigned)

    def _leftmost_fit(self, size: int) -> tuple[int, int] | None:
        best = None
        for depth in range(size + 1):
            blocks = self.free.get(depth)
            if not blocks:
                continue
            index = blocks[0]
            position = index << (size - depth)  # left edge on the 2^-size grid
            if best is None or position < best[2]:
                best = (depth, index, position)
        if best is None:
            return None
        return best[0], best[1]

    def request(self, req: Requirement) -> str:
        """Assign and return a codeword for *req*; raises Exhausted."""
        fit = self._leftmost_fit(req.size)
        if fit is None:
            raise Exhausted(f"no free {req.size}-bit codeword")
        depth, index = fit
        self.free[depth].pop(0)
        while depth < req.size:
            # split: descend into the left half, free the right half
            index <<= 1
            depth += 1
            insort(self.free.setdefault(depth, []), index + 1)
        codeword = format(index, f"0{req.size}b") if req.size else ""
        self.assigned.append((codeword, req.output))
        return codeword


class KraftMachine:
    """The computer realized by an allocation: each codeword is a program
    for its requirement's output, consumed exactly."""

    name = "kraft"
    decides_halting = True

    def __init__(self, assignments: list[tuple[str, SExpr]]):
        self.assignments = list(assignments)
        self.outputs = dict(self.assignments)
        self.prefixes = set()
        for codeword, _ in self.assignments:
            for i in range(len(codeword)):
                self.prefixes.add(codeword[:i])
        self.exact_omega = mass(len(codeword) for codeword, _ in self.assignments)

    def run(self, program: str, budget: int | None = None) -> RunResult:
        if program in self.outputs:
            return halted(self.outputs[program], len(program))
        if program in self.prefixes:
            return invalid("out-of-data")
        for i in range(len(program)):
            if program[:i] in self.outputs:
                return invalid("partial-consumption")
        return invalid("out-of-data")

    def halts(self, program: str) -> bool:
        return program in self.outputs

    def halting_candidates(self, max_len: int):
        for codeword, _ in self.assignments:
            if len(codeword) <= max_len:
                yield codeword


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

"""Halting-probability machinery at desk scale.

Every halting program of k bits contributes 2^-k, so running all programs
up to a length cap for a step budget gives an exact lower bound that only
grows as the caps grow.  Knowing the exact value (or exactly how many of a
batch halt) then turns the lower bound into a halting oracle: dovetail until
the bound crosses the known mass, and whatever has not halted never will.

All arithmetic is exact dyadic; no bit of an estimate is ever rounded.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bits import bitstrings_up_to
from .dyadic import Dyadic, mass
from .universal import HALTED, OUT_OF_DATA, STILL_RUNNING, UNSETTLED, halted

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


_END = (None, None)


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
    beyond one length's extensions.  A settled root halts with its value
    without a run; a root equal to the program before it is skipped, and
    one before it raises ValueError.  It is a loop, not a recursion, so
    every run starts at the same host stack depth.
    """
    roots = machine.roots(max_len, budget) if hasattr(machine, "roots") else iter((("", UNSETTLED),))
    run = machine.run
    root, value = next(roots, _END)
    grown: list[str] = []  # this length's extensions, in order
    for n in range(max_len + 1):
        children: list[str] = []
        i, m = 0, len(grown)
        while True:
            if root is not None and len(root) == n and (i == m or root <= grown[i]):
                p, settled = root, value
                if i < m and grown[i] == p:
                    i += 1
                root, value = next(roots, _END)
                if root is not None and (len(root) < n or len(root) == n and root <= p):
                    root, value = _after(machine, roots, p, root, value)
            elif i < m:
                p, settled = grown[i], UNSETTLED
                i += 1
            else:
                break
            if settled is UNSETTLED:
                result = run(p, budget)
                if n < max_len and result.reason == OUT_OF_DATA:
                    children += (p + "0", p + "1")
            else:
                result = halted(settled, n)
            yield p, result
        grown = children


def _after(machine, roots, previous: str, root: str, value):
    """The first of *root* and the roots after it that comes after
    *previous*, skipping equal ones; _END at the end."""
    while root is not None and (len(root), root) <= (len(previous), previous):
        if root != previous:
            raise ValueError(f"{type(machine).__name__} yields root {root!r} after {previous!r}: "
                             "roots must come in (length, lexicographic) order")
        root, value = next(roots, _END)
    return root, value


def omega_lower_bound(machine, max_len: int, budget: int | None) -> OmegaEstimate:
    """Mass of every program of length <= max_len that halts within budget.

    A pure function of (machine, max_len, budget).  Runs are streamed in
    order, so memory holds the roots, the walk's frontier and the halting
    set, not the space.
    """
    halted = tuple(p for p, result in runs(machine, max_len, budget) if result.status == HALTED)
    return OmegaEstimate(mass(map(len, halted)), max_len, budget, halted)


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

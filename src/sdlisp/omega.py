"""Halting-probability machinery at desk scale.

Every halting program of k bits contributes 2^-k, so running all programs
up to a length cap for a step budget gives an exact lower bound that only
grows as the caps grow.  Knowing the exact value (or exactly how many of a
batch halt) then turns the lower bound into a halting oracle: dovetail until
the bound crosses the known mass, and whatever has not halted never will.

All arithmetic is exact dyadic; no bit of an estimate is ever rounded.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .bits import bitstrings_up_to
from .dyadic import Dyadic, mass
from .universal import OUT_OF_DATA, STILL_RUNNING

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

    The walk starts from the machine's halting_candidates (or from the empty
    program) and extends a program by one bit only when its run ended out of
    data.  That is exact under the machine contract (see universal): out of
    data means the run needed bits past the end, and every other outcome is
    final for every extension.  It is a loop, not a recursion, so every run
    starts at the same host stack depth.
    """
    roots = machine.halting_candidates(max_len) if hasattr(machine, "halting_candidates") else ("",)
    buckets = defaultdict(set)
    for p in roots:
        if len(p) <= max_len:
            buckets[len(p)].add(p)
    for n in range(max_len + 1):
        for p in sorted(buckets.pop(n, ())):
            result = machine.run(p, budget)
            yield p, result
            if n < max_len and result.reason == OUT_OF_DATA:
                buckets[n + 1].update((p + "0", p + "1"))


def omega_lower_bound(machine, max_len: int, budget: int | None) -> OmegaEstimate:
    """Mass of every program of length <= max_len that halts within budget.

    A pure function of (machine, max_len, budget).  Runs are streamed in
    order, so memory holds the roots, the walk's frontier and the halting
    set, not the space.
    """
    halted = tuple(p for p, result in runs(machine, max_len, budget) if result.halted)
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

"""A fixed pure-Python loop that measures how fast the CPU runs right now.

Shared machines change speed by tens of percent over seconds to minutes
(frequency scaling, busy neighbours on the same core).  run.py times this
loop between repetitions and rescales times by REFERENCE_S / (fastest loop
in the run), so that a run reports seconds on a machine where the loop takes
REFERENCE_S, and a slow stretch of minutes moves loop and search alike.  The
loop does the kind of work the package does - recursive walks over nested
tuples, string building, dict inserts - and uses nothing from the package,
so a change to the package cannot move it.
"""

from __future__ import annotations

from time import perf_counter

# about the loop's time on an idle 2-core Xeon VM under CPython 3.11, so
# reported times read close to wall seconds there
REFERENCE_S = 0.015


def _tree(depth: int, i: int = 0):
    if depth == 0:
        return i if i % 3 else f"s{i}"
    return tuple(_tree(depth - 1, i * 3 + k) for k in range(3))


def _walk(e) -> int:
    if type(e) is int:
        return e
    if type(e) is str:
        return len(e)
    total = 0
    for x in e:
        total += _walk(x)
    return total


def _show(e) -> str:
    if isinstance(e, tuple):
        return "(" + " ".join(_show(x) for x in e) + ")"
    return str(e)


def loop_seconds() -> float:
    tree = _tree(7)
    t = perf_counter()
    for _ in range(6):
        _walk(tree)
        _show(tree)
        table = {}
        for i in range(3000):
            table[format(i, "012b")] = (i, i >> 1)
    return perf_counter() - t

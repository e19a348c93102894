"""The four search workloads: inputs, set-up, search calls and result gates.

Each workload is a function of (sizes, seed).  Inputs are made before the
package is imported; set-up builds the objects the search calls take; the
search calls go through module attributes, so the tracer can wrap them; the
gate compares every answer with a reference that does not come from the
package: closed forms and exact ``Fraction`` sums where the answer is known,
and values pinned at the seed commit (``pins.json``) where it is not.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Sizes per profile.  "full" is what the benchmark measures: about a second
# of search per repetition, so that a run holds enough repetitions for its
# minimum to find the machine quiet (see run.py).  "smoke" keeps the
# benchmark's own tests to seconds.
SIZES = {
    "full": {
        "toy_bits": 30,
        "kraft_count": 20_000, "kraft_sizes": (13, 19),
        "lispu_bits": 25, "lispu_budget": 64,
        "elegance": [(5, 128, None), (10, 128, 9)],
        "sound_schedule": [65536, 262144],
        "unsound_schedule": [4096, 65536, 1048576],
    },
    "smoke": {
        "toy_bits": 10,
        "kraft_count": 500, "kraft_sizes": (8, 14),
        "lispu_bits": 16, "lispu_budget": 64,
        "elegance": [(4, 128, None), (5, 128, 9)],
        "sound_schedule": [256, 1024],
        "unsound_schedule": [256, 1024],
    },
}

NAMES = ("omega-exact", "omega-lispu", "elegance", "paradox")


def load_pins() -> dict:
    return json.loads((HERE / "pins.json").read_text())


def show(e) -> str:
    """Canonical text of an S-expression, written apart from the package's
    printer so that digests do not depend on the code under test."""
    if isinstance(e, tuple):
        return "(" + " ".join(show(x) for x in e) + ")" if e else "nil"
    return str(e)


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def as_fraction(d) -> Fraction:
    return Fraction(d.num, 1 << d.exp)


# ---------------------------------------------------------------------------
# inputs (pure Python, made before the package is imported)

def make_inputs(name: str, sizes: dict, seed: int) -> dict:
    if name == "omega-exact":
        lo, hi = sizes["kraft_sizes"]
        rng = random.Random(seed)
        stream = [rng.randint(lo, hi) for _ in range(sizes["kraft_count"])]
        free = 1 - sum(Fraction(1, 1 << s) for s in stream)
        if free < 0:
            raise ValueError("seeded Kraft stream overfills the code space")
        # the smallest request that no longer fits: 2^-s > free
        overflow = 0
        while Fraction(1, 1 << (overflow + 1)) > free:
            overflow += 1
        return {"stream": stream, "overflow": overflow}
    return {}


# ---------------------------------------------------------------------------
# set-up: the objects the first search call needs

def setup(name: str, sizes: dict, inputs: dict, sd) -> dict:
    if name == "omega-exact":
        reqs = [sd.kraft.Requirement(s, i) for i, s in enumerate(inputs["stream"])]
        overflow = sd.kraft.Requirement(inputs["overflow"], "overflow")
        return {"toy": sd.universal.ToyDoubling(), "reqs": reqs,
                "overfull": reqs + [overflow]}
    if name == "omega-lispu":
        return {"machine": sd.universal.LispU()}
    if name == "elegance":
        return {"spaces": [sd.ait.ExpressionSpace(numeral_limit=limit)
                           for _, _, limit in sizes["elegance"]]}
    if name == "paradox":
        return {"sound": sd.ait.sound_mock_theory(),
                "unsound": sd.ait.unsound_mock_theory()}
    raise KeyError(name)


# ---------------------------------------------------------------------------
# the search calls (timed); they return whatever the gate needs

def search(name: str, sizes: dict, args: dict, sd) -> dict:
    if name == "omega-exact":
        toy = sd.omega.omega_lower_bound(args["toy"], sizes["toy_bits"], None)
        machine = sd.kraft.build_computer(args["reqs"])
        kraft = sd.omega.omega_lower_bound(machine, sizes["kraft_sizes"][1], None)
        try:
            sd.kraft.build_computer(args["overfull"])
            failure = None
        except sd.kraft.BuildFailure as exc:
            failure = exc
        return {"toy": toy, "kraft": kraft, "failure": failure}
    if name == "omega-lispu":
        return {"estimate": sd.omega.omega_lower_bound(
            args["machine"], sizes["lispu_bits"], sizes["lispu_budget"])}
    if name == "elegance":
        return {"reports": [sd.ait.elegant_search(cap, budget, space)
                            for (cap, budget, _), space
                            in zip(sizes["elegance"], args["spaces"])]}
    if name == "paradox":
        return {"sound": sd.ait.berry_searcher(args["sound"], sizes["sound_schedule"]),
                "unsound": sd.ait.berry_searcher(args["unsound"], sizes["unsound_schedule"])}
    raise KeyError(name)


# ---------------------------------------------------------------------------
# gates: a list of mismatches, empty when the answer is exact

def _doubled_domain(max_len: int) -> tuple[str, ...]:
    """Every doubled codeword of at most max_len bits, shortest first."""
    out = []
    for n in range((max_len - 2) // 2 + 1 if max_len >= 2 else 0):
        for x in range(1 << n):
            word = format(x, f"0{n}b") if n else ""
            out.append("".join(c + c for c in word) + "01")
    return tuple(out)


def _prefix_free(words) -> bool:
    ordered = sorted(words)
    return all(not b.startswith(a) for a, b in zip(ordered, ordered[1:]))


def _expect(errors: list, label: str, got, want) -> None:
    if got != want:
        errors.append(f"{label}: got {got!r}, want {want!r}")


def omega_pin(estimate) -> dict:
    return {"value": str(as_fraction(estimate.value)),
            "halted": len(estimate.halted),
            "digest": digest(estimate.halted)}


def elegance_pin(report) -> dict:
    return {"listing": len(report.listing),
            "values": len(report.min_size),
            "elegant": len(report.elegant),
            "digest": digest(sorted(f"{show(e)}\t{show(v)}" for e, v in report.elegant))}


def berry_pin(outcome) -> dict:
    return {"found": outcome.found,
            "constant": outcome.searcher_constant,
            "threshold": outcome.threshold,
            "theory_size": outcome.theory_size,
            "budget": outcome.budget,
            "theorem_size": outcome.theorem_size,
            "malformed": outcome.malformed,
            "value": digest([show(outcome.value)]),
            "theorem": digest([show(outcome.theorem)])}


def pins_of(name: str, result: dict) -> dict:
    """The pinned fields of a workload's answer (see make_pins.py)."""
    if name == "omega-lispu":
        return omega_pin(result["estimate"])
    if name == "elegance":
        return {"reports": [elegance_pin(r) for r in result["reports"]]}
    if name == "paradox":
        return {"sound": berry_pin(result["sound"]), "unsound": berry_pin(result["unsound"])}
    raise KeyError(name)


def check(name: str, sizes: dict, inputs: dict, result: dict, pins: dict) -> list[str]:
    errors: list[str] = []
    if name == "omega-exact":
        bits = sizes["toy_bits"]
        m = (bits - 2) // 2
        toy = result["toy"]
        _expect(errors, "toy value", as_fraction(toy.value),
                Fraction(1, 2) - Fraction(1, 1 << (m + 2)))
        _expect(errors, "toy halted count", len(toy.halted), (1 << (m + 1)) - 1)
        if toy.halted != _doubled_domain(bits):
            errors.append("toy halted set is not the doubled codewords")

        stream = inputs["stream"]
        kraft = result["kraft"]
        _expect(errors, "kraft value", as_fraction(kraft.value),
                sum(Fraction(1, 1 << s) for s in stream))
        _expect(errors, "kraft halted count", len(kraft.halted), len(stream))
        _expect(errors, "kraft codeword lengths",
                sorted(len(p) for p in kraft.halted), sorted(stream))
        if not _prefix_free(kraft.halted):
            errors.append("kraft codewords are not prefix-free")
        failure = result["failure"]
        _expect(errors, "overflow failure index",
                None if failure is None else failure.index, len(stream))
        return errors
    if name == "paradox":
        unsound = result["unsound"]
        if unsound.found:
            if not unsound.threshold < unsound.theorem_size:
                errors.append("unsound: theorem does not exceed the threshold")
            theorem = unsound.theorem
            if not (isinstance(theorem, tuple) and len(theorem) >= 2
                    and unsound.value == theorem[1]):
                errors.append("unsound: searcher value is not the named expression")
    got = pins_of(name, result)
    _expect(errors, f"{name} pins", got, pins)
    return errors

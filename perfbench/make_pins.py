"""Print the pinned answers (pins.json) of the workloads that have no closed
form, computed by the package as it stands.

    python3 perfbench/make_pins.py > perfbench/pins.json

The pins were made at the commit that introduced the benchmark and are not
to be regenerated to make a failing gate pass.  Every elegance pin is
cross-checked against the test suite's independent brute-force oracle
(tests/oracles.py) before anything is printed.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import workloads

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    sd = SimpleNamespace(**{m: importlib.import_module(f"sdlisp.{m}")
                            for m in ("universal", "kraft", "omega", "ait")})
    pins = {}
    for profile, sizes in workloads.SIZES.items():
        pins[profile] = {}
        for name in ("omega-lispu", "elegance", "paradox"):
            args = workloads.setup(name, sizes, {}, sd)
            result = workloads.search(name, sizes, args, sd)
            pins[profile][name] = workloads.pins_of(name, result)
            if name == "elegance":
                for report, size in zip(result["reports"], sizes["elegance"]):
                    cross_check(report, size, sd)

    json.dump(pins, sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


def cross_check(report, size, sd) -> None:
    from oracles import brute_force_elegance

    cap, budget, limit = size
    listing, min_size, elegant = brute_force_elegance(
        cap, budget, sd.ait.ExpressionSpace().symbols, limit)
    if report.listing != listing or report.min_size != min_size \
            or set(report.elegant) != elegant:
        raise SystemExit(f"elegance at {cap} chars disagrees with the brute-force oracle")
    oracle = workloads.digest(sorted(f"{workloads.show(e)}\t{workloads.show(v)}"
                                     for e, v in elegant))
    if oracle != workloads.elegance_pin(report)["digest"]:
        raise SystemExit("elegance digest disagrees with the brute-force oracle")
    print(f"elegance at {cap} chars matches the brute-force oracle", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())

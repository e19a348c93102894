"""One repetition of one workload, in a fresh interpreter.

Prints one JSON line: set-up time, search time, peak RSS, the gate's
mismatches and, when traced, the per-layer metrics.  ``--setup-only`` stops
after set-up, so run.py can sample set-up time cheaply.

    python3 perfbench/rep.py --workload omega-lispu --seed 1 [--trace] [--smoke]
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import calibration
import workloads

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("bits", "dyadic", "interp", "sexpr", "universal", "kraft", "omega", "ait")
# Module-level caches a cold process starts without; every CLI call pays to
# fill them, so each repetition must too.
COLD_CACHES = (("universal", "_parseable_texts"), ("ait", "_space_of_size"))


def warm_caches(sd) -> list[str]:
    warm = []
    for module, attr in COLD_CACHES:
        cache = getattr(getattr(sd, module), attr, None)
        if cache is not None and cache.cache_info().currsize:
            warm.append(f"{module}.{attr}")
    return warm


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", help="file to write the traced spans to")
    args = parser.parse_args(argv)

    name = args.workload
    sizes = workloads.SIZES["smoke" if args.smoke else "full"]
    inputs = workloads.make_inputs(name, sizes, args.seed)

    sys.path.insert(0, str(ROOT / "src"))
    # set-up lasts about as long as one calibration loop, so the loop timed
    # just before it sees the same machine speed
    loop_s = calibration.loop_seconds()
    t0 = perf_counter()
    importlib.import_module("sdlisp")
    sd = SimpleNamespace(**{m: importlib.import_module(f"sdlisp.{m}") for m in MODULES})
    call_args = workloads.setup(name, sizes, inputs, sd)
    setup_s = perf_counter() - t0
    out = {"setup_s": setup_s, "setup_loop_s": loop_s}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    errors = [f"cache already filled: {c}" for c in warm_caches(sd)]
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer(args.rep)
        tracer.install(sd)
    result = None
    t1 = perf_counter()
    try:
        if tracer is None:
            result = workloads.search(name, sizes, call_args, sd)
        else:
            result = tracer.root(workloads.search, name, sizes, call_args, sd)
    except Exception:
        errors.append("search raised: " + traceback.format_exc(limit=3))
    out["search_s"] = perf_counter() - t1
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.metrics()
        if args.spans_out:
            tracer.write(args.spans_out)

    if result is not None:
        pins = workloads.load_pins()["smoke" if args.smoke else "full"].get(name)
        errors += workloads.check(name, sizes, inputs, result, pins)
    out["errors"] = errors
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

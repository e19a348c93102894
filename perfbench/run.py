"""Benchmark of sdlisp's exhaustive searches.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a checkout; the package is imported from its
``src/`` tree, so nothing has to be installed.  The loop is closed: one
client, one repetition at a time, each in a fresh interpreter (rep.py), so
every repetition pays the package's cold caches exactly as a CLI call does.
Repetitions start while the next one still fits in ``--seconds`` (at least
three are run).  Set-up is also sampled by extra set-up-only interpreters
between repetitions.

Every repetition's answer is checked against a reference that does not come
from the package (workloads.check); a mismatch, a crash or a raised search
counts as a failed repetition.

``--trace 0`` reports the end-to-end metrics: search_s (first search call
to last return), setup_s (``import sdlisp`` to the first search call being
ready) and peak_rss_mb (median over repetitions).  On a shared 2-core Xeon
VM the speed of the same code drifts by 20-50% over seconds to minutes, far
beyond the bounds, so both times are reported in seconds on a machine where
the calibration loop (calibration.py) takes REFERENCE_S:

* search_s is the fastest repetition, rescaled by REFERENCE_S / the fastest
  calibration loop of the run (loops are timed between repetitions);
* setup_s is the median over every set-up sample, each rescaled by a
  calibration loop timed in its own process just before its set-up.

The wall-clock quartiles of the search are printed before the result.

``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones (spans.py; low medians, times rescaled as
above), the source size of every module and trace.overhead_ratio = traced /
untraced search_s.  The spans of the last traced repetition are written to
``.perfbench_out/`` in the checkout.

The last line of standard output is the result object; the lines before it
describe the machine and the samples.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "sdlisp"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
import calibration  # noqa: E402
import workloads  # noqa: E402

MIN_REPS = 3
SOURCE_MODULES = ("init", "ait", "bits", "cli", "dyadic", "encoders", "interp",
                  "kraft", "omega", "sexpr", "universal")
CHILD_TIMEOUT_S = 150
CALIBRATION_LOOPS = 4


def machine() -> dict:
    """What can be known without reading outside the checkout; the CPU model
    is not among it."""
    return {"cores": os.cpu_count(), "usable_cores": len(os.sched_getaffinity(0)),
            "arch": platform.machine(), "python": platform.python_version(),
            "implementation": platform.python_implementation()}


def source_lines() -> dict:
    metrics = {}
    total = 0
    for module in SOURCE_MODULES:
        path = PACKAGE / ("__init__.py" if module == "init" else f"{module}.py")
        lines = path.read_text().count("\n") if path.is_file() else 0
        metrics[f"{module}.src_lines"] = lines
        total += lines
    metrics["total.src_lines"] = total
    return metrics


class Runner:
    def __init__(self, workload: str, seed: int, smoke: bool):
        self.base = [sys.executable, str(HERE / "rep.py"),
                     "--workload", workload, "--seed", str(seed)]
        if smoke:
            self.base.append("--smoke")
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        self.workload = workload
        self.reps = 0
        self.failed = 0
        self.failures: list[str] = []

    def child(self, *extra: str) -> dict | None:
        try:
            proc = subprocess.run(self.base + list(extra), capture_output=True, text=True,
                                  env=self.env, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.failures.append(f"{' '.join(extra)}: timed out")
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            self.failures.append(f"{' '.join(extra)}: exit {proc.returncode}: "
                                 f"{proc.stderr.strip()[-400:]}")
            return None
        return json.loads(lines[-1])

    def rep(self, traced: bool) -> dict | None:
        """One repetition; a wrong answer still yields its timings."""
        extra = ["--rep", str(self.reps)]
        if traced:
            OUT.mkdir(exist_ok=True)
            extra += ["--trace", "--spans-out", str(OUT / f"spans-{self.workload}.bin")]
        self.reps += 1
        out = self.child(*extra)
        if out is None or out["errors"]:
            self.failed += 1
            if out is not None:
                self.failures.extend(f"rep {self.reps - 1}: {e}" for e in out["errors"])
        return out


def calibrate() -> list[float]:
    return [calibration.loop_seconds() for _ in range(CALIBRATION_LOOPS)]


def rescaled(key: str, value: float, scale: float) -> float:
    """A traced time in reference seconds; counts stay as they are."""
    if key.endswith("_per_s"):
        return value / scale
    return value * scale if key.endswith("_s") else value


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (PACKAGE / "__init__.py").is_file():
        print(f"no package source at {PACKAGE}", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed, args.smoke)
    # compiles the package's bytecode once, so set-up samples see warm .pyc files
    if runner.child("--setup-only") is None:
        print("\n".join(runner.failures), file=sys.stderr)
        return 2
    runner.failures.clear()

    untraced, traced, setups = [], [], []
    loops = calibrate()
    start = time.perf_counter()
    longest = 0.0
    while True:
        t = time.perf_counter()
        trace_this = args.trace == 1 and len(untraced) > len(traced)
        out = runner.rep(trace_this)
        if out is not None:
            (traced if trace_this else untraced).append(out)
            setups.append(out)
        probe = runner.child("--setup-only")
        if probe is not None:
            setups.append(probe)
        loops += calibrate()
        longest = max(longest, time.perf_counter() - t)
        enough = (len(untraced) >= 1 and len(traced) >= 1) if args.trace else \
            runner.reps >= MIN_REPS
        if enough and time.perf_counter() - start + longest > args.seconds:
            break
        if runner.reps >= 4 * MIN_REPS and not untraced:
            break  # every repetition crashes: stop, report the failures

    print("machine " + json.dumps(machine()))
    raw = [r["search_s"] for r in untraced]
    print("samples " + json.dumps({"workload": args.workload, "seed": args.seed,
                                   "reps": runner.reps, "search_s": raw,
                                   "setup_s": [r["setup_s"] for r in setups],
                                   "calibration_s": loops}))
    for failure in runner.failures:
        print("FAILED " + failure.replace("\n", " | "))
    if not untraced or (args.trace and not traced):
        print("no repetition completed", file=sys.stderr)
        return 1

    scale = calibration.REFERENCE_S / min(loops)
    if args.trace:
        layers = {k: rescaled(k, statistics.median_low(r["layers"][k] for r in traced), scale)
                  for k in traced[0]["layers"]}
        values = {**layers, **source_lines(),
                  "trace.overhead_ratio": min(r["search_s"] for r in traced) / min(raw)}
        units = {k: ("1/s" if k.endswith("_per_s") else "s" if k.endswith("_s")
                     else "ratio" if k.endswith("ratio") else "count") for k in values}
    else:
        q = quartiles(raw)
        print(f"search_s wall clock: min {min(raw):.4f} q1 {q[0]:.4f} median {q[1]:.4f} "
              f"q3 {q[2]:.4f} n {len(raw)}; calibration scale {scale:.4f}")
        values = {"search_s": min(raw) * scale,
                  "setup_s": statistics.median(
                      r["setup_s"] * calibration.REFERENCE_S / r["setup_loop_s"] for r in setups),
                  "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced)}
        units = {"search_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

    print(json.dumps({
        "correct": runner.failed == 0 and not runner.failures,
        "attempted": runner.reps,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

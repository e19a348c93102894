"""The benchmark's own tests, at smoke sizes; they run in seconds.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402

SMOKE = workloads.SIZES["smoke"]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=120)


def bench(workload: str, trace: int) -> dict:
    proc = run("perfbench/run.py", "--workload", workload, "--seed", "3",
               "--seconds", "0.1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def sd():
    return SimpleNamespace(**{m: importlib.import_module(f"sdlisp.{m}")
                              for m in ("universal", "kraft", "omega", "ait")})


def smoke_result(name: str, sd, seed: int = 3):
    inputs = workloads.make_inputs(name, SMOKE, seed)
    args = workloads.setup(name, SMOKE, inputs, sd)
    return inputs, workloads.search(name, SMOKE, args, sd)


def gate(name: str, inputs: dict, result: dict) -> list[str]:
    pins = workloads.load_pins()["smoke"].get(name)
    return workloads.check(name, SMOKE, inputs, result, pins)


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    out = bench(workload, 0)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 3
    assert set(out["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        assert out["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert out["metrics"][metric["name"]]["value"] > 0


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_traced_run_prints_every_per_layer_metric(workload):
    out = bench(workload, 1)
    assert out["correct"]
    metrics = {k: v["value"] for k, v in out["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    layers = sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert layers + metrics["harness.self_s"] == pytest.approx(metrics["trace.search_s"])
    assert metrics["total.src_lines"] > 0


def test_traced_counts_are_exact(tmp_path):
    proc = run("perfbench/rep.py", "--workload", "omega-lispu", "--seed", "1",
               "--smoke", "--trace", "--spans-out", str(tmp_path / "spans.bin"))
    layers = json.loads(proc.stdout)["layers"]
    pins = workloads.load_pins()["smoke"]["omega-lispu"]
    assert layers["universal.outcome.halted"] == pins["halted"]
    assert layers["universal.runs"] == layers["omega.candidates"]
    assert layers["interp.sessions"] == layers["interp.evals"]
    header = (tmp_path / "spans.bin").read_bytes().split(b"\n", 1)[0]
    assert json.loads(header)["spans"] == layers["trace.spans"]


def test_gate_accepts_the_exact_answers(sd):
    for name in workloads.NAMES:
        inputs, result = smoke_result(name, sd)
        assert gate(name, inputs, result) == [], name


def test_gate_flags_altered_omega_answers(sd):
    inputs, result = smoke_result("omega-exact", sd)
    toy = result["toy"]
    dropped = replace(toy, halted=toy.halted[:-1])
    assert gate("omega-exact", inputs, {**result, "toy": dropped})
    shifted = replace(toy, value=toy.value + sd.omega.Dyadic.half_power(40))
    assert gate("omega-exact", inputs, {**result, "toy": shifted})
    kraft = result["kraft"]
    nested = replace(kraft, halted=kraft.halted[:-1] + (kraft.halted[0] + "0",))
    errors = gate("omega-exact", inputs, {**result, "kraft": nested})
    assert any("prefix-free" in e for e in errors)
    assert gate("omega-exact", inputs, {**result, "failure": None})

    inputs, result = smoke_result("omega-lispu", sd)
    estimate = result["estimate"]
    assert gate("omega-lispu", inputs, {"estimate": replace(estimate, halted=estimate.halted[1:])})


def test_gate_flags_altered_search_answers(sd):
    inputs, result = smoke_result("elegance", sd)
    report = result["reports"][0]
    altered = replace(report, elegant=report.elegant[1:])
    assert gate("elegance", inputs, {"reports": [altered, *result["reports"][1:]]})

    inputs, result = smoke_result("paradox", sd)
    altered = replace(result["sound"], threshold=result["sound"].threshold + 1)
    assert gate("paradox", inputs, {**result, "sound": altered})


def test_kraft_inputs_follow_the_seed():
    a = workloads.make_inputs("omega-exact", SMOKE, 1)
    assert a == workloads.make_inputs("omega-exact", SMOKE, 1)
    assert a != workloads.make_inputs("omega-exact", SMOKE, 2)


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run("perfbench/run.py", "--workload", "paradox", "--seed", "1",
               "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout

"""Smoke test of the benchmark harness at tiny size (about a minute).

Run from the repository root:

    python3 benchmarks/selftest.py

Checks that every metric BENCHMARK.json names, and every workload metric
the README lists, comes out with its unit, that the last output line has
the agreed shape, and that failed and non-deterministic operations are
counted.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent

# metrics each workload must report beyond those in BENCHMARK.json
WORKLOAD_METRICS = {
    "qpt": ["cmd_s.qpt", "cmd_s.qpt_simulate", "fit_cost",
            "tomography.mle_reconstruct.self_s", "tomography.minimize.self_s",
            "tomography.fit_useful_ratio", "tomography.run_qpt_simulation.self_s"],
    "vqe": ["cmd_s.vqe_exact", "cmd_s.vqe_spsa", "vqe_gap_mha",
            "sampler.coincidence_probabilities.self_s", "sampler.sample_counts.self_s",
            "vqe.measure_energy.self_s", "vqe.measure_energy.p50_ms",
            "vqe.measure_energy.p99_ms", "vqe.run_vqe.self_s"],
    "bringup": ["cmd_s.characterize", "cmd_s.calibrate", "cmd_s.gates", "cmd_s.hom",
                "optics.sinkhorn_scale.self_s", "calibration.fit_sweep.self_s",
                "calibration.solve_currents.self_s", "gates.fidelity_histogram.self_s",
                "sampler.hom_curve.self_s"],
}


def fail(message: str) -> None:
    print(f"FAIL {message}")
    sys.exit(1)


def run(workload: str, trace: int, spec: dict) -> None:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        fail(f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(last) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: last line keys {sorted(last)}")
    if not (last["correct"] and last["attempted"] >= 1 and last["failed"] == 0):
        fail(f"{workload}: {last['failed']} of {last['attempted']} ops failed\n{proc.stdout}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    if set(last["metrics"]) != {m["name"] for m in wanted}:
        fail(f"{workload}: last line metrics differ from BENCHMARK.json")
    for m in wanted:
        got = last["metrics"][m["name"]]
        if got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
            fail(f"{workload}: {m['name']} is {got}, want unit {m['unit']}")
    result = json.loads(Path(f".bench_out/{workload}-seed3-trace{trace}.json").read_text())
    expected = [m["name"] for m in spec["end_to_end"]] + ["wall_s", "host.probe_ms"]
    if trace:
        expected += WORKLOAD_METRICS[workload]
    for name in expected:
        if not result["metrics"].get(name, {}).get("unit"):
            fail(f"{workload}: metric {name} missing or without unit")
    print(f"PASS {workload} trace {trace}: {len(result['metrics'])} metrics with units")


def check_failure_counting() -> None:
    sys.path.insert(0, "src")
    import child

    ops = workloads.build("bringup", 3, tiny=True)[-2:]
    bad = workloads.Op("bad_flag", "hom", ("hom", "--x-points", "many"))
    work = Path(".bench_out/selftest")
    try:
        passes = [child.run_pass(ops + [bad], work / "a"), child.run_pass(ops, work / "b")]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    passes[1]["ops"][0]["digests"] = {"tampered": "0"}
    child.mark_nondeterminism(passes)
    errors = [op["error"] for p in passes for op in p["ops"] if op["error"]]
    if len(errors) != 2 or "exit code 1" not in errors[0] \
            or "differ" not in errors[1]:
        fail(f"failure counting: {errors}")
    print("PASS failed and non-deterministic ops are counted")


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    check_failure_counting()
    run("bringup", 0, spec)
    for workload in workloads.WORKLOADS:
        run(workload, 1, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the dualrail package: one workload, one seed, one result.

Run from the repository root:

    python3 benchmarks/run.py --workload qpt --seed 1 --seconds 10 --trace 0

The script times set-up (fresh interpreters importing the package), then
runs the workload in one fresh child interpreter (benchmarks/child.py) with
PYTHONPATH=src and without OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS, so every commit is measured at the libraries' default
threading rather than the caller's shell.  It prints a table of every
metric, then, as the last line, one JSON object with the metrics named in
BENCHMARK.json: the end-to-end ones with --trace 0, the per-layer ones with
--trace 1.  The full result, with output digests and the environment, is
written to .bench_out/<workload>-seed<seed>-trace<trace>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
OUT = Path(".bench_out")
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
# every run must end within this many seconds, set-up included
RUN_LIMIT_S = 170.0

# what set-up means: a fresh interpreter importing the package with its
# bundled data loaded
SETUP_CODE = (
    "import dualrail\n"
    "from dualrail import calibration, tomography, vqe\n"
    "tomography.load_reference_counts()\n"
    "vqe.reference_hamiltonian()\n"
    "calibration.CrossTalkModel.reference()\n"
)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in BLAS_THREAD_VARIABLES and k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = "src"
    return env


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read from .git."""
    git = Path(".git")
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def timed_run(cmd: list, env: dict) -> float:
    """Wall time of one child process.  It is waited for without a timeout,
    because Popen.wait(timeout) polls every 50 ms and would round the time
    up to that step; a timer kills a child that hangs."""
    start = perf_counter()
    with subprocess.Popen(cmd, env=env) as proc:
        watchdog = threading.Timer(60, proc.kill)
        watchdog.start()
        code = proc.wait()
        seconds = perf_counter() - start
        watchdog.cancel()
    if code:
        raise subprocess.CalledProcessError(code, cmd)
    return seconds


def time_setup(env: dict) -> float:
    """Median wall time of fresh interpreters importing the package."""
    cmd = [sys.executable, "-c", SETUP_CODE]
    # untimed first import: writes the bytecode cache an installed copy has
    subprocess.run(cmd, env=env, check=True, timeout=60)
    return statistics.median(timed_run(cmd, env) for _ in range(SETUP_REPEATS))


def import_times(env: dict) -> dict:
    """Cumulative import time of the package and the self time of its modules."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", SETUP_CODE],
                          env=env, check=True, timeout=60,
                          capture_output=True, text=True)
    total_us, own_us = 0, 0
    for line in proc.stderr.splitlines():
        parts = [p.strip() for p in line.removeprefix("import time:").split("|")]
        if len(parts) != 3 or not parts[0].isdigit():
            continue
        self_us, cumulative_us, name = int(parts[0]), int(parts[1]), parts[2]
        if name == "dualrail":
            total_us = cumulative_us
        if name == "dualrail" or name.startswith("dualrail."):
            own_us += self_us
    return {"import.dualrail_s": (total_us / 1e6, "s"),
            "import.dualrail_self_s": (own_us / 1e6, "s")}


def load_spec() -> dict:
    return json.loads(Path("BENCHMARK.json").read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="repeat passes while another fits in this time "
                             "(at least two passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True,
                        help="1: one untraced and one traced pass, per-layer metrics")
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test size (used by selftest.py)")
    args = parser.parse_args(argv)
    start = perf_counter()

    if not Path("src/dualrail/__init__.py").is_file():
        print("error: run from the repository root; src/dualrail is missing",
              file=sys.stderr)
        return 2
    spec = load_spec()
    env = child_env()
    metrics = {}
    try:
        metrics["setup_s"] = (time_setup(env), "s")
        if args.trace:
            metrics.update(import_times(env))
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        result_path = OUT / f"{tag}.json"
        result_path.unlink(missing_ok=True)
        subprocess.run(
            [sys.executable, str(HERE / "child.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--workdir", str(OUT / f"work-{tag}"),
             "--result", str(result_path)] + (["--tiny"] if args.tiny else []),
            env=env, check=True, timeout=RUN_LIMIT_S - (perf_counter() - start))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    result = json.loads(result_path.read_text())
    for name, (value, unit) in metrics.items():
        result["metrics"][name] = {"value": value, "unit": unit}
    result["environment"]["commit"] = git_commit()
    result["environment"]["caller_blas_variables"] = {
        k: os.environ[k] for k in BLAS_THREAD_VARIABLES if k in os.environ}
    result_path.write_text(json.dumps(result, indent=1) + "\n")

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{result['passes']} passes, {result['attempted']} ops, "
          f"{result['failed']} failed")
    print("environment: " + json.dumps(result["environment"], sort_keys=True))
    for line in result["errors"]:
        print("FAILED " + line)
    for name, m in sorted(result["metrics"].items()):
        print(f"  {name:<44} {m['value']:>16.6g} {m['unit']}")
    for name, digest in result["digests"].items():
        print(f"  digest {name:<37} {digest[:16]}")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: result["metrics"][m["name"]] for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Every workload on a seed and on a held-out seed, side by side.

Run from the repository root (about six minutes at the parent commit of
this benchmark on 2 vCPUs; add --trace for the per-layer tables):

    python3 benchmarks/report.py --seed 1 --heldout-seed 2 [--trace]

Prints every metric of every workload by name and unit, one column per
seed, so that a number that depends on one draw shows as a gap between
the columns.  With --trace it also runs a traced pass on --seed and prints
the per-layer metrics with the tracing overhead against the untraced pass.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def run(workload: str, seed: int, trace: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    path = Path(f".bench_out/{workload}-seed{seed}-trace{trace}.json")
    return json.loads(path.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--heldout-seed", type=int, default=2)
    parser.add_argument("--seconds", type=int,
                        default=json.loads(Path("BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    seeds = (args.seed, args.heldout_seed)
    for workload in WORKLOADS:
        results = [run(workload, seed, 0, args.seconds) for seed in seeds]
        print(f"\n== {workload}: seed {seeds[0]} | held-out seed {seeds[1]}")
        names = sorted(set(results[0]["metrics"]) | set(results[1]["metrics"]))
        rows = [("ops", "count", *(r["attempted"] for r in results)),
                ("ops_failed", "count", *(r["failed"] for r in results))]
        for name in names:
            cells = [r["metrics"].get(name, {}) for r in results]
            unit = next(c["unit"] for c in cells if c)
            rows.append((name, unit, *(c.get("value", "-") for c in cells)))
        for name, unit, *values in rows:
            print(f"  {name:<28} {unit:<6}" + "".join(
                f" {v:>14.6g}" if isinstance(v, (int, float)) else f" {v:>14}"
                for v in values))
        for line in results[0]["errors"] + results[1]["errors"]:
            print("  FAILED " + line)
        if args.trace:
            traced = run(workload, args.seed, 1, args.seconds)
            print(f"-- {workload}: per-layer, traced pass on seed {args.seed}")
            for name, m in sorted(traced["metrics"].items()):
                if name not in results[0]["metrics"] and m["value"]:
                    print(f"  {name:<44} {m['unit']:<6} {m['value']:>14.6g}")
    print("\nenvironment: " + json.dumps(results[0]["environment"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

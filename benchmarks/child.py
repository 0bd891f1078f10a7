"""Runs one workload inside a fresh interpreter and writes its result JSON.

Started by run.py with PYTHONPATH=src and without the BLAS thread variables,
so the package runs with the libraries' default threading.  Every command
goes through ``dualrail.cli.main(argv)``, looked up on the module so that a
traced pass sees it.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

from dualrail import cli

import tracing
import workloads

# Probe time that the op times of a host-scaled workload are scaled to.  It
# is fixed, not taken from the run's own probes, because the host's speed
# drifts between runs and a whole run can fall in a slow stretch.  It only
# sets the scale of pass_s: a round figure near the median probe time of
# vqe and bringup runs on the 2-vCPU host of BASELINE.md, so that pass_s
# reads close to wall_s there.
PROBE_REFERENCE_S = 0.080


def blas_info() -> list[dict]:
    """Thread count and build of every OpenBLAS loaded here (read only)."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and "/" in line})
    except OSError:
        return []
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            get_threads = getattr(lib, name, None)
            if get_threads is None:
                continue
            get_threads.restype = ctypes.c_int
            get_config = getattr(lib, name.replace("get_num_threads", "get_config"))
            get_config.restype = ctypes.c_char_p
            found.append({"library": Path(path).name, "threads": get_threads(),
                          "config": get_config().decode()})
            break
    return found


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "cpus_affinity": len(os.sched_getaffinity(0)),
        "cpus_total": os.cpu_count(),
        "blas": blas_info(),
    }


def _digests(outdir: Path) -> tuple[dict, int]:
    digests, size = {}, 0
    for path in sorted(p for p in outdir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        size += len(data)
        digests[path.relative_to(outdir).as_posix()] = hashlib.sha256(data).hexdigest()
    return digests, size


def combined_digest(digests: dict) -> str:
    text = "".join(f"{name}:{digest}\n" for name, digest in sorted(digests.items()))
    return hashlib.sha256(text.encode()).hexdigest()


def host_probe_s() -> float:
    """Time of a fixed mix of interpreter and small-matrix work: the host's
    current speed for code that runs on one CPU."""
    start = perf_counter()
    a = np.full((6, 6), 0.1 + 0.05j)
    total = 0
    for i in range(10000):
        a = a @ a
        a = a / np.abs(a).sum()
        for j in range(20):
            total += i * j
    return perf_counter() - start


def run_op(op: workloads.Op, outdir: Path) -> dict:
    shutil.rmtree(outdir, ignore_errors=True)
    sink = io.StringIO()
    error, facts = None, {}
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(list(op.argv) + ["--out", str(outdir)])
        if code != 0:
            error = f"exit code {code}: {sink.getvalue().strip()[-300:]}"
    except Exception as exc:  # a crash is a failed op; the run goes on
        error = f"{type(exc).__name__}: {exc}"
    seconds = perf_counter() - start
    if error is None:
        try:
            facts = workloads.CHECKS[op.kind](op, outdir)
        except (workloads.CheckFailed, OSError, KeyError, ValueError) as exc:
            error = f"check failed: {exc}"
    digests, size = _digests(outdir) if outdir.exists() else ({}, 0)
    return {"name": op.name, "kind": op.kind, "seconds": seconds,
            "error": error, "facts": facts, "digests": digests, "bytes": size}


def run_pass(ops, outroot: Path) -> dict:
    """Runs the ops in order, with a host probe before each op and after the
    last; each op keeps the mean of the two probes around it."""
    start = perf_counter()
    probes, results = [host_probe_s()], []
    for op in ops:
        result = run_op(op, outroot / op.name)
        probes.append(host_probe_s())
        result["probe_s"] = (probes[-2] + probes[-1]) / 2
        results.append(result)
    return {"elapsed_s": perf_counter() - start, "ops": results,
            "ops_s": sum(op["seconds"] for op in results), "probes": probes}


def mark_nondeterminism(passes: list) -> None:
    """A pass whose outputs differ from the first pass fails those ops."""
    first = passes[0]["ops"]
    for later in passes[1:]:
        for ref, res in zip(first, later["ops"]):
            if res["error"] is None and ref["error"] is None \
                    and res["digests"] != ref["digests"]:
                res["error"] = "outputs differ from the first pass"


def op_seconds(op: dict, host_scaled: bool) -> float:
    """An op's time, taken at the reference host speed in a host-scaled
    workload."""
    if not host_scaled:
        return op["seconds"]
    return op["seconds"] * PROBE_REFERENCE_S / op["probe_s"]


def end_to_end(passes: list, host_scaled: bool) -> dict:
    untraced = [p for p in passes if not p["traced"]]
    n_ops = len(passes[0]["ops"])

    def median_time(i: int, scaled: bool) -> float:
        return statistics.median(op_seconds(p["ops"][i], scaled) for p in untraced)

    wall = [median_time(i, False) for i in range(n_ops)]
    times = [median_time(i, host_scaled) for i in range(n_ops)]
    ops = [(op["kind"], t) for op, t in zip(passes[0]["ops"], times)]
    m = {"pass_s": (sum(times), "s"), "wall_s": (sum(wall), "s"),
         "host.probe_ms": (1000.0 * statistics.median(
             x for p in untraced for x in p["probes"]), "ms")}
    for kind in dict.fromkeys(kind for kind, _ in ops):
        kind_times = [t for k, t in ops if k == kind]
        # cmd_s.vqe_spsa is the median single run; the others are per pass
        value = (statistics.median(kind_times) if kind == "vqe_spsa"
                 else sum(kind_times))
        m[f"cmd_s.{kind}"] = (value, "s")
    facts = [op["facts"] for op in passes[0]["ops"]]
    if any("fit_cost" in f for f in facts):
        m["fit_cost"] = (sum(f.get("fit_cost", 0.0) for f in facts), "1")
    gaps = [op["facts"]["gap_ha"] for op in passes[0]["ops"]
            if op["kind"] == "vqe_spsa" and "gap_ha" in op["facts"]]
    if gaps:
        m["vqe_gap_mha"] = (1000.0 * statistics.median(gaps), "mHa")
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return m


def per_layer(tracer: tracing.Tracer, untraced_pass: dict, traced_pass: dict,
              host_scaled: bool) -> dict:
    summary = tracer.summary()
    m = {}
    for module, attr in tracing.TRACED:
        name = f"{module}.{attr}"
        entry = summary.get(name, {"calls": 0, "self_s": 0.0})
        m[f"{name}.calls"] = (entry["calls"], "count")
        m[f"{name}.self_s"] = (entry["self_s"], "s")
    for key in ("tomography.mle_reconstruct.iterations", "vqe.run_vqe.evaluations"):
        m[key] = (tracer.counters.get(key, 0), "count")
    starts = m["tomography.minimize.calls"][0]
    if starts:
        m["tomography.fit_useful_ratio"] = (
            m["tomography.mle_reconstruct.calls"][0] / starts, "ratio")
    energy = summary.get("vqe.measure_energy")
    if energy:
        q = statistics.quantiles(energy["durations"], n=100, method="inclusive")
        m["vqe.measure_energy.p50_ms"] = (1000.0 * statistics.median(energy["durations"]), "ms")
        m["vqe.measure_energy.p99_ms"] = (1000.0 * q[98], "ms")
    m["cli.bytes_written"] = (sum(op["bytes"] for op in traced_pass["ops"]), "B")
    m["trace.wall_s"] = (traced_pass["ops_s"], "s")
    # on the pass_s basis, so that host drift between the passes cancels
    traced_s, untraced_s = (sum(op_seconds(op, host_scaled) for op in p["ops"])
                            for p in (traced_pass, untraced_pass))
    m["trace.overhead_pct"] = (100.0 * (traced_s / untraced_s - 1.0), "%")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)

    start = perf_counter()
    ops = workloads.build(args.workload, args.seed, tiny=args.tiny)
    tracer = tracing.Tracer()
    passes = []
    shutil.rmtree(args.workdir, ignore_errors=True)
    try:
        # a traced run is one untraced pass, then one traced pass; otherwise
        # passes repeat while another one fits in --seconds, at least two
        while len(passes) < 2 or (not args.trace and perf_counter() - start
                                  + passes[-1]["elapsed_s"] <= args.seconds):
            traced = bool(args.trace) and len(passes) == 1
            if traced:
                tracer.install()
            try:
                result = run_pass(ops, args.workdir / f"pass{len(passes)}")
            finally:
                tracer.uninstall()
            result["traced"] = traced
            passes.append(result)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)

    mark_nondeterminism(passes)
    all_ops = [op for p in passes for op in p["ops"]]
    host_scaled = args.workload in workloads.HOST_SCALED
    metrics = end_to_end(passes, host_scaled)
    if args.trace:
        metrics.update(per_layer(tracer, passes[0], passes[1], host_scaled))
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "tiny": args.tiny,
        "passes": len(passes),
        "attempted": len(all_ops),
        "failed": sum(op["error"] is not None for op in all_ops),
        "errors": [f"pass {i + 1} {op['name']}: {op['error']}"
                   for i, p in enumerate(passes) for op in p["ops"] if op["error"]],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "digests": {op["name"]: combined_digest(op["digests"])
                    for op in passes[0]["ops"]},
        "files": {op["name"]: op["digests"] for op in passes[0]["ops"]},
        "op_seconds": {op.name: [p["ops"][i]["seconds"] for p in passes]
                       for i, op in enumerate(ops)},
        "probes": [p["probes"] for p in passes],
        "argv": {op.name: list(op.argv) for op in ops},
        "environment": environment(),
    }
    args.result.parent.mkdir(parents=True, exist_ok=True)
    args.result.write_text(json.dumps(result, indent=1) + "\n")
    if args.trace:
        args.result.with_suffix(".spans.json").write_text(json.dumps(tracer.dump()))
    return 0


if __name__ == "__main__":
    sys.exit(main())

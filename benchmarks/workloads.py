"""Workload definitions: lists of CLI invocations, plus output checks.

Each workload is a fixed list of ``dualrail`` commands (one "pass").  The
workload seed decides every drawn input; the program only sees the
resulting argv.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("qpt", "vqe", "bringup")

# Workloads whose pass_s is taken at a reference host speed, measured by a
# probe next to every op (child.py).  Their ops run interpreter and
# small-matrix code on one CPU, whose speed drifts with the shared host, and
# the probe drifts with them.  qpt's fits run multi-threaded BLAS, which kept
# its speed while the host drifted, and the probe reads slow next to them,
# so qpt is timed as measured (BASELINE.md has both records).  The basis is
# fixed per workload, never chosen per op from a measurement, so a change to
# the program cannot move an op from one basis to the other.
HOST_SCALED = ("vqe", "bringup")

# The inputs whose cost depends on the draw are fixed, not drawn from the
# workload seed, so that runs on different seeds time the same work:
# - one L-BFGS simulate-and-fit took 161 to 1274 iterations (1.3 to 10.6 s)
#   across drawn defect chips and shot-noise seeds, which moved a qpt pass
#   from 34.6 s to 49.2 s between two workload seeds;
# - an exact-mode VQE run made 582 to 1157 energy evaluations across drawn
#   seeds (Nelder-Mead restarts stop when two agree), so `vqe --exact` runs
#   at the CLI's default seed 0 (673 evaluations); SPSA makes a fixed number
#   of evaluations, so its seeds are drawn;
# - Sinkhorn cost varies from 0.02 s to 4 s across `characterize` chips (CLI
#   seed 7 is the slow structural-zero case), and 8 drawn chips gave a
#   quartile spread of about 100% of the median across seeds.
# The roster keeps the slow cases in every run.
CHIP_ROSTER = tuple(range(8))

# accepted range of the bundled-counts reconstruction fidelity
BUNDLED_FIDELITY = (0.90, 0.97)
# largest |E - E_oracle| (Ha) an exact-mode VQE run may leave
EXACT_GAP_HA = 1e-3


class CheckFailed(Exception):
    """An operation finished but its output is wrong."""


@dataclass(frozen=True)
class Op:
    name: str   # unique within a pass; also the output subdirectory
    kind: str   # command family, the suffix of its cmd_s.* metric
    argv: tuple


def build(workload: str, seed: int, tiny: bool = False) -> list[Op]:
    """The ops of one pass of `workload`; `tiny` is the smoke-test size."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])

    def draw_seed() -> str:
        return str(int(rng.integers(1, 2 ** 31)))

    if workload == "qpt":
        # fixed inputs: one simulate-and-fit on the README's defect chip,
        # with partial distinguishability added, after the bundled counts
        return [
            Op("qpt", "qpt", ("qpt",) + (("--starts", "1") if tiny else ())),
            Op("qpt_simulate", "qpt_simulate", (
                "qpt", "--simulate", "--starts", "1", "--r5", "0.45",
                "--theta1", "0.2", "--phase-bias", "0.05", "--x", "0.978",
                "--seed", "3")),
        ]
    if workload == "vqe":
        ops = [Op("vqe_exact", "vqe_exact", ("vqe", "--exact", "--seed", "0"))]
        for i in range(1 if tiny else 2):
            ops.append(Op(f"vqe_spsa_{i}", "vqe_spsa", (
                "vqe", "--shots", "2000", "--optimizer", "spsa",
                "--seed", draw_seed(),
            )))
        return ops
    if workload == "bringup":
        roster = CHIP_ROSTER[:1] if tiny else CHIP_ROSTER
        ops = [Op(f"characterize_{c}", "characterize",
                  ("characterize", "--ratio-sigma", "0.02", "--seed", str(c)))
               for c in roster]
        for i in range(1 if tiny else 2):
            ops.append(Op(f"calibrate_{i}", "calibrate",
                          ("calibrate", "--seed", draw_seed())))
        ops.append(Op("gates", "gates", (
            "gates", "--samples", "20" if tiny else "1000",
            "--ratio-dev", f"{rng.uniform(0.0, 0.03):.4f}",
            "--seed", draw_seed(),
        )))
        ops.append(Op("hom", "hom", ("hom", "--x-points", "11" if tiny else "201")))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# output checks: each returns facts for the metrics or raises CheckFailed


def _summary(path: Path) -> dict:
    out = {}
    for line in path.read_text().splitlines():
        if line.startswith("#") or "=" not in line:
            continue
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def _read_table(path: Path) -> np.ndarray:
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    # first line is the column header; each row starts with its Pauli label
    return np.array([ln.split(",")[1:] for ln in lines[1:]], dtype=float)


def check_qpt(op: Op, outdir: Path) -> dict:
    from dualrail import tomography

    summary = _summary(outdir / "summary.txt")
    if summary.get("converged") != "True":
        raise CheckFailed("tomography fit not converged")
    chi = _read_table(outdir / "chi_real.csv") + 1j * _read_table(outdir / "chi_imag.csv")
    try:
        tomography.check_chi(chi)
    except ValueError as exc:
        raise CheckFailed(f"check_chi: {exc}") from exc
    fid = float(summary["fidelity_vs_ideal_cnot"])
    if op.kind == "qpt" and not BUNDLED_FIDELITY[0] <= fid <= BUNDLED_FIDELITY[1]:
        raise CheckFailed(f"bundled-counts fidelity {fid} outside {BUNDLED_FIDELITY}")
    return {"fit_cost": float(summary["final_cost"]), "fidelity": fid}


def check_vqe(op: Op, outdir: Path) -> dict:
    row = (outdir / "vqe_summary.csv").read_text().splitlines()[-1].split(",")
    gap = abs(float(row[1]) - float(row[2]))
    if op.kind == "vqe_exact" and gap > EXACT_GAP_HA:
        raise CheckFailed(f"exact VQE gap {gap:.3g} Ha above {EXACT_GAP_HA}")
    return {"gap_ha": gap}


def check_characterize(op: Op, outdir: Path) -> dict:
    fid = float(_summary(outdir / "summary.txt")["fidelity_vs_ideal"])
    if not 0.0 < fid <= 1.0:
        raise CheckFailed(f"characterize fidelity {fid} outside (0, 1]")
    return {}


def check_written(op: Op, outdir: Path) -> dict:
    if not any(outdir.iterdir()):
        raise CheckFailed("command wrote no output")
    return {}


CHECKS = {
    "qpt": check_qpt,
    "qpt_simulate": check_qpt,
    "vqe_exact": check_vqe,
    "vqe_spsa": check_vqe,
    "characterize": check_characterize,
    "calibrate": check_written,
    "gates": check_written,
    "hom": check_written,
}

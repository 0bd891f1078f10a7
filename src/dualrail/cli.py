"""Command-line entry points for the five reference experiments.

Every command resolves its settings from an optional key=value config file
plus flags (flags win), stamps each output file with the settings hash and
seed, and is byte-reproducible for a fixed seed.

Exit codes: 0 success, 1 validation error, 2 convergence or infeasibility.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

from . import calibration, gates, optics, sampler, tomography, vqe
from .errors import ConvergenceError, DegenerateDataError, InfeasibleTargetError


class _Parser(argparse.ArgumentParser):
    # argparse exits with its own code on bad flags; route through the
    # validation-error path instead so the CLI honors the documented codes
    def error(self, message):
        raise ValueError(message)


_DEFAULTS = {
    "seed": 0,
    "shots": 2000,
    "x": 1.0,
    "out": "out",
    "chip": None,
    "ratio_sigma": 0.0,
    "r5": None,
    "r9": None,
    "theta1": None,
    "phase_bias": 0.0,
    "noise": 0.01,
    "samples": 100,
    "ratio_dev": 0.0,
    "optimizer": "nelder-mead",   # ignored: the vqe mode picks the optimizer
    "hamiltonian": None,
    "ingest": None,
    "simulate": False,
    "exact": False,
    "x_points": 51,
    "units": "mA",
    "starts": 4,   # ignored by the fit; kept because every setting is hashed
}

_CASTS = {
    "seed": int, "shots": int, "samples": int, "x_points": int, "starts": int,
    "x": float, "ratio_sigma": float, "r5": float, "r9": float,
    "theta1": float, "phase_bias": float, "noise": float, "ratio_dev": float,
    "simulate": lambda v: str(v).lower() in ("1", "true", "yes"),
    "exact": lambda v: str(v).lower() in ("1", "true", "yes"),
}


def _resolve(args) -> dict:
    settings = dict(_DEFAULTS)
    if getattr(args, "config", None):
        for key, val in optics.read_key_values(args.config).items():
            key = key.replace("-", "_")
            if key not in settings:
                raise ValueError(f"unknown config key {key!r}")
            settings[key] = _CASTS.get(key, str)(val)
    for key in settings:
        val = getattr(args, key, None)
        if val is not None and val is not False:
            settings[key] = val
    return settings


def _settings_hash(settings: dict, command: str) -> str:
    # the output directory is not part of the experiment definition
    canon = command + ";" + ";".join(
        f"{k}={settings[k]}" for k in sorted(settings) if k != "out"
    )
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


class _Run:
    """Output directory with stamped, reproducible file writes."""

    def __init__(self, command: str, settings: dict):
        self.command = command
        self.settings = settings
        self.header = (
            f"# command: {command}\n"
            f"# config_hash: {_settings_hash(settings, command)}\n"
            f"# seed: {settings['seed']}\n"
        )
        self.outdir = Path(settings["out"])
        self.outdir.mkdir(parents=True, exist_ok=True)

    def write(self, name: str, body: str) -> Path:
        path = self.outdir / name
        path.write_text(self.header + body)
        return path


def _chip_from_settings(settings, rng=None) -> optics.ChipParameters:
    chip = (optics.load_chip_parameters(settings["chip"])
            if settings["chip"] else optics.ChipParameters.ideal())
    if settings["ratio_sigma"] > 0.0:
        if rng is None:
            raise ValueError("ratio_sigma perturbation needs the run rng")
        chip = chip.perturbed(settings["ratio_sigma"], rng)
    if settings["r5"] is not None:
        chip = chip.with_ratio(5, settings["r5"])
    if settings["r9"] is not None:
        chip = chip.with_ratio(9, settings["r9"])
    if settings["theta1"] is not None:
        chip = chip.with_static_phases(settings["theta1"], chip.static_phases[1])
    return chip


def _matrix_csv(matrix: np.ndarray) -> str:
    return "\n".join(
        ",".join(f"{v:.12g}" for v in row) for row in np.asarray(matrix)
    ) + "\n"


# ---------------------------------------------------------------------------
# commands


def cmd_characterize(settings) -> int:
    rng = np.random.default_rng(settings["seed"])
    chip = _chip_from_settings(settings, rng)
    run = _Run("characterize", settings)

    ideal_moduli = np.abs(optics.build_chip_unitary(optics.ChipParameters.ideal())) ** 2
    true_moduli = np.abs(optics.build_chip_unitary(chip)) ** 2
    # unknown injection/collection efficiencies scale rows and columns
    gains_in = rng.uniform(0.5, 1.5, 6)
    gains_out = rng.uniform(0.5, 1.5, 6)
    raw_powers = true_moduli * np.outer(gains_out, gains_in)
    recovered = optics.sinkhorn_scale(raw_powers, tol=1e-9)
    fid = optics.fidelity(recovered, ideal_moduli)

    run.write("powers_raw.csv", _matrix_csv(raw_powers))
    run.write("moduli_recovered.csv", _matrix_csv(recovered))
    run.write("moduli_ideal.csv", _matrix_csv(ideal_moduli))
    run.write("summary.txt", f"fidelity_vs_ideal = {fid:.6f}\n")
    print(f"characterize: fidelity vs ideal chip = {fid:.4f}")
    return 0


def cmd_calibrate(settings) -> int:
    rng = np.random.default_rng(settings["seed"])
    run = _Run("calibrate", settings)
    model = calibration.CrossTalkModel.reference()

    lines = ["heater,B,C,phi0,alpha,residual,degenerate"]
    if settings.get("_sweep"):
        sweep = calibration.read_sweep_csv(settings["_sweep"], settings["units"])
        fit = calibration.fit_sweep(sweep)
        lines.append(
            f"external,{fit.b:.12g},{fit.c:.12g},{fit.phi0:.12g},"
            f"{fit.alpha:.12g},{fit.residual:.12g},{fit.degenerate}"
        )
    else:
        currents = np.arange(0.0, 20.0 + 1e-9, 0.15)
        for heater in range(8):
            alpha = model.matrix[heater, heater]
            phi0 = model.initial_phases[heater]
            sweep = calibration.simulate_sweep(
                0.5, 0.5, phi0, alpha, currents,
                noise_sigma=settings["noise"], rng=rng,
            )
            fit = calibration.fit_sweep(sweep)
            lines.append(
                f"{heater + 1},{fit.b:.12g},{fit.c:.12g},{fit.phi0:.12g},"
                f"{fit.alpha:.12g},{fit.residual:.12g},{fit.degenerate}"
            )
    run.write("calibration_fits.csv", "\n".join(lines) + "\n")
    run.write("crosstalk_model.txt", calibration.format_crosstalk_table(model))

    # round-trip demonstration: realize a mid-range phase target
    target = model.initial_phases + np.linspace(0.5, 2.5, 8)
    currents = calibration.solve_currents(model, target)
    realized = calibration.apply_crosstalk(model, calibration.quantize(currents))
    err = np.max(np.abs(np.mod(realized - target + np.pi, 2 * np.pi) - np.pi))
    body = ["channel,target_rad,current_mA,realized_rad"]
    for ch in range(8):
        body.append(
            f"{ch + 1},{target[ch]:.12g},{currents.values[ch]:.12g},"
            f"{realized[ch]:.12g}"
        )
    body.append(f"max_wrapped_error_rad,{err:.6g},,")
    run.write("current_solution.csv", "\n".join(body) + "\n")
    print(f"calibrate: fits written; quantized phase error {err:.2e} rad")
    return 0


def cmd_hom(settings) -> int:
    run = _Run("hom", settings)
    chip = optics.ChipParameters.ideal().with_phases(optics.IDENTITY_GATE_PHASES)
    U = optics.build_chip_unitary(chip)
    xs = np.linspace(0.0, 1.0, settings["x_points"])
    curve = sampler.hom_curve(U, xs)
    vis = sampler.hom_visibility(curve)
    body = ["overlap_x,coincidence_probability"]
    body.extend(f"{x:.12g},{p:.12g}" for x, p in zip(xs, curve))
    run.write("hom_curve.csv", "\n".join(body) + "\n")
    run.write("summary.txt", f"visibility = {vis:.6f}\n")
    print(f"hom: curve over {xs.size} points, visibility {vis:.4f}")
    return 0


def cmd_qpt(settings) -> int:
    run = _Run("qpt", settings)
    if settings["simulate"]:
        rng = np.random.default_rng(settings["seed"])
        chip = _chip_from_settings(settings, rng)
        dataset = tomography.run_qpt_simulation(
            chip, x=settings["x"], shots_per_config=settings["shots"],
            seed=settings["seed"], phase_bias=settings["phase_bias"],
        )
        source = "simulated"
    else:
        if settings["ingest"]:
            try:
                text = Path(settings["ingest"]).read_text()
            except OSError as exc:
                raise ValueError(f"cannot read dataset: {exc}") from exc
            dataset = tomography.dataset_from_csv(text)
            source = settings["ingest"]
        else:
            dataset = tomography.load_reference_counts()
            source = "bundled reference counts"

    result = tomography.mle_reconstruct(dataset)
    fid = tomography.chi_fidelity(result.chi, tomography.ideal_cnot_chi())

    run.write("dataset.csv", tomography.dataset_to_csv(dataset))
    real_csv, imag_csv, eig_csv = tomography.export_chi_csv(result.chi)
    run.write("chi_real.csv", real_csv)
    run.write("chi_imag.csv", imag_csv)
    run.write("chi_eigenvalues.csv", eig_csv)
    run.write(
        "summary.txt",
        f"source = {source}\n"
        f"fidelity_vs_ideal_cnot = {fid:.6f}\n"
        f"final_cost = {result.cost:.6e}\n"
        f"converged = {result.converged}\n"
        f"newton_steps = {result.n_iterations}\n"
        f"optimality_gap = {result.gap:.1e}\n",
    )
    print(f"qpt: reconstructed chi fidelity vs ideal CNOT = {fid:.4f}")
    if not result.converged:
        raise ConvergenceError("tomography fit did not converge",
                               residual=result.cost)
    return 0


# programmable gate -> driving heater (0-based).  Preparation stages run
# MZI then rail phase (heaters 1-4); measurement stages are mirrored, rail
# phase before MZI (heaters 5-8).
GATE_HEATERS = (
    ("Rx1", "rx", 0), ("Rz1", "rz", 1), ("Rx2", "rx", 2), ("Rz2", "rz", 3),
    ("Rx3", "rx", 5), ("Rz3", "rz", 4), ("Rx4", "rx", 7), ("Rz4", "rz", 6),
)


def cmd_gates(settings) -> int:
    run = _Run("gates", settings)
    model_ref = calibration.CrossTalkModel.reference()
    dev = settings["ratio_dev"]
    summary = ["gate,mean,std,min"]
    for index, (name, kind, heater) in enumerate(GATE_HEATERS):
        model = gates.GateModel(
            kind=kind,
            alpha=model_ref.matrix[heater, heater],
            phi0=0.0,
            r1=0.5 + dev,
            r2=0.5 - dev,
        )
        hist = gates.fidelity_histogram(
            model, settings["samples"], seed=settings["seed"] + index
        )
        run.write(f"hist_{name}.csv", gates.histogram_csv(hist))
        summary.append(f"{name},{hist.mean:.6f},{hist.std:.6f},{hist.minimum:.6f}")
    run.write("gate_summary.csv", "\n".join(summary) + "\n")
    print("gates: histograms for 8 gates written")
    return 0


def cmd_vqe(settings) -> int:
    run = _Run("vqe", settings)
    if settings["hamiltonian"]:
        try:
            text = Path(settings["hamiltonian"]).read_text()
        except OSError as exc:
            raise ValueError(f"cannot read Hamiltonian table: {exc}") from exc
        rows = vqe.load_pauli_table(text)
    else:
        rows = [vqe.reference_hamiltonian()]

    chip = optics.ChipParameters.ideal()
    shots = None if settings["exact"] else settings["shots"]
    summary = ["distance_angstrom,E_vqe,E_oracle,gap,stagnated"]
    for distance, h in rows:
        result = vqe.run_vqe(chip, h, shots_per_basis=shots,
                             seed=settings["seed"])
        gap = result.best_energy - result.oracle_energy
        summary.append(
            f"{distance:.6g},{result.best_energy:.8f},"
            f"{result.oracle_energy:.8f},{gap:.2e},{result.stagnated}"
        )
        t = result.trace
        # sampled runs record counts C1..C4, exact runs the post-selected
        # probabilities P1..P4 of each basis
        record = "P" if shots is None else "C"
        columns = [f"{record}{j}_{basis}" for basis in ("hh", "dd")
                   for j in range(1, 5)]
        body = ["iteration,phi1,phi2,phi3,phi4,energy,best_energy,"
                + ",".join(columns) + ",out_of_bounds"]
        for i in range(len(t.iterations)):
            row = [str(t.iterations[i])]
            row.extend(f"{p:.12g}" for p in t.phases[i])
            row.append(f"{t.energies[i]:.10f}")
            row.append(f"{t.best_energies[i]:.10f}")
            row.extend(f"{c:.12g}" if shots is None else str(c)
                       for c in t.records_hh[i] + t.records_dd[i])
            row.append(str(t.out_of_bounds[i]))
            body.append(",".join(row))
        tag = f"{distance:g}".replace(".", "p")
        run.write(f"trace_{tag}A.csv", "\n".join(body) + "\n")
        print(f"vqe: d={distance} A -> E={result.best_energy:.6f} "
              f"(oracle {result.oracle_energy:.6f}, gap {gap:.2e})")
    run.write("vqe_summary.csv", "\n".join(summary) + "\n")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dualrail",
                     description="two-qubit photonic processor twin")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value settings file")
        p.add_argument("--seed", type=int)
        p.add_argument("--out", help="output directory")

    p = sub.add_parser("characterize", help="classical |U|^2 characterization")
    common(p)
    p.add_argument("--chip", help="chip parameter file")
    p.add_argument("--ratio-sigma", dest="ratio_sigma", type=float)

    p = sub.add_parser("calibrate", help="sweep fitting and current solving")
    common(p)
    p.add_argument("--noise", type=float, help="relative sweep noise")
    p.add_argument("--sweep", dest="_sweep", help="ingest a sweep CSV")
    p.add_argument("--units", choices=("mA", "relative"))

    p = sub.add_parser("hom", help="two-photon interference dip")
    common(p)
    p.add_argument("--x-points", dest="x_points", type=int)

    p = sub.add_parser("qpt", help="process tomography of the CNOT")
    common(p)
    p.add_argument("--simulate", action="store_true", default=None)
    p.add_argument("--ingest", help="counts CSV (default: bundled reference)")
    p.add_argument("--shots", type=int)
    p.add_argument("--x", type=float, help="photon overlap for simulation")
    p.add_argument("--chip", help="chip parameter file")
    p.add_argument("--r5", type=float)
    p.add_argument("--r9", type=float)
    p.add_argument("--theta1", type=float)
    p.add_argument("--phase-bias", dest="phase_bias", type=float)
    p.add_argument("--ratio-sigma", dest="ratio_sigma", type=float)
    p.add_argument("--starts", type=int, help="ignored (the fit has no restarts)")

    p = sub.add_parser("gates", help="single-qubit gate fidelity histograms")
    common(p)
    p.add_argument("--samples", type=int)
    p.add_argument("--ratio-dev", dest="ratio_dev", type=float)

    p = sub.add_parser("vqe", help="hydrogen ground-state estimation")
    common(p)
    p.add_argument("--hamiltonian", help="(distance f0..f4) table")
    p.add_argument("--shots", type=int)
    p.add_argument("--exact", action="store_true", default=None)
    p.add_argument("--optimizer", choices=("nelder-mead", "spsa"),
                   help="ignored (--exact runs Nelder-Mead, --shots runs SPSA)")

    return parser


_COMMANDS = {
    "characterize": cmd_characterize,
    "calibrate": cmd_calibrate,
    "hom": cmd_hom,
    "qpt": cmd_qpt,
    "gates": cmd_gates,
    "vqe": cmd_vqe,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        settings = _resolve(args)
        if getattr(args, "_sweep", None):
            settings["_sweep"] = args._sweep
        return _COMMANDS[args.command](settings)
    except (ValueError, DegenerateDataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConvergenceError, InfeasibleTargetError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

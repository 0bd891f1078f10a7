"""Command-line entry points for the five reference experiments.

A command's settings are its own flags.  An optional key = value config
file may set any of them (flags win); every output file is stamped with the
hash of the command's settings, input files by their contents, and the
seed, and is byte-reproducible for a fixed seed.  This module is the only
one that reads files: the library parses text.

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


_BOOLEANS = {"1": True, "true": True, "yes": True,
             "0": False, "false": False, "no": False}


def _boolean(text: str) -> bool:
    if text.lower() not in _BOOLEANS:
        raise ValueError(f"expected one of {'/'.join(_BOOLEANS)}, got {text!r}")
    return _BOOLEANS[text.lower()]


def _setting_actions(command: argparse.ArgumentParser) -> dict:
    # a flag whose default is SUPPRESS (help, --config and the ignored
    # --starts and --optimizer) is not a setting
    return {a.dest: a for a in command._actions
            if a.default is not argparse.SUPPRESS}


# the settings that name an input file, each the name of its flag
_INPUT_FILES = ("chip", "sweep", "ingest", "hamiltonian")


def _read(flag: str, path: str) -> str:
    """The text of the file `path` given to --`flag`."""
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read --{flag} {path}: {exc}") from None


def _config_values(command: argparse.ArgumentParser, text: str) -> dict:
    """The settings a config file's text sets, cast and checked as flags."""
    actions = _setting_actions(command)
    values = optics.read_key_values(text, {
        key: _boolean if a.nargs == 0 else a.type or str
        for key, a in actions.items()})
    for key, value in values.items():
        if actions[key].choices and value not in actions[key].choices:
            raise ValueError(f"config key {key!r} must be one of "
                             f"{', '.join(actions[key].choices)}, got {value!r}")
    return values


class _Run:
    """Output directory with stamped, reproducible file writes."""

    def __init__(self, command: str, settings: dict, inputs: dict):
        # the stamp hashes the settings with the digest of each input file's
        # contents in place of its path, and without the output directory
        values = {**settings, **{key: hashlib.sha256(text.encode()).hexdigest()
                                 for key, text in inputs.items()}}
        canon = command + ";" + ";".join(
            f"{k}={values[k]}" for k in sorted(values) if k != "out"
        )
        self.header = (
            f"# command: {command}\n"
            f"# config_hash: {hashlib.sha256(canon.encode()).hexdigest()[:16]}\n"
            f"# seed: {settings['seed']}\n"
        )
        self.outdir = Path(settings["out"])
        self.outdir.mkdir(parents=True, exist_ok=True)

    def write(self, name: str, body: str) -> Path:
        path = self.outdir / name
        path.write_text(self.header + body)
        return path


def _chip_from_settings(settings, inputs, rng=None) -> optics.ChipParameters:
    chip = (optics.load_chip_parameters(inputs["chip"])
            if "chip" in inputs else optics.ChipParameters.ideal())
    sigma = settings["ratio_sigma"]
    if not (np.isfinite(sigma) and sigma >= 0.0):
        raise ValueError(f"ratio_sigma must be finite and >= 0, got {sigma}")
    if sigma > 0.0:
        if rng is None:
            raise ValueError("ratio_sigma perturbation needs the run rng")
        chip = chip.perturbed(sigma, rng)
    # characterize has no defect flags, only qpt does
    if settings.get("r5") is not None:
        chip = chip.with_ratio(5, settings["r5"])
    if settings.get("r9") is not None:
        chip = chip.with_ratio(9, settings["r9"])
    if settings.get("theta1") is not None:
        chip = chip.with_static_phases(settings["theta1"], chip.static_phases[1])
    return chip


# ---------------------------------------------------------------------------
# commands


def cmd_characterize(settings, inputs) -> int:
    rng = np.random.default_rng(settings["seed"])
    chip = _chip_from_settings(settings, inputs, rng)
    run = _Run("characterize", settings, inputs)

    ideal_moduli = np.abs(optics.build_chip_unitary(optics.ChipParameters.ideal())) ** 2
    true_moduli = np.abs(optics.build_chip_unitary(chip)) ** 2
    # unknown injection/collection efficiencies scale rows and columns
    gains_in = rng.uniform(0.5, 1.5, 6)
    gains_out = rng.uniform(0.5, 1.5, 6)
    raw_powers = true_moduli * np.outer(gains_out, gains_in)
    recovered = optics.sinkhorn_scale(raw_powers, tol=1e-9)
    fid = optics.fidelity(recovered, ideal_moduli)

    for name, matrix in (("powers_raw.csv", raw_powers),
                         ("moduli_recovered.csv", recovered),
                         ("moduli_ideal.csv", ideal_moduli)):
        run.write(name, optics.format_table(None, ",".join(["%.12g"] * 6),
                                            *matrix.T))
    run.write("summary.txt", f"fidelity_vs_ideal = {fid:.6f}\n")
    print(f"characterize: fidelity vs ideal chip = {fid:.4f}")
    return 0


def cmd_calibrate(settings, inputs) -> int:
    rng = np.random.default_rng(settings["seed"])
    run = _Run("calibrate", settings, inputs)
    model = calibration.CrossTalkModel.reference()

    if "sweep" in inputs:
        heaters = ["external"]
        sweeps = [calibration.read_sweep_csv(inputs["sweep"],
                                             settings["units"])]
    else:
        heaters = range(1, 9)
        currents = np.arange(0.0, 20.0 + 1e-9, 0.15)
        sweeps = [calibration.simulate_sweep(
            0.5, 0.5, model.initial_phases[h], model.matrix[h, h], currents,
            noise_sigma=settings["noise"], rng=rng) for h in range(8)]
    fits = [(f.b, f.c, f.phi0, f.alpha, f.residual, f.degenerate)
            for f in map(calibration.fit_sweep, sweeps)]
    run.write("calibration_fits.csv", optics.format_table(
        "heater,B,C,phi0,alpha,residual,degenerate",
        "%s" + ",%.12g" * 5 + ",%s", heaters, *zip(*fits)))
    run.write("crosstalk_model.txt", calibration.format_crosstalk_table(model))

    # round-trip demonstration: realize a mid-range phase target
    target = model.initial_phases + np.linspace(0.5, 2.5, 8)
    currents = calibration.solve_currents(model, target)
    realized = calibration.apply_crosstalk(model, calibration.quantize(currents))
    err = np.max(np.abs(np.mod(realized - target + np.pi, 2 * np.pi) - np.pi))
    run.write("current_solution.csv", optics.format_table(
        "channel,target_rad,current_mA,realized_rad", "%d,%.12g,%.12g,%.12g",
        np.arange(1, 9), target, currents.values, realized,
    ) + f"max_wrapped_error_rad,{err:.6g},,\n")
    print(f"calibrate: fits written; quantized phase error {err:.2e} rad")
    return 0


def cmd_hom(settings, inputs) -> int:
    if settings["x_points"] < 2:
        raise ValueError(f"a HOM curve needs at least 2 overlap points "
                         f"(x_points), got {settings['x_points']}")
    run = _Run("hom", settings, inputs)
    chip = optics.ChipParameters.ideal().with_phases(optics.IDENTITY_GATE_PHASES)
    U = optics.build_chip_unitary(chip)
    xs = np.linspace(0.0, 1.0, settings["x_points"])
    curve = sampler.hom_curve(U, xs)
    vis = sampler.hom_visibility(curve)
    run.write("hom_curve.csv", optics.format_table(
        "overlap_x,coincidence_probability", "%.12g,%.12g", xs, curve))
    run.write("summary.txt", f"visibility = {vis:.6f}\n")
    print(f"hom: curve over {xs.size} points, visibility {vis:.4f}")
    return 0


def cmd_qpt(settings, inputs) -> int:
    run = _Run("qpt", settings, inputs)
    if settings["simulate"]:
        rng = np.random.default_rng(settings["seed"])
        chip = _chip_from_settings(settings, inputs, rng)
        dataset = tomography.run_qpt_simulation(
            chip, x=settings["x"], shots_per_config=settings["shots"],
            seed=settings["seed"], phase_bias=settings["phase_bias"],
        )
        source = "simulated"
    elif "ingest" in inputs:
        dataset = tomography.dataset_from_csv(inputs["ingest"])
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
    run.write("residuals.csv", optics.format_table(
        "config,r1,r2,r3,r4", "%s" + ",%.12g" * 4, dataset.labels(),
        *result.residuals.T))
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


def cmd_gates(settings, inputs) -> int:
    run = _Run("gates", settings, inputs)
    model_ref = calibration.CrossTalkModel.reference()
    dev = settings["ratio_dev"]
    stats = []
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
        stats.append((name, hist.mean, hist.std, hist.minimum))
    run.write("gate_summary.csv", optics.format_table(
        "gate,mean,std,min", "%s,%.6f,%.6f,%.6f", *zip(*stats)))
    print("gates: histograms for 8 gates written")
    return 0


def cmd_vqe(settings, inputs) -> int:
    run = _Run("vqe", settings, inputs)
    rows = (vqe.load_pauli_table(inputs["hamiltonian"])
            if "hamiltonian" in inputs else [vqe.reference_hamiltonian()])

    chip = optics.ChipParameters.ideal()
    shots = None if settings["exact"] else settings["shots"]
    # sampled runs record counts C1..C4, exact runs the post-selected
    # probabilities P1..P4 of each basis
    record, record_format = ("P", ",%.12g") if shots is None else ("C", ",%d")
    header = ("iteration,phi1,phi2,phi3,phi4,energy,best_energy,"
              + ",".join(f"{record}{j}_{basis}" for basis in ("hh", "dd")
                         for j in range(1, 5)) + ",out_of_bounds")
    row_format = "%d" + ",%.12g" * 4 + ",%.10f" * 2 + record_format * 8 + ",%s"
    summary = []
    for distance, h in rows:
        result = vqe.run_vqe(chip, h, shots_per_basis=shots,
                             seed=settings["seed"])
        gap = result.best_energy - result.oracle_energy
        t = result.trace
        summary.append((distance, result.best_energy, result.oracle_energy,
                        gap, result.stagnated, result.sweeps,
                        len(t.energies)))
        tag = f"{distance:g}".replace(".", "p")
        run.write(f"trace_{tag}A.csv", optics.format_table(
            header, row_format, t.iterations, *zip(*t.phases), t.energies,
            t.best_energies, *zip(*t.records_hh), *zip(*t.records_dd),
            t.out_of_bounds))
        print(f"vqe: d={distance} A -> E={result.best_energy:.6f} "
              f"(oracle {result.oracle_energy:.6f}, gap {gap:.2e})")
    run.write("vqe_summary.csv", optics.format_table(
        "distance_angstrom,E_vqe,E_oracle,gap,stagnated,sweeps,evaluations",
        "%.6g,%.8f,%.8f,%.2e,%s,%d,%d", *zip(*summary)))
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The CLI parser and its command parsers by name."""
    parser = _Parser(prog="dualrail",
                     description="two-qubit photonic processor twin")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", default=argparse.SUPPRESS,
                       help="key = value file of this command's settings")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default="out", help="output directory")
        return p

    p = command("characterize", "classical |U|^2 characterization")
    p.add_argument("--chip", help="chip parameter file")
    p.add_argument("--ratio-sigma", type=float, default=0.0)

    p = command("calibrate", "sweep fitting and current solving")
    p.add_argument("--noise", type=float, default=0.01,
                   help="relative sweep noise")
    p.add_argument("--sweep", help="ingest a sweep CSV")
    p.add_argument("--units", choices=("mA", "relative"), default="mA")

    p = command("hom", "two-photon interference dip")
    p.add_argument("--x-points", type=int, default=51)

    p = command("qpt", "process tomography of the CNOT")
    p.add_argument("--simulate", action="store_true")
    p.add_argument("--ingest", help="counts CSV (default: bundled reference)")
    p.add_argument("--shots", type=int, default=2000)
    p.add_argument("--x", type=float, default=1.0,
                   help="photon overlap for simulation")
    p.add_argument("--chip", help="chip parameter file")
    p.add_argument("--r5", type=float)
    p.add_argument("--r9", type=float)
    p.add_argument("--theta1", type=float)
    p.add_argument("--phase-bias", type=float, default=0.0)
    p.add_argument("--ratio-sigma", type=float, default=0.0)
    p.add_argument("--starts", type=int, default=argparse.SUPPRESS,
                   help="ignored (the fit has no restarts)")

    p = command("gates", "single-qubit gate fidelity histograms")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--ratio-dev", type=float, default=0.0)

    p = command("vqe", "hydrogen ground-state estimation")
    p.add_argument("--hamiltonian", help="(distance f0..f4) table")
    p.add_argument("--shots", type=int, default=2000)
    p.add_argument("--exact", action="store_true")
    p.add_argument("--optimizer", choices=("nelder-mead", "spsa"),
                   default=argparse.SUPPRESS,
                   help="ignored (both modes run coordinate descent)")

    return parser, sub.choices


_COMMANDS = {
    "characterize": cmd_characterize,
    "calibrate": cmd_calibrate,
    "hom": cmd_hom,
    "qpt": cmd_qpt,
    "gates": cmd_gates,
    "vqe": cmd_vqe,
}


def main(argv=None) -> int:
    parser, commands = build_parser()
    try:
        args = parser.parse_args(argv)
        command = commands[args.command]
        if hasattr(args, "config"):
            # the file's values become the command's defaults: flags win
            command.set_defaults(**_config_values(
                command, _read("config", args.config)))
            args = parser.parse_args(argv)
        settings = {key: getattr(args, key) for key in _setting_actions(command)}
        inputs = {key: _read(key, settings[key]) for key in _INPUT_FILES
                  if settings.get(key)}
        return _COMMANDS[args.command](settings, inputs)
    except (ValueError, DegenerateDataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConvergenceError, InfeasibleTargetError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

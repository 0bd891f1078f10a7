import ast
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from dualrail import cli, optics, tomography
from dualrail.errors import ConvergenceError

SRC = Path(cli.__file__).resolve().parents[1]


def read_tree(root: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def run(argv):
    return cli.main(argv)


class TestCommandsSucceed:
    def test_characterize(self, tmp_path):
        out = tmp_path / "char"
        assert run(["characterize", "--seed", "1", "--ratio-sigma", "0.02",
                    "--out", str(out)]) == 0
        assert (out / "summary.txt").exists()
        summary = (out / "summary.txt").read_text()
        fid = float(summary.rsplit("=", 1)[1])
        assert 0.98 < fid <= 1.0

    def test_characterize_ideal_is_unity(self, tmp_path):
        out = tmp_path / "char0"
        assert run(["characterize", "--seed", "2", "--out", str(out)]) == 0
        fid = float((out / "summary.txt").read_text().rsplit("=", 1)[1])
        assert abs(fid - 1.0) < 1e-6

    def test_calibrate(self, tmp_path):
        out = tmp_path / "cal"
        assert run(["calibrate", "--seed", "3", "--out", str(out)]) == 0
        text = (out / "calibration_fits.csv").read_text()
        assert text.count("\n") >= 9
        assert (out / "crosstalk_model.txt").exists()
        assert (out / "current_solution.csv").exists()

    def test_calibrate_ingest_sweep(self, tmp_path):
        import numpy as np
        from dualrail import calibration as cal
        currents = np.arange(0.0, 20.0, 0.15)
        sweep = cal.simulate_sweep(0.5, 0.4, 0.2, 0.0437, currents)
        path = tmp_path / "sweep.csv"
        path.write_text("".join(f"{c},{p}\n" for c, p in
                                zip(sweep.currents, sweep.powers)))
        out = tmp_path / "cal2"
        assert run(["calibrate", "--sweep", str(path), "--out", str(out)]) == 0
        fits = (out / "calibration_fits.csv").read_text()
        assert "external" in fits

    def test_hom(self, tmp_path):
        out = tmp_path / "hom"
        assert run(["hom", "--x-points", "11", "--out", str(out)]) == 0
        lines = (out / "hom_curve.csv").read_text().splitlines()
        assert len([l for l in lines if not l.startswith("#")]) == 12
        vis = float((out / "summary.txt").read_text().rsplit("=", 1)[1])
        assert abs(vis - 1.0) < 1e-9

    def test_gates(self, tmp_path):
        out = tmp_path / "gates"
        assert run(["gates", "--samples", "25", "--seed", "4",
                    "--out", str(out)]) == 0
        summary = (out / "gate_summary.csv").read_text().splitlines()
        assert len(summary) == 12  # header block + csv header + 8 gates
        assert len(list(out.glob("hist_*.csv"))) == 8

    def test_qpt_simulate(self, tmp_path):
        out = tmp_path / "qpt"
        assert run(["qpt", "--simulate", "--shots", "300", "--seed", "5",
                    "--starts", "1", "--out", str(out)]) == 0
        summary = (out / "summary.txt").read_text()
        fid = float(summary.splitlines()[4].rsplit("=", 1)[1])
        assert fid > 0.98
        for name in ("dataset.csv", "chi_real.csv", "chi_imag.csv",
                     "chi_eigenvalues.csv", "residuals.csv"):
            assert (out / name).exists()

    # both fits have a rank-deficient optimum that the data determine (the
    # tomography item of ROADMAP.md), so any solver that certifies its gap
    # must write these digits; the second argv is the benchmark's defect chip
    @pytest.mark.parametrize("argv, fidelity, cost", [
        (["qpt"], "0.941632", "1.911469e-01"),
        (["qpt", "--simulate", "--starts", "1", "--r5", "0.45", "--theta1", "0.2",
          "--phase-bias", "0.05", "--x", "0.978", "--seed", "3"],
         "0.964793", "2.630324e-02"),
    ], ids=["bundled", "defect_chip"])
    def test_qpt_unique_optimum(self, tmp_path, argv, fidelity, cost):
        out = tmp_path / "qpt"
        assert run(argv + ["--out", str(out)]) == 0
        lines = (out / "summary.txt").read_text().splitlines()
        assert f"fidelity_vs_ideal_cnot = {fidelity}" in lines
        assert f"final_cost = {cost}" in lines
        assert "converged = True" in lines
        assert "newton_steps = 13" in lines

    def test_qpt_writes_residuals(self, tmp_path):
        out = tmp_path / "qpt"
        assert run(["qpt", "--out", str(out)]) == 0
        lines = [l for l in (out / "residuals.csv").read_text().splitlines()
                 if not l.startswith("#")]
        assert lines[0] == "config,r1,r2,r3,r4"
        rows = [line.split(",") for line in lines[1:]]
        dataset = tomography.load_reference_counts()
        assert [row[0] for row in rows] == dataset.labels()
        result = tomography.mle_reconstruct(dataset)
        assert [[float(v) for v in row[1:]] for row in rows] == \
            [[float(f"{v:.12g}") for v in four] for four in result.residuals]

    def test_vqe_exact(self, tmp_path):
        out = tmp_path / "vqe"
        assert run(["vqe", "--exact", "--seed", "6", "--out", str(out)]) == 0
        summary = (out / "vqe_summary.csv").read_text().splitlines()
        row = summary[-1].split(",")
        assert abs(float(row[1]) - float(row[2])) <= 1e-3
        assert (out / "trace_0p4A.csv").exists()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 9\nx_points = 21\n")
        out = tmp_path / "hom_cfg"
        assert run(["hom", "--config", str(cfg), "--x-points", "5",
                    "--out", str(out)]) == 0
        lines = (out / "hom_curve.csv").read_text().splitlines()
        assert len([l for l in lines if not l.startswith("#")]) == 6
        assert "# seed: 9" in lines[2] or any("seed: 9" in l for l in lines)


    def test_config_boolean_matches_flag(self, tmp_path):
        cfg = tmp_path / "exact.cfg"
        cfg.write_text("exact = Yes\n")
        assert run(["vqe", "--config", str(cfg), "--out",
                    str(tmp_path / "cfg")]) == 0
        assert run(["vqe", "--exact", "--out", str(tmp_path / "flag")]) == 0
        assert read_tree(tmp_path / "cfg") == read_tree(tmp_path / "flag")

class TestDeterminism:
    COMMANDS = [
        ["characterize", "--seed", "11", "--ratio-sigma", "0.01"],
        ["calibrate", "--seed", "11"],
        ["hom", "--x-points", "13"],
        ["gates", "--samples", "20", "--seed", "11"],
        ["qpt", "--simulate", "--shots", "150", "--seed", "11", "--starts", "1"],
        ["vqe", "--shots", "300", "--optimizer", "spsa", "--seed", "11"],
    ]

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: a[0])
    def test_rerun_is_byte_identical(self, tmp_path, argv):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run(argv + ["--out", str(out_a)]) == 0
        assert run(argv + ["--out", str(out_b)]) == 0
        tree_a = read_tree(out_a)
        tree_b = read_tree(out_b)
        assert tree_a.keys() == tree_b.keys()
        for name in tree_a:
            assert tree_a[name] == tree_b[name], name

    @staticmethod
    def trees_with_ignored_flag(tmp_path, argv, flag, values):
        """Output trees of `argv` without `flag`, then with each value."""
        trees = []
        for extra in ([], *([flag, v] for v in values)):
            out = tmp_path / str(len(trees))
            assert run(argv + extra + ["--out", str(out)]) == 0
            trees.append(read_tree(out))
        return trees

    # --starts and --optimizer parse but are not settings: they change
    # neither the outputs nor the settings hash in their headers
    def test_starts_is_ignored(self, tmp_path):
        trees = self.trees_with_ignored_flag(
            tmp_path, ["qpt", "--simulate", "--seed", "3"], "--starts",
            ("1", "4"))
        assert trees[0] == trees[1] == trees[2]

    def test_optimizer_is_ignored(self, tmp_path):
        trees = self.trees_with_ignored_flag(
            tmp_path, ["vqe", "--shots", "200", "--seed", "7"], "--optimizer",
            ("spsa", "nelder-mead"))
        assert trees[0] == trees[1] == trees[2]

    def test_config_sweep_matches_flag(self, tmp_path):
        import numpy as np
        from dualrail import calibration as cal
        sweep = cal.simulate_sweep(0.5, 0.4, 0.2, 0.0437,
                                   np.arange(0.0, 20.0, 0.15))
        path = tmp_path / "sweep.csv"
        path.write_text("".join(f"{c!r},{p!r}\n" for c, p in
                                zip(sweep.currents.tolist(),
                                    sweep.powers.tolist())))
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(f"sweep = {path}\n")
        assert run(["calibrate", "--config", str(cfg),
                    "--out", str(tmp_path / "cfg")]) == 0
        assert run(["calibrate", "--sweep", str(path),
                    "--out", str(tmp_path / "flag")]) == 0
        assert read_tree(tmp_path / "cfg") == read_tree(tmp_path / "flag")
        assert "external" in (tmp_path / "cfg" / "calibration_fits.csv").read_text()

    @staticmethod
    def sweep_stamp(tmp_path, name, alpha):
        """The `# config_hash` line of `calibrate --sweep` on a sweep of
        fringe constant `alpha` written to the file `name`."""
        import numpy as np
        from dualrail import calibration as cal
        sweep = cal.simulate_sweep(0.5, 0.4, 0.2, alpha,
                                   np.arange(0.0, 20.0, 0.15))
        path, out = tmp_path / name, tmp_path / f"out_{name}_{alpha}"
        path.write_text("".join(f"{c!r},{p!r}\n" for c, p in
                                zip(sweep.currents.tolist(),
                                    sweep.powers.tolist())))
        assert run(["calibrate", "--sweep", str(path), "--out", str(out)]) == 0
        return (out / "calibration_fits.csv").read_text().splitlines()[1]

    # the stamp covers an input file's contents, not its path
    def test_stamp_follows_input_contents(self, tmp_path):
        first = self.sweep_stamp(tmp_path, "sweep.csv", 0.0437)
        rewritten = self.sweep_stamp(tmp_path, "sweep.csv", 0.05)
        moved = self.sweep_stamp(tmp_path, "moved.csv", 0.0437)
        assert first.startswith("# config_hash: ")
        assert rewritten != first
        assert moved == first

    def test_seed_changes_output(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run(["characterize", "--seed", "1", "--ratio-sigma", "0.02",
             "--out", str(out_a)])
        run(["characterize", "--seed", "2", "--ratio-sigma", "0.02",
             "--out", str(out_b)])
        assert (out_a / "powers_raw.csv").read_bytes() != \
            (out_b / "powers_raw.csv").read_bytes()

    def test_header_carries_hash_and_seed(self, tmp_path):
        out = tmp_path / "h"
        run(["hom", "--seed", "21", "--out", str(out)])
        for path in out.iterdir():
            head = path.read_text().splitlines()[:3]
            assert head[0].startswith("# command:")
            assert head[1].startswith("# config_hash:")
            assert head[2] == "# seed: 21"


class TestExitCodes:
    def test_unknown_flag_is_validation_error(self, capsys):
        assert run(["hom", "--frobnicate"]) == 1

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("frobnicate = 1\n")
        assert run(["hom", "--config", str(cfg), "--out",
                    str(tmp_path / "o")]) == 1

    # a config file may set only the command's own settings: not another
    # command's, and not the ignored --starts and --optimizer
    @pytest.mark.parametrize("command, line", [
        ("hom", "shots = 7"), ("qpt", "starts = 1"), ("vqe", "optimizer = spsa"),
    ])
    def test_config_key_the_command_does_not_read(self, tmp_path, capsys,
                                                   command, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        assert run([command, "--config", str(cfg), "--out",
                    str(tmp_path / "o")]) == 1
        assert repr(line.split(" = ")[0]) in capsys.readouterr().err

    def test_duplicate_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("seed = 1\nseed = 2\n")
        assert run(["hom", "--config", str(cfg), "--out",
                    str(tmp_path / "o")]) == 1
        assert "line 2: 'seed' given again" in capsys.readouterr().err

    # each input file is read in one place, whose error names the flag and
    # the path
    @pytest.mark.parametrize("argv", [
        ["hom", "--config"], ["characterize", "--chip"],
        ["calibrate", "--sweep"], ["qpt", "--ingest"],
        ["vqe", "--hamiltonian"],
    ])
    def test_unreadable_input_names_flag_and_path(self, tmp_path, capsys,
                                                  argv):
        path = tmp_path / "missing.txt"
        assert run(argv + [str(path), "--out", str(tmp_path / "o")]) == 1
        assert f"cannot read {argv[1]} {path}: " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_short_dataset_rejected(self, tmp_path):
        data = tmp_path / "short.csv"
        data.write_text("config,C1,C2,C3,C4,sum\nHHhh,1,2,3,4,10\n")
        assert run(["qpt", "--ingest", str(data),
                    "--out", str(tmp_path / "o")]) == 1

    def test_missing_ingest_file(self, tmp_path):
        assert run(["qpt", "--ingest", str(tmp_path / "nope.csv"),
                    "--out", str(tmp_path / "o")]) == 1

    def test_zero_shots_rejected(self, tmp_path, capsys):
        assert run(["vqe", "--shots", "0", "--out", str(tmp_path / "o")]) == 1
        assert ("shots_per_basis must be a positive integer, got 0"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command, line", [
        ("vqe", "exact = on"), ("hom", "x_points = many"),
        ("calibrate", "units = furlongs"),
    ])
    def test_bad_config_value_rejected(self, tmp_path, capsys, command, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        assert run([command, "--config", str(cfg), "--out",
                    str(tmp_path / "o")]) == 1
        assert repr(line.split(" = ")[0]) in capsys.readouterr().err

    @pytest.mark.parametrize("argv, name", [
        (["calibrate", "--noise", "-1"], "noise_sigma"),
        (["characterize", "--ratio-sigma", "-0.5"], "ratio_sigma"),
        (["qpt", "--simulate", "--ratio-sigma", "-0.5"], "ratio_sigma"),
        (["hom", "--x-points", "0"], "x_points"),
        (["hom", "--x-points", "1"], "x_points"),
    ])
    def test_out_of_range_value_rejected(self, tmp_path, capsys, argv, name):
        assert run(argv + ["--out", str(tmp_path / "o")]) == 1
        assert name in capsys.readouterr().err

    def test_convergence_maps_to_two(self, monkeypatch, tmp_path):
        def boom(settings, inputs):
            raise ConvergenceError("stuck", residual=1.0)
        monkeypatch.setitem(cli._COMMANDS, "hom", boom)
        assert run(["hom", "--out", str(tmp_path / "o")]) == 2


class TestQptSimulationSettings:
    # without --simulate, qpt reads none of the simulation settings: one set
    # away from its default is an error that names the flag, raised before
    # the output directory is made
    @pytest.mark.parametrize("flag, value", [
        ("--chip", "chip.txt"), ("--r5", "0.45"), ("--r9", "0.45"),
        ("--theta1", "0.2"), ("--x", "0.978"), ("--x", "nan"),
        ("--shots", "7"), ("--phase-bias", "0.05"), ("--ratio-sigma", "0.01"),
    ])
    def test_flag_needs_simulate(self, tmp_path, capsys, flag, value):
        if flag == "--chip":
            value = str(tmp_path / value)
            Path(value).write_text(
                optics.save_chip_parameters(optics.ChipParameters.ideal()))
        out = tmp_path / "o"
        assert run(["qpt", flag, value, "--out", str(out)]) == 1
        assert f"{flag} needs --simulate" in capsys.readouterr().err
        assert not out.exists()

    def test_config_key_needs_simulate(self, tmp_path, capsys):
        cfg = tmp_path / "qpt.cfg"
        cfg.write_text("r5 = 0.45\n")
        out = tmp_path / "o"
        assert run(["qpt", "--config", str(cfg), "--out", str(out)]) == 1
        assert "--r5 needs --simulate" in capsys.readouterr().err
        assert not out.exists()

    # a flag at its declared default sets nothing: same settings, same bytes
    def test_defaults_given_explicitly_are_plain_qpt(self, tmp_path):
        assert run(["qpt", "--out", str(tmp_path / "plain")]) == 0
        assert run(["qpt", "--shots", "2000", "--x", "1.0", "--phase-bias", "0",
                    "--out", str(tmp_path / "explicit")]) == 0
        assert read_tree(tmp_path / "plain") == read_tree(tmp_path / "explicit")

    def test_ingest_with_simulate_rejected(self, tmp_path, capsys):
        data = tmp_path / "counts.csv"
        data.write_text(tomography.dataset_to_csv(
            tomography.load_reference_counts()))
        out = tmp_path / "o"
        assert run(["qpt", "--simulate", "--ingest", str(data),
                    "--out", str(out)]) == 1
        assert "--ingest and --simulate" in capsys.readouterr().err
        assert not out.exists()

    # a non-finite phase fails with a message that names it, not downstream
    @pytest.mark.parametrize("flag, value, message", [
        ("--phase-bias", "nan", "tunable phases must be finite"),
        ("--theta1", "inf", "theta1=inf is not finite"),
    ])
    def test_non_finite_phase_rejected(self, tmp_path, capsys, flag, value,
                                       message):
        out = tmp_path / "o"
        assert run(["qpt", "--simulate", flag, value, "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_chip_file_phase_rejected(self, tmp_path, capsys):
        chip = tmp_path / "chip.txt"
        chip.write_text(optics.save_chip_parameters(
            optics.ChipParameters.ideal()).replace("theta2 = 0.0", "theta2 = nan"))
        assert run(["characterize", "--chip", str(chip),
                    "--out", str(tmp_path / "o")]) == 1
        assert "theta2=nan is not finite" in capsys.readouterr().err


class TestPackageExports:
    def test_all_names_resolve(self):
        import dualrail
        missing = [n for n in dualrail.__all__ if not hasattr(dualrail, n)]
        assert missing == []

    def test_every_public_import_is_exported(self):
        import dualrail
        tree = ast.parse((SRC / "dualrail" / "__init__.py").read_text())
        imported = {alias.asname or alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) for alias in node.names}
        public = {n for n in imported if not n.startswith("_")}
        assert sorted(public - set(dualrail.__all__)) == []

    # a traced benchmark run wraps each (module, attribute) of TRACED by
    # name; the file is executed without writing bytecode next to it
    def test_traced_names_resolve(self, monkeypatch):
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        path = SRC.parent / "benchmarks" / "tracing.py"
        spec = importlib.util.spec_from_file_location("_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, tracing)   # dataclasses
        spec.loader.exec_module(tracing)
        assert tracing.TRACED
        for module, attr in tracing.TRACED:
            fn = getattr(importlib.import_module(f"dualrail.{module}"), attr,
                         None)
            assert callable(fn), f"{module}.{attr}"


class TestImportsLoadNoScipy:
    # no code in the package imports scipy: it is a test-only dependency,
    # used as an oracle, and loading it would double a command's memory
    CODE = {
        "import_dualrail": "import dualrail",
        "import_cli": "import dualrail.cli",
        "bundled_data": (
            "from dualrail import calibration, tomography, vqe\n"
            "tomography.load_reference_counts()\n"
            "vqe.reference_hamiltonian()\n"
            "calibration.CrossTalkModel.reference()"
        ),
    }
    COMMANDS = [
        ["characterize", "--seed", "7"],
        ["calibrate", "--seed", "7"],
        ["gates", "--samples", "20"],
        ["hom", "--x-points", "11"],
        ["vqe", "--shots", "200", "--optimizer", "spsa"],
        ["qpt", "--simulate", "--shots", "150", "--starts", "1"],
        # both modes run one optimizer whatever --optimizer says
        pytest.param(["vqe", "--shots", "200", "--seed", "7"], id="vqe_shots"),
        pytest.param(["vqe", "--exact"], id="vqe_exact"),
    ]

    @staticmethod
    def scipy_modules_after(code, cwd):
        """scipy modules loaded by `code` in a fresh interpreter."""
        probe = (code + "\nimport sys\nprint(sorted(m for m in sys.modules"
                 " if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", probe], cwd=cwd,
                              env=dict(os.environ, PYTHONPATH=str(SRC)),
                              capture_output=True, text=True, check=True,
                              timeout=120)
        return ast.literal_eval(proc.stdout.splitlines()[-1])

    @pytest.mark.parametrize("name", sorted(CODE))
    def test_import(self, tmp_path, name):
        assert self.scipy_modules_after(self.CODE[name], tmp_path) == []

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: a[0])
    def test_command(self, tmp_path, argv):
        code = ("from dualrail import cli\n"
                f"assert cli.main({argv + ['--out', 'out']!r}) == 0")
        assert self.scipy_modules_after(code, tmp_path) == []


class TestSyntaxFloor:
    # pyproject.toml declares the oldest Python the code must run on; parse
    # every source file with that version's grammar. This checks syntax
    # only, not whether each stdlib API used exists in that version.
    ROOT = SRC.parent

    def floor(self):
        text = (self.ROOT / "pyproject.toml").read_text()
        major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)"',
                                 text).groups()
        return int(major), int(minor)

    @pytest.mark.parametrize("folder", ["src", "tests", "benchmarks"])
    def test_sources_parse_at_floor(self, folder):
        paths = sorted((self.ROOT / folder).rglob("*.py"))
        assert paths
        for path in paths:
            ast.parse(path.read_text(), filename=str(path),
                      feature_version=self.floor())

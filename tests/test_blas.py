import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import dualrail
from dualrail import _blas


@pytest.fixture
def libraries():
    """Every loaded OpenBLAS, set to 2 threads for the test and reset after."""
    libs = _blas._libraries()
    if not libs:
        pytest.skip("no OpenBLAS loaded in this process")
    before = [get_threads() for get_threads, _ in libs]
    for _, set_threads in libs:
        set_threads(2)
    yield libs
    for (_, set_threads), n in zip(libs, before):
        set_threads(n)


def thread_counts(libs):
    return [get_threads() for get_threads, _ in libs]


class TestSingleThread:
    def test_one_thread_inside_and_restored_after(self, libraries):
        with _blas.single_thread():
            assert thread_counts(libraries) == [1] * len(libraries)
        assert thread_counts(libraries) == [2] * len(libraries)

    def test_restored_after_exception(self, libraries):
        with pytest.raises(RuntimeError):
            with _blas.single_thread():
                raise RuntimeError("inside the fit")
        assert thread_counts(libraries) == [2] * len(libraries)

    def test_nested_blocks_restore_on_outer_exit(self, libraries):
        with _blas.single_thread():
            with _blas.single_thread():
                pass
            assert thread_counts(libraries) == [1] * len(libraries)
        assert thread_counts(libraries) == [2] * len(libraries)

    def test_concurrent_blocks_share_one_limit(self, libraries):
        # a lost update of the shared depth would leave a block on more than
        # one thread, or the process on one thread after all blocks exit
        seen = []

        def worker():
            for _ in range(200):
                with _blas.single_thread():
                    seen.append(max(thread_counts(libraries)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(seen) == 8 * 200 and set(seen) == {1}
        assert thread_counts(libraries) == [2] * len(libraries)

    def test_no_op_without_openblas(self, monkeypatch):
        monkeypatch.setattr(_blas, "_libraries", lambda: ())
        with _blas.single_thread():
            pass


def child_env():
    """This environment with the package's source directory on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(dualrail.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_fit_limits_every_loaded_openblas():
    # `_libraries()` lists the OpenBLAS builds once per process, at the first
    # `single_thread()` block; after a fit, every OpenBLAS loaded in the
    # process must be one that the fit limited
    if not Path("/proc/self/maps").is_file():
        pytest.skip("no /proc/self/maps on this system")
    code = (
        "from dualrail import _blas, tomography\n"
        "tomography.mle_reconstruct(tomography.load_reference_counts())\n"
        "with open('/proc/self/maps') as fh:\n"
        "    paths = {line.split()[-1] for line in fh\n"
        "             if 'openblas' in line.lower() and '/' in line}\n"
        "print(len(paths), len(_blas._libraries()))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(), check=True,
                          capture_output=True, text=True, timeout=300)
    n_paths, n_limited = map(int, proc.stdout.split())
    assert n_paths >= 1
    assert n_limited == n_paths


def outputs_at_thread_counts(tmp_path, argv):
    """The --out files of `dualrail argv`, run in a subprocess that starts
    at OPENBLAS_NUM_THREADS=1 and at =2."""
    env = child_env()
    code = "import sys; from dualrail import cli; sys.exit(cli.main(sys.argv[1:]))"
    outs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env["OPENBLAS_NUM_THREADS"] = threads
        subprocess.run([sys.executable, "-c", code, *argv, "--out", str(out)],
                       env=env, check=True, timeout=300)
        outs[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    return outs


def test_qpt_outputs_independent_of_thread_count(tmp_path):
    # every --out file must be byte-identical whatever thread count the
    # process starts with
    outs = outputs_at_thread_counts(
        tmp_path, ["qpt", "--simulate", "--starts", "1", "--seed", "3"])
    assert outs["1"]
    assert outs["1"] == outs["2"]


def test_characterize_outputs_independent_of_thread_count(tmp_path):
    # matrix balancing solves its Newton steps with LAPACK
    outs = outputs_at_thread_counts(
        tmp_path, ["characterize", "--seed", "7", "--ratio-sigma", "0.02"])
    assert "moduli_recovered.csv" in outs["1"]
    assert outs["1"] == outs["2"]


def test_gates_outputs_independent_of_thread_count(tmp_path):
    # the histogram builds its gates as stacked 2x2 matrix products
    outs = outputs_at_thread_counts(
        tmp_path, ["gates", "--samples", "200", "--ratio-dev", "0.02", "--seed", "3"])
    assert "gate_summary.csv" in outs["1"]
    assert outs["1"] == outs["2"]


def test_calibrate_outputs_independent_of_thread_count(tmp_path):
    # the sweep fit solves a least-squares problem with LAPACK per alpha
    outs = outputs_at_thread_counts(tmp_path, ["calibrate", "--seed", "7"])
    assert "calibration_fits.csv" in outs["1"]
    assert outs["1"] == outs["2"]

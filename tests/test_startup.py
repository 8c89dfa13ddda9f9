"""Fresh-interpreter checks of what a command imports.

A simulated mode loads lfilter's compiled extension alone, on the first mode:
scipy itself, scipy.signal and scipy.stats never load.  Commands that simulate
nothing never touch scipy; deco-scan and every --help load neither
numpy.random nor numpy.fft.  A cold run must write the same bytes at every
--workers count, with or without the writer process simulate forks from two
workers on.  Importing the package loads no numpy, so a command can ask
OpenBLAS for one thread before numpy loads.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
# cli.main on the remaining arguments, then its exit code, whether scipy got loaded and
# whether scipy.signal or scipy.stats did
PROBE = ("import sys; from thermodeco.cli import main; rc = main(sys.argv[1:]); "
         "print(rc, 'scipy' in sys.modules, "
         "any(m in sys.modules for m in ('scipy.signal', 'scipy.stats')))")


def start(argv: list[str], probe: str = PROBE, **env) -> subprocess.Popen:
    """Run probe on argv in a fresh interpreter; an env value of None unsets the variable."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, **env}
    return subprocess.Popen([sys.executable, "-c", probe, *argv], text=True,
                            env={k: v for k, v in env.items() if v is not None},
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def result(proc: subprocess.Popen) -> str:
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    return out.splitlines()[-1]


@pytest.mark.parametrize("argv", [
    ["deco-scan", "--k", "0,1,2"],
    ["field-sample", "--lattice-n", "8", "--n-fields", "50"],
    ["simulate", "--help"],
])
def test_command_never_loads_scipy(tmp_path, argv):
    assert result(start(argv + ["--out", str(tmp_path / "o")])) == "0 False False"


@pytest.mark.parametrize("argv", [
    ["simulate", "--k", "0,1", "--t-end", "5"],
    ["fdr-verify", "--k", "1", "--dt", "0.01", "--t-end", "400", "--seed", "2"],
])
def test_simulation_never_loads_scipy_signal(tmp_path, argv):
    assert result(start(argv + ["--out", str(tmp_path / "o")])) == "0 False False"


def test_cold_first_simulation_is_identical_across_worker_counts(tmp_path):
    # at --workers 2 and 8 a forked writer process writes half of the tables
    workers = ("1", "2", "8")
    for fmt in ("csv", "json"):
        argv = ["simulate", "--k", "1,2", "--n-traj", "4", "--format", fmt]
        outs = {w: tmp_path / fmt / w for w in workers}
        procs = {w: start(argv + ["--workers", w, "--out", str(outs[w])]) for w in workers}
        assert [result(p) for p in procs.values()] == ["0 False False"] * len(workers)
        files = sorted(p.name for p in outs["1"].iterdir())
        assert len(files) == 9
        for name in files:
            for w in workers[1:]:
                assert (outs[w] / name).read_bytes() == (outs["1"] / name).read_bytes()


# every name the package exports, each loaded from its submodule on first use
EXPORTED = {
    "DECO_DTYPE", "DecoherenceResult", "DimensionMismatchError", "EnsembleStats",
    "GridMismatchError", "HistoryPair", "InsufficientDataError", "LatticeField",
    "METHOD_EULER", "METHOD_EXACT", "MediumParams",
    "NoiseStream", "NonHermitianError", "SAMPLE_EQUILIBRIUM", "SimConfig", "SingularModeError",
    "antisymmetry_residual", "coupling_constant", "decoherence_exponent",
    "decoherence_scan", "deterministic_decay", "dissipation_kernel_apply", "drift_residual",
    "equilibrium_mode_variance", "free_energy_change", "free_energy_hessian", "from_modes",
    "influence_action", "mean_free_energy", "noise_kernel_amplitude", "noise_strength",
    "parseval_check", "relaxation_rate", "sample_equilibrium_field", "sample_variance",
    "simulate_mode", "static_free_energy_identity", "step_euler_maruyama", "step_exact_ou",
    "to_modes", "total_energy_change", "total_energy_fluctuation", "variance_stderr_correlated",
}
# whether numpy and OPENBLAS_NUM_THREADS are there after `import thermodeco`; then,
# after `from thermodeco import` the remaining arguments, whether numpy is, and the names
# missing from dir()
LAZY = ("import os, sys, thermodeco; "
        "print('numpy' in sys.modules, os.environ.get('OPENBLAS_NUM_THREADS')); "
        "exec('from thermodeco import ' + ', '.join(sys.argv[1:])); "
        "print('numpy' in sys.modules, sorted(set(sys.argv[1:]) - set(dir(thermodeco))))")


def test_importing_the_package_loads_no_numpy_and_exports_every_name():
    proc = start(sorted(EXPORTED), LAZY, OPENBLAS_NUM_THREADS=None)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    assert out.splitlines() == ["False None", "True []"]
    import thermodeco

    assert set(thermodeco.__all__) == EXPORTED
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        thermodeco.nonexistent


# cli.main on the remaining arguments; then its exit code, OPENBLAS_NUM_THREADS and the
# number of the process's threads
THREADS = ("import os, sys; from thermodeco.cli import main; rc = main(sys.argv[1:]); "
           "print(rc, os.environ.get('OPENBLAS_NUM_THREADS'), len(os.listdir('/proc/self/task')))")


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc")
@pytest.mark.parametrize("setting, expected", [
    (None, "1 1"),  # the command asks for one thread
    ("2", "2 2"),  # a value the user set is kept
])
def test_a_command_starts_no_blas_thread_pool(tmp_path, setting, expected):
    argv = ["field-sample", "--lattice-n", "8", "--n-fields", "50", "--out", str(tmp_path / "o")]
    assert result(start(argv, THREADS, OPENBLAS_NUM_THREADS=setting)) == "0 " + expected


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc")
def test_a_two_chunk_history_leaves_one_thread(tmp_path):
    # 600001 samples, two chunks: one mode draws the second one's noise on a worker thread,
    # two modes run as a pair, the second on a worker thread; either is joined before the
    # command returns
    for ks in ("1", "1,2"):
        argv = ["fdr-verify", "--k", ks, "--t-end", "6000", "--out", str(tmp_path / ks)]
        assert result(start(argv, THREADS, OPENBLAS_NUM_THREADS=None)) == "0 1 1", ks


def test_a_process_that_loaded_numpy_first_is_left_alone():
    probe = ("import os, numpy, thermodeco.cli; "
             "print(os.environ.get('OPENBLAS_NUM_THREADS'))")
    assert result(start([], probe, OPENBLAS_NUM_THREADS=None)) == "None"


# cli.main on the remaining arguments; then its exit code and which of numpy.random,
# numpy.fft and scipy got loaded
LOADED = ("import sys; from thermodeco.cli import main; rc = main(sys.argv[1:]); "
          "print(rc, *(m for m in ('numpy.random', 'numpy.fft', 'scipy') if m in sys.modules))")


@pytest.mark.parametrize("argv, expected", [
    (["field-sample", "--help"], "0"),
    (["deco-scan", "--help"], "0"),
    # a scan draws nothing and transforms nothing
    (["deco-scan", "--k-min", "0", "--dk", "0.5", "--k-count", "20"], "0"),
    (["deco-scan", "--k", "2,0,1", "--format", "json"], "0"),
    # field-sample draws its fields and transforms them
    (["field-sample", "--lattice-n", "8", "--n-fields", "50"], "0 numpy.random numpy.fft"),
    (["simulate", "--help"], "0"),
    (["fdr-verify", "--help"], "0"),
])
def test_command_loads_only_the_numpy_modules_it_uses(tmp_path, argv, expected):
    assert result(start(argv + ["--out", str(tmp_path / "o")], LOADED)) == expected

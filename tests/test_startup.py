"""Fresh-interpreter checks of what a command imports.

scipy is loaded on the first simulated mode, and then only lfilter's compiled
extension: scipy.signal and scipy.stats never load.  Commands that simulate
nothing never load scipy at all.  A cold run must write the same bytes at
every --workers count.
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


def start(argv: list[str]) -> subprocess.Popen:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.Popen([sys.executable, "-c", PROBE, *argv], text=True,
                            env=dict(os.environ, PYTHONPATH=path),
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
    assert result(start(argv + ["--out", str(tmp_path / "o")])) == "0 True False"


def test_cold_first_simulation_is_identical_across_worker_counts(tmp_path):
    argv = ["simulate", "--k", "1,2", "--n-traj", "4"]
    workers = ("1", "2", "8")
    procs = {w: start(argv + ["--workers", w, "--out", str(tmp_path / w)]) for w in workers}
    assert [result(p) for p in procs.values()] == ["0 True False"] * len(workers)
    files = sorted(p.name for p in (tmp_path / "1").iterdir())
    assert len(files) == 9
    for name in files:
        for w in workers[1:]:
            assert (tmp_path / w / name).read_bytes() == (tmp_path / "1" / name).read_bytes()

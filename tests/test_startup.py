"""Fresh-interpreter checks of what a command imports.

scipy (for lfilter) is loaded on the first simulated mode, so commands that
simulate nothing never pay for it.  The first load may come from two pool
threads at once; a cold run on two workers must still write the bytes of a
cold run on one.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
# cli.main on the remaining arguments, then its exit code and whether scipy got loaded
PROBE = ("import sys; from thermodeco.cli import main; rc = main(sys.argv[1:]); "
         "print(rc, 'scipy' in sys.modules)")


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
    assert result(start(argv + ["--out", str(tmp_path / "o")])) == "0 False"


def test_cold_first_simulation_on_two_workers(tmp_path):
    argv = ["simulate", "--k", "1,2", "--n-traj", "4"]
    procs = {w: start(argv + ["--workers", w, "--out", str(tmp_path / w)]) for w in ("1", "2")}
    assert [result(p) for p in procs.values()] == ["0 True", "0 True"]
    files = sorted(p.name for p in (tmp_path / "1").iterdir())
    assert len(files) == 9
    for name in files:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()

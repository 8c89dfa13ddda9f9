"""The traced benchmark harness, perfbench/traced.py, on every subcommand.

The harness wraps library functions by name and reads their arguments and
results, so a changed signature breaks it.  A traced run must exit as the
plain run does, write the same files, and record a span at the entry point
of the layer the subcommand exercises.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACED = ROOT / "perfbench" / "traced.py"


def run(args: list[str]) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)


# the entry point of the layer each subcommand exercises; fdr-verify's estimator is a
# method the harness does not wrap, and simulate's chunked simulation a generator it does
# not wrap, so their entries are the writers
ENTRY = {
    "simulate": "cli.write_csv",
    "fdr-verify": "cli.write_json",
    "deco-scan": "influence.decoherence_scan",
    "field-sample": "fieldspace.sample_equilibrium_field",
}


@pytest.mark.parametrize("argv", [
    ["simulate", "--k", "1,2", "--t-end", "5", "--n-traj", "2", "--workers", "2"],
    ["fdr-verify", "--k", "1", "--dt", "0.01", "--t-end", "400"],
    ["deco-scan", "--k", "0,1,2"],
    ["field-sample", "--lattice-n", "8", "--n-fields", "50"],
], ids=lambda argv: argv[0])
def test_traced_run_matches_plain_run(tmp_path, argv):
    plain = run(["-m", "thermodeco.cli", *argv, "--out", str(tmp_path / "plain")])
    spans = tmp_path / "spans.json"
    traced = run([str(TRACED), str(spans), "r1", "--", *argv, "--out", str(tmp_path / "traced")])
    assert traced.returncode == plain.returncode, traced.stderr
    assert ENTRY[argv[0]] in {span[1] for span in json.loads(spans.read_text())["spans"]}
    files = sorted(p.name for p in (tmp_path / "plain").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "traced").iterdir())
    for name in files:
        assert (tmp_path / "traced" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()

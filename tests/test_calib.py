"""The calibration script runs: every case it names is a config fdr-verify accepts."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_gates_script_runs_every_case():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "calib" / "gates.py"), "--seeds", "2"],
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout.splitlines()[-1])
    assert results
    for name, result in results.items():
        # a case naming a removed flag or key, or a config the command rejects, exits 2
        assert set(result["exit_codes"]) <= {"0", "1"}, (name, result["exit_codes"])
        assert sum(result["exit_codes"].values()) == 2, name

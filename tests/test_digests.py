"""Pinned digests of whole command runs.

Each run in RUNS goes through cli.main in process.  Its exit code and the SHA-256 of its
stdout, of its stderr and of every file it writes under --out must equal the ones pinned in
digests.json; a run listed at several --workers counts must give them at each, and a run
listed in CHUNKS streams its histories in chunks of that many samples.  The free-disk
message is pinned up to its free byte count, which depends on the machine.  The digests
hold for the numpy and scipy versions pinned beside them.

A change that moves output bytes on purpose pins them again by running this file:

    PYTHONPATH=src python tests/test_digests.py
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from importlib.metadata import version
from pathlib import Path
from unittest.mock import patch

import pytest

from thermodeco import langevin
from thermodeco.cli import main

DIGESTS = Path(__file__).with_name("digests.json")
LIBRARIES = ("numpy", "scipy")
# the argparse help is wrapped at the terminal's width
COLUMNS = "80"

GOLDEN = ["--k", "0.5,1,2,3,4", "--dt", "0.01"]
TABLES = ["simulate", "--k", "0,1,2", "--n-traj", "3", "--t-end", "20", "--seed", "7"]
FIELDS = ["field-sample", "--lattice-n", "8", "--n-fields", "200", "--seed", "4"]

# name: argv, the --workers counts it runs at (None: the default) and a config file's text
RUNS = {
    "simulate-csv": (TABLES, ("1", "2", "8"), None),
    "simulate-json": (TABLES + ["--format", "json"], ("1", "2", "8"), None),
    "simulate-one-table": (["simulate", "--k", "1.5", "--dt", "0.02", "--t-end", "50",
                            "--method", "euler-maruyama", "--burn-in", "2.5", "--initial", "0.3",
                            "--noise-scale", "0.5", "--T0", "2.5", "--c0", "1.5", "--D0", "0.5",
                            "--seed", "9"], (None,), None),
    "simulate-grid": (["simulate", "--k-min", "0.5", "--dk", "0.25", "--k-count", "3",
                       "--t-end", "10", "--format", "json"], (None,), None),
    "simulate-free-disk": (["simulate", "--k", "1", "--t-end", "5",
                            "--n-traj", "1099511627776"], (None,), None),
    "simulate-help": (["simulate", "--help"], (None,), None),
    "fdr-verify-golden": (["fdr-verify", *GOLDEN, "--t-end", "500", "--seed", "0"], (None,), None),
    # 1200001 samples a mode, three chunks: paired on two threads, and in turn
    "fdr-verify-long": (["fdr-verify", "--k", "1,2", "--t-end", "12000"], ("1", "2"), None),
    # a pair, a conserved mode between them, and a last mode alone
    "fdr-verify-odd-pairs": (["fdr-verify", "--k", "1,0,2,3", "--t-end", "400", "--seed", "3"],
                             ("1", "2"), None),
    "fdr-verify-noise-scale": (["fdr-verify", "--k", "1", "--t-end", "400", "--seed", "2",
                                "--noise-scale", "2"], (None,), None),
    "fdr-verify-n-traj": (["fdr-verify", "--k", "1", "--t-end", "200", "--n-traj", "8"],
                          (None,), None),
    "fdr-verify-help": (["fdr-verify", "--help"], (None,), None),
    "deco-scan-csv": (["deco-scan", "--k", "0,0.5,1,2,4", "--amplitude", "0.1",
                       "--duration", "10"], (None,), None),
    "deco-scan-json": (["deco-scan", "--k-min", "0", "--dk", "0.25", "--k-count", "20",
                        "--scan-steps", "50", "--c0", "1.5", "--D0", "0.5", "--format", "json"],
                       (None,), None),
    "deco-scan-config": (["deco-scan"], (None,), "k_min=0\ndk=0.5\nk_count=5\nseed=3\n"),
    "deco-scan-simulation-keys": (["deco-scan", "--k", "1,2", "--dt", "5", "--t-end", "7",
                                   "--n-fields", "3", "--method", "euler-maruyama"],
                                  (None,), None),
    "deco-scan-duplicate": (["deco-scan", "--k", "1,1"], (None,), None),
    "deco-scan-help": (["deco-scan", "--help"], (None,), None),
    "field-sample-d1": (FIELDS + ["--d", "1"], (None,), None),
    "field-sample-d2": (FIELDS + ["--d", "2"], (None,), None),
    "field-sample-d3": (FIELDS + ["--d", "3"], (None,), None),
    "field-sample-noise-scale": (["field-sample", "--lattice-n", "64", "--n-fields", "2000",
                                  "--seed", "4", "--noise-scale", "2"], (None,), None),
    "field-sample-scan-keys": (["field-sample", "--lattice-n", "8", "--n-fields", "50",
                                "--t-end", "3", "--amplitude", "9", "--format", "json"],
                               (None,), None),
    "field-sample-one-field": (["field-sample", "--n-fields", "1"], (None,), None),
    "field-sample-help": (["field-sample", "--help"], (None,), None),
    "unknown-command": (["bogus"], (None,), None),
    "flag-without-value": (["simulate", "--k"], (None,), None),
    # 5001 samples a trajectory at CHUNKS' 1024, five chunks: each table and each estimate
    # streamed across chunk boundaries, alone and beside the writer process
    "simulate-chunks": (["simulate", "--k", "1,2", "--n-traj", "2", "--t-end", "50",
                         "--seed", "11"], ("1", "2"), None),
}
# langevin.CHUNK for a run, where it is not the module's own
CHUNKS = {"simulate-chunks": 1024}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def record(name: str, workers: str | None, tmp: Path) -> dict:
    """The exit code and digests of run name at --workers workers, written under tmp."""
    argv, _, config = RUNS[name]
    out = tmp / "o"
    argv = argv + ["--out", str(out)] + ([] if workers is None else ["--workers", workers])
    if config is not None:
        (tmp / "run.cfg").write_text(config)
        argv += ["--config", str(tmp / "run.cfg")]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            patch.object(langevin, "CHUNK", CHUNKS.get(name, langevin.CHUNK)):
        code = main(argv)
    # the free byte count, and the path after it, depend on the machine
    head, cut, _ = stderr.getvalue().partition(" more than the ")
    files = sorted(out.iterdir()) if out.exists() else []
    return {"exit": code, "stdout": sha256(stdout.getvalue().encode()),
            "stderr": sha256((head + cut).encode()),
            "files": {p.name: sha256(p.read_bytes()) for p in files}}


def versions() -> dict:
    return {lib: version(lib) for lib in LIBRARIES}


@pytest.mark.parametrize("name, workers", [(name, workers) for name, (_, counts, _) in RUNS.items()
                                           for workers in counts])
def test_run_matches_its_pinned_digests(tmp_path, monkeypatch, name, workers):
    pinned = json.loads(DIGESTS.read_text())
    if (found := versions()) != {lib: pinned[lib] for lib in LIBRARIES}:
        pytest.fail("the digests are pinned at " + ", ".join(f"{lib} {pinned[lib]}"
                                                              for lib in LIBRARIES)
                    + "; this is " + ", ".join(f"{lib} {found[lib]}" for lib in LIBRARIES))
    monkeypatch.setenv("COLUMNS", COLUMNS)
    assert record(name, workers, tmp_path) == pinned["runs"][name]


if __name__ == "__main__":
    os.environ["COLUMNS"] = COLUMNS
    runs = {}
    for name, (_, counts, _) in RUNS.items():
        with tempfile.TemporaryDirectory() as tmp:
            runs[name] = record(name, counts[0], Path(tmp))
    DIGESTS.write_text(json.dumps({**versions(), "runs": runs}, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(runs)} runs in {DIGESTS}", file=sys.stderr)

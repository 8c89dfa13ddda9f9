"""Output checks for the benchmark's `thermodeco` invocations.

Each check reads one finished invocation's `--out` directory and exit code
and returns a list of problems; an empty list means the invocation counts
as a success.  A crash, an exit code of 2-4, a missing or unparsable file,
or a value outside a wide physics tolerance is a problem.  Exit code 1 is a
statistical gate verdict, not a problem, for the two gated subcommands
(`fdr-verify`, `field-sample`) when their report is complete and agrees
with its own pass flags.

The tolerances here are deliberately wider than the program's own 3-sigma
gates: they catch broken output, not unlucky seeds.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

# Physics tolerance, in standard errors, for estimates the program reports.
WIDE_SIGMAS = 6.0


def tree_digest(out: Path) -> str:
    """SHA-256 over every file under `out`: relative path and bytes, in sorted order."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out)).encode() + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def _load_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def _within(value: float, expected: float, stderr: float) -> bool:
    return math.isfinite(value) and abs(value - expected) <= WIDE_SIGMAS * stderr


def check_simulate(out: Path, rc: int, params: dict) -> list[str]:
    """Trajectory tables: file count, row count, time grid, finite values; summary variances."""
    if rc != 0:
        return [f"exit code {rc}"]
    tables = {f"mode{m}_traj{i}.csv" for m in range(len(params["k"])) for i in range(params["n_traj"])}
    found = {p.name for p in out.iterdir()}
    if found != tables | {"summary.json"}:
        return [f"output files {sorted(found)}, expected {len(tables)} tables and summary.json"]
    problems = []
    n_rows = int(round(params["t_end"] / params["dt"])) + 1
    t_expected = np.arange(n_rows) * params["dt"]
    for m in range(len(params["k"])):
        for i in range(params["n_traj"]):
            path = out / f"mode{m}_traj{i}.csv"
            text = path.read_text()
            header, sep, body = text.partition("t,delta_T\n")
            if not sep or f"# seed={params['seed']}\n" not in header:
                problems.append(f"{path.name}: missing header")
                continue
            data = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
            if data.shape[0] != n_rows:
                problems.append(f"{path.name}: {data.shape[0]} rows, expected {n_rows}")
            elif not np.array_equal(data[:, 0], t_expected):
                problems.append(f"{path.name}: t column is not n*dt")
            if not np.all(np.isfinite(data[:, 1])):
                problems.append(f"{path.name}: non-finite delta_T")
    modes = _load_json(out / "summary.json")["modes"]
    if len(modes) != len(params["k"]):
        problems.append(f"summary.json: {len(modes)} modes, expected {len(params['k'])}")
    for entry in modes:
        # T0 = c0 = 1 (defaults), so the stationary variance T0^2/c0 is 1
        if not _within(entry["sample_variance"], 1.0, entry["stderr_variance"]):
            problems.append(f"summary.json: k={entry['k']} variance {entry['sample_variance']} "
                            f"outside {WIDE_SIGMAS} sigma of 1")
    return problems


def _gate_verdict(rc: int, all_pass: bool, flags: list[bool]) -> list[str]:
    if rc not in (0, 1):
        return [f"exit code {rc}"]
    problems = []
    if all_pass != all(flags):
        problems.append(f"all_pass={all_pass} disagrees with the per-check flags")
    if (rc == 0) != all_pass:
        problems.append(f"exit code {rc} disagrees with all_pass={all_pass}")
    return problems


def check_fdr(out: Path, rc: int, params: dict) -> list[str]:
    """FDR report: one complete entry per mode, verdict consistent with the exit code."""
    if rc not in (0, 1):
        return [f"exit code {rc}"]
    report = _load_json(out / "fdr_report.json")
    tests = report["tests"]
    if [t["k"] for t in tests] != params["k"]:
        return [f"fdr_report.json: modes {[t['k'] for t in tests]}, expected {params['k']}"]
    flags = []
    problems = []
    for t in tests:
        flags += [t["variance_pass"], t["rate_pass"]]
        if not _within(t["variance"], t["expected_variance"], t["stderr_variance"]):
            problems.append(f"k={t['k']}: variance {t['variance']} outside {WIDE_SIGMAS} sigma")
        fitted, gamma = t["fitted_rate"], t["expected_rate"]
        if fitted is None or not abs(fitted - gamma) <= 0.5 * gamma:
            problems.append(f"k={t['k']}: fitted rate {fitted} not within 50% of {gamma}")
    return _gate_verdict(rc, report["all_pass"], flags) + problems


def check_field(out: Path, rc: int, params: dict) -> list[str]:
    """Field summary: energy variance, Parseval and equipartition, verdict consistent."""
    if rc not in (0, 1):
        return [f"exit code {rc}"]
    s = _load_json(out / "field_summary.json")
    flags = [s["energy_variance_pass"], s["parseval_pass"], s["equipartition_pass"]]
    problems = _gate_verdict(rc, s["all_pass"], flags)
    if not _within(s["energy_variance"], s["expected_energy_variance"], s["energy_variance_stderr"]):
        problems.append(f"energy variance {s['energy_variance']} outside {WIDE_SIGMAS} sigma")
    if not s["parseval_residual"] <= 1e-10:
        problems.append(f"Parseval residual {s['parseval_residual']}")
    n_sites = params["lattice_n"]
    stderr_df = math.sqrt(n_sites / 2.0) / math.sqrt(params["n_fields"])
    if not _within(s["mean_free_energy"], n_sites / 2.0, stderr_df):
        problems.append(f"mean free energy {s['mean_free_energy']} outside {WIDE_SIGMAS} sigma")
    return problems


def check_deco(out: Path, rc: int, params: dict) -> list[str]:
    """Decoherence table: k grid, k = 0 row, closed-form exponents and magnitudes."""
    if rc != 0:
        return [f"exit code {rc}"]
    payload = _load_json(out / "deco_scan.json")
    if payload["columns"] != ["k", "exponent", "magnitude", "conserved_flag"]:
        return [f"deco_scan.json: columns {payload['columns']}"]
    rows = payload["rows"]
    if len(rows) != params["k_count"]:
        return [f"deco_scan.json: {len(rows)} rows, expected {params['k_count']}"]
    problems = []
    if rows[0] != [0.0, "inf", 0.0, True]:
        problems.append(f"deco_scan.json: k = 0 row is {rows[0]}")
    k = np.array([r[0] for r in rows[1:]], dtype=float)
    exponent = np.array([r[1] for r in rows[1:]], dtype=float)
    magnitude = np.array([r[2] for r in rows[1:]], dtype=float)
    i = np.arange(1, params["k_count"])
    if not np.array_equal(k, params["k_min"] + i * params["dk"]):
        problems.append("deco_scan.json: k column is not k_min + i*dk")
    # constant branch difference A over duration T: exponent = 2 c0^2 A^2 T / (D0 k^2), c0 = D0 = 1
    expected = 2.0 * params["amplitude"] ** 2 * params["duration"] / k ** 2
    if not np.all(np.abs(exponent - expected) <= 1e-12 * expected):
        problems.append("deco_scan.json: exponent differs from 2 c0^2 A^2 T / (D0 k^2)")
    decay = np.exp(-exponent)
    if not np.all(np.abs(magnitude - decay) <= 1e-12 * decay):
        problems.append("deco_scan.json: magnitude differs from exp(-exponent)")
    if any(r[3] is not False for r in rows[1:]):
        problems.append("deco_scan.json: conserved_flag set on a k > 0 row")
    return problems

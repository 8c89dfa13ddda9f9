import contextlib
import io
import json
import math
import os
import platform
import signal
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
import warnings
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermodeco import DECO_DTYPE, cli, langevin
from thermodeco.cli import (
    RunConfig,
    _fmt,
    _json_value,
    _write,
    build_parser,
    config_echo,
    main,
    resolve_config,
    sim_config,
    write_table,
)
from thermodeco.fieldspace import (
    mean_free_energy,
    parseval_check,
    sample_equilibrium_field,
    total_energy_fluctuation,
)
from thermodeco.influence import decoherence_scan
from thermodeco.langevin import simulate_mode
from thermodeco.medium import LatticeField, MediumParams

SRC = Path(__file__).resolve().parent.parent / "src"


def read_json(path):
    return json.loads(Path(path).read_text())


def lag1_rate(post: np.ndarray, dt: float) -> float:
    """The lag-1 rate -ln(sum x_n x_{n+1} / sum x_n^2)/dt of one post-burn-in history."""
    return -math.log(np.dot(post[:-1], post[1:]) / np.dot(post, post)) / dt


def read_csv_rows(path):
    rows = []
    header = None
    for line in Path(path).read_text().splitlines():
        if line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
            continue
        rows.append(line.split(","))
    return header, rows


def test_unknown_config_key_exits_2(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("bogus_key=1\n")
    assert main(["simulate", "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 2


def test_missing_config_file_exits_2(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_bad_flag_exits_2(capsys):
    # a bad value, an unknown flag, no subcommand and a flag without its value
    for argv in (["simulate", "--dt", "not-a-number"], ["simulate", "--k", "1", "--bogus", "1"],
                 [], ["simulate", "--k"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err
    assert main(["simulate", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: thermodeco simulate")


def test_main_keeps_a_name_replaced_after_import(tmp_path, monkeypatch):
    # perfbench/traced.py wraps cli's names once it has imported cli: main's load of the
    # numeric layers must not bind them again
    scanned = []

    def scan(params, ks, *args):
        scanned.append(ks.tolist())
        return decoherence_scan(params, ks, *args)

    monkeypatch.setattr(cli, "decoherence_scan", scan)
    assert main(["deco-scan", "--k", "2,1", "--out", str(tmp_path / "o")]) == 0
    assert scanned == [[1.0, 2.0]]
    # a failed import binds no name and marks nothing loaded: the next load tries again
    monkeypatch.setattr(cli, "_loaded", False)
    monkeypatch.setitem(sys.modules, "thermodeco.stats", None)
    with pytest.raises(ImportError):
        cli._load()
    assert cli.decoherence_scan is scan and not cli._loaded


INVALID_RUNS = [
    ["simulate", "--k", "1", "--dt", "0"],
    ["simulate", "--k", "-1"],
    ["simulate", "--k", "inf"],
    ["simulate", "--k", "100", "--method", "euler-maruyama", "--t-end", "1"],
    ["fdr-verify", "--k", "1", "--dt", "0.01", "--t-end", "0.02"],
    ["deco-scan", "--k", "1", "--amplitude", "0"],
    ["deco-scan", "--k", "1", "--duration", "0"],
    ["deco-scan", "--k", "1", "--scan-steps", "0"],
    ["field-sample", "--n-fields", "1"],
    ["field-sample", "--lattice-a", "0"],
    ["field-sample", "--lattice-n", "0"],
    # the lag-1 rate check: e^(-gamma*dt) = 7.6e-12 is no correlation to measure; and
    # 0.077 is 3.5 sd of its estimate over 1996 samples, not 10
    ["fdr-verify", "--k", "16", "--dt", "0.1", "--t-end", "200"],
    ["fdr-verify", "--k", "16", "--dt", "0.01", "--t-end", "20"],
    ["simulate", "--k", "1", "--t-end", "1e300", "--dt", "1e-300"],
    ["simulate", "--k", "1", "--T0", "1e200"],
    ["simulate", "--k", "0", "--T0", "1e200"],
    ["field-sample", "--T0", "1e160"],
    ["field-sample", "--d", "3", "--lattice-n", "2", "--lattice-a", "1e-110"],
    ["field-sample", "--T0", "1e154"],
    ["simulate", "--k", "1", "--t-end", "1e200", "--dt", "1"],
    ["field-sample", "--n-fields", "200000000000000000"],
    ["simulate", "--k", "1", "--t-end", "5", "--dt", "0.01", "--initial", "1e300", "--burn-in", "0"],
    ["deco-scan", "--k", "1e-200"],
    ["deco-scan", "--k", "0,1e-160,1"],
    ["deco-scan", "--k", "1", "--amplitude", "1e160"],
    ["field-sample", "--noise-scale", "-1"],
    ["field-sample", "--T0", "1e150", "--noise-scale", "1e100"],
    ["deco-scan", "--k", "1,2", "--amplitude", "1e-200"],
    ["fdr-verify", "--k", "1", "--t-end", "200", "--n-traj", "8"],
    ["deco-scan", "--k", "1,1e200"],
    ["deco-scan", "--k", "1.1969,1.1969000000000003"],
    ["simulate", "--k", "1", "--t-end", "5", "--seed", "-1"],
    ["field-sample", "--seed", "-1"],
    ["simulate", "--k", "1", "--t-end", "5", "--seed", "18446744073709551616"],
    ["simulate", "--k", "1", "--t-end", "5", "--burn-in", "-1"],
    # the rate gate's tolerance is its 3 sd, worked out from N, gamma and dt: no flag sets it
    ["fdr-verify", "--k", "1", "--t-end", "400", "--rate-tol", "0.1"],
    # 1 sample after burn-in, no pair: alpha = 0.99875 alone would stand 10 sd clear of 0
    ["fdr-verify", "--k", "0.05", "--t-end", "1", "--dt", "0.5", "--burn-in", "1"],
    ["deco-scan", "--k", "1", "--scan-steps", "18446744073709551616"],
    ["fdr-verify", "--k", "1e-160", "--burn-in", "0", "--t-end", "5"],
    ["simulate", "--k-min", "1", "--dk", "1e308", "--k-count", "3"],
    ["deco-scan", "--k-min", "1", "--dk", "1e308", "--k-count", "3"],
    ["simulate", "--k-min", "1", "--dk=-1e308", "--k-count", "3"],
    ["field-sample", "--k-min", "1", "--dk", "1e308", "--k-count", "3", "--n-fields", "10",
     "--lattice-n", "4"],
    ["simulate", "--k", "1", "--t-end", "1", "--workers", str(cli.MAX_WORKERS + 1)],
    ["field-sample", "--n-fields", "1152921504606846976"],
    ["field-sample", "--d", "3", "--lattice-n", "2097152"],
    # gamma*T after burn-in is 0.0101 and 99.01, below MIN_GAMMA_T: the lag-1 rate's ~1/T bias
    # fails correct noise (fitted 0.86-1.04 against gamma = 0.01 at seeds 1-3)
    ["fdr-verify", "--k", "0.1", "--burn-in", "0", "--t-end", "1"],
    ["fdr-verify", "--k", "1", "--burn-in", "0", "--t-end", "99"],
    # c0^2 and D0 k^2 both underflow: N_k is inf, not 0/0 with a numpy warning
    ["deco-scan", "--c0", "1e-300", "--k", "1e-200"],
    ["deco-scan", "--c0", "1e-300", "--k", "1e-200,1"],
    # no numpy warning where N_k * amplitude^2 would be inf * 0 (N_k overflows, found first) or
    # is 0 * inf, nan (c0^2 underflows, amplitude^2 overflows)
    ["deco-scan", "--k", "1e-200", "--amplitude", "1e-200"],
    ["deco-scan", "--c0", "1e-300", "--amplitude", "1e200", "--k", "1"],
    # no damped mode: no gate to run
    ["fdr-verify", "--k", "0"],
    ["fdr-verify", "--k-count", "0"],
]


@pytest.mark.parametrize("argv", INVALID_RUNS)
# a numpy warning would be a second line of stderr
@pytest.mark.filterwarnings("error")
def test_invalid_run_exits_2_with_one_line(tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", INVALID_RUNS)
@pytest.mark.filterwarnings("error")
def test_check_stage_raises_every_config_error(tmp_path, capsys, monkeypatch, argv):
    # each command's run only computes and writes: every invalid config ends in its check
    def run(*args):
        pytest.fail(f"{argv[0]} ran a config its check passed")

    monkeypatch.setattr(cli, "_COMMANDS", {name: (check, run)
                                           for name, (check, _) in cli._COMMANDS.items()})
    test_invalid_run_exits_2_with_one_line(tmp_path, capsys, argv)


# k_min + i * dk over i < k_count, each point checked: the first non-finite one, else the
# smallest negative one, is the ConfigError ScanGrid must raise from its two end points
@settings(max_examples=500, deadline=None)
@given(st.floats(-1e308, 1e308), st.floats(-1e308, 1e308), st.integers(1, 50))
@example(1.0, 1e308, 3)  # the last point overflows to inf
@example(1.0, -1e308, 3)  # to -inf
@example(5.0, -1.0, 8)  # negative from i = 6
@example(-0.0, -0.0, 2)
def test_scan_grid_end_points_check_the_whole_grid(k_min, dk, k_count):
    cfg = RunConfig(k_min=k_min, dk=dk, k_count=k_count)
    with np.errstate(over="ignore"):
        ks = k_min + np.arange(k_count) * dk
    expected = None
    if not (finite := np.isfinite(ks)).all():
        expected = f"wavenumbers must be finite, got {ks[~finite][0]:g}"
    elif ks.min() < 0:
        expected = f"wavenumbers must be non-negative, got {ks.min():g}"
    try:
        grid = cli.ScanGrid(cfg)
    except cli.ConfigError as exc:
        assert str(exc) == expected
    else:
        assert expected is None
        assert np.array(grid.points()).tobytes() == ks.tobytes()


# runs the remaining arguments as a command and prints its peak resident set in MiB from
# wait4.  A child's peak starts at the resident set of the process that forked it, so the
# command is started from this small process, not from the test's
WAIT4_PEAK = ("import os, subprocess, sys; proc = subprocess.Popen(sys.argv[1:]); "
              "_, status, usage = os.wait4(proc.pid, 0); print(usage.ru_maxrss / 1024); "
              "sys.exit(os.waitstatus_to_exitcode(status))")


def cold(argv: list[str], timeout: float = 120, **env) -> subprocess.CompletedProcess:
    """Run python on argv in a session of its own, an env value of None unsetting the
    variable; on timeout, kill the session's every process, the command a WAIT4_PEAK
    launcher started included."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, **env}
    with subprocess.Popen([sys.executable, *argv], env={k: v for k, v in env.items() if v is not None},
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    return subprocess.CompletedProcess(proc.args, proc.returncode, out, err)


# the limits make an allocation that comes before its size check fail fast instead of
# filling the machine's memory, and a run that streams output where it should have been
# refused fail at 64 MiB of one file (exit 3) instead of filling the disk
UNDER_2_GIB = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
               "resource.setrlimit(resource.RLIMIT_FSIZE, (64 << 20, 64 << 20)); "
               "from thermodeco.cli import main; sys.exit(main(sys.argv[1:]))")


@pytest.mark.parametrize("argv", [
    ["simulate", "--k-count", "18446744073709551616"],
    ["simulate", "--k", "1", "--t-end", "5", "--n-traj", "18446744073709551616"],
    # under numpy's array size limit, beyond the memory limit: each fails at its one allocation
    ["simulate", "--k-count", "1099511627776"],
    ["field-sample", "--n-fields", "1099511627776"],
    # a scan's grid is made a block at a time: refused for its rows, at least 12 TB
    ["deco-scan", "--k-count", "1099511627776"],
])
def test_huge_size_exits_2_before_it_allocates(tmp_path, argv):
    out = tmp_path / "o"
    proc = cold(["-c", WAIT4_PEAK, sys.executable, "-c", UNDER_2_GIB, *argv, "--out", str(out)])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("config error: ") and proc.stderr.count("\n") == 1
    assert not out.exists()
    assert float(proc.stdout) < 200


def test_simulate_larger_than_the_free_disk_exits_2(tmp_path):
    # 2^40 trajectories of 501 rows, at least 2.2 PB: unchecked, this wrote ~1000 files a
    # second until stopped
    out = tmp_path / "a" / "o"
    proc = cold(["-m", "thermodeco.cli", "simulate", "--k", "1", "--t-end", "5",
                 "--n-traj", "1099511627776", "--out", str(out)], timeout=30)
    assert proc.returncode == 2
    need = 2 ** 40 * 501 * 4
    assert proc.stderr.startswith(f"config error: the run writes at least {need} bytes")
    assert proc.stderr.count("\n") == 1
    assert not out.parent.exists()


def test_deco_scan_larger_than_the_free_disk_exits_2(tmp_path):
    # 2^40 rows of at least "0,0,0,true\n"; the grid is never held, so only the disk bounds it
    out = tmp_path / "a" / "o"
    proc = cold(["-m", "thermodeco.cli", "deco-scan", "--k-count", "1099511627776",
                 "--out", str(out)], timeout=30)
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"config error: the run writes at least {2 ** 40 * 11} bytes")
    assert proc.stderr.count("\n") == 1
    assert not out.parent.exists()


def _free(nbytes: int, seen: list):
    """shutil.disk_usage reporting nbytes free, recording each path it is asked about."""
    def usage(path):
        seen.append(Path(path))
        return SimpleNamespace(total=10 ** 12, used=0, free=nbytes)
    return usage


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_deco_scan_needs_11_bytes_a_row_free(tmp_path, monkeypatch, fmt):
    # 3 rows, none shorter than "0,0,0,true\n": 33 bytes
    seen = []
    out = tmp_path / "a" / "b"
    argv = ["deco-scan", "--k", "0,1,2", "--format", fmt, "--out", str(out)]
    monkeypatch.setattr(cli.shutil, "disk_usage", _free(32, seen))
    assert main(argv) == 2 and not out.exists()
    monkeypatch.setattr(cli.shutil, "disk_usage", _free(33, seen))
    assert main(argv) == 0
    assert seen == [tmp_path, tmp_path]
    assert (out / f"deco_scan.{fmt}").stat().st_size > 33


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_simulate_needs_4_bytes_a_row_free(tmp_path, monkeypatch, fmt):
    # 2 modes x 3 trajectories x 501 rows, none shorter than "0,0\n": 12024 bytes, checked
    # against the free space of --out's nearest existing ancestor
    seen = []
    out = tmp_path / "a" / "b"
    argv = ["simulate", "--k", "1,2", "--t-end", "5", "--n-traj", "3", "--format", fmt,
            "--out", str(out)]
    monkeypatch.setattr(cli.shutil, "disk_usage", _free(12023, seen))
    assert main(argv) == 2 and not out.exists()
    monkeypatch.setattr(cli.shutil, "disk_usage", _free(12024, seen))
    assert main(argv) == 0
    assert seen == [tmp_path, tmp_path]
    assert sum(p.stat().st_size for p in out.iterdir() if p.name != "summary.json") > 12024


# a non-default value for every config key, as written in a file or on the command line
SETTINGS = {
    "T0": "2.5", "c0": "1.5", "D0": "0.5", "d": "2",
    "k_list": "1.5,2.5", "k_min": "0.5", "dk": "0.25", "k_count": "3",
    "dt": "0.02", "t_end": "50", "method": "euler-maruyama", "burn_in": "2.5",
    "n_traj": "3", "initial": "0.3", "noise_scale": "0.5",
    "amplitude": "0.2", "duration": "5", "scan_steps": "7",
    "lattice_n": "8", "lattice_a": "0.5", "n_fields": "50",
    "seed": "9", "out": "elsewhere", "format": "json", "workers": "1",
}


@pytest.mark.parametrize("key", sorted(SETTINGS))
def test_config_key_and_flag_resolve_alike(tmp_path, key):
    assert set(SETTINGS) == {f.name for f in fields(RunConfig)}
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"{key}={SETTINGS[key]}\n")
    flag = "--k" if key == "k_list" else "--" + key.replace("_", "-")
    parser = build_parser()
    from_file = resolve_config(parser.parse_args(["simulate", "--config", str(cfgfile)]))
    from_flag = resolve_config(parser.parse_args(["simulate", flag, SETTINGS[key]]))
    assert from_file == from_flag != RunConfig()


def test_config_file_with_comments_and_overrides(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        "# comment line\n"
        "T0=2.0\n"
        "c0=4.0  # inline comment\n"
        "dt=0.1\n"
        "t_end=5.0\n"
        "k_list=1.0\n"
    )
    out = tmp_path / "o"
    rc = main(["simulate", "--config", str(cfgfile), "--T0", "3.0", "--out", str(out),
               "--seed", "1"])
    assert rc == 0
    summary = read_json(out / "summary.json")
    assert summary["config"]["T0"] == 3.0  # flag wins over file
    assert summary["config"]["c0"] == 4.0
    assert "version" in summary["config"]


def test_simulate_zero_noise_matches_decay(tmp_path):
    out = tmp_path / "o"
    rc = main(["simulate", "--k", "1", "--dt", "0.1", "--t-end", "2.0",
               "--noise-scale", "0", "--seed", "3", "--out", str(out)])
    assert rc == 0
    header, rows = read_csv_rows(out / "mode0_traj0.csv")
    assert header == ["t", "delta_T"]
    # initial defaults to sample-equilibrium: draw is scaled by sqrt(noise_scale)=0
    vals = np.array([float(r[1]) for r in rows])
    assert np.allclose(vals, 0.0)
    summary = read_json(out / "summary.json")
    assert summary["modes"][0]["deterministic"] is True


def test_simulate_variance_summary(tmp_path):
    out = tmp_path / "o"
    rc = main(["simulate", "--k", "1", "--dt", "0.01", "--t-end", "300", "--seed", "5",
               "--out", str(out)])
    assert rc == 0
    mode = read_json(out / "summary.json")["modes"][0]
    assert abs(mode["sample_variance"] - 1.0) <= 3 * mode["stderr_variance"]
    assert mode["expected_rate"] == 1.0


def test_simulate_rate_fitted_after_burn_in(tmp_path):
    out = tmp_path / "o"
    assert main(["simulate", "--k", "1", "--dt", "0.01", "--t-end", "50", "--initial", "5",
                 "--seed", "3", "--out", str(out)]) == 0
    mode = read_json(out / "summary.json")["modes"][0]
    _, rows = read_csv_rows(out / "mode0_traj0.csv")
    post = np.array([float(r[1]) for r in rows])[mode["burn_in_steps"]:]
    assert mode["fitted_rate"] == pytest.approx(lag1_rate(post, 0.01), rel=1e-12)
    # the default burn-in 10/gamma = 1000 outlasts a run of 50 at k = 0.1
    assert main(["simulate", "--k", "0.1", "--t-end", "50", "--out", str(tmp_path / "short")]) == 0
    assert read_json(tmp_path / "short" / "summary.json")["modes"][0]["fitted_rate"] is None


def test_json_summary_has_no_non_finite_tokens(tmp_path):
    out = tmp_path / "o"
    # the sampled fields overflow although the expected energy variance is finite
    rc = main(["field-sample", "--T0", "1.6e153", "--n-fields", "100", "--out", str(out)])
    assert rc == 1

    def reject(token):
        raise ValueError(f"non-JSON token {token}")

    report = json.loads((out / "field_summary.json").read_text(), parse_constant=reject)
    assert report["energy_variance"] == "inf" and report["energy_variance_z"] == "nan"


def test_gate_fails_on_overflowed_estimate(tmp_path):
    out = tmp_path / "o"
    assert main(["field-sample", "--T0", "1.6e153", "--n-fields", "100", "--out", str(out)]) == 1
    report = read_json(out / "field_summary.json")
    assert report["energy_variance_stderr"] == "inf"
    assert report["energy_variance_pass"] is False


def test_simulate_rerun_byte_identical(tmp_path):
    args = ["simulate", "--k", "1,2", "--dt", "0.05", "--t-end", "5", "--n-traj", "3",
            "--seed", "11"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    for f in sorted(out1.iterdir()):
        assert f.read_bytes() == (out2 / f.name).read_bytes()


# 8 trajectory tables, outputs 0 to 7, then the summary; a writer process writes the odd ones
WRITER_RUN = ["simulate", "--k", "1,2", "--t-end", "5", "--n-traj", "4", "--burn-in", "0",
              "--seed", "5"]


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def count_forks(monkeypatch) -> list:
    """os.fork, recording the names of the threads alive at each call."""
    fork, calls = os.fork, []

    def counted():
        calls.append(sorted(t.name for t in threading.enumerate()))
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


def fail_tables(monkeypatch, faults: dict, only_in: int | None = None):
    """write_table raising faults[stem] for a table of that stem, in the process only_in or
    in any; 0.2 s late in a process forked from this one, so that the writer process fails
    after the parent does."""
    write_table, parent = cli.write_table, os.getpid()

    def failing(outdir, stem, *args):
        if stem in faults and only_in in (None, os.getpid()):
            if os.getpid() != parent:
                time.sleep(0.2)
            raise faults[stem]
        return write_table(outdir, stem, *args)

    monkeypatch.setattr(cli, "write_table", failing)


@pytest.mark.parametrize("faults", [
    {"mode0_traj3": OSError("the writer's table 3")},
    # both fail: the earlier table's error, whichever process meets it first
    {"mode0_traj1": MemoryError("the writer's table 1"), "mode0_traj2": OSError("table 2")},
    {"mode0_traj3": OSError("the writer's table 3"), "mode1_traj0": ValueError("table 4")},
    {"mode0_traj2": ValueError("table 2"), "mode0_traj3": OSError("the writer's table 3")},
])
def test_writer_process_failure_ends_the_run_as_in_turn(tmp_path, capsys, monkeypatch, faults):
    fail_tables(monkeypatch, faults)
    forks = count_forks(monkeypatch)
    ends = {}
    for workers in ("1", "2"):
        rc = main([*WRITER_RUN, "--workers", workers, "--out", str(tmp_path / workers)])
        ends[workers] = rc, capsys.readouterr().err
        no_child_left()
    assert len(forks) == 1
    assert ends["2"] == ends["1"]
    rc, err = ends["1"]
    assert rc in (2, 3, 4) and err.count("\n") == 1 and str(faults[min(faults)]) in err
    assert not (tmp_path / "2" / "summary.json").exists()


@pytest.mark.parametrize("fault", ["i/o", "non-finite", "interrupt"])
def test_a_failure_in_the_parent_kills_the_writer_process(tmp_path, capsys, monkeypatch, fault):
    # the parent fails at its table 2, the writer would sleep in its last table, 7
    parent, write_table = os.getpid(), cli.write_table

    def slow(outdir, stem, *args):
        if stem == "mode1_traj3" and os.getpid() != parent:
            time.sleep(60)
        return write_table(outdir, stem, *args)

    monkeypatch.setattr(cli, "write_table", slow)
    if fault == "non-finite":
        simulate_chunks = langevin.simulate_chunks

        def table_2_non_finite(*args):
            for chunk in simulate_chunks(*args):
                if args[3] == 2:  # the substream of mode 0, trajectory 2
                    chunk[3] = np.inf
                yield chunk

        monkeypatch.setattr(langevin, "simulate_chunks", table_2_non_finite)
    else:
        error = OSError("table 2") if fault == "i/o" else KeyboardInterrupt()
        fail_tables(monkeypatch, {"mode0_traj2": error}, only_in=parent)
    argv = [*WRITER_RUN, "--out", str(tmp_path / "o")]
    start = time.monotonic()
    if fault == "interrupt":
        with pytest.raises(KeyboardInterrupt):
            main(argv)
    else:
        assert main(argv) == (3 if fault == "i/o" else 4)
    assert time.monotonic() - start < 30
    no_child_left()
    assert not (tmp_path / "o" / "mode1_traj3.csv").exists()
    err = capsys.readouterr().err
    assert err == {"i/o": "i/o error: table 2\n", "interrupt": "",
                   "non-finite": "internal consistency violation: history contains non-finite "
                                 "entries\n"}[fault]


def test_a_writer_process_that_dies_fails_the_run(tmp_path, capsys, monkeypatch):
    write_table = cli.write_table

    def dying(outdir, stem, *args):
        if stem == "mode0_traj3":
            os.kill(os.getpid(), signal.SIGKILL)
        return write_table(outdir, stem, *args)

    monkeypatch.setattr(cli, "write_table", dying)
    assert main([*WRITER_RUN, "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == "i/o error: the writer process ended with status -9\n"
    no_child_left()
    assert not (tmp_path / "o" / "summary.json").exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_writer_process_moves_no_byte(tmp_path, monkeypatch, fmt):
    # three tables of 10 chunks, each drawn a chunk ahead on a thread: none is alive at the
    # fork
    monkeypatch.setattr(langevin, "CHUNK", 4096)
    forks = count_forks(monkeypatch)
    argv = ["simulate", "--k", "1,2,3", "--t-end", "400", "--seed", "6", "--format", fmt]
    outs = {w: tmp_path / w for w in ("1", "2", "8")}
    for workers, out in outs.items():
        assert main([*argv, "--workers", workers, "--out", str(out)]) == 0
        no_child_left()
    assert forks == [["MainThread"]] * 2
    assert_same_trees(outs)


def test_the_writer_process_draws_only_its_own_tables(tmp_path, monkeypatch):
    # the command draws every trajectory, which its summary pools in order
    log, simulate_chunks = tmp_path / "draws", langevin.simulate_chunks

    def logged(*args):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {args[3]}\n")
        yield from simulate_chunks(*args)

    monkeypatch.setattr(langevin, "simulate_chunks", logged)
    assert main([*WRITER_RUN, "--out", str(tmp_path / "o")]) == 0
    draws = {}
    for line in log.read_text().splitlines():
        pid, substream = map(int, line.split())
        draws.setdefault(pid, []).append(substream)
    assert draws.pop(os.getpid()) == list(range(8))
    assert list(draws.values()) == [[1, 3, 5, 7]]


def test_simulate_writes_alone_if_it_cannot_fork(tmp_path, monkeypatch):
    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    outs = {w: tmp_path / w for w in ("1", "2")}
    assert main([*WRITER_RUN, "--workers", "1", "--out", str(outs["1"])]) == 0
    monkeypatch.setattr(os, "fork", no_fork)
    assert main([*WRITER_RUN, "--out", str(outs["2"])]) == 0
    assert_same_trees(outs)


@pytest.mark.parametrize("argv", [
    ["simulate", "--k", "1", "--t-end", "5"],  # one table
    [*WRITER_RUN, "--workers", "1"],
    ["deco-scan", "--k", "1,2"],
    ["fdr-verify", "--k", "1,2", "--t-end", "400"],
])
def test_only_simulate_of_more_than_one_table_forks(tmp_path, monkeypatch, argv):
    forks = count_forks(monkeypatch)
    assert main([*argv, "--out", str(tmp_path / "o")]) == 0
    assert forks == []


def test_simulate_on_a_second_thread_writes_alone(tmp_path, monkeypatch):
    # a fork would copy one thread of two
    forks = count_forks(monkeypatch)
    codes, left = _main_on_a_thread([*WRITER_RUN, "--out", str(tmp_path / "o")])
    assert codes == [0] and not left and forks == []


def test_fdr_verify_passes(tmp_path):
    out = tmp_path / "o"
    rc = main(["fdr-verify", "--k", "1", "--dt", "0.01", "--t-end", "400", "--seed", "2",
               "--out", str(out)])
    assert rc == 0
    report = read_json(out / "fdr_report.json")
    assert report["all_pass"] is True
    assert report["tests"][0]["variance_pass"] is True
    assert report["tests"][0]["rate_pass"] is True


def test_fdr_verify_streams_a_long_run_in_bounded_memory(tmp_path):
    # t_end / dt + 1 = 1e7 samples, 80 MB as one array: a whole history and its noise buffer
    # peaked at ~200 MiB
    proc = cold(["-c", WAIT4_PEAK, sys.executable, "-m", "thermodeco.cli", "fdr-verify",
                 "--k", "2", "--t-end", "100000", "--out", str(tmp_path / "o")])
    assert proc.returncode in (0, 1), proc.stderr
    assert float(proc.stdout) < 100


def test_fdr_verify_holds_a_few_chunks_per_mode(tmp_path, monkeypatch):
    monkeypatch.setattr(langevin, "CHUNK", 16384)
    # 800001 samples per mode, 49 chunks.  A whole history and its noise buffer would be 98
    # chunks
    argv = ["fdr-verify", "--k", "1,2,3", "--t-end", "8000", "--out", str(tmp_path / "o")]
    main(argv)  # imports and first-use set-up, not counted below
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rc = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc in (0, 1)
    assert (peak - base) / (8 * langevin.CHUNK) < 8


def test_fdr_verify_keeps_two_chunk_buffers_live(tmp_path, monkeypatch):
    # the two noise buffers, each filtered in place: the chunk being reduced, its deviations
    # formed in place, and the next one drawn ahead on the worker thread.  A third chunk-sized
    # array, such as a filtered copy of the chunk, would be 3.5 chunks
    monkeypatch.setattr(langevin, "CHUNK", 16384)
    argv = ["fdr-verify", "--k", "1", "--t-end", "2000", "--out", str(tmp_path / "o")]
    main(argv)  # imports and first-use set-up, not counted below
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rc = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc in (0, 1)
    assert (peak - base) / (8 * langevin.CHUNK) < 3


@pytest.mark.parametrize("fault, code, message", [
    ("memory", 2, "config error: run does not fit in memory: "),
    ("non-finite", 4, "internal consistency violation: history contains non-finite entries"),
])
def test_fdr_verify_stream_failure_ends_the_run(tmp_path, capsys, monkeypatch, fault, code,
                                                 message):
    monkeypatch.setattr(langevin, "CHUNK", 4096)
    simulate_chunks = langevin.simulate_chunks

    def faulty(*args, **kwargs):
        # the burn-in ends in the first chunk: the fault comes mid-stream, after it
        chunks = simulate_chunks(*args, **kwargs)
        yield next(chunks)
        if fault == "memory":
            raise MemoryError("no room for the second chunk")
        bad = next(chunks).copy()
        bad[7] = np.nan
        yield bad
        yield from chunks

    monkeypatch.setattr(langevin, "simulate_chunks", faulty)
    before = set(threading.enumerate())
    codes = []
    runner = threading.Thread(target=lambda: codes.append(main(
        ["fdr-verify", "--k", "1,2", "--t-end", "400", "--burn-in", "5",
         "--out", str(tmp_path / "o")])))
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive() and codes == [code]
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1
    assert set(threading.enumerate()) <= before
    assert not (tmp_path / "o").exists()


def _main_on_a_thread(argv):
    """main(argv) on a thread of its own, joined within 60 s; its exit code and the threads
    still alive that were not alive before it."""
    before = set(threading.enumerate())
    codes = []
    runner = threading.Thread(target=lambda: codes.append(main(argv)))
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive()
    return codes, set(threading.enumerate()) - before


# 40001 samples a mode, in 10 chunks of 4096: draws x0, then chunks 0 to 9
FAILING_RUN = ["fdr-verify", "--t-end", "400"]
DRAWS_PER_MODE = 11


def test_fdr_verify_noise_failure_on_the_worker_thread_ends_the_run(tmp_path, capsys,
                                                                    monkeypatch):
    monkeypatch.setattr(langevin, "CHUNK", 4096)
    normal = langevin.NoiseStream.normal
    # chunk 1 fails: of the one mode, drawn ahead on the worker thread; of mode 1, on the pair
    # thread, while mode 0 runs on the caller's
    for failing_mode, ks in enumerate(["1", "1,2"]):
        callers = {}

        def failing(self, *args, **kwargs):  # the third draw of the failing mode: chunk 1
            drawers = callers.setdefault(self.substream, [])
            drawers.append(threading.current_thread())
            if self.substream == failing_mode and len(drawers) == 3:
                raise MemoryError("no room for the noise")
            return normal(self, *args, **kwargs)

        monkeypatch.setattr(langevin.NoiseStream, "normal", failing)
        out = tmp_path / ks
        codes, left = _main_on_a_thread([*FAILING_RUN, "--k", ks, "--out", str(out)])
        assert codes == [2] and not left
        assert callers[failing_mode][2] is not callers[0][0]
        # the pair thread's failure lets the caller's mode run to its end, as in turn
        assert len(callers[0]) == (DRAWS_PER_MODE if failing_mode else 3)
        err = capsys.readouterr().err
        assert err == "config error: run does not fit in memory: no room for the noise\n"
        assert not out.exists()


@pytest.mark.parametrize("error", [MemoryError("no room for mode 0"), KeyboardInterrupt()])
def test_fdr_verify_failure_on_the_callers_thread_stops_the_pair_thread(tmp_path, capsys,
                                                                       monkeypatch, error):
    monkeypatch.setattr(langevin, "CHUNK", 4096)
    normal, callers = langevin.NoiseStream.normal, {}
    running, failed = threading.Event(), threading.Event()

    def failing(self, *args, **kwargs):
        drawers = callers.setdefault(self.substream, [])
        drawers.append(threading.current_thread())
        if self.substream == 0 and len(drawers) == 3:  # mode 0's chunk 1, once mode 1 runs
            assert running.wait(timeout=30)
            failed.set()
            raise error
        if self.substream == 1 and len(drawers) == 2:  # mode 1's chunk 0, drawn on past it
            running.set()
            assert failed.wait(timeout=30)
            time.sleep(0.2)  # a run that did not join mode 1 would end first
        elif self.substream == 1 and len(drawers) > 2:  # the rest would take 0.1 s
            time.sleep(0.01)
        return normal(self, *args, **kwargs)

    monkeypatch.setattr(langevin.NoiseStream, "normal", failing)
    before = set(threading.enumerate())
    argv = [*FAILING_RUN, "--k", "1,2", "--out", str(tmp_path / "o")]
    if isinstance(error, KeyboardInterrupt):  # the caller interrupted, as by Ctrl-C
        with pytest.raises(KeyboardInterrupt):
            main(argv)
        assert capsys.readouterr().err == ""
    else:
        assert main(argv) == 2
        assert capsys.readouterr().err == f"config error: run does not fit in memory: {error}\n"
    assert set(threading.enumerate()) <= before
    assert callers[1][0] is not callers[0][0]
    # mode 1 stopped at a chunk boundary, not at its end
    assert 2 <= len(callers[1]) < DRAWS_PER_MODE
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("ks", ["1", "1,0,2", "1,0,2,3", "1,2,0,3,4,5"])
def test_fdr_verify_pairs_move_no_byte(tmp_path, monkeypatch, ks):
    # one run as shipped, one with every langevin._Ahead run on the caller's thread in
    # result(): that run takes the modes in turn
    monkeypatch.setattr(langevin, "CHUNK", 4096)
    argv = ["fdr-verify", "--k", ks, "--t-end", "200", "--seed", "3", "--out"]
    assert main([*argv, str(tmp_path / "paired")]) in (0, 1)

    class InTurn:
        def __init__(self, work):
            self._work = work

        def result(self):
            return self._work()

        def join(self):
            pass

    monkeypatch.setattr(langevin, "_Ahead", InTurn)
    assert main([*argv, str(tmp_path / "in_turn")]) in (0, 1)
    paired, in_turn = (tmp_path / d / "fdr_report.json" for d in ("paired", "in_turn"))
    assert paired.read_bytes() == in_turn.read_bytes()


def test_fdr_verify_runs_one_thread_at_a_time(tmp_path, monkeypatch):
    # a pair of modes, then a last mode drawing ahead: each started thread finds no other
    # started thread alive.  At --workers 1 the modes run in turn and start no thread
    monkeypatch.setattr(langevin, "CHUNK", 4096)
    start = threading.Thread.start
    for workers in ("2", "1"):
        started, overlaps = [], []

        def counted(thread):
            overlaps.append(sum(t.is_alive() for t in started))
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted)
        rc = main(["fdr-verify", "--k", "1,2,3", "--t-end", "200", "--workers", workers,
                   "--out", str(tmp_path / workers)])
        assert rc in (0, 1)
        if workers == "1":
            assert started == []
        else:
            assert len(started) > 1 and set(overlaps) == {0}
            assert not any(t.is_alive() for t in started)
    assert ((tmp_path / "1" / "fdr_report.json").read_bytes()
            == (tmp_path / "2" / "fdr_report.json").read_bytes())


def test_fdr_verify_reports_a_non_positive_lag1_correlation(tmp_path, capsys, monkeypatch):
    simulate_chunks = langevin.simulate_chunks

    def alternating(*args, **kwargs):
        # every other sample negated: the lag-1 correlation comes out near -e^(-gamma dt)
        for chunk in simulate_chunks(*args, **kwargs):
            chunk[1::2] *= -1.0
            yield chunk

    monkeypatch.setattr(langevin, "simulate_chunks", alternating)
    out = tmp_path / "o"
    assert main(["fdr-verify", "--k", "1", "--t-end", "400", "--out", str(out)]) == 1
    assert capsys.readouterr().err == ""
    test = read_json(out / "fdr_report.json")["tests"][0]
    assert test["fitted_rate"] is None and test["rate_pass"] is False
    assert test["rate_error"].startswith("lag-1 correlation -0.98")
    assert "stderr_rate" not in test and "rate_z" not in test


@pytest.mark.parametrize("method", ["exact-ou", "euler-maruyama"])
def test_variance_error_bar_follows_the_stepper(tmp_path, method):
    # the squared fluctuations correlate by e^(-2 gamma dt) under the exact law and by
    # (1 - gamma dt)^2 under Euler-Maruyama.  At both k, e^(-gamma dt)^2 rounds differently
    # from e^(-2 gamma dt), so the exact law's bytes are pinned too
    common = ["--k", "0.5,3", "--dt", "0.05", "--t-end", "500", "--method", method]
    assert main(["simulate", *common, "--out", str(tmp_path / "s")]) in (0, 1)
    assert main(["fdr-verify", *common, "--out", str(tmp_path / "f")]) in (0, 1)
    modes = read_json(tmp_path / "s" / "summary.json")["modes"]
    tests = read_json(tmp_path / "f" / "fdr_report.json")["tests"]
    for mode, test in zip(modes, tests):
        gamma_dt = mode["expected_rate"] * 0.05
        euler = (1.0 - gamma_dt) * (1.0 - gamma_dt)
        r = math.exp(-2.0 * gamma_dt) if method == "exact-ou" else euler
        n = 10001 - mode["burn_in_steps"]
        n_eff = n * (1.0 - r) / (1.0 + r)
        assert mode["stderr_variance"] == mode["sample_variance"] * math.sqrt(2.0 / n_eff)
        assert test["stderr_variance"] == math.sqrt(2.0 / n_eff)


def test_old_config_with_max_lag_exits_2(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("k_list=1\nmax_lag=400\n")
    assert main(["fdr-verify", "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "config error: unknown config key 'max_lag'\n"


def test_old_config_with_rate_tol_exits_2(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("k_list=1\nrate_tol=0.1\n")
    assert main(["fdr-verify", "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "config error: unknown config key 'rate_tol'\n"


@pytest.mark.parametrize("method", ["exact-ou", "euler-maruyama"])
def test_rate_gate_is_3_sd_of_the_lag1_rate(tmp_path, method):
    # the golden config.  Under Euler-Maruyama the rate gate fails at k = 3 and 4: at k = 3
    # the deviation, 0.306, lies between 3 stderr_rate (0.298) and a 5% floor (0.45)
    out = tmp_path / "o"
    assert main(["fdr-verify", "--k", "0.5,1,2,3,4", "--dt", "0.01", "--t-end", "2000",
                 "--method", method, "--out", str(out)]) in (0, 1)
    tests = read_json(out / "fdr_report.json")["tests"]
    for test in tests:
        gamma = test["expected_rate"]
        n = 200001 - math.ceil(10.0 / gamma / 0.01)
        alpha = math.exp(-gamma * 0.01)
        assert test["stderr_rate"] == math.sqrt((1.0 - alpha * alpha) / n) / (alpha * 0.01)
        assert test["rate_pass"] == (
            abs(test["fitted_rate"] - gamma) <= 3 * test["stderr_rate"])
    assert [t["rate_pass"] for t in tests][-2:] == [method == "exact-ou"] * 2


def assert_same_trees(outs: dict):
    """Every output directory in outs holds the same files with the same bytes."""
    first, *rest = outs.values()
    files = sorted(p.name for p in first.iterdir())
    assert files
    for out in rest:
        assert files == sorted(p.name for p in out.iterdir())
        for name in files:
            assert (out / name).read_bytes() == (first / name).read_bytes(), (out, name)


def test_summaries_do_not_depend_on_the_blas_thread_count(tmp_path):
    # every sum of products behind an output is a 1-d einsum, which OpenBLAS does not split
    # by thread.  The 1e5-step scan's sum of squares differed at 1 and 2 threads as a matmul.
    # Unset, the command asks for one thread; a value the user sets is kept
    for argv in (["simulate", "--k", "1,2", "--t-end", "2000", "--n-traj", "2"],
                 ["fdr-verify", "--k", "1,2", "--t-end", "2000"],
                 ["deco-scan", "--k", "0.5,1,2", "--scan-steps", "100000"],
                 ["field-sample", "--lattice-n", "16", "--n-fields", "500"]):
        outs = {}
        for threads in (None, "2"):
            outs[threads] = tmp_path / f"{argv[0]}-{threads}"
            proc = cold(["-m", "thermodeco.cli", *argv, "--out", str(outs[threads])],
                        OPENBLAS_NUM_THREADS=threads)
            assert proc.returncode in (0, 1) and proc.stderr == ""
        assert_same_trees(outs)


# numpy's SIMD dispatch: unset, then with AVX-512 loops off, then with AVX2 loops off too
AVX512_OFF = "X86_V4 AVX512_ICL AVX512_SPR"
DISPATCH = (None, AVX512_OFF, AVX512_OFF + " X86_V3")
# the loop numpy picked for complex128 absolute, one of numpy.lib.introspect's names
ABS_LOOP = ("from numpy.lib.introspect import opt_func_info; "
            "print(opt_func_info('absolute', 'complex128')['absolute']['Dd']['current'])")


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="numpy's x86-64 dispatch levels")
def test_outputs_do_not_depend_on_numpy_simd_dispatch(tmp_path):
    # NPY_DISABLE_CPU_FEATURES goes only into these child processes.  Complex abs picked
    # its loop per CPU: the 2-d parseval_residual moved with AVX2 off
    loops = [cold(["-c", ABS_LOOP], NPY_DISABLE_CPU_FEATURES=s).stdout.strip() for s in DISPATCH]
    assert loops[2] == "baseline(X86_V2)" and "X86_V4" not in loops[1]
    commands = (["field-sample", "--lattice-n", "64", "--n-fields", "2000"],
                ["field-sample", "--d", "2", "--lattice-n", "16", "--n-fields", "5000"],
                ["deco-scan", "--k", "0.5,1,2", "--scan-steps", "100000"],
                ["fdr-verify", "--k", "0.5,1,2,3,4", "--dt", "0.01", "--t-end", "2000"],
                ["simulate", "--k", "0,1,2", "--n-traj", "3", "--t-end", "50"],
                ["simulate", "--k", "0,1,2", "--n-traj", "3", "--t-end", "50",
                 "--format", "json"])
    for j, argv in enumerate(commands):
        outs = {setting: tmp_path / f"{j}-{i}" for i, setting in enumerate(DISPATCH)}
        for setting, out in outs.items():
            proc = cold(["-m", "thermodeco.cli", *argv, "--out", str(out)],
                        NPY_DISABLE_CPU_FEATURES=setting)
            assert proc.returncode in (0, 1) and proc.stderr == "", (argv, setting)
        assert_same_trees(outs)


def test_reports_carry_z_scores_beside_their_pass_flags(tmp_path):
    assert main(["fdr-verify", "--k", "1,2", "--t-end", "400", "--seed", "2",
                 "--out", str(tmp_path / "f")]) == 0
    for test in read_json(tmp_path / "f" / "fdr_report.json")["tests"]:
        assert test["variance_z"] == (
            (test["variance"] - test["expected_variance"]) / test["stderr_variance"])
        assert test["rate_z"] == (
            (test["fitted_rate"] - test["expected_rate"]) / test["stderr_rate"])
    args = ["field-sample", "--lattice-n", "8", "--n-fields", "50", "--T0", "1.5"]
    assert main(args + ["--out", str(tmp_path / "a")]) in (0, 1)
    assert main(args + ["--noise-scale", "0", "--out", str(tmp_path / "b")]) == 1
    noisy, still = (read_json(tmp_path / name / "field_summary.json") for name in "ab")
    stderr_df = math.sqrt(8 / 2.0) * 1.5 / math.sqrt(50)  # of the mean free energy
    for report in (noisy, still):
        assert report["equipartition_z"] == (
            (report["mean_free_energy"] - report["expected_mean_free_energy"]) / stderr_df)
    assert noisy["energy_variance_z"] == (
        (noisy["energy_variance"] - noisy["expected_energy_variance"])
        / noisy["energy_variance_stderr"])
    # without noise the energy variance and its error bar are 0
    assert still["energy_variance"] == 0.0 and still["energy_variance_z"] == "-inf"


def test_simulate_and_fdr_verify_share_one_estimator(tmp_path):
    # one trajectory of simulate and fdr-verify's history both draw substream 0
    common = ["--k", "1", "--t-end", "2000"]
    assert main(["simulate", *common, "--n-traj", "1", "--out", str(tmp_path / "s")]) == 0
    assert main(["fdr-verify", *common, "--out", str(tmp_path / "f")]) in (0, 1)
    mode = read_json(tmp_path / "s" / "summary.json")["modes"][0]
    test = read_json(tmp_path / "f" / "fdr_report.json")["tests"][0]
    assert mode["sample_variance"] == test["variance"]
    assert mode["fitted_rate"] == test["fitted_rate"]


@pytest.mark.parametrize("chunk", [1, 1000, 10 ** 6])
def test_simulate_and_fdr_verify_agree_at_any_chunk_size(tmp_path, monkeypatch, chunk):
    # 3001 samples, 100 of them burn-in: one sample per chunk, chunks whose pairs straddle
    # their boundaries, and one chunk larger than the history.  Mode m draws substream m in
    # both commands
    monkeypatch.setattr(langevin, "CHUNK", chunk)
    common = ["--k", "3,2", "--t-end", "30", "--burn-in", "1"]
    assert main(["simulate", *common, "--out", str(tmp_path / "s")]) == 0
    assert main(["fdr-verify", *common, "--out", str(tmp_path / "f")]) in (0, 1)
    modes = read_json(tmp_path / "s" / "summary.json")["modes"]
    tests = read_json(tmp_path / "f" / "fdr_report.json")["tests"]
    for m, (mode, test) in enumerate(zip(modes, tests)):
        assert mode["sample_variance"] == test["variance"]
        assert mode["fitted_rate"] == test["fitted_rate"]
        _, rows = read_csv_rows(tmp_path / "s" / f"mode{m}_traj0.csv")
        post = np.array([float(r[1]) for r in rows])[mode["burn_in_steps"]:]
        assert mode["sample_variance"] == pytest.approx(np.var(post, ddof=1), rel=1e-12)
        assert mode["fitted_rate"] == pytest.approx(lag1_rate(post, 0.01), rel=1e-12)


def test_fdr_verify_detects_corrupted_noise(tmp_path):
    out = tmp_path / "o"
    rc = main(["fdr-verify", "--k", "1", "--dt", "0.01", "--t-end", "400", "--seed", "2",
               "--noise-scale", "2.0", "--out", str(out)])
    assert rc == 1
    report = read_json(out / "fdr_report.json")
    assert report["tests"][0]["variance_pass"] is False


def test_fdr_verify_skips_conserved_mode(tmp_path):
    out = tmp_path / "o"
    rc = main(["fdr-verify", "--k", "0,1", "--dt", "0.01", "--t-end", "400", "--seed", "2",
               "--out", str(out)])
    assert rc == 0
    report = read_json(out / "fdr_report.json")
    assert "conserved" in report["tests"][0]["skipped"]


def test_deco_scan_table(tmp_path):
    out = tmp_path / "o"
    rc = main(["deco-scan", "--k", "1,2,4", "--amplitude", "0.1", "--duration", "10",
               "--out", str(out)])
    assert rc == 0
    header, rows = read_csv_rows(out / "deco_scan.csv")
    assert header == ["k", "exponent", "magnitude", "conserved_flag"]
    exps = [float(r[1]) for r in rows]
    assert exps == pytest.approx([0.2, 0.05, 0.0125], rel=1e-12)
    assert [r[3] for r in rows] == ["false", "false", "false"]


def test_deco_scan_conserved_row(tmp_path):
    out = tmp_path / "o"
    rc = main(["deco-scan", "--k", "0,1", "--amplitude", "0.1", "--duration", "10",
               "--out", str(out)])
    assert rc == 0
    _, rows = read_csv_rows(out / "deco_scan.csv")
    assert rows[0][1] == "inf"
    assert float(rows[0][2]) == 0.0
    assert rows[0][3] == "true"


@pytest.mark.parametrize("modes, n_rows", [(["--k-count", "0"], 0), (["--k", "0"], 1)])
def test_deco_scan_without_damped_modes_ignores_an_overflowing_c0(tmp_path, modes, n_rows):
    out = tmp_path / "o"
    assert main(["deco-scan", *modes, "--c0", "1e300", "--out", str(out)]) == 0
    _, rows = read_csv_rows(out / "deco_scan.csv")
    assert rows == [["0", "inf", "0", "true"]] * n_rows


def test_deco_scan_duplicate_k_exits_2(tmp_path, capsys):
    rc = main(["deco-scan", "--k", "1,1", "--amplitude", "0.1", "--duration", "10",
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "duplicate wavenumber" in capsys.readouterr().err


@pytest.mark.parametrize("ks, message", [
    ("1,1e200", "decoherence exponent at k=1e+200 underflows to 0"),
    ("1.1969,1.1969000000000003", "wavenumbers 1.1969 and 1.1969000000000003 are too close"),
    # the first fault met wins: an overflow over a repeat, an underflow over a repeat
    ("1e-200,1e-200", "noise kernel N_k at k=1e-200 overflows"),
    ("1,1e200,1e200", "decoherence exponent at k=1e+200 underflows to 0"),
])
def test_deco_scan_unresolvable_k_exits_2(tmp_path, capsys, ks, message):
    out = tmp_path / "o"
    assert main(["deco-scan", "--k", ks, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err and err.count("\n") == 1
    assert not out.exists()


def test_deco_scan_increasing_exponent_exits_4(tmp_path, capsys, monkeypatch):
    # exponents 0.1 and 0.2 at k = 1 and 2
    monkeypatch.setattr("thermodeco.cli.scan_exponents", lambda params, ks, **scan: ks / 10)
    out = tmp_path / "o"
    assert main(["deco-scan", "--k", "1,2", "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err == "internal consistency violation: exponent not strictly decreasing in k\n"
    assert not out.exists()


DECO_RUNS = [
    ["--k-min", "0", "--dk", "0.25", "--k-count", "20"],  # the conserved row first
    ["--k-min", "2", "--dk=-0.1", "--k-count", "20"],  # made from its far end
    ["--k", "4,0.5,2,0,1,3.5,0.25,1.5"],  # sorted in memory
    ["--k-count", "0"],
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("modes", DECO_RUNS)
def test_deco_scan_streams_the_whole_table_bitwise(tmp_path, monkeypatch, modes, fmt):
    # the whole table as decoherence_scan computes it at once, and written in one part
    argv = ["deco-scan", *modes, "--format", fmt]
    cfg = resolve_config(build_parser().parse_args(argv))
    params = MediumParams(T0=cfg.T0, c0=cfg.c0, D0=cfg.D0, d=cfg.d)
    whole = decoherence_scan(params, cli.ScanGrid(cfg).points(), cfg.amplitude, cfg.duration,
                             n_steps=cfg.scan_steps)
    write_table(tmp_path, "whole", list(DECO_DTYPE.names), whole, cfg)
    expected = (tmp_path / f"whole.{fmt}").read_bytes()
    # blocks of 1, 3 and 7 wavenumbers, which cross the edges of the rows written at a time
    for block in (1, 3, 7, cli.BLOCK_VALUES):
        monkeypatch.setattr(cli, "BLOCK_VALUES", block)
        monkeypatch.setattr(cli, "BLOCK_ROWS", 2)
        out = tmp_path / str(block)
        assert main(argv + ["--out", str(out)]) == 0
        assert (out / f"deco_scan.{fmt}").read_bytes() == expected, block


@pytest.mark.parametrize("modes, block, message", [
    (["--k", "1,2,3,3,4"], 3, "duplicate wavenumber 3 in the scan"),
    (["--k-min", "1", "--dk", "1e-17", "--k-count", "5"], 1, "duplicate wavenumber 1 in the scan"),
    (["--k", "2,1.1969000000000003,1,1.1969"], 2,
     "wavenumbers 1.1969 and 1.1969000000000003 are too close"),
    # an overflow at the first damped k, in the block after the conserved mode's, wins over
    # the tie of their exponents
    (["--k", "0,1e-160"], 1, "noise kernel N_k at k=1e-160 overflows"),
    (["--amplitude", "1e160", "--k", "0,1,2"], 1, "decoherence exponent at k=1 overflows"),
])
def test_deco_scan_tie_across_a_block_edge_exits_2(tmp_path, capsys, monkeypatch, modes, block,
                                                   message):
    monkeypatch.setattr(cli, "BLOCK_VALUES", block)
    out = tmp_path / "o"
    assert main(["deco-scan", *modes, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err and err.count("\n") == 1
    assert not out.exists()


# k = 1 to 6 in blocks of 2 or 5: the exponent rises from k = 5 to 6, inside the third block
# of 2 and across the edge of blocks of 5; the tie of k = 1 and 2 in the first block is
# reported only where no exponent rises
@pytest.mark.parametrize("block", [2, 5])
def test_deco_scan_increasing_exponent_in_a_later_block_exits_4(tmp_path, capsys, monkeypatch,
                                                                block):
    monkeypatch.setattr(cli, "BLOCK_VALUES", block)
    monkeypatch.setattr("thermodeco.cli.scan_exponents",
                        lambda params, ks, **scan: np.where(ks == 6, 1.0, 1 / np.maximum(ks, 2)))
    out = tmp_path / "o"
    assert main(["deco-scan", "--k", "1,2,3,4,5,6", "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err == "internal consistency violation: exponent not strictly decreasing in k\n"
    assert not out.exists()


def test_json_format_tables(tmp_path):
    out = tmp_path / "o"
    rc = main(["deco-scan", "--k", "1,2", "--amplitude", "0.1", "--duration", "10",
               "--format", "json", "--out", str(out)])
    assert rc == 0
    table = read_json(out / "deco_scan.json")
    assert table["columns"] == ["k", "exponent", "magnitude", "conserved_flag"]
    assert table["rows"][0][1] == pytest.approx(0.2, rel=1e-12)
    assert "config" in table


def test_io_failure_exits_3(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    rc = main(["deco-scan", "--k", "1,2", "--out", str(blocker / "sub")])
    assert rc == 3


def test_field_sample_checks(tmp_path):
    out = tmp_path / "o"
    rc = main(["field-sample", "--lattice-n", "64", "--lattice-a", "1.0",
               "--n-fields", "20000", "--seed", "4", "--out", str(out)])
    assert rc == 0
    report = read_json(out / "field_summary.json")
    assert report["expected_energy_variance"] == 64.0
    assert report["all_pass"] is True
    assert report["parseval_residual"] <= 1e-12


def test_field_sample_noise_scale_fails_energy_gate(tmp_path):
    args = ["field-sample", "--lattice-n", "64", "--n-fields", "2000", "--seed", "4"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--noise-scale", "2", "--out", str(tmp_path / "b")]) == 1
    report = read_json(tmp_path / "b" / "field_summary.json")
    assert report["energy_variance_pass"] is False
    # the gate's expectation stays the unscaled equilibrium
    assert report["expected_energy_variance"] == 64.0


# blocks of 1 field (each drawn as one lattice), of 3 fields with a partial last block, and
# one block of all 23 fields.  At seed 4 a field after the 10th has the largest Parseval
# residual, so a residual over more than the first 10 fields would show
@pytest.mark.parametrize("chunk", [1, 3 * 64, 10 ** 6])
def test_field_sample_streams_the_whole_ensemble_bitwise(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(cli, "BLOCK_VALUES", chunk)
    out = tmp_path / "o"
    assert main(["field-sample", "--d", "2", "--lattice-n", "8", "--lattice-a", "0.5",
                 "--T0", "1.5", "--c0", "2", "--n-fields", "23", "--seed", "4",
                 "--out", str(out)]) == 0
    report = read_json(out / "field_summary.json")
    params = MediumParams(T0=1.5, c0=2.0, D0=1.0, d=2)
    template = LatticeField.zeros(2, (8, 8), 0.5)
    ensemble = sample_equilibrium_field(params, template, langevin.NoiseStream(4), 23)
    st = total_energy_fluctuation(params, ensemble)
    assert report["energy_variance"] == st.variance
    assert report["energy_variance_stderr"] == st.stderr_variance
    assert report["mean_free_energy"] == mean_free_energy(params, ensemble)
    assert report["parseval_residual"] == max(parseval_check(template.with_values(row))
                                              for row in ensemble.values[:10])


def test_field_sample_blocks_do_not_follow_the_history_chunk(tmp_path, monkeypatch):
    argv = ["field-sample", "--lattice-n", "8", "--n-fields", "40", "--seed", "4"]
    assert main(argv + ["--out", str(tmp_path / "a")]) == 0
    monkeypatch.setattr(langevin, "CHUNK", 3 * 8)
    assert main(argv + ["--out", str(tmp_path / "b")]) == 0
    summary = "field_summary.json"
    assert (tmp_path / "b" / summary).read_bytes() == (tmp_path / "a" / summary).read_bytes()


def test_field_sample_streams_in_bounded_memory(tmp_path):
    # 1e5 fields x 64 sites, 51 MB as one array: the ensemble and its squared and scaled
    # copies peaked at ~135 MiB, blocks of 2^19 sites at ~49 MiB
    proc = cold(["-c", WAIT4_PEAK, sys.executable, "-m", "thermodeco.cli", "field-sample",
                 "--lattice-n", "64", "--n-fields", "100000", "--out", str(tmp_path / "o")])
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 44


def test_field_sample_memory_does_not_grow_with_the_grid(tmp_path):
    # a lattice sample reads no k, yet its whole grid was made and checked: 1e6 wavenumbers
    # peaked at ~75 MiB against ~35 MiB for one
    peaks = []
    for n in (1, 10 ** 6):
        proc = cold(["-c", WAIT4_PEAK, sys.executable, "-m", "thermodeco.cli", "field-sample",
                     "--lattice-n", "8", "--n-fields", "50", "--k-count", str(n),
                     "--out", str(tmp_path / str(n))])
        assert proc.returncode == 0, proc.stderr
        peaks.append(float(proc.stdout))
    assert peaks[1] - peaks[0] < 2, peaks


@pytest.mark.parametrize("fmt, bound", [("csv", 75), ("json", 85)])
def test_simulate_writes_in_bounded_memory(tmp_path, fmt, bound):
    # 1.2e6 rows, 3 chunks: with the whole trajectory, its time column, their record array
    # and the memo key's copy of the time column held at once, this peaked at 114 MiB as CSV
    # and 135 MiB as JSON
    proc = cold(["-c", WAIT4_PEAK, sys.executable, "-m", "thermodeco.cli", "simulate", "--k", "1",
                 "--t-end", "12000", "--format", fmt, "--out", str(tmp_path / "o")])
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < bound


def test_deco_scan_writes_in_bounded_memory(tmp_path):
    # the benchmark's 1e5-wavenumber JSON scan (9.8 MB): with the whole table's text held at
    # once, its lead-column template, cell lists and text peaked at ~74 MiB; with the whole
    # table and grid, at ~45 MiB
    proc = cold(["-c", WAIT4_PEAK, sys.executable, "-m", "thermodeco.cli", "deco-scan",
                 "--format", "json", "--k-min", "0", "--dk", "0.0001", "--k-count", "100000",
                 "--scan-steps", "1000", "--amplitude", "0.001", "--duration", "10",
                 "--out", str(tmp_path / "o")])
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 44


def test_deco_scan_memory_does_not_grow_with_the_grid(tmp_path):
    # a grid, its table and the first-column memo all grew with k_count: 1e6 wavenumbers
    # peaked at ~177 MiB
    peaks = []
    for n in (10 ** 4, 2 * 10 ** 5):
        proc = cold(["-c", WAIT4_PEAK, sys.executable, "-m", "thermodeco.cli", "deco-scan",
                     "--k-min", "0", "--dk", "0.0001", "--k-count", str(n),
                     "--out", str(tmp_path / str(n))])
        assert proc.returncode == 0, proc.stderr
        peaks.append(float(proc.stdout))
    assert peaks[1] - peaks[0] < 2, peaks


def test_overflowed_field_sample_prints_no_warning(tmp_path, capfd):
    out = tmp_path / "o"
    assert main(["field-sample", "--T0", "1.6e153", "--n-fields", "100", "--out", str(out)]) == 1
    assert capfd.readouterr().err == ""
    assert read_json(out / "field_summary.json")["energy_variance"] == "inf"


CELLS = {
    float: st.floats(allow_subnormal=True)
    | st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, math.inf, -math.inf, math.nan]),
    int: st.integers(-2**63, 2**63 - 1),
    bool: st.booleans(),
}


def _table(types: list, cols: list[list]):
    """(column names, record array, rows as lists of Python values) of columns of these types."""
    names = [f"c{j}" for j in range(len(types))]
    py_rows = [list(row) for row in zip(*cols)]
    return names, np.array([tuple(r) for r in py_rows], dtype=list(zip(names, types))), py_rows


@st.composite
def tables(draw, kinds=st.sampled_from(sorted(CELLS, key=str))):
    """(column names, record array, the same rows as lists of Python values)."""
    types = draw(st.lists(kinds, min_size=1, max_size=4))
    n = draw(st.integers(0, 8))
    return _table(types, [draw(st.lists(CELLS[t], min_size=n, max_size=n)) for t in types])


# block sizes at which the tables below, of 0 to 8 rows, cross block edges, and the default
BLOCKS = [1, 2, 3, cli.BLOCK_ROWS]


def _written(fmt: str, names, rows) -> str:
    cfg = RunConfig(format=fmt)
    with tempfile.TemporaryDirectory() as tmp:
        write_table(Path(tmp), "t", names, rows, cfg)
        return (Path(tmp) / f"t.{fmt}").read_text()


def per_value_json(names, py_rows, cfg=RunConfig(format="json")) -> str:
    """A JSON table as json's pure-Python indent encoder writes it."""
    payload = {"columns": names, "rows": py_rows, "config": config_echo(cfg)}
    return json.dumps(_json_value(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"


def per_value_csv_end(names, py_rows) -> str:
    """A CSV table's column line and rows as the per-value join the template replaced writes
    them; the config comment lines come before."""
    body = "".join(",".join(_fmt(v) for v in row) + "\n" for row in py_rows)
    return "\n" + ",".join(names) + "\n" + body


@settings(max_examples=100, deadline=None)
@given(tables())
def test_json_table_matches_indent_encoder(table):
    names, rows, py_rows = table
    for block in BLOCKS:
        with mock.patch.object(cli, "BLOCK_ROWS", block):
            assert _written("json", names, rows) == per_value_json(names, py_rows), block


@settings(max_examples=100, deadline=None)
@given(tables(kinds=st.sampled_from([float, float, bool])))
def test_csv_table_matches_per_value_fmt(table):
    names, rows, py_rows = table
    for block in BLOCKS:
        with mock.patch.object(cli, "BLOCK_ROWS", block):
            assert _written("csv", names, rows).endswith(per_value_csv_end(names, py_rows)), block


def _zeros_swapped(col: list[float]) -> list[float]:
    return [(-0.0 if math.copysign(1.0, v) > 0 else 0.0) if v == 0 else v for v in col]


@st.composite
def table_runs(draw, kinds):
    """Two to four tables written by one _write call; each has a first column of floats.

    A table after the first is new, of any length, 0 rows included, or has the layout of
    the one before and its first column: copied, or with 0.0 and -0.0 swapped, the one
    change a memo keyed by == or np.array_equal cannot see.
    """
    runs = []
    for i in range(draw(st.integers(2, 4))):
        how = draw(st.sampled_from(["new", "copy", "swap"])) if i else "new"
        if how == "new":
            types, n = [float] + draw(st.lists(kinds, max_size=3)), draw(st.integers(0, 8))
        cols = [draw(st.lists(CELLS[t], min_size=n, max_size=n)) for t in types]
        if how != "new":
            first = [row[0] for row in runs[-1][2]]
            cols[0] = first if how == "copy" else _zeros_swapped(first)
        runs.append(_table(types, cols))
    return runs


# the cases the property must hold on: a repeated first column, one that differs only in
# the sign of a zero, a NaN, lengths that change and 0 rows
EXAMPLE_RUN = [
    _table([float, bool], [[0.0, math.nan, 1.5], [True, False, True]]),
    _table([float, bool], [[-0.0, math.nan, 1.5], [False, False, True]]),
    _table([float, bool], [[-0.0, math.nan, 1.5], [True, True, False]]),
    _table([float, bool], [[], []]),
]


@pytest.mark.parametrize("fmt, kinds", [("csv", [float, bool]), ("json", [float, int, bool])])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
@example(data=None)
def test_table_sequence_matches_per_value_text(fmt, kinds, data):
    runs = EXAMPLE_RUN if data is None else data.draw(table_runs(st.sampled_from(kinds)))
    for block in BLOCKS:
        with mock.patch.object(cli, "BLOCK_ROWS", block), tempfile.TemporaryDirectory() as tmp:
            memo = {}  # shared, as by the trajectory tables of a simulate run
            _write(RunConfig(format=fmt, out=tmp), ((f"t{i}", cli.Table(rows.dtype, len(rows),
                                                                         [rows], memo))
                                                    for i, (_, rows, _) in enumerate(runs)))
            for i, (names, _, py_rows) in enumerate(runs):
                text = (Path(tmp) / f"t{i}.{fmt}").read_text()
                if fmt == "json":
                    assert text == per_value_json(names, py_rows), block
                else:
                    assert text.endswith(per_value_csv_end(names, py_rows)), block


def test_simulate_json_tables_match_per_value_encoder(tmp_path, monkeypatch):
    argv = ["simulate", "--k", "0,1.5", "--dt", "0.1", "--t-end", "3", "--n-traj", "3",
            "--seed", "4", "--format", "json"]
    cfg = resolve_config(build_parser().parse_args(argv))
    params = MediumParams(T0=cfg.T0, c0=cfg.c0, D0=cfg.D0, d=cfg.d)
    ks = [0.0, 1.5]
    # trajectory i of mode m is drawn on substream m * n_traj + i
    histories = [[simulate_mode(params, k, sim_config(cfg), substream=m * 3 + i)
                  for i in range(3)] for m, k in enumerate(ks)]
    # 31 rows: one chunk per trajectory, then chunks of 7 rows in blocks of 3, which cross
    # the chunk edges and of which the memo keeps only those of the first chunk
    for chunk, block in [(langevin.CHUNK, cli.BLOCK_ROWS), (7, 3)]:
        monkeypatch.setattr(langevin, "CHUNK", chunk)
        monkeypatch.setattr(cli, "BLOCK_ROWS", block)
        assert main(argv + ["--out", str(tmp_path / str(chunk))]) == 0
        for m, trajs in enumerate(histories):
            for i, hist in enumerate(trajs):
                times = np.arange(hist.size) * cfg.dt
                rows = [list(row) for row in zip(times.tolist(), hist.tolist())]
                text = (tmp_path / str(chunk) / f"mode{m}_traj{i}.json").read_text()
                assert text == per_value_json(["t", "delta_T"], rows, cfg)


# hostile values for any key: zero, negative, huge, tiny, non-finite and non-numeric
HOSTILE = st.sampled_from(["0", "-1", "-0.5", "1e300", "1e-300", "5e-324", "nan", "-inf", "x", ""])


@st.composite
def command_lines(draw):
    """A subcommand and a value for every key, up to three of them hostile.

    The other values keep an accepted run small: t_end/dt <= 2000 samples, at most
    5 modes, 3 trajectories, 50 fields of 8^d sites, 100 scan steps and 3 worker threads.
    The seed ranges one past each end of [0, 2^64 - 1].
    """
    t_end = draw(st.floats(0.01, 20.0))
    positive = st.floats(0.1, 10.0)
    plain = {
        "T0": positive, "c0": positive, "D0": positive, "d": st.integers(1, 3),
        "k_list": st.lists(st.floats(0.0, 5.0), max_size=5).map(lambda ks: ",".join(map(str, ks))),
        "k_min": st.floats(0.0, 5.0), "dk": st.floats(0.0, 5.0), "k_count": st.integers(0, 5),
        "dt": st.floats(t_end / 2000, 2 * t_end), "t_end": st.just(t_end),
        "method": st.sampled_from(["exact-ou", "euler-maruyama"]),
        "burn_in": st.one_of(st.just("auto"), st.floats(0.0, 5.0)), "n_traj": st.integers(1, 3),
        "initial": st.one_of(st.just("sample-equilibrium"), st.floats(-5.0, 5.0)),
        "noise_scale": st.floats(0.0, 3.0),
        "amplitude": st.floats(0.01, 1.0),
        "duration": st.floats(0.1, 20.0), "scan_steps": st.integers(1, 100),
        "lattice_n": st.integers(1, 8), "lattice_a": st.floats(0.1, 2.0),
        "n_fields": st.integers(2, 50), "seed": st.integers(-1, 2 ** 64),
        "format": st.sampled_from(["csv", "json"]), "workers": st.integers(1, 3),
    }
    values = {key: str(draw(strategy)) for key, strategy in plain.items()}
    for key in draw(st.lists(st.sampled_from(sorted(plain)), max_size=3, unique=True)):
        values[key] = draw(HOSTILE)
    command = draw(st.sampled_from(["simulate", "fdr-verify", "deco-scan", "field-sample"]))
    flags = ("--k" if key == "k_list" else "--" + key.replace("_", "-") for key in values)
    return [command] + [f"{flag}={value}" for flag, value in zip(flags, values.values())]


@settings(max_examples=300, deadline=None)
@given(command_lines())
# c0^2 underflows: the noise strength at k = 0 must still be 0, not 0/0 with a warning
@example(["simulate", "--c0=1e-300", "--k-min=0", "--dk=0", "--k-count=1", "--dt=1", "--t-end=1",
          "--noise-scale=0"])
# c0^2 and D0 k^2 underflow: N_k must be inf, not 0/0 with a warning
@example(["deco-scan", "--c0", "1e-300", "--k", "1e-200"])
# c0^2 overflows as a float: OverflowError, before any exponent is computed, is a config error
@example(["deco-scan", "--c0=1e300", "--k=1"])
def test_cli_exit_contract(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "o"
        err = io.StringIO()
        # numpy warnings go through warnings, not sys.stderr: recorded, none allowed on exit 2
        with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(argv + ["--out", str(out)])
        assert rc in (0, 1, 2, 3, 4)
        if rc == 2:
            assert err.getvalue().startswith("config error: ") and err.getvalue().count("\n") == 1
            assert not caught, [str(w.message) for w in caught]
            assert not out.exists()

import json
import math
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermodeco import ModeHistory, autocorrelation, fit_exponential_rate
from thermodeco.cli import (
    RunConfig,
    _fmt,
    _json_value,
    build_parser,
    config_echo,
    main,
    resolve_config,
    write_table,
)


def read_json(path):
    return json.loads(Path(path).read_text())


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


def test_bad_flag_exits_2():
    assert main(["simulate", "--dt", "not-a-number"]) == 2


@pytest.mark.parametrize("argv", [
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
    ["fdr-verify", "--k", "16", "--dt", "0.01", "--t-end", "200"],
    ["fdr-verify", "--k", "1", "--max-lag", "1"],
    ["simulate", "--k", "1", "--t-end", "1e300", "--dt", "1e-300"],
    ["simulate", "--k", "1", "--T0", "1e200"],
    ["simulate", "--k", "0", "--T0", "1e200"],
    ["field-sample", "--T0", "1e160"],
    ["field-sample", "--d", "3", "--lattice-n", "2", "--lattice-a", "1e-110"],
    ["field-sample", "--T0", "1e154"],
    ["simulate", "--k", "1", "--t-end", "1e200", "--dt", "1"],
    ["simulate", "--k", "1", "--t-end", "1e17", "--dt", "1"],
    ["field-sample", "--n-fields", "200000000000000000"],
    ["simulate", "--k", "1", "--t-end", "5", "--dt", "0.01", "--initial", "1e300", "--burn-in", "0"],
    ["deco-scan", "--k", "1e-200"],
    ["deco-scan", "--k", "0,1e-160,1"],
    ["deco-scan", "--k", "1", "--amplitude", "1e160"],
    ["field-sample", "--noise-scale", "-1"],
    ["field-sample", "--T0", "1e150", "--noise-scale", "1e100"],
])
def test_invalid_run_exits_2_with_one_line(tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not out.exists()


# a non-default value for every config key, as written in a file or on the command line
SETTINGS = {
    "T0": "2.5", "c0": "1.5", "D0": "0.5", "d": "2",
    "k_list": "1.5,2.5", "k_min": "0.5", "dk": "0.25", "k_count": "3",
    "dt": "0.02", "t_end": "50", "method": "euler-maruyama", "burn_in": "2.5",
    "n_traj": "3", "initial": "0.3", "noise_scale": "0.5", "rate_tol": "0.1",
    "max_lag": "20", "amplitude": "0.2", "duration": "5", "scan_steps": "7",
    "lattice_n": "8", "lattice_a": "0.5", "n_fields": "50",
    "seed": "9", "out": "elsewhere", "format": "json", "workers": "2",
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
    acf = autocorrelation(ModeHistory(1.0, 0.01, post), 400)
    assert mode["fitted_rate"] == pytest.approx(fit_exponential_rate(acf), rel=1e-12)
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
    assert report["energy_variance"] == "inf"


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


def test_fdr_verify_passes(tmp_path):
    out = tmp_path / "o"
    rc = main(["fdr-verify", "--k", "1", "--dt", "0.01", "--t-end", "400", "--seed", "2",
               "--out", str(out)])
    assert rc == 0
    report = read_json(out / "fdr_report.json")
    assert report["all_pass"] is True
    assert report["tests"][0]["variance_pass"] is True
    assert report["tests"][0]["rate_pass"] is True


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


def test_deco_scan_duplicate_k_exits_2(tmp_path, capsys):
    rc = main(["deco-scan", "--k", "1,1", "--amplitude", "0.1", "--duration", "10",
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "duplicate wavenumber" in capsys.readouterr().err


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


CELLS = {
    float: st.floats(allow_subnormal=True)
    | st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, math.inf, -math.inf, math.nan]),
    int: st.integers(-2**63, 2**63 - 1),
    bool: st.booleans(),
}


@st.composite
def tables(draw, kinds=st.sampled_from(sorted(CELLS, key=str))):
    """(column names, record array, the same rows as lists of Python values)."""
    types = draw(st.lists(kinds, min_size=1, max_size=4))
    n = draw(st.integers(0, 8))
    cols = [draw(st.lists(CELLS[t], min_size=n, max_size=n)) for t in types]
    names = [f"c{j}" for j in range(len(types))]
    py_rows = [list(row) for row in zip(*cols)]
    rows = np.array([tuple(r) for r in py_rows], dtype=list(zip(names, types)))
    return names, rows, py_rows


def _written(fmt: str, names, rows) -> str:
    cfg = RunConfig(format=fmt)
    with tempfile.TemporaryDirectory() as tmp:
        write_table(Path(tmp), "t", names, rows, cfg)
        return (Path(tmp) / f"t.{fmt}").read_text()


@settings(max_examples=100, deadline=None)
@given(tables())
def test_json_table_matches_indent_encoder(table):
    names, rows, py_rows = table
    payload = {"columns": names, "rows": py_rows, "config": config_echo(RunConfig(format="json"))}
    expected = json.dumps(_json_value(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"
    assert _written("json", names, rows) == expected


@settings(max_examples=100, deadline=None)
@given(tables(kinds=st.sampled_from([float, float, bool])))
def test_csv_table_matches_per_value_fmt(table):
    names, rows, py_rows = table
    # the per-value join the template replaced
    body = "".join(",".join(_fmt(v) for v in row) + "\n" for row in py_rows)
    assert _written("csv", names, rows).endswith("\n" + ",".join(names) + "\n" + body)

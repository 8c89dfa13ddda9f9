import json
import math
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from thermodeco.cli import RunConfig, build_parser, main, resolve_config


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


def test_json_summary_has_no_non_finite_tokens(tmp_path):
    out = tmp_path / "o"
    rc = main(["simulate", "--k", "1", "--t-end", "5", "--dt", "0.01", "--initial", "1e300",
               "--burn-in", "0", "--out", str(out)])
    assert rc == 0

    def reject(token):
        raise ValueError(f"non-JSON token {token}")

    mode = json.loads((out / "summary.json").read_text(), parse_constant=reject)["modes"][0]
    assert mode["sample_variance"] == "inf"


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

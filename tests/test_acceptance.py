"""Acceptance suite: one test per top-level criterion, each printing a
pass/fail line (run with ``pytest -v -s tests/test_acceptance.py``)."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from thermodeco import (
    LatticeField,
    MediumParams,
    NoiseStream,
    SimConfig,
    antisymmetry_residual,
    coupling_constant,
    decoherence_exponent,
    decoherence_scan,
    free_energy_hessian,
    from_modes,
    parseval_check,
    relaxation_rate,
    sample_equilibrium_field,
    simulate_mode,
    static_free_energy_identity,
    step_euler_maruyama,
    step_exact_ou,
    to_modes,
    total_energy_fluctuation,
)
from thermodeco.influence import HistoryPair
from thermodeco.langevin import simulate_chunks
from thermodeco.stats import StreamStats
from thermodeco.cli import main as cli_main

UNIT = MediumParams(T0=1.0, c0=1.0, D0=1.0)


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _ou_variance_stderr(variance, n, step_corr):
    """Standard error of the variance over n consecutive AR(1) samples with
    one-step correlation ``step_corr`` of the squared-fluctuation series."""
    n_eff = n * (1.0 - step_corr) / (1.0 + step_corr)
    return variance * math.sqrt(2.0 / n_eff)


def test_criterion_01_fdr_stationary_variance():
    dt = 0.01
    burn = 1000  # 10 / gamma at gamma = 1
    n_keep = 100_000
    cfg = SimConfig(dt=dt, t_end=dt * (burn + n_keep), seed=20240817,
                    initial="sample-equilibrium")
    hist = simulate_mode(UNIT, 1.0, cfg)
    post = hist[burn:burn + n_keep]
    var = float(np.var(post, ddof=1))
    stderr = _ou_variance_stderr(1.0, n_keep, math.exp(-2 * dt))
    _report(1, "FDR stationary variance", abs(var - 1.0) <= 3 * stderr,
            f"var={var:.4f} expected 1.0 +/- {3 * stderr:.4f}")


def test_criterion_02_rate_recovery():
    p = MediumParams(T0=2.0, c0=4.0, D0=0.5)
    gamma = relaxation_rate(p, 3.0)
    assert gamma == 1.125
    dt = 0.01
    cfg = SimConfig(dt=dt, t_end=10_000.0, seed=0, initial="sample-equilibrium")
    stats = StreamStats()  # the lag-1 estimator fdr-verify gates
    for chunk in simulate_chunks(p, 3.0, cfg):  # 1e6 steps
        stats.add(chunk)
    fitted = stats.lag1_rate(dt)
    rel = abs(fitted - gamma) / gamma
    _report(2, "rate recovery", rel <= 0.02,
            f"fitted={fitted:.5f} expected {gamma} rel_err={rel:.4f}")


def _stationary_variance(params, k, dt, method, n_chains, t_burn, t_collect, seed):
    """Empirical stationary variance over an ensemble of independent chains."""
    step = step_exact_ou if method == "exact-ou" else step_euler_maruyama
    stream = NoiseStream(seed, 0)
    x = stream.normal(n_chains)  # equilibrium start (unit stationary variance)
    for _ in range(round(t_burn / dt)):
        x = step(params, k, x, dt, stream)
    n_col = round(t_collect / dt)
    s1 = 0.0
    s2 = 0.0
    for _ in range(n_col):
        x = step(params, k, x, dt, stream)
        s1 += float(x.sum())
        s2 += float(np.dot(x, x))
    n = n_chains * n_col
    mean = s1 / n
    var = s2 / n - mean * mean
    return var, n_col


def test_criterion_03_euler_maruyama_convergence():
    dts = (0.1, 0.05, 0.025)
    n_chains = 4000
    biases = []
    for i, dt in enumerate(dts):
        var, n_col = _stationary_variance(UNIT, 1.0, dt, "euler-maruyama",
                                          n_chains, 30.0, 1000.0, seed=100 + i)
        biases.append(var - 1.0)
    r1 = biases[0] / biases[1]
    r2 = biases[1] / biases[2]
    ok_em = all(b > 0 for b in biases) and 1.5 <= r1 <= 3.0 and 1.5 <= r2 <= 3.0
    ok_exact = True
    details_exact = []
    for i, dt in enumerate(dts):
        var, n_col = _stationary_variance(UNIT, 1.0, dt, "exact-ou",
                                          n_chains, 30.0, 300.0, seed=200 + i)
        r = math.exp(-2 * dt)
        stderr = _ou_variance_stderr(1.0, n_chains * n_col, r) / math.sqrt(1.0)
        ok_exact = ok_exact and abs(var - 1.0) <= 3 * stderr
        details_exact.append(f"{var - 1.0:+.5f}")
    _report(3, "Euler-Maruyama first-order bias",
            ok_em and ok_exact,
            f"em_biases={[f'{b:.5f}' for b in biases]} ratios=({r1:.2f},{r2:.2f}) "
            f"exact_biases={details_exact}")


def test_criterion_04_influence_antisymmetry():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        ks = rng.uniform(0.2, 5.0, 3)
        ws = rng.uniform(0.1, 2.0, 3)
        n = 30
        b1 = np.array([rng.normal(size=n) for _ in ks])
        b2 = np.array([rng.normal(size=n) for _ in ks])
        pair = HistoryPair(ks, 0.1, b1, b2, ws)
        worst = max(worst, antisymmetry_residual(UNIT, pair))
    _report(4, "influence-action antisymmetry", worst <= 1e-12, f"max residual={worst:.2e}")


def test_criterion_05_static_imaginary_time_identity():
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(100):
        p = MediumParams(*rng.uniform(0.1, 10.0, 3))
        ks = rng.uniform(0.1, 5.0, 5)
        ws = rng.uniform(0.1, 2.0, 5)
        worst = max(worst, static_free_energy_identity(
            p, ks, ws, rng.normal(size=5), rng.normal(size=5)))
    _report(5, "static imaginary-time identity", worst <= 1e-14, f"max residual={worst:.2e}")


def test_criterion_06_decoherence_scaling():
    rng = np.random.default_rng(14)
    diff = rng.normal(size=40)
    zeros = np.zeros(40)
    ok = True
    for k in (0.5, 1.0, 2.0, 4.0):
        def exponent(kk):
            pair = HistoryPair([kk], 0.1, [diff], [zeros], [1.0])
            return decoherence_exponent(UNIT, pair).total_exponent
        ratio = exponent(k) / exponent(2 * k)
        ok = ok and abs(ratio - 4.0) <= 1e-14 * 4.0
    rows = decoherence_scan(UNIT, [0.5, 1.0, 2.0, 4.0], amplitude=0.1, duration=10.0)
    exps = rows["exponent"].tolist()
    ok = ok and all(a > b for a, b in zip(exps, exps[1:]))
    pair0 = HistoryPair([0.0], 0.1, [diff], [zeros], [1.0])
    res0 = decoherence_exponent(UNIT, pair0)
    ok = ok and res0.magnitude == 0.0 and res0.conserved_mode_diverged
    _report(6, "decoherence k^-2 scaling", ok, f"scan exponents={exps}")


def test_criterion_07_energy_fluctuation():
    tpl = LatticeField.zeros(1, 64, 1.0)
    stream = NoiseStream(31, 0)
    st = total_energy_fluctuation(UNIT, sample_equilibrium_field(UNIT, tpl, stream, 100_000))
    ok = abs(st.variance - 64.0) <= 3 * st.stderr_variance
    _report(7, "energy fluctuation = V c0 T0^2",
            ok, f"var={st.variance:.3f} expected 64 +/- {3 * st.stderr_variance:.3f}")


def test_criterion_08_free_energy_hessian():
    rng = np.random.default_rng(15)
    p = MediumParams(T0=2.0, c0=4.0, D0=0.5)
    fld = LatticeField(1, (8,), 0.5, rng.uniform(-0.5, 0.5, 8))
    hess = free_energy_hessian(p, fld, step=1e-3)
    target = p.c0 / p.T0 * fld.cell_volume  # 1.0
    diag_rel = float(np.max(np.abs(np.diag(hess) - target)) / target)
    off = hess - np.diag(np.diag(hess))
    off_abs = float(np.max(np.abs(off)))
    ok = diag_rel <= 1e-6 and off_abs <= 1e-10
    _report(8, "free-energy Hessian", ok, f"diag_rel={diag_rel:.2e} off_abs={off_abs:.2e}")


def test_criterion_09_transform_integrity():
    rng = np.random.default_rng(16)
    worst_rt = 0.0
    worst_pv = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 33))
        a = float(rng.uniform(0.1, 2.0))
        fld = LatticeField(1, (n,), a, rng.normal(size=n))
        back = from_modes(to_modes(fld), fld)
        scale = max(1.0, float(np.max(np.abs(fld.values))))
        worst_rt = max(worst_rt, float(np.max(np.abs(back.values - fld.values))) / scale)
        worst_pv = max(worst_pv, parseval_check(fld))
    ok = worst_rt <= 1e-12 and worst_pv <= 1e-12
    _report(9, "transform round-trip & Parseval", ok,
            f"round_trip={worst_rt:.2e} parseval={worst_pv:.2e}")


def test_criterion_10_determinism_across_workers(tmp_path):
    base = ["--k", "0.5,1,2", "--dt", "0.05", "--t-end", "20", "--n-traj", "8",
            "--seed", "777"]
    outputs = {}
    for w in (1, 2, 8):
        out = tmp_path / f"w{w}"
        assert cli_main(["simulate", *base, "--out", str(out), "--workers", str(w)]) == 0
        assert cli_main(["deco-scan", "--k", "0.5,1,2", "--seed", "777",
                         "--out", str(out), "--workers", str(w)]) == 0
        outputs[w] = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
    ok = outputs[1] == outputs[2] == outputs[8]
    _report(10, "byte-identical artifacts across 1/2/8 workers", ok,
            f"{len(outputs[1])} files compared")


def test_criterion_11_decoherence_from_simulated_noise():
    # |D| = E[exp(i A_k sum_n xi_n dT dt)] over windows of the simulated force xi must equal
    # e^(-exponent/2), the exponent built from N_k = 2 Gamma_k A_k^2.  The branch difference
    # scales as k, so the prediction is one number at every k and ties N_k to the 1/k^2 law.
    dt, window = 0.01, 100
    cfg = SimConfig(dt=dt, t_end=1e4, method="euler-maruyama", seed=20261018, initial=0.0)
    ok = True
    details = []
    for i, k in enumerate((0.25, 0.5, 1.0, 2.0, 4.0)):
        x = simulate_mode(UNIT, k, cfg, substream=i)
        xi = (x[1:] - (1.0 - relaxation_rate(UNIT, k) * dt) * x[:-1]) / dt
        amplitude = 0.5 * k
        phases = coupling_constant(UNIT, k) * amplitude * dt * xi.reshape(-1, window).sum(axis=1)
        cosines = np.cos(phases)
        measured = float(cosines.mean())
        stderr = float(cosines.std(ddof=1)) / math.sqrt(cosines.size)
        pair = HistoryPair([k], dt, [np.full(window + 1, amplitude)], [np.zeros(window + 1)],
                           [1.0])
        predicted = math.exp(-decoherence_exponent(UNIT, pair).total_exponent / 2.0)
        z = (measured - predicted) / stderr
        ok = ok and 0.5 <= predicted <= 0.8 and abs(z) <= 3.0
        details.append(f"k={k}: {measured:.4f} vs {predicted:.4f} z={z:+.2f}")
    _report(11, "decoherence from the simulated noise", ok, "; ".join(details))

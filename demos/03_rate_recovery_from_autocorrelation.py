"""Recover the relaxation rate of a simulated mode from its lag-1 autocorrelation.

A stationary mode trajectory sampled every dt is an AR(1) series whose lag-1
autocorrelation is e^(-gamma_k dt), so -ln(rho_1)/dt returns gamma_k.  This is
the estimate that `simulate` reports and `fdr-verify` gates, summed here as
there, one chunk of the history at a time.
"""

import math

from thermodeco import MediumParams, SimConfig, relaxation_rate
from thermodeco.langevin import simulate_chunks
from thermodeco.stats import StreamStats

params = MediumParams(T0=2.0, c0=4.0, D0=0.5)
k = 3.0
gamma = relaxation_rate(params, k)

cfg = SimConfig(dt=0.01, t_end=5_000.0, seed=1, initial="sample-equilibrium")
stats = StreamStats()
for chunk in simulate_chunks(params, k, cfg):
    stats.add(chunk)
fitted = stats.lag1_rate(cfg.dt)

alpha = math.exp(-gamma * cfg.dt)
# Bartlett's sd of rho_1 for an AR(1) series, through -ln(rho_1)/dt by the delta method
sd_rate = math.sqrt((1.0 - alpha * alpha) / stats.n) / (alpha * cfg.dt)

print(f"mode k={k}: expected rate D0 k^2 / c0 = {gamma}")
print(f"lag-1 correlation rho_1 = {stats.lag1 / stats.sum_sq:.6f} "
      f"(expected e^(-gamma dt) = {alpha:.6f})")
print(f"rate -ln(rho_1)/dt from {stats.n:,} samples: {fitted:.4f} "
      f"(relative error {abs(fitted - gamma) / gamma:.2%}, "
      f"z = {(fitted - gamma) / sd_rate:+.2f} against sd {sd_rate:.4f})")

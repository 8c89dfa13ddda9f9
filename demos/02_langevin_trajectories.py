"""Simulate one mode with both steppers and verify the stationary variance.

The exact one-step transition law is unbiased at any dt; Euler-Maruyama
overshoots the stationary variance by O(dt).  With the noise switched off
both reduce to the deterministic exponential decay.
"""

import numpy as np

from thermodeco import (
    MediumParams,
    SimConfig,
    deterministic_decay,
    simulate_mode,
)

params = MediumParams(T0=1.0, c0=1.0, D0=1.0)
k = 1.0

# deterministic limit: noise_scale=0 recovers x0 e^(-gamma t)
cfg0 = SimConfig(dt=0.1, t_end=3.0, seed=1, initial=1.0, noise_scale=0.0)
hist = simulate_mode(params, k, cfg0)
times = np.arange(hist.size) * cfg0.dt
oracle = np.array([deterministic_decay(params, k, 1.0, t) for t in times])
print("zero-noise run vs analytic decay, max |error|:",
      float(np.max(np.abs(hist - oracle))))

# stationary statistics for both steppers
for method in ("exact-ou", "euler-maruyama"):
    cfg = SimConfig(dt=0.05, t_end=2_000.0, method=method, seed=42,
                    initial="sample-equilibrium")
    hist = simulate_mode(params, k, cfg)
    post = hist[200:]  # burn-in 10 / gamma
    print(f"{method:>16}: stationary variance = {np.var(post, ddof=1):.4f} "
          f"(target 1.0, Euler bias ~ gamma dt / 2 = {0.05 / 2:.3f})")

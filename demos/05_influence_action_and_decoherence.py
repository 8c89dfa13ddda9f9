"""Influence action on a pair of thermal histories and the decoherence scan.

The action over two branch histories has a dissipative real part, odd
under branch swap, and a non-negative noise part, even under swap.
Exponentiating twice the noise part gives the decoherence magnitude:
per-mode exponents scale as 1/k^2, so long-wavelength (nearly conserved)
modes are decohered most efficiently, and the exactly conserved k = 0
mode is fully decohered by any branch difference.
"""

import numpy as np

from thermodeco import (
    HistoryPair,
    MediumParams,
    antisymmetry_residual,
    decoherence_scan,
    influence_action,
)

params = MediumParams(T0=1.0, c0=1.0, D0=1.0)

# two random histories of the same mode
rng = np.random.default_rng(3)
n, dt, k = 50, 0.1, 1.0
pair = HistoryPair(
    ks=[k],
    dt=dt,
    branch1=rng.normal(size=(1, n)),
    branch2=rng.normal(size=(1, n)),
    weights=[1.0],
)
val = influence_action(params, pair)
print(f"influence action: dissipative part {val.real:+.4f}, noise part {val.imag:.4f} (>= 0)")
print(f"branch-swap antisymmetry residual: {antisymmetry_residual(params, pair):.2e}")
print()

rows = decoherence_scan(params, [0.0, 0.5, 1.0, 2.0, 4.0], amplitude=0.1, duration=10.0)
print(f"{'k':>5} {'exponent':>12} {'|D|^2':>10}  conserved")
for k, exponent, magnitude, conserved in rows:
    print(f"{k:5.2f} {exponent:12.5g} {magnitude:10.5f}  {conserved}")
print()
print("exponent grows as 1/k^2 toward small k: the conserved row is")
print("infinitely decohered, the shortest wavelength barely at all.")

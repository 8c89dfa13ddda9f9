"""Closed-form coefficients of a heat-diffusing medium.

Every mode k of a temperature perturbation relaxes at rate
gamma_k = D0 k^2 / c0 and is kicked by white noise of strength
Gamma_k = D0 k^2 T0^2 / c0^2.  Their ratio is the k-independent
equilibrium variance T0^2 / c0 (the Einstein relation), and the
conserved k = 0 mode has zero rate and zero noise.
"""

import numpy as np

from thermodeco import (
    MediumParams,
    coupling_constant,
    equilibrium_mode_variance,
    noise_strength,
    relaxation_rate,
)

params = MediumParams(T0=2.0, c0=4.0, D0=0.5)
print(f"medium: T0={params.T0}, c0={params.c0}, D0={params.D0}")
print(f"equilibrium mode variance T0^2/c0 = {equilibrium_mode_variance(params)}")
print()
print(f"{'k':>6} {'gamma_k':>12} {'Gamma_k':>12} {'Gamma/gamma':>12} {'A_k':>12}")
ks = np.array([0.0, 0.5, 1.0, 2.0, 4.0])
g = relaxation_rate(params, ks)
G = noise_strength(params, ks)
damped = ks > 0
ratio = np.divide(G, g, out=np.full_like(ks, np.nan), where=damped)
a_k = np.full_like(ks, np.inf)
a_k[damped] = coupling_constant(params, ks[damped])  # A_k diverges on the conserved mode
for row in zip(ks, g, G, ratio, a_k):
    print("{:6.2f} {:12.6f} {:12.6f} {:12.6f} {:12.6f}".format(*row))

print()
print("note: Gamma/gamma is the same for every k > 0, and the k = 0 row is")
print("exactly conserved: no relaxation, no noise.")

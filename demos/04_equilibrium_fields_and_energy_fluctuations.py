"""Sample equilibrium lattice fields and check the global fluctuation laws.

Equilibrium fields are exact Gaussian draws from exp(-beta0 * dF).  The
total-energy fluctuation variance must equal the heat capacity V c0 times
T0^2, each site carries mean free energy T0/2 (equipartition), and the
lattice transform satisfies Parseval's identity to round-off.
"""

import numpy as np

from thermodeco import (
    LatticeField,
    MediumParams,
    NoiseStream,
    mean_free_energy,
    parseval_check,
    sample_equilibrium_field,
    total_energy_fluctuation,
)

params = MediumParams(T0=1.0, c0=1.0, D0=1.0)
template = LatticeField.zeros(d=1, extents=64, spacing=1.0)
stream = NoiseStream(seed=7)

n = 20_000
ensemble = sample_equilibrium_field(params, template, stream, n)  # values shaped (n, 64)

st = total_energy_fluctuation(params, ensemble)
expected = template.volume * params.c0 * params.T0 ** 2
print(f"<(dU)^2> over {n:,} fields: {st.variance:.3f} +/- {st.stderr_variance:.3f}")
print(f"heat-capacity prediction V c0 T0^2: {expected}")

mean_df = mean_free_energy(params, ensemble)
print(f"mean free-energy cost: {mean_df:.3f} (equipartition: {template.n_sites / 2} = T0/2 per site)")

print(f"worst Parseval residual over 10 fields: "
      f"{max(parseval_check(template.with_values(row)) for row in ensemble.values[:10]):.2e}")

"""Bridge between real-space lattice fields and Fourier-mode amplitudes.

Forward transform carries a 1/N normalization so the zero coefficient is
the spatial mean; Parseval's identity then reads
sum_sites cell_volume * dT^2 = V * sum_modes |c_m|^2.  Also provides exact
equilibrium field sampling from the Gaussian measure exp(-beta0 * dF),
which is site-diagonal on the lattice, and the total-energy fluctuation
statistic whose variance equals the heat capacity times T0^2.  A block of
fields, a LatticeField shaped (n, *extents), is sampled and reduced per field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonHermitianError
from .langevin import NoiseStream
from .medium import LatticeField, MediumParams, _check_dimension, free_energy_change
from .stats import EnsembleStats, sample_variance


@dataclass(frozen=True)
class SpectralField:
    """Complex mode amplitudes of a real lattice field.

    coefficients[m] multiplies e^{+i k_m x} with k_m = 2 pi m / L per axis
    (numpy FFT index convention); Hermitian symmetry guarantees a real
    inverse transform.
    """

    d: int
    extents: tuple
    coefficients: np.ndarray
    lengths: tuple

    def __post_init__(self):
        extents = tuple(int(n) for n in np.atleast_1d(self.extents))
        lengths = tuple(float(x) for x in np.atleast_1d(self.lengths))
        if len(extents) != self.d or len(lengths) != self.d:
            raise ValueError("extents and lengths must have one entry per axis")
        coeff = np.asarray(self.coefficients, dtype=complex).reshape(extents)
        object.__setattr__(self, "extents", extents)
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "coefficients", coeff)

    @property
    def volume(self) -> float:
        return float(np.prod(self.lengths))


def to_modes(fld: LatticeField) -> SpectralField:
    """Forward transform: c_m = (1/N) sum_j dT(x_j) e^{-i k_m x_j}, of one field."""
    if fld.values.ndim != fld.d:
        raise ValueError("to_modes transforms one field, not an ensemble")
    coeff = np.fft.fftn(fld.values) / fld.n_sites
    lengths = tuple(n * a for n, a in zip(fld.extents, fld.spacing))
    return SpectralField(d=fld.d, extents=fld.extents, coefficients=coeff, lengths=lengths)


IMAG_TOL = 1e-12


def from_modes(spec: SpectralField) -> LatticeField:
    """Inverse transform dT(x_j) = sum_m c_m e^{+i k_m x_j}.

    Verifies the result is real to within IMAG_TOL (relative to the field
    magnitude) before discarding the imaginary residue; raises
    NonHermitianError otherwise.
    """
    n_total = int(np.prod(spec.extents))
    arr = np.fft.ifftn(spec.coefficients) * n_total
    scale = max(1.0, float(np.max(np.abs(arr.real))))
    if float(np.max(np.abs(arr.imag))) > IMAG_TOL * scale:
        raise NonHermitianError("spectrum is not Hermitian-symmetric; inverse not real")
    spacing = tuple(length / n for n, length in zip(spec.extents, spec.lengths))
    return LatticeField(d=spec.d, extents=spec.extents, spacing=spacing, values=arr.real)


def parseval_check(fld: LatticeField) -> float:
    """Relative mismatch between the site-sum and mode-sum quadratic norms."""
    lhs = fld.cell_volume * float(np.sum(fld.values ** 2))
    spec = to_modes(fld)
    c = spec.coefficients
    # |c|^2 from products, each correctly rounded: complex abs picks its SIMD loop per CPU
    rhs = spec.volume * float(np.sum(c.real * c.real + c.imag * c.imag))
    denom = max(lhs, rhs, float(np.finfo(float).tiny))
    return abs(lhs - rhs) / denom


def equilibrium_site_variance(params: MediumParams, template: LatticeField) -> float:
    """Variance T0^2 / (c0 * cell_volume) of each site under exp(-beta0 * dF)."""
    return params.T0 ** 2 / (params.c0 * template.cell_volume)


def equilibrium_energy_variance(params: MediumParams, template: LatticeField) -> float:
    """Equilibrium <dU^2> = V * c0 * T0^2, the heat capacity times T0^2."""
    return template.volume * params.c0 * params.T0 ** 2


def sample_equilibrium_field(
    params: MediumParams, template: LatticeField, stream: NoiseStream, n_fields: int = 1,
    noise_scale: float = 1.0,
) -> LatticeField:
    """Exact draws from exp(-beta0 * dF), iid site Gaussians of variance T0^2 / (c0 *
    cell_volume): one (n_fields, *extents) block, the Philox sequence of n_fields draws.

    ``noise_scale`` multiplies the site variance, as it multiplies Gamma_k in
    the Langevin runs; values != 1 sample a wrong equilibrium on purpose.
    """
    _check_dimension(params, template)
    if noise_scale < 0:
        raise ValueError("noise_scale must be non-negative")
    sigma = np.sqrt(equilibrium_site_variance(params, template) * noise_scale)
    return template.with_values(sigma * stream.normal((n_fields, *template.extents)))


def total_energy_change(params: MediumParams, fld: LatticeField):
    """Total energy perturbation dU = c0 * sum_sites cell_volume * dT, per field."""
    _check_dimension(params, fld)
    return params.c0 * fld.cell_volume * fld.site_sum(fld.values)


def total_energy_fluctuation(params: MediumParams, fields: LatticeField) -> EnsembleStats:
    """Variance statistics of dU over an ensemble; expectation V * c0 * T0^2."""
    return sample_variance(total_energy_change(params, fields))


def mean_free_energy(params: MediumParams, fields: LatticeField) -> float:
    """Ensemble mean of the free-energy cost; equals n_sites * T0 / 2 in equilibrium."""
    return float(np.mean(free_energy_change(params, fields)))

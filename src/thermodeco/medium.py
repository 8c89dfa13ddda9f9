"""Background thermodynamic state and closed-form kinetic coefficients.

Everything downstream (relaxation rates, noise strengths, coupling
constants, the free-energy functional and the equilibrium measure) is a
closed-form function of the background state: temperature T0, specific
heat c0, diffusion constant D0, and the spatial dimension.  Boltzmann's
constant is 1 throughout; all quantities are in self-consistent natural
units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, SingularModeError


@dataclass(frozen=True)
class MediumParams:
    """Uniform background state of the heat-conducting medium.

    T0: background temperature (> 0)
    c0: specific heat per unit volume at T0 (> 0)
    D0: heat diffusion constant (> 0)
    d:  spatial dimension (1, 2 or 3)
    """

    T0: float
    c0: float
    D0: float
    d: int = 1
    beta0: float = field(init=False)

    def __post_init__(self):
        if not (self.T0 > 0 and self.c0 > 0 and self.D0 > 0):
            raise ValueError("T0, c0 and D0 must all be positive")
        if not 1 <= self.d <= 3:
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.d}")
        object.__setattr__(self, "beta0", 1.0 / self.T0)


@dataclass(frozen=True)
class ModeSpec:
    """A single Fourier mode: wavenumber magnitude plus its quadrature weight.

    The weight represents the mode-space measure attached to this mode, so
    mode sums approximate mode integrals when weights are chosen accordingly.
    """

    k: float
    weight: float = 1.0

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("wavenumber must be non-negative")
        if not self.weight > 0:
            raise ValueError("quadrature weight must be positive")


@dataclass(frozen=True)
class LatticeField:
    """Real-space temperature perturbation on a uniform periodic lattice.

    extents: grid points per axis; spacing: lattice spacing per axis (a
    scalar is broadcast to all axes); values: real amplitudes at each site,
    shaped like ``extents``, or ``(n, *extents)`` for an ensemble of n
    fields.  n_sites, cell_volume and volume are per field.
    """

    d: int
    extents: tuple
    spacing: tuple
    values: np.ndarray

    def __post_init__(self):
        extents = tuple(int(n) for n in np.atleast_1d(self.extents))
        spacing = np.atleast_1d(self.spacing).astype(float)
        if spacing.size == 1:
            spacing = np.repeat(spacing, len(extents))
        spacing = tuple(float(a) for a in spacing)
        if len(extents) != self.d or len(spacing) != self.d:
            raise ValueError("extents and spacing must have one entry per axis")
        if any(n < 1 for n in extents):
            raise ValueError("all extents must be >= 1")
        if any(a <= 0 for a in spacing):
            raise ValueError("lattice spacing must be positive")
        values = np.asarray(self.values, dtype=float)
        one_field = values.size == math.prod(extents)  # an ensemble of one is one field
        values = values.reshape(extents if one_field else (*values.shape[:1], *extents))
        object.__setattr__(self, "extents", extents)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "values", values)

    @property
    def n_sites(self) -> int:
        return math.prod(self.extents)

    @property
    def cell_volume(self) -> float:
        return math.prod(self.spacing)

    @property
    def volume(self) -> float:
        return math.prod(n * a for n, a in zip(self.extents, self.spacing))

    def site_sum(self, x: np.ndarray):
        """Sum of ``x``, shaped like ``values``, over the sites: a float, or (n,) for n fields."""
        sums = np.sum(x, axis=tuple(range(-self.d, 0)))
        return float(sums) if sums.ndim == 0 else sums

    def with_values(self, values: np.ndarray) -> "LatticeField":
        """Same geometry, new site values."""
        return LatticeField(self.d, self.extents, self.spacing, values)

    @staticmethod
    def zeros(d: int, extents, spacing) -> "LatticeField":
        shape = tuple(int(n) for n in np.atleast_1d(extents))
        return LatticeField(d, shape, spacing, np.zeros(shape))


def relaxation_rate(params: MediumParams, k: float) -> float:
    """Decay rate gamma_k = D0 k^2 / c0 of mode k; exactly 0 for k = 0."""
    if k < 0:
        raise ValueError("wavenumber must be non-negative")
    if k == 0.0:
        return 0.0
    return params.D0 * k * k / params.c0


def noise_strength(params: MediumParams, k: float) -> float:
    """Noise strength Gamma_k = D0 k^2 T0^2 / c0^2; zero on the conserved mode."""
    if k < 0:
        raise ValueError("wavenumber must be non-negative")
    if k == 0.0:
        return 0.0
    return params.D0 * k * k * params.T0 ** 2 / params.c0 ** 2


def coupling_constant(params: MediumParams, k: float) -> float:
    """Coupling A_k = c0^2 / (D0 k^2 T0), equivalently T0 / Gamma_k.

    Diverges on the conserved mode: k = 0 raises SingularModeError.
    """
    if k <= 0:
        raise SingularModeError("coupling constant diverges at k = 0")
    return params.c0 ** 2 / (params.D0 * k * k * params.T0)


def equilibrium_mode_variance(params: MediumParams) -> float:
    """Equilibrium variance T0^2 / c0 of a single mode amplitude (k-independent)."""
    return params.T0 ** 2 / params.c0


def _check_dimension(params: MediumParams, fld: LatticeField):
    if fld.d != params.d:
        raise DimensionMismatchError(
            f"field dimension {fld.d} != medium dimension {params.d}"
        )


def free_energy_change(params: MediumParams, fld: LatticeField):
    """Quadratic free-energy cost of a temperature perturbation.

    Lattice form of the spatial integral of c0/(2 T0) * dT^2, with the
    cell volume as quadrature weight.  Non-negative; zero iff the field
    vanishes identically.  A float, or an (n,) array for an ensemble.
    """
    _check_dimension(params, fld)
    return params.c0 / (2.0 * params.T0) * fld.cell_volume * fld.site_sum(fld.values ** 2)


def free_energy_hessian(
    params: MediumParams, fld: LatticeField, step: float | None = None
) -> np.ndarray:
    """Finite-difference Hessian of free_energy_change at the given field.

    Central differences with the supplied step; default step is
    1e-3 * max(1, max|dT|).  Returns an (n_sites, n_sites) matrix.
    """
    f0 = free_energy_change(params, fld)  # checks the dimension first
    if step is None:
        step = 1e-3 * max(1.0, float(np.max(np.abs(fld.values))) if fld.n_sites else 1.0)
    if not step > 0:
        raise ValueError("step must be positive")

    base = fld.values.ravel()
    n = base.size

    def f(shifts):
        """Free energy of base + each row of shifts (at least 2 rows)."""
        return free_energy_change(params, fld.with_values(base + shifts))

    unit = step * np.eye(n)
    fp, fm = f(np.concatenate([unit, -unit])).reshape(2, n)
    hess = np.diag((fp - 2.0 * f0 + fm) / step ** 2)
    for i in range(n - 1):
        ui, uj = unit[i], unit[i + 1:]
        fpp, fpm, fmp, fmm = f(np.concatenate([ui + uj, ui - uj, uj - ui, -ui - uj])).reshape(4, -1)
        hess[i, i + 1:] = hess[i + 1:, i] = (fpp - fpm - fmp + fmm) / (4.0 * step ** 2)
    return hess

"""Influence action over pairs of thermal histories and decoherence exponents.

The action is a functional of two branch histories: its real part is the
dissipative pairing of the branch difference with the drift of the branch
sum, its imaginary part a non-negative noise term quadratic in the
difference.  Exponentiating twice the imaginary part gives the squared
magnitude of the decoherence functional, exp(-sum over modes and time of
2 c0^2/(D0 k^2) * [dT_k]^2): smaller k decoheres faster, and the
conserved k = 0 mode is exactly decohered for any branch difference.

Discretization: central time differences (one-sided at the endpoints)
preserve the exact odd/even parity of the two terms under branch swap, so
the antisymmetry A[1,2] = -conj(A[2,1]) holds to round-off; time integrals
are left-Riemann sums, mode integrals use the explicit ModeSpec weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatchError, SingularModeError
from .langevin import ModeHistory, drift_residual
from .medium import (
    MediumParams,
    ModeSpec,
    coupling_constant,
    relaxation_rate,
)


@dataclass(frozen=True)
class HistoryPair:
    """Two branch histories over identical mode sets and time grids.

    branch1[m] and branch2[m] are ModeHistory objects for the same mode;
    weights[m] is the mode-space quadrature weight.
    """

    branch1: tuple
    branch2: tuple
    weights: tuple

    def __post_init__(self):
        b1 = tuple(self.branch1)
        b2 = tuple(self.branch2)
        w = tuple(float(x) for x in np.atleast_1d(self.weights))
        if not (len(b1) == len(b2) == len(w)) or not b1:
            raise GridMismatchError("branches and weights must be non-empty and equal length")
        for h1, h2 in zip(b1, b2):
            if h1.k != h2.k or h1.dt != h2.dt or len(h1) != len(h2):
                raise GridMismatchError("branches must share mode, dt and length")
        if any(x <= 0 for x in w):
            raise ValueError("mode weights must be positive")
        object.__setattr__(self, "branch1", b1)
        object.__setattr__(self, "branch2", b2)
        object.__setattr__(self, "weights", w)

    def swapped(self) -> "HistoryPair":
        return HistoryPair(self.branch2, self.branch1, self.weights)

    def modes(self):
        return [h.k for h in self.branch1]


@dataclass(frozen=True)
class InfluenceValue:
    """Influence action split into dissipative (real) and noise (imaginary >= 0) parts."""

    real: float
    imag: float

    def as_complex(self) -> complex:
        return complex(self.real, self.imag)


@dataclass(frozen=True)
class DecoherenceResult:
    """Per-mode and total decoherence exponents with magnitude e^(-total)."""

    k_values: tuple
    per_mode: tuple
    total_exponent: float
    magnitude: float
    conserved_mode_diverged: bool


def dissipation_kernel_apply(
    params: MediumParams, k: float, history: ModeHistory
) -> np.ndarray:
    """Dissipation kernel applied to a history: A_k (d/dt + gamma_k) dT_k.

    Shares the discrete drift operator with the Langevin stepper module;
    annihilates the deterministic decay solution to O(dt^2) on interior
    samples.
    """
    if k <= 0:
        raise SingularModeError("dissipation kernel diverges at k = 0")
    return coupling_constant(params, k) * drift_residual(params, k, history)


def noise_kernel_amplitude(params: MediumParams, k: float) -> float:
    """Delta-correlated noise kernel amplitude N_k = 2 Gamma_k A_k^2 = 2 c0^2 / (D0 k^2)."""
    if k <= 0:
        raise SingularModeError("noise kernel diverges at k = 0")
    return 2.0 * params.c0 ** 2 / (params.D0 * k ** 2)


def _left_sum_sq(diff: np.ndarray) -> float:
    """Left-Riemann sum of squares over all samples but the last (0.0 for one sample)."""
    return float(np.dot(diff[:-1], diff[:-1]))


def _noise_functional(params: MediumParams, k: float, weight: float, dt: float,
                      sum_sq: float) -> float:
    """Noise functional w_k dt N_k sum_n [dT_k]_n^2 of one mode, given that sum of squares.

    Twice the mode's share of Im A and its decoherence exponent; k > 0.
    """
    return weight * dt * noise_kernel_amplitude(params, k) * sum_sq


def influence_action(params: MediumParams, pair: HistoryPair) -> InfluenceValue:
    """Evaluate the influence action over a history pair.

    Re = 1/2 sum_k w_k sum_n dt [dT]_n A_k (D_c{dT}_n + gamma_k {dT}_n)
    Im = 1/2 sum_k w_k sum_n dt N_k [dT]_n^2                  (>= 0)
    with D_c the central time difference, N_k the noise kernel amplitude
    and left-Riemann time sums.
    """
    re = 0.0
    im = 0.0
    for h1, h2, w in zip(pair.branch1, pair.branch2, pair.weights):
        k = h1.k
        if k <= 0:
            raise SingularModeError("influence action requires all k > 0")
        dt = h1.dt
        diff = h1.values - h2.values
        total = ModeHistory(k=k, dt=dt, values=h1.values + h2.values)
        dissipation = dissipation_kernel_apply(params, k, total)
        # left-Riemann: drop the final sample of the integrands
        re += w * 0.5 * dt * float(np.dot(diff[:-1], dissipation[:-1]))
        im += 0.5 * _noise_functional(params, k, w, dt, _left_sum_sq(diff))
    return InfluenceValue(real=re, imag=im)


def antisymmetry_residual(params: MediumParams, pair: HistoryPair) -> float:
    """|A[1,2] + conj(A[2,1])|; exactly zero up to round-off for any pair."""
    a12 = influence_action(params, pair).as_complex()
    a21 = influence_action(params, pair.swapped()).as_complex()
    return abs(a12 + a21.conjugate())


def static_free_energy_identity(
    params: MediumParams, modes: list[ModeSpec], amps1, amps2
) -> float:
    """Residual of the imaginary-time constraint that fixes A_k.

    For time-independent branch configurations the dissipative integrand
    per unit time, sum_k w_k (1/2) A_k gamma_k (a1^k^2 - a2_k^2), must equal
    the free-energy difference density sum_k w_k (c0/2T0)(a1_k^2 - a2_k^2).
    Since A_k gamma_k = c0/T0 identically, the relative mismatch is pure
    round-off.  Normalized by the absolute-term sum to avoid cancellation
    blow-up.
    """
    a1 = np.asarray(amps1, dtype=float)
    a2 = np.asarray(amps2, dtype=float)
    if not (len(modes) == a1.size == a2.size):
        raise GridMismatchError("modes and amplitude lists must have equal length")
    lhs = 0.0
    rhs = 0.0
    scale = 0.0
    for spec, x1, x2 in zip(modes, a1, a2):
        if spec.k <= 0:
            raise SingularModeError("static identity requires all k > 0")
        quad = x1 * x1 - x2 * x2
        lhs += spec.weight * 0.5 * coupling_constant(params, spec.k) * relaxation_rate(params, spec.k) * quad
        term = spec.weight * params.c0 / (2.0 * params.T0) * quad
        rhs += term
        scale += abs(spec.weight) * params.c0 / (2.0 * params.T0) * (x1 * x1 + x2 * x2)
    denom = max(scale, np.finfo(float).tiny)
    return abs(lhs - rhs) / denom


def decoherence_exponent(params: MediumParams, pair: HistoryPair) -> DecoherenceResult:
    """Per-mode exponents w_k sum_n dt N_k [dT_k]_n^2, N_k the noise kernel amplitude.

    A k = 0 mode with any nonzero branch difference contributes +inf and
    sets the conserved-mode flag (magnitude 0: exactly decohered).
    """
    ks = []
    per_mode = []
    conserved = False
    for h1, h2, w in zip(pair.branch1, pair.branch2, pair.weights):
        diff = h1.values - h2.values
        ks.append(h1.k)
        if h1.k == 0.0:
            if np.any(diff != 0.0):
                per_mode.append(math.inf)
                conserved = True
            else:
                per_mode.append(0.0)
            continue
        per_mode.append(_noise_functional(params, h1.k, w, h1.dt, _left_sum_sq(diff)))
    total = math.inf if conserved else float(sum(per_mode))
    magnitude = 0.0 if math.isinf(total) else math.exp(-total)
    return DecoherenceResult(
        k_values=tuple(ks),
        per_mode=tuple(per_mode),
        total_exponent=total,
        magnitude=magnitude,
        conserved_mode_diverged=conserved,
    )


def decoherence_scan(
    params: MediumParams,
    k_values,
    amplitude: float,
    duration: float,
    n_steps: int = 100,
) -> list[tuple[float, float, float, bool]]:
    """Exponent and magnitude per k for a constant branch difference.

    The rows are those of ``decoherence_exponent`` on the pair with branch
    difference ``amplitude`` held over ``duration`` (unit mode weight):
    (k, exponent, magnitude, conserved_flag) sorted ascending in k.  The
    difference is the same for every k, so its sum of squares is taken
    once; a k = 0 row is (0.0, inf, 0.0, True).
    """
    if not amplitude > 0:
        raise ValueError("amplitude must be positive")
    if not duration > 0:
        raise ValueError("duration must be positive")
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    dt = duration / n_steps
    sum_sq = _left_sum_sq(np.full(n_steps + 1, amplitude))
    rows = []
    for k in sorted(float(k) for k in k_values):
        if k == 0.0:
            rows.append((k, math.inf, 0.0, True))
        else:
            exponent = _noise_functional(params, k, 1.0, dt, sum_sq)
            rows.append((k, exponent, math.exp(-exponent), False))
    return rows

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
are left-Riemann sums, mode integrals use explicit per-mode weights.
Each branch is one (modes x samples) array, and every mode is evaluated
at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError
from .langevin import ModeHistory, _drift_operator, drift_residual
from .medium import MediumParams, coupling_constant, noise_kernel_amplitude, relaxation_rate

# a decoherence scan: one row per wavenumber, the table deco-scan writes
DECO_DTYPE = np.dtype([("k", float), ("exponent", float), ("magnitude", float),
                       ("conserved_flag", bool)])


@dataclass(frozen=True)
class HistoryPair:
    """Two branch histories of the same modes on one time grid t_n = n dt.

    ks and weights are (n_modes,) arrays of wavenumbers and positive mode-space
    quadrature weights; branch1 and branch2 are (n_modes, n) arrays whose row m
    is the history of mode ks[m] in that branch.
    """

    ks: np.ndarray
    dt: float
    branch1: np.ndarray
    branch2: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        ks, b1, b2, w = (np.asarray(x, dtype=float)
                         for x in (self.ks, self.branch1, self.branch2, self.weights))
        if not (ks.ndim == 1 and w.shape == ks.shape and b1.ndim == 2
                and b1.shape[0] == ks.size and b2.shape == b1.shape):
            raise GridMismatchError("branches must be (len(ks), n) arrays of one shape and "
                                    "weights one per wavenumber")
        if ks.size == 0 or b1.shape[1] == 0:
            raise ValueError("a pair needs at least one mode and one sample")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not (np.all(np.isfinite(b1)) and np.all(np.isfinite(b2))):
            raise ValueError("history contains non-finite entries")
        if not np.all(w > 0):
            raise ValueError("mode weights must be positive")
        for name, value in zip(("ks", "dt", "branch1", "branch2", "weights"),
                               (ks, float(self.dt), b1, b2, w)):
            object.__setattr__(self, name, value)

    def swapped(self) -> "HistoryPair":
        return HistoryPair(self.ks, self.dt, self.branch2, self.branch1, self.weights)


@dataclass(frozen=True)
class InfluenceValue:
    """Influence action split into dissipative (real) and noise (imaginary >= 0) parts."""

    real: float
    imag: float

    def as_complex(self) -> complex:
        return complex(self.real, self.imag)


@dataclass(frozen=True)
class DecoherenceResult:
    """Per-mode exponents as an (n_modes,) array, their total and the magnitude e^(-total)."""

    per_mode: np.ndarray
    total_exponent: float
    magnitude: float
    conserved_mode_diverged: bool


def dissipation_kernel_apply(
    params: MediumParams, k: float, history: ModeHistory
) -> np.ndarray:
    """Dissipation kernel applied to a history: A_k (d/dt + gamma_k) dT_k.

    Shares the discrete drift operator with the Langevin stepper module;
    annihilates the deterministic decay solution to O(dt^2) on interior
    samples.  k = 0 raises SingularModeError, as A_k diverges there.
    """
    return coupling_constant(params, k) * drift_residual(params, k, history)


def _left_dot(a: np.ndarray, b: np.ndarray):
    """Left-Riemann sum of a_n b_n along the last axis, all samples but the last (0 for one).

    One sum per row, each summed as np.dot sums a pair of vectors.
    """
    return (a[..., None, :-1] @ b[..., :-1, None])[..., 0, 0]


def _noise_functional(params: MediumParams, ks, weights, dt: float, sum_sq):
    """Noise functional w_k dt N_k sum_n [dT_k]_n^2 per mode, given those sums of squares.

    Twice the mode's share of Im A and its decoherence exponent; all k > 0.
    """
    return weights * dt * noise_kernel_amplitude(params, ks) * sum_sq


def influence_action(params: MediumParams, pair: HistoryPair) -> InfluenceValue:
    """Evaluate the influence action over a history pair.

    Re = 1/2 sum_k w_k sum_n dt [dT]_n A_k (D_c{dT}_n + gamma_k {dT}_n)
    Im = 1/2 sum_k w_k sum_n dt N_k [dT]_n^2                  (>= 0)
    with D_c the central time difference, N_k the noise kernel amplitude
    and left-Riemann time sums.  Im is half the decoherence exponent.
    """
    coupling = coupling_constant(params, pair.ks)[:, None]  # SingularModeError at k = 0
    rate = relaxation_rate(params, pair.ks)[:, None]
    diff = pair.branch1 - pair.branch2
    # a mode whose branches agree over the sum contributes 0, also where A_k is inf
    live = np.any(diff[:, :-1] != 0.0, axis=-1)
    dissipation = coupling[live] * _drift_operator((pair.branch1 + pair.branch2)[live], pair.dt,
                                                   rate[live])
    re = pair.weights[live] * 0.5 * pair.dt * _left_dot(diff[live], dissipation)
    return InfluenceValue(real=sum(re.tolist(), 0.0),
                          imag=0.5 * decoherence_exponent(params, pair).total_exponent)


def antisymmetry_residual(params: MediumParams, pair: HistoryPair) -> float:
    """|A[1,2] + conj(A[2,1])|; exactly zero up to round-off for any pair."""
    a12 = influence_action(params, pair).as_complex()
    a21 = influence_action(params, pair.swapped()).as_complex()
    return abs(a12 + a21.conjugate())


def static_free_energy_identity(params: MediumParams, ks, weights, amps1, amps2) -> float:
    """Residual of the imaginary-time constraint that fixes A_k.

    For time-independent branch configurations the dissipative integrand
    per unit time, sum_k w_k (1/2) A_k gamma_k (a1^k^2 - a2_k^2), must equal
    the free-energy difference density sum_k w_k (c0/2T0)(a1_k^2 - a2_k^2),
    w_k the positive mode weights.  Since A_k gamma_k = c0/T0 identically,
    the relative mismatch is pure round-off.  Normalized by the
    absolute-term sum to avoid cancellation blow-up.
    """
    ks, w, a1, a2 = (np.asarray(x, dtype=float) for x in (ks, weights, amps1, amps2))
    if not (ks.size == w.size == a1.size == a2.size):
        raise GridMismatchError("wavenumbers, weights and amplitude lists must have equal length")
    if np.any(w <= 0):
        raise ValueError("mode weights must be positive")
    a_gamma = coupling_constant(params, ks) * relaxation_rate(params, ks)  # singular at k = 0
    quad = a1 * a1 - a2 * a2
    density = w * params.c0 / (2.0 * params.T0)
    lhs = np.sum(w * 0.5 * a_gamma * quad)
    rhs = np.sum(density * quad)
    scale = np.sum(density * (a1 * a1 + a2 * a2))
    return float(abs(lhs - rhs) / max(scale, np.finfo(float).tiny))


def decoherence_exponent(params: MediumParams, pair: HistoryPair) -> DecoherenceResult:
    """Per-mode exponents w_k sum_n dt N_k [dT_k]_n^2, N_k the noise kernel amplitude.

    A k = 0 mode with any nonzero branch difference contributes +inf and sets the
    conserved-mode flag (magnitude 0); one whose difference sums to 0 contributes 0.
    """
    diff = pair.branch1 - pair.branch2
    sum_sq = _left_dot(diff, diff)
    damped = pair.ks != 0.0
    diverged = ~damped & np.any(diff != 0.0, axis=-1)
    per_mode = np.where(diverged, math.inf, 0.0)
    live = damped & (sum_sq != 0.0)
    per_mode[live] = _noise_functional(params, pair.ks[live], pair.weights[live], pair.dt,
                                       sum_sq[live])
    total = sum(per_mode.tolist())
    return DecoherenceResult(per_mode=per_mode, total_exponent=total,
                             magnitude=math.exp(-total),
                             conserved_mode_diverged=bool(diverged.any()))


def decoherence_scan(
    params: MediumParams,
    k_values,
    amplitude: float,
    duration: float,
    n_steps: int = 100,
) -> np.ndarray:
    """Exponent and magnitude per k for a constant branch difference, as a DECO_DTYPE table.

    Row m is that of ``decoherence_exponent`` on the one-mode pair at the m-th
    smallest k with branch difference ``amplitude`` held over ``duration``
    (unit mode weight): (k, exponent, magnitude, conserved_flag).  The
    difference is the same for every k, so its sum of squares is taken once;
    a k = 0 row is (0.0, inf, 0.0, True).
    """
    if not amplitude > 0:
        raise ValueError("amplitude must be positive")
    if not duration > 0:
        raise ValueError("duration must be positive")
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    dt = duration / n_steps
    difference = np.full(n_steps + 1, amplitude)
    sum_sq = _left_dot(difference, difference)
    # the table first, below the temporaries: freed, they leave no holes under it in the heap
    rows = np.empty(len(k_values), dtype=DECO_DTYPE)
    rows["k"] = np.sort(np.asarray(k_values, dtype=float))
    rows["conserved_flag"] = conserved = rows["k"] == 0.0
    rows["exponent"] = math.inf
    if not conserved.all():  # N_k, and c0^2 in it, only where a damped mode needs it
        rows["exponent"][~conserved] = _noise_functional(params, rows["k"][~conserved], 1.0, dt,
                                                         sum_sq)
    rows["magnitude"] = [math.exp(-e) for e in rows["exponent"].tolist()]
    return rows

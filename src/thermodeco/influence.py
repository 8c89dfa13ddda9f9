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
from functools import lru_cache

import numpy as np

from .errors import GridMismatchError
from .langevin import drift_residual
from .medium import MediumParams, coupling_constant, noise_kernel_amplitude, relaxation_rate
from .stats import _dot

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
class DecoherenceResult:
    """Per-mode exponents as an (n_modes,) array, their total and the magnitude e^(-total)."""

    per_mode: np.ndarray
    total_exponent: float
    magnitude: float
    conserved_mode_diverged: bool


def dissipation_kernel_apply(params: MediumParams, k, x, dt: float) -> np.ndarray:
    """Dissipation kernel applied to a history x sampled at t_n = n dt: A_k (d/dt + gamma_k) x.

    A_k times ``drift_residual``, the drift operator of the Langevin stepper module;
    annihilates the deterministic decay solution to O(dt^2) on interior
    samples.  k = 0 raises SingularModeError, as A_k diverges there.
    """
    return coupling_constant(params, k) * drift_residual(params, k, x, dt)


def _left_dot(a: np.ndarray, b: np.ndarray):
    """Left-Riemann sum of a_n b_n along the last axis, all samples but the last (0 for one).

    Each row is summed on its own by stats._dot, so a sum depends neither on the BLAS thread
    count nor on the other rows (one 2-d einsum splits long rows into buffered pieces).
    """
    if a.ndim == 1:
        return _dot(a[:-1], b[:-1])
    return np.array([_left_dot(x, y) for x, y in zip(a, b)], dtype=float)


def _noise_functional(params: MediumParams, ks, weights, dt: float, sum_sq):
    """Noise functional w_k dt N_k sum_n [dT_k]_n^2 per mode, given those sums of squares.

    Twice the mode's share of Im A and its decoherence exponent; all k > 0.
    """
    return weights * dt * noise_kernel_amplitude(params, ks) * sum_sq


def influence_action(params: MediumParams, pair: HistoryPair) -> complex:
    """Evaluate the influence action over a history pair: its dissipative real part and
    non-negative noise imaginary part.

    Re = 1/2 sum_k w_k sum_n dt [dT]_n A_k (D_c{dT}_n + gamma_k {dT}_n)
    Im = 1/2 sum_k w_k sum_n dt N_k [dT]_n^2                  (>= 0)
    with D_c the central time difference, N_k the noise kernel amplitude
    and left-Riemann time sums.  Im is half the decoherence exponent.
    """
    coupling = coupling_constant(params, pair.ks)[:, None]  # SingularModeError at k = 0
    diff = pair.branch1 - pair.branch2
    # a mode whose branches agree over the sum contributes 0, also where A_k is inf
    live = np.any(diff[:, :-1] != 0.0, axis=-1)
    dissipation = coupling[live] * drift_residual(params, pair.ks[live, None],
                                                  (pair.branch1 + pair.branch2)[live], pair.dt)
    re = pair.weights[live] * 0.5 * pair.dt * _left_dot(diff[live], dissipation)
    return complex(sum(re.tolist(), 0.0), 0.5 * decoherence_exponent(params, pair).total_exponent)


def antisymmetry_residual(params: MediumParams, pair: HistoryPair) -> float:
    """|A[1,2] + conj(A[2,1])|; exactly zero up to round-off for any pair."""
    a12 = influence_action(params, pair)
    a21 = influence_action(params, pair.swapped())
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

    A k = 0 mode whose branch difference is nonzero at a sample of the left-Riemann sum
    (any but the last) contributes +inf and sets the conserved-mode flag (magnitude 0);
    one whose difference is 0 at all of them contributes 0, as at k > 0.
    """
    diff = pair.branch1 - pair.branch2
    sum_sq = _left_dot(diff, diff)
    damped = pair.ks != 0.0
    diverged = ~damped & np.any(diff[:, :-1] != 0.0, axis=-1)
    per_mode = np.where(diverged, math.inf, 0.0)
    live = damped & (sum_sq != 0.0)
    per_mode[live] = _noise_functional(params, pair.ks[live], pair.weights[live], pair.dt,
                                       sum_sq[live])
    total = sum(per_mode.tolist())
    return DecoherenceResult(per_mode=per_mode, total_exponent=total,
                             magnitude=math.exp(-total),
                             conserved_mode_diverged=bool(diverged.any()))


@lru_cache(maxsize=1)
def _constant_sum_sq(amplitude: float, n_steps: int) -> float:
    """The left-Riemann sum of squares of a difference held at amplitude over n_steps + 1
    samples, the same at every k of a scan."""
    difference = np.full(n_steps + 1, amplitude)
    return _left_dot(difference, difference)


def scan_exponents(params: MediumParams, ks: np.ndarray, amplitude: float, duration: float,
                   n_steps: int = 100) -> np.ndarray:
    """The exponent column of ``decoherence_scan``'s rows at the wavenumbers ks, in their order:
    dt N_k sum_n amplitude^2 (unit mode weight), inf at k = 0.  The difference is the same
    for every k, so its sum of squares is taken once, also over the calls of a scan made a
    block of k at a time."""
    if not amplitude > 0:
        raise ValueError("amplitude must be positive")
    if not duration > 0:
        raise ValueError("duration must be positive")
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    exponents = np.full(ks.shape, math.inf)
    if (damped := ks != 0.0).any():  # N_k, and c0^2 in it, only where a damped mode needs it
        exponents[damped] = _noise_functional(params, ks[damped], 1.0, duration / n_steps,
                                              _constant_sum_sq(amplitude, n_steps))
    return exponents


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
    (unit mode weight): (k, exponent, magnitude, conserved_flag), the exponent
    by ``scan_exponents``.  A k = 0 row is (0.0, inf, 0.0, True).
    """
    # the table first, below the temporaries: freed, they leave no holes under it in the heap
    rows = np.empty(len(k_values), dtype=DECO_DTYPE)
    rows["k"] = np.sort(np.asarray(k_values, dtype=float))
    rows["conserved_flag"] = rows["k"] == 0.0
    rows["exponent"] = scan_exponents(params, rows["k"], amplitude, duration, n_steps)
    rows["magnitude"] = np.fromiter(map(math.exp, (-rows["exponent"]).tolist()), float, len(rows))
    return rows

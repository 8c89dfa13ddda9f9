"""Ensemble and time-series estimators for verifying the noise balance.

Variance with error bars, normalized autocorrelation, and exponential
decay-rate fits used to recover gamma_k from simulated data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError
from .langevin import ModeHistory


@dataclass(frozen=True)
class EnsembleStats:
    """Sample mean, unbiased variance, and the Gaussian-assumption standard
    error of the variance estimate."""

    mean: float
    variance: float
    stderr_variance: float
    n: int


@dataclass(frozen=True)
class AcfEstimate:
    """Normalized autocorrelation values at lag times ``lags`` (multiples of dt)."""

    lags: np.ndarray
    values: np.ndarray


def sample_variance(values) -> EnsembleStats:
    """Unbiased variance with stderr = variance * sqrt(2/(n-1)).

    The error bar assumes Gaussian marginals and independent samples.
    """
    x = np.asarray(values, dtype=float).ravel()
    n = x.size
    if n < 2:
        raise InsufficientDataError("need at least 2 samples for a variance")
    var = float(np.var(x, ddof=1))
    return EnsembleStats(
        mean=float(np.mean(x)),
        variance=var,
        stderr_variance=float(var * np.sqrt(2.0 / (n - 1))),
        n=n,
    )


def variance_stderr_correlated(variance: float, n: int, gamma: float, dt: float) -> float:
    """Standard error of the sample variance of consecutive OU samples.

    The squared-fluctuation series has step correlation r = e^(-2 gamma dt),
    giving effective sample size n (1-r)/(1+r).
    """
    r = math.exp(-2.0 * gamma * dt) if gamma > 0 else 1.0
    n_eff = max(n * (1.0 - r) / (1.0 + r), 2.0)
    return variance * math.sqrt(2.0 / n_eff)


# Bounds on the block length of the lag-sum evaluation: short blocks make
# thin, slow matrix products, long ones cost block^2 memory per product.
_MIN_BLOCK = 16
_MAX_BLOCK = 512


def autocorrelation(history: ModeHistory, max_lag: int) -> AcfEstimate:
    """Biased (divide-by-N) normalized autocorrelation of a zero-mean history.

    c(l) = (1/N) sum_n x_n x_{n+l}, normalized by c(0).  No sample-mean
    subtraction: the process mean is zero by construction, and keeping the
    raw moments makes a pure exponential decay its own autocorrelation.
    The 1/N normalization keeps the estimated sequence positive
    semidefinite at the cost of a (N-l)/N bias factor.

    The lag sums come from matrix products rather than one dot product per
    lag: the history is viewed as rows of B consecutive samples
    (B = max_lag, clamped to [16, 512]), and the product of the row block
    with itself and with the rows shifted by 1, 2, ... blocks holds every
    pair x_n x_{n+l} of the blocked samples, lag l on the l-th diagonal.
    The pairs whose later sample falls in the final partial row are added
    with direct dot products.  With max_lag <= 512 this is two BLAS
    products and no buffer larger than B x B; the sums agree with the
    per-lag dot products to rounding.
    """
    x = history.values
    n = x.size
    if not 0 <= max_lag < n:
        raise InsufficientDataError(f"max_lag must lie in [0, {n - 1}], got {max_lag}")
    c0 = float(np.dot(x, x)) / n
    if c0 == 0.0:
        raise InsufficientDataError("history is identically zero; ACF undefined")
    vals = np.empty(max_lag + 1)
    vals[0] = 1.0
    if max_lag:
        vals[1:] = _lag_sums(x, max_lag) / n / c0
    return AcfEstimate(lags=np.arange(max_lag + 1) * history.dt, values=vals)


def _lag_sums(x: np.ndarray, max_lag: int) -> np.ndarray:
    """sum_n x_n x_{n+l} for l = 1..max_lag."""
    n = x.size
    block = min(max(max_lag, _MIN_BLOCK), _MAX_BLOCK)
    reach = -(-max_lag // block)  # blocks ahead the longest lag reaches
    rows = n // block
    if rows <= reach:
        rows = 0  # too short to block: direct dot products only
    # sums[l + block - 1] accumulates lag l; block products also fill
    # negative lags and lags past max_lag, which are dropped
    sums = np.zeros((reach + 2) * block)
    if rows:
        m = x[: rows * block].reshape(rows, block)
        offset = np.arange(block) - np.arange(block)[:, None] + block - 1
        for j in range(reach + 1):
            # entry (a, c) pairs offset a of row r with offset c of row r + j
            g = m[: rows - j].T @ m[j:]
            sums[j * block : (j + 2) * block - 1] += np.bincount(
                offset.ravel(), weights=g.ravel(), minlength=2 * block - 1)
    out = sums[block : block + max_lag]
    # pairs whose later sample lies past the blocked rows
    end = rows * block
    if end < n:
        for lag in range(1, max_lag + 1):
            out[lag - 1] += np.dot(x[max(end - lag, 0) : n - lag], x[max(end, lag) :])
    return out


# Fit window of fit_exponential_rate: the lags from 0 while the ACF stays
# above FIT_THRESHOLD, at least MIN_FIT_LAGS of them.
FIT_THRESHOLD = 0.1
MIN_FIT_LAGS = 3


def fit_exponential_rate(acf: AcfEstimate) -> float:
    """Least-squares decay rate from the window where the ACF exceeds FIT_THRESHOLD.

    Fits -log(acf) vs lag time over the contiguous window starting at lag 0
    and returns the slope.  The fit is weighted by the ACF value: the
    sampling noise of the ACF is roughly lag-independent, so after the log
    transform the residual noise grows like 1/acf and small values near the
    window edge would otherwise dominate.  Raises InsufficientDataError when
    fewer than MIN_FIT_LAGS lags are usable.
    """
    above = acf.values > FIT_THRESHOLD
    n_window = int(np.argmin(above)) if not above.all() else above.size
    if n_window < MIN_FIT_LAGS:
        raise InsufficientDataError(
            f"only {n_window} lags above threshold {FIT_THRESHOLD}; need {MIN_FIT_LAGS}"
        )
    t = acf.lags[:n_window]
    y = -np.log(acf.values[:n_window])
    slope, _ = np.polyfit(t, y, 1, w=acf.values[:n_window])
    return float(slope)

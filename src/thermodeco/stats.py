"""Ensemble and time-series estimators for verifying the noise balance.

Variance with error bars, normalized autocorrelation, and the decay rates
recovered from simulated data: the lag-1 estimate -ln(rho_1)/dt, which the
command line reports and gates, and a weighted exponential fit to the ACF.
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
    return _ensemble_stats(float(np.mean(x)), float(np.var(x, ddof=1)), n)


def _ensemble_stats(mean: float, var: float, n: int) -> EnsembleStats:
    return EnsembleStats(mean=mean, variance=var,
                         stderr_variance=float(var * np.sqrt(2.0 / (n - 1))), n=n)


def variance_stderr_correlated(variance: float, n: int, r: float) -> float:
    """Standard error of the sample variance of n consecutive samples of a Gaussian AR(1)
    series x_{n+1} = alpha x_n + noise, whose squares have step correlation r = alpha^2:
    the effective sample size is n (1-r)/(1+r), floored at 2."""
    n_eff = max(n * (1.0 - r) / (1.0 + r), 2.0)
    return variance * math.sqrt(2.0 / n_eff)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """sum a_n b_n of two 1-d arrays in numpy's own loop, whatever the BLAS thread count."""
    return float(np.einsum("i,i->", a, b))


class StreamStats:
    """Moments and lag-1 sums of a history fed in consecutive chunks, in constant memory.

    add(x) merges the chunk x into the count, mean and sum of squared deviations (the
    pairwise update of Chan, Golub and LeVeque) and, unless lags=False, into sum_sq =
    sum x_n^2 and lag1 = sum x_n x_{n+1}, its first sample paired with the last one
    carried from the chunk before.  lags=False pools another trajectory into the moments.
    Each sum of products is a _dot, so none depends on the BLAS thread count.
    """

    def __init__(self):
        self.n, self.mean, self.m2 = 0, 0.0, 0.0
        self.sum_sq, self.lag1, self._last = 0.0, 0.0, 0.0

    def add(self, x: np.ndarray, lags: bool = True):
        """Append the 1-d float array x; ValueError if an entry is not finite."""
        if not x.size:
            return
        if not np.isfinite(x).all():
            raise ValueError("history contains non-finite entries")
        mean = float(x.mean())
        dev = x - mean
        n = self.n + x.size
        delta = mean - self.mean
        self.m2 += _dot(dev, dev) + delta * delta * self.n * x.size / n
        self.mean += delta * x.size / n
        self.n = n
        if lags:
            self.sum_sq += _dot(x, x)
            self.lag1 += self._last * float(x[0]) + _dot(x[:-1], x[1:])
            self._last = float(x[-1])

    def moments(self) -> EnsembleStats:
        """Mean, unbiased variance and its Gaussian stderr, as sample_variance gives them."""
        if self.n < 2:
            raise InsufficientDataError("need at least 2 samples for a variance")
        return _ensemble_stats(self.mean, self.m2 / (self.n - 1), self.n)

    def lag1_rate(self, dt: float) -> float:
        """-ln(rho_1)/dt, rho_1 = lag1 / sum_sq; InsufficientDataError unless rho_1 > 0.  Of an
        AR(1) series with coefficient alpha, rho_1 estimates alpha with variance (1 - alpha^2)/N
        over N samples (Box and Jenkins, Time Series Analysis)."""
        rho = self.lag1 / self.sum_sq if self.sum_sq else math.nan
        if not rho > 0.0:
            raise InsufficientDataError(f"lag-1 correlation {rho:g} is not positive: no decay rate")
        return -math.log(rho) / dt


def autocorrelation(history: ModeHistory, max_lag: int) -> AcfEstimate:
    """Biased (divide-by-N) normalized autocorrelation of a zero-mean history.

    c(l) = (1/N) sum_n x_n x_{n+l}, normalized by c(0).  No sample-mean
    subtraction: the process mean is zero by construction, and keeping the
    raw moments makes a pure exponential decay its own autocorrelation.
    The 1/N normalization keeps the estimated sequence positive
    semidefinite at the cost of a (N-l)/N bias factor.

    Lag sums come from matrix products (4x faster than a dot per lag): with x
    as rows of B = min(max_lag, 512) samples, zero-padded, the product of the
    rows and the rows j blocks on holds x_n x_{n+jB+c-a} at entry (a, c).  BLAS
    computes them, so their last bits may depend on its thread count (no command calls this).
    """
    x = history.values
    n = x.size
    if not 0 <= max_lag < n:
        raise InsufficientDataError(f"max_lag must lie in [0, {n - 1}], got {max_lag}")
    c0 = float(np.dot(x, x)) / n
    if c0 == 0.0:
        raise InsufficientDataError("history is identically zero; ACF undefined")
    block = min(max(max_lag, 1), 512)
    m = np.concatenate((x, np.zeros(-n % block))).reshape(-1, block)
    vals = np.zeros(max_lag + 1)
    for j in range(min(-(-max_lag // block), len(m) - 1) + 1):
        g = m[: len(m) - j].T @ m[j:]
        for offset in range(1 - block, block):
            if 0 < (lag := j * block + offset) <= max_lag:
                vals[lag] += np.trace(g, offset)
    vals[0] = 1.0
    vals[1:] = vals[1:] / n / c0
    return AcfEstimate(lags=np.arange(max_lag + 1) * history.dt, values=vals)


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

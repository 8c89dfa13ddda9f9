"""Ensemble and time-series estimators for verifying the noise balance.

Variance with error bars, and the decay rate recovered from simulated data:
the lag-1 estimate -ln(rho_1)/dt of StreamStats, which simulate reports and
fdr-verify gates.  Every sum of products is a 1-d einsum in numpy's own loop,
so no estimate depends on the BLAS thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError


@dataclass(frozen=True)
class EnsembleStats:
    """Sample mean, unbiased variance, and the Gaussian-assumption standard
    error of the variance estimate."""

    mean: float
    variance: float
    stderr_variance: float
    n: int


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
        """Append the writable 1-d float64 array x, overwriting it with its deviations
        x - mean(x): they are formed in place, so a chunk needs no second array.  ValueError,
        with x unchanged, if an entry is not finite."""
        if not x.size:
            return
        if not np.isfinite(x).all():
            raise ValueError("history contains non-finite entries")
        if lags:
            self.sum_sq += _dot(x, x)
            self.lag1 += self._last * float(x[0]) + _dot(x[:-1], x[1:])
            self._last = float(x[-1])
        mean = float(x.mean())
        x -= mean
        n = self.n + x.size
        delta = mean - self.mean
        self.m2 += _dot(x, x) + delta * delta * self.n * x.size / n
        self.mean += delta * x.size / n
        self.n = n

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

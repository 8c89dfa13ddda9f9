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
    return _ensemble_stats(float(np.mean(x)), float(np.var(x, ddof=1)), n)


def _ensemble_stats(mean: float, var: float, n: int) -> EnsembleStats:
    return EnsembleStats(mean=mean, variance=var,
                         stderr_variance=float(var * np.sqrt(2.0 / (n - 1))), n=n)


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


class StreamStats:
    """Moments and lag sums of a history fed in consecutive chunks, in constant memory.

    add(x) appends the chunk x.  The count, mean and sum of squared deviations are
    merged chunk by chunk (the pairwise update of Chan, Golub and LeVeque).  Unless
    lags=False, the chunk also enters the lag part: its sample count, sum of squares and
    the lag sums sum_n x_n x_{n+l}, l = 1..max_lag.  lags=False pools the samples of
    another trajectory into the moments alone.

    The lag sums come from matrix products rather than one dot product per lag: the
    history is viewed as rows of B consecutive samples (B = max_lag, clamped to
    [16, 512]), and the product of the rows with themselves and with the rows shifted by
    1, 2, ... blocks holds every pair x_n x_{n+l}, lag l on the l-th diagonal.  Each
    chunk pairs its whole rows with each other and with the rows carried from earlier
    chunks that the longest lag reaches, and carries its last rows and its partial row to
    the next chunk.  The final partial row is paired as a whole row padded with zeros.
    The B x B products are summed across chunks and reduced to lag sums once; with
    max_lag above 512, where each chunk makes more than two products, each is reduced at
    once instead, so memory stays a few B x B blocks.  The sums agree with per-lag dot
    products to rounding.
    """

    def __init__(self, max_lag: int):
        self.max_lag = max_lag
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0
        self.n_lag = 0
        self.sum_sq = 0.0
        self._block = block = min(max(max_lag, _MIN_BLOCK), _MAX_BLOCK)
        self._reach = max(-(-max_lag // block), 0)  # blocks ahead the longest lag reaches
        self._tail = np.empty(0)
        # sums[l + block - 1] accumulates lag l; the products also fill negative lags and
        # lags past max_lag, which are dropped
        self._sums = np.zeros((self._reach + 2) * block)
        self._gram = np.zeros((2, block, block)) if self._reach == 1 else None

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
        self.m2 += float(np.dot(dev, dev)) + delta * delta * self.n * x.size / n
        self.mean += delta * x.size / n
        self.n = n
        if not lags:
            return
        self.n_lag += x.size
        self.sum_sq += float(np.dot(x, x))
        if self.max_lag > 0:
            data = np.concatenate((self._tail, x)) if self._tail.size else x
            self._pair(data, self._gram, self._sums)
            keep = max(data.size // self._block - self._reach, 0) * self._block
            self._tail = data[keep:].copy()

    def _pair(self, data: np.ndarray, gram, sums: np.ndarray):
        """Pairs of data's whole rows whose later row lies past the whole rows of the
        carried tail, which data starts with: summed into gram, or into sums if gram is None."""
        block = self._block
        carried = self._tail.size // block
        rows = data.size // block
        m = data[: rows * block].reshape(rows, block)
        for j in range(self._reach + 1):
            # entry (a, c) pairs offset a of row r with offset c of row r + j
            first = max(carried - j, 0)
            if rows - j > first:
                g = m[first : rows - j].T @ m[first + j :]
                if gram is None:
                    self._reduce(sums, j, g)
                else:
                    gram[j] += g

    def _reduce(self, sums: np.ndarray, j: int, g: np.ndarray):
        block = self._block
        offset = np.arange(block) - np.arange(block)[:, None] + block - 1
        sums[j * block : (j + 2) * block - 1] += np.bincount(
            offset.ravel(), weights=g.ravel(), minlength=2 * block - 1)

    def lag_sums(self) -> np.ndarray:
        """sum_n x_n x_{n+l} for l = 1..max_lag over the samples added with lags."""
        if self.max_lag <= 0:
            return np.empty(0)
        block = self._block
        gram = None if self._gram is None else self._gram.copy()
        sums = self._sums.copy()
        self._pair(np.concatenate((self._tail, np.zeros(-self._tail.size % block))), gram, sums)
        if gram is not None:
            for j in range(2):
                self._reduce(sums, j, gram[j])
        return sums[block : block + self.max_lag]

    def moments(self) -> EnsembleStats:
        """Mean, unbiased variance and its Gaussian stderr, as sample_variance gives them."""
        if self.n < 2:
            raise InsufficientDataError("need at least 2 samples for a variance")
        return _ensemble_stats(self.mean, self.m2 / (self.n - 1), self.n)

    def acf(self, dt: float) -> AcfEstimate:
        """The autocorrelation estimate of the samples added with lags, as autocorrelation
        defines it, at lag times l * dt."""
        n = self.n_lag
        _check_max_lag(self.max_lag, n)
        c0 = self.sum_sq / n
        if c0 == 0.0:
            raise InsufficientDataError("history is identically zero; ACF undefined")
        vals = np.empty(self.max_lag + 1)
        vals[0] = 1.0
        vals[1:] = self.lag_sums() / n / c0
        return AcfEstimate(lags=np.arange(self.max_lag + 1) * dt, values=vals)


def _check_max_lag(max_lag: int, n: int):
    if not 0 <= max_lag < n:
        raise InsufficientDataError(f"max_lag must lie in [0, {n - 1}], got {max_lag}")


def autocorrelation(history: ModeHistory, max_lag: int) -> AcfEstimate:
    """Biased (divide-by-N) normalized autocorrelation of a zero-mean history.

    c(l) = (1/N) sum_n x_n x_{n+l}, normalized by c(0).  No sample-mean
    subtraction: the process mean is zero by construction, and keeping the
    raw moments makes a pure exponential decay its own autocorrelation.
    The 1/N normalization keeps the estimated sequence positive
    semidefinite at the cost of a (N-l)/N bias factor.  The history is fed
    to a StreamStats as one chunk.
    """
    _check_max_lag(max_lag, len(history))
    stats = StreamStats(max_lag)
    stats.add(history.values)
    return stats.acf(history.dt)


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

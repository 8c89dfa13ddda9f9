import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermodeco import (
    AcfEstimate,
    InsufficientDataError,
    MediumParams,
    ModeHistory,
    SimConfig,
    autocorrelation,
    fit_exponential_rate,
    relaxation_rate,
    sample_variance,
    simulate_mode,
    variance_stderr_correlated,
)

UNIT = MediumParams(T0=1.0, c0=1.0, D0=1.0)


def test_sample_variance_examples():
    assert sample_variance([1.0, 1.0, 1.0]).variance == 0.0
    st = sample_variance([0.0, 2.0])
    assert st.variance == 2.0
    assert st.mean == 1.0
    assert st.stderr_variance == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-14)
    with pytest.raises(InsufficientDataError):
        sample_variance([1.0])


def test_sample_variance_gaussian_oracle():
    rng = np.random.default_rng(0)
    n = 100_000
    st = sample_variance(rng.normal(size=n))
    assert abs(st.variance - 1.0) <= 3 * math.sqrt(2.0 / (n - 1))


def test_sample_variance_scale_equivariant():
    rng = np.random.default_rng(1)
    x = rng.normal(size=100)
    base = sample_variance(x).variance
    for lam in (0.1, 3.0, -2.0):
        assert sample_variance(lam * x).variance == pytest.approx(lam ** 2 * base, rel=1e-12)


def test_variance_stderr_correlated():
    # r = e^(-2 gamma dt) = 1/3 gives n_eff = n / 2
    n, gamma, dt = 1000, 0.5 * math.log(3.0), 1.0
    assert variance_stderr_correlated(2.0, n, gamma, dt) == pytest.approx(
        2.0 * math.sqrt(2.0 / (n / 2)), rel=1e-14)
    # a conserved mode (or fully correlated samples) floors n_eff at 2
    assert variance_stderr_correlated(2.0, n, 0.0, dt) == 2.0


def _acf_per_lag(x, max_lag):
    """Reference ACF: one dot product per lag."""
    n = x.size
    c0 = float(np.dot(x, x)) / n
    vals = np.empty(max_lag + 1)
    vals[0] = 1.0
    for lag in range(1, max_lag + 1):
        vals[lag] = float(np.dot(x[:-lag], x[lag:])) / n / c0
    return vals


@st.composite
def _acf_case(draw):
    """(n, max_lag) pairs weighted to the block and tail boundaries."""
    kind = draw(st.sampled_from(["zero", "one", "last", "short", "multiple", "any"]))
    if kind == "multiple":  # n a multiple of max_lag, or one more or less
        lag = draw(st.integers(1, 2500))
        n = draw(st.integers(1, 5000 // lag)) * lag + draw(st.sampled_from([-1, 0, 1]))
    else:
        n = draw(st.integers(1, 5000))
        low = {"zero": 0, "one": 1, "last": n - 1, "short": n // 2 + 1, "any": 0}[kind]
        high = {"zero": 0, "one": 1}.get(kind, n - 1)
        lag = draw(st.integers(min(low, high), high))
    n = max(n, 1)
    return n, min(lag, n - 1)


@settings(max_examples=300, deadline=None)
@given(case=_acf_case(), seed=st.integers(0, 2**32 - 1), mean=st.sampled_from([0.0, 3.0]))
def test_acf_matches_per_lag_dot_products(case, seed, mean):
    n, max_lag = case
    x = np.random.default_rng(seed).normal(mean, 1.0, size=n)
    acf = autocorrelation(ModeHistory(1.0, 0.1, x), max_lag)
    ref = _acf_per_lag(x, max_lag)
    assert acf.values[0] == 1.0
    assert np.max(np.abs(acf.values - ref)) <= 1e-12


@pytest.mark.parametrize("n, max_lag", [(5000, 1300), (4096, 512), (4097, 513), (1023, 511), (33, 16), (31, 15)])
def test_acf_block_boundaries(n, max_lag):
    x = np.random.default_rng(n).normal(size=n)
    acf = autocorrelation(ModeHistory(1.0, 0.1, x), max_lag)
    assert np.max(np.abs(acf.values - _acf_per_lag(x, max_lag))) <= 1e-12


def test_acf_constant_history():
    # biased 1/N estimator carries the (N-lag)/N factor
    n = 8
    hist = ModeHistory(1.0, 0.5, np.full(n, 3.0))
    acf = autocorrelation(hist, 4)
    assert acf.values[0] == 1.0
    for lag in range(1, 5):
        assert acf.values[lag] == pytest.approx((n - lag) / n, rel=1e-14)


def test_acf_alternating_history():
    n = 4
    hist = ModeHistory(1.0, 1.0, np.array([1.0, -1.0, 1.0, -1.0]))
    acf = autocorrelation(hist, 1)
    assert acf.values[1] == pytest.approx(-(n - 1) / n, rel=1e-14)


def test_acf_lag_range_error():
    hist = ModeHistory(1.0, 1.0, np.ones(5))
    with pytest.raises(InsufficientDataError):
        autocorrelation(hist, 5)


def test_acf_of_deterministic_decay():
    cfg = SimConfig(dt=0.05, t_end=100.0, seed=0, initial=1.0, noise_scale=0.0)
    hist = simulate_mode(UNIT, 1.0, cfg)
    acf = autocorrelation(hist, 100)
    expected = np.exp(-acf.lags)
    assert np.max(np.abs(acf.values - expected)) <= 1e-10


def test_acf_of_stationary_ou():
    cfg = SimConfig(dt=0.01, t_end=2_000.0, seed=9, initial="sample-equilibrium")
    hist = simulate_mode(UNIT, 1.0, cfg)
    acf = autocorrelation(hist, 150)
    expected = np.exp(-acf.lags)
    assert np.max(np.abs(acf.values - expected)) <= 0.05


def test_fit_rate_exact_exponential():
    dt = 0.02
    lags = np.arange(200) * dt
    acf = AcfEstimate(lags=lags, values=np.exp(-2.0 * lags))
    assert fit_exponential_rate(acf) == pytest.approx(2.0, abs=1e-10)


def test_fit_rate_all_ones():
    lags = np.arange(10) * 0.1
    acf = AcfEstimate(lags=lags, values=np.ones(10))
    assert fit_exponential_rate(acf) == pytest.approx(0.0, abs=1e-12)


def test_fit_rate_insufficient_window():
    lags = np.arange(5) * 1.0
    acf = AcfEstimate(lags=lags, values=np.array([1.0, 0.05, 0.01, 0.0, 0.0]))
    with pytest.raises(InsufficientDataError):
        fit_exponential_rate(acf)


def test_rate_recovery_from_simulation():
    p = MediumParams(T0=2.0, c0=4.0, D0=0.5)
    gamma = relaxation_rate(p, 3.0)
    assert gamma == 1.125
    cfg = SimConfig(dt=0.01, t_end=2_000.0, seed=12, initial="sample-equilibrium")
    hist = simulate_mode(p, 3.0, cfg)
    acf = autocorrelation(hist, 300)
    fitted = fit_exponential_rate(acf)
    assert abs(fitted - gamma) / gamma <= 0.05  # 2% bound checked at 1e6 steps in acceptance

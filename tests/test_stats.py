import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermodeco import InsufficientDataError, sample_variance, variance_stderr_correlated
from thermodeco.stats import StreamStats


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
    # r = 1/3 gives n_eff = n / 2
    n = 1000
    assert variance_stderr_correlated(2.0, n, 1.0 / 3.0) == pytest.approx(
        2.0 * math.sqrt(2.0 / (n / 2)), rel=1e-14)
    # a conserved mode (or fully correlated samples) floors n_eff at 2
    assert variance_stderr_correlated(2.0, n, 1.0) == 2.0


@st.composite
def _stream_case(draw):
    """(n, burn-in, chunk): chunks of one sample, of a few samples, or longer than the
    history; a burn-in that ends anywhere or leaves one pair."""
    n = draw(st.integers(2, 3000))
    burn = draw(st.integers(0, n - 2)) if draw(st.booleans()) else n - 2
    chunk_kind = draw(st.sampled_from(["one", "few", "beyond", "any"]))
    chunk = {"one": 1, "few": draw(st.integers(2, 17)),
             "beyond": n + draw(st.integers(1, 100))}.get(chunk_kind, draw(st.integers(1, 700)))
    return n, burn, chunk


@settings(max_examples=200, deadline=None)
@given(case=_stream_case(), seed=st.integers(0, 2**32 - 1), mean=st.sampled_from([0.0, 3.0]))
def test_stream_stats_match_one_array(case, seed, mean):
    n, burn, chunk = case
    x = np.random.default_rng(seed).normal(mean, 1.0, size=n)
    stats = StreamStats()
    for start in range(0, n, chunk):  # chunks cut at absolute boundaries, burn-in dropped
        stats.add(x[start : start + chunk][max(burn - start, 0):].copy())  # add overwrites
    post = x[burn:]
    scale = float(np.dot(post, post))
    assert stats.n == post.size
    assert stats.moments().variance == pytest.approx(np.var(post, ddof=1), rel=1e-12)
    assert stats.sum_sq == pytest.approx(scale, rel=1e-12)
    assert abs(stats.lag1 - np.dot(post[:-1], post[1:])) <= 1e-12 * scale
    rho = stats.lag1 / stats.sum_sq
    if rho > 0:
        assert stats.lag1_rate(0.1) == -math.log(rho) / 0.1
    else:
        with pytest.raises(InsufficientDataError):
            stats.lag1_rate(0.1)


def test_stream_stats_pool_moments_and_refuse_non_finite():
    rng = np.random.default_rng(4)
    a, b = rng.normal(size=1000), rng.normal(2.0, 3.0, size=700)
    stats = StreamStats()
    stats.add(dev := a.copy())
    assert dev.tobytes() == (a - float(a.mean())).tobytes()  # add leaves the deviations in place
    stats.add(b.copy(), lags=False)  # into the moments only
    both = np.concatenate((a, b))
    assert stats.moments().variance == pytest.approx(np.var(both, ddof=1), rel=1e-12)
    assert stats.moments().mean == pytest.approx(both.mean(), rel=1e-12)
    assert stats.sum_sq == pytest.approx(np.dot(a, a), rel=1e-12)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="history contains non-finite entries"):
            StreamStats().add(np.array([1.0, bad, 2.0]))


@pytest.mark.parametrize("chunks", [
    [np.array([1.0])],  # one sample: no pair
    [np.zeros(3), np.zeros(4)],  # all zero
    [np.array([1.0, -1.0, 1.0]), np.array([-1.0, 1.0])],  # rho_1 = -4/5
])
def test_lag1_rate_needs_a_positive_correlation(chunks):
    stats = StreamStats()
    for chunk in chunks:
        stats.add(chunk)
    with pytest.raises(InsufficientDataError, match="lag-1 correlation"):
        stats.lag1_rate(0.1)


def test_lag1_rate_of_a_pure_decay():
    # x_n = alpha^n: sum x_n x_{n+1} / sum x_n^2 = alpha (1 - alpha^(2N-2)) / (1 - alpha^(2N))
    alpha, n = math.exp(-0.3), 200
    stats = StreamStats()
    x = alpha ** np.arange(n)
    for start in range(0, n, 7):
        stats.add(x[start : start + 7])
    assert stats.lag1_rate(0.1) == pytest.approx(3.0, rel=1e-12)

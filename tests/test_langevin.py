import math
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermodeco import (
    METHOD_EULER,
    METHOD_EXACT,
    MediumParams,
    NoiseStream,
    SimConfig,
    deterministic_decay,
    drift_residual,
    simulate_mode,
    step_euler_maruyama,
    step_exact_ou,
)
from thermodeco import langevin
from thermodeco.langevin import _linear_filter

UNIT = MediumParams(T0=1.0, c0=1.0, D0=1.0)


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(dt=0.0, t_end=1.0)
    with pytest.raises(ValueError):
        SimConfig(dt=1.0, t_end=0.5)
    with pytest.raises(ValueError):
        SimConfig(dt=0.1, t_end=1.0, method="heun")
    assert SimConfig(dt=0.1, t_end=1.0).n_steps == 10


def test_noise_stream_reproducible():
    a = NoiseStream(seed=42, substream=3)
    b = NoiseStream(seed=42, substream=3)
    assert np.array_equal(a.normal(100), b.normal(100))
    c = NoiseStream(seed=42, substream=4)
    assert not np.array_equal(NoiseStream(42, 3).normal(100), c.normal(100))
    with pytest.raises(TypeError):  # a float seed is not read as an integer
        NoiseStream(0.0, 31)


def test_euler_step_deterministic_branch():
    s = NoiseStream(seed=0)
    assert step_euler_maruyama(UNIT, 1.0, 1.0, 0.1, s, noise_scale=0.0) == pytest.approx(0.9, rel=1e-15)


def test_euler_step_conserved_mode():
    s = NoiseStream(seed=0)
    assert step_euler_maruyama(UNIT, 0.0, 0.37, 0.5, s) == 0.37


def test_exact_step_deterministic_branch():
    s = NoiseStream(seed=0)
    x = step_exact_ou(UNIT, 1.0, 1.0, math.log(2.0), s, noise_scale=0.0)
    assert x == pytest.approx(0.5, rel=1e-14)


def test_exact_step_conserved_mode():
    s = NoiseStream(seed=0)
    assert step_exact_ou(UNIT, 0.0, 0.7, 1.0, s) == 0.7


def test_exact_step_one_step_variance():
    # transition variance from x=0 over dt=1 is 1 - e^-2
    s = NoiseStream(seed=11)
    x = step_exact_ou(UNIT, 1.0, np.zeros(1_000_000), 1.0, s)
    expected = 1.0 - math.exp(-2.0)
    stderr = expected * math.sqrt(2.0 / x.size)
    assert abs(np.var(x, ddof=1) - expected) <= 3 * stderr


def test_simulate_mode_zero_noise_matches_decay():
    cfg = SimConfig(dt=0.05, t_end=5.0, seed=1, initial=2.0, noise_scale=0.0)
    for method in ("exact-ou", "euler-maruyama"):
        hist = simulate_mode(UNIT, 1.0, SimConfig(**{**cfg.__dict__, "method": method}))
        times = np.arange(hist.size) * cfg.dt
        oracle = np.array([deterministic_decay(UNIT, 1.0, 2.0, t) for t in times])
        if method == "exact-ou":
            assert np.max(np.abs(hist - oracle)) <= 1e-12
        else:
            # Euler is O(dt): coarse bound here, convergence tested below
            assert np.max(np.abs(hist - oracle)) <= 0.1


def test_euler_zero_noise_first_order_convergence():
    errs = []
    for dt in (0.02, 0.01, 0.005):
        cfg = SimConfig(dt=dt, t_end=2.0, method="euler-maruyama", seed=1, initial=1.0, noise_scale=0.0)
        hist = simulate_mode(UNIT, 1.0, cfg)
        errs.append(abs(hist[-1] - deterministic_decay(UNIT, 1.0, 1.0, 2.0)))
    assert 1.5 <= errs[0] / errs[1] <= 3.0
    assert 1.5 <= errs[1] / errs[2] <= 3.0


def test_simulate_mode_deterministic_given_seed():
    cfg = SimConfig(dt=0.01, t_end=10.0, seed=99, initial="sample-equilibrium")
    h1 = simulate_mode(UNIT, 1.0, cfg)
    h2 = simulate_mode(UNIT, 1.0, cfg)
    assert np.array_equal(h1, h2)


@pytest.mark.parametrize("method, k, initial", [
    pytest.param(METHOD_EXACT, 1.0, 0.3, id=METHOD_EXACT),
    pytest.param(METHOD_EULER, 1.0, 0.3, id=METHOD_EULER),
    pytest.param(METHOD_EXACT, 1.0, -0.0, id=f"{METHOD_EXACT}-initial-minus-zero"),
    pytest.param(METHOD_EULER, 1.0, -0.0, id=f"{METHOD_EULER}-initial-minus-zero"),
    pytest.param(METHOD_EXACT, 0.0, -0.0, id=f"{METHOD_EXACT}-k0-initial-minus-zero"),
    pytest.param(METHOD_EULER, 0.0, -0.0, id=f"{METHOD_EULER}-k0-initial-minus-zero"),
])
def test_simulate_mode_matches_scalar_stepping(method, k, initial):
    step = {METHOD_EXACT: step_exact_ou, METHOD_EULER: step_euler_maruyama}[method]
    cfg = SimConfig(dt=0.1, t_end=2.0, method=method, seed=5, initial=initial)
    hist = simulate_mode(UNIT, k, cfg)
    stream = NoiseStream(seed=5, substream=0)
    x = initial
    vals = [x]
    for _ in range(cfg.n_steps):
        x = step(UNIT, k, x, cfg.dt, stream)
        vals.append(x)
    # bytes, not just ==: at k = 0 (alpha 1, scale 0) the sign of each zero is the stepper's
    assert hist.tobytes() == np.array(vals).tobytes()


@pytest.mark.parametrize("chunk", [1, 7, 64, 10 ** 6])
@pytest.mark.parametrize("initial", ["sample-equilibrium", -0.0])
def test_chunks_are_pieces_of_the_history(monkeypatch, chunk, initial):
    cfg = SimConfig(dt=0.1, t_end=20.0, seed=5, initial=initial)
    whole = simulate_mode(UNIT, 1.0, cfg, substream=3)
    monkeypatch.setattr(langevin, "CHUNK", chunk)
    chunks = list(langevin.simulate_chunks(UNIT, 1.0, cfg, substream=3))
    assert [c.size for c in chunks[:-1]] == [chunk] * (len(chunks) - 1)
    assert 1 <= chunks[-1].size <= chunk
    # each chunk is a new array, bitwise the piece of the whole history
    assert not any(np.shares_memory(a, b) for a, b in zip(chunks, chunks[1:]))
    assert np.concatenate(chunks).tobytes() == whole.tobytes()
    assert simulate_mode(UNIT, 1.0, cfg, substream=3).tobytes() == whole.tobytes()


@pytest.mark.parametrize("chunk, threads", [(201, 0), (10 ** 6, 0), (64, 3)])
def test_each_chunk_after_the_first_is_drawn_on_a_joined_thread(monkeypatch, chunk, threads):
    cfg = SimConfig(dt=0.1, t_end=20.0, seed=5)  # 201 samples
    monkeypatch.setattr(langevin, "CHUNK", chunk)
    started, start = [], threading.Thread.start

    def recorded(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recorded)
    assert len(list(langevin.simulate_chunks(UNIT, 1.0, cfg))) == threads + 1
    assert len(started) == threads and not any(t.is_alive() for t in started)


def test_a_closed_history_joins_its_worker(monkeypatch):
    monkeypatch.setattr(langevin, "CHUNK", 64)
    normal, drawers = NoiseStream.normal, []

    def slow(self, *args, **kwargs):  # off the caller's thread, the draw outlasts close()
        if threading.current_thread() is not threading.main_thread():
            drawers.append(threading.current_thread())
            time.sleep(0.2)
        return normal(self, *args, **kwargs)

    monkeypatch.setattr(NoiseStream, "normal", slow)
    chunks = langevin.simulate_chunks(UNIT, 1.0, SimConfig(dt=0.1, t_end=20.0, seed=5))
    assert next(chunks).size == 64
    chunks.close()
    assert len(drawers) == 1 and not drawers[0].is_alive()


# alpha = e^(-gamma dt) or 1 - gamma dt: the ends, both zeros and subnormals, then any
EDGE_ALPHAS = [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e-310, -1e-310]


@settings(max_examples=200, deadline=None)
@given(alpha=st.one_of(st.sampled_from(EDGE_ALPHAS), st.floats(-1.0, 1.0)),
       zi=st.one_of(st.sampled_from([-0.0, 0.0]), st.floats(-1e3, 1e3)),
       n=st.integers(1, 2000), seed=st.integers(0, 2**32 - 1))
def test_linear_filter_kernel_matches_lfilter(alpha, zi, n, seed):
    from scipy.signal import lfilter

    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    x[rng.random(n) < 0.05] = 0.0
    x[rng.random(n) < 0.05] = -0.0
    b, a, z = np.array([1.0]), np.array([1.0, -alpha]), np.array([zi])
    out, zf = _linear_filter()(b, a, x, -1, z)
    ref, ref_zf = lfilter(b, a, x, zi=z)
    assert out.tobytes() == ref.tobytes() and zf.tobytes() == ref_zf.tobytes()


def test_simulate_mode_stationary_variance():
    cfg = SimConfig(dt=0.01, t_end=1_100.0, seed=3, initial="sample-equilibrium")
    hist = simulate_mode(UNIT, 1.0, cfg)
    post = hist[10_000:]  # burn-in 100/gamma
    var = np.var(post, ddof=1)
    # effective sample size of consecutive OU squared fluctuations
    r = math.exp(-2 * 0.01)
    n_eff = post.size * (1 - r) / (1 + r)
    assert abs(var - 1.0) <= 3 * math.sqrt(2.0 / n_eff)


def test_exact_stepper_composition():
    # step(dt1) then step(dt2) has the transition law of step(dt1+dt2)
    n = 100_000
    x0 = 1.5
    s = NoiseStream(seed=21)
    x = step_exact_ou(UNIT, 1.0, np.full(n, x0), 0.3, s)
    x = step_exact_ou(UNIT, 1.0, x, 0.7, s)
    mean_exp = x0 * math.exp(-1.0)
    var_exp = 1.0 - math.exp(-2.0)
    assert abs(x.mean() - mean_exp) <= 3 * math.sqrt(var_exp / n)
    assert abs(np.var(x, ddof=1) - var_exp) <= 3 * var_exp * math.sqrt(2.0 / n)


def test_ensemble_matches_serial_and_simulate_mode(monkeypatch):
    # trajectory i of mode m is substream m * n_traj + i, whatever order the trajectories
    # are drawn in: here all eight at once, chunk by chunk in reverse order
    cfg = SimConfig(dt=0.05, t_end=2.0, seed=17, initial="sample-equilibrium")
    ks, n_traj = [1.0, 2.0], 4
    serial = [simulate_mode(UNIT, ks[r // n_traj], cfg, substream=r)
              for r in range(len(ks) * n_traj)]
    monkeypatch.setattr(langevin, "CHUNK", 8)
    streams = [langevin.simulate_chunks(UNIT, ks[r // n_traj], cfg, substream=r)
               for r in range(len(ks) * n_traj)]
    pieces = [[] for _ in streams]
    for chunks in zip(*reversed(streams)):
        for r, chunk in enumerate(reversed(chunks)):
            pieces[r].append(chunk)
    for r, values in enumerate(serial):
        assert values.size == cfg.n_steps + 1
        assert np.array_equal(np.concatenate(pieces[r]), values)


def test_non_finite_history_raises():
    # Euler-Maruyama at gamma dt = 4 multiplies by -3 each step: inf within 650 steps
    cfg = SimConfig(dt=1.0, t_end=2000.0, method="euler-maruyama", seed=3, initial=1.0)
    with pytest.raises(ValueError, match="non-finite"):
        simulate_mode(UNIT, 2.0, cfg)


def test_ensemble_equilibrium_mean():
    cfg = SimConfig(dt=0.05, t_end=20.0, seed=8, initial="sample-equilibrium")
    n_traj = 4000
    finals = np.array([simulate_mode(UNIT, 1.0, cfg, substream=i)[-1]
                       for i in range(n_traj)])
    assert abs(finals.mean()) <= 3 * math.sqrt(1.0 / n_traj)


def test_deterministic_decay_examples():
    assert deterministic_decay(UNIT, 1.0, 0.8, 0.0) == 0.8
    assert deterministic_decay(UNIT, 1.0, 2.0, 1.0) == pytest.approx(2 * math.exp(-1), rel=1e-15)
    assert deterministic_decay(UNIT, 0.0, 0.8, 123.0) == 0.8


def test_drift_residual_annihilates_decay():
    dt = 0.01
    hist = simulate_mode(UNIT, 1.0, SimConfig(dt=dt, t_end=5.0, seed=0, initial=1.0, noise_scale=0.0))
    res = drift_residual(UNIT, 1.0, hist, dt)
    assert np.max(np.abs(res[1:-1])) <= 1e-4  # O(dt^2) on interior points

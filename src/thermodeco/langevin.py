"""Per-mode Langevin dynamics with fluctuation-dissipation-consistent noise.

Each Fourier mode obeys d(dT_k)/dt + gamma_k dT_k = xi_k with white noise
of correlation 2 Gamma_k.  Two steppers are provided: the exact
one-step transition law of this linear process (unbiased at any dt) and
Euler-Maruyama (O(dt) bias, used to demonstrate convergence).

Reproducibility: noise comes from counter-based Philox substreams keyed
by (master seed, substream id), so ensembles are bitwise identical
regardless of execution order or thread count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientDataError
from .medium import MediumParams, ModeSpec, equilibrium_mode_variance, noise_strength, relaxation_rate

METHOD_EXACT = "exact-ou"
METHOD_EULER = "euler-maruyama"
SAMPLE_EQUILIBRIUM = "sample-equilibrium"

_METHODS = (METHOD_EXACT, METHOD_EULER)


@dataclass(frozen=True)
class SimConfig:
    """Time grid, stepper choice, seeding and initial condition for one run.

    ``initial`` is either a number or the string "sample-equilibrium", in
    which case the starting amplitude is drawn from the stationary Gaussian.
    ``noise_scale`` multiplies the noise strength Gamma_k; 0 gives the
    deterministic decay, values != 1 deliberately break the
    fluctuation-dissipation balance (used by verification tooling).
    """

    dt: float
    t_end: float
    method: str = METHOD_EXACT
    seed: int = 0
    initial: float | str = 0.0
    noise_scale: float = 1.0

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if self.t_end < self.dt:
            raise ValueError("t_end must be at least one step")
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {_METHODS}")
        if self.noise_scale < 0:
            raise ValueError("noise_scale must be non-negative")
        if isinstance(self.initial, str) and self.initial != SAMPLE_EQUILIBRIUM:
            raise ValueError(f"initial must be a number or {SAMPLE_EQUILIBRIUM!r}")

    @property
    def n_steps(self) -> int:
        # tiny relative slack so t_end/dt = 2.9999999... counts as 3 steps
        return int(math.floor(self.t_end / self.dt * (1.0 + 1e-12)))


@dataclass(frozen=True)
class ModeHistory:
    """Sampled trajectory of one mode amplitude on the uniform grid t_n = n dt."""

    k: float
    dt: float
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("values must be a non-empty 1-d array")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not np.all(np.isfinite(values)):
            raise ValueError("history contains non-finite entries")
        object.__setattr__(self, "values", values)

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.values.size) * self.dt

    def __len__(self) -> int:
        return self.values.size


class NoiseStream:
    """Deterministic Gaussian noise substream for one trajectory.

    Built on numpy's counter-based Philox generator with key
    (master seed, substream id); identical (seed, substream) pairs yield
    identical draw sequences on every platform.
    """

    def __init__(self, gamma: float, seed: int, substream: int = 0):
        if gamma < 0:
            raise ValueError("noise strength must be non-negative")
        self.gamma = float(gamma)
        self.seed = int(seed)
        self.substream = int(substream)
        key = np.array([self.seed, self.substream], dtype=np.uint64)
        self.generator = np.random.Generator(np.random.Philox(key=key))

    def normal(self, size=None):
        """Unit Gaussian draw(s), advancing the stream."""
        return self.generator.standard_normal(size)


def draw_noise_increment(stream: NoiseStream, dt: float) -> float:
    """One step-averaged white-noise sample: N(0, 2 Gamma_k / dt)."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    return math.sqrt(2.0 * stream.gamma / dt) * stream.normal()


def step_euler_maruyama(
    params: MediumParams, k: float, x, dt: float, stream: NoiseStream,
    noise_scale: float = 1.0,
):
    """One Euler-Maruyama step x -> (1 - gamma_k dt) x + sqrt(2 Gamma_k dt) n.

    Accepts a scalar or an array of independent chain states.  Caller
    should keep gamma_k * dt < 1 for stability.
    """
    return _step(params, k, METHOD_EULER, x, dt, stream, noise_scale)


def step_exact_ou(
    params: MediumParams, k: float, x, dt: float, stream: NoiseStream,
    noise_scale: float = 1.0,
):
    """One step of the exact transition law of the linear Langevin equation.

    x -> e^(-gamma dt) x + sigma sqrt(1 - e^(-2 gamma dt)) n with
    sigma^2 the stationary variance; unbiased at any dt.  The k = 0 mode
    is left unchanged (zero rate, zero noise).
    """
    return _step(params, k, METHOD_EXACT, x, dt, stream, noise_scale)


def _step(params: MediumParams, k: float, method: str, x, dt: float, stream: NoiseStream,
          noise_scale: float):
    alpha, scale = _step_coefficients(params, k, method, dt, noise_scale)
    n = stream.normal(np.shape(x)) if np.ndim(x) else stream.normal()
    return alpha * x + scale * n


def _step_coefficients(params: MediumParams, k: float, method: str, dt: float,
                       noise_scale: float):
    """One-step recursion x_{n+1} = alpha x_n + scale * n for the chosen method."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    gamma = relaxation_rate(params, k)
    if method == METHOD_EXACT:
        alpha = math.exp(-gamma * dt)
        sigma2 = equilibrium_mode_variance(params) * noise_scale
        scale = math.sqrt(sigma2 * max(0.0, 1.0 - alpha * alpha))
    else:
        alpha = 1.0 - gamma * dt
        big_gamma = noise_strength(params, k) * noise_scale
        scale = math.sqrt(2.0 * big_gamma * dt)
    return alpha, scale


def simulate_mode(
    params: MediumParams, k: float, cfg: SimConfig, substream: int = 0
) -> ModeHistory:
    """Integrate one mode over the configured grid; bitwise deterministic.

    The initial amplitude (or its equilibrium draw) consumes the first
    sample of the substream; the n-th step consumes the (n+1)-th.
    """
    # imported on first use: loading scipy.signal takes longer than the commands that
    # never simulate a mode take in all
    from scipy.signal import lfilter

    stream = NoiseStream(noise_strength(params, k) * cfg.noise_scale, cfg.seed, substream)
    if cfg.initial == SAMPLE_EQUILIBRIUM:
        x0 = math.sqrt(equilibrium_mode_variance(params) * cfg.noise_scale) * stream.normal()
    else:
        x0 = float(cfg.initial)
    n = cfg.n_steps
    alpha, scale = _step_coefficients(params, k, cfg.method, cfg.dt, cfg.noise_scale)
    incr = scale * stream.normal(n)
    # linear recursion y_n = alpha * y_{n-1} + incr_n; same arithmetic as the
    # scalar steppers, evaluated by lfilter for speed
    traj, _ = lfilter([1.0], [1.0, -alpha], incr, zi=np.array([alpha * x0]))
    values = np.empty(n + 1)
    values[0] = x0
    values[1:] = traj
    return ModeHistory(k=k, dt=cfg.dt, values=values)


def simulate_ensemble(
    params: MediumParams,
    modes: list[ModeSpec],
    n_traj: int,
    cfg: SimConfig,
    n_workers: int = 1,
) -> list[list[ModeHistory]]:
    """Independent trajectories per mode; result[m][i] is trajectory i of mode m.

    Trajectory i of mode m uses substream id m * n_traj + i, so output is
    independent of execution order and bitwise identical across worker
    counts.
    """
    if n_traj < 1:
        raise ValueError("n_traj must be at least 1")
    jobs = [
        (m, i, modes[m].k, m * n_traj + i)
        for m in range(len(modes))
        for i in range(n_traj)
    ]
    out: list[list[ModeHistory | None]] = [[None] * n_traj for _ in modes]
    if n_workers <= 1:
        for m, i, k, sub in jobs:
            out[m][i] = simulate_mode(params, k, cfg, substream=sub)
    else:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            results = pool.map(
                lambda job: simulate_mode(params, job[2], cfg, substream=job[3]), jobs
            )
            for (m, i, _, _), hist in zip(jobs, results):
                out[m][i] = hist
    return out  # type: ignore[return-value]


def deterministic_decay(params: MediumParams, k: float, x0: float, t: float) -> float:
    """Noise-free solution x0 e^(-gamma_k t); the zero-noise oracle for both steppers."""
    if t < 0:
        raise ValueError("t must be non-negative")
    return x0 * math.exp(-relaxation_rate(params, k) * t)


def drift_residual(params: MediumParams, k: float, history: ModeHistory) -> np.ndarray:
    """Discrete drift operator d/dt x + gamma_k x applied to a history.

    Central differences on interior samples, one-sided at the endpoints.
    Vanishes (to O(dt^2)) on the deterministic decay solution.
    """
    x = history.values
    if x.size < 3:
        raise InsufficientDataError("history must have at least 3 samples")
    dt = history.dt
    deriv = np.empty_like(x)
    deriv[1:-1] = (x[2:] - x[:-2]) / (2.0 * dt)
    deriv[0] = (x[1] - x[0]) / dt
    deriv[-1] = (x[-1] - x[-2]) / dt
    return deriv + relaxation_rate(params, k) * x

"""Per-mode Langevin dynamics with fluctuation-dissipation-consistent noise.

Each Fourier mode obeys d(dT_k)/dt + gamma_k dT_k = xi_k with white noise
of correlation 2 Gamma_k.  Two steppers are provided: the exact
one-step transition law of this linear process (unbiased at any dt) and
Euler-Maruyama (O(dt) bias, used to demonstrate convergence).

Reproducibility: noise comes from counter-based Philox substreams keyed
by (master seed, substream id), so ensembles are bitwise identical
regardless of the order their trajectories are drawn in.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass, field
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_loader

import numpy as np

from .errors import InsufficientDataError
from .medium import MediumParams, equilibrium_mode_variance, noise_strength, relaxation_rate

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
    identical draw sequences on every platform.  Both must be integers: a
    float in either place raises TypeError.
    """

    def __init__(self, seed: int, substream: int = 0):
        self.seed = operator.index(seed)
        self.substream = operator.index(substream)
        key = np.array([self.seed, self.substream], dtype=np.uint64)
        self.generator = np.random.Generator(np.random.Philox(key=key))

    def normal(self, size=None, out=None):
        """Unit Gaussian draw(s), advancing the stream; into ``out`` if given."""
        return self.generator.standard_normal(size, out=out)


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


_kernel = None


def _linear_filter():
    """scipy's compiled lfilter recursion, called as lfilter calls it: (b, a, x, axis, zi).

    Loaded once, on first use, from scipy's scipy/signal/_sigtools extension
    alone: importing scipy.signal runs its __init__, which loads scipy.stats,
    scipy.optimize and scipy.interpolate, about a second and 70 MiB, all to
    reach this one function.
    """
    global _kernel
    if _kernel is None:
        import scipy

        stem = os.path.join(scipy.__path__[0], "signal", "_sigtools")
        path = next((stem + s for s in EXTENSION_SUFFIXES if os.path.exists(stem + s)), None)
        if path is None:
            raise ImportError(f"scipy has no compiled extension {stem}")
        loader = ExtensionFileLoader("scipy.signal._sigtools", path)
        module = module_from_spec(spec_from_loader(loader.name, loader))
        loader.exec_module(module)
        _kernel = module._linear_filter
    return _kernel


# Samples per chunk of a streamed history, 4 MiB.  fdr-verify over 5 modes of 1e7 samples,
# 3 runs each on a 2-vCPU VM, took 3.5-3.9 s at 56 MiB peak RSS with 2^18, 3.0-3.2 s at
# 66 MiB with 2^19 and 2.9-3.1 s at 86 MiB with 2^20.
CHUNK = 2 ** 19


def simulate_chunks(params: MediumParams, k: float, cfg: SimConfig, substream: int = 0):
    """The history of simulate_mode as consecutive arrays of CHUNK samples, the last one
    shorter; chunk j holds samples j * CHUNK onward.

    The Philox normals of each chunk are drawn into one reused buffer and the recursion
    carries its state from chunk to chunk, so the chunks are bitwise the pieces of the
    whole history.  Each yielded array is new: the next chunk does not overwrite it.
    """
    stream = NoiseStream(cfg.seed, substream)
    if cfg.initial == SAMPLE_EQUILIBRIUM:
        x0 = math.sqrt(equilibrium_mode_variance(params) * cfg.noise_scale) * stream.normal()
    else:
        x0 = float(cfg.initial)
    n = cfg.n_steps + 1
    alpha, scale = _step_coefficients(params, k, cfg.method, cfg.dt, cfg.noise_scale)
    b, a = np.array([1.0]), np.array([1.0, -alpha])
    # The buffer holds x0, then the increments scale * n_i.  The recursion
    # y_i = alpha * y_{i-1} + buf_i from the state -0.0 is the history in the scalar
    # steppers' arithmetic: adding -0.0 is exact, so y_0 is x0 to the bit, -0.0 included.
    state = np.array([-0.0])
    buf = np.empty(min(CHUNK, n))
    for start in range(0, n, CHUNK):
        part = buf[: min(CHUNK, n - start)]
        if start == 0:
            part[0], noise = x0, part[1:]
        else:
            noise = part
        stream.normal(out=noise)
        noise *= scale
        values, state = _linear_filter()(b, a, part, -1, state)
        yield values


def simulate_mode(
    params: MediumParams, k: float, cfg: SimConfig, substream: int = 0
) -> ModeHistory:
    """Integrate one mode over the configured grid; bitwise deterministic.

    The initial amplitude (or its equilibrium draw) consumes the first
    sample of the substream; the n-th step consumes the (n+1)-th.
    """
    values = np.concatenate(list(simulate_chunks(params, k, cfg, substream)))
    return ModeHistory(k=k, dt=cfg.dt, values=values)


def simulate_ensemble(params: MediumParams, ks, n_traj: int, cfg: SimConfig) -> np.ndarray:
    """Independent trajectories per wavenumber as one (len(ks), n_traj, n_steps + 1) array;
    result[m, i] is trajectory i of mode ks[m].

    Row r = m * n_traj + i of the flattened array is filled from simulate_chunks on
    substream r, so it is bitwise simulate_mode's history on that substream, whatever
    order the rows are drawn in.  ValueError if an entry is not finite, as from simulate_mode.
    """
    if n_traj < 1:
        raise ValueError("n_traj must be at least 1")
    out = np.empty((len(ks), n_traj, cfg.n_steps + 1))
    for r, row in enumerate(out.reshape(-1, out.shape[-1])):
        np.concatenate(list(simulate_chunks(params, ks[r // n_traj], cfg, substream=r)), out=row)
    if not np.isfinite(out).all():
        raise ValueError("history contains non-finite entries")
    return out


def deterministic_decay(params: MediumParams, k: float, x0: float, t: float) -> float:
    """Noise-free solution x0 e^(-gamma_k t); the zero-noise oracle for both steppers."""
    if t < 0:
        raise ValueError("t must be non-negative")
    return x0 * math.exp(-relaxation_rate(params, k) * t)


def drift_residual(params: MediumParams, k: float, history: ModeHistory) -> np.ndarray:
    """Discrete drift operator d/dt x + gamma_k x applied to a history.

    Vanishes (to O(dt^2)) on the deterministic decay solution.
    """
    return _drift_operator(history.values, history.dt, relaxation_rate(params, k))


def _drift_operator(x: np.ndarray, dt: float, rate) -> np.ndarray:
    """d/dt x + rate * x along the last axis of x; rate is a scalar or a column, one per row.

    Central differences on interior samples, one-sided at the endpoints.
    """
    if x.shape[-1] < 3:
        raise InsufficientDataError("history must have at least 3 samples")
    deriv = np.empty_like(x)
    deriv[..., 1:-1] = (x[..., 2:] - x[..., :-2]) / (2.0 * dt)
    deriv[..., 0] = (x[..., 1] - x[..., 0]) / dt
    deriv[..., -1] = (x[..., -1] - x[..., -2]) / dt
    return deriv + rate * x

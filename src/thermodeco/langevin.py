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
import threading
from dataclasses import dataclass
from functools import partial
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import find_spec, module_from_spec, spec_from_loader

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
_kernel_lock = threading.Lock()


def _linear_filter():
    """scipy's compiled lfilter recursion, called as lfilter calls it: (b, a, x, axis, zi).

    Loaded once, on first use, from scipy's scipy/signal/_sigtools extension
    alone, found where scipy is installed without importing scipy: importing
    scipy.signal runs its __init__, which loads scipy.stats, scipy.optimize and
    scipy.interpolate, about a second and 70 MiB, all to reach this one function,
    and importing scipy alone costs about 16 ms and 1 MiB after numpy, against
    under 1 ms and 0.1 MiB for the extension.
    """
    global _kernel
    with _kernel_lock:  # fdr-verify filters two modes at once, one on each thread
        if _kernel is None:
            spec = find_spec("scipy")
            roots = spec.submodule_search_locations if spec else None
            path = next(filter(os.path.exists, (os.path.join(root, "signal", "_sigtools" + sfx)
                                                for root in roots or ()
                                                for sfx in EXTENSION_SUFFIXES)), None)
            if path is None:
                raise ImportError("scipy has no compiled extension signal/_sigtools")
            loader = ExtensionFileLoader("scipy.signal._sigtools", path)
            module = module_from_spec(spec_from_loader(loader.name, loader))
            loader.exec_module(module)
            _kernel = module._linear_filter
    return _kernel


class _Ahead(threading.Thread):
    """work() run on a thread of its own, started at construction; result() joins the thread,
    then returns what work returned or raises what it raised, on the caller's thread.  (A
    concurrent.futures executor does the same, but importing it costs 5-8 ms.)"""

    def __init__(self, work):
        super().__init__(name="thermodeco-ahead")
        self._work, self._value, self._error = work, None, None
        self.start()

    def run(self):
        try:
            self._value = self._work()
        except BaseException as exc:  # raised again by result(), on the caller's thread
            self._error = exc

    def result(self):
        self.join()
        if self._error is not None:
            raise self._error
        return self._value


# Samples per chunk of a streamed history, 4 MiB.  fdr-verify over 5 modes of 1e7 samples, the
# noise drawn one chunk ahead, 4 alternating runs each on a 2-vCPU VM: 1.63 s at 41 MiB peak
# RSS with 2^18, 1.50 s at 48 MiB with 2^19 and 1.57 s at 60 MiB with 2^20.  StreamStats sums
# each chunk on its own, so CHUNK also fixes the bits of fdr-verify's and simulate's estimates.
# A chunk is filtered in pieces of CHUNK // 32 samples, 128 KiB, which stay in cache from the
# filter's write to the copy back into the chunk: filter and copy take 5.8 ns/sample, against
# 6.1 with the whole chunk as one piece and 6.3 with pieces of 4096 (one warm chunk, same VM).
CHUNK = 2 ** 19


def simulate_chunks(params: MediumParams, k: float, cfg: SimConfig, substream: int = 0,
                    ahead: bool = True):
    """The history of simulate_mode as consecutive arrays of CHUNK samples, the last one
    shorter; chunk j holds samples j * CHUNK onward.

    Each chunk is filtered in place in the buffer its Philox normals were drawn into, and the
    yielded array is that buffer: it is valid until the next chunk is asked for, which may
    overwrite it.  A history uses at most two buffers.  With ahead, a history longer than one
    chunk draws in turn into two of them: while the caller's thread scales and filters chunk
    j and the caller reduces it, a worker thread draws chunk j + 1's normals into the other.
    Without ahead, the caller's thread draws each chunk into one buffer when it is asked for:
    fdr-verify runs its modes so in pairs, the second on the thread drawing ahead would use.  One
    thread at a time draws, in stream order after x0, and the recursion carries its state
    from piece to piece and chunk to chunk, so the chunks are bitwise the pieces of the whole
    history.  A history of one chunk starts no thread.  The worker is joined before the
    generator ends or is closed; its error is raised at the chunk it was drawing.
    """
    stream = NoiseStream(cfg.seed, substream)
    if cfg.initial == SAMPLE_EQUILIBRIUM:
        x0 = math.sqrt(equilibrium_mode_variance(params) * cfg.noise_scale) * stream.normal()
    else:
        x0 = float(cfg.initial)
    n = cfg.n_steps + 1
    alpha, scale = _step_coefficients(params, k, cfg.method, cfg.dt, cfg.noise_scale)
    b, a = np.array([1.0]), np.array([1.0, -alpha])
    bufs = []

    def normals(start: int) -> np.ndarray:
        # The normals n_i of the chunk at start, in its buffer; chunk 0 leaves its first
        # entry to x0.  A buffer is allocated by the first thread to draw into it: glibc's
        # malloc gives each thread an arena, and a thread's freed memory is reused in its arena
        # only.  So fdr-verify's last mode draws ahead in the memory its pair thread freed
        j = start // CHUNK % 2 if ahead else 0
        if j == len(bufs):
            bufs.append(np.empty(min(CHUNK, n)))
        part = bufs[j][: min(CHUNK, n - start)]
        stream.normal(out=part[1:] if start == 0 else part)
        return part

    lfilter, piece = _linear_filter(), max(1, CHUNK // 32)
    state = np.array([-0.0])
    part, drawing = normals(0), None
    part[0] = x0
    try:
        for start in range(0, n, CHUNK):
            if start:
                part, drawing = drawing.result() if drawing is not None else normals(start), None
            if ahead and start + CHUNK < n:
                drawing = _Ahead(partial(normals, start + CHUNK))
            # The increments scale * n_i, scaled on this thread: the worker's draw is the
            # longer side.  The recursion y_i = alpha * y_{i-1} + part_i from the state -0.0 is
            # the history in the scalar steppers' arithmetic: adding -0.0 is exact, so y_0 is x0
            # to the bit, -0.0 included.
            part[1 if start == 0 else 0:] *= scale
            for i in range(0, part.size, piece):
                values, state = lfilter(b, a, part[i : i + piece], -1, state)
                part[i : i + piece] = values
            yield part
    finally:
        if drawing is not None:
            drawing.join()


def simulate_mode(
    params: MediumParams, k: float, cfg: SimConfig, substream: int = 0
) -> np.ndarray:
    """Integrate one mode over the configured grid; bitwise deterministic.

    Returns the history as a float64 array, entry n at t_n = n dt.  The
    initial amplitude (or its equilibrium draw) consumes the first sample of
    the substream; the n-th step consumes the (n+1)-th.  A non-finite entry
    raises ValueError.
    """
    values, start = np.empty(cfg.n_steps + 1), 0
    for chunk in simulate_chunks(params, k, cfg, substream):
        values[start : start + chunk.size] = chunk  # before the next chunk overwrites it
        start += chunk.size
    if not np.all(np.isfinite(values)):
        raise ValueError("history contains non-finite entries")
    return values


def deterministic_decay(params: MediumParams, k: float, x0: float, t: float) -> float:
    """Noise-free solution x0 e^(-gamma_k t); the zero-noise oracle for both steppers."""
    if t < 0:
        raise ValueError("t must be non-negative")
    return x0 * math.exp(-relaxation_rate(params, k) * t)


def drift_residual(params: MediumParams, k, x, dt: float) -> np.ndarray:
    """Discrete drift operator d/dt x + gamma_k x along the last axis of the history x,
    sampled at t_n = n dt; k is a wavenumber, or a column of them, one per row of x.

    Central differences on interior samples, one-sided at the endpoints; vanishes
    (to O(dt^2)) on the deterministic decay solution.
    """
    x = np.asarray(x, dtype=float)
    if not dt > 0:
        raise ValueError("dt must be positive")
    if x.ndim == 0 or x.shape[-1] < 3:
        raise InsufficientDataError("history must have at least 3 samples")
    if not np.all(np.isfinite(x)):
        raise ValueError("history contains non-finite entries")
    deriv = np.empty_like(x)
    deriv[..., 1:-1] = (x[..., 2:] - x[..., :-2]) / (2.0 * dt)
    deriv[..., 0] = (x[..., 1] - x[..., 0]) / dt
    deriv[..., -1] = (x[..., -1] - x[..., -2]) / dt
    return deriv + relaxation_rate(params, k) * x

"""Command-line interface: config-driven runs emitting CSV tables and JSON summaries.

Subcommands
    simulate      per-mode Langevin trajectories + variance/rate summary
    fdr-verify    stationary-variance and rate-recovery checks per mode
    deco-scan     decoherence exponent/magnitude table over wavenumbers
    field-sample  equilibrium lattice sampling with energy-fluctuation checks

Configuration is a plain-text key=value file (# comments); command-line
flags override file values.  Every RunConfig key has a flag of the same
name with _ written as - (k_list is --k); the key's annotation picks the
parser of both.  The fully resolved config and version string are
embedded in every output file.  Exit codes: 0 pass, 1 statistical
failure, 2 config error, 3 I/O failure, 4 internal consistency violation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing, contextmanager, nullcontext
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__, langevin
from .errors import InsufficientDataError
from .fieldspace import (
    equilibrium_energy_variance,
    equilibrium_site_variance,
    mean_free_energy,  # unused here; perfbench/traced.py wraps it by this name
    parseval_check,
    sample_equilibrium_field,
    total_energy_change,
    total_energy_fluctuation,  # unused here; perfbench/traced.py wraps it by this name
)
from .influence import decoherence_scan, noise_kernel_amplitude
from .langevin import (
    METHOD_EULER,
    METHOD_EXACT,
    SAMPLE_EQUILIBRIUM,
    NoiseStream,
    SimConfig,
    _step_coefficients,
    simulate_ensemble,
)
from .medium import (
    LatticeField,
    MediumParams,
    equilibrium_mode_variance,
    free_energy_change,
    noise_strength,
    relaxation_rate,
)
from .stats import (
    FIT_THRESHOLD,
    MIN_FIT_LAGS,
    StreamStats,
    autocorrelation,  # unused here; perfbench/traced.py wraps it by this name
    fit_exponential_rate,
    sample_variance,
    variance_stderr_correlated,
)

EXIT_OK = 0
EXIT_STAT_FAIL = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INTERNAL = 4

# Most threads a run may ask for: simulate's pool starts one per trajectory, up to workers.
MAX_WORKERS = 256


class ConfigError(Exception):
    pass


class ConsistencyViolation(Exception):
    """A result that contradicts what the physics guarantees: exit 4."""


@dataclass
class RunConfig:
    """Fully resolved run configuration (file values overridden by flags)."""

    T0: float = 1.0
    c0: float = 1.0
    D0: float = 1.0
    d: int = 1
    # mode set: explicit list wins over the uniform grid
    k_list: list = field(default_factory=list)
    k_min: float = 1.0
    dk: float = 1.0
    k_count: int = 1
    # simulation
    dt: float = 0.01
    t_end: float = 100.0
    method: str = METHOD_EXACT
    burn_in: float | None = None  # default 10 / gamma_k per mode
    n_traj: int = 1
    initial: float | str = SAMPLE_EQUILIBRIUM
    noise_scale: float = 1.0  # test-only knob; != 1 breaks the noise balance
    rate_tol: float = 0.05
    max_lag: int = 400
    # decoherence scan
    amplitude: float = 0.1
    duration: float = 10.0
    scan_steps: int = 100
    # lattice sampling
    lattice_n: int = 64
    lattice_a: float = 1.0
    n_fields: int = 1000
    # run control
    seed: int = 12345
    out: str = "out"
    format: str = "csv"
    workers: int = 1


# one parser per RunConfig annotation, for config-file values and flags alike
_PARSERS = {
    "float": float,
    "int": int,
    "str": str,
    "list": lambda raw: [float(x) for x in raw.split(",") if x.strip() != ""],
    "float | None": lambda raw: None if raw.strip().lower() in ("", "none", "auto") else float(raw),
    "float | str": lambda raw: raw if raw == SAMPLE_EQUILIBRIUM else float(raw),
}
_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _parse(key: str, raw: str, where: str):
    try:
        return _PARSERS[_FIELD_TYPES[key]](raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {key}: {exc}") from exc


def load_config_file(path: str) -> dict:
    values = {}
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, raw = line.split("=", 1)
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = _parse(key, raw.strip(), f"{path}:{lineno}")
    return values


def resolve_config(args: argparse.Namespace) -> RunConfig:
    values = load_config_file(args.config) if args.config else {}
    values.update((key, _parse(key, raw, "command line"))
                  for key, raw in vars(args).items() if key in _FIELD_TYPES)
    cfg = RunConfig(**values)
    if cfg.method not in (METHOD_EXACT, METHOD_EULER):
        raise ConfigError(f"unknown method {cfg.method!r}")
    if cfg.format not in ("csv", "json"):
        raise ConfigError(f"unknown format {cfg.format!r}")
    if cfg.workers < 1 or cfg.n_traj < 1:
        raise ConfigError("workers and n_traj must be >= 1")
    if cfg.workers > MAX_WORKERS:
        raise ConfigError(f"workers must be <= {MAX_WORKERS}, got {cfg.workers}")
    for name, val in vars(cfg).items():
        for v in val if isinstance(val, list) else [val]:
            if isinstance(v, float) and not math.isfinite(v):
                raise ConfigError(f"{name} must be finite, got {v}")
    if not 0 <= cfg.seed < 2 ** 64:
        raise ConfigError(f"seed must be in [0, 2^64 - 1], got {cfg.seed}")
    for name in ("burn_in", "rate_tol", "max_lag"):
        if (value := getattr(cfg, name)) is not None and value < 0:
            raise ConfigError(f"{name} must be non-negative, got {value}")
    return cfg


def _finite(what: str, compute):
    """A quantity derived from the config; a ConfigError if it overflows."""
    try:
        if math.isfinite(value := compute()):
            return value
    except (OverflowError, ZeroDivisionError):
        pass
    raise ConfigError(f"{what} overflows")


def _check_array_size(what: str, n_values: int):
    """A ConfigError if n_values float64 values exceed numpy's array size limit."""
    limit = np.iinfo(np.intp).max
    if n_values * np.dtype(float).itemsize > limit:
        raise ConfigError(f"{what} exceed numpy's array size limit of {limit} bytes")


def _check_run(cfg: RunConfig, params: MediumParams, ks: list[float], fdr: bool = False):
    """Time-grid, overflow and stability constraints of a simulated run.

    ``fdr`` also requires one trajectory per mode and what the fdr-verify rate
    fit needs of every damped mode: MIN_FIT_LAGS ACF lags after burn-in within
    max_lag, the expected ACF above FIT_THRESHOLD at the last of them.
    """
    if fdr and cfg.n_traj > 1:
        raise ConfigError(f"fdr-verify runs one trajectory per mode; n_traj must be 1, "
                          f"got {cfg.n_traj}")
    n_samples = _finite("number of steps t_end/dt", lambda: sim_config(cfg).n_steps) + 1
    _check_array_size("t_end/dt + 1 samples per trajectory", n_samples)
    _check_array_size("len(k) * n_traj * (t_end/dt + 1) samples of the run",
                      len(ks) * cfg.n_traj * n_samples)
    _finite("equilibrium variance T0^2/c0", lambda: equilibrium_mode_variance(params))
    if cfg.initial != SAMPLE_EQUILIBRIUM:
        _finite("initial^2 * (t_end/dt + 1)", lambda: cfg.initial ** 2 * n_samples)
    for k in ks:
        _finite(f"noise strength at k={k:g}", lambda: noise_strength(params, k))
        gamma = relaxation_rate(params, k)
        alpha, _ = _step_coefficients(params, k, cfg.method, cfg.dt, cfg.noise_scale)
        # each step multiplies by alpha, 1 - gamma dt for Euler-Maruyama
        if cfg.method == METHOD_EULER and gamma > 0 and abs(alpha) >= 1.0:
            raise ConfigError(f"euler-maruyama is unstable at k={k:g}: gamma*dt = "
                              f"{gamma * cfg.dt:g} >= 2; lower dt or use {METHOD_EXACT}")
        n_burn = _finite(f"burn-in steps (burn_in or 10/gamma)/dt at k={k:g}",
                         lambda: _burn_in_steps(cfg, gamma))
        if fdr and k > 0:
            if min(n_samples - n_burn, cfg.max_lag + 1) < MIN_FIT_LAGS:
                raise ConfigError(f"too few lags for the rate fit at k={k:g}: {n_samples} samples, "
                                  f"{n_burn} of them burn-in, max_lag = {cfg.max_lag}; "
                                  f"need {MIN_FIT_LAGS}")
            if not gamma * cfg.dt > 0:
                raise ConfigError(f"gamma*dt at k={k:g} underflows to 0: no decay for the rate fit")
            acf = math.exp(-(MIN_FIT_LAGS - 1) * gamma * cfg.dt)
            if acf <= FIT_THRESHOLD:
                raise ConfigError(f"dt too coarse for the rate fit at k={k:g}: expected ACF "
                                  f"{acf:.3g} at lag {MIN_FIT_LAGS - 1} <= {FIT_THRESHOLD}")
            _finite(f"rate gate floor 3*sqrt(2/(gamma*T)) after burn-in at k={k:g}",
                    lambda: _rate_floor(gamma, n_samples - n_burn, cfg.dt))


def _check_scan(cfg: RunConfig, params: MediumParams, ks: list[float]):
    """A ConfigError unless the scan's settings are positive, its wavenumbers distinct and
    the exponent decoherence_scan computes a positive normal float over the scan.

    The smallest and largest positive k have the largest and smallest exponents: at
    k_low N_k and the exponent must not overflow, at k_high the exponent must not
    underflow.  Both are the scan's own rows at those k.
    """
    if not (cfg.amplitude > 0 and cfg.duration > 0 and cfg.scan_steps >= 1):
        raise ConfigError("amplitude and duration must be positive, scan_steps >= 1")
    _check_array_size("scan_steps + 1 branch-difference samples", cfg.scan_steps + 1)
    if len(set(ks)) < len(ks):
        dup = next(k for k, count in Counter(ks).items() if count > 1)
        raise ConfigError(f"duplicate wavenumber {dup:g} in the scan")
    positive = [k for k in ks if k > 0]
    if not positive:
        return
    k_low, k_high = min(positive), max(positive)
    _finite(f"noise kernel N_k at k={k_low:g}", lambda: noise_kernel_amplitude(params, k_low))
    with np.errstate(over="ignore"):  # an overflowing sum of squares is inf: rejected below
        largest, smallest = decoherence_scan(params, [k_low, k_high], cfg.amplitude, cfg.duration,
                                             n_steps=cfg.scan_steps)["exponent"].tolist()
    _finite(f"decoherence exponent at k={k_low:g}", lambda: largest)
    if not smallest >= sys.float_info.min:
        raise ConfigError(f"decoherence exponent at k={k_high:g} underflows to {smallest:g}")


def _check_fields(cfg: RunConfig, params: MediumParams, ks: list[float]):
    """Ensemble size and overflow constraints of a lattice sample."""
    if cfg.n_fields < 2:
        raise ConfigError("n_fields must be >= 2")
    _check_array_size("n_fields per-field values", cfg.n_fields)
    _check_array_size("lattice_n^d sites of one field", cfg.lattice_n ** cfg.d)
    template = lattice_template(cfg)  # LatticeField checks lattice_n and lattice_a
    var = _finite("site variance T0^2/(c0*lattice_a^d)",
                  lambda: equilibrium_site_variance(params, template))
    _finite("n_sites * site variance", lambda: template.n_sites * var)
    if cfg.noise_scale < 0:
        raise ConfigError("noise_scale must be non-negative")
    _finite("n_sites * site variance * noise_scale",
            lambda: template.n_sites * var * cfg.noise_scale)
    _finite("energy variance V*c0*T0^2", lambda: equilibrium_energy_variance(params, template))


def wavenumbers(cfg: RunConfig) -> list[float]:
    """The mode set: the explicit k_list, else the uniform grid k_min + i * dk, allocated in
    one step (a grid beyond memory fails at once).  A ConfigError unless every k is finite
    (a grid point that overflows is +-inf) and non-negative."""
    _check_array_size("k_count wavenumbers", cfg.k_count)
    if cfg.k_list:
        ks = np.array(cfg.k_list, dtype=float)
    else:
        with np.errstate(over="ignore"):
            ks = cfg.k_min + np.arange(cfg.k_count) * cfg.dk
    if not (finite := np.isfinite(ks)).all():
        raise ConfigError(f"wavenumbers must be finite, got {ks[~finite][0]:g}")
    if ks.size and (low := ks.min()) < 0:
        raise ConfigError(f"wavenumbers must be non-negative, got {low:g}")
    return ks.tolist()


def sim_config(cfg: RunConfig) -> SimConfig:
    return SimConfig(dt=cfg.dt, t_end=cfg.t_end, method=cfg.method, seed=cfg.seed,
                     initial=cfg.initial, noise_scale=cfg.noise_scale)


def lattice_template(cfg: RunConfig) -> LatticeField:
    return LatticeField.zeros(cfg.d, (cfg.lattice_n,) * cfg.d, cfg.lattice_a)


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


# execution details excluded from provenance so outputs are byte-identical
# across worker counts and destination directories
_NON_PROVENANCE_KEYS = ("out", "workers")


def config_echo(cfg: RunConfig) -> dict:
    echo = {"version": __version__}
    echo.update((k, v) for k, v in asdict(cfg).items() if k not in _NON_PROVENANCE_KEYS)
    return echo


# the columns of a trajectory of one mode; a decoherence scan is its DECO_DTYPE table
TRAJ_COLUMNS = ["t", "delta_T"]


class _TemplateMemo:
    """The row templates _rows_text built for the last table, kept by _write for the tables
    that follow.

    Holds one template per block of BLOCK_ROWS rows, in which the table's first
    column, when it holds floats, is written in as text and every other cell is a
    placeholder, and their key: the table's layout, dtype, length and the bits of
    that column.  A table with an equal key fills only its other cells, so the
    time column that all trajectory tables of a simulate run share is formatted
    once per run.  The key compares bits, not values: -0.0 and 0.0 are written
    differently, and a NaN matches its own bits.  It is set once every block's
    template is built, so a table written only in part leaves no key.
    """

    def __init__(self):
        self.key = None
        self.templates = []


def write_csv(path: Path, columns: list[str], rows: np.ndarray, cfg: RunConfig, *,
              memo: _TemplateMemo | None = None):
    lines = []
    for key, val in config_echo(cfg).items():
        if isinstance(val, list):
            val = ",".join(_fmt(v) for v in val)
        lines.append(f"# {key}={_fmt(val)}")
    lines.append(",".join(columns))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
        fh.writelines(_csv_rows(rows, memo))


def write_table(outdir: Path, stem: str, columns: list[str], rows: np.ndarray, cfg: RunConfig, *,
                memo: _TemplateMemo | None = None):
    """Table in the configured format: CSV (default) or a JSON row list.

    ``rows`` is a record array with one field per column; float fields are
    written as numbers, other fields (bools) as _fmt writes them.  ``memo``
    carries the text of a first column from one table to the next (_TemplateMemo).
    """
    if cfg.format == "json":
        write_json(outdir / f"{stem}.json", {"columns": columns, "rows": rows}, cfg, memo=memo)
    else:
        write_csv(outdir / f"{stem}.csv", columns, rows, cfg, memo=memo)


def _interleave(rows: np.ndarray, names, float_cells) -> tuple:
    """The named fields of a record array, row after row: floats through float_cells, others
    by _fmt."""
    fields = []
    for name in names:
        values = rows[name].tolist()
        fields.append(float_cells(values) if rows.dtype[name].kind == "f"
                      else [_fmt(v) for v in values])
    return tuple(fields[0]) if len(fields) == 1 else tuple(chain.from_iterable(zip(*fields)))


# rows of a table formatted and written at a time.  Measured on 1e5-row tables: the write
# time is the same from 2^9 to 2^16 rows, while the peak resident set of a 1e5-row JSON
# deco-scan falls from 52 MiB at 2^14 to 47 MiB at 2^10 and stays there at smaller blocks
BLOCK_ROWS = 2 ** 10


def _rows_text(rows: np.ndarray, layout, float_spec: str, float_cells,
               memo: _TemplateMemo | None):
    """The text of a record array's rows, one block of BLOCK_ROWS rows at a time, each by
    one template: layout(specs, n) lays out n rows of cells from their '%' specs,
    float_spec and float_cells write a float cell.

    A first column of floats is written into the template as text first, each other
    spec escaped as '%%' for that pass; the text of a float has no '%' of its own.
    memo keeps the templates for a next table whose key is equal.
    """
    rows = rows.view(np.ndarray)  # a recarray's per-block slicing and field access cost more
    names = rows.dtype.names
    lead = names[:1] if rows.dtype[0].kind == "f" else ()
    key = (layout, rows.dtype, len(rows), rows[lead[0]].tobytes() if lead else None)
    if memo is None:
        memo = _TemplateMemo()
    reuse = memo.key == key
    if not reuse:
        specs = [float_spec if rows.dtype[name].kind == "f" else "%s" for name in names]
        specs = [spec if name in lead else spec.replace("%", "%%")
                 for name, spec in zip(names, specs)]
        memo.key, memo.templates = None, []
    for i, start in enumerate(range(0, len(rows), BLOCK_ROWS)):
        block = rows[start : start + BLOCK_ROWS]
        if not reuse:
            memo.templates.append(layout(specs, len(block)) % _interleave(block, lead, float_cells))
        yield memo.templates[i] % _interleave(block, names[len(lead):], float_cells)
    memo.key = key


def _csv_layout(specs: list[str], n: int) -> str:
    return (",".join(specs) + "\n") * n


def _csv_rows(rows: np.ndarray, memo: _TemplateMemo | None):
    """CSV lines of a record array, block by block; '%.17g' writes a float as _fmt does."""
    return _rows_text(rows, _csv_layout, "%.17g", list, memo)


def _json_floats(values: list) -> list[str]:
    """Floats as json writes them after _json_value: repr, a non-finite one as its quoted _fmt."""
    return [repr(v) if math.isfinite(v) else json.dumps(_fmt(v)) for v in values]


def _json_layout(specs: list[str], n: int) -> str:
    item = "    [\n      " + ",\n      ".join(specs) + "\n    ]"
    return ",\n".join([item] * n)


def _json_rows(rows: np.ndarray, memo: _TemplateMemo | None):
    """A record array as the JSON list of its rows, indented as a member of an indent-2
    object, block by block."""
    if len(rows) == 0:
        yield "[]"
        return
    yield "[\n"
    for i, text in enumerate(_rows_text(rows, _json_layout, "%s", _json_floats, memo)):
        if i:
            yield ",\n"
        yield text
    yield "\n  ]"


def _json_value(x):
    """x with each non-finite float written as its _fmt string: JSON has no inf or nan."""
    if isinstance(x, float):
        return x if math.isfinite(x) else _fmt(x)
    if isinstance(x, dict):
        return {k: _json_value(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_json_value(v) for v in x]
    return x


def write_json(path: Path, payload: dict, cfg: RunConfig, *, memo: _TemplateMemo | None = None):
    """payload and the config echo as json.dumps(_json_value(...), indent=2, sort_keys=True)
    writes them; a record array member (a table's rows) is written by _json_rows in the
    same bytes, not by json's pure-Python indent encoder.  Each member is written on its own."""
    payload = {**payload, "config": config_echo(cfg)}
    with open(path, "w", newline="\n") as fh:
        for i, (key, val) in enumerate(sorted(payload.items())):
            fh.write(("," if i else "{") + f"\n  {json.dumps(key)}: ")
            if isinstance(val, np.ndarray):
                fh.writelines(_json_rows(val, memo))
            else:
                fh.write(json.dumps(_json_value(val), indent=2, sort_keys=True,
                                    allow_nan=False).replace("\n", "\n  "))
        fh.write("\n}\n")


def _burn_in_steps(cfg: RunConfig, gamma: float) -> int:
    burn_t = cfg.burn_in if cfg.burn_in is not None else (10.0 / gamma if gamma > 0 else 0.0)
    return max(int(math.ceil(burn_t / cfg.dt)), 0)


def _rate_floor(gamma: float, n_post: int, dt: float) -> float:
    """The rate gate's statistical floor on |fitted - gamma| / gamma: 3 sd, where
    sd(rate)/rate ~ sqrt(2 tau / T) for n_post samples, T = n_post dt time units and
    correlation time tau = 1/gamma."""
    return 3.0 * math.sqrt(2.0 / (gamma * n_post * dt))


def _within_3sigma(estimate: float, expected: float, stderr: float) -> bool:
    """The gate |estimate - expected| <= 3 stderr; false when estimate or stderr is not finite."""
    return (math.isfinite(estimate) and math.isfinite(stderr)
            and abs(estimate - expected) <= 3.0 * stderr)


def _chunks(row: np.ndarray):
    """A whole history cut where langevin.simulate_chunks cuts it."""
    return (row[start : start + langevin.CHUNK] for start in range(0, row.size, langevin.CHUNK))


def _prefetched(items):
    """The items of an iterator in order, each next one computed on a worker thread while
    the caller works on this one.  An error of the iterator is raised in place of its item;
    closed early, it waits for the item in flight and leaves no thread running."""
    with ThreadPoolExecutor(1) as pool:
        ahead = pool.submit(next, items, None)
        while (item := ahead.result()) is not None:
            ahead = pool.submit(next, items, None)
            yield item


def _estimate_mode(params: MediumParams, cfg: RunConfig, k: float, trajs):
    """Estimates from a mode's trajectories, each an iterable of its chunks in order, cut
    where langevin.simulate_chunks cuts (so that every caller sums in the same order):
    gamma_k, the burn-in steps, the moments of all post-burn-in samples pooled in trajectory
    order (None below 2 samples), and the rate fitted on trajectory 0 after burn-in, or the
    InsufficientDataError."""
    gamma = relaxation_rate(params, k)
    n_burn = _burn_in_steps(cfg, gamma)
    n_post = sim_config(cfg).n_steps + 1 - n_burn
    stats = StreamStats(max(min(cfg.max_lag, n_post - 1), 0))
    for i, chunks in enumerate(trajs):
        start = 0
        for chunk in chunks:
            stats.add(chunk[max(n_burn - start, 0):], lags=i == 0)
            start += chunk.size
    st = stats.moments() if stats.n >= 2 else None
    try:  # below MIN_FIT_LAGS samples either the ACF or the fit raises
        rate = fit_exponential_rate(stats.acf(cfg.dt))
    except InsufficientDataError as exc:
        rate = exc
    return gamma, n_burn, st, rate


def run_simulate(cfg: RunConfig, params: MediumParams, ks: list[float]):
    ensemble = simulate_ensemble(params, ks, cfg.n_traj, sim_config(cfg), n_workers=cfg.workers)
    t = np.arange(ensemble.shape[-1]) * cfg.dt
    summary_modes = []
    for m, k in enumerate(ks):
        for i in range(cfg.n_traj):
            yield f"mode{m}_traj{i}", np.rec.fromarrays([t, ensemble[m, i]], names=TRAJ_COLUMNS)
        gamma, n_burn, st, rate = _estimate_mode(params, cfg, k, map(_chunks, ensemble[m]))
        entry = {
            "k": k,
            "expected_rate": gamma,
            "expected_variance": equilibrium_mode_variance(params),
            "n_traj": cfg.n_traj,
            "burn_in_steps": n_burn,
            "deterministic": cfg.noise_scale == 0.0,
            "fitted_rate": None if isinstance(rate, InsufficientDataError) else rate,
        }
        if st is not None:
            entry["sample_variance"] = st.variance
            entry["stderr_variance"] = variance_stderr_correlated(st.variance, st.n, gamma, cfg.dt)
            entry["sample_mean"] = st.mean
        summary_modes.append(entry)
    yield "summary", {"modes": summary_modes}


def run_fdr_verify(cfg: RunConfig, params: MediumParams, ks: list[float]):
    sim = sim_config(cfg)
    report = []
    all_pass = True
    for m, k in enumerate(ks):
        if k == 0.0:
            report.append({"k": 0.0, "skipped": "conserved mode (zero rate, zero noise)"})
            continue
        # one trajectory on substream m * n_traj (n_traj is 1), as simulate draws it; streamed:
        # the next chunk is simulated while this one is reduced, and no history is kept
        stream = langevin.simulate_chunks(params, k, sim, m * cfg.n_traj)
        with closing(_prefetched(stream)) as chunks:
            gamma, _, st, rate = _estimate_mode(params, cfg, k, [chunks])
        expected = equilibrium_mode_variance(params)
        stderr = variance_stderr_correlated(expected, st.n, gamma, cfg.dt)
        var_pass = _within_3sigma(st.variance, expected, stderr)
        entry = {
            "k": k,
            "variance": st.variance,
            "expected_variance": expected,
            "stderr_variance": stderr,
            "variance_pass": var_pass,
            "expected_rate": gamma,
        }
        if isinstance(rate, InsufficientDataError):
            entry.update({"fitted_rate": None, "rate_pass": False, "rate_error": str(rate)})
        else:
            rate_tol = max(cfg.rate_tol, _rate_floor(gamma, st.n, cfg.dt))
            entry.update({"fitted_rate": rate, "rate_tol": rate_tol,
                          "rate_pass": abs(rate - gamma) <= rate_tol * gamma})
        all_pass = all_pass and var_pass and entry["rate_pass"]
        report.append(entry)
    yield "fdr_report", {"tests": report, "all_pass": all_pass}


def run_deco_scan(cfg: RunConfig, params: MediumParams, ks: list[float]):
    rows = decoherence_scan(params, ks, cfg.amplitude, cfg.duration,
                            n_steps=cfg.scan_steps)
    exponents = rows["exponent"]
    if not np.all(exponents[:-1] >= exponents[1:]):
        raise ConsistencyViolation("exponent not strictly decreasing in k")
    if (ties := np.flatnonzero(exponents[:-1] == exponents[1:])).size:
        k_a, k_b = rows["k"][ties[0]:ties[0] + 2].tolist()
        raise ConfigError(f"wavenumbers {k_a!r} and {k_b!r} are too close: their exponents are "
                          f"equal in double precision")
    yield "deco_scan", rows


def run_field_sample(cfg: RunConfig, params: MediumParams, ks: list[float]):
    """Draw the fields from one stream in blocks of about langevin.CHUNK sites, keeping each
    field's energy and free energy: the bytes of one whole-ensemble draw.  The per-field
    arrays come first, so an n_fields beyond memory fails at once."""
    template = lattice_template(cfg)
    stream = NoiseStream(cfg.seed)
    du, df = np.empty(cfg.n_fields), np.empty(cfg.n_fields)
    block = max(1, langevin.CHUNK // template.n_sites)
    residuals = []
    with np.errstate(over="ignore"):  # an overflowing field gives an inf estimate: gated below
        for start in range(0, cfg.n_fields, block):
            stop = min(start + block, cfg.n_fields)
            batch = sample_equilibrium_field(params, template, stream, stop - start,
                                             cfg.noise_scale)
            du[start:stop] = total_energy_change(params, batch)
            df[start:stop] = free_energy_change(params, batch)
            # the Parseval check runs on the first 10 fields; a block of one is one field
            rows = batch.values.reshape(-1, *template.extents)[:max(0, 10 - start)]
            residuals += [parseval_check(template.with_values(row)) for row in rows]
        st = sample_variance(du)
        mean_df = float(np.mean(df))
    expected = equilibrium_energy_variance(params, template)
    du_pass = _within_3sigma(st.variance, expected, st.stderr_variance)
    residual = max(residuals)
    parseval_pass = residual <= 1e-12

    expected_df = template.n_sites * params.T0 / 2.0
    # free energy of an equilibrium field is a chi^2 sum: sd = sqrt(n_sites/2) * T0
    stderr_df = math.sqrt(template.n_sites / 2.0) * params.T0 / math.sqrt(cfg.n_fields)
    equip_pass = _within_3sigma(mean_df, expected_df, stderr_df)

    yield "field_summary", {
        "energy_variance": st.variance,
        "energy_variance_stderr": st.stderr_variance,
        "expected_energy_variance": expected,
        "energy_variance_pass": du_pass,
        "parseval_residual": residual,
        "parseval_pass": parseval_pass,
        "mean_free_energy": mean_df,
        "expected_mean_free_energy": expected_df,
        "equipartition_pass": equip_pass,
        "all_pass": du_pass and parseval_pass and equip_pass,
    }


def _write(cfg: RunConfig, outputs) -> int:
    """Write each (stem, output) a run yields into --out, created at the first output: a
    record array as a table, a dict as a JSON report.  Exit 1 if a report does not pass."""
    outdir = Path(cfg.out)
    code = EXIT_OK
    memo = _TemplateMemo()
    for stem, output in outputs:
        outdir.mkdir(parents=True, exist_ok=True)
        if isinstance(output, dict):
            write_json(outdir / f"{stem}.json", output, cfg)
            if not output.get("all_pass", True):
                code = EXIT_STAT_FAIL
        else:
            write_table(outdir, stem, list(output.dtype.names), output, cfg, memo=memo)
    return code


# each subcommand's check(cfg, params, wavenumbers), which raises ConfigError before
# anything runs, and run(cfg, params, wavenumbers), which yields the outputs _write writes
_COMMANDS = {
    "simulate": (_check_run, run_simulate),
    "fdr-verify": (partial(_check_run, fdr=True), run_fdr_verify),
    "deco-scan": (_check_scan, run_deco_scan),
    "field-sample": (_check_fields, run_field_sample),
}
# the commands whose summaries are reduced through BLAS; they run on one BLAS thread
_ONE_BLAS_THREAD = ("simulate", "fdr-verify")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value config file")
    for f in fields(RunConfig):
        flag = "--k" if f.name == "k_list" else "--" + f.name.replace("_", "-")
        common.add_argument(flag, dest=f.name, default=argparse.SUPPRESS)

    parser = argparse.ArgumentParser(prog="thermodeco",
                                     description="Fluctuating heat diffusion simulator and verifier")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sub.add_parser(name, parents=[common])
    return parser


@contextmanager
def _one_blas_thread():
    """numpy's bundled OpenBLAS on one thread inside the block, its thread count restored
    after, so that summaries reduced through BLAS do not depend on the thread count.  If the
    library or its thread functions are not found, one stderr line says so and the block
    runs unpinned."""
    import ctypes

    try:
        path = next(Path(np.__path__[0]).parent.glob("numpy.libs/libscipy_openblas64_*"))
        lib = ctypes.CDLL(str(path))
        get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (StopIteration, OSError, AttributeError) as exc:
        print(f"note: BLAS thread count not pinned ({type(exc).__name__}: {exc}); summaries "
              f"reduced through BLAS may depend on it", file=sys.stderr)
        yield
        return
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


_NO_MEMORY = "run does not fit in memory: "


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    check, run = _COMMANDS[args.command]
    try:
        cfg = resolve_config(args)
        params = MediumParams(T0=cfg.T0, c0=cfg.c0, D0=cfg.D0, d=cfg.d)
        ks = wavenumbers(cfg)
        check(cfg, params, ks)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"config error: {_NO_MEMORY}{exc}", file=sys.stderr)
        return EXIT_CONFIG
    blas = _one_blas_thread() if args.command in _ONE_BLAS_THREAD else nullcontext()
    try:
        with blas:
            return _write(cfg, run(cfg, params, ks))
    except ConfigError as exc:
        code, message = EXIT_CONFIG, f"config error: {exc}"
    except OSError as exc:
        code, message = EXIT_IO, f"i/o error: {exc}"
    except MemoryError as exc:
        code, message = EXIT_CONFIG, f"config error: {_NO_MEMORY}{exc}"
    except (ConsistencyViolation, ValueError) as exc:  # checked configs raise no ValueError
        code, message = EXIT_INTERNAL, f"internal consistency violation: {exc}"
    print(message, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

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

import os
import sys

# No command calls BLAS, yet numpy's OpenBLAS starts worker threads when it loads, and
# they spend CPU in every process.  Ask it for one thread.  The setting acts only before
# numpy loads, so a process that has loaded numpy already is left as it is
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import json
import math
import shutil
from collections import deque
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
from .influence import DECO_DTYPE, decoherence_scan, noise_kernel_amplitude, scan_exponents
from .langevin import (
    METHOD_EULER,
    METHOD_EXACT,
    SAMPLE_EQUILIBRIUM,
    NoiseStream,
    SimConfig,
    _step_coefficients,
)
from .medium import (
    LatticeField,
    MediumParams,
    equilibrium_mode_variance,
    free_energy_change,
    noise_strength,
    relaxation_rate,
)
from .stats import StreamStats, sample_variance, variance_stderr_correlated

# perfbench/traced.py looks these names up here to wrap them, but they name functions since
# deleted and nothing calls them; they go when traced.py reads stage timers (ROADMAP item 1)
autocorrelation = fit_exponential_rate = simulate_ensemble = None

EXIT_OK = 0
EXIT_STAT_FAIL = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INTERNAL = 4

# Largest --workers accepted.  --workers is how many threads or processes a command may run
# at once, and any number from 2 up runs two: fdr-verify's second mode of a pair, a long
# history's noise drawn a chunk ahead (langevin.simulate_chunks), or simulate's writer
# process (_Writer).  At 1 the command runs alone on the caller's thread
MAX_WORKERS = 256


class ConfigError(Exception):
    pass


class ConsistencyViolation(Exception):
    """A result that contradicts what the physics guarantees: exit 4."""


class _Parser(argparse.ArgumentParser):
    """A usage error is a ConfigError, one stderr line like every other exit 2."""

    def error(self, message):
        raise ConfigError(message)


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
    workers: int = 2


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
    if cfg.burn_in is not None and cfg.burn_in < 0:
        raise ConfigError(f"burn_in must be non-negative, got {cfg.burn_in}")
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


def _check_run(cfg: RunConfig, params: MediumParams, fdr: bool = False) -> list[float]:
    """The mode set, under the time-grid, overflow and stability constraints of a simulated run.

    ``fdr`` also requires one trajectory per mode, a damped mode and, of each, a lag-1 rate
    fdr-verify can measure: e^(-gamma dt) below 1 and LAG1_CLEARANCE sd of its estimate above
    0, over at least MIN_GAMMA_T relaxation times after burn-in.  Without ``fdr`` (simulate)
    every row, none shorter than "0,0\n", must fit in the space free on --out's file system.
    """
    ks = ScanGrid(cfg).points()
    if fdr and cfg.n_traj > 1:
        raise ConfigError(f"fdr-verify runs one trajectory per mode; n_traj must be 1, "
                          f"got {cfg.n_traj}")
    n_samples = _finite("number of steps t_end/dt", lambda: sim_config(cfg).n_steps) + 1
    _check_array_size("t_end/dt + 1 samples per trajectory", n_samples)
    # no run is held whole; this bounds each substream m * n_traj + i under Philox's 64-bit key
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
        n_post = n_samples - n_burn
        expected, sd = _lag1(gamma, max(n_post, 1), cfg.dt)
        if fdr and k > 0 and not (n_post >= 2 and LAG1_CLEARANCE * sd < expected < 1.0):
            raise ConfigError(f"lag-1 rate not measurable at k={k:g}: e^(-gamma*dt) = "
                              f"{expected:.3g} over {max(n_post, 0)} samples after burn-in is not "
                              f"between {LAG1_CLEARANCE:g} sd of its estimate and 1")
        if fdr and k > 0 and (gamma_t := gamma * n_post * cfg.dt) < MIN_GAMMA_T:
            raise ConfigError(f"lag-1 rate biased at k={k:g}: gamma*T = {gamma_t:.3g} after "
                              f"burn-in is below {MIN_GAMMA_T:g}; raise t_end")
    if not fdr:
        _check_free_disk(cfg, len(ks) * cfg.n_traj * n_samples * 4)
    elif not any(k > 0 for k in ks):
        raise ConfigError("fdr-verify has no damped mode to verify")
    return ks


def _check_free_disk(cfg: RunConfig, need: int):
    """A ConfigError if the run's tables need more than the need bytes free on the file
    system of --out's nearest existing ancestor."""
    out = Path(cfg.out).absolute()
    where = next(p for p in (out, *out.parents) if p.exists())
    if need > (free := shutil.disk_usage(where).free):
        raise ConfigError(f"the run writes at least {need} bytes, more than the {free} "
                          f"bytes free at {where}")


def _check_scan(cfg: RunConfig, params: MediumParams) -> ScanGrid:
    """The scan's grid, unless its settings are not positive, its rows, none shorter than
    "0,0,0,true\n", do not fit in the space free on --out's file system, or its exponents
    fail their checks.  The exponents are taken a block of the grid at a time, each block with
    the last k and exponent of the one before.

    The smallest positive k has the largest exponent: there N_k and the exponent must not
    overflow, checked in its block before the order.  The exponents must decrease, and the
    last one, the smallest, must be a normal float.
    """
    grid = ScanGrid(cfg)
    if not (cfg.amplitude > 0 and cfg.duration > 0 and cfg.scan_steps >= 1):
        raise ConfigError("amplitude and duration must be positive, scan_steps >= 1")
    _check_array_size("scan_steps + 1 branch-difference samples", cfg.scan_steps + 1)
    _check_free_disk(cfg, len(grid) * len("0,0,0,true\n"))
    scan = {"amplitude": cfg.amplitude, "duration": cfg.duration, "n_steps": cfg.scan_steps}
    k, exponents, tie, k_low = np.empty(0), np.empty(0), None, None
    # an overflow is inf and inf * 0 is nan: both rejected below, with no numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        for ks in grid.blocks():
            k = np.concatenate((k[-1:], ks))
            # at the first damped k, N_k before the block's exponents: a c0^2 that overflows
            # raises OverflowError there
            if first := (k_low is None and k[-1] > 0):
                low = int(np.searchsorted(k, 0.0, side="right"))
                k_low = float(k[low])
                _finite(f"noise kernel N_k at k={k_low:g}",
                        lambda: noise_kernel_amplitude(params, k_low))
            exponents = np.concatenate((exponents[-1:], scan_exponents(params, ks, **scan)))
            if first:
                _finite(f"decoherence exponent at k={k_low:g}", lambda: float(exponents[low]))
            if not np.all(exponents[:-1] >= exponents[1:]):
                raise ConsistencyViolation("exponent not strictly decreasing in k")
            if tie is None and (ties := np.flatnonzero(exponents[:-1] == exponents[1:])).size:
                tie = k[ties[0]:ties[0] + 2].tolist()
    if k_low is not None and not (smallest := float(exponents[-1])) >= sys.float_info.min:
        raise ConfigError(f"decoherence exponent at k={float(k[-1]):g} underflows to {smallest:g}")
    # a repeated k repeats its exponent: the first tie is a repeat or a pair too close to tell
    if tie is not None:
        k_a, k_b = tie
        if k_a == k_b:
            raise ConfigError(f"duplicate wavenumber {k_a:g} in the scan")
        raise ConfigError(f"wavenumbers {k_a!r} and {k_b!r} are too close: their exponents are "
                          f"equal in double precision")
    return grid


def _check_fields(cfg: RunConfig, params: MediumParams):
    """The lattice template and per-field energy and free-energy arrays of a lattice sample,
    under its ensemble size and overflow constraints; the arrays are allocated here, so an
    n_fields beyond memory fails at once.  The grid is checked, never made: a lattice field
    holds every mode of its lattice."""
    ScanGrid(cfg)
    if cfg.n_fields < 2:
        raise ConfigError("n_fields must be >= 2")
    _check_array_size("n_fields per-field values", cfg.n_fields)
    _check_array_size("lattice_n^d sites of one field", cfg.lattice_n ** cfg.d)
    # LatticeField checks lattice_n and lattice_a
    template = LatticeField.zeros(cfg.d, (cfg.lattice_n,) * cfg.d, cfg.lattice_a)
    var = _finite("site variance T0^2/(c0*lattice_a^d)",
                  lambda: equilibrium_site_variance(params, template))
    _finite("n_sites * site variance", lambda: template.n_sites * var)
    if cfg.noise_scale < 0:
        raise ConfigError("noise_scale must be non-negative")
    _finite("n_sites * site variance * noise_scale",
            lambda: template.n_sites * var * cfg.noise_scale)
    _finite("energy variance V*c0*T0^2", lambda: equilibrium_energy_variance(params, template))
    return template, np.empty(cfg.n_fields), np.empty(cfg.n_fields)


# values computed at a time where the block size fixes no output bit: field-sample's sites
# per block of fields and deco-scan's wavenumbers per block of rows.  Peak resident set of
# cold runs at 2^13/2^14/2^15/2^16/2^19: field-sample of 1e5 fields x 64 sites 37.8/38.0/
# 38.0/38.4/48.9 MiB; a CSV deco-scan of 2e5 wavenumbers 31.2/31.9/33.9/36.8 MiB, against
# 30.4-30.9 MiB at 1e4.  Wall time is the same from 2^14 up; at 2^13 field-sample's
# per-block calls cost ~10% more
BLOCK_VALUES = 2 ** 14


def _grid(cfg: RunConfig, i: np.ndarray) -> np.ndarray:
    """The points k_min + i * dk of the uniform grid at the indices i; one that overflows
    is +-inf.  The grid is monotone in i."""
    with np.errstate(over="ignore"):
        return cfg.k_min + i * cfg.dk


def _check_wavenumbers(ks: np.ndarray) -> np.ndarray:
    """ks, unless a k is not finite or is negative: a ConfigError naming the first
    non-finite k, else the smallest."""
    if not (finite := np.isfinite(ks)).all():
        raise ConfigError(f"wavenumbers must be finite, got {ks[~finite][0]:g}")
    if ks.size and (low := ks.min()) < 0:
        raise ConfigError(f"wavenumbers must be non-negative, got {low:g}")
    return ks


class ScanGrid:
    """The mode set: the explicit k_list, held whole (its user sized it), or the uniform grid
    k_min + i * dk, made only when asked for.  simulate and fdr-verify take its points,
    deco-scan its blocks, field-sample only its checks.  A ConfigError unless every k is
    finite (a grid point that overflows is +-inf) and non-negative: the grid is monotone in i
    and its point i = 0 is k_min, so its point i = k_count - 1 is non-finite if any is, and
    one of the two is its smallest."""

    def __init__(self, cfg: RunConfig):
        _check_array_size("k_count wavenumbers", cfg.k_count)
        self.cfg = cfg
        if cfg.k_list:
            self.listed = _check_wavenumbers(np.array(cfg.k_list, dtype=float))
            self.sorted, self.n = np.sort(self.listed), self.listed.size
        else:
            self.listed, self.sorted, self.n = None, None, max(cfg.k_count, 0)
            if self.n:
                _check_wavenumbers(_grid(cfg, np.array([self.n - 1, 0])))

    def points(self) -> list[float]:
        """The k in the given order, allocated in one step: a grid beyond memory fails at once."""
        if self.listed is not None:
            return self.listed.tolist()
        return _grid(self.cfg, np.arange(self.n)).tolist()

    def __len__(self) -> int:
        return self.n

    def blocks(self):
        """The k, increasing, BLOCK_VALUES at a time; the grid from its far end if dk < 0."""
        for start in range(0, self.n, BLOCK_VALUES):
            stop = min(start + BLOCK_VALUES, self.n)
            if self.sorted is not None:
                yield self.sorted[start:stop]
            elif self.cfg.dk < 0:
                yield _grid(self.cfg, np.arange(self.n - 1 - start, self.n - 1 - stop, -1))
            else:
                yield _grid(self.cfg, np.arange(start, stop))


def sim_config(cfg: RunConfig) -> SimConfig:
    return SimConfig(dt=cfg.dt, t_end=cfg.t_end, method=cfg.method, seed=cfg.seed,
                     initial=cfg.initial, noise_scale=cfg.noise_scale)


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
TRAJ_DTYPE = np.dtype([("t", float), ("delta_T", float)])


class Table:
    """A table written as it is made, in parts: record arrays of one dtype; len() counts rows.

    ``memo``, one dict shared by the tables of a run whose first columns repeat, carries
    the text of that column from table to table (_rows_text); None keeps no text.
    ``source``, a generator the parts are made from that a run reads to its end whether or
    not they are read, is closed by close(): a process that writes none of the table then
    computes none of it.  ``lead``, given by a run of more than one table, holds parts of
    the rows the memo keeps, with the first column of the table's and zeros elsewhere:
    _write puts their text in the memo before it forks a _Writer.
    """

    def __init__(self, dtype: np.dtype, n_rows: int, parts, memo: dict | None = None,
                 source=None, lead=None):
        self.dtype, self.n_rows, self.parts, self.memo = dtype, n_rows, parts, memo
        self.source, self.lead = source, lead

    def __len__(self) -> int:
        return self.n_rows

    def close(self):
        """End the table unread."""
        if self.source is not None:
            self.source.close()


def write_csv(path: Path, columns: list[str], rows: Table, cfg: RunConfig):
    lines = []
    for key, val in config_echo(cfg).items():
        if isinstance(val, list):
            val = ",".join(_fmt(v) for v in val)
        lines.append(f"# {key}={_fmt(val)}")
    lines.append(",".join(columns))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
        fh.writelines(_rows_text(rows, *_TEXT["csv"]))


def write_table(outdir: Path, stem: str, columns: list[str], rows: Table | np.ndarray,
                cfg: RunConfig):
    """Table in the configured format: CSV (default) or a JSON row list.

    ``rows`` is a Table or one record array, with one field per column; float fields
    are written as numbers, other fields (bools) as _fmt writes them.
    """
    if isinstance(rows, np.ndarray):
        rows = Table(rows.dtype, len(rows), [rows])
    if cfg.format == "json":
        write_json(outdir / f"{stem}.json", {"columns": columns, "rows": rows}, cfg)
    else:
        write_csv(outdir / f"{stem}.csv", columns, rows, cfg)


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


def _rows_text(table: Table, layout, float_spec: str, float_cells, lead_only: bool = False):
    """The text of a table's rows, BLOCK_ROWS rows of a part at a time, each block by one
    template: layout(specs, n) lays out n rows of cells from their '%' specs.

    A first column of floats is written into the template as text first, each other spec
    escaped as '%%' for that pass; the text of a float has no '%' of its own (float_spec and
    float_cells write a float cell).  The table's memo, shared by a run's tables, maps a
    block's first row index, below langevin.CHUNK, to its key and template; a block with
    an equal key (the layout, the block's dtype and length, and the bits of its first
    column, so -0.0 is not 0.0 and a NaN matches itself) fills only its other cells.  A
    simulate run so formats its time column once while trajectories are one chunk long.
    With lead_only, only the memo is filled and nothing is yielded.
    """
    names = table.dtype.names
    lead = names[:1] if table.dtype[0].kind == "f" else ()
    specs = [float_spec if table.dtype[name].kind == "f" else "%s" for name in names]
    specs = [spec if name in lead else spec.replace("%", "%%") for name, spec in zip(names, specs)]
    memo = table.memo
    row = 0
    for part in table.parts:
        part = part.view(np.ndarray)  # a recarray's per-block slicing and field access cost more
        for start in range(0, len(part), BLOCK_ROWS):
            block = part[start : start + BLOCK_ROWS]
            key = None if memo is None else (
                layout, block.dtype, len(block), block[lead[0]].tobytes() if lead else None)
            kept, template = (None, None) if key is None else memo.get(row, (None, None))
            if key is None or kept != key:
                template = layout(specs, len(block)) % _interleave(block, lead, float_cells)
                if key is not None and row < langevin.CHUNK:
                    memo[row] = key, template
            if not lead_only:
                yield template % _interleave(block, names[len(lead):], float_cells)
            row += len(block)
        part = block = None  # not held while the next part is made


def _csv_layout(specs: list[str], n: int) -> str:
    return (",".join(specs) + "\n") * n


def _json_floats(values: list) -> list[str]:
    """Floats as json writes them after _json_value: repr, a non-finite one as its quoted _fmt."""
    return [repr(v) if math.isfinite(v) else json.dumps(_fmt(v)) for v in values]


def _json_layout(specs: list[str], n: int) -> str:
    item = "    [\n      " + ",\n      ".join(specs) + "\n    ]"
    return ",\n".join([item] * n)


# the layout, float spec and float cells of _rows_text in each table format; CSV's floats
# are _fmt's
_TEXT = {"csv": (_csv_layout, "%.17g", list), "json": (_json_layout, "%s", _json_floats)}


def _fill_memo(table: Table, fmt: str):
    """Put the text of table.lead's first column in the table's memo, as writing the table in
    the format fmt would."""
    deque(_rows_text(Table(table.dtype, 0, table.lead, table.memo), *_TEXT[fmt], True), maxlen=0)


def _json_rows(rows: Table):
    """A table as the JSON list of its rows, indented as a member of an indent-2 object."""
    sep = "[\n"
    for text in _rows_text(rows, *_TEXT["json"]):
        yield sep + text
        sep = ",\n"
    yield "[]" if sep == "[\n" else "\n  ]"


def _json_value(x):
    """x with each non-finite float written as its _fmt string: JSON has no inf or nan."""
    if isinstance(x, float):
        return x if math.isfinite(x) else _fmt(x)
    if isinstance(x, dict):
        return {k: _json_value(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_json_value(v) for v in x]
    return x


def write_json(path: Path, payload: dict, cfg: RunConfig):
    """payload and the config echo as json.dumps(_json_value(...), indent=2, sort_keys=True)
    writes them; a Table member (a table's rows) is written by _json_rows in the same
    bytes, not by json's pure-Python indent encoder.  Each member is written on its own."""
    payload = {**payload, "config": config_echo(cfg)}
    with open(path, "w", newline="\n") as fh:
        for i, (key, val) in enumerate(sorted(payload.items())):
            fh.write(("," if i else "{") + f"\n  {json.dumps(key)}: ")
            if isinstance(val, Table):
                fh.writelines(_json_rows(val))
            else:
                fh.write(json.dumps(_json_value(val), indent=2, sort_keys=True,
                                    allow_nan=False).replace("\n", "\n  "))
        fh.write("\n}\n")


def _burn_in_steps(cfg: RunConfig, gamma: float) -> int:
    burn_t = cfg.burn_in if cfg.burn_in is not None else (10.0 / gamma if gamma > 0 else 0.0)
    return max(int(math.ceil(burn_t / cfg.dt)), 0)


# How many sd of its estimate the expected lag-1 correlation alpha of an fdr-verify mode must
# stand above 0.  The rate gate's first-order 3 sd, mapped back through the log, admit rho_1
# within [-2.6, +3.5] sd of alpha at 10 sd, 0.5% false alarms per mode, but [-2.3, +4.1] sd,
# 1.2%, at 5 sd.  At 10 sd a rho_1 <= 0, which has no rate, has probability ~1e-23.
LAG1_CLEARANCE = 10.0

# Fewest relaxation times gamma*T after burn-in of an fdr-verify mode: rho_1 biases the rate by
# ~1/T against its sd sqrt(2 gamma/T).  Null false alarms of the rate gate per mode (k = 1, no
# burn-in, 2000 seeds, dt 0.01 / 0.1): 1.0 / 1.7% at gamma*T = 50, 0.6 / 1.2% at 75, 0.3 / 0.6%
# at 100; of the variance gate 0.2-0.4% at each.
MIN_GAMMA_T = 100.0


def _lag1(gamma: float, n_post: int, dt: float) -> tuple[float, float]:
    """alpha = e^(-gamma dt), the lag-1 correlation of an exact-OU mode, and the sd
    sqrt((1 - alpha^2)/n_post) of its estimate (Bartlett's formula for an AR(1) series)."""
    alpha = math.exp(-gamma * dt)
    return alpha, math.sqrt((1.0 - alpha * alpha) / n_post)


def _stderr_variance(variance: float, n: int, params: MediumParams, cfg: RunConfig, k: float):
    """variance_stderr_correlated at r = alpha^2, alpha the configured stepper's.  The exact
    law's alpha^2 is e^(-2 gamma dt) in one rounding: alpha * alpha differs at half of all dt."""
    alpha, _ = _step_coefficients(params, k, cfg.method, cfg.dt, cfg.noise_scale)
    exact = math.exp(-2.0 * relaxation_rate(params, k) * cfg.dt)
    r = exact if cfg.method == METHOD_EXACT else alpha * alpha
    return variance_stderr_correlated(variance, n, r)


def _gate(estimate: float, expected: float, stderr: float) -> tuple[float, bool]:
    """z = (estimate - expected)/stderr, inf or nan where stderr is 0 or a value is not
    finite, and whether |estimate - expected| <= 3 stderr, false when estimate or stderr is
    not finite."""
    with np.errstate(divide="ignore", invalid="ignore"):
        z = float(np.float64(estimate - expected) / stderr)
    return z, (math.isfinite(estimate) and math.isfinite(stderr)
               and abs(estimate - expected) <= 3.0 * stderr)


def _estimate_mode(params: MediumParams, cfg: RunConfig, m: int, k: float, trajectory,
                   ahead: bool = True):
    """Yield what trajectory(i, chunks) yields for each trajectory i of mode m, given the
    (start index, chunk)s of langevin.simulate_chunks(..., ahead) on substream m * n_traj + i,
    each chunk fed to one estimator once it is read (the rest after), which overwrites it:
    trajectory is done with a chunk when it asks for the next.  Return gamma_k, the burn-in
    steps, the pooled post-burn-in moments (None below 2), trajectory 0's lag-1 rate or its
    error."""
    gamma = relaxation_rate(params, k)
    n_burn = _burn_in_steps(cfg, gamma)
    stats = StreamStats()

    def fed(i: int):
        start = 0
        for chunk in langevin.simulate_chunks(params, k, sim_config(cfg), m * cfg.n_traj + i,
                                              ahead):
            yield start, chunk
            stats.add(chunk[max(n_burn - start, 0):], lags=i == 0)  # overwrites the chunk
            start += chunk.size

    for i in range(cfg.n_traj):
        chunks = fed(i)
        yield from trajectory(i, chunks)
        deque(chunks, maxlen=0)  # the rest, holding no chunk while the next is filtered
    st = stats.moments() if stats.n >= 2 else None
    try:
        rate = stats.lag1_rate(cfg.dt)
    except InsufficientDataError as exc:
        rate = exc
    return gamma, n_burn, st, rate


def _trajectory_rows(chunks, dt: float):
    """(t = n dt, delta_T) record arrays of BLOCK_ROWS rows of a trajectory's (start, chunk)s."""
    for start, chunk in chunks:
        for j in range(0, chunk.size, BLOCK_ROWS):
            values = chunk[j : j + BLOCK_ROWS]
            yield np.rec.fromarrays([np.arange(start + j, start + j + values.size) * dt, values],
                                    dtype=TRAJ_DTYPE)


def run_simulate(cfg: RunConfig, params: MediumParams, ks: list[float]):
    n_rows = sim_config(cfg).n_steps + 1
    memo = {}  # every trajectory table has the same t column
    # each table's lead in a run of more than one table: the rows the memo keeps, of a history
    # of zeros
    lead = [(0, np.zeros(min(n_rows, langevin.CHUNK)))] if len(ks) * cfg.n_traj > 1 else None
    summary_modes = []
    for m, k in enumerate(ks):
        gamma, n_burn, st, rate = yield from _estimate_mode(params, cfg, m, k, lambda i, chunks: [
            (f"mode{m}_traj{i}",
             Table(TRAJ_DTYPE, n_rows, _trajectory_rows(chunks, cfg.dt), memo, chunks,
                   lead and _trajectory_rows(lead, cfg.dt)))],
            cfg.workers >= 2)
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
            entry["stderr_variance"] = _stderr_variance(st.variance, st.n, params, cfg, k)
            entry["sample_mean"] = st.mean
        summary_modes.append(entry)
    yield "summary", {"modes": summary_modes}


class _Stopped(Exception):
    """Raised in a mode that its pair's failure stopped; never reported."""


def _fdr_estimate(params: MediumParams, cfg: RunConfig, m: int, k: float, ahead: bool = True,
                  stop: list | tuple = ()):
    """_estimate_mode's return for fdr-verify's mode m: one trajectory (n_traj is 1), drawn as
    simulate draws it, which yields no output.  _Stopped at the first chunk boundary at which
    stop is not empty."""

    def until_stopped(i, chunks):
        for _ in chunks:
            if stop:
                raise _Stopped
        return ()

    estimate = _estimate_mode(params, cfg, m, k, until_stopped, ahead)
    try:
        next(estimate)
    except StopIteration as done:
        return done.value


def _paired_estimates(params: MediumParams, cfg: RunConfig, modes: list[tuple[int, float]]):
    """Yield _fdr_estimate of each (m, k) of modes, in order, taken two at a time: the first
    on this thread and the second on a langevin._Ahead thread, neither drawing ahead; a last
    unpaired mode draws ahead.  So at most one thread runs besides this one, and every byte
    is what the modes run in turn give.  A failure ends the run as it would end them in turn:
    if the first fails, or this thread is interrupted, the second stops at its next chunk
    boundary and is joined before the first's error is raised; if the second fails, the
    first still runs to the end, and its error is raised if it has one.  At --workers 1 the
    modes run in turn on this thread, none drawing ahead."""
    if cfg.workers < 2:
        yield from (_fdr_estimate(params, cfg, *mode, False) for mode in modes)
        return
    for j in range(0, len(modes) - 1, 2):
        stop = []  # appended to on this thread, read on the other: a list op is atomic
        second = langevin._Ahead(partial(_fdr_estimate, params, cfg, *modes[j + 1], False, stop))
        try:
            pair = _fdr_estimate(params, cfg, *modes[j], False), second.result()
        except BaseException:
            stop.append(True)
            second.join()
            raise
        yield from pair
    if len(modes) % 2:
        yield _fdr_estimate(params, cfg, *modes[-1])


def run_fdr_verify(cfg: RunConfig, params: MediumParams, ks: list[float]):
    report = []
    all_pass = True
    estimates = _paired_estimates(params, cfg, [(m, k) for m, k in enumerate(ks) if k != 0.0])
    for m, k in enumerate(ks):
        if k == 0.0:
            report.append({"k": 0.0, "skipped": "conserved mode (zero rate, zero noise)"})
            continue
        gamma, _, st, rate = next(estimates)
        expected = equilibrium_mode_variance(params)
        stderr = _stderr_variance(expected, st.n, params, cfg, k)
        var_z, var_pass = _gate(st.variance, expected, stderr)
        entry = {
            "k": k,
            "variance": st.variance,
            "expected_variance": expected,
            "stderr_variance": stderr,
            "variance_z": var_z,
            "variance_pass": var_pass,
            "expected_rate": gamma,
        }
        if isinstance(rate, InsufficientDataError):
            entry.update({"fitted_rate": None, "rate_pass": False, "rate_error": str(rate)})
        else:
            alpha, sd = _lag1(gamma, st.n, cfg.dt)
            stderr_rate = sd / (alpha * cfg.dt)  # the delta method's sd of -ln(rho_1)/dt
            rate_z, rate_pass = _gate(rate, gamma, stderr_rate)
            entry.update({"fitted_rate": rate, "stderr_rate": stderr_rate,
                          "rate_z": rate_z, "rate_pass": rate_pass})
        all_pass = all_pass and var_pass and entry["rate_pass"]
        report.append(entry)
    yield "fdr_report", {"tests": report, "all_pass": all_pass}


def run_deco_scan(cfg: RunConfig, params: MediumParams, grid: ScanGrid):
    """The scan's table, decoherence_scan's rows made a block of the grid at a time."""
    yield "deco_scan", Table(DECO_DTYPE, len(grid), (
        decoherence_scan(params, ks, cfg.amplitude, cfg.duration, cfg.scan_steps)
        for ks in grid.blocks()))


def run_field_sample(cfg: RunConfig, params: MediumParams, sample):
    """Draw the fields from one stream in blocks of about BLOCK_VALUES sites, keeping each
    field's energy and free energy in the sample's per-field arrays: the bytes of one
    whole-ensemble draw."""
    template, du, df = sample
    stream = NoiseStream(cfg.seed)
    block = max(1, BLOCK_VALUES // template.n_sites)
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
    du_z, du_pass = _gate(st.variance, expected, st.stderr_variance)
    residual = max(residuals)
    parseval_pass = residual <= 1e-12

    expected_df = template.n_sites * params.T0 / 2.0
    # free energy of an equilibrium field is a chi^2 sum: sd = sqrt(n_sites/2) * T0
    stderr_df = math.sqrt(template.n_sites / 2.0) * params.T0 / math.sqrt(cfg.n_fields)
    equip_z, equip_pass = _gate(mean_df, expected_df, stderr_df)

    yield "field_summary", {
        "energy_variance": st.variance,
        "energy_variance_stderr": st.stderr_variance,
        "expected_energy_variance": expected,
        "energy_variance_z": du_z,
        "energy_variance_pass": du_pass,
        "parseval_residual": residual,
        "parseval_pass": parseval_pass,
        "mean_free_energy": mean_df,
        "expected_mean_free_energy": expected_df,
        "equipartition_z": equip_z,
        "equipartition_pass": equip_pass,
        "all_pass": du_pass and parseval_pass and equip_pass,
    }


def _writer_takes(table: int) -> bool:
    """Whether a run's table number ``table`` (0 for its first table) is _Writer's."""
    return table % 2 == 1


# the errors main tells apart, sent by the writer process by name and raised again by name
_REPORTED = {exc.__name__: exc for exc in (OSError, MemoryError, ValueError)}


def _write_share(cfg: RunConfig, outdir: Path, items, fd: int):
    """The writer process: of the (index, (stem, output))s of items, from the run's first
    table on, write each table that _writer_takes, close every other table unread and skip
    the reports.  Report each table written as the JSON line [index], or the first
    error as [index, kind, message], on the pipe fd; then leave through os._exit, status 0
    once items are done."""
    status, index, table = 1, -1, 0
    try:
        for index, (stem, output) in items:
            if isinstance(output, dict):
                continue
            if _writer_takes(table):
                write_table(outdir, stem, list(output.dtype.names), output, cfg)
                os.write(fd, b"[%d]\n" % index)
            elif isinstance(output, Table):
                output.close()
            table += 1
        status = 0
    except BaseException as exc:  # reported to the parent, which raises it
        kind = next((name for name, k in _REPORTED.items() if isinstance(exc, k)),
                    type(exc).__name__)
        os.write(fd, json.dumps([index, kind, str(exc)]).encode() + b"\n")
    finally:
        os._exit(status)


class _Writer:
    """A forked copy of this process that writes the run's tables that _writer_takes
    (_write_share), each into its own file, while this process writes the others and every
    report.  It is forked at the run's first table, once its time column's text is in the
    run's memo (_fill_memo): the copy inherits that text and formats none of it again.

    This process still draws every table, which its reports pool in order; it builds no
    rows of the writer's.  ``owed`` is the index of the last output that is the writer's.
    OSError if no process can be forked.
    """

    def __init__(self, cfg: RunConfig, outdir: Path, items, first: tuple):
        read, write = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(read)
            os.close(write)
            raise
        if not self.pid:
            os.close(read)
            _write_share(cfg, outdir, chain([first], items), write)
        os.close(write)
        self.fd, self.text = read, b""
        self.owed, self.done, self.error = -1, -1, None

    def _read(self, block: bool):
        """Take in what the writer reported, waiting for a report if block; at the end of
        the pipe, reap the writer, and if it ended before its outputs did, with no error
        reported, record one at the output after its last table."""
        os.set_blocking(self.fd, block)
        try:
            data = os.read(self.fd, 1 << 16)
        except BlockingIOError:
            return
        *lines, self.text = (self.text + data).split(b"\n")
        for line in lines:
            index, *error = json.loads(line)
            if not error:
                self.done = index
            elif self.error is None:
                kind, message = error
                exc = _REPORTED.get(kind)
                self.error = index, (exc(message) if exc else
                                     RuntimeError(f"writer process: {kind}: {message}"))
        if not data:
            _, status = os.waitpid(self.pid, 0)
            self.pid = None
            if status and self.error is None:
                self.error = self.done + 1, ChildProcessError(
                    f"the writer process ended with status {os.waitstatus_to_exitcode(status)}")

    def wait(self, to_end: bool = False):
        """Read the writer's reports until it has reported every table it owes, failed or
        ended; with to_end, until it ended."""
        while self.pid and (to_end or self.error is None and self.done < self.owed):
            self._read(True)

    def check(self, index: int):
        """Raise the writer's first error if it came before output ``index``."""
        if self.pid:
            self._read(False)
        if self.error is not None and self.error[0] < index:
            raise self.error[1]

    def end(self):
        """Kill the writer unless it ended, reap it and close the pipe."""
        if self.pid:
            import signal  # loaded on this path alone

            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
        os.close(self.fd)


def _write(cfg: RunConfig, outputs) -> int:
    """Write each (stem, output) a run yields into --out, created at the first output: a
    Table or record array as a table, a dict as a JSON report.  Exit 1 if a report fails.

    At --workers 2 or more, a run whose first table has a ``lead`` (a run of more than one
    table) shares its tables with a _Writer process forked at that table, unless os has no
    fork, the fork fails or another thread is alive.  A failure ends the run with the exit
    code and message of the run in turn: a report waits for the writer's earlier tables, and
    of two errors the one at the earlier output is raised, the writer's at the same output.
    A failure or an interrupt kills the writer, which is reaped before this returns; which
    other tables got written may then differ from the run in turn.
    """
    outdir = Path(cfg.out)
    code = EXIT_OK
    items = enumerate(outputs)
    writer, table, index = None, 0, -1
    try:
        for index, (stem, output) in items:
            outdir.mkdir(parents=True, exist_ok=True)
            if writer is not None:
                if isinstance(output, dict):
                    writer.wait()
                writer.check(index)
            if isinstance(output, dict):
                write_json(outdir / f"{stem}.json", output, cfg)
                if not output.get("all_pass", True):
                    code = EXIT_STAT_FAIL
                continue
            # langevin, which alone starts threads, has threading loaded
            if (table == 0 and isinstance(output, Table) and output.lead is not None
                    and cfg.workers >= 2 and hasattr(os, "fork")
                    and langevin.threading.active_count() == 1):
                _fill_memo(output, cfg.format)
                try:
                    writer = _Writer(cfg, outdir, items, (index, (stem, output)))
                except OSError:  # no process to fork: the run goes on alone
                    pass
            if writer is not None and _writer_takes(table):
                writer.owed = index
            else:
                write_table(outdir, stem, list(output.dtype.names), output, cfg)
            table += 1
        if writer is not None:
            writer.wait(to_end=True)
            writer.check(math.inf)
    except Exception:
        if writer is not None:
            writer.wait()
            writer.check(index + 1)
        raise
    finally:
        if writer is not None:
            writer.end()
    return code


# each subcommand's check(cfg, params), which raises every ConfigError and returns what its
# run needs; and run(cfg, params, checked), which only computes and yields the outputs _write
# writes
_COMMANDS = {
    "simulate": (_check_run, run_simulate),
    "fdr-verify": (partial(_check_run, fdr=True), run_fdr_verify),
    "deco-scan": (_check_scan, run_deco_scan),
    "field-sample": (_check_fields, run_field_sample),
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value config file")
    for f in fields(RunConfig):
        flag = "--k" if f.name == "k_list" else "--" + f.name.replace("_", "-")
        common.add_argument(flag, dest=f.name, default=argparse.SUPPRESS)

    parser = _Parser(prog="thermodeco",
                     description="Fluctuating heat diffusion simulator and verifier")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sub.add_parser(name, parents=[common])
    return parser


_NO_MEMORY = "run does not fit in memory: "


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        check, run = _COMMANDS[args.command]
        cfg = resolve_config(args)
        params = MediumParams(T0=cfg.T0, c0=cfg.c0, D0=cfg.D0, d=cfg.d)
        checked = check(cfg, params)
    except SystemExit:  # --help, which printed the usage
        return EXIT_OK
    except (ConfigError, OSError, ValueError) as exc:
        code, message = EXIT_CONFIG, f"config error: {exc}"
    except MemoryError as exc:
        code, message = EXIT_CONFIG, f"config error: {_NO_MEMORY}{exc}"
    except ConsistencyViolation as exc:  # deco-scan's exponents rise with k
        code, message = EXIT_INTERNAL, f"internal consistency violation: {exc}"
    else:
        try:
            return _write(cfg, run(cfg, params, checked))
        except OSError as exc:
            code, message = EXIT_IO, f"i/o error: {exc}"
        except MemoryError as exc:
            code, message = EXIT_CONFIG, f"config error: {_NO_MEMORY}{exc}"
        except ValueError as exc:  # a non-finite history; checked configs raise no other
            code, message = EXIT_INTERNAL, f"internal consistency violation: {exc}"
    print(message, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

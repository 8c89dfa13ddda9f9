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
from dataclasses import asdict, dataclass, field, fields
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from .errors import InsufficientDataError
from .fieldspace import (
    equilibrium_energy_variance,
    equilibrium_site_variance,
    mean_free_energy,
    parseval_check,
    sample_equilibrium_field,
    total_energy_fluctuation,
)
from .influence import decoherence_scan, noise_kernel_amplitude
from .langevin import (
    METHOD_EULER,
    METHOD_EXACT,
    SAMPLE_EQUILIBRIUM,
    ModeHistory,
    NoiseStream,
    SimConfig,
    _step_coefficients,
    simulate_ensemble,
)
from .medium import (
    LatticeField,
    MediumParams,
    ModeSpec,
    equilibrium_mode_variance,
    noise_strength,
    relaxation_rate,
)
from .stats import (
    FIT_THRESHOLD,
    MIN_FIT_LAGS,
    autocorrelation,
    fit_exponential_rate,
    sample_variance,
    variance_stderr_correlated,
)

EXIT_OK = 0
EXIT_STAT_FAIL = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INTERNAL = 4


class ConfigError(Exception):
    pass


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
    for name, val in vars(cfg).items():
        for v in val if isinstance(val, list) else [val]:
            if isinstance(v, float) and not math.isfinite(v):
                raise ConfigError(f"{name} must be finite, got {v}")
    params = medium(cfg)
    ks = wavenumbers(cfg)
    if ks and min(ks) < 0:
        raise ConfigError(f"wavenumbers must be non-negative, got {min(ks):g}")
    if args.command in ("simulate", "fdr-verify"):
        _check_run(cfg, params, ks, args.command == "fdr-verify")
    elif args.command == "deco-scan":
        if not (cfg.amplitude > 0 and cfg.duration > 0 and cfg.scan_steps >= 1):
            raise ConfigError("amplitude and duration must be positive, scan_steps >= 1")
        if len(set(ks)) < len(ks):
            dup = next(k for k, count in Counter(ks).items() if count > 1)
            raise ConfigError(f"duplicate wavenumber {dup:g} in the scan")
        positive = [k for k in ks if k > 0]
        if positive:
            _check_scan(cfg, params, min(positive))
    elif args.command == "field-sample":
        if cfg.n_fields < 2:
            raise ConfigError("n_fields must be >= 2")
        template = lattice_template(cfg)  # LatticeField checks lattice_n and lattice_a
        _check_array_size("n_fields * lattice_n^d site values", cfg.n_fields * template.n_sites)
        var = _finite("site variance T0^2/(c0*lattice_a^d)",
                      lambda: equilibrium_site_variance(params, template))
        _finite("n_sites * site variance", lambda: template.n_sites * var)
        if cfg.noise_scale < 0:
            raise ConfigError("noise_scale must be non-negative")
        _finite("n_sites * site variance * noise_scale",
                lambda: template.n_sites * var * cfg.noise_scale)
        _finite("energy variance V*c0*T0^2", lambda: equilibrium_energy_variance(params, template))
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


def _check_run(cfg: RunConfig, params: MediumParams, ks: list[float], fdr: bool):
    """Time-grid, overflow and stability constraints of a simulated run.

    ``fdr`` also requires what the fdr-verify rate fit needs of every damped
    mode: MIN_FIT_LAGS ACF lags after burn-in within max_lag, the expected
    ACF above FIT_THRESHOLD at the last of them.
    """
    n_samples = _finite("number of steps t_end/dt", lambda: sim_config(cfg).n_steps) + 1
    _check_array_size("t_end/dt + 1 samples per trajectory", n_samples)
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
        if fdr and gamma > 0:
            n_burn = _burn_in_steps(cfg, gamma)
            if min(n_samples - n_burn, cfg.max_lag + 1) < MIN_FIT_LAGS:
                raise ConfigError(f"too few lags for the rate fit at k={k:g}: {n_samples} samples, "
                                  f"{n_burn} of them burn-in, max_lag = {cfg.max_lag}; "
                                  f"need {MIN_FIT_LAGS}")
            acf = math.exp(-(MIN_FIT_LAGS - 1) * gamma * cfg.dt)
            if acf <= FIT_THRESHOLD:
                raise ConfigError(f"dt too coarse for the rate fit at k={k:g}: expected ACF "
                                  f"{acf:.3g} at lag {MIN_FIT_LAGS - 1} <= {FIT_THRESHOLD}")


def _check_scan(cfg: RunConfig, params: MediumParams, k: float):
    """A ConfigError if N_k or the exponent dt * N_k * scan_steps * amplitude^2 overflows at k.

    Given the smallest positive k of the scan, whose exponent is the largest; the
    factors are multiplied in the order decoherence_scan multiplies them.
    """
    n_k = _finite(f"noise kernel N_k at k={k:g}", lambda: noise_kernel_amplitude(params, k))
    _finite(f"decoherence exponent at k={k:g}",
            lambda: cfg.duration / cfg.scan_steps * n_k * (cfg.scan_steps * cfg.amplitude ** 2))


def wavenumbers(cfg: RunConfig) -> list[float]:
    """The mode set: the explicit k_list, else the uniform grid."""
    if cfg.k_list:
        return list(cfg.k_list)
    return [cfg.k_min + i * cfg.dk for i in range(cfg.k_count)]


def mode_set(cfg: RunConfig) -> list[ModeSpec]:
    return [ModeSpec(k=k, weight=1.0) for k in wavenumbers(cfg)]


def sim_config(cfg: RunConfig) -> SimConfig:
    return SimConfig(dt=cfg.dt, t_end=cfg.t_end, method=cfg.method, seed=cfg.seed,
                     initial=cfg.initial, noise_scale=cfg.noise_scale)


def medium(cfg: RunConfig) -> MediumParams:
    return MediumParams(T0=cfg.T0, c0=cfg.c0, D0=cfg.D0, d=cfg.d)


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


# table layouts: a trajectory of one mode, and a decoherence scan (the rows of decoherence_scan)
TRAJ_COLUMNS = ["t", "delta_T"]
DECO_DTYPE = np.dtype([("k", float), ("exponent", float), ("magnitude", float),
                       ("conserved_flag", bool)])


def write_csv(path: Path, columns: list[str], rows: np.ndarray, cfg: RunConfig):
    lines = []
    for key, val in config_echo(cfg).items():
        if isinstance(val, list):
            val = ",".join(_fmt(v) for v in val)
        lines.append(f"# {key}={_fmt(val)}")
    lines.append(",".join(columns))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n" + _csv_rows(rows))


def write_table(outdir: Path, stem: str, columns: list[str], rows: np.ndarray, cfg: RunConfig):
    """Table in the configured format: CSV (default) or a JSON row list.

    ``rows`` is a record array with one field per column; float fields are
    written as numbers, other fields (bools) as _fmt writes them.
    """
    if cfg.format == "json":
        write_json(outdir / f"{stem}.json", {"columns": columns, "rows": rows}, cfg)
    else:
        write_csv(outdir / f"{stem}.csv", columns, rows, cfg)


def _interleave(rows: np.ndarray, float_cells) -> tuple:
    """Every field of a record array, row after row: floats through float_cells, others by _fmt."""
    fields = []
    for name in rows.dtype.names:
        values = rows[name].tolist()
        fields.append(float_cells(values) if rows.dtype[name].kind == "f"
                      else [_fmt(v) for v in values])
    return tuple(chain.from_iterable(zip(*fields)))


def _csv_rows(rows: np.ndarray) -> str:
    """CSV lines of a record array by one template; '%.17g' writes a float as _fmt does."""
    line = ",".join("%.17g" if rows.dtype[name].kind == "f" else "%s"
                    for name in rows.dtype.names) + "\n"
    return (line * len(rows)) % _interleave(rows, list)


def _json_floats(values: list) -> list[str]:
    """Floats as json writes them after _json_value: repr, a non-finite one as its quoted _fmt."""
    return [repr(v) if math.isfinite(v) else json.dumps(_fmt(v)) for v in values]


def _json_rows(rows: np.ndarray) -> str:
    """A record array as the indent-2 JSON list of its rows, by one template."""
    if len(rows) == 0:
        return "[]"
    item = "  [\n" + ",\n".join(["    %s"] * len(rows.dtype.names)) + "\n  ]"
    return "[\n" + ",\n".join([item] * len(rows)) % _interleave(rows, _json_floats) + "\n]"


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
    writes them; a record array member (a table's rows) is written by _json_rows in the
    same bytes, not by json's pure-Python indent encoder."""
    payload = {**payload, "config": config_echo(cfg)}
    members = (f"{json.dumps(key)}: " + (
        _json_rows(val) if isinstance(val, np.ndarray)
        else json.dumps(_json_value(val), indent=2, sort_keys=True, allow_nan=False))
        for key, val in sorted(payload.items()))
    with open(path, "w", newline="\n") as fh:
        fh.write("{\n  " + ",\n  ".join(m.replace("\n", "\n  ") for m in members) + "\n}\n")


def _burn_in_steps(cfg: RunConfig, gamma: float) -> int:
    burn_t = cfg.burn_in if cfg.burn_in is not None else (10.0 / gamma if gamma > 0 else 0.0)
    return max(int(math.ceil(burn_t / cfg.dt)), 0)


def _within_3sigma(estimate: float, expected: float, stderr: float) -> bool:
    """The gate |estimate - expected| <= 3 stderr; false when estimate or stderr is not finite."""
    return (math.isfinite(estimate) and math.isfinite(stderr)
            and abs(estimate - expected) <= 3.0 * stderr)


def _fit_rate(cfg: RunConfig, k: float, post: np.ndarray) -> float:
    """Decay rate fitted to the ACF of post-burn-in samples; InsufficientDataError if too few."""
    if post.size < MIN_FIT_LAGS:
        raise InsufficientDataError(f"{post.size} samples after burn-in, the fit needs {MIN_FIT_LAGS}")
    acf = autocorrelation(ModeHistory(k, cfg.dt, post), min(cfg.max_lag, post.size - 1))
    return fit_exponential_rate(acf)


def _mode_summary(params: MediumParams, cfg: RunConfig, spec: ModeSpec, trajs: list[ModeHistory]) -> dict:
    gamma = relaxation_rate(params, spec.k)
    n_burn = _burn_in_steps(cfg, gamma)
    post = np.concatenate([h.values[n_burn:] for h in trajs])
    entry: dict = {
        "k": spec.k,
        "expected_rate": gamma,
        "expected_variance": equilibrium_mode_variance(params),
        "n_traj": len(trajs),
        "burn_in_steps": n_burn,
        "deterministic": cfg.noise_scale == 0.0,
    }
    if post.size >= 2:
        st = sample_variance(post)
        entry["sample_variance"] = st.variance
        entry["stderr_variance"] = variance_stderr_correlated(st.variance, st.n, gamma, cfg.dt)
        entry["sample_mean"] = st.mean
    try:
        entry["fitted_rate"] = _fit_rate(cfg, spec.k, trajs[0].values[n_burn:])
    except InsufficientDataError:
        entry["fitted_rate"] = None
    return entry


def cmd_simulate(cfg: RunConfig) -> int:
    params = medium(cfg)
    modes = mode_set(cfg)
    sim = sim_config(cfg)
    ensemble = simulate_ensemble(params, modes, cfg.n_traj, sim, n_workers=cfg.workers)
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    summary_modes = []
    for m, (spec, trajs) in enumerate(zip(modes, ensemble)):
        for i, hist in enumerate(trajs):
            rows = np.rec.fromarrays([hist.times, hist.values], names=TRAJ_COLUMNS)
            write_table(outdir, f"mode{m}_traj{i}", TRAJ_COLUMNS, rows, cfg)
        summary_modes.append(_mode_summary(params, cfg, spec, trajs))
    write_json(outdir / "summary.json", {"modes": summary_modes}, cfg)
    return EXIT_OK


def cmd_fdr_verify(cfg: RunConfig) -> int:
    params = medium(cfg)
    modes = mode_set(cfg)
    sim = sim_config(cfg)
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    report = []
    all_pass = True
    for m, spec in enumerate(modes):
        if spec.k == 0.0:
            report.append({"k": 0.0, "skipped": "conserved mode (zero rate, zero noise)"})
            continue
        hist = simulate_ensemble(params, [spec], 1, sim, n_workers=cfg.workers)[0][0]
        gamma = relaxation_rate(params, spec.k)
        n_burn = _burn_in_steps(cfg, gamma)
        post = hist.values[n_burn:]
        st = sample_variance(post)
        expected = equilibrium_mode_variance(params)
        stderr = variance_stderr_correlated(expected, st.n, gamma, cfg.dt)
        var_pass = _within_3sigma(st.variance, expected, stderr)
        entry = {
            "k": spec.k,
            "variance": st.variance,
            "expected_variance": expected,
            "stderr_variance": stderr,
            "variance_pass": var_pass,
        }
        try:
            fitted = _fit_rate(cfg, spec.k, post)
            # statistical floor: sd(rate)/rate ~ sqrt(2 tau / T) for a run of
            # T time units with correlation time tau = 1/gamma
            rel_sd = math.sqrt(2.0 / (gamma * post.size * cfg.dt))
            rate_tol = max(cfg.rate_tol, 3.0 * rel_sd)
            rate_pass = abs(fitted - gamma) <= rate_tol * gamma
            entry.update({"fitted_rate": fitted, "expected_rate": gamma,
                          "rate_tol": rate_tol, "rate_pass": rate_pass})
        except InsufficientDataError as exc:
            entry.update({"fitted_rate": None, "expected_rate": gamma, "rate_pass": False,
                          "rate_error": str(exc)})
            rate_pass = False
        all_pass = all_pass and var_pass and rate_pass
        report.append(entry)
    write_json(outdir / "fdr_report.json", {"tests": report, "all_pass": all_pass}, cfg)
    return EXIT_OK if all_pass else EXIT_STAT_FAIL


def cmd_deco_scan(cfg: RunConfig) -> int:
    params = medium(cfg)
    ks = wavenumbers(cfg)
    rows = np.array(decoherence_scan(params, ks, cfg.amplitude, cfg.duration,
                                     n_steps=cfg.scan_steps), dtype=DECO_DTYPE)
    exponents = rows["exponent"]
    if not np.all(exponents[:-1] > exponents[1:]):
        print("internal consistency violation: exponent not strictly decreasing in k",
              file=sys.stderr)
        return EXIT_INTERNAL
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    write_table(outdir, "deco_scan", list(DECO_DTYPE.names), rows, cfg)
    return EXIT_OK


def cmd_field_sample(cfg: RunConfig) -> int:
    params = medium(cfg)
    template = lattice_template(cfg)
    stream = NoiseStream(0.0, cfg.seed, 0)
    ensemble = sample_equilibrium_field(params, template, stream, cfg.n_fields, cfg.noise_scale)
    st = total_energy_fluctuation(params, ensemble)
    expected = equilibrium_energy_variance(params, template)
    du_pass = _within_3sigma(st.variance, expected, st.stderr_variance)

    residual = max(parseval_check(template.with_values(row)) for row in ensemble.values[:10])
    parseval_pass = residual <= 1e-12

    mean_df = mean_free_energy(params, ensemble)
    expected_df = template.n_sites * params.T0 / 2.0
    # free energy of an equilibrium field is a chi^2 sum: sd = sqrt(n_sites/2) * T0
    stderr_df = math.sqrt(template.n_sites / 2.0) * params.T0 / math.sqrt(cfg.n_fields)
    equip_pass = _within_3sigma(mean_df, expected_df, stderr_df)

    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    write_json(outdir / "field_summary.json", {
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
    }, cfg)
    return EXIT_OK if (du_pass and parseval_pass and equip_pass) else EXIT_STAT_FAIL


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


_COMMANDS = {
    "simulate": cmd_simulate,
    "fdr-verify": cmd_fdr_verify,
    "deco-scan": cmd_deco_scan,
    "field-sample": cmd_field_sample,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        cfg = resolve_config(args)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return _COMMANDS[args.command](cfg)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        print(f"config error: run does not fit in memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""thermodeco benchmark: fresh `thermodeco` processes on four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the program runs from `src/`
with nothing installed and nothing to build.  The loop is closed, with one
client: one `thermodeco` process at a time, back to back, for S seconds,
each writing into a fresh output directory under `.bench_work/`.  Every
invocation's outputs are checked (checks.py) and hashed; all invocations
with one seed must write byte-identical output trees.

--trace 0 reports the end-to-end metrics, measured with tracing off:
    wall_s       wall time of one process, spawn to exit (median)
    cpu_s        user + system CPU of that process, from wait4 (median)
    peak_rss_mb  peak resident set of that process, from wait4 (median)
    setup_s      wall time of `thermodeco <subcommand> --help` (median)
--trace 1 alternates untraced processes with traced ones (traced.py) and
reports the per-layer metrics (computed in layers.py).

Sample counts, maxima, the error rate and the environment record are
printed on the lines before the last and stored under
`.bench_work/results/`; no timing file goes into an output directory.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
HELP_RUNS = 3


@dataclass(frozen=True)
class Workload:
    """One `thermodeco` command line.

    `params` become `--flag value` pairs (`t_end` -> `--t-end`, lists
    comma-joined), or, with `config_file`, lines of a `key=value` config
    file; the seed goes the same way.
    """

    subcommand: str
    params: dict
    check: Callable[[Path, int, dict], list[str]]
    config_file: bool = False
    # overrides for one set-up run whose output every measured run must match
    reference: dict | None = None


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    "simulate-csv": Workload(
        "simulate",
        {"k": [1.0, 2.0], "dt": 0.01, "t_end": 1000.0, "n_traj": 4, "workers": 2},
        checks.check_simulate, reference={"workers": 1}),
    "fdr-long": Workload(
        "fdr-verify",
        {"k": [0.5, 1.0, 2.0, 3.0, 4.0], "dt": 0.01, "t_end": 100000.0},
        checks.check_fdr),
    "field-ensemble": Workload(
        "field-sample",
        {"lattice_n": 64, "n_fields": 100000},
        checks.check_field),
    "deco-sweep": Workload(
        "deco-scan",
        {"format": "json", "k_min": 0.0, "dk": 0.0001, "k_count": 100000,
         "scan_steps": 1000, "amplitude": 0.001, "duration": 10.0},
        checks.check_deco, config_file=True),
}


def _value(v) -> str:
    return ",".join(map(str, v)) if isinstance(v, list) else str(v)


@dataclass
class Invocation:
    rc: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def spawn(args: list[str]) -> Invocation:
    """Run `python3 ARGS` with the checkout's `src/` on the path; wait4 gives its usage."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(WORK / "stdout.txt", "w+") as out, open(WORK / "stderr.txt", "w+") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Invocation(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                          usage.ru_maxrss / 1024.0, out.read(), err.read())


class Run:
    """One benchmark run of one workload and seed: invocations, checks, tallies."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.attempted = 0
        self.failures: list[str] = []
        self.digest: str | None = None
        self._serial = itertools.count()
        self.config_path = WORK / f"{name}.cfg"
        if self.workload.config_file:
            lines = [f"{k}={_value(v)}" for k, v in self.workload.params.items()]
            self.config_path.write_text("\n".join(lines + [f"seed={seed}"]) + "\n")

    def command(self, params: dict, out: Path) -> list[str]:
        args = [self.workload.subcommand]
        if self.workload.config_file:
            args += ["--config", str(self.config_path)]
        else:
            for key, val in params.items():
                args += ["--" + key.replace("_", "-"), _value(val)]
            args += ["--seed", str(self.seed)]
        return args + ["--out", str(out)]

    def fail(self, problem: str) -> None:
        self.failures.append(problem)
        print(f"FAILED {self.name} seed={self.seed}: {problem}", file=sys.stderr)

    def help(self) -> Invocation:
        """`thermodeco <subcommand> --help`: interpreter start, imports, parser build."""
        self.attempted += 1
        inv = spawn(["-m", "thermodeco.cli", self.workload.subcommand, "--help"])
        if inv.rc != 0 or "usage:" not in inv.stdout:
            self.fail(f"--help exited {inv.rc}: {inv.stderr.strip()[-300:]}")
        return inv

    def invoke(self, traced: bool = False, **overrides) -> tuple[Invocation, dict | None]:
        """One invocation into a fresh output directory, checked, hashed and removed.

        With `traced`, the command runs in-process under traced.py and
        `-X importtime`, and its parsed spans file is returned too.
        """
        self.attempted += 1
        n = next(self._serial)
        out = WORK / "out" / str(n)
        params = dict(self.workload.params, **overrides)
        argv = self.command(params, out)
        spans_path = WORK / f"spans-{n}.json"
        if traced:
            run_id = f"{self.name}-seed{self.seed}-{n}"
            inv = spawn(["-X", "importtime", str(HERE / "traced.py"), str(spans_path), run_id,
                         "--", *argv])
        else:
            inv = spawn(["-m", "thermodeco.cli", *argv])
        trace = None
        try:
            problems = self.workload.check(out, inv.rc, dict(params, seed=self.seed))
            if traced:
                trace = json.loads(spans_path.read_text())
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
        if not problems:
            digest = checks.tree_digest(out)
            if self.digest is None:
                self.digest = digest
            elif digest != self.digest:
                problems = ["output tree differs from an earlier invocation with this seed"]
        for problem in problems:
            self.fail(f"{problem} (stderr: {inv.stderr.strip()[-300:]!r})")
        shutil.rmtree(out, ignore_errors=True)
        spans_path.unlink(missing_ok=True)
        return inv, (trace if not problems else None)


def filesystem(path: Path) -> dict:
    """Mount point and type of the filesystem holding `path`, from /proc/self/mountinfo."""
    best = {"mount": None, "type": None}
    target = str(path.resolve())
    try:
        with open("/proc/self/mountinfo") as fh:
            for line in fh:
                left, _, right = line.partition(" - ")
                mount = left.split()[4]
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best["mount"] or ""):
                    best = {"mount": mount, "type": right.split()[0]}
    except OSError:
        pass
    return best


def environment() -> dict:
    inv = spawn([str(HERE / "envinfo.py")])
    try:
        env = json.loads(inv.stdout)
    except ValueError:
        env = {"error": inv.stderr.strip()[-300:]}
    env["output_filesystem"] = filesystem(WORK)
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu"] = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        env["cpu"] = None
    return env


def summary(values: list[float]) -> dict:
    return {"median": statistics.median(values), "max": max(values), "n": len(values),
            "values": values}


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def back_to_back(seconds: int, step: Callable[[], None]) -> None:
    """Call `step` at least once, and again while the next call should end within `seconds`."""
    cycles: list[float] = []
    deadline = time.perf_counter() + seconds
    while not cycles or time.perf_counter() + statistics.median(cycles) <= deadline:
        start = time.perf_counter()
        step()
        cycles.append(time.perf_counter() - start)


def measure_end_to_end(run: Run, seconds: int) -> dict:
    """Help runs for set-up time, then back-to-back invocations for `seconds`."""
    setup = [run.help().wall_s for _ in range(HELP_RUNS)]
    invocations: list[Invocation] = []
    back_to_back(seconds, lambda: invocations.append(run.invoke()[0]))
    stats = {name: summary([getattr(inv, name) for inv in invocations])
             for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    stats["setup_s"] = summary(setup)
    return stats


def measure_layers(run: Run, seconds: int, names) -> tuple[dict, dict]:
    """Untraced and traced invocations in turn for `seconds`; per-layer medians."""
    untraced, traced = [], []

    def pair():
        untraced.append(run.invoke()[0].wall_s)
        inv, trace = run.invoke(traced=True)
        if trace is not None:
            traced.append((inv.wall_s, layers.layer_metrics(trace, inv.stderr, inv.wall_s)))

    back_to_back(seconds, pair)
    if not traced:
        return {}, {}
    base = statistics.median(untraced)
    for wall, (metrics, _) in traced:
        metrics["trace.overhead_s"] = wall - base
    result = {name: summary([m[name] for _, (m, _) in traced]) for name in names}
    busy = {layer: statistics.median(b[layer] for _, (_, b) in traced) for layer in layers.LAYERS}
    return result, busy


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # a terminated benchmark still kills and reaps the process it is waiting on (see spawn)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "thermodeco" / "cli.py").is_file():
        print(f"no thermodeco sources at {SRC}: run from the root of a checkout",
              file=sys.stderr)
        return 2

    shutil.rmtree(WORK / "out", ignore_errors=True)
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    env = environment()
    units = declared_metrics(args.trace)
    run = Run(args.workload, args.seed)
    if run.workload.reference is not None:
        run.invoke(**run.workload.reference)
    if args.trace:
        stats, busy = measure_layers(run, args.seconds, units)
    else:
        stats, busy = measure_end_to_end(run, args.seconds), None

    failed = len(run.failures)
    error_rate = failed / run.attempted
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "attempted": run.attempted, "failed": failed,
              "error_rate": error_rate, "failures": run.failures, "metrics": stats,
              "layer_busy_s": busy, "environment": env}
    stamp = time.strftime("%Y%m%dT%H%M%S")
    result_path = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n")

    blas = env.get("openblas") or {}
    print(f"thermodeco benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"environment: nproc={env.get('nproc')} cpu={env.get('cpu')} "
          f"python={env.get('python')} numpy={env.get('numpy')} scipy={env.get('scipy')} "
          f"openblas={blas.get('version')} threads={blas.get('threads')} "
          f"out_fs={env['output_filesystem']['type']}")
    for name, s in stats.items():
        print(f"  {name:28s} {s['median']:>14.6g} {units[name]:8s} "
              f"median of {s['n']}, max {s['max']:.6g}")
    if busy:
        print("  layer busy (self) seconds: "
              + ", ".join(f"{layer} {sec:.3f}" for layer, sec in busy.items()))
    print(f"  {'error_rate':28s} {error_rate:>14.6g} fraction "
          f"({failed} of {run.attempted} invocations failed)")
    print(f"  record: {result_path.relative_to(ROOT)}")
    metrics = {name: {"value": stats[name]["median"] if stats else 0.0, "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

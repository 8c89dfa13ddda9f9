"""Calibrate fdr-verify's gates: false-alarm rates and power over many seeds.

    PYTHONPATH=src python3 calib/gates.py [--seeds 200] [--first-seed 0] [--cases ...]

Calls `thermodeco.cli.main` in process, once per seed and case, and reads
each run's fdr_report.json.  Every case is the golden config
(--k 0.5,1,2,3,4 --dt 0.01 --t-end 2000) unless it says otherwise:

    null          correct noise: the false-alarm rate of each gate, per mode
                  and per run
    noise-1.1     --noise-scale 1.1: the power of the variance gate
    euler         --method euler-maruyama: the power of the rate gate, at
                  k = 4 (gamma dt = 0.16) and k = 3 (gamma dt = 0.09)
    k16           --k 16 --dt 0.01, one mode at gamma dt = 2.56: false alarms
    short         --k 1 --dt 0.01 --burn-in 0 --t-end MIN_GAMMA_T, one mode at
                  the shortest run fdr-verify accepts: false alarms

A mode fails a gate when its pass flag is false; a run fails when it exits 1.
A run that exits 2 (a config the command rejects) or otherwise is counted
apart.  200 seeds of all cases, 1000 runs, take a minute or two on one core;
the test suite runs every case at 2 seeds (tests/test_calib.py).  The last
line of output is the numbers as one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

from thermodeco import cli

GOLDEN = ["--k", "0.5,1,2,3,4", "--dt", "0.01", "--t-end", "2000"]
CASES = {
    "null": GOLDEN,
    "noise-1.1": GOLDEN + ["--noise-scale", "1.1"],
    "euler": GOLDEN + ["--method", "euler-maruyama"],
    "k16": ["--k", "16", "--dt", "0.01", "--t-end", "2000"],
    # gamma = 1, so gamma*T after burn-in is t_end + dt
    "short": ["--k", "1", "--dt", "0.01", "--burn-in", "0", "--t-end", str(cli.MIN_GAMMA_T)],
}
GATES = ("variance", "rate")


def run_case(argv: list[str], seeds: range) -> dict:
    """Fail counts per gate and mode, and per run, over the seeds."""
    fails = {gate: Counter() for gate in GATES}
    exits = Counter()
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            out = Path(tmp) / str(seed)
            with contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(["fdr-verify", *argv, "--seed", str(seed), "--out", str(out)])
            exits[rc] += 1
            if rc not in (0, 1):
                continue
            for test in json.loads((out / "fdr_report.json").read_text())["tests"]:
                for gate in GATES:
                    fails[gate][test["k"]] += not test[f"{gate}_pass"]
    n_runs = exits[0] + exits[1]
    return {
        "seeds": len(seeds),
        "exit_codes": {str(rc): n for rc, n in sorted(exits.items())},
        "per_run_fail_rate": exits[1] / n_runs if n_runs else None,
        "per_mode_fail_rate": {gate: {str(k): n / n_runs for k, n in sorted(fails[gate].items())}
                               for gate in GATES} if n_runs else None,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=200)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--cases", nargs="+", choices=sorted(CASES), default=list(CASES))
    args = parser.parse_args()
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    results = {}
    for name in args.cases:
        results[name] = res = run_case(CASES[name], seeds)
        print(f"{name}: {' '.join(CASES[name])}")
        print(f"  exit codes {res['exit_codes']}; runs failing: {res['per_run_fail_rate']}")
        for gate, rates in (res["per_mode_fail_rate"] or {}).items():
            print(f"  {gate:8s} modes failing: "
                  + ", ".join(f"k={k} {rate:.3f}" for k, rate in rates.items()))
    print(json.dumps(results, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

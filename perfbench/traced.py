"""Run one `thermodeco` command in-process with spans at each layer's entry points.

    PYTHONPATH=src python3 -X importtime perfbench/traced.py SPANS_JSON RUN_ID -- ARGS...

Imports `thermodeco.cli`, wraps the public functions each layer is entered
through, calls `thermodeco.cli.main(ARGS)` and exits with its return code.
A wrapper replaces the name in the namespace it is called from (a module
that did `from .x import f` holds its own reference), so the calls go
through it.  Spans carry a name, start, end, parent and run id; they stay
in memory and are written to SPANS_JSON at exit, one row per span
(FIELDS; times in integer nanoseconds, which serialize several times
faster than floats), together with counters for calls too frequent and
cheap to time one by one.

Pool threads start with an empty span stack; a span started there takes as
parent the innermost open span that fans work out to threads
(`simulate_ensemble`).
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time

FIELDS = ("id", "name", "start_ns", "end_ns", "parent", "attrs")


class Tracer:
    """In-memory spans and counters; safe to record from pool threads."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._fan_out_parent = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, start_ns: int, end_ns: int, parent=None, attrs=None, sid=None):
        with self._lock:
            self.spans.append([sid or next(self._ids), name, start_ns, end_ns, parent, attrs])

    def span(self, owner, attr: str, name: str, measure=None, fans_out=False):
        """Replace `owner.attr` with a wrapper that records one span per call.

        `measure(args, kwargs, result)` returns attributes stored on the span.
        """
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._fan_out_parent
            sid = next(tracer._ids)
            stack.append(sid)
            saved = tracer._fan_out_parent
            if fans_out:
                tracer._fan_out_parent = sid
            start = time.perf_counter_ns()
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = time.perf_counter_ns()
                tracer._fan_out_parent = saved
                stack.pop()
                attrs = measure(args, kwargs, result) if measure and done else None
                tracer.record(name, start, end, parent, attrs, sid)

        setattr(owner, attr, wrapper)

    def count(self, owner, attr: str, name: str):
        """Replace `owner.attr` with a wrapper that only counts calls."""
        fn = getattr(owner, attr)
        tracer = self
        tracer.counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer._lock:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        setattr(owner, attr, wrapper)


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def instrument(tracer: Tracer, cli) -> None:
    """Wrap each layer's entry points where `thermodeco.cli` and its callees look them up."""
    from thermodeco import fieldspace, influence, langevin, medium

    # cli: output formatting and writing
    tracer.span(cli, "write_table", "cli.write_table",
                lambda a, k, r: {"rows": len(a[3])})
    tracer.span(cli, "write_csv", "cli.write_csv", _file_bytes)
    tracer.span(cli, "write_json", "cli.write_json", _file_bytes)
    # langevin: ensemble fan-out, per-trajectory integration, Philox draws
    tracer.span(cli, "simulate_ensemble", "langevin.simulate_ensemble",
                lambda a, k, r: {"workers": k.get("n_workers", a[4] if len(a) > 4 else 1)},
                fans_out=True)
    tracer.span(langevin, "simulate_mode", "langevin.simulate_mode",
                lambda a, k, r: {"samples": len(r.values)})
    tracer.count(langevin.NoiseStream, "normal", "langevin.noise_calls")
    # stats: estimators
    tracer.span(cli, "autocorrelation", "stats.autocorrelation",
                lambda a, k, r: {"lag_products": a[1] * len(a[0].values)})
    tracer.span(cli, "sample_variance", "stats.sample_variance")
    tracer.span(fieldspace, "sample_variance", "stats.sample_variance")
    tracer.span(cli, "fit_exponential_rate", "stats.fit_exponential_rate")
    # fieldspace: sampling, energy statistics, transforms
    tracer.span(cli, "sample_equilibrium_field", "fieldspace.sample_equilibrium_field",
                lambda a, k, r: {"sites": r.n_sites})
    tracer.span(cli, "total_energy_fluctuation", "fieldspace.total_energy_fluctuation")
    tracer.span(cli, "mean_free_energy", "fieldspace.mean_free_energy")
    tracer.span(cli, "parseval_check", "fieldspace.parseval_check")
    # medium: free-energy functional and lattice field construction
    tracer.span(fieldspace, "free_energy_change", "medium.free_energy_change")
    tracer.count(medium.LatticeField, "with_values", "medium.fields_built")
    # influence: decoherence scan and per-k exponent
    tracer.span(cli, "decoherence_scan", "influence.decoherence_scan",
                lambda a, k, r: {"k_values": len(r)})
    tracer.span(influence, "decoherence_exponent", "influence.decoherence_exponent")
    # root: the whole command
    tracer.span(cli, "main", "cli.main")


def run(spans_path: str, run_id: str, argv: list[str]) -> int:
    tracer = Tracer(run_id)
    start = time.perf_counter_ns()
    import thermodeco.cli as cli
    tracer.record("cli.import", start, time.perf_counter_ns())
    instrument(tracer, cli)
    try:
        return cli.main(argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"run": run_id, "fields": FIELDS, "spans": tracer.spans,
                       "counts": tracer.counts}, fh, separators=(",", ":"))


if __name__ == "__main__":
    if len(sys.argv) < 4 or sys.argv[3] != "--":
        sys.exit("usage: traced.py SPANS_JSON RUN_ID -- ARGS...")
    sys.exit(run(sys.argv[1], sys.argv[2], sys.argv[4:]))

"""Per-layer metrics from one traced run: spans, counters and `-X importtime` output.

Layers are the modules of `thermodeco`: cli, langevin, stats, fieldspace,
medium, influence.  A span's self time is its duration minus the part of
that interval its child spans cover; a layer's busy time is the sum of the
self times of its spans (pool threads can make it exceed wall time).
"""

from __future__ import annotations

from collections import defaultdict

LAYERS = ("cli", "langevin", "stats", "fieldspace", "medium", "influence")


def import_seconds(importtime_stderr: str) -> dict[str, float]:
    """Seconds of import credited to each thermodeco module, by its last name part.

    `-X importtime` prints one line per module after the module finishes,
    indented two spaces per nesting level.  A dependency outside the package
    is credited, with its cumulative time, to the thermodeco module that
    imported it first; anything it imports in turn is part of that time.
    """
    pending: dict[int, list] = defaultdict(list)
    for line in importtime_stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        try:
            cumulative_us = int(parts[1])
        except ValueError:  # the header line
            continue
        name = parts[2].strip()
        depth = (len(parts[2]) - len(parts[2].lstrip(" ")) - 1) // 2
        pending[depth].append((name, cumulative_us, pending.pop(depth + 1, [])))

    credit: dict[str, float] = defaultdict(float)

    def visit(node, owner):
        name, cumulative_us, children = node
        if name == "thermodeco" or name.startswith("thermodeco."):
            for child in children:
                visit(child, name.rsplit(".", 1)[-1])
        elif owner is not None:
            credit[owner] += cumulative_us / 1e6
        else:
            for child in children:
                visit(child, None)

    for node in pending.get(0, []):
        visit(node, None)
    return dict(credit)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


class SpanIndex:
    """Spans of one traced process, indexed by id, name and parent."""

    def __init__(self, trace: dict):
        spans = [dict(zip(trace["fields"], row)) for row in trace["spans"]]
        for s in spans:
            s["start"] = s.pop("start_ns") / 1e9
            s["end"] = s.pop("end_ns") / 1e9
            s["attrs"] = s["attrs"] or {}
        self.by_id = {s["id"]: s for s in spans}
        self.by_name: dict[str, list[dict]] = defaultdict(list)
        self.children: dict[int, list[dict]] = defaultdict(list)
        for s in sorted(spans, key=lambda s: s["start"]):
            self.by_name[s["name"]].append(s)
            if s["parent"] is not None:
                self.children[s["parent"]].append(s)

    @staticmethod
    def duration(span: dict) -> float:
        return span["end"] - span["start"]

    def self_time(self, span: dict) -> float:
        kids = [(max(c["start"], span["start"]), min(c["end"], span["end"]))
                for c in self.children[span["id"]]]
        return self.duration(span) - _covered([k for k in kids if k[1] > k[0]])

    def total(self, name: str) -> float:
        return sum(self.duration(s) for s in self.by_name[name])

    def total_self(self, name: str) -> float:
        return sum(self.self_time(s) for s in self.by_name[name])

    def calls(self, name: str) -> int:
        return len(self.by_name[name])

    def attr_sum(self, name: str, attr: str) -> float:
        return sum(s["attrs"].get(attr, 0) for s in self.by_name[name])

    def busy(self) -> dict[str, float]:
        """Self time summed per layer, excluding the import span."""
        out = dict.fromkeys(LAYERS, 0.0)
        for s in self.by_id.values():
            layer = s["name"].split(".", 1)[0]
            if s["name"] != "cli.import" and layer in out:
                out[layer] += self.self_time(s)
        return out

    def outermost(self, prefix: str) -> list[dict]:
        """Spans named `prefix*` whose parent is not also named `prefix*`."""
        def inside(s):
            parent = self.by_id.get(s["parent"])
            return parent is not None and parent["name"].startswith(prefix)
        return [s for s in self.by_id.values() if s["name"].startswith(prefix) and not inside(s)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: dict, importtime_stderr: str,
                  traced_wall_s: float) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics and per-layer busy seconds of one traced process.

    `trace.overhead_s` needs untraced runs too; the caller sets it.
    """
    ix = SpanIndex(trace)
    counts = trace["counts"]
    imports = import_seconds(importtime_stderr)
    m: dict[str, float] = {}

    write_spans = ix.outermost("cli.write_")
    m["cli.import_s"] = ix.total("cli.import")
    m["cli.write_s"] = sum(ix.duration(s) for s in write_spans)
    m["cli.rows_written"] = ix.attr_sum("cli.write_table", "rows")
    m["cli.bytes_written"] = ix.attr_sum("cli.write_csv", "bytes") + ix.attr_sum("cli.write_json", "bytes")
    m["cli.write_mb_per_s"] = _ratio(m["cli.bytes_written"] / 2**20, m["cli.write_s"])
    m["cli.self_s"] = ix.total_self("cli.main")

    ensembles = ix.by_name["langevin.simulate_ensemble"]
    mode_busy = ix.total("langevin.simulate_mode")
    m["langevin.import_s"] = imports.get("langevin", 0.0)
    m["langevin.simulate_s"] = ix.total("langevin.simulate_ensemble")
    m["langevin.mode_calls"] = ix.calls("langevin.simulate_mode")
    m["langevin.samples"] = ix.attr_sum("langevin.simulate_mode", "samples")
    m["langevin.ns_per_sample"] = _ratio(mode_busy * 1e9, m["langevin.samples"])
    m["langevin.thread_efficiency"] = _ratio(
        mode_busy, sum(ix.duration(s) * s["attrs"].get("workers", 1) for s in ensembles))
    m["langevin.noise_calls"] = counts.get("langevin.noise_calls", 0)

    acfs = ix.by_name["stats.autocorrelation"]
    m["stats.acf_s"] = ix.total("stats.autocorrelation")
    m["stats.acf_calls"] = len(acfs)
    m["stats.acf_first_call_s"] = ix.duration(acfs[0]) if acfs else 0.0
    m["stats.acf_lag_products"] = ix.attr_sum("stats.autocorrelation", "lag_products")
    # steady state excludes the first call (lazy BLAS thread start) when there are others
    steady = acfs[1:] or acfs
    m["stats.ns_per_lag_product"] = _ratio(
        sum(ix.duration(s) for s in steady) * 1e9,
        sum(s["attrs"].get("lag_products", 0) for s in steady))
    m["stats.variance_s"] = ix.total("stats.sample_variance")
    m["stats.fit_s"] = ix.total("stats.fit_exponential_rate")

    m["fieldspace.sample_s"] = ix.total("fieldspace.sample_equilibrium_field")
    m["fieldspace.sample_calls"] = ix.calls("fieldspace.sample_equilibrium_field")
    m["fieldspace.sites_sampled"] = ix.attr_sum("fieldspace.sample_equilibrium_field", "sites")
    m["fieldspace.energy_s"] = ix.total("fieldspace.total_energy_fluctuation")
    m["fieldspace.free_energy_s"] = ix.total_self("fieldspace.mean_free_energy")
    m["fieldspace.parseval_s"] = ix.total("fieldspace.parseval_check")

    m["medium.import_s"] = imports.get("medium", 0.0)
    m["medium.free_energy_calls"] = ix.calls("medium.free_energy_change")
    m["medium.free_energy_s"] = ix.total("medium.free_energy_change")
    m["medium.fields_built"] = counts.get("medium.fields_built", 0)

    m["influence.scan_s"] = ix.total_self("influence.decoherence_scan")
    m["influence.exponent_calls"] = ix.calls("influence.decoherence_exponent")
    m["influence.exponent_s"] = ix.total("influence.decoherence_exponent")
    m["influence.us_per_k"] = _ratio(ix.total("influence.decoherence_scan") * 1e6,
                                     ix.attr_sum("influence.decoherence_scan", "k_values"))

    m["trace.unattributed_s"] = traced_wall_s - ix.total("cli.import") - ix.total("cli.main")
    return m, ix.busy()

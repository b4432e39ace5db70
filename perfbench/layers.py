"""Per-layer metrics computed from one traced pass's spans.

``PER_LAYER`` is the list ``BENCHMARK.json`` publishes, in order; the
traced run reports every entry on every workload.  A count of 0 is a
measured 0 (the layer did no such work in the timed pass), and a ratio
whose base is 0 reads 0; each ratio's base is itself in the list.

Time conventions: ``.s`` is busy time (span duration) summed over all
processes, ``.self_s`` is that minus the time covered by child spans in
the same process.  Engine throughput is blocks over engine self time,
so TAGE fold precompute (a child span) is excluded from it.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Span-name prefix -> layer.
LAYERS = ("cfg", "workloads", "tage", "prefetch", "engine", "diskcache",
          "exec", "sweep", "experiments", "explore", "obs")

#: Schemes the workloads run, each with an engine self-time metric.
SCHEMES = ("baseline", "confluence", "boomerang", "shotgun")

DISKCACHE_FNS = ("spec_key", "load", "store", "verify_entry")

#: (name, unit, better) for every per-layer metric, in report order.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("setup.import_s", "s", "lower"),
    ("cfg.generate_program.calls", "count", "lower"),
    ("cfg.generate_program.s", "s", "lower"),
    ("cfg.programs_per_workload", "ratio", "lower"),
    ("workloads.generate_trace.calls", "count", "lower"),
    ("workloads.generate_trace.s", "s", "lower"),
    ("workloads.traces_per_key", "ratio", "lower"),
    ("workloads.build_program.calls", "count", "lower"),
    ("workloads.build_program.hit_ratio", "ratio", "higher"),
    ("tage.folds.calls", "count", "lower"),
    ("tage.folds.s", "s", "lower"),
    ("prefetch.build_scheme.calls", "count", "lower"),
    ("prefetch.build_scheme.s", "s", "lower"),
    ("engine.demand.calls", "count", "lower"),
    ("engine.demand.self_s", "s", "lower"),
    ("engine.demand.blocks_per_s", "1/s", "higher"),
    ("engine.runahead.calls", "count", "lower"),
    ("engine.runahead.self_s", "s", "lower"),
    ("engine.runahead.blocks_per_s", "1/s", "higher"),
) + tuple(
    (f"engine.scheme.{scheme}.self_s", "s", "lower") for scheme in SCHEMES
) + (
    ("engine.columnar_eligible.calls", "count", "higher"),
    ("engine.columnar_share", "ratio", "higher"),
) + tuple(
    item for fn in DISKCACHE_FNS for item in (
        (f"diskcache.{fn}.calls", "count", "lower"),
        (f"diskcache.{fn}.s", "s", "lower"))
) + (
    ("diskcache.hit_ratio", "ratio", "higher"),
    ("diskcache.loads_per_cell", "ratio", "lower"),
    ("exec.units", "count", "lower"),
    ("exec.execute_s", "s", "lower"),
    ("exec.worker_busy_s", "s", "lower"),
    ("exec.worker_utilization", "ratio", "higher"),
    ("exec.first_unit_start_s", "s", "lower"),
    ("exec.journal_record.calls", "count", "lower"),
    ("exec.journal_record.s", "s", "lower"),
    ("sweep.cells", "count", "higher"),
    ("sweep.run_specs.self_s", "s", "lower"),
    ("sweep.run_spec.calls", "count", "lower"),
    ("sweep.cell_s.p50", "s", "lower"),
    ("sweep.cell_s.p95", "s", "lower"),
    ("sweep.cell_s.samples", "count", "higher"),
    ("experiments.run_grid_spec.self_s", "s", "lower"),
    ("explore.explore.self_s", "s", "lower"),
    ("obs.build_report.s", "s", "lower"),
    ("obs.write_manifest.s", "s", "lower"),
    ("obs.simulated_delta", "count", "lower"),
    ("obs.cached_delta", "count", "lower"),
    ("obs.cache_miss_delta", "count", "lower"),
) + tuple(
    (f"layer.{layer}.self_s", "s", "lower") for layer in LAYERS
) + (
    ("trace.wall_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
)

UNITS = {name: unit for name, unit, _ in PER_LAYER}


def _ratio(numerator: float, base: float) -> float:
    return numerator / base if base else 0.0


def _percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _durations(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    return {span["id"]: span["end"] - span["start"] for span in spans}


def self_times(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Span id -> duration minus the durations of same-process children."""
    duration = _durations(spans)
    pid_of = {span["id"]: span["pid"] for span in spans}
    own = dict(duration)
    for span in spans:
        parent = span.get("parent")
        if parent in own and pid_of[parent] == span["pid"]:
            own[parent] -= duration[span["id"]]
    return own


def compute(spans: List[Dict[str, Any]], main_pid: int, wall_s: float,
            untraced_wall_s: Optional[float], import_s: float,
            manifest_counts: Dict[str, int]) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric for one traced pass."""
    duration = _durations(spans)
    own = self_times(spans)
    by_name: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    children: Dict[str, List[str]] = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)
        if span.get("parent"):
            children[span["parent"]].append(span["name"])

    def calls(name: str) -> int:
        return len(by_name[name])

    def busy(name: str) -> float:
        return sum(duration[s["id"]] for s in by_name[name])

    def own_sum(name: str) -> float:
        return sum(own[s["id"]] for s in by_name[name])

    out: Dict[str, float] = {"setup.import_s": import_s}

    programs = by_name["cfg.generate_program"]
    out["cfg.generate_program.calls"] = len(programs)
    out["cfg.generate_program.s"] = busy("cfg.generate_program")
    out["cfg.programs_per_workload"] = _ratio(
        len(programs), len({s["attrs"].get("params") for s in programs}))

    trace_keys = {s["attrs"].get("key")
                  for s in by_name["workloads.build_trace"]}
    out["workloads.generate_trace.calls"] = calls("workloads.generate_trace")
    out["workloads.generate_trace.s"] = busy("workloads.generate_trace")
    out["workloads.traces_per_key"] = _ratio(
        calls("workloads.generate_trace"), len(trace_keys))
    builds = by_name["workloads.build_program"]
    hits = sum(1 for s in builds
               if "cfg.generate_program" not in children[s["id"]])
    out["workloads.build_program.calls"] = len(builds)
    out["workloads.build_program.hit_ratio"] = _ratio(hits, len(builds))

    out["tage.folds.calls"] = calls("tage.folds")
    out["tage.folds.s"] = busy("tage.folds")
    out["prefetch.build_scheme.calls"] = calls("prefetch.build_scheme")
    out["prefetch.build_scheme.s"] = busy("prefetch.build_scheme")

    engine = by_name["engine.simulate"]
    engine_own = engine + by_name["engine.columnar"]
    for mode in ("demand", "runahead"):
        mode_spans = [s for s in engine if s["attrs"].get("mode") == mode]
        mode_self = sum(own[s["id"]] for s in engine_own
                        if s["attrs"].get("mode") == mode)
        blocks = sum(s["attrs"].get("blocks", 0) for s in mode_spans)
        out[f"engine.{mode}.calls"] = len(mode_spans)
        out[f"engine.{mode}.self_s"] = mode_self
        out[f"engine.{mode}.blocks_per_s"] = _ratio(blocks, mode_self)
    for scheme in SCHEMES:
        out[f"engine.scheme.{scheme}.self_s"] = sum(
            own[s["id"]] for s in engine_own
            if s["attrs"].get("scheme") == scheme)
    eligible = sum(1 for s in engine if s["attrs"].get("eligible"))
    out["engine.columnar_eligible.calls"] = eligible
    out["engine.columnar_share"] = _ratio(calls("engine.columnar"), eligible)

    for fn in DISKCACHE_FNS:
        out[f"diskcache.{fn}.calls"] = calls(f"diskcache.{fn}")
        out[f"diskcache.{fn}.s"] = busy(f"diskcache.{fn}")
    loads = by_name["diskcache.load"]
    load_hits = sum(1 for s in loads if s["attrs"].get("hit"))
    run_specs = [s for s in by_name["sweep.run_specs"]
                 if s["pid"] == main_pid]
    cells = sum(s["attrs"].get("cells", 0) for s in run_specs)
    out["diskcache.hit_ratio"] = _ratio(load_hits, len(loads))
    out["diskcache.loads_per_cell"] = _ratio(len(loads), cells)

    executes = by_name["exec.execute"]
    cell_runs = by_name["sweep.run_spec"]
    execute_s = busy("exec.execute")
    worker_busy = busy("sweep.run_spec")
    capacity = sum(duration[s["id"]] * s["attrs"].get("workers", 1)
                   for s in executes)
    out["exec.units"] = sum(s["attrs"].get("units", 0)
                            for s in by_name["exec.chunk_specs"])
    out["exec.execute_s"] = execute_s
    out["exec.worker_busy_s"] = worker_busy
    out["exec.worker_utilization"] = _ratio(worker_busy, capacity)
    out["exec.first_unit_start_s"] = (
        min(s["start"] for s in cell_runs) - min(s["start"] for s in executes)
        if executes and cell_runs else 0.0)
    out["exec.journal_record.calls"] = calls("exec.journal_record")
    out["exec.journal_record.s"] = busy("exec.journal_record")

    cell_times = [duration[s["id"]] for s in cell_runs]
    out["sweep.cells"] = cells
    out["sweep.run_specs.self_s"] = own_sum("sweep.run_specs")
    out["sweep.run_spec.calls"] = len(cell_runs)
    out["sweep.cell_s.p50"] = statistics.median(cell_times) \
        if cell_times else 0.0
    out["sweep.cell_s.p95"] = _percentile(cell_times, 95)
    out["sweep.cell_s.samples"] = len(cell_times)
    out["experiments.run_grid_spec.self_s"] = own_sum(
        "experiments.run_grid_spec")
    out["explore.explore.self_s"] = own_sum("explore.explore")
    out["obs.build_report.s"] = busy("obs.build_report")
    out["obs.write_manifest.s"] = busy("obs.write_manifest")

    # Accounting reconciliation: the manifest's counts minus what the
    # spans saw.  Outside counts are in cells: simulated = engine calls,
    # cached = cells resolved without one, misses = distinct cache keys
    # whose loads all missed.
    simulated = len(engine)
    hit_keys = {s["attrs"].get("key") for s in loads if s["attrs"].get("hit")}
    missed_keys = {s["attrs"].get("key") for s in loads
                   if not s["attrs"].get("hit")} - hit_keys
    out["obs.simulated_delta"] = manifest_counts.get("simulated", 0) \
        - simulated
    out["obs.cached_delta"] = manifest_counts.get("cached", 0) \
        - max(0, cells - simulated)
    out["obs.cache_miss_delta"] = manifest_counts.get("cache_misses", 0) \
        - len(missed_keys)

    layer_self: Counter = Counter()
    for span in spans:
        layer_self[span["name"].split(".", 1)[0]] += own[span["id"]]
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = layer_self[layer]
    top = sum(duration[s["id"]] for s in spans
              if s["pid"] == main_pid and not s.get("parent"))
    out["trace.wall_s"] = wall_s
    out["trace.unattributed_s"] = wall_s - top
    out["trace.overhead_frac"] = (wall_s / untraced_wall_s - 1.0) \
        if untraced_wall_s else 0.0
    out["trace.spans"] = len(spans)
    missing = [name for name, _, _ in PER_LAYER if name not in out]
    if missing:
        raise KeyError(f"per-layer metrics not computed: {missing}")
    return out

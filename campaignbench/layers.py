"""Per-layer metrics of a traced run, computed from `tracing.CheckTrace`s.

Times and counts are per check (totals over the traced checks divided by
their number); ratios are taken over the totals.  A metric of a layer
the workload never enters reads 0: ``pool.*`` outside pool-capped,
``dist.*`` outside dist-exhaustive, DPOR outside the exhaustive runs.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence, Tuple

#: Every per-layer metric, with its unit, in the order it is printed.
METRICS: Tuple[Tuple[str, str], ...] = (
    ("machine.replays", "count"),
    ("machine.steps", "count"),
    ("machine.self_s", "s"),
    ("machine.ns_per_step", "ns"),
    ("footprint.calls", "count"),
    ("footprint.self_s", "s"),
    ("dpor.self_s", "s"),
    ("dpor.cuts", "count"),
    ("dpor.useful_ratio", "ratio"),
    ("explore.self_s", "s"),
    ("explore.prefix_share", "ratio"),
    ("explore.exec_per_s", "1/s"),
    ("models.calls", "count"),
    ("models.self_s", "s"),
    ("commit.calls", "count"),
    ("commit.self_s", "s"),
    ("graph.self_s", "s"),
    ("spec.checks", "count"),
    ("spec.self_s", "s"),
    ("spec.LAT_SO_ABS.self_s", "s"),
    ("spec.LAT_HB_ABS.self_s", "s"),
    ("spec.LAT_HB.self_s", "s"),
    ("spec.LAT_HB_HIST.self_s", "s"),
    ("spec.linearize.self_s", "s"),
    ("shard.count", "count"),
    ("shard.probes", "count"),
    ("shard.plan_s", "s"),
    ("pool.worker_busy_s", "s"),
    ("pool.queue_wait_s", "s"),
    ("pool.ipc_bytes", "B"),
    ("pool.decode_s", "s"),
    ("pool.merge_s", "s"),
    ("pool.retries", "count"),
    ("pool.useful_ratio", "ratio"),
    ("durable.appends", "count"),
    ("durable.bytes", "B"),
    ("durable.s", "s"),
    ("dist.msgs", "count"),
    ("dist.bytes", "B"),
    ("dist.grants", "count"),
    ("dist.node_busy_s", "s"),
    ("dist.lease_wait_s", "s"),
    ("dist.merge_s", "s"),
    ("dist.useful_ratio", "ratio"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_share", "ratio"),
    ("trace.unattributed_s", "s"),
    ("trace.unattributed_share", "ratio"),
)

SPEC_STYLES = ("LAT_SO_ABS", "LAT_HB_ABS", "LAT_HB", "LAT_HB_HIST")
NS = 1e9


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def compute(traces: Sequence, transport: str, executions: int,
            serial_executions: int, untraced_walls: List[float],
            traced_walls: List[float]) -> Dict[str, float]:
    """The per-layer metrics of one traced run.

    ``executions`` is one check's execution count, ``serial_executions``
    the serial reference's (pool workloads), and the wall lists hold the
    run's untraced and traced ``verdict_s`` samples.
    """
    n = len(traces)

    def total(fn) -> float:
        return sum(fn(t) for t in traces)

    def per_check(fn, scale: float = 1.0) -> float:
        return total(fn) / n / scale

    def self_s(name: str) -> float:
        return per_check(lambda t: t.self_ns(name), NS)

    def count(key: str) -> float:
        return per_check(lambda t: t.count(key))

    def span_s(name: str, role=None) -> float:
        return per_check(lambda t: sum(r[7] - r[6]
                                       for r in t.spans(name, role)), NS)

    out: Dict[str, float] = {}
    steps = total(lambda t: t.count("machine.steps"))
    out["machine.replays"] = count("machine.replays")
    out["machine.steps"] = count("machine.steps")
    out["machine.self_s"] = self_s("machine")
    out["machine.ns_per_step"] = _ratio(total(lambda t: t.self_ns("machine")),
                                        steps)
    out["footprint.calls"] = per_check(lambda t: t.calls("footprint"))
    out["footprint.self_s"] = self_s("footprint")
    out["dpor.self_s"] = self_s("dpor")
    out["dpor.cuts"] = count("dpor.cuts")
    out["dpor.useful_ratio"] = _ratio(total(lambda t: t.count("dpor.yields")),
                                      total(lambda t: t.count("dpor.replays")))
    out["explore.self_s"] = self_s("explore")
    out["explore.prefix_share"] = _ratio(
        total(lambda t: t.count("explore.shared")),
        total(lambda t: t.count("explore.decisions")))
    out["explore.exec_per_s"] = _ratio(executions,
                                       statistics.median(untraced_walls))
    out["models.calls"] = per_check(lambda t: t.calls("models"))
    out["models.self_s"] = self_s("models")
    out["commit.calls"] = per_check(lambda t: t.calls("commit"))
    out["commit.self_s"] = self_s("commit")
    out["graph.self_s"] = self_s("graph")
    styles = [f"spec.{s}" for s in SPEC_STYLES]
    out["spec.checks"] = per_check(lambda t: sum(t.calls(s) for s in styles))
    for style in styles:
        out[f"{style}.self_s"] = self_s(style)
    out["spec.linearize.self_s"] = self_s("spec.linearize")
    out["spec.self_s"] = sum(out[f"{s}.self_s"] for s in styles) \
        + out["spec.linearize.self_s"]
    out["shard.count"] = count("shard.count")
    out["shard.probes"] = count("shard.probes")
    out["shard.plan_s"] = per_check(lambda t: t.total_ns("shard.plan"), NS)

    pool = transport == "pool"
    dist = transport == "dist"

    def queue_wait(t) -> float:
        loops = t.spans("pool.dispatch")
        if not loops:
            return 0.0
        start = min(r[6] for r in loops)
        return sum(r[6] - start for r in t.spans("engine.shard",
                                                 "pool-worker"))
    out["pool.worker_busy_s"] = span_s("engine.shard", "pool-worker")
    out["pool.queue_wait_s"] = per_check(queue_wait, NS) if pool else 0.0
    out["pool.ipc_bytes"] = count("ipc.bytes") if pool else 0.0
    out["pool.decode_s"] = self_s("engine.decode") if pool else 0.0
    out["pool.merge_s"] = (per_check(lambda t: t.total_ns("engine.merge"), NS)
                           if pool else 0.0)
    out["pool.retries"] = count("engine.retries") if pool else 0.0
    out["pool.useful_ratio"] = (_ratio(serial_executions, executions)
                                if pool else 0.0)
    out["durable.appends"] = count("durable.appends")
    out["durable.bytes"] = count("durable.bytes")
    out["durable.s"] = per_check(lambda t: t.total_ns("durable"), NS)
    out["dist.msgs"] = count("dist.msgs") if dist else 0.0
    out["dist.bytes"] = count("dist.bytes") if dist else 0.0
    out["dist.grants"] = count("dist.grants") if dist else 0.0
    busy = span_s("engine.shard", "dist-node")
    out["dist.node_busy_s"] = busy
    out["dist.lease_wait_s"] = (span_s("dist.node") - busy) if dist else 0.0
    out["dist.merge_s"] = (per_check(lambda t: t.total_ns("engine.merge"), NS)
                           if dist else 0.0)
    out["dist.useful_ratio"] = (
        _ratio(total(lambda t: t.count("dist.merged")),
               total(lambda t: t.count("dist.received"))) if dist else 0.0)

    base = statistics.median(untraced_walls)
    overhead = statistics.median(traced_walls) - base
    out["trace.overhead_s"] = overhead
    out["trace.overhead_share"] = _ratio(overhead, base)
    roots = [r for t in traces for r in t.spans("check")]
    out["trace.unattributed_s"] = sum(r[8] for r in roots) / n / NS
    out["trace.unattributed_share"] = _ratio(
        sum(r[8] for r in roots), sum(r[7] - r[6] for r in roots))
    return out

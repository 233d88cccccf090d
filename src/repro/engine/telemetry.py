"""Run telemetry: executions/sec, ETA, and per-worker counters.

The reporter is driven by the engine's completion loop (one call per
finished shard) and prints throttled progress lines to stderr — the
``--progress`` flag on the CLI.  The same counters reach callers as a
`TelemetrySummary` (the engine overhead benches in
``benchmarks/bench_micro.py`` read their wall times from it).
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, TextIO


@dataclass
class TelemetrySummary:
    """Final counters of one engine run."""

    shards_total: int = 0
    shards_done: int = 0
    shards_resumed: int = 0
    executions: int = 0
    steps: int = 0
    retries: int = 0
    #: Hung local nodes SIGKILLed when their lease expired (their shards
    #: were requeued).
    hung_killed: int = 0
    #: Shard results that failed the driver-side CRC check.
    corrupt_results: int = 0
    #: Shards never started because a run budget ran out.
    shards_skipped: int = 0
    #: Shards that stopped early on a per-shard budget breach.
    budget_stops: int = 0
    #: Corrupt checkpoint/corpus lines quarantined on load.
    quarantined_lines: int = 0
    #: Durable writes (checkpoint/corpus) that failed with ENOSPC/EIO;
    #: the run continued in-memory with degraded coverage.
    durable_write_errors: int = 0
    #: Branches skipped by sleep-set DPOR (`repro.rmc.dpor`), planner
    #: charges included; 0 when DPOR is off.
    pruned_subtrees: int = 0
    #: Distributed runs (`repro.engine.dist`): worker nodes that joined.
    nodes_joined: int = 0
    #: Nodes declared lost (connection gone mid-run).
    nodes_lost: int = 0
    #: Nodes refused at handshake (engine fingerprint mismatch).
    nodes_refused: int = 0
    #: Leases that expired and were requeued to another node.
    leases_expired: int = 0
    #: Stale results rejected by fencing-token checks (never merged).
    results_fenced: int = 0
    #: The run ended by a graceful drain (campaign service SIGTERM):
    #: in-flight leases finished, nothing new was granted.
    drained: bool = False
    #: Hedged re-dispatches issued for shards past their adaptive
    #: deadline (`repro.engine.hedge`).
    hedges_issued: int = 0
    #: Hedges whose duplicate delivered the winning result.
    hedge_wins: int = 0
    #: Hedges where the original dispatch won after all.
    hedge_losses: int = 0
    #: Executions spent by losing duplicates (the price of hedging).
    hedge_wasted_execs: int = 0
    #: Completed shards re-executed by the audit layer
    #: (`repro.engine.audit`).
    audits_done: int = 0
    #: Audited shards whose origin result diverged from the trusted
    #: re-execution (each one also quarantined its origin).
    audit_divergences: int = 0
    #: Workers/nodes quarantined after a confirmed divergence.
    workers_quarantined: int = 0
    wall_seconds: float = 0.0
    #: shards completed per worker pid (pid 0 = inline/resumed).
    worker_shards: Dict[int, int] = field(default_factory=dict)
    #: executions per worker pid.
    worker_executions: Dict[int, int] = field(default_factory=dict)

    @property
    def executions_per_sec(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.executions / self.wall_seconds

    @property
    def effective_tree_size(self) -> int:
        """Executions the naive enumeration would have visited at the
        explored frontier: actual executions plus DPOR-pruned branches."""
        return self.executions + self.pruned_subtrees


class ProgressReporter:
    """Throttled progress lines over a running `TelemetrySummary`."""

    def __init__(self, total_shards: int, enabled: bool = True,
                 out: Optional[TextIO] = None, interval: float = 0.5,
                 label: str = "engine"):
        self.summary = TelemetrySummary(shards_total=total_shards)
        self.enabled = enabled
        self.out = out if out is not None else sys.stderr
        self.interval = interval
        self.label = label
        self._start = time.perf_counter()
        self._last_emit = 0.0

    def on_resumed(self, executions: int, steps: int,
                   pruned: int = 0) -> None:
        s = self.summary
        s.shards_done += 1
        s.shards_resumed += 1
        s.executions += executions
        s.steps += steps
        s.pruned_subtrees += pruned
        s.worker_shards[0] = s.worker_shards.get(0, 0) + 1
        s.worker_executions[0] = s.worker_executions.get(0, 0) + executions

    def on_shard_done(self, shard_id: int, pid: int, executions: int,
                      steps: int, pruned: int = 0) -> None:
        s = self.summary
        s.shards_done += 1
        s.executions += executions
        s.steps += steps
        s.pruned_subtrees += pruned
        s.worker_shards[pid] = s.worker_shards.get(pid, 0) + 1
        s.worker_executions[pid] = \
            s.worker_executions.get(pid, 0) + executions
        self._emit()

    def on_planner_pruned(self, count: int) -> None:
        """Branches the DPOR-aware planner pruned at pinned prefix nodes."""
        self.summary.pruned_subtrees += count

    def on_retry(self, shard_id: int, attempt: int, error: str) -> None:
        self.summary.retries += 1
        if self.enabled:
            print(f"[{self.label}] shard {shard_id} failed "
                  f"(attempt {attempt}): {error}; requeued",
                  file=self.out, flush=True)

    def on_hung_worker(self, pid: int, shard_id: int, age: float) -> None:
        self.summary.hung_killed += 1
        if self.enabled:
            print(f"[{self.label}] worker {pid} hung on shard {shard_id} "
                  f"(no heartbeat for {age:.1f}s); killed and requeued",
                  file=self.out, flush=True)

    def on_corrupt_result(self, shard_id: int) -> None:
        self.summary.corrupt_results += 1
        if self.enabled:
            print(f"[{self.label}] shard {shard_id} returned a corrupt "
                  f"result (CRC mismatch); requeued",
                  file=self.out, flush=True)

    def on_skipped(self, shard_id: int, reason: str) -> None:
        self.summary.shards_skipped += 1
        if self.enabled:
            print(f"[{self.label}] shard {shard_id} skipped: {reason}",
                  file=self.out, flush=True)

    def on_budget_stop(self, shard_id: int) -> None:
        self.summary.budget_stops += 1

    def on_node_joined(self, node_id: str) -> None:
        self.summary.nodes_joined += 1
        if self.enabled:
            print(f"[{self.label}] node {node_id} joined",
                  file=self.out, flush=True)

    def on_node_lost(self, node_id: str, reason: str) -> None:
        self.summary.nodes_lost += 1
        if self.enabled:
            print(f"[{self.label}] node {node_id} lost: {reason}",
                  file=self.out, flush=True)

    def on_node_refused(self, node_id: str, reason: str) -> None:
        self.summary.nodes_refused += 1
        if self.enabled:
            print(f"[{self.label}] node {node_id} refused: {reason}",
                  file=self.out, flush=True)

    def on_lease_expired(self, shard_id: int, node_id: str) -> None:
        self.summary.leases_expired += 1
        if self.enabled:
            print(f"[{self.label}] lease on shard {shard_id} "
                  f"(node {node_id}) expired; requeued",
                  file=self.out, flush=True)

    def on_fenced(self, shard_id: int, node_id: str) -> None:
        self.summary.results_fenced += 1
        if self.enabled:
            print(f"[{self.label}] stale result for shard {shard_id} "
                  f"from node {node_id} fenced off",
                  file=self.out, flush=True)

    def on_quarantined(self, count: int) -> None:
        self.summary.quarantined_lines += count

    def on_durable_error(self, detail: str) -> None:
        """A checkpoint/corpus write failed (disk full, I/O error); the
        campaign carries on in memory with honest coverage accounting."""
        self.summary.durable_write_errors += 1
        if self.enabled:
            print(f"[{self.label}] durable write failed ({detail}); "
                  f"continuing in-memory with degraded coverage",
                  file=self.out, flush=True)

    def on_hedge(self, shard_id: int, elapsed: float,
                 deadline: float) -> None:
        self.summary.hedges_issued += 1
        if self.enabled:
            print(f"[{self.label}] shard {shard_id} past its hedge "
                  f"deadline ({elapsed:.1f}s > {deadline:.1f}s); "
                  f"speculatively re-dispatched", file=self.out, flush=True)

    def on_hedge_win(self, shard_id: int) -> None:
        self.summary.hedge_wins += 1
        if self.enabled:
            print(f"[{self.label}] hedge won shard {shard_id}; original "
                  f"dispatch abandoned", file=self.out, flush=True)

    def on_hedge_loss(self, shard_id: int, wasted_execs: int = 0) -> None:
        self.summary.hedge_losses += 1
        self.summary.hedge_wasted_execs += wasted_execs

    def on_audit(self, shard_id: int, diverged: bool) -> None:
        self.summary.audits_done += 1
        if diverged:
            self.summary.audit_divergences += 1
            if self.enabled:
                print(f"[{self.label}] audit: shard {shard_id} diverged "
                      f"from trusted re-execution", file=self.out,
                      flush=True)

    def on_worker_quarantined(self, who: str, reason: str) -> None:
        self.summary.workers_quarantined += 1
        if self.enabled:
            print(f"[{self.label}] quarantined {who}: {reason}",
                  file=self.out, flush=True)

    def on_drain(self) -> None:
        self.summary.drained = True
        if self.enabled:
            print(f"[{self.label}] draining: no new grants, waiting for "
                  f"in-flight leases", file=self.out, flush=True)

    def finish(self) -> TelemetrySummary:
        self.summary.wall_seconds = time.perf_counter() - self._start
        if self.enabled:
            self._emit(force=True, final=True)
        return self.summary

    # ------------------------------------------------------------------
    def _emit(self, force: bool = False, final: bool = False) -> None:
        if not self.enabled:
            return
        now = time.perf_counter()
        if not force and now - self._last_emit < self.interval:
            return
        self._last_emit = now
        s = self.summary
        elapsed = max(now - self._start, 1e-9)
        rate = s.executions / elapsed
        if s.shards_done and s.shards_done < s.shards_total:
            eta = elapsed / s.shards_done * (s.shards_total - s.shards_done)
            eta_txt = f" | ETA {eta:5.1f}s"
        else:
            eta_txt = ""
        workers = " ".join(
            f"w{pid}:{n}" for pid, n in sorted(s.worker_shards.items()))
        tag = "done" if final else "running"
        dpor_txt = (f" | pruned {s.pruned_subtrees} "
                    f"(tree {s.effective_tree_size})"
                    if s.pruned_subtrees else "")
        hedge_txt = (f" | hedges {s.hedges_issued} "
                     f"({s.hedge_wins}w/{s.hedge_losses}l, "
                     f"{s.hedge_wasted_execs} wasted exec)"
                     if s.hedges_issued else "")
        audit_txt = (f" | audits {s.audits_done}"
                     + (f" ({s.audit_divergences} diverged, "
                        f"{s.workers_quarantined} quarantined)"
                        if s.audit_divergences else "")
                     if s.audits_done else "")
        print(f"[{self.label}] {tag}: shards {s.shards_done}/"
              f"{s.shards_total} ({s.shards_resumed} resumed) | "
              f"{s.executions} exec ({rate:,.0f}/s) | {s.steps} steps"
              f"{dpor_txt}{hedge_txt}{audit_txt}{eta_txt} | {workers}",
              file=self.out, flush=True)

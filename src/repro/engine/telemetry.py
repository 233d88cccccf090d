"""Run telemetry: one event stream per engine run, and its fold.

Every reporting site calls `ProgressReporter.emit`, which records an
`Event` (the vocabulary is tabled in ``docs/engine.md``), folds it into
the run's `TelemetrySummary` — `TelemetrySummary.apply` is the only code
that moves a counter — hands it to the run's sink (the campaign
service's WAL, `repro.service.store.WalSink`), and under ``--progress``
prints it to stderr beside a throttled status line with executions/sec
and ETA.
"""

from __future__ import annotations

import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional

#: Seconds between two status lines under ``--progress``.
STATUS_INTERVAL = 0.5

#: Event kinds that add one to a summary counter.
COUNTERS = {
    "retry": "retries",
    "hung": "hung_killed",
    "corrupt": "corrupt_results",
    "skipped": "shards_skipped",
    "bad_line": "quarantined_lines",
    "durable_error": "durable_write_errors",
    "joined": "nodes_joined",
    "lost": "nodes_lost",
    "refused": "nodes_refused",
    "expired": "leases_expired",
    "fenced": "results_fenced",
    "hedge": "hedges_issued",
    "hedge_win": "hedge_wins",
    "hedge_loss": "hedge_losses",
    "audit": "audits_done",
    "divergence": "audit_divergences",
    "quarantine": "workers_quarantined",
}

#: Event kinds printed under ``--progress`` as they happen.
PRINTED = frozenset({
    "retry", "hung", "corrupt", "skipped", "durable_error", "joined",
    "lost", "refused", "expired", "fenced", "hedge", "hedge_win",
    "divergence", "quarantine", "drain"})


@dataclass
class Event:
    """One thing that happened to an engine run: ``ts`` is monotonic
    seconds since the run started, ``fields`` the kind's JSON payload."""

    kind: str
    ts: float
    shard: Optional[int] = None
    attempt: Optional[int] = None
    node: Optional[str] = None
    fields: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        return asdict(self)

    @staticmethod
    def from_json(data: Dict[str, Any]) -> "Event":
        return Event(**data)


@dataclass
class TelemetrySummary:
    """Final counters of one engine run: the fold of its events."""

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
    #: Shards dropped unexplored at the run-wide execution cap: the
    #: serial run never reaches them either.
    shards_dropped: int = 0
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
    def effective_tree_size(self) -> int:
        """Executions the naive enumeration would have visited at the
        explored frontier: actual executions plus DPOR-pruned branches."""
        return self.executions + self.pruned_subtrees

    @classmethod
    def fold(cls, events: Iterable[Event]) -> "TelemetrySummary":
        """The summary a run with these events ends with."""
        summary = cls()
        for event in events:
            summary.apply(event)
        return summary

    def apply(self, event: Event) -> None:
        """The fold's step: move the counters one event moves."""
        kind, f = event.kind, event.fields
        counter = COUNTERS.get(kind)
        if counter is not None:
            setattr(self, counter, getattr(self, counter) + 1)
        elif kind == "planned":
            self.shards_total += f["shards"]
            self.pruned_subtrees += f["pruned"]
        elif kind in ("resumed", "merge"):
            pid = f.get("pid", 0)
            self.shards_done += 1
            self.shards_resumed += kind == "resumed"
            self.budget_stops += bool(f.get("budget_exhausted"))
            self.executions += f["executions"]
            self.steps += f["steps"]
            self.pruned_subtrees += f["pruned"]
            self.worker_shards[pid] = self.worker_shards.get(pid, 0) + 1
            self.worker_executions[pid] = \
                self.worker_executions.get(pid, 0) + f["executions"]
        elif kind == "wasted":
            self.hedge_wasted_execs += f["executions"]
        elif kind == "cut":
            self.shards_dropped += f["dropped"]
        elif kind == "drain":
            self.drained = True
        elif kind == "finished":
            self.wall_seconds = event.ts


class ProgressReporter:
    """The event log of one engine run.

    ``emit`` takes no lock: the campaign daemon's SIGTERM handler emits
    ``drain`` on the serve thread, which may already hold any lock the
    run takes.  Concurrent emitters move disjoint counters (the rest
    emit under the coordinator's lock), and the fold commutes.
    """

    def __init__(self, enabled: bool = True, label: str = "engine",
                 sink: Optional[Callable[[Event], None]] = None):
        self.summary = TelemetrySummary()
        self.events: List[Event] = []
        self.enabled = enabled
        self.label = label
        self.sink = sink
        self._start = time.perf_counter()
        self._last_status = 0.0

    def emit(self, kind: str, shard: Optional[int] = None,
             attempt: Optional[int] = None, node: Optional[str] = None,
             **fields: Any) -> None:
        """Record one event.  The sink sees it first, so a WAL record
        lands before the action the event describes."""
        event = Event(kind, time.perf_counter() - self._start, shard,
                      attempt, node, fields)
        if self.sink is not None:
            self.sink(event)
        self.events.append(event)
        self.summary.apply(event)
        if self.enabled:
            if kind in PRINTED:
                print(self._line(event), file=sys.stderr, flush=True)
            elif kind in ("merge", "finished"):
                self._status(final=kind == "finished")

    def on_retry(self, shard_id: int, attempt: int, error: str) -> None:
        self.emit("retry", shard=shard_id, attempt=attempt, error=error)

    def finish(self) -> TelemetrySummary:
        self.emit("finished")
        return self.summary

    # ------------------------------------------------------------------
    def _line(self, event: Event) -> str:
        parts = [f"[{self.label}] {event.kind}"]
        for key, value in (("shard", event.shard),
                           ("attempt", event.attempt),
                           ("node", event.node), *event.fields.items()):
            if value is None or isinstance(value, dict):
                continue
            parts.append(f"{key}={value:.1f}" if isinstance(value, float)
                         else f"{key}={value}")
        return " ".join(parts)

    def _status(self, final: bool) -> None:
        now = time.perf_counter()
        if not final and now - self._last_status < STATUS_INTERVAL:
            return
        self._last_status = now
        s = self.summary
        elapsed = max(now - self._start, 1e-9)
        rate = s.executions / elapsed
        left = (s.shards_total - s.shards_done - s.shards_dropped
                - s.shards_skipped)
        eta_txt = (f" | ETA {elapsed / s.shards_done * left:5.1f}s"
                   if s.shards_done and left > 0 and not final else "")
        workers = " ".join(
            f"w{pid}:{n}" for pid, n in sorted(s.worker_shards.items()))
        tag = "done" if final else "running"
        dropped_txt = (f", {s.shards_dropped} dropped"
                       if s.shards_dropped else "")
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
              f"{s.shards_total} ({s.shards_resumed} resumed"
              f"{dropped_txt}) | {s.executions} exec ({rate:,.0f}/s) | "
              f"{s.steps} steps{dpor_txt}{hedge_txt}{audit_txt}{eta_txt}"
              f" | {workers}", file=sys.stderr, flush=True)

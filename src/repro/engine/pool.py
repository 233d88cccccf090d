"""The local exploration driver: shard, lease to local nodes, merge.

`run_scenario` supersedes the serial ``check_scenario`` loop while
keeping `explore_all`/`explore_random` as the single-worker core:

1. **plan** — split the decision tree (exhaustive) or seed range
   (randomized) into disjoint shards (`repro.engine.shard`);
2. **resume** — drop shards already completed by an identical earlier
   run, recovered from the checkpoint log (`repro.engine.checkpoint`);
3. **explore** — lease the remaining shards to worker nodes through the
   distributed coordinator's lease loop
   (`repro.engine.dist.coordinator`), so one code path owns retries
   (lease backoff), hedging, audits, quarantine and the run-wide
   execution cut for every run shape.  `_run_pool` is the local
   transport: ``workers`` node processes on socketpair channels, or one
   node thread in this process.  A node renews its lease with in-band
   beats; one that stops beating is SIGKILLed and replaced and its shard
   requeued, a crashed node is replaced, and every result crosses the
   channel CRC-checked.  Per-shard and per-run resource budgets
   (`repro.engine.budget`) degrade gracefully into partial reports
   instead of dying;
4. **merge** — fold per-shard partial reports *in shard order*
   (`repro.engine.merge`), reproducing the serial report exactly
   (modulo timing) when nothing was truncated — and an honest
   `repro.engine.budget.Coverage` when something was; persist
   counterexamples idempotently to the corpus (`repro.engine.corpus`).

Under the ``fork`` start method a node inherits the closure-laden
`Scenario` object by memory; under ``spawn`` it rebuilds it from the
registry spec — shard descriptions and CRC-tagged shard results are the
only things that cross a channel.  The whole failure path is itself
exercised by deterministic fault injection (`repro.engine.faults`,
``python -m repro chaos``).
"""

from __future__ import annotations

import dataclasses
import json
import math
import multiprocessing
import os
import socket
import sys
import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..checking.runner import (EngineParams, Scenario, ScenarioReport,
                               StyleTally, record_result)
from .audit import AUDIT_ATTEMPT_BASE
from .budget import BudgetSpec, BudgetTracker, Coverage
from .checkpoint import CheckpointWriter
from .corpus import CorpusEntry, CorpusSink, append_entries, entry_hash
from .faults import (fault_point, flip_result_digit, injected_delay,
                     mutate_blob)
from .merge import merge_reports, report_from_json, report_to_json
from .registry import ScenarioSpec, build_scenario
from ..rmc.dpor import DporStats
from .shard import (SHARDS_PER_WORKER, Shard, iter_shard,
                    plan_exhaustive_shards, plan_random_shards)
from .telemetry import Event, ProgressReporter, TelemetrySummary

#: How long an idle local node waits before asking again for work.
LOCAL_IDLE_WAIT = 0.05


@dataclass
class EngineResult:
    """A merged report plus the run's mechanics."""

    report: ScenarioReport
    #: The fold of ``events`` (`TelemetrySummary.fold`).
    telemetry: TelemetrySummary
    shards: List[Shard] = field(default_factory=list)
    corpus_entries: List[CorpusEntry] = field(default_factory=list)
    coverage: Optional[Coverage] = None
    #: Everything that happened to the run, in order
    #: (`repro.engine.telemetry.Event`).
    events: List[Event] = field(default_factory=list)


class ShardFailed(RuntimeError):
    """A shard kept failing after its retry budget was spent."""


class ResultCorrupt(RuntimeError):
    """A shard result came back failing its CRC integrity check."""


# ----------------------------------------------------------------------
# Per-shard exploration (runs on a node, or in the driver to re-check)
# ----------------------------------------------------------------------

def _explore_shard(scenario: Scenario, spec: Optional[ScenarioSpec],
                   shard: Shard, params: EngineParams, shard_id: int = 0,
                   attempt: int = 1, deadline: Optional[float] = None,
                   beat=None) -> Tuple[ScenarioReport, List[CorpusEntry]]:
    """Explore one shard; ``beat`` (`repro.engine.dist.node.NetBeat`)
    renews the node's lease as it goes."""
    report = ScenarioReport(scenario=scenario.name)
    report.styles = {s: StyleTally() for s in params.styles}
    sink = CorpusSink(scenario.name, spec, params.max_steps,
                      cap=params.corpus_cap, model=params.model)
    budget = BudgetTracker(BudgetSpec(shard_seconds=params.shard_seconds,
                                      run_deadline=deadline,
                                      max_rss_mb=params.max_rss_mb))
    if beat is not None:
        beat.beat(shard_id, 0, force=True)
    # The straggler site: an injected delay that keeps beating — a slow
    # node, not a hung one, so its lease stays renewed and the hedging
    # layer is what rescues the shard.
    delay = injected_delay("hedge.slow_worker", shard=shard_id,
                           attempt=attempt)
    while delay > 0:
        chunk = min(delay, 0.05)
        time.sleep(chunk)
        delay -= chunk
        if beat is not None:
            beat.beat(shard_id, 0)
    start = time.perf_counter()
    dstats = DporStats()
    graphs = {} if params.exhaustive else None
    for result in iter_shard(scenario.factory, shard, params.max_steps,
                             params.max_executions,
                             dpor=params.dpor_on(), stats=dstats,
                             model=params.model):
        fault_point("worker.explore", shard=shard_id, attempt=attempt,
                    execs=report.executions + 1)
        record_result(report, scenario, result, params.styles, sink,
                      graphs)
        if beat is not None:
            beat.beat(shard_id, report.executions)
        if report.executions >= params.max_executions:
            break
        if budget.breach() is not None:
            report.budget_exhausted = True
            break
    report.pruned_subtrees = dstats.pruned_subtrees
    report.exhausted = (params.exhaustive and not report.budget_exhausted
                        and report.executions < params.max_executions)
    report.seconds = time.perf_counter() - start
    return report, sink.entries


def encode_result(shard_id: int, attempt: int, report: ScenarioReport,
                  entries: List[CorpusEntry]) -> Tuple[str, int]:
    """A shard result as it crosses a channel: ``(blob, crc)``."""
    blob = json.dumps({"report": report_to_json(report),
                       "corpus": [e.to_json() for e in entries]},
                      sort_keys=True)
    # The lying-executor site sits *before* the CRC is taken and keeps
    # the JSON valid: framing-consistent silent corruption that only the
    # audit layer's trusted re-execution can catch.
    blob = flip_result_digit("pool.flip_result_byte", blob,
                             shard=shard_id, attempt=attempt)
    crc = zlib.crc32(blob.encode("utf-8"))
    # The corrupt-fault site sits *after* the CRC is taken, modelling
    # damage in flight — which `_decode_result` must catch.
    return mutate_blob("worker.result", blob, shard=shard_id,
                       attempt=attempt), crc


def _decode_result(shard_id: int, blob: str, crc: int) \
        -> Tuple[ScenarioReport, List[CorpusEntry]]:
    if zlib.crc32(blob.encode("utf-8")) != crc:
        raise ResultCorrupt(f"shard {shard_id}: result failed its CRC "
                            f"integrity check")
    payload = json.loads(blob)
    return (report_from_json(payload["report"]),
            [CorpusEntry.from_json(e) for e in payload["corpus"]])


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------

def plan_shards_ex(scenario: Scenario,
                   params: EngineParams) -> Tuple[List[Shard], List[int]]:
    """Deterministically split the run into disjoint work items.

    Returns ``(shards, planner_gaps)``: under DPOR the planner itself
    prunes asleep branches at nodes it pins into shard prefixes (see
    `repro.engine.shard.plan_exhaustive_shards`).  ``planner_gaps``
    holds those prunes per gap between shards (``len(shards) + 1``
    entries, all zero without DPOR); the merge folds in the gaps a
    serial run would have reached, so serial and sharded reports agree.
    """
    if params.target_shards is not None:
        target = max(1, params.target_shards)
    else:
        target = max(1, params.workers) * SHARDS_PER_WORKER
        if params.workers <= 1 and params.checkpoint is None:
            target = 1  # no pool, no resume: skip planning probes
        elif params.checkpoint is not None:
            target = max(target, 2 * SHARDS_PER_WORKER)
    if not params.exhaustive:
        shards = plan_random_shards(params.runs, params.seed, target)
        return shards, [0] * (len(shards) + 1)
    gaps: List[int] = []
    shards, _total = plan_exhaustive_shards(
        scenario.factory, target, params.max_steps, model=params.model,
        gaps=gaps, dpor=params.dpor_on())
    return shards, gaps


def execution_cut(results: Dict[int, Tuple[ScenarioReport, List]],
                  n_shards: int, cap: int) -> Optional[Tuple[int, int]]:
    """Where the run-wide execution cap falls, as ``(shard_id, share)``.

    Shards concatenate to the serial enumeration in shard order, so a
    serial run capped at ``cap`` stops inside the first shard at which
    the executions so far reach ``cap``; ``share`` is that shard's part
    of the cap.  None while the completed shards, taken in order, stay
    under the cap — or a missing or budget-truncated shard comes first.
    """
    before = 0
    for sid in range(n_shards):
        got = results.get(sid)
        if got is None or got[0].budget_exhausted:
            return None
        if before + got[0].executions >= cap:
            return sid, cap - before
        before += got[0].executions
    return None


def run_scenario(scenario: Optional[Scenario], params: EngineParams,
                 spec: Optional[ScenarioSpec] = None) -> EngineResult:
    """Explore + check one scenario with the full engine machinery."""
    from .dist.coordinator import Coordinator, DistParams
    if scenario is None:
        if spec is None:
            raise ValueError("need a scenario or a registry spec")
        scenario = build_scenario(spec)
    lease = params.shard_timeout
    dist = DistParams(lease_seconds=math.inf if lease is None else lease,
                      idle_wait=LOCAL_IDLE_WAIT)
    return _run_pool(Coordinator(params, spec, dist, scenario=scenario,
                                 local=True))


def finalize_run(scenario: Scenario, spec: Optional[ScenarioSpec],
                 params: EngineParams, shards: List[Shard],
                 planner_gaps: Sequence[int],
                 results: Dict[int, Tuple[ScenarioReport,
                                          List[CorpusEntry]]],
                 markers: set, reporter: ProgressReporter,
                 writer: Optional[CheckpointWriter],
                 witnesses: Sequence[CorpusEntry] = ()) -> EngineResult:
    """Merge per-shard results into one honest `EngineResult`.

    The shared tail of the coordinator (`repro.engine.dist.coordinator`,
    which drives local and distributed runs alike) and the
    crash-consistency harness: apply the run-wide execution cap, fold
    the partial reports in shard order, charge planner prunes exactly
    once, account coverage for anything truncated or missing, and flush
    the deduplicated corpus plus the audit's divergence ``witnesses``.

    The cap (`execution_cut`) keeps the leading shards up to the one
    holding the cap's last execution and drops every later shard — they
    are not coverage losses, the serial run never reaches them either.
    Every shard was explored under the full cap, so the cut shard is
    kept as is only if it stopped at exactly its share; otherwise it is
    re-explored here, once, capped at its share.
    """
    cut = execution_cut(results, len(shards), params.max_executions)
    if cut is None:
        needed = range(len(shards))
        ordered = sorted(results)
        # Branches the planner itself pruned at pinned prefix nodes:
        # charged here, exactly once, so sharded totals equal the serial
        # DPOR run.
        charged = sum(planner_gaps)
    else:
        sid, share = cut
        needed = ordered = range(sid + 1)
        cut_report = results[sid][0]
        if cut_report.exhausted or cut_report.executions != share:
            # A driver-side re-execution, like an audit: its attempt
            # number stays clear of faults aimed at worker attempts.
            results = dict(results)
            results[sid] = _explore_shard(
                scenario, spec, shards[sid],
                dataclasses.replace(params, max_executions=share),
                shard_id=sid, attempt=AUDIT_ATTEMPT_BASE + sid)
        # The serial run stops inside the cut shard: it reaches the
        # planner prunes before it, never those after it.
        charged = sum(planner_gaps[:sid + 1])
    report = merge_reports(scenario.name,
                           (results[sid][0] for sid in ordered),
                           params.exhaustive)
    report.pruned_subtrees += charged
    entries: List[CorpusEntry] = []
    seen_hashes: Set[str] = set()
    for sid in ordered:
        for entry in results[sid][1]:
            # Same content-hash dedupe as the on-disk corpus, so
            # `corpus_entries` mirrors what a flush would persist.
            key = entry_hash(entry.to_json())
            if key not in seen_hashes:
                seen_hashes.add(key)
                entries.append(entry)
    del entries[params.corpus_cap:]
    # Divergence witnesses ride above the per-run cap: there are at most
    # a handful and each one names a provably-lying executor.
    for witness in witnesses:
        key = entry_hash(witness.to_json())
        if key not in seen_hashes:
            seen_hashes.add(key)
            entries.append(witness)
    flush_errors: List[str] = []
    if params.corpus:
        # Content-hash dedupe makes the flush idempotent, so a crash
        # between the append and the marker cannot duplicate entries —
        # and a torn corpus line is healed by the next resume.  A flush
        # hitting a full/failing disk degrades coverage below instead
        # of losing the in-memory result.
        append_entries(params.corpus, entries, errors=flush_errors)
        if writer is not None and "corpus_flushed" not in markers:
            writer.write_marker("corpus_flushed")
    durable_errors: List[str] = flush_errors + \
        (list(writer.write_errors) if writer is not None else [])
    for detail in durable_errors:
        reporter.emit("durable_error", detail=detail)
    telemetry = reporter.finish()
    complete_sids = {sid for sid in needed if sid in results
                     and not results[sid][0].budget_exhausted}
    coverage = Coverage(
        shards_total=len(needed),
        shards_complete=len(complete_sids),
        truncated=[shards[sid].describe() for sid in needed
                   if sid not in complete_sids],
        durable_errors=len(durable_errors),
        divergences=telemetry.audit_divergences)
    report.coverage = coverage
    if coverage.degraded:
        # A degraded run must never claim a universal result — whether
        # work was truncated or its durable record failed to land.
        report.exhausted = False
    return EngineResult(report=report, telemetry=telemetry, shards=shards,
                        corpus_entries=entries, coverage=coverage,
                        events=reporter.events)


# ----------------------------------------------------------------------
# The local transport
# ----------------------------------------------------------------------

class _LocalNodes:
    """A run's own worker nodes, each on one end of a socketpair.

    ``method`` is the ``multiprocessing`` start method of node processes,
    or None for a node thread in this process — which cannot be killed:
    a hung or convicted thread is left behind (its stale results are
    fenced) and replaced.
    """

    def __init__(self, coord, method: Optional[str]):
        self.coord = coord
        self.method = method
        self.nodes: Dict[str, object] = {}
        self._started = 0
        # Every replacement follows a death that spent a lease attempt
        # (a crash, hang or conviction), so the run's attempt budget
        # bounds them: a node that dies on every start cannot spin.
        self._limit = len(coord.shards) * (coord.params.max_retries + 1)

    def start(self, count: int) -> None:
        self._limit += count
        # Fork every node before the first serve thread starts.
        channels = [self._spawn() for _ in range(count)]
        for ch, node_id in channels:
            self.coord.attach(ch, node_id)

    def _spawn(self):
        from .dist.node import serve_local
        from .dist.protocol import Channel
        coord = self.coord
        node_id = f"local-{self._started}"
        self._started += 1
        ours, theirs = socket.socketpair()
        scenario = coord.scenario if self.method in (None, "fork") \
            else None
        args = (theirs, node_id, scenario, coord.spec, coord.params,
                coord.deadline)
        if self.method is None:
            node = threading.Thread(target=serve_local, args=args,
                                    name=node_id, daemon=True)
        else:
            # A forked child that exits would write the output buffered
            # here a second time.
            sys.stdout.flush()
            sys.stderr.flush()
            node = multiprocessing.get_context(self.method).Process(
                target=serve_local, args=args, name=node_id, daemon=True)
        node.start()
        if self.method is not None:
            # Only the child holds its end, so its death reads as end of
            # stream here and no later child inherits it.
            theirs.close()
        self.nodes[node_id] = node
        return Channel(ours), node_id

    def tend(self, expired, quarantined: List[str]) -> None:
        """Kill the nodes whose lease expired or that were convicted,
        then replace every node that is gone."""
        coord = self.coord
        doomed = set(quarantined)
        for lease in expired:
            node = self.nodes.get(lease.node_id)
            if node is not None:
                doomed.add(lease.node_id)
                coord.reporter.emit(
                    "hung", shard=lease.shard_id, node=lease.node_id,
                    pid=getattr(node, "pid", os.getpid()),
                    age=coord.table.lease_seconds)
        for node_id, node in list(self.nodes.items()):
            if node_id in doomed:
                if not isinstance(node, threading.Thread):
                    node.kill()
                    node.join()
            elif node.is_alive():
                continue
            del self.nodes[node_id]
            if self._started < self._limit:
                coord.attach(*self._spawn())

    def close(self) -> None:
        """Kill and reap every node process; a node thread has read
        ``done`` on its hung-up channel and leaves by itself."""
        nodes, self.nodes = list(self.nodes.values()), {}
        for node in nodes:
            if not isinstance(node, threading.Thread):
                node.kill()
        for node in nodes:
            node.join(timeout=5.0)


def _run_pool(coord) -> EngineResult:
    """Serve ``coord``'s shards to this run's own nodes; merge.

    ``workers`` node processes share the pending shards; one worker, a
    single pending shard, or an ad-hoc scenario on a spawn-only platform
    (no child process could rebuild it) gets one node thread instead.
    Every node is killed and reaped before this returns.
    """
    params = coord.params
    pending = 0 if coord.table.settled \
        else len(coord.shards) - len(coord.results)
    method = "fork" if "fork" in multiprocessing.get_all_start_methods() \
        else "spawn"
    count = min(params.workers, pending)
    if count <= 1 or (method != "fork" and coord.spec is None):
        method, count = None, min(1, pending)
    nodes = _LocalNodes(coord, method)
    try:
        nodes.start(count)
        return coord.serve(nodes)
    finally:
        nodes.close()

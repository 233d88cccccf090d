"""The parallel exploration driver: shard, fan out, watch, merge, persist.

`run_scenario` supersedes the serial ``check_scenario`` loop while
keeping `explore_all`/`explore_random` as the single-worker core:

1. **plan** — split the decision tree (exhaustive) or seed range
   (randomized) into disjoint shards (`repro.engine.shard`);
2. **resume** — drop shards already completed by an identical earlier
   run, recovered from the checkpoint log (`repro.engine.checkpoint`);
3. **explore** — run the remaining shards, inline for one worker or on a
   ``ProcessPoolExecutor`` for many.  Workers publish heartbeats
   (`repro.engine.health`); the driver SIGKILLs a *specific* hung worker
   and requeues only its shard, attributes a crashed worker's shard via
   its last beat, CRC-checks every result that crosses the pipe, and
   retries any failure within a bounded budget.  Per-shard and per-run
   resource budgets (`repro.engine.budget`) degrade gracefully into
   partial reports instead of dying;
4. **merge** — fold per-shard partial reports *in shard order*
   (`repro.engine.merge`), reproducing the serial report exactly
   (modulo timing) when nothing was truncated — and an honest
   `repro.engine.budget.Coverage` when something was; persist
   counterexamples idempotently to the corpus (`repro.engine.corpus`).

Workers receive the scenario through the pool initializer: under the
``fork`` start method the closure-laden `Scenario` object is inherited
by memory, and under ``spawn`` the registry spec is rebuilt instead —
shard descriptions and CRC-tagged shard results are the only things
pickled.  The whole failure path is itself exercised by deterministic
fault injection (`repro.engine.faults`, ``python -m repro chaos``).
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import shutil
import tempfile
import time
import zlib
from concurrent.futures import (FIRST_COMPLETED, BrokenExecutor,
                                ProcessPoolExecutor, wait)
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..checking.runner import (Scenario, ScenarioReport, StyleTally,
                               record_result)
from ..core.spec_styles import SpecStyle
from .audit import (AUDIT_ATTEMPT_BASE, AuditLog, AuditSampler,
                    audit_shard, divergence_witness, report_fingerprint)
from .budget import BudgetSpec, BudgetTracker, Coverage
from .checkpoint import (CheckpointWriter, load_completed_ex,
                         run_fingerprint)
from .corpus import (CORPUS_CAP, CorpusEntry, CorpusSink, append_entries,
                     entry_hash)
from .faults import (fault_point, flip_result_digit, injected_delay,
                     mutate_blob)
from .hedge import HEDGE_ATTEMPT_BASE, DeadlineEstimator
from .health import (HeartbeatMonitor, HeartbeatWriter, kill_worker,
                     sweep_stale)
from .merge import merge_reports, report_from_json, report_to_json
from .registry import ScenarioSpec, build_scenario
from .retry import BACKOFF_CAP, jittered_backoff
from ..rmc.dpor import DporStats
from .shard import (SHARDS_PER_WORKER, Shard, iter_shard,
                    plan_exhaustive_shards, plan_exhaustive_shards_dpor,
                    plan_random_shards)
from .telemetry import ProgressReporter, TelemetrySummary

#: Seconds a worker may go without a heartbeat (or, before its first
#: beat, the pool without any progress) before the watchdog declares it
#: hung.  A real default: a lone hung fork no longer stalls a run
#: forever.  Exploration loops beat *between* executions, so keep this
#: comfortably above the longest single execution (``max_steps`` bounds
#: it).
DEFAULT_SHARD_TIMEOUT = 300.0


@dataclass
class EngineParams:
    """Everything that shapes one engine run."""

    styles: Tuple[SpecStyle, ...] = (SpecStyle.LAT_HB,)
    exhaustive: bool = False
    runs: int = 300
    seed: int = 0
    max_steps: int = 20_000
    #: Execution cap for the whole run, however it is sharded: the merge
    #: keeps the first ``max_executions`` executions in shard order
    #: (`execution_cut`), exactly the ones a serial run checks.
    max_executions: int = 100_000
    workers: int = 1
    #: Max prefix length for exhaustive splitting (None = default).
    split_depth: Optional[int] = None
    #: Shard-count target (None = SHARDS_PER_WORKER per worker).
    target_shards: Optional[int] = None
    checkpoint_path: Optional[str] = None
    corpus_path: Optional[str] = None
    corpus_cap: int = CORPUS_CAP
    progress: bool = False
    max_retries: int = 2
    #: Base delay of the jittered exponential backoff between retry
    #: attempts of the same shard (0 disables; `repro.engine.retry`).
    retry_backoff: float = 0.05
    #: ``multiprocessing`` start method for pool workers (None = fork
    #: when available, else spawn).  ``spawn`` requires a registry spec.
    start_method: Optional[str] = None
    #: Seconds without a heartbeat before a worker is declared hung,
    #: killed, and its shard requeued (None = wait forever).
    shard_timeout: Optional[float] = DEFAULT_SHARD_TIMEOUT
    #: Seconds between worker heartbeat writes.
    heartbeat_interval: float = 0.25
    #: Wall-clock budget per shard; a breaching shard stops cleanly and
    #: returns a partial report flagged ``budget_exhausted``.
    shard_seconds: Optional[float] = None
    #: Wall-clock budget for the whole run; on breach remaining shards
    #: are skipped and the merged report carries coverage accounting.
    run_seconds: Optional[float] = None
    #: Peak-RSS ceiling per worker process, in MiB.
    max_rss_mb: Optional[float] = None
    #: Sleep-set partial-order reduction (`repro.rmc.dpor`).  None
    #: resolves to "on in exhaustive mode"; randomized mode ignores it.
    dpor: Optional[bool] = None
    #: Memory model id (`repro.models`): the semantics every execution
    #: of this run is interpreted under.  Part of the fingerprint —
    #: outcome sets differ across models, so checkpoints and corpus
    #: records must never mix models.
    model: str = "orc11"
    #: Hedged execution (`repro.engine.hedge`): once a shard runs past
    #: ``quantile(observed durations) × factor`` (never below
    #: ``hedge_floor`` seconds), dispatch a speculative duplicate; the
    #: first structurally-valid result wins.  Deliberately *not* part of
    #: the fingerprint: hedging changes who delivers a result, never
    #: what it contains.
    hedge: bool = False
    hedge_quantile: float = 0.95
    hedge_factor: float = 3.0
    hedge_floor: float = 0.5
    #: Fraction of completed shards re-executed by the trusted driver
    #: process and fingerprint-compared (`repro.engine.audit`); 0 = off.
    #: Also excluded from the fingerprint for the same reason.
    audit_fraction: float = 0.0

    def dpor_on(self) -> bool:
        """The resolved DPOR switch: defaults to on for exhaustive mode."""
        return self.exhaustive and self.dpor is not False

    def fingerprint_json(self) -> Dict:
        """The parameters that determine exploration results.

        Budgets, timeouts, and heartbeat cadence are deliberately
        excluded: they shape *how far* a run gets, not what any
        completed shard contains, so checkpoints stay resumable across
        different budget settings.
        """
        return {
            "styles": [s.name for s in self.styles],
            "exhaustive": self.exhaustive,
            "runs": self.runs,
            "seed": self.seed,
            "max_steps": self.max_steps,
            "max_executions": self.max_executions,
            "dpor": self.dpor_on(),
            "model": self.model,
        }

    def budget_spec(self, deadline: Optional[float]) -> BudgetSpec:
        return BudgetSpec(shard_seconds=self.shard_seconds,
                          run_deadline=deadline,
                          max_rss_mb=self.max_rss_mb)

    def wire_json(self) -> Dict:
        """The fields a remote worker node needs to explore a shard.

        A superset of `fingerprint_json` (everything result-determining)
        plus the knobs that shape a node's local loop; budgets and
        watchdog windows stay coordinator-side.
        """
        data = self.fingerprint_json()
        data["corpus_cap"] = self.corpus_cap
        data["heartbeat_interval"] = self.heartbeat_interval
        data["hedge"] = self.hedge
        data["hedge_quantile"] = self.hedge_quantile
        data["hedge_factor"] = self.hedge_factor
        data["hedge_floor"] = self.hedge_floor
        data["audit_fraction"] = self.audit_fraction
        return data

    @staticmethod
    def from_wire(data: Dict) -> "EngineParams":
        """Rebuild node-side params from `wire_json` output."""
        return EngineParams(
            styles=tuple(SpecStyle[name] for name in data["styles"]),
            exhaustive=data["exhaustive"], runs=data["runs"],
            seed=data["seed"], max_steps=data["max_steps"],
            max_executions=data["max_executions"], dpor=data["dpor"],
            model=data.get("model", "orc11"),
            corpus_cap=data.get("corpus_cap", CORPUS_CAP),
            heartbeat_interval=data.get("heartbeat_interval", 0.25),
            hedge=data.get("hedge", False),
            hedge_quantile=data.get("hedge_quantile", 0.95),
            hedge_factor=data.get("hedge_factor", 3.0),
            hedge_floor=data.get("hedge_floor", 0.5),
            audit_fraction=data.get("audit_fraction", 0.0))


@dataclass
class EngineResult:
    """A merged report plus the run's mechanics."""

    report: ScenarioReport
    telemetry: TelemetrySummary
    shards: List[Shard] = field(default_factory=list)
    corpus_entries: List[CorpusEntry] = field(default_factory=list)
    coverage: Optional[Coverage] = None


class ShardFailed(RuntimeError):
    """A shard kept failing after its retry budget was spent."""


class ResultCorrupt(RuntimeError):
    """A shard result came back failing its CRC integrity check."""


# ----------------------------------------------------------------------
# Per-shard exploration (runs inline or inside a worker process)
# ----------------------------------------------------------------------

def _explore_shard(scenario: Scenario, spec: Optional[ScenarioSpec],
                   shard: Shard, params: EngineParams, shard_id: int = 0,
                   attempt: int = 1, deadline: Optional[float] = None,
                   beat: Optional[HeartbeatWriter] = None) \
        -> Tuple[ScenarioReport, List[CorpusEntry]]:
    report = ScenarioReport(scenario=scenario.name)
    report.styles = {s: StyleTally() for s in params.styles}
    sink = CorpusSink(scenario.name, spec, params.max_steps,
                      cap=params.corpus_cap, model=params.model)
    budget = BudgetTracker(params.budget_spec(deadline))
    if beat is not None:
        beat.beat(shard_id, 0, force=True)
    # The straggler site: an injected delay that keeps beating — a slow
    # worker, not a hung one, so the watchdog must stay quiet and the
    # hedging layer is what rescues the shard.
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
    for result in iter_shard(scenario.factory, shard, params.max_steps,
                             params.max_executions,
                             dpor=params.dpor_on(), stats=dstats,
                             model=params.model):
        fault_point("worker.explore", shard=shard_id, attempt=attempt,
                    execs=report.executions + 1)
        record_result(report, scenario, result, params.styles, sink)
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


_WORKER_STATE: Dict = {}


def _init_worker(scenario: Optional[Scenario],
                 spec: Optional[ScenarioSpec],
                 params: EngineParams,
                 deadline: Optional[float] = None,
                 heartbeat_dir: Optional[str] = None) -> None:
    if scenario is None:
        if spec is None:
            raise RuntimeError("worker started without scenario or spec")
        scenario = build_scenario(spec)
    _WORKER_STATE["scenario"] = scenario
    _WORKER_STATE["spec"] = spec
    _WORKER_STATE["params"] = params
    _WORKER_STATE["deadline"] = deadline
    _WORKER_STATE["beat"] = (
        HeartbeatWriter(heartbeat_dir, params.heartbeat_interval)
        if heartbeat_dir else None)


def _run_shard_task(shard_id: int, shard: Shard, attempt: int = 1):
    report, entries = _explore_shard(
        _WORKER_STATE["scenario"], _WORKER_STATE["spec"], shard,
        _WORKER_STATE["params"], shard_id=shard_id, attempt=attempt,
        deadline=_WORKER_STATE.get("deadline"),
        beat=_WORKER_STATE.get("beat"))
    payload = {"report": report_to_json(report),
               "corpus": [e.to_json() for e in entries]}
    blob = json.dumps(payload, sort_keys=True)
    # The lying-executor site sits *before* the CRC is taken and keeps
    # the JSON valid: framing-consistent silent corruption that only the
    # audit layer's trusted re-execution can catch.
    blob = flip_result_digit("pool.flip_result_byte", blob,
                             shard=shard_id, attempt=attempt)
    crc = zlib.crc32(blob.encode("utf-8"))
    # The corrupt-fault site sits *after* the CRC is taken, modelling
    # damage in flight — which the driver-side check must catch.
    blob = mutate_blob("worker.result", blob, shard=shard_id,
                       attempt=attempt)
    return shard_id, blob, crc, os.getpid()


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
    `repro.engine.shard.plan_exhaustive_shards_dpor`).  ``planner_gaps``
    holds those prunes per gap between shards (``len(shards) + 1``
    entries, all zero without DPOR); the merge folds in the gaps a
    serial run would have reached, so serial and sharded reports agree.
    """
    if params.target_shards is not None:
        target = max(1, params.target_shards)
    else:
        target = max(1, params.workers) * SHARDS_PER_WORKER
        if params.workers <= 1 and params.checkpoint_path is None:
            target = 1  # no pool, no resume: skip planning probes
        elif params.checkpoint_path is not None:
            target = max(target, 2 * SHARDS_PER_WORKER)
    if params.exhaustive:
        if target == 1:
            return [Shard(kind="prefix")], [0, 0]
        kwargs = {"model": params.model}
        if params.split_depth is not None:
            kwargs["max_split_depth"] = params.split_depth
        if params.dpor_on():
            gaps: List[int] = []
            shards, _total = plan_exhaustive_shards_dpor(
                scenario.factory, target, params.max_steps, gaps=gaps,
                **kwargs)
            return shards, gaps
        shards = plan_exhaustive_shards(scenario.factory, target,
                                        params.max_steps, **kwargs)
    else:
        shards = plan_random_shards(params.runs, params.seed, target)
    return shards, [0] * (len(shards) + 1)


def plan_shards(scenario: Scenario, params: EngineParams) -> List[Shard]:
    """Deterministically split the run into disjoint work items."""
    return plan_shards_ex(scenario, params)[0]


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
    if scenario is None:
        if spec is None:
            raise ValueError("need a scenario or a registry spec")
        scenario = build_scenario(spec)
    shards, planner_gaps = plan_shards_ex(scenario, params)
    fingerprint = run_fingerprint(scenario.name, spec,
                                  params.fingerprint_json(), shards)
    deadline = (time.time() + params.run_seconds
                if params.run_seconds is not None else None)

    results: Dict[int, Tuple[ScenarioReport, List[CorpusEntry]]] = {}
    markers: set = set()
    quarantined = 0
    if params.checkpoint_path:
        done, markers, diag = load_completed_ex(params.checkpoint_path,
                                                fingerprint)
        quarantined = diag.corrupt
        for sid, (report, entries) in done.items():
            if 0 <= sid < len(shards):
                results[sid] = (report, entries)

    reporter = ProgressReporter(total_shards=len(shards),
                                enabled=params.progress,
                                label=f"engine:{scenario.name}")
    reporter.on_quarantined(quarantined)
    reporter.on_planner_pruned(sum(planner_gaps))
    for report, _entries in results.values():
        reporter.on_resumed(report.executions, report.steps,
                            report.pruned_subtrees)

    writer = CheckpointWriter(params.checkpoint_path, fingerprint) \
        if params.checkpoint_path else None

    def capped() -> bool:
        # Once the completed shards reach the cap in order, no later
        # shard can contribute an execution to the merge.
        return execution_cut(results, len(shards),
                             params.max_executions) is not None

    pending = [(sid, shard) for sid, shard in enumerate(shards)
               if sid not in results]
    if capped():
        pending = []  # the resumed shards already reach the cap

    def complete(sid: int, report: ScenarioReport,
                 entries: List[CorpusEntry], pid: int) -> None:
        results[sid] = (report, entries)
        if report.budget_exhausted:
            # Not checkpointed: a later, better-funded resume should
            # re-explore a truncated shard rather than trust its stub.
            reporter.on_budget_stop(sid)
        elif writer is not None:
            writer.write_shard(sid, report, entries)
        reporter.on_shard_done(sid, pid, report.executions, report.steps,
                               report.pruned_subtrees)

    def replace(sid: int, report: ScenarioReport,
                entries: List[CorpusEntry]) -> None:
        # Audit repair: substitute the trusted re-execution for a
        # divergent result without re-counting the shard.  Checkpoint
        # replay is last-record-wins, so appending the trusted record
        # heals a later resume too.
        results[sid] = (report, entries)
        if writer is not None and not report.budget_exhausted:
            writer.write_shard(sid, report, entries)

    audit_log = AuditLog(AuditSampler(params.audit_fraction, params.seed)) \
        if params.audit_fraction > 0 else None

    if params.workers > 1 and len(pending) > 1:
        _run_pool(scenario, spec, params, pending, complete, reporter,
                  deadline, capped, replace=replace, audit_log=audit_log)
    else:
        _run_inline(scenario, spec, params, pending, complete, reporter,
                    deadline, capped)

    return finalize_run(scenario, spec, params, shards, planner_gaps,
                        results, markers, reporter, writer,
                        audit_log=audit_log)


def finalize_run(scenario: Scenario, spec: Optional[ScenarioSpec],
                 params: EngineParams, shards: List[Shard],
                 planner_gaps: Sequence[int],
                 results: Dict[int, Tuple[ScenarioReport,
                                          List[CorpusEntry]]],
                 markers: set, reporter: ProgressReporter,
                 writer: Optional[CheckpointWriter],
                 audit_log: Optional[AuditLog] = None) -> EngineResult:
    """Merge per-shard results into one honest `EngineResult`.

    The shared tail of every driver — the local pool above, the
    distributed coordinator (`repro.engine.dist.coordinator`) and the
    crash-consistency harness: apply the run-wide execution cap, fold
    the partial reports in shard order, charge planner prunes exactly
    once, account coverage for anything truncated or missing, and flush
    the deduplicated corpus.

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
    if audit_log is not None:
        # Divergence witnesses ride above the per-run cap: there are at
        # most a handful and each one names a provably-lying executor.
        for witness in audit_log.witnesses:
            key = entry_hash(witness.to_json())
            if key not in seen_hashes:
                seen_hashes.add(key)
                entries.append(witness)
    flush_errors: List[str] = []
    if params.corpus_path:
        # Content-hash dedupe makes the flush idempotent, so a crash
        # between the append and the marker cannot duplicate entries —
        # and a torn corpus line is healed by the next resume.  A flush
        # hitting a full/failing disk degrades coverage below instead
        # of losing the in-memory result.
        append_entries(params.corpus_path, entries, errors=flush_errors)
        if writer is not None and "corpus_flushed" not in markers:
            writer.write_marker("corpus_flushed")
    durable_errors: List[str] = flush_errors + \
        (list(writer.write_errors) if writer is not None else [])
    for detail in durable_errors:
        reporter.on_durable_error(detail)
    telemetry = reporter.finish()
    complete_sids = {sid for sid in needed if sid in results
                     and not results[sid][0].budget_exhausted}
    coverage = Coverage(
        shards_total=len(needed),
        shards_complete=len(complete_sids),
        truncated=[shards[sid].describe() for sid in needed
                   if sid not in complete_sids],
        durable_errors=len(durable_errors),
        divergences=audit_log.divergences if audit_log else 0)
    report.coverage = coverage
    if coverage.degraded:
        # A degraded run must never claim a universal result — whether
        # work was truncated or its durable record failed to land.
        report.exhausted = False
    return EngineResult(report=report, telemetry=telemetry, shards=shards,
                        corpus_entries=entries, coverage=coverage)


def _run_inline(scenario, spec, params, pending, complete, reporter,
                deadline, stop) -> None:
    for sid, shard in pending:
        if stop():
            return  # every later shard lies past the execution cap
        if deadline is not None and time.time() >= deadline:
            reporter.on_skipped(sid, "run budget exhausted")
            continue
        attempt = 1
        while True:
            try:
                report, entries = _explore_shard(scenario, spec, shard,
                                                 params, shard_id=sid,
                                                 attempt=attempt,
                                                 deadline=deadline)
                break
            except Exception as err:  # noqa: BLE001 — requeue any failure
                reporter.on_retry(sid, attempt, repr(err))
                attempt += 1
                if attempt > params.max_retries + 1:
                    raise ShardFailed(
                        f"shard {sid} ({shard}) failed "
                        f"{params.max_retries + 1} times: {err!r}") from err
                _retry_sleep(params, sid, attempt)
        complete(sid, report, entries, os.getpid())


def _retry_sleep(params: EngineParams, sid: int, attempt: int) -> None:
    """Jittered exponential backoff before retry ``attempt`` of a shard —
    transient failures (a flaky filesystem, memory pressure) get room to
    clear instead of an immediate identical requeue."""
    delay = jittered_backoff(attempt - 1, params.retry_backoff,
                             BACKOFF_CAP, key=f"shard-{sid}")
    if delay > 0:
        time.sleep(delay)


def _make_executor(scenario, spec, params, n_tasks, deadline=None,
                   heartbeat_dir=None):
    methods = multiprocessing.get_all_start_methods()
    method = params.start_method
    if method is None:
        method = "fork" if "fork" in methods else "spawn"
    if method == "fork":
        ctx = multiprocessing.get_context("fork")
        init_scenario = scenario  # inherited by memory, never pickled
    else:  # spawn: workers rebuild from the registry
        if spec is None:
            return None
        ctx = multiprocessing.get_context(method)
        init_scenario = None
    return ProcessPoolExecutor(
        max_workers=min(params.workers, max(n_tasks, 1)), mp_context=ctx,
        initializer=_init_worker,
        initargs=(init_scenario, spec, params, deadline, heartbeat_dir))


def _worker_pids(executor) -> Set[int]:
    return set(getattr(executor, "_processes", None) or ())


def _teardown_executor(executor) -> None:
    """Shut a pool down without leaking children.

    ``shutdown(wait=False, cancel_futures=True)`` never terminates a
    *running* task, so an abandoned pool is swept explicitly: every
    worker is killed and joined (reaped).  Results already retrieved are
    unaffected — a recycled pool's in-flight shards are requeued anyway.
    """
    # Snapshot first: shutdown() drops the executor's process table.
    procs = list((getattr(executor, "_processes", None) or {}).values())
    executor.shutdown(wait=False, cancel_futures=True)
    for proc in procs:
        try:
            proc.kill()
        except (OSError, ValueError):
            pass
    for proc in procs:
        try:
            proc.join(timeout=5.0)
        except (OSError, ValueError, AssertionError):
            pass


def _run_pool(scenario, spec, params, pending, complete, reporter,
              deadline, stop, replace=None,
              audit_log: Optional[AuditLog] = None) -> None:
    heartbeat_dir = os.environ.get("REPRO_HB_DIR") \
        or tempfile.mkdtemp(prefix="repro-hb-")
    owns_hb_dir = "REPRO_HB_DIR" not in os.environ
    os.makedirs(heartbeat_dir, exist_ok=True)
    # A pinned (or leaked) directory may hold beats from dead pids of a
    # prior run; sweep them so the monitor never attributes an old run's
    # beat to a fresh worker that recycled the pid.
    sweep_stale(heartbeat_dir)
    monitor = HeartbeatMonitor(heartbeat_dir, timeout=params.shard_timeout)
    executor = _make_executor(scenario, spec, params, len(pending),
                              deadline, heartbeat_dir)
    if executor is None:  # cannot ship the scenario to workers
        if owns_hb_dir:
            shutil.rmtree(heartbeat_dir, ignore_errors=True)
        _run_inline(scenario, spec, params, pending, complete, reporter,
                    deadline, stop)
        return
    shard_by_id = dict(pending)
    attempts = {sid: 0 for sid, _ in pending}
    futures: Dict = {}
    # Hedging state: when the first dispatch of each still-open shard
    # went out, which shards have a live speculative duplicate, and
    # which futures *are* duplicates (`repro.engine.hedge`).
    hedger = DeadlineEstimator(params.hedge_quantile, params.hedge_factor,
                               params.hedge_floor, params.seed) \
        if params.hedge else None
    dispatched: Dict[int, float] = {}
    hedged: Set[int] = set()
    hedge_futs: Set = set()
    done_sids: Set[int] = set()
    # Completed shards awaiting a trusted audit re-execution
    # (`repro.engine.audit`): drained opportunistically between polls so
    # the audits overlap with the workers still exploring.
    audit_queue: List[Tuple] = []

    def submit(sid: int, charge: bool = True) -> None:
        if charge:
            attempts[sid] += 1
        futures[executor.submit(_run_shard_task, sid, shard_by_id[sid],
                                attempts[sid])] = sid
        dispatched[sid] = time.time()
        hedged.discard(sid)

    def fail_if_spent(sid: int, reason: str) -> None:
        if attempts[sid] > params.max_retries:
            raise ShardFailed(
                f"shard {sid} ({shard_by_id[sid]}) failed "
                f"{attempts[sid]} times: {reason}")

    def recycle_pool(reason: str, charged: Set[int],
                     extra: Set[int] = frozenset()) -> None:
        """Replace a broken/stalled pool.  Only ``charged`` shards spend
        retry budget; innocent in-flight shards are requeued for free.
        In-flight duplicates of already-settled shards just vanish."""
        nonlocal executor
        lost = sorted((set(futures.values()) | set(extra)) - done_sids)
        _teardown_executor(executor)
        futures.clear()
        hedge_futs.clear()
        executor = _make_executor(scenario, spec, params, len(lost),
                                  deadline, heartbeat_dir)
        for sid in lost:
            if sid in charged:
                reporter.on_retry(sid, attempts[sid], reason)
                fail_if_spent(sid, reason)
                submit(sid, charge=True)
            else:
                submit(sid, charge=False)

    def in_flight_futs(sid: int) -> List:
        return [f for f, s in futures.items() if s == sid]

    def maybe_hedge(now: float) -> None:
        if hedger is None:
            return
        hedge_deadline = hedger.deadline()
        if hedge_deadline is None:
            return
        for sid in set(futures.values()):
            if sid in hedged or sid in done_sids:
                continue
            sibs = in_flight_futs(sid)
            # Only hedge a shard that is actually *running* somewhere —
            # a queued shard is waiting for a worker, and its duplicate
            # would wait in the same queue behind it.
            if not any(f.running() for f in sibs):
                continue
            elapsed = now - dispatched.get(sid, now)
            if elapsed <= hedge_deadline:
                continue
            reporter.on_hedge(sid, elapsed, hedge_deadline)
            hedged.add(sid)
            fut = executor.submit(_run_shard_task, sid, shard_by_id[sid],
                                  HEDGE_ATTEMPT_BASE + attempts[sid])
            futures[fut] = sid
            hedge_futs.add(fut)

    def settle(fut, rid: int, report, entries, pid: int,
               now: float, is_hedge: bool = False) -> None:
        """First structurally-valid result wins; cancel the sibling.

        ``is_hedge`` is captured by the caller *before* it removes the
        future from ``hedge_futs`` — checking membership here would
        always see the already-discarded future and call every win a
        loss."""
        complete(rid, report, entries, pid)
        done_sids.add(rid)
        if hedger is not None:
            hedger.observe(now - dispatched.get(rid, now))
        if rid in hedged:
            if is_hedge:
                reporter.on_hedge_win(rid)
            else:
                reporter.on_hedge_loss(rid)
        for sib in in_flight_futs(rid):
            if sib is not fut and sib.cancel():
                futures.pop(sib, None)
                hedge_futs.discard(sib)
        if audit_log is not None and audit_log.sampler.should_audit(rid):
            audit_queue.append((rid, report, entries, pid))

    def run_audits() -> None:
        """Trusted re-execution of sampled shards, in *this* process —
        the interpreter that defines the serial baseline.  A divergence
        convicts the origin worker outright: quarantine it (recycle the
        whole pool — process identity is not recoverable after that),
        repair the merge with the trusted result, and persist a
        replayable witness."""
        while audit_queue:
            sid, report, entries, pid = audit_queue.pop(0)
            observed_fp = report_fingerprint(report)
            who = f"worker pid {pid}"
            trusted, finding = audit_shard(scenario, spec,
                                           shard_by_id[sid], params, sid,
                                           report, observed_fp, who)
            reporter.on_audit(sid, finding is not None)
            if finding is None:
                continue
            audit_log.findings.append(finding)
            audit_log.witnesses.append(
                divergence_witness(finding, spec, params))
            if replace is not None:
                replace(sid, trusted[0], trusted[1])
            audit_log.quarantined.append(who)
            reporter.on_worker_quarantined(who, finding.describe())
            if futures:
                recycle_pool("pool quarantined after result divergence",
                             charged=set())

    # Poll fast enough for the watchdog to be responsive, but never
    # faster than the heartbeat cadence makes meaningful.
    poll = params.shard_timeout
    if poll is not None:
        poll = max(min(poll / 4, 1.0), params.heartbeat_interval)
    last_progress = time.time()
    try:
        for sid, _ in pending:
            submit(sid)
        # Stop as soon as the completed shards reach the execution cap:
        # the pool teardown below cancels the queued shards past it and
        # kills the workers still exploring them.
        while futures and not stop():
            done, _ = wait(list(futures), timeout=poll,
                           return_when=FIRST_COMPLETED)
            # Snapshot now: on a broken pool the executor's manager
            # thread empties this table while it cleans up, racing the
            # crash-attribution read below.
            procs = dict(getattr(executor, "_processes", None) or {})
            now = time.time()
            if deadline is not None and now >= deadline:
                # Run budget spent: shed everything not yet running;
                # running shards stop themselves at the same deadline.
                shed_sids: Set[int] = set()
                for fut in [f for f in list(futures) if f.cancel()]:
                    sid = futures.pop(fut)
                    hedge_futs.discard(fut)
                    if sid not in done_sids and sid not in shed_sids:
                        shed_sids.add(sid)
                        reporter.on_skipped(sid, "run budget exhausted")
            maybe_hedge(now)
            if not done:
                run_audits()
                if params.shard_timeout is None:
                    continue
                in_flight = set(futures.values()) - done_sids
                beats = monitor.read()
                hung = monitor.hung(beats, in_flight,
                                    _worker_pids(executor))
                if hung:
                    for b in hung:
                        reporter.on_hung_worker(b.pid, b.shard, b.age(now))
                        kill_worker(b.pid)
                        monitor.ignore(b.pid)
                    recycle_pool(
                        f"worker hung (no heartbeat within "
                        f"{params.shard_timeout}s)",
                        charged={b.shard for b in hung})
                    last_progress = time.time()
                elif max(monitor.freshest(beats), last_progress) \
                        + params.shard_timeout <= now:
                    # No completion *and* no heartbeat at all: a worker
                    # died or hung before it could identify itself.
                    recycle_pool(
                        f"no completion within {params.shard_timeout}s",
                        charged=set(in_flight))
                    last_progress = time.time()
                continue
            last_progress = now
            for fut in done:
                if stop():
                    break  # the rest of the batch lies past the cap
                sid = futures.pop(fut, None)
                if sid is None:
                    continue  # already shed by a recycle or cancel
                is_hedge = fut in hedge_futs
                hedge_futs.discard(fut)
                if fut.cancelled():
                    if sid not in done_sids:
                        reporter.on_skipped(sid, "run budget exhausted")
                    continue
                if sid in done_sids:
                    # The losing duplicate of a settled shard: its late
                    # result is discarded, only its cost is recorded.
                    try:
                        rid, blob, crc, _pid = fut.result()
                        late, _ = _decode_result(rid, blob, crc)
                        reporter.summary.hedge_wasted_execs += \
                            late.executions
                    except Exception:  # noqa: BLE001 — already settled
                        pass
                    continue
                try:
                    rid, blob, crc, pid = fut.result()
                    report, entries = _decode_result(rid, blob, crc)
                except BrokenExecutor:
                    # A worker died hard.  Its last heartbeat names the
                    # shard it took down; only that shard is charged,
                    # every other in-flight shard requeues for free.
                    in_flight = set(futures.values()) | {sid}
                    dead = monitor.crashed_worker_shards(
                        procs, monitor.read(), in_flight)
                    charged = set(dead.values()) or in_flight
                    recycle_pool("worker process died", charged,
                                 extra={sid})
                    break
                except Exception as err:  # noqa: BLE001 — requeue
                    if in_flight_futs(sid):
                        # A duplicate of this shard is still running —
                        # it *is* the retry; no need to charge one.
                        continue
                    if isinstance(err, ResultCorrupt):
                        reporter.on_corrupt_result(sid)
                    reporter.on_retry(sid, attempts[sid], repr(err))
                    if attempts[sid] > params.max_retries:
                        raise ShardFailed(
                            f"shard {sid} ({shard_by_id[sid]}) failed "
                            f"{attempts[sid]} times: {err!r}") from err
                    _retry_sleep(params, sid, attempts[sid] + 1)
                    submit(sid)
                else:
                    settle(fut, rid, report, entries, pid, now, is_hedge)
            run_audits()
        run_audits()
    finally:
        # Sweep the pool on every exit path; kill+join guarantees no
        # leaked children even when a worker is wedged.
        _teardown_executor(executor)
        if owns_hb_dir:
            shutil.rmtree(heartbeat_dir, ignore_errors=True)

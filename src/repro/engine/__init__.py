"""`repro.engine` — the parallel exploration engine.

Scales the stateless replay explorers (`repro.rmc.explore`) across
worker nodes — local processes or remote machines, leased shards either
way — with checkpoint/resume and a persistent counterexample corpus.  The decision-tree prefix *is* a resumable work item: disjoint
prefixes are disjoint subtrees whose union is exactly the serial
enumeration, so sharded runs merge to byte-for-byte the serial report.

* shard (`repro.engine.shard`): prefix/seed-range work items;
* pool (`repro.engine.pool`): the local driver — plan, start local
  nodes, merge — over the lease loop of `repro.engine.dist`, which owns
  retries, hedging, audits and the execution cut for every run;
* merge (`repro.engine.merge`): shard-ordered report merging + JSON;
* durable (`repro.engine.durable`): CRC-framed JSONL with tolerant,
  quarantine-on-corruption loading;
* checkpoint (`repro.engine.checkpoint`): JSONL completed-shard log;
* corpus (`repro.engine.corpus`): replayable failing traces;
* budget (`repro.engine.budget`): wall-clock/RSS budgets and coverage
  accounting for graceful degradation;
* faults (`repro.engine.faults`): deterministic fault injection —
  the chaos harness (`repro.engine.chaos`, ``python -m repro chaos``)
  proves the machinery above converges under crashes, hangs, and torn
  writes;
* vfs (`repro.engine.vfs`): the injectable durable-I/O layer every
  persistent writer routes through — one fault shim, one write
  discipline, one trace recorder;
* crashcheck (`repro.engine.crashcheck`): enumerates every on-disk
  crash state a traced campaign admits and proves recovery from each
  (``python -m repro crashcheck``);
* fsck (`repro.engine.fsck`): offline audit + quarantine-and-heal over
  all durable artifact formats (``python -m repro fsck``);
* telemetry (`repro.engine.telemetry`): one `Event` stream per run; the
  summary, the ``--progress`` lines and the service WAL derive from it;
* registry/catalog: named scenario builders (the picklable face of
  closure-built scenarios).

See ``docs/engine.md`` for the sharding strategy, file formats, and the
replay workflow, and ``docs/robustness.md`` for the failure model.
"""

from ..checking.runner import CORPUS_CAP, DEFAULT_SHARD_TIMEOUT
from .budget import BudgetSpec, BudgetTracker, Coverage, rss_mb
from .checkpoint import CheckpointWriter, load_completed_ex, run_fingerprint
from .corpus import (CorpusEntry, CorpusSink, ModelMismatch, ReplayOutcome,
                     append_entries, entry_hash, load_corpus, replay_entry)
from .durable import LineDiagnostics, append_line, read_records
from .faults import (CRASH_EXIT_CODE, FAULT_PLAN_ENV, Fault, FaultInjected,
                     FaultPlan, fault_point)
from .merge import (merge_reports, report_from_json, report_to_json,
                    tally_from_json, tally_to_json, trace_from_json)
from .pool import (EngineParams, EngineResult, ResultCorrupt, ShardFailed,
                   plan_shards_ex, run_scenario)
from .registry import (ScenarioSpec, build_scenario, register_scenario,
                       registered_builders)
from .shard import (SHARDS_PER_WORKER, Shard, iter_shard,
                    plan_exhaustive_shards, plan_random_shards)
from .telemetry import Event, ProgressReporter, TelemetrySummary
from .vfs import (DurableWriteError, IoOp, OsVFS, TraceVFS,
                  atomic_write_bytes, atomic_write_text, get_vfs, install)

__all__ = [
    "EngineParams", "EngineResult", "ShardFailed", "ResultCorrupt",
    "run_scenario", "plan_shards_ex",
    "DEFAULT_SHARD_TIMEOUT",
    "Shard", "iter_shard", "plan_exhaustive_shards", "plan_random_shards",
    "SHARDS_PER_WORKER",
    "merge_reports", "report_to_json", "report_from_json",
    "tally_to_json", "tally_from_json", "trace_from_json",
    "CheckpointWriter", "load_completed_ex",
    "run_fingerprint",
    "CorpusEntry", "CorpusSink", "ReplayOutcome", "CORPUS_CAP",
    "append_entries", "entry_hash", "load_corpus", "replay_entry",
    "ModelMismatch",
    "LineDiagnostics", "append_line", "read_records",
    "Fault", "FaultPlan", "FaultInjected", "fault_point",
    "FAULT_PLAN_ENV", "CRASH_EXIT_CODE",
    "BudgetSpec", "BudgetTracker", "Coverage", "rss_mb",
    "ScenarioSpec", "register_scenario", "build_scenario",
    "registered_builders",
    "Event", "ProgressReporter", "TelemetrySummary",
    "DurableWriteError", "IoOp", "OsVFS", "TraceVFS", "get_vfs",
    "install", "atomic_write_bytes", "atomic_write_text",
]

"""Crash-point enumeration: every on-disk state a crash could leave.

The repo's durability story rests on a handful of hand-picked fault
sites — three WAL records the service tests tear, one checkpoint line
the chaos matrix cuts.  This harness inverts the burden of proof, in
the spirit of ALICE/CrashMonkey: instead of *sampling* crash points, it

1. **records** the complete durable-I/O trace of a scripted service
   campaign (submit → grant → explore → merge → checkpoint → corpus
   flush → report → finish) through `repro.engine.vfs.TraceVFS`;
2. **materializes every legal on-disk crash state** that trace admits:
   for each operation, the state with every earlier op applied, plus
   torn-tail variants of the op itself (a crash mid-``write`` leaves a
   byte prefix), a pre-rename variant for whole-file replaces (the
   temp file landed, the ``rename`` did not), and — for writes whose
   fsync was dropped — the durable-only state where the unsynced tail
   never reached the disk;
3. **restarts from each state** and asserts the recovery invariants
   the rest of the repo promises:

   * **no acked job lost** — a job whose submit was acknowledged
     (trace mark) replays from the WAL in every later crash state;
   * **fencing tokens monotone** — the replayed token floor never
     exceeds the final floor and never regresses as the trace
     advances, so a restarted incarnation always grants above every
     token the dead one handed out;
   * **corpus replayable** — `load_corpus` never raises, and every
     surviving entry is one the full run actually produced;
   * **resumed report byte-equal** — re-running the campaign over the
     crash state's checkpoint merges to byte-for-byte the serial DPOR
     report (equal `repro.engine.audit.report_fingerprint`).

``python -m repro crashcheck`` runs the whole enumeration; exit codes:

=====  ================================================================
exit   meaning
=====  ================================================================
0      every crash state recovered; all invariants held
1      at least one recovery-invariant violation (listed on stdout)
2      usage error (bad flags)
=====  ================================================================
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..core.spec_styles import SpecStyle
from . import vfs as vfs_mod
from .audit import report_fingerprint
from .checkpoint import CheckpointWriter, run_fingerprint
from .corpus import entry_hash, load_corpus
from .merge import report_to_json
from .pool import (EngineParams, _explore_shard, finalize_run,
                   plan_shards_ex, run_scenario)
from .registry import ScenarioSpec, build_scenario
from .telemetry import ProgressReporter
from .vfs import IoOp, TraceVFS

#: The recorded campaign: small and branchy, with real style
#: violations (the deliberately broken relaxed MS queue) so the corpus
#: path — entries appended, quarantined, resumed — is on the trace too.
CRASHCHECK_SPEC = ScenarioSpec("mixed-stress",
                               kwargs={"impl": "ms-queue/broken-rlx",
                                       "threads": 2, "ops": 2, "seed": 0})

CRASHCHECK_STYLES: Tuple[SpecStyle, ...] = (SpecStyle.LAT_HB,)

#: Corpus entries kept per run: enough appends to enumerate torn-tail
#: states across real corpus lines, small enough that the whole state
#: space stays a few hundred resumable checks.
CRASHCHECK_CORPUS_CAP = 12


def _params(workdir: str) -> EngineParams:
    return EngineParams(
        styles=CRASHCHECK_STYLES, exhaustive=True, seed=0,
        max_steps=100_000, workers=1, target_shards=4,
        corpus_cap=CRASHCHECK_CORPUS_CAP,
        checkpoint=os.path.join(workdir, "checkpoint.jsonl"),
        corpus=os.path.join(workdir, "corpus.jsonl"))


@dataclass
class WorkloadFacts:
    """Ground truth the invariant checks compare crash states against."""

    workdir: str
    ops: List[IoOp]
    #: job id -> index into ``ops`` of its ``acked:`` mark.
    acked: Dict[str, int]
    #: Highest fencing token the full run ever granted, per job.
    final_floor: Dict[str, int]
    #: `report_fingerprint` of the fault-free serial DPOR report.
    serial_fingerprint: str
    #: Content hashes of every corpus entry the full run produced.
    corpus_hashes: frozenset


@dataclass
class CrashState:
    """One legal on-disk state a crash could have left behind.

    ``applied`` counts the trace operations fully on disk; ``variant``
    names how the crash interacted with the op *at* that index
    (``"clean"`` = between ops, ``"torn@k"`` = mid-append with k bytes
    landed, ``"pre-rename"`` = temp written but not renamed,
    ``"unsynced-lost"`` = dropped-fsync tail never became durable).
    """

    applied: int
    variant: str
    files: Dict[str, bytes]

    def digest(self) -> str:
        h = hashlib.sha256()
        for path in sorted(self.files):
            h.update(path.encode("utf-8"))
            h.update(b"\0")
            h.update(self.files[path])
            h.update(b"\0")
        return h.hexdigest()

    def describe(self) -> str:
        return f"op {self.applied} [{self.variant}]"


@dataclass
class CrashcheckReport:
    """What one enumeration run saw."""

    ops: int = 0
    states_total: int = 0
    states_distinct: int = 0
    states_checked: int = 0
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        verdict = "all invariants held" if self.ok \
            else f"{len(self.violations)} VIOLATION(S)"
        return (f"crashcheck: {self.ops} durable ops -> "
                f"{self.states_distinct} distinct crash states "
                f"({self.states_total} enumerated, "
                f"{self.states_checked} checked): {verdict}")


# ----------------------------------------------------------------------
# 1. Record the workload
# ----------------------------------------------------------------------

def record_workload(workdir: str) -> WorkloadFacts:
    """Run the scripted service campaign under a `TraceVFS`.

    The script mirrors the daemon's discipline exactly — grant and merge
    events through the daemon's WAL sink before each action, checkpoint
    line per completed shard, corpus flush, atomic report, WAL ``done``
    — without the TCP layer, so the trace is deterministic and
    single-threaded.
    """
    from ..service.store import JobStore, WalSink

    params = _params(workdir)
    spec = CRASHCHECK_SPEC
    scenario = build_scenario(spec)
    trace = TraceVFS(workdir)
    acked: Dict[str, int] = {}
    with vfs_mod.install(trace):
        store = JobStore(os.path.join(workdir, "wal.jsonl"))
        job, _created = store.submit(
            name=scenario.name, spec_json=spec.to_json(),
            params_json=params.wire_json(),
            dedupe_key="crashcheck")
        # The ack: the submit record is durable and the (imaginary)
        # client has seen the reply.  Everything after this mark must
        # replay the job.
        trace.mark(f"acked:{job.job_id}")
        acked[job.job_id] = len(trace.ops) - 1
        store.mark_running(job.job_id)

        shards, planner_gaps = plan_shards_ex(scenario, params)
        fingerprint = run_fingerprint(scenario.name, spec,
                                      params.fingerprint_json(), shards)
        writer = CheckpointWriter(params.checkpoint, fingerprint)
        reporter = ProgressReporter(enabled=False,
                                    sink=WalSink(store, job.job_id))
        reporter.emit("planned", shards=len(shards),
                      pruned=sum(planner_gaps))
        results = {}
        for sid, shard in enumerate(shards):
            token = sid + 1
            reporter.emit("grant", shard=sid, attempt=1, node="local-0",
                          token=token)
            report, entries = _explore_shard(scenario, spec, shard,
                                             params, shard_id=sid)
            reporter.emit("merge", shard=sid, node="local-0", token=token,
                          pid=0, executions=report.executions,
                          steps=report.steps,
                          pruned=report.pruned_subtrees,
                          budget_exhausted=report.budget_exhausted)
            results[sid] = (report, entries)
            writer.write_shard(sid, report, entries)
        result = finalize_run(scenario, spec, params, shards,
                              planner_gaps, results, set(), reporter,
                              writer)
        vfs_mod.atomic_write_text(
            os.path.join(workdir, "report.json"),
            json.dumps(report_to_json(result.report), sort_keys=True,
                       indent=2),
            site="service.report")
        store.finish(job.job_id, ok=True,
                     summary={"executions": result.report.executions})
        trace.mark("finished")

    serial = report_fingerprint(run_scenario(
        build_scenario(spec),
        EngineParams(styles=CRASHCHECK_STYLES, exhaustive=True, seed=0,
                     max_steps=100_000, workers=1, target_shards=1)
    ).report)
    if report_fingerprint(result.report) != serial:
        raise RuntimeError("crashcheck workload is broken: the sharded "
                           "campaign did not merge to the serial report")
    return WorkloadFacts(
        workdir=workdir, ops=list(trace.ops), acked=acked,
        final_floor={job.job_id: store.job(job.job_id).token_floor},
        serial_fingerprint=serial,
        corpus_hashes=frozenset(
            entry_hash(e.to_json()) for e in result.corpus_entries))


# ----------------------------------------------------------------------
# 2. Enumerate crash states
# ----------------------------------------------------------------------

#: Byte offsets (as fractions of the record) a torn append is cut at.
def _torn_cuts(n: int) -> List[int]:
    return sorted({c for c in (1, n // 3, n // 2, n - 1) if 0 < c < n})


class _FileImage:
    """Volatile vs durable view of one file along the trace."""

    __slots__ = ("content", "durable")

    def __init__(self) -> None:
        self.content = b""
        self.durable = b""


def crash_states(ops: List[IoOp]) -> Iterator[CrashState]:
    """Yield every legal on-disk state a crash during ``ops`` leaves.

    Crash model (matching the `repro.engine.vfs` write discipline):

    * an ``append`` lands a byte *prefix* of its record (torn) or all
      of it; its fsync makes the whole file durable — a dropped fsync
      leaves the bytes in cache, so a later crash may revert the file
      to its last durable length;
    * a ``replace`` is atomic at the rename: either the old content or
      the new — plus the pre-rename state where only the temp file
      exists;
    * a ``truncate`` is atomic (fsynced in place by the repair path).
    """
    files: Dict[str, _FileImage] = {}

    def volatile() -> Dict[str, bytes]:
        return {p: img.content for p, img in files.items()}

    def durable() -> Dict[str, bytes]:
        return {p: img.durable for p, img in files.items()}

    def image(path: str) -> _FileImage:
        return files.setdefault(path, _FileImage())

    yield CrashState(0, "clean", {})
    for i, op in enumerate(ops):
        if op.kind == "mark":
            continue
        if op.kind == "append" and op.data:
            base = image(op.path).content
            for cut in _torn_cuts(len(op.data)):
                state = volatile()
                state[op.path] = base + op.data[:cut]
                yield CrashState(i, f"torn@{cut}", state)
        elif op.kind == "replace":
            state = volatile()
            half = max(len(op.data) // 2, 1)
            state[op.path + ".crash.tmp"] = op.data[:half]
            yield CrashState(i, "pre-rename", state)
        # The op completes; advance both views.
        img = image(op.path)
        if op.kind == "append":
            img.content += op.data
            if op.synced:
                img.durable = img.content
        elif op.kind == "replace":
            img.content = op.data
            if op.synced:
                img.durable = op.data
        elif op.kind == "truncate":
            img.content = op.data
            img.durable = op.data
        yield CrashState(i + 1, "clean", volatile())
        dur = durable()
        if dur != volatile():
            # Some unsynced tail may never have reached the platter.
            yield CrashState(i + 1, "unsynced-lost", dur)


# ----------------------------------------------------------------------
# 3. Restart from each state and check the invariants
# ----------------------------------------------------------------------

def _materialize(state: CrashState, root: str) -> None:
    for rel, data in state.files.items():
        path = os.path.join(root, rel)
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(data)


def check_state(state: CrashState, facts: WorkloadFacts,
                scratch: str) -> List[str]:
    """Restart from ``state`` in ``scratch``; return violations."""
    from ..service.store import JobStore

    _materialize(state, scratch)
    where = state.describe()
    violations: List[str] = []

    # -- WAL replay + acked jobs + fencing -----------------------------
    wal = os.path.join(scratch, "wal.jsonl")
    try:
        store = JobStore(wal)
    except Exception as err:  # noqa: BLE001 — any raise is the finding
        return [f"{where}: WAL replay raised {err!r}"]
    for job_id, mark_at in facts.acked.items():
        if state.applied > mark_at and store.job(job_id) is None:
            violations.append(f"{where}: acked job {job_id} lost")
    for job_id, final in facts.final_floor.items():
        job = store.job(job_id)
        floor = job.token_floor if job is not None else 0
        if floor > final:
            violations.append(
                f"{where}: token floor {floor} exceeds the final "
                f"floor {final} — a restart would re-grant a live "
                f"token")
        # A second incarnation over the (now healed) WAL must see the
        # same floor: fencing never regresses across restarts.
        refloor = JobStore(wal).job(job_id)
        if job is not None and (refloor is None
                                or refloor.token_floor < floor):
            violations.append(
                f"{where}: token floor regressed across incarnations "
                f"({floor} -> "
                f"{refloor.token_floor if refloor else 'lost'})")

    # -- corpus survives and never invents entries ---------------------
    corpus = os.path.join(scratch, "corpus.jsonl")
    try:
        entries = load_corpus(corpus)
    except Exception as err:  # noqa: BLE001
        return violations + [f"{where}: corpus load raised {err!r}"]
    for entry in entries:
        if entry_hash(entry.to_json()) not in facts.corpus_hashes:
            violations.append(f"{where}: corpus contains an entry the "
                              f"run never produced")
            break

    # -- resumed report is byte-equal to serial ------------------------
    params = _params(scratch)
    try:
        resumed = run_scenario(build_scenario(CRASHCHECK_SPEC), params,
                               spec=CRASHCHECK_SPEC)
    except Exception as err:  # noqa: BLE001
        return violations + [f"{where}: resume raised {err!r}"]
    if report_fingerprint(resumed.report) != facts.serial_fingerprint:
        violations.append(f"{where}: resumed report is not byte-equal "
                          f"to the serial DPOR report")
    return violations


def run_crashcheck(limit: Optional[int] = None,
                   emit: Callable = lambda line: None,
                   keep_dir: Optional[str] = None) -> CrashcheckReport:
    """Record the workload, enumerate, and check every crash state.

    ``limit`` caps how many *distinct* states are checked (CI smoke);
    the enumeration itself is always complete, so the distinct count
    in the report reflects the full space.
    """
    root = keep_dir or tempfile.mkdtemp(prefix="repro-crashcheck-")
    report = CrashcheckReport()
    try:
        workdir = os.path.join(root, "workload")
        os.makedirs(workdir, exist_ok=True)
        facts = record_workload(workdir)
        report.ops = sum(op.kind != "mark" for op in facts.ops)
        emit(f"crashcheck: recorded {report.ops} durable ops "
             f"({len(facts.ops)} trace entries)")
        seen: set = set()
        for state in crash_states(facts.ops):
            report.states_total += 1
            digest = state.digest()
            if digest in seen:
                continue
            seen.add(digest)
            report.states_distinct += 1
            if limit is not None and report.states_checked >= limit:
                continue
            report.states_checked += 1
            scratch = os.path.join(root, f"state-{report.states_distinct:04d}")
            os.makedirs(scratch, exist_ok=True)
            found = check_state(state, facts, scratch)
            if found:
                for line in found:
                    emit(f"crashcheck: VIOLATION {line}")
                report.violations.extend(found)
            if not keep_dir:
                shutil.rmtree(scratch, ignore_errors=True)
            if report.states_checked % 25 == 0:
                emit(f"crashcheck: {report.states_checked} states "
                     f"checked, {len(report.violations)} violations")
        return report
    finally:
        if not keep_dir:
            shutil.rmtree(root, ignore_errors=True)

"""The WAL-backed job store: every transition is a durable record.

The store holds no state that is not derivable from its write-ahead
log.  Every mutation appends one CRC-framed JSONL record
(`repro.engine.durable`) *before* the in-memory tables change, and the
in-memory change is made by the **same** ``_apply`` that replays the
log on open — so a daemon killed between any two instructions restarts
into exactly the state its log describes.  The tolerant loader heals a
record torn by the crash itself (`durable.repair_tail`), which means
the WAL is damaged-at-most-one-record by construction.

Record kinds (the ``rec`` field)::

    submit  {job, seq, name, dedupe, spec, params}
    running {job}
    grant   {job, shard, token, attempt, node}
    merge   {job, shard, token, executions}
    divergence {job, shard, node, finding}
    done    {job, ok, summary}
    failed  {job, error}
    cancel  {job}

``divergence`` records a confirmed `result-divergence` audit finding
(`repro.engine.audit`): the named node returned a well-formed but wrong
shard result, the coordinator repaired the merge from its trusted
re-execution and quarantined the node.  The record survives restarts so
``status``/``findings`` can report convictions after the run is gone.

Two records exist purely so restarts cannot lie:

* ``grant`` is written *before* the lease goes on the wire; replaying
  the maximum granted token gives the next incarnation's lease table a
  **token floor** (`LeaseTable(token_floor=...)`), so a node that
  outlived the crash submits under a fenced-off token instead of
  colliding with a fresh one;
* ``merge`` is written *before* the result enters the merge set, so a
  shard can be observed merged at most once — `merged_shards` is a set
  and re-granting a merged shard after replay is a no-op upstream
  (the checkpoint, keyed by the run fingerprint, is the result truth;
  the WAL is the accounting truth).

`WalSink` writes the ``grant``, ``merge`` and ``divergence`` records as
the event sink (`repro.engine.telemetry`) of a job's run.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set

from ..engine.durable import LineDiagnostics, append_line, read_records
from ..engine.faults import fault_point
from ..engine.telemetry import Event
from ..engine.vfs import DurableWriteError

SUBMITTED = "submitted"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: States a job can still make progress from.
ACTIVE_STATES = (SUBMITTED, RUNNING)

#: Fault-injection site of every WAL append (torn-write chaos).
WAL_SITE = "service.wal"

#: Every WAL record kind, in the order the module docstring lists them.
#: `JobStore._apply` refuses any other kind and `repro.engine.fsck`
#: quarantines it, so a new kind needs only this line to reach both.
WAL_KINDS = ("submit", "running", "grant", "merge", "divergence", "done",
             "failed", "cancel")


@dataclass
class Job:
    """One campaign: identity, recipe, and replayed accounting."""

    job_id: str
    seq: int
    name: str
    dedupe_key: str
    spec_json: Dict
    params_json: Dict
    state: str = SUBMITTED
    #: shard -> highest token ever granted for it (WAL accounting).
    grants: Dict[int, int] = field(default_factory=dict)
    #: shards whose results were accepted and merged, exactly once.
    merged_shards: Set[int] = field(default_factory=set)
    error: str = ""
    summary: Dict = field(default_factory=dict)
    #: Confirmed audit findings (`result-divergence` WAL records).
    divergences: List[Dict] = field(default_factory=list)

    @property
    def token_floor(self) -> int:
        """Highest token any incarnation granted; new leases start above."""
        return max(self.grants.values(), default=0)

    @property
    def active(self) -> bool:
        return self.state in ACTIVE_STATES

    def to_json(self) -> Dict:
        return {
            "job": self.job_id, "seq": self.seq, "name": self.name,
            "dedupe": self.dedupe_key, "state": self.state,
            "grants": len(self.grants), "merged": len(self.merged_shards),
            "token_floor": self.token_floor, "error": self.error,
            "summary": dict(self.summary),
            "divergences": len(self.divergences),
        }


class JobStore:
    """Replay-on-open, WAL-before-action job table."""

    def __init__(self, path: str):
        self.path = path
        self._lock = threading.Lock()
        self._jobs: Dict[str, Job] = {}
        self._by_dedupe: Dict[str, str] = {}
        self._next_seq = 1
        self.diagnostics = LineDiagnostics()
        records, diag = read_records(path, quarantine=True)
        self.diagnostics.note(diag)
        for payload in records:
            try:
                self._apply(payload)
            except (KeyError, TypeError, ValueError):
                # A record that passed its CRC but whose fields do not
                # apply (written by a buggy or foreign writer): count it
                # like any corrupt line rather than refusing to open
                # the store.  Live mutations stay strict — only replay
                # tolerates damage.
                self.diagnostics.loaded -= 1
                self.diagnostics.corrupt += 1

    # ------------------------------------------------------------------
    # The single state-transition function (replay == live mutation)
    # ------------------------------------------------------------------

    def _apply(self, rec: Dict) -> None:
        kind = rec.get("rec")
        if kind not in WAL_KINDS:
            raise ValueError(f"unknown WAL record kind {kind!r}")
        if kind == "submit":
            job = Job(job_id=rec["job"], seq=int(rec["seq"]),
                      name=str(rec.get("name", rec["job"])),
                      dedupe_key=str(rec.get("dedupe", "")),
                      spec_json=dict(rec["spec"]),
                      params_json=dict(rec["params"]))
            self._jobs[job.job_id] = job
            if job.dedupe_key:
                self._by_dedupe[job.dedupe_key] = job.job_id
            self._next_seq = max(self._next_seq, job.seq + 1)
            return
        job = self._jobs.get(rec.get("job", ""))
        if job is None:
            return  # a record for a job whose submit was quarantined
        if kind == "running":
            if job.state == SUBMITTED:
                job.state = RUNNING
        elif kind == "grant":
            shard, token = int(rec["shard"]), int(rec["token"])
            job.grants[shard] = max(job.grants.get(shard, 0), token)
        elif kind == "merge":
            job.merged_shards.add(int(rec["shard"]))
        elif kind == "divergence":
            job.divergences.append({
                "shard": int(rec["shard"]),
                "node": str(rec.get("node", "")),
                "finding": dict(rec.get("finding", {}))})
        elif kind == "done":
            job.state = DONE
            job.summary = dict(rec.get("summary", {}))
        elif kind == "failed":
            job.state = FAILED
            job.error = str(rec.get("error", ""))
        elif kind == "cancel":
            if job.state in ACTIVE_STATES:
                job.state = CANCELLED

    def _log(self, rec: Dict) -> None:
        # WAL-before-action, strictly: `append_line` either lands the
        # whole record (fsynced) or raises `DurableWriteError` after
        # rolling the partial write back off the log — only then does
        # the in-memory table change, so memory can never run ahead of
        # a failed append and a restart replays exactly what callers
        # observed.
        append_line(self.path, rec, WAL_SITE)
        self._apply(rec)

    # ------------------------------------------------------------------
    # Mutations (all WAL-before-action)
    # ------------------------------------------------------------------

    def submit(self, name: str, spec_json: Dict, params_json: Dict,
               dedupe_key: str = "") -> tuple:
        """Create a job, or return the existing one for ``dedupe_key``.

        Returns ``(job, created)``.  Idempotency is by the client's
        dedupe key: a retried submit (the first reply was lost, the
        client backed off and re-sent) lands on the same job instead
        of double-funding the campaign.
        """
        with self._lock:
            if dedupe_key and dedupe_key in self._by_dedupe:
                return self._jobs[self._by_dedupe[dedupe_key]], False
            seq = self._next_seq
            job_id = f"job-{seq:04d}"
            self._log({"rec": "submit", "job": job_id, "seq": seq,
                       "name": name, "dedupe": dedupe_key,
                       "spec": dict(spec_json),
                       "params": dict(params_json)})
            return self._jobs[job_id], True

    def mark_running(self, job_id: str) -> None:
        with self._lock:
            if self._jobs[job_id].state == SUBMITTED:
                self._log({"rec": "running", "job": job_id})

    def record_grant(self, job_id: str, shard: int, token: int,
                     attempt: int, node: str) -> None:
        with self._lock:
            self._log({"rec": "grant", "job": job_id, "shard": shard,
                       "token": token, "attempt": attempt, "node": node})

    def record_merge(self, job_id: str, shard: int, token: int,
                     executions: int) -> None:
        with self._lock:
            job = self._jobs[job_id]
            if shard in job.merged_shards:
                return  # replayed or re-completed: charged exactly once
            self._log({"rec": "merge", "job": job_id, "shard": shard,
                       "token": token, "executions": executions})

    def record_divergence(self, job_id: str, shard: int, node: str,
                          finding: Dict) -> None:
        """One confirmed audit conviction, durable before any reply."""
        with self._lock:
            self._log({"rec": "divergence", "job": job_id, "shard": shard,
                       "node": node, "finding": dict(finding)})

    def finish(self, job_id: str, ok: bool, summary: Dict) -> None:
        with self._lock:
            self._log({"rec": "done", "job": job_id, "ok": ok,
                       "summary": dict(summary)})

    def fail(self, job_id: str, error: str) -> None:
        with self._lock:
            self._log({"rec": "failed", "job": job_id, "error": error})

    def cancel(self, job_id: str) -> bool:
        """Cancel an active job; False when it already settled."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or not job.active:
                return False
            self._log({"rec": "cancel", "job": job_id})
            return True

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def job(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        with self._lock:
            return sorted(self._jobs.values(), key=lambda j: j.seq)

    def next_runnable(self) -> Optional[Job]:
        """The job the daemon should work next.

        In-flight (RUNNING) jobs resume before fresh submissions — a
        restart finishes what the crash interrupted, in submit order.
        """
        with self._lock:
            active = [j for j in self._jobs.values() if j.active]
            active.sort(key=lambda j: (j.state != RUNNING, j.seq))
            return active[0] if active else None


class WalSink:
    """A job's WAL as the event sink of its run: a ``grant``, ``merge``
    or ``divergence`` event becomes the record of that name, landing
    before the action the event describes.  It also hosts the
    ``service.grant`` and ``service.pre_merge`` fault sites."""

    def __init__(self, store: JobStore, job_id: str,
                 say: Callable[[str], None] = lambda line: None):
        self.store = store
        self.job_id = job_id
        self.say = say
        #: WAL appends that failed; the job summary reports them.
        self.errors: List[str] = []

    def __call__(self, event: Event) -> None:
        f = event.fields
        if event.kind == "grant":
            self._write(self.store.record_grant, event.shard, f["token"],
                        event.attempt, event.node)
            fault_point("service.grant", shard=event.shard,
                        attempt=event.attempt)
        elif event.kind == "merge":
            self._write(self.store.record_merge, event.shard, f["token"],
                        f["executions"])
        elif event.kind == "divergence":
            self._write(self.store.record_divergence, event.shard,
                        event.node, f["finding"])
        elif event.kind == "settled":
            fault_point("service.pre_merge")

    def _write(self, record: Callable, *args) -> None:
        # A WAL append that hits a full/failing disk must not kill the
        # campaign: the in-memory tables never ran ahead (the append
        # failed *before* `_apply`), the in-process lease table still
        # fences, and the loss is reported honestly in the job summary.
        try:
            record(self.job_id, *args)
        except DurableWriteError as err:
            self.errors.append(str(err))
            self.say(f"[service] {self.job_id}: WAL append failed "
                     f"({err}); continuing with degraded accounting")

"""The campaign daemon: one long-lived process, many crash-safe runs.

The daemon is a loop over the WAL-backed store: take the next runnable
job (RUNNING jobs — interrupted by a crash — resume before fresh
SUBMITTED ones), run it through the dist coordinator, record the
outcome, repeat.  Its correctness contract is the ISSUE's headline —
**crash anywhere, resume everywhere, never lie about coverage** — and
it falls out of three reused invariants rather than new machinery:

* the WAL (`repro.service.store`) is appended *before* every action it
  describes, so replay can only ever under-promise;
* shard results live in the per-job **checkpoint**, keyed by the run
  fingerprint — the same file a local ``--resume`` uses — so a resumed
  campaign re-explores exactly the shards that never checkpointed and
  merges to the byte-identical serial report;
* the lease table restarts with a **token floor** above every token
  the dead incarnation granted, so pre-crash results are fenced, not
  double-counted.

Lifecycle: SIGTERM drains (stop granting, finish in-flight leases,
checkpoint, exit 0); SIGINT fast-stops (abandon the run mid-flight —
the WAL and checkpoint make that safe, exit 130); repeated early
crashes back off before retrying (`crash_loop_delay`), so a poisoned
job cannot hot-loop the supervisor.  `supervise` is the restart
harness: run the daemon, restart it on a crash exit, clear the fault
plan so an injected crash fires exactly once.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..engine.dist import Coordinator, DistParams
from ..engine.faults import FAULT_PLAN_ENV, fault_point
from ..engine.merge import report_to_json
from ..engine.pool import EngineParams
from ..engine.registry import ScenarioSpec
from ..engine.retry import jittered_backoff
from ..engine.vfs import DurableWriteError, atomic_write_text
from .api import ApiServer, RetryableServiceError, ServiceError
from .store import CANCELLED, Job, JobStore, WalSink

#: Discovery file the CLI verbs read to find a running daemon.
DISCOVERY_FILE = "service.json"

#: Exit code of a SIGINT fast-stop.
FAST_STOP_EXIT = 130

#: Seconds the idle serve loop sleeps before looking for work again.
POLL_INTERVAL = 0.2


@dataclass
class ServiceConfig:
    """Everything that shapes one daemon process."""

    data_dir: str
    host: str = "127.0.0.1"
    api_port: int = 0  # 0 -> ephemeral; the bound port lands in
    node_port: int = 0  # service.json either way
    #: Worker-node subprocesses spawned per job (remote nodes can
    #: attach to the node port on top at any time).
    local_nodes: int = 2
    lease_seconds: float = 10.0
    node_wait_seconds: float = 30.0
    #: Crash-loop guard window; 0 disables the startup backoff.
    crash_loop_window: float = 60.0
    max_retries: int = EngineParams.max_retries
    progress: bool = False

    @property
    def wal_path(self) -> str:
        return os.path.join(self.data_dir, "wal.jsonl")

    @property
    def starts_path(self) -> str:
        return os.path.join(self.data_dir, "starts.log")

    @property
    def discovery_path(self) -> str:
        return os.path.join(self.data_dir, DISCOVERY_FILE)

    def job_dir(self, job_id: str) -> str:
        return os.path.join(self.data_dir, "jobs", job_id)


def crash_loop_delay(starts_path: str, window: float,
                     now: Optional[float] = None) -> float:
    """Record this start; return how long a crash-looping daemon must
    wait before doing real work.

    Three or more starts inside ``window`` seconds means something is
    killing the daemon faster than it can serve — back off with the
    shared jittered schedule instead of hot-looping the supervisor.
    The starts file is plain timestamps, deliberately not WAL records:
    losing it costs one backoff decision, never campaign state.
    """
    if window <= 0:
        return 0.0
    now = time.time() if now is None else now
    recent: List[float] = []
    if os.path.exists(starts_path):
        with open(starts_path, "r", encoding="utf-8") as fh:
            for line in fh:
                try:
                    stamp = float(line.strip())
                except ValueError:
                    continue
                if now - stamp <= window:
                    recent.append(stamp)
    with open(starts_path, "a", encoding="utf-8") as fh:
        fh.write(f"{now}\n")
    if len(recent) < 2:
        return 0.0
    return jittered_backoff(len(recent) - 1, base=0.5, cap=10.0,
                            key="crash-loop")


def supervise(cmd: List[str], max_restarts: int = 3,
              env: Optional[Dict[str, str]] = None,
              clear_fault_plan_on_restart: bool = True,
              emit: Callable = print) -> int:
    """Run ``cmd`` (a daemon invocation) and restart it after crashes.

    A clean exit (0) ends supervision; anything else — an injected
    crash exit, a SIGKILL — restarts up to ``max_restarts`` times.
    ``clear_fault_plan_on_restart`` drops ``REPRO_FAULT_PLAN`` from the
    environment after the first launch: one-shot fault accounting lives
    per process, so a crash fault left active would fire again on every
    restart and the recovery it exists to exercise could never win.
    """
    env = dict(env if env is not None else os.environ)
    restarts = 0
    while True:
        proc = subprocess.Popen(cmd, env=env)
        rc = proc.wait()
        if rc == 0:
            return 0
        if restarts >= max_restarts:
            emit(f"[supervise] giving up after {restarts} restarts "
                 f"(last exit {rc})")
            return rc
        restarts += 1
        if clear_fault_plan_on_restart:
            env.pop(FAULT_PLAN_ENV, None)
        emit(f"[supervise] daemon exited {rc}; restart "
             f"{restarts}/{max_restarts}")


class CampaignDaemon:
    """The persistent checking service over the dist layer."""

    def __init__(self, config: ServiceConfig,
                 emit: Callable = lambda line: print(line, flush=True)):
        self.config = config
        self.emit = emit
        os.makedirs(config.data_dir, exist_ok=True)
        os.makedirs(os.path.join(config.data_dir, "jobs"), exist_ok=True)
        self._startup_delay = crash_loop_delay(config.starts_path,
                                               config.crash_loop_window)
        self.store = JobStore(config.wal_path)
        if self.store.diagnostics.corrupt:
            emit(f"[service] WAL replay quarantined "
                 f"{self.store.diagnostics.corrupt} damaged record(s)")
        self._draining = threading.Event()
        self._fast_stop = threading.Event()
        self._lock = threading.Lock()
        self._coord: Optional[Coordinator] = None
        self._current_job: Optional[str] = None
        # One node port for the daemon's whole life: nodes keep a
        # stable address across jobs *and* across daemon restarts
        # (the port is persisted in service.json).
        self._node_listener = socket.socket(socket.AF_INET,
                                            socket.SOCK_STREAM)
        self._node_listener.setsockopt(socket.SOL_SOCKET,
                                       socket.SO_REUSEADDR, 1)
        self._node_listener.bind((config.host, config.node_port))
        self._node_listener.listen()
        self.node_port = self._node_listener.getsockname()[1]
        self._api = ApiServer(config.host, config.api_port, self._handle)
        self.api_port = self._api.port
        self._write_discovery()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def run(self) -> int:
        """Serve until drained (exit 0) or fast-stopped (exit 130)."""
        signal.signal(signal.SIGTERM, self._on_sigterm)
        signal.signal(signal.SIGINT, self._on_sigint)
        if self._startup_delay > 0:
            self.emit(f"[service] crash-loop guard: backing off "
                      f"{self._startup_delay:.1f}s before serving")
            time.sleep(self._startup_delay)
        self.emit(f"[service] serving: api {self.config.host}:"
                  f"{self.api_port}, nodes {self.config.host}:"
                  f"{self.node_port}, data {self.config.data_dir}")
        try:
            while not self._fast_stop.is_set():
                job = self.store.next_runnable()
                if self._draining.is_set():
                    break
                if job is None:
                    time.sleep(POLL_INTERVAL)
                    continue
                self._run_job(job)
        finally:
            self._api.close()
            try:
                self._node_listener.close()
            except OSError:
                pass
        if self._fast_stop.is_set():
            self.emit("[service] fast stop (SIGINT): run abandoned "
                      "mid-flight; the WAL and checkpoint resume it")
            return FAST_STOP_EXIT
        self.emit("[service] drained: in-flight work checkpointed; "
                  "exiting cleanly")
        return 0

    def drain(self) -> None:
        """Stop taking work; let the current run's leases finish."""
        self._draining.set()
        with self._lock:
            if self._coord is not None:
                self._coord.drain()

    def _on_sigterm(self, _signum, _frame) -> None:
        self.emit("[service] SIGTERM: graceful drain")
        self.drain()

    def _on_sigint(self, _signum, _frame) -> None:
        self._fast_stop.set()
        with self._lock:
            if self._coord is not None:
                self._coord.cancel()

    def _write_discovery(self) -> None:
        payload = {"pid": os.getpid(), "host": self.config.host,
                   "api_port": self.api_port,
                   "node_port": self.node_port,
                   "data_dir": os.path.abspath(self.config.data_dir)}
        # Atomic + parent-dir-fsynced: a CLI verb racing a daemon crash
        # reads either the old daemon's coordinates or the new — never
        # a torn JSON file.
        atomic_write_text(self.config.discovery_path,
                          json.dumps(payload, sort_keys=True),
                          site="service.discovery")

    # ------------------------------------------------------------------
    # Job execution
    # ------------------------------------------------------------------

    def _run_job(self, job: Job) -> None:
        self.store.mark_running(job.job_id)
        job_dir = self.config.job_dir(job.job_id)
        os.makedirs(job_dir, exist_ok=True)
        spec = ScenarioSpec.from_json(job.spec_json)
        params = EngineParams.from_wire(job.params_json)
        params.max_retries = self.config.max_retries
        params.progress = self.config.progress
        params.checkpoint = os.path.join(job_dir, "checkpoint.jsonl")
        params.corpus = os.path.join(job_dir, "corpus.jsonl")
        dist = DistParams(host=self.config.host,
                          lease_seconds=self.config.lease_seconds,
                          node_wait_seconds=self.config.node_wait_seconds)
        job_id = job.job_id
        wal = WalSink(self.store, job_id, self.emit)
        coord = Coordinator(params, spec, dist,
                            listener=self._node_listener, sink=wal,
                            token_floor=job.token_floor)
        with self._lock:
            self._coord = coord
            self._current_job = job_id
            if self._draining.is_set():
                coord.drain()  # drain arrived between jobs
            if self._fast_stop.is_set():
                coord.cancel()
        resumed = len(coord.results)
        self.emit(f"[service] {job_id}: running "
                  f"({len(coord.shards)} shards, {resumed} resumed, "
                  f"token floor {job.token_floor})")
        nodes: List[subprocess.Popen] = []
        try:
            if not coord.table.settled and self.config.local_nodes > 0:
                nodes = self._spawn_nodes(job_id)
            result = coord.serve()
        finally:
            with self._lock:
                self._coord = None
                self._current_job = None
            self._reap_nodes(nodes)
        current = self.store.job(job_id)
        if current is not None and current.state == CANCELLED:
            self.emit(f"[service] {job_id}: cancelled")
            return
        if self._fast_stop.is_set():
            return  # stays RUNNING; the next incarnation resumes it
        if self._draining.is_set() and not coord.table.settled:
            self.emit(f"[service] {job_id}: drained mid-run; "
                      f"{len(coord.results)}/{len(coord.shards)} shards "
                      f"checkpointed")
            return  # stays RUNNING
        report_path = os.path.join(job_dir, "report.json")
        try:
            atomic_write_text(
                report_path,
                json.dumps(report_to_json(result.report), sort_keys=True,
                           indent=2),
                site="service.report")
        except DurableWriteError as err:
            wal.errors.append(str(err))
            self.emit(f"[service] {job_id}: report write failed ({err}); "
                      f"result held in the WAL summary only")
            report_path = ""
        cov = result.coverage
        degraded = cov.degraded or bool(wal.errors)
        summary = {"executions": result.report.executions,
                   "shards_complete": cov.shards_complete,
                   "shards_total": cov.shards_total,
                   "degraded": degraded,
                   "exhausted": result.report.exhausted and not degraded,
                   "wal_errors": len(wal.errors),
                   "divergences": cov.divergences,
                   "report": report_path}
        try:
            self.store.finish(job_id, ok=not degraded, summary=summary)
        except DurableWriteError as err:
            # The job stays RUNNING (memory never ran ahead): the loop
            # comes back to it, resumes from the checkpoint — every
            # shard already settled, so the retry is just this tail —
            # and tries the finish record again once the disk recovers.
            self.emit(f"[service] {job_id}: WAL finish failed ({err}); "
                      f"will retry after backoff")
            time.sleep(POLL_INTERVAL)
            return
        self.emit(f"[service] {job_id}: done "
                  f"({summary['executions']} executions, "
                  f"{cov.shards_complete}/{cov.shards_total} shards"
                  f"{', DEGRADED' if degraded else ''})")

    def _spawn_nodes(self, job_id: str) -> List[subprocess.Popen]:
        import repro
        src_root = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_root + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        log_path = os.path.join(self.config.job_dir(job_id), "nodes.log")
        log = open(log_path, "a", encoding="utf-8")
        nodes = []
        try:
            for i in range(self.config.local_nodes):
                nodes.append(subprocess.Popen(
                    [sys.executable, "-m", "repro", "work",
                     "--connect",
                     f"{self.config.host}:{self.node_port}",
                     "--node-id", f"local-{job_id}-{i}",
                     "--max-reconnects", "3"],
                    env=env, stdout=log, stderr=subprocess.STDOUT))
        finally:
            log.close()  # children hold their own descriptor
        return nodes

    def _reap_nodes(self, nodes: List[subprocess.Popen]) -> None:
        for proc in nodes:
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                proc.terminate()
                try:
                    proc.wait(timeout=2.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()

    # ------------------------------------------------------------------
    # API handler
    # ------------------------------------------------------------------

    def _handle(self, verb: str, payload: Dict) -> Dict:
        if verb == "ping":
            return {"pid": os.getpid(),
                    "draining": self._draining.is_set()}
        if verb == "submit":
            return self._handle_submit(payload)
        if verb == "status":
            return self._handle_status(payload)
        if verb == "cancel":
            return self._handle_cancel(payload)
        if verb == "findings":
            return self._handle_findings(payload)
        if verb == "drain":
            self.drain()
            return {"draining": True}
        raise ServiceError(f"unknown verb {verb!r}")

    def _handle_submit(self, payload: Dict) -> Dict:
        if self._draining.is_set():
            # Retryable by contract: the client backs off and lands on
            # the restarted daemon (or a supervisor's replacement).
            raise RetryableServiceError(
                "draining: not accepting new campaigns")
        spec, params = payload.get("spec"), payload.get("params")
        if not isinstance(spec, dict) or "builder" not in spec:
            raise ServiceError("submit needs a spec "
                               "(ScenarioSpec.to_json() form)")
        if not isinstance(params, dict):
            raise ServiceError("submit needs params "
                               "(EngineParams.wire_json() form)")
        job, created = self.store.submit(
            name=str(payload.get("name", "")) or spec["builder"],
            spec_json=spec, params_json=params,
            dedupe_key=str(payload.get("dedupe", "")))
        # The post-submit fault site: the WAL record is durable, the
        # client's reply is not yet sent — a crash here must resume the
        # job AND the retried submit must dedupe onto it.
        fault_point("service.post_submit")
        return {"job": job.job_id, "created": created,
                "state": job.state}

    def _handle_status(self, payload: Dict) -> Dict:
        job_id = payload.get("job")
        if job_id:
            job = self.store.job(str(job_id))
            if job is None:
                raise ServiceError(f"no such job: {job_id}")
            return {"jobs": [job.to_json()],
                    "draining": self._draining.is_set()}
        return {"jobs": [j.to_json() for j in self.store.jobs()],
                "draining": self._draining.is_set()}

    def _handle_findings(self, payload: Dict) -> Dict:
        """Audit convictions for one job (or every job): the replayed
        ``divergence`` WAL records, structured and restart-durable."""
        job_id = payload.get("job")
        if job_id:
            job = self.store.job(str(job_id))
            if job is None:
                raise ServiceError(f"no such job: {job_id}")
            jobs = [job]
        else:
            jobs = self.store.jobs()
        return {"findings": [
            {"job": j.job_id, **d} for j in jobs for d in j.divergences]}

    def _handle_cancel(self, payload: Dict) -> Dict:
        job_id = str(payload.get("job", ""))
        if not job_id:
            raise ServiceError("cancel needs a job id")
        cancelled = self.store.cancel(job_id)
        if not cancelled:
            job = self.store.job(job_id)
            if job is None:
                raise ServiceError(f"no such job: {job_id}")
            return {"cancelled": False, "state": job.state}
        with self._lock:
            if self._current_job == job_id and self._coord is not None:
                self._coord.cancel()
        return {"cancelled": True, "state": CANCELLED}

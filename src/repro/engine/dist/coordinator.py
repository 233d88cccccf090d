"""The lease loop: plan shards, lease them to nodes, merge honestly.

Every engine run goes through this loop.  A distributed run serves
remote nodes over TCP; a local run (`repro.engine.pool.run_scenario`)
serves the run's own node processes over socketpair channels, which the
local transport (`repro.engine.pool._run_pool`) starts, kills and
replaces.  Everything result-determining is shared: shards come from
`plan_shards_ex`, resumed shards come from the fingerprinted checkpoint,
and the merge is literally `finalize_run` — which is why every run is
byte-for-byte the serial report, and why a degraded run (nodes lost,
retry budgets spent) reports truncated `Coverage` instead of lying.

Liveness federates through the protocol's in-band heartbeats: a node
beat names the ``(shard_id, token)`` it is working under, and renews
exactly that lease (`LeaseTable.renew`).  A node that dies mid-shard
stops beating, its lease expires, and the shard is requeued to another
node with the dead one excluded.  A node that was merely paused and
submits after expiry presents a fenced-off token and is counted once —
as `results_fenced`, not as coverage.  Every lease that ends without a
result spends an attempt and counts as a retry.

The run-wide execution cap: once the completed shards, taken in order,
reach ``max_executions``, every later shard is dropped from the lease
table — never granted, never waited for — and the run settles
(`repro.engine.pool.execution_cut`).

Failure handling is three nested safety nets:

1. connection loss -> `release_node` requeues the node's leases now;
2. silent hang -> the lease deadline expires without renewal;
3. repeated failure -> the per-shard retry budget marks the shard
   FAILED: a local run raises `ShardFailed`, a distributed run's
   `finalize_run` degrades coverage instead.

The serve loop sleeps until a result, a failure or a lost node wakes
it, or `SERVE_TICK` passes (lease expiry and the node wait are checked
then).
"""

from __future__ import annotations

import select
import socket
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ...checking.runner import Scenario, ScenarioReport
from ..audit import (AuditSampler, audit_shard, divergence_witness,
                     report_fingerprint)
from ..checkpoint import CheckpointWriter, load_completed_ex, run_fingerprint
from ..corpus import CorpusEntry
from ..hedge import HEDGE_ATTEMPT_BASE, DeadlineEstimator
from ..pool import (EngineParams, EngineResult, ResultCorrupt, ShardFailed,
                    _decode_result, execution_cut, finalize_run,
                    plan_shards_ex)
from ..registry import ScenarioSpec, build_scenario
from ..telemetry import Event, ProgressReporter
from .handshake import handshake_mismatch
from .lease import ACCEPTED, DROPPED, Lease, LeaseTable
from .protocol import (MSG_BEAT, MSG_DONE, MSG_FAIL, MSG_GRANT, MSG_HELLO,
                       MSG_IDLE, MSG_REFUSE, MSG_RESULT, MSG_WANT,
                       MSG_WELCOME, PROTOCOL_VERSION, Channel)

#: Longest sleep of the serve loop between wakes; lease expiry and the
#: node wait are checked at least this often.
SERVE_TICK = 0.2


@dataclass
class DistParams:
    """Coordinator-side knobs; nothing here affects the merged report."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 -> ephemeral; the bound port is `Coordinator.port`
    lease_seconds: float = 10.0
    #: How long to keep waiting with zero connected nodes before
    #: degrading to a truncated-coverage result.
    node_wait_seconds: float = 30.0
    #: How long an idle node waits before asking again for work.
    idle_wait: float = 0.25


class Coordinator:
    """Lease one scenario's shards to worker nodes and merge the run.

    ``local=True`` is a run whose nodes the caller starts itself and
    attaches (`attach`) — `repro.engine.pool.run_scenario`: no listener,
    an ad-hoc ``scenario`` needs no registry ``spec``, a shard past its
    retry budget raises `ShardFailed`, and at the run deadline the loop
    waits for the partial results its nodes (which know the deadline)
    stop with.

    Everything the run does is an event on ``reporter``; ``sink`` (the
    campaign service's WAL, `repro.service.store.WalSink`) sees each
    one before the action it describes.
    """

    def __init__(self, params: EngineParams, spec: Optional[ScenarioSpec],
                 dist: Optional[DistParams] = None,
                 listener: Optional[socket.socket] = None,
                 sink: Optional[Callable[[Event], None]] = None,
                 token_floor: int = 0,
                 scenario: Optional[Scenario] = None, local: bool = False):
        if spec is None and not local:
            raise ValueError("distributed runs need a registry spec: "
                             "nodes rebuild the scenario from its "
                             "to_json() form")
        self.params = params
        self.spec = spec
        self.dist = dist or DistParams()
        self._local = local
        self.scenario = scenario if scenario is not None \
            else build_scenario(spec)
        self.shards, self.planner_gaps = plan_shards_ex(self.scenario,
                                                        params)
        self._fingerprint = run_fingerprint(self.scenario.name, spec,
                                            params.fingerprint_json(),
                                            self.shards)
        self.reporter = ProgressReporter(
            enabled=params.progress, sink=sink,
            label=f"{'engine' if local else 'dist'}:{self.scenario.name}")
        self.reporter.emit("planned", shards=len(self.shards),
                           pruned=sum(self.planner_gaps))
        #: Wall-clock end of the run (`EngineParams.run_seconds`).
        self.deadline = (time.time() + params.run_seconds
                         if params.run_seconds is not None else None)
        self.table = LeaseTable(len(self.shards),
                                max_retries=params.max_retries,
                                lease_seconds=self.dist.lease_seconds,
                                token_floor=token_floor,
                                on_retry=self._on_retry)
        self._grant_seen: set = set()
        # Hedging (`repro.engine.hedge`): per-grant dispatch times feed
        # the deadline estimator; stragglers get a *shadow grant* — a
        # duplicate dispatched under a fresh fencing token but outside
        # the lease table, so whichever copy submits second fails the
        # exact-(node, token) check and is fenced.
        self._hedger = (DeadlineEstimator(seed=params.seed)
                        if params.hedge else None)
        self._lease_started: Dict[Tuple[int, int], float] = {}
        self._shadow: Dict[int, Tuple[int, str]] = {}
        self._hedge_won: set = set()
        # Audit (`repro.engine.audit`): sampled shards are re-executed
        # in this (trusted) process; a node whose result diverges is
        # quarantined — no further grants, its leases requeued.
        self._sampler = (AuditSampler(params.audit_fraction, params.seed)
                         if params.audit_fraction > 0 else None)
        #: Replayable corpus entries of the run's audit convictions.
        self._witnesses: List[CorpusEntry] = []
        self._audit_queue: List[Tuple[int, ScenarioReport, str]] = []
        #: Shards whose audit is queued or running: their results may
        #: still be replaced, so the execution cap is not taken over them.
        self._auditing: set = set()
        self._quarantined: set = set()
        #: The shard holding the run's last capped execution, once known.
        self._cut_sid: Optional[int] = None
        self._draining = threading.Event()
        self._cancelled = threading.Event()
        #: Set on every result, failure and node loss: the serve loop's
        #: cue to look again.
        self._wake = threading.Event()
        self.results: Dict[int, Tuple[ScenarioReport,
                                      List[CorpusEntry]]] = {}
        self._markers: set = set()
        if params.checkpoint:
            done, self._markers, diag = load_completed_ex(
                params.checkpoint, self._fingerprint)
            for _ in range(diag.corrupt):
                self.reporter.emit("bad_line")
            for sid, (report, entries) in done.items():
                if 0 <= sid < len(self.shards):
                    self.results[sid] = (report, entries)
                    self.table.mark_done(sid)
                    self.reporter.emit(
                        "resumed", shard=sid, executions=report.executions,
                        steps=report.steps, pruned=report.pruned_subtrees)
        self._update_cut()
        self._writer = (CheckpointWriter(params.checkpoint,
                                         self._fingerprint)
                        if params.checkpoint else None)
        self._lock = threading.Lock()
        self._nodes: Dict[str, Channel] = {}
        self._stop = threading.Event()
        self._threads: List[threading.Thread] = []
        self._acceptor: Optional[threading.Thread] = None
        self._fleet = None
        # The campaign daemon keeps one node port alive across many
        # runs: it injects its own bound listener, which the run must
        # borrow (stop accepting on shutdown) but never close.
        self._owns_listener = listener is None
        self.host = self.port = None
        if not local:
            if listener is None:
                listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                listener.setsockopt(socket.SOL_SOCKET,
                                    socket.SO_REUSEADDR, 1)
                listener.bind((self.dist.host, self.dist.port))
                listener.listen()
            self.host, self.port = listener.getsockname()[:2]
            # Written to on shutdown: wakes the acceptor out of select.
            self._accept_wake = socket.socketpair()
        self._listener = listener

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def serve(self, fleet=None) -> EngineResult:
        """Lease shards until settled, merge, return.

        ``fleet`` is a local run's node set (`repro.engine.pool`): after
        every wake the loop hands it the leases that just expired and
        the nodes just quarantined, so it kills and replaces them and
        any node that died; `_shutdown` has it kill the rest.
        """
        self._fleet = fleet
        if self._listener is not None:
            self._acceptor = threading.Thread(target=self._accept_loop,
                                              name="dist-accept",
                                              daemon=True)
            self._acceptor.start()
        last_node_seen = time.time()
        try:
            while True:
                # Audits run on the serve thread, outside the lock: a
                # re-execution must never stall heartbeat renewals.
                quarantined = self._run_audits()
                if self._cancelled.is_set():
                    break
                now = time.time()
                with self._lock:
                    expired = self.table.expire(now)
                    for lease in expired:
                        self.reporter.emit("expired", shard=lease.shard_id,
                                           node=lease.node_id)
                    failed = self.table.failed_ids if self._local else []
                    settled = self.table.settled
                    busy = bool(self.table.leases or self._audit_queue)
                    # Drained: the in-flight work is all home.
                    done = (settled and not self._audit_queue) \
                        or (self._draining.is_set() and not busy)
                    have_nodes = bool(self._nodes)
                if failed:
                    sid = failed[0]
                    raise ShardFailed(
                        f"shard {sid} ({self.shards[sid]}) failed "
                        f"{self.table.attempts(sid)} times: "
                        f"{self.table.failure_reason(sid)}")
                if done:
                    break
                # Local nodes stop at the deadline by themselves: wait for
                # the partial results they return.
                if self.deadline is not None and now >= self.deadline \
                        and not (self._local and busy):
                    break
                if have_nodes:
                    last_node_seen = now
                elif now - last_node_seen >= self.dist.node_wait_seconds:
                    break  # degrade: merge what came back
                if fleet is not None and not settled:
                    fleet.tend(expired, quarantined)
                self._wake.wait(SERVE_TICK)
                self._wake.clear()
        finally:
            self._shutdown()
        # Results accepted on the loop's final tick may still be queued
        # for audit: screen them before the merge is finalized.
        self._run_audits()
        with self._lock:
            late = self.deadline is not None and time.time() >= self.deadline
            for sid in range(len(self.shards)):
                if sid in self.results or self.table.status(sid) == DROPPED:
                    continue
                reason = self.table.failure_reason(sid) or (
                    "run budget exhausted" if late
                    else "no live node returned this shard")
                self.reporter.emit("skipped", shard=sid, reason=reason)
            self.reporter.emit("settled", settled=self.table.settled,
                               drained=self._draining.is_set(),
                               cancelled=self._cancelled.is_set())
            return finalize_run(self.scenario, self.spec, self.params,
                                self.shards, self.planner_gaps,
                                self.results, self._markers,
                                self.reporter, self._writer,
                                witnesses=self._witnesses)

    def drain(self) -> None:
        """Stop granting new leases; `serve` returns once every
        in-flight lease has completed, failed, or expired."""
        if not self._draining.is_set():
            self._draining.set()
            self.reporter.emit("drain")
        self._wake.set()

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def cancel(self) -> None:
        """Stop now: abandon in-flight leases and merge what came back."""
        self._cancelled.set()
        self._wake.set()

    def _shutdown(self) -> None:
        self._stop.set()
        if self._acceptor is not None:
            # A borrowed listener outlives this run: the next run must
            # not race this one's acceptor for it, so wake the acceptor
            # and wait it out.
            self._accept_wake[1].send(b"\0")
            self._acceptor.join(timeout=2.0)
        if self._listener is not None:
            for sock in self._accept_wake:
                sock.close()
            if self._owns_listener:
                try:
                    self._listener.close()
                except OSError:
                    pass
        with self._lock:
            channels = list(self._nodes.values())
        for ch in channels:
            try:
                ch.send(MSG_DONE)
            except ConnectionError:
                pass
            # Hang up: the node reads ``done`` then end of stream, and
            # the channel's serve thread wakes now.
            try:
                ch.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        if self._fleet is not None:
            self._fleet.close()
        for thread in self._threads:
            thread.join(timeout=2.0)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    def attach(self, ch: Channel, node_id: str) -> None:
        """Serve a node this run started itself: no handshake and no
        welcome — it already holds the scenario and the params."""
        thread = threading.Thread(target=self._serve_conn,
                                  args=(ch, node_id), name="dist-conn",
                                  daemon=True)
        self._threads.append(thread)
        thread.start()

    def _accept_loop(self) -> None:
        self._listener.settimeout(0.2)
        wake = self._accept_wake[0]
        while not self._stop.is_set():
            try:
                ready, _, _ = select.select([self._listener, wake], [], [],
                                            1.0)
            except (OSError, ValueError):
                return  # the listener was closed under us
            if self._stop.is_set():
                return
            if self._listener not in ready:
                continue
            try:
                conn, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            thread = threading.Thread(target=self._serve_conn,
                                      args=(Channel(conn),),
                                      name="dist-conn", daemon=True)
            self._threads.append(thread)
            thread.start()

    def _hello(self, ch: Channel) -> Optional[str]:
        """Read a connecting node's hello; its node id, or None when the
        hello is malformed or the node is refused."""
        hello = ch.recv(timeout=5.0)
        if (hello is None or hello.get("t") != MSG_HELLO
                or hello.get("proto") != PROTOCOL_VERSION):
            return None
        node_id = str(hello["node"])
        reason = handshake_mismatch(self.params, hello.get("fp"))
        if reason is None:
            return node_id
        # A node built from different code would return well-formed
        # results that are simply wrong: refuse it with the reason on
        # the wire, before any grant.
        with self._lock:
            self.reporter.emit("refused", node=node_id, reason=reason)
        ch.send(MSG_REFUSE, reason=reason)
        return None

    def _serve_conn(self, ch: Channel, node_id: Optional[str] = None) -> None:
        welcome = node_id is None
        try:
            if welcome:
                node_id = self._hello(ch)
                if node_id is None:
                    return
            with self._lock:
                self._nodes[node_id] = ch
                self.reporter.emit("joined", node=node_id)
            if welcome:
                ch.send(MSG_WELCOME, spec=self.spec.to_json(),
                        params=self.params.wire_json(),
                        lease=self.dist.lease_seconds)
            while not self._stop.is_set():
                msg = ch.recv(timeout=0.5)
                if msg is not None and not self._stop.is_set():
                    self._dispatch(ch, node_id, msg)
            # The run stopped.  `_shutdown` broadcasts ``done`` only to
            # the nodes still registered when it gets there, and this
            # thread is about to unregister the node and close: say
            # ``done`` first, so the node never reads a bare close.
            ch.send(MSG_DONE)
        except ConnectionError:
            pass
        finally:
            if node_id is not None:
                with self._lock:
                    # Only the node's *current* channel may release its
                    # leases: a node that reconnected under the same id
                    # (sever fault, TCP reset) must not have its fresh
                    # lease requeued by the dying old connection.
                    if self._nodes.get(node_id) is ch:
                        del self._nodes[node_id]
                        lost = self.table.release_node(node_id,
                                                       time.time())
                        # Shadow grants the dead node held are retired
                        # so a later straggler can be hedged afresh.
                        for sid, (_tok, nid) in list(self._shadow.items()):
                            if nid == node_id:
                                del self._shadow[sid]
                        # A node leaving after the table settled was
                        # *told* to go (`done` reply): that is a
                        # graceful exit, not a lost node — only count
                        # losses mid-run.
                        if not self._stop.is_set() \
                                and not self.table.settled:
                            self.reporter.emit(
                                "lost", node=node_id,
                                reason=f"connection lost "
                                       f"({len(lost)} leases requeued)")
                self._wake.set()
            ch.close()

    def _dispatch(self, ch: Channel, node_id: str, msg: Dict) -> None:
        mtype = msg.get("t")
        if mtype == MSG_WANT:
            self._on_want(ch, node_id)
        elif mtype == MSG_BEAT:
            if msg.get("shard_id") is not None:
                with self._lock:
                    self.table.renew(node_id, msg["shard_id"],
                                     msg["token"], time.time())
        elif mtype in (MSG_RESULT, MSG_FAIL):
            if mtype == MSG_RESULT:
                self._on_result(node_id, msg)
            else:
                self._on_fail(node_id, msg)
            self._wake.set()

    def _on_want(self, ch: Channel, node_id: str) -> None:
        shadow = None
        now = time.time()
        with self._lock:
            if self._draining.is_set() or self._cancelled.is_set() \
                    or (self.deadline is not None and now >= self.deadline):
                # Draining: no fresh grants, only in-flight leases may
                # finish.  IDLE (not DONE) so the node stays attached
                # until `_shutdown` dismisses everyone together.
                ch.send(MSG_IDLE, wait=self.dist.idle_wait)
                return
            if node_id in self._quarantined:
                # A convicted node gets no further work — IDLE, never
                # DONE, so the honest fleet finishes the run around it.
                ch.send(MSG_IDLE, wait=self.dist.idle_wait)
                return
            # Exclusion must not starve a requeued shard: the table
            # grants a shard back to an excluded node once every live
            # node is excluded from it (spending a retry, so a
            # deterministic crasher still degrades to FAILED).
            lease = self.table.grant(
                node_id, now,
                live_nodes=set(self._nodes) - self._quarantined)
            settled = self.table.settled
            if lease is not None \
                    and (lease.shard_id, lease.token) not in self._grant_seen:
                # Log the grant exactly once per lease *before* it goes
                # on the wire (grant replies are idempotent per node,
                # so a re-sent lease must not double-log).
                self._grant_seen.add((lease.shard_id, lease.token))
                self.reporter.emit("grant", shard=lease.shard_id,
                                   attempt=lease.attempt, node=node_id,
                                   token=lease.token)
                self._lease_started[(lease.shard_id, lease.token)] = now
            if lease is None and not settled:
                # An idle node with stragglers in flight is exactly the
                # spare capacity hedging wants to spend.
                shadow = self._maybe_shadow(node_id, now)
        if shadow is not None:
            sid, token, attempt = shadow
            ch.send(MSG_GRANT, fault_shard=sid, fault_attempt=attempt,
                    shard_id=sid, shard=self.shards[sid].to_json(),
                    token=token, attempt=attempt)
            return
        if lease is None:
            ch.send(MSG_DONE if settled else MSG_IDLE,
                    wait=self.dist.idle_wait)
            return
        ch.send(MSG_GRANT, fault_shard=lease.shard_id,
                fault_attempt=lease.attempt, shard_id=lease.shard_id,
                shard=self.shards[lease.shard_id].to_json(),
                token=lease.token, attempt=lease.attempt)

    def _maybe_shadow(self, node_id: str,
                      now: float) -> Optional[Tuple[int, int, int]]:
        """Issue a shadow grant for the slowest straggler, if any is
        past the adaptive deadline.  Caller holds the lock."""
        if self._hedger is None:
            return None
        deadline = self._hedger.deadline()
        if deadline is None:
            return None  # no completed shards yet: nothing to estimate
        worst: Optional[Tuple[float, int, int]] = None
        for lease in self.table.leases:
            sid = lease.shard_id
            if sid in self._shadow or sid in self.results \
                    or lease.node_id == node_id:
                continue
            started = self._lease_started.get((sid, lease.token))
            if started is None:
                continue
            elapsed = now - started
            if elapsed > deadline \
                    and (worst is None or elapsed > worst[0]):
                worst = (elapsed, sid, lease.attempt)
        if worst is None:
            return None
        elapsed, sid, attempt = worst
        token = self.table.issue_token()
        hedge_attempt = HEDGE_ATTEMPT_BASE + attempt
        self._shadow[sid] = (token, node_id)
        self._lease_started[(sid, token)] = now
        # Shadow grants reach the service WAL like leases: a restarted
        # coordinator's token floor must clear their tokens too.
        self.reporter.emit("grant", shard=sid, attempt=hedge_attempt,
                           node=node_id, token=token)
        self.reporter.emit("hedge", shard=sid, elapsed=elapsed,
                           deadline=deadline)
        return (sid, token, hedge_attempt)

    def _on_result(self, node_id: str, msg: Dict) -> None:
        sid, token = msg["shard_id"], msg["token"]
        # Decode *before* settling the lease: a corrupt blob must spend
        # a retry, not permanently settle the shard as done.
        try:
            report, entries = _decode_result(sid, msg["blob"],
                                             msg["blob_crc"])
        except ResultCorrupt:
            with self._lock:
                self.reporter.emit("corrupt", shard=sid, node=node_id)
                shadow = self._shadow.get(sid)
                if shadow is not None and shadow[0] == token:
                    # A corrupt duplicate just retires the hedge; the
                    # primary lease is untouched.
                    del self._shadow[sid]
                else:
                    self.table.fail(sid, token, node_id, time.time(),
                                    "result failed its CRC check")
            return
        with self._lock:
            if self._past_cut(sid):
                return  # dropped at the execution cap: nothing to merge
            shadow = self._shadow.get(sid)
            if shadow is not None and shadow[0] == token:
                del self._shadow[sid]
                if sid in self.results:
                    # The primary beat its duplicate home; the hedge's
                    # price is known once the loser lands.
                    self.reporter.emit("wasted", shard=sid,
                                       executions=report.executions)
                    return
                # The duplicate wins: popping the primary lease is what
                # fences the straggler — its later submission matches no
                # current lease and is rejected STALE below.
                self.table.mark_done(sid)
                self._hedge_won.add(sid)
                self.reporter.emit("hedge_win", shard=sid)
                self._complete(sid, report, entries,
                               int(msg.get("pid", 0)), token, node_id)
                return
            verdict = self.table.complete(sid, token, node_id)
            if verdict != ACCEPTED:
                # A resurrected node's stale submission — or the fenced
                # straggler of a won hedge: either way, counted once.
                self.reporter.emit("fenced", shard=sid, node=node_id)
                if sid in self._hedge_won:
                    self._hedge_won.discard(sid)
                    self.reporter.emit("wasted", shard=sid,
                                       executions=report.executions)
                return
            if sid in self._shadow:
                # The original dispatch won after all; the duplicate in
                # flight is a loser (its execs are charged on landing).
                self.reporter.emit("hedge_loss", shard=sid)
            self._complete(sid, report, entries, int(msg.get("pid", 0)),
                           token, node_id)

    def _on_fail(self, node_id: str, msg: Dict) -> None:
        sid, token = msg["shard_id"], msg["token"]
        error = str(msg.get("error", "unknown error"))
        with self._lock:
            if not self.table.fail(sid, token, node_id, time.time(), error):
                self.reporter.emit("fenced", shard=sid, node=node_id)

    def _on_retry(self, lease: Lease, reason: str) -> None:
        """A lease ended without a result (`LeaseTable` requeue or
        failure): its attempt is spent.  Caller holds the lock.  Leases
        released by the shutdown itself are not retries."""
        if not self._stop.is_set():
            self.reporter.on_retry(lease.shard_id, lease.attempt, reason)

    def _complete(self, sid: int, report: ScenarioReport,
                  entries: List[CorpusEntry], pid: int,
                  token: int = 0, node_id: str = "") -> None:
        self.reporter.emit("merge", shard=sid, node=node_id, token=token,
                           pid=pid, executions=report.executions,
                           steps=report.steps,
                           pruned=report.pruned_subtrees,
                           budget_exhausted=report.budget_exhausted)
        self.results[sid] = (report, entries)
        started = self._lease_started.pop((sid, token), None)
        if self._hedger is not None and started is not None:
            self._hedger.observe(time.time() - started)
        # A budget-truncated shard is not checkpointed: a later,
        # better-funded resume should re-explore it rather than trust
        # its stub.
        if self._writer is not None and not report.budget_exhausted:
            self._writer.write_shard(sid, report, entries)
        if self._sampler is not None and self._sampler.should_audit(sid):
            self._audit_queue.append((sid, report, node_id))
            self._auditing.add(sid)
        self._update_cut()

    def _past_cut(self, sid: int) -> bool:
        return self._cut_sid is not None and sid > self._cut_sid

    def _update_cut(self) -> None:
        """Drop the shards past the execution cap once it is known.

        Caller holds the lock.  Only audit-screened results count: a
        divergent result repaired by the audit could move the cut.
        """
        if self._cut_sid is not None:
            return
        results = self.results
        if self._auditing:
            results = {sid: got for sid, got in results.items()
                       if sid not in self._auditing}
        cut = execution_cut(results, len(self.shards),
                            self.params.max_executions)
        if cut is None:
            return
        self._cut_sid = cut[0]
        self.reporter.emit("cut", shard=self._cut_sid,
                           dropped=self.table.drop_after(self._cut_sid))
        for sid in [sid for sid in self._shadow if self._past_cut(sid)]:
            del self._shadow[sid]
        self._audit_queue[:] = [item for item in self._audit_queue
                                if not self._past_cut(item[0])]

    def _run_audits(self) -> List[str]:
        """Re-execute queued sampled shards in this (trusted) process.

        Runs on the serve thread with the lock dropped around each
        re-execution — exploration can take seconds, and heartbeat
        renewals must keep flowing meanwhile.  A divergence convicts
        the origin node: the trusted result replaces its lie in the
        merge (and in the checkpoint — replay is last-record-wins), the
        node is quarantined from further grants, and a replayable
        witness is registered for the corpus.  Returns the nodes
        quarantined by this call.
        """
        quarantined: List[str] = []
        if self._sampler is None:
            return quarantined
        while True:
            with self._lock:
                if not self._audit_queue:
                    return quarantined
                sid, report, node_id = self._audit_queue.pop(0)
            observed_fp = report_fingerprint(report)
            trusted, finding = audit_shard(
                self.scenario, self.spec, self.shards[sid], self.params,
                sid, report, observed_fp,
                worker=f"node {node_id or '?'}")
            with self._lock:
                self._auditing.discard(sid)
                self.reporter.emit("audit", shard=sid, node=node_id,
                                   diverged=finding is not None)
                if finding is None:
                    self._update_cut()
                    continue
                self._witnesses.append(
                    divergence_witness(finding, self.spec, self.params))
                self.reporter.emit("divergence", shard=sid, node=node_id,
                                   finding=finding.to_json())
                t_report, t_entries = trusted
                self.results[sid] = (t_report, t_entries)
                if self._writer is not None \
                        and not t_report.budget_exhausted:
                    # Re-append the trusted record: checkpoint replay is
                    # last-record-wins, so later resumes are healed too.
                    self._writer.write_shard(sid, t_report, t_entries)
                if node_id and node_id not in self._quarantined:
                    self._quarantined.add(node_id)
                    quarantined.append(node_id)
                    self.reporter.emit("quarantine", node=node_id,
                                       reason=finding.describe())
                    for lease in self.table.release_node(node_id,
                                                         time.time()):
                        self.reporter.emit("expired", shard=lease.shard_id,
                                           node=node_id)
                self._update_cut()


def serve_scenario(params: EngineParams, spec: ScenarioSpec,
                   dist: Optional[DistParams] = None,
                   on_listening=None) -> EngineResult:
    """One-call coordinator: bind, serve until settled, merge."""
    coord = Coordinator(params, spec, dist)
    if on_listening is not None:
        on_listening(coord.host, coord.port)
    return coord.serve()

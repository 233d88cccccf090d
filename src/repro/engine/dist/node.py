"""The worker node: one grant loop for remote and local nodes.

A node is deliberately thin — loop ``want -> grant -> explore ->
result``.  Exploration is literally `repro.engine.pool._explore_shard`,
and the result blob is `repro.engine.pool.encode_result` (CRC'd JSON
with the in-flight-corruption fault site ``worker.result``), so the
coordinator's integrity check is one shared code path.  The heartbeat
duck-type (`NetBeat`) streams beats *upstream* over the channel, each
naming the ``(shard_id, token)`` lease it renews — that is heartbeat
federation, and it means a lease the node never learned about is never
renewed.

Two entry points share the loop (`_work`):

* `run_node` — a remote node: connect over TCP, introduce itself
  (``hello``/``welcome``, which carries the scenario spec and params),
  work, and on a connection error reconnect with jittered exponential
  backoff; the coordinator requeues our lease when it notices, and any
  result we submit from before the drop is fenced off by its stale
  token — unless the coordinator said ``done`` before the drop: it
  settled the run without our shard (one past the execution cap), and
  the node exits;
* `serve_local` — a node of a local run (`repro.engine.pool._run_pool`)
  on a socketpair: no handshake, the driver's own scenario, budgets and
  run deadline, and no reconnect — the driver kills and replaces it.

An exploration error becomes an explicit ``fail`` message (spending a
retry on the coordinator) rather than a silent drop, so a
deterministically poisoned shard cannot loop forever.
"""

from __future__ import annotations

import os
import socket
import time
from typing import Callable, Optional

from ..pool import EngineParams, _explore_shard, encode_result
from ..registry import ScenarioSpec, build_scenario
from ..retry import RECONNECT_POLICY
from ..shard import Shard
from .handshake import REFUSED_EXIT, engine_fingerprint
from .protocol import (MSG_BEAT, MSG_DONE, MSG_FAIL, MSG_GRANT, MSG_HELLO,
                       MSG_IDLE, MSG_REFUSE, MSG_RESULT, MSG_WANT,
                       MSG_WELCOME, PROTOCOL_VERSION, Channel)


#: Seconds between a node's beats while it explores; every lease in use
#: (`DistParams.lease_seconds`, `EngineParams.shard_timeout`) spans
#: several of them.
BEAT_INTERVAL = 0.25


class Refused(Exception):
    """The coordinator refused this node at handshake (version skew)."""


class NetBeat:
    """Heartbeat duck-type streaming beats upstream over the channel."""

    def __init__(self, channel: Channel, node_id: str, shard_id: int,
                 token: int):
        self._channel = channel
        self._node_id = node_id
        self._shard_id = shard_id
        self._token = token
        self._last = 0.0

    def beat(self, shard: int, execs: int, force: bool = False) -> None:
        now = time.monotonic()
        if not force and now - self._last < BEAT_INTERVAL:
            return
        self._last = now
        self._channel.send(MSG_BEAT, node=self._node_id,
                           shard_id=self._shard_id, token=self._token,
                           execs=execs)


def _default_node_id() -> str:
    return f"{socket.gethostname()}:{os.getpid()}"


def _told_done(ch: Channel) -> bool:
    """Did the coordinator say ``done`` before this connection dropped?

    A coordinator that settles while this node is still exploring (a
    shard past the run's execution cap) broadcasts ``done`` and closes.
    The frame stays readable here after our next send fails, which
    tells a settled run from a lost coordinator.
    """
    try:
        while True:
            msg = ch.recv(timeout=0.05)
            if msg is None:
                return False
            if msg.get("t") == MSG_DONE:
                return True
    except OSError:
        return False


def _serve_grants(ch: Channel, node_id: str, emit: Callable) -> bool:
    """Work one connection until ``done``; True means run finished."""
    ch.send(MSG_HELLO, node=node_id, pid=os.getpid(),
            proto=PROTOCOL_VERSION, fp=engine_fingerprint())
    welcome = ch.recv(timeout=10.0)
    if welcome is not None and welcome.get("t") == MSG_REFUSE:
        raise Refused(str(welcome.get("reason", "incompatible node")))
    if welcome is None or welcome.get("t") != MSG_WELCOME:
        raise ConnectionError("no welcome from coordinator")
    spec = ScenarioSpec.from_json(welcome["spec"])
    return _work(ch, node_id, build_scenario(spec), spec,
                 EngineParams.from_wire(welcome["params"]), emit)


def _work(ch: Channel, node_id: str, scenario, spec, params: EngineParams,
          emit: Callable, deadline: Optional[float] = None) -> bool:
    """The grant loop: work until ``done`` (True)."""
    while True:
        ch.send(MSG_WANT, node=node_id)
        # A short reply window on purpose: a grant lost in flight is
        # recovered by re-asking — the coordinator re-grants the same
        # lease idempotently — so waiting longer only adds stall.
        msg = ch.recv(timeout=2.0)
        if msg is None:
            continue  # reply lost or coordinator busy; re-ask
        mtype = msg.get("t")
        if mtype == MSG_DONE:
            return True
        if mtype == MSG_IDLE:
            time.sleep(float(msg.get("wait", 0.25)))
            continue
        if mtype != MSG_GRANT:
            continue
        sid = int(msg["shard_id"])
        token = int(msg["token"])
        attempt = int(msg.get("attempt", 1))
        shard = Shard.from_json(msg["shard"])
        emit(f"[node {node_id}] shard {sid} leased "
             f"(token {token}, attempt {attempt})")
        beat = NetBeat(ch, node_id, sid, token)
        try:
            report, entries = _explore_shard(scenario, spec, shard,
                                             params, shard_id=sid,
                                             attempt=attempt,
                                             deadline=deadline, beat=beat)
        except ConnectionError:
            raise  # a severed beat: reconnect, lease will be requeued
        except Exception as err:  # noqa: BLE001 — spend a retry upstream
            ch.send(MSG_FAIL, fault_shard=sid, fault_attempt=attempt,
                    node=node_id, shard_id=sid, token=token,
                    error=repr(err))
            continue
        blob, crc = encode_result(sid, attempt, report, entries)
        ch.send(MSG_RESULT, fault_shard=sid, fault_attempt=attempt,
                node=node_id, shard_id=sid, token=token, attempt=attempt,
                blob=blob, blob_crc=crc, pid=os.getpid())


def serve_local(sock: socket.socket, node_id: str, scenario,
                spec: Optional[ScenarioSpec], params: EngineParams,
                deadline: Optional[float]) -> None:
    """Run one node of a local run over its end of a socketpair.

    ``scenario`` is None in a spawned node, which rebuilds it from
    ``spec``.  Returns once the driver says ``done`` or hangs up.
    """
    if scenario is None:
        scenario = build_scenario(spec)
    ch = Channel(sock)
    try:
        _work(ch, node_id, scenario, spec, params, lambda _line: None,
              deadline)
    except ConnectionError:
        pass  # the driver hung up: the run is over
    finally:
        ch.close()


def run_node(host: str, port: int, node_id: Optional[str] = None,
             max_reconnects: int = 8, emit: Callable = print) -> int:
    """Work for ``host:port`` until the coordinator says ``done``.

    Reconnects with jittered exponential backoff on any connection
    failure (including injected ``sever`` faults); gives up — exit
    code 1 — once ``max_reconnects`` consecutive attempts fail to
    reach a coordinator.  A handshake refusal (engine-fingerprint
    mismatch) exits immediately with `REFUSED_EXIT` and no reconnect:
    a refused build stays refused.
    """
    node_id = node_id or _default_node_id()
    # ``max_reconnects`` is a budget of *consecutive* failures, reset on
    # every successful connection; the delays between them follow the
    # shared reconnect discipline.
    failures = 0
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=5.0)
        except OSError:
            failures += 1
            if failures > max_reconnects:
                emit(f"[node {node_id}] giving up after "
                     f"{failures - 1} reconnect attempts")
                return 1
            RECONNECT_POLICY.sleep(failures, key=f"node-{node_id}")
            continue
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(None)
        failures = 0  # reachable again: the give-up budget resets
        ch = Channel(sock)
        try:
            if _serve_grants(ch, node_id, emit):
                emit(f"[node {node_id}] coordinator done; exiting")
                return 0
        except Refused as err:
            emit(f"[node {node_id}] refused by coordinator: {err}")
            return REFUSED_EXIT
        except ConnectionError as err:
            if _told_done(ch):
                emit(f"[node {node_id}] coordinator done; exiting")
                return 0
            failures += 1
            emit(f"[node {node_id}] connection lost ({err}); "
                 f"reconnect {failures}/{max_reconnects}")
            if failures > max_reconnects:
                return 1
            RECONNECT_POLICY.sleep(failures, key=f"node-{node_id}")
        finally:
            ch.close()

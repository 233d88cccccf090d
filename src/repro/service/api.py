"""JSONL-over-TCP client API: the dist framing, request/response shaped.

One request is one connection: the client connects, sends a single
framed ``req`` message (`repro.engine.dist.protocol.Channel`, so the
wire inherits the CRC line discipline and its fault instrumentation),
reads a single ``resp``, and closes.  That keeps the server trivially
stateless per connection — there is no session to resume, which is the
point for a daemon that may be killed at any instant.

Error discipline: a response carries ``ok``; a failure carries
``error`` and ``retryable``.  *Retryable* means "the service is fine
but cannot take this request right now" — the canonical case is a
submit against a draining daemon — and `ServiceClient` backs off on it
with the shared jittered policy (`repro.engine.retry.RetryPolicy`),
exactly like a dist node reconnecting.  Non-retryable errors raise
immediately: retrying a malformed request is noise, not resilience.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Callable, Dict, Optional

from ..engine.dist.protocol import Channel
from ..engine.retry import RetryPolicy

MSG_REQ = "req"
MSG_RESP = "resp"

#: Default client policy: a handful of quick retries, capped at 2 s.
CLIENT_POLICY = RetryPolicy(attempts=6, base=0.05, cap=2.0)


class ServiceError(RuntimeError):
    """The service rejected a request (and retrying will not help)."""


class RetryableServiceError(ServiceError):
    """The service asked the client to back off and try again."""


class ApiServer:
    """Accept one-shot API requests and hand them to ``handler``.

    ``handler(verb, payload) -> dict`` runs on the connection thread;
    raising `RetryableServiceError` / `ServiceError` becomes the
    corresponding error response instead of killing the connection.
    """

    def __init__(self, host: str, port: int,
                 handler: Callable[[str, Dict], Dict]):
        self._handler = handler
        self._stop = threading.Event()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen()
        self.host, self.port = self._listener.getsockname()[:2]
        self._thread = threading.Thread(target=self._accept_loop,
                                        name="service-api", daemon=True)
        self._thread.start()

    def close(self) -> None:
        self._stop.set()
        try:
            self._listener.close()
        except OSError:
            pass
        self._thread.join(timeout=2.0)

    def _accept_loop(self) -> None:
        try:
            self._listener.settimeout(0.2)
        except OSError:
            return  # closed before the loop started
        while not self._stop.is_set():
            try:
                conn, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            threading.Thread(target=self._serve_conn, args=(Channel(conn),),
                             name="service-api-conn", daemon=True).start()

    def _serve_conn(self, ch: Channel) -> None:
        try:
            msg = ch.recv(timeout=5.0)
            if msg is None or msg.get("t") != MSG_REQ:
                return
            verb = str(msg.get("verb", ""))
            payload = {k: v for k, v in msg.items()
                       if k not in ("t", "verb")}
            try:
                reply = self._handler(verb, payload) or {}
            except RetryableServiceError as err:
                ch.send(MSG_RESP, ok=False, error=str(err), retryable=True)
                return
            except ServiceError as err:
                ch.send(MSG_RESP, ok=False, error=str(err), retryable=False)
                return
            except Exception as err:  # noqa: BLE001 — surface, don't die
                ch.send(MSG_RESP, ok=False, error=repr(err),
                        retryable=False)
                return
            ch.send(MSG_RESP, ok=True, **reply)
        except ConnectionError:
            pass
        finally:
            ch.close()


class ServiceClient:
    """One-shot requests with retryable-error backoff.

    ``sleeper`` is injectable the same way it is on `RetryPolicy`:
    tests record the backoff schedule instead of waiting it out.
    """

    def __init__(self, host: str, port: int,
                 policy: RetryPolicy = CLIENT_POLICY,
                 timeout: float = 5.0,
                 sleeper: Callable[[float], None] = time.sleep):
        self.host = host
        self.port = port
        self.policy = policy
        self.timeout = timeout
        self._sleeper = sleeper

    def request(self, verb: str, timeout: Optional[float] = None,
                **fields) -> Dict:
        """Send one request; retry on connection loss and retryable
        rejections; raise `ServiceError` on a final failure."""
        timeout = self.timeout if timeout is None else timeout
        try:
            return self.policy.call(
                lambda: self._once(verb, timeout, fields),
                key=f"api-{verb}",
                retry_on=(RetryableServiceError, OSError),
                sleeper=self._sleeper)
        except OSError as err:
            raise ServiceError(f"{verb}: service unreachable at "
                               f"{self.host}:{self.port} ({err})") from err

    def _once(self, verb: str, timeout: float, fields: Dict) -> Dict:
        sock = socket.create_connection((self.host, self.port),
                                        timeout=timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        ch = Channel(sock)
        try:
            ch.send(MSG_REQ, verb=verb, **fields)
            resp = ch.recv(timeout=timeout)
            if resp is None:
                raise TimeoutError(f"{verb}: no reply within {timeout}s")
            if resp.get("t") != MSG_RESP:
                raise ServiceError(f"{verb}: malformed reply {resp!r}")
            if not resp.get("ok"):
                error = str(resp.get("error", "unknown error"))
                if resp.get("retryable"):
                    raise RetryableServiceError(error)
                raise ServiceError(error)
            return {k: v for k, v in resp.items()
                    if k not in ("t", "ok")}
        finally:
            ch.close()

    # ------------------------------------------------------------------
    # Verbs
    # ------------------------------------------------------------------

    def submit(self, name: str, spec_json: Dict, params_json: Dict,
               dedupe_key: str = "") -> Dict:
        return self.request("submit", name=name, spec=spec_json,
                            params=params_json, dedupe=dedupe_key)

    def status(self, job_id: Optional[str] = None) -> Dict:
        fields = {"job": job_id} if job_id else {}
        return self.request("status", **fields)

    def cancel(self, job_id: str) -> Dict:
        return self.request("cancel", job=job_id)

    def findings(self, job_id: Optional[str] = None) -> Dict:
        """Confirmed `result-divergence` audit findings, per job."""
        fields = {"job": job_id} if job_id else {}
        return self.request("findings", **fields)

    def drain(self) -> Dict:
        return self.request("drain")

    def ping(self) -> Dict:
        return self.request("ping")

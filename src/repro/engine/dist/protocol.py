"""The coordinator/node wire protocol: CRC-framed JSONL over TCP.

One message is one line — exactly the durable-log line discipline
(`repro.engine.durable`): a JSON object carrying ``"v"`` and a ``"crc"``
over the canonical payload, newline-terminated.  Reusing the framing
buys the same property on the wire that it buys on disk: a frame cut
off, interleaved, or bit-flipped in flight fails its CRC and is
*dropped*, never half-trusted — and the lease layer above already
recovers from dropped messages, so corruption degenerates to loss.

Message types (``"t"`` field)::

    node -> coordinator          coordinator -> node
    -------------------         --------------------
    hello  {node, pid, proto,    welcome {spec, params, lease, heartbeat}
            fp}                  refuse {reason}
    want   {node}                grant {shard_id, shard, token, attempt}
    beat   {node, shard_id,      idle  {wait}
            token, execs}        done  {}
    result {node, shard_id,
            token, attempt,
            blob, blob_crc, pid}
    fail   {node, shard_id,
            token, error}

``hello.fp`` is the node's engine fingerprint
(`repro.engine.dist.handshake`); an incompatible node is answered with
``refuse`` and a one-line reason instead of ``welcome``.

Every send consults the deterministic fault plan
(`repro.engine.faults.net_fault_actions`) at site ``net.send.<type>``
with the message's lease coordinates — the chaos matrix injects
``drop`` / ``delay`` / ``sever`` / ``duplicate`` exactly there.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Dict, Optional

from ..durable import CorruptLine, decode_line, encode_line
from ..faults import net_fault_actions

#: Version of the message schema, carried in ``hello`` and checked by
#: the coordinator (the line framing has its own ``v`` from `durable`).
PROTOCOL_VERSION = 1

MSG_HELLO = "hello"
MSG_WELCOME = "welcome"
MSG_REFUSE = "refuse"
MSG_WANT = "want"
MSG_GRANT = "grant"
MSG_IDLE = "idle"
MSG_DONE = "done"
MSG_BEAT = "beat"
MSG_RESULT = "result"
MSG_FAIL = "fail"

#: Field names owned by the line framing (`durable.encode_line` writes
#: ``v`` and ``crc`` into the frame; ``t`` is the message type).  A
#: payload field with one of these names would be silently clobbered and
#: fail the frame CRC on the far side — `Channel.send` refuses it.
RESERVED_FIELDS = frozenset({"t", "v", "crc"})


class Severed(ConnectionError):
    """The connection was cut by an injected ``sever`` network fault."""


class Channel:
    """One framed, fault-instrumented duplex connection."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        # A hand-rolled line buffer instead of ``sock.makefile()``: the
        # stdlib file wrapper is permanently poisoned by its first read
        # timeout (``SocketIO`` raises "cannot read from timed out
        # object" forever after), and a polling recv loop times out as
        # a matter of course.  Partial frames survive here across
        # timeouts untouched.
        self._buf = bytearray()
        self._seq = 0
        #: Frames dropped for failing to parse or failing their CRC.
        self.corrupt = 0
        self._send_lock = threading.Lock()

    def send(self, mtype: str, fault_shard: Optional[int] = None,
             fault_attempt: Optional[int] = None, **fields) -> None:
        """Frame and send one message.

        ``fault_shard``/``fault_attempt`` are the lease coordinates the
        fault plan matches on at site ``net.send.<mtype>``; the send
        sequence number feeds seeded-probability faults.  Raises
        `Severed` when a sever fault cuts the connection and
        `ConnectionError` on a real socket failure.
        """
        clash = RESERVED_FIELDS.intersection(fields)
        if clash:
            raise ValueError(f"message fields {sorted(clash)} collide "
                             f"with the frame's reserved keys")
        payload: Dict = {"t": mtype, **fields}
        data = (encode_line(payload) + "\n").encode("utf-8")
        with self._send_lock:
            self._seq += 1
            copies = 1
            for fault in net_fault_actions(f"net.send.{mtype}",
                                           shard=fault_shard,
                                           attempt=fault_attempt,
                                           seq=self._seq):
                if fault.kind == "drop":
                    return  # silently lost in flight
                if fault.kind == "delay":
                    time.sleep(fault.delay_seconds)
                elif fault.kind == "duplicate":
                    copies = 2
                elif fault.kind == "sever":
                    self.close()
                    raise Severed(f"net.send.{mtype}: connection severed")
            try:
                for _ in range(copies):
                    self.sock.sendall(data)
            except OSError as err:
                raise ConnectionError(f"send failed: {err}") from err

    def recv(self, timeout: Optional[float] = None) -> Optional[Dict]:
        """Receive the next intact message.

        Returns the payload dict, or None when ``timeout`` elapses with
        no complete frame.  Corrupt frames are counted and skipped (the
        wire analogue of quarantine).  Raises `ConnectionError` when the
        peer closed or the socket failed.
        """
        deadline = (time.monotonic() + timeout
                    if timeout is not None else None)
        while True:
            nl = self._buf.find(b"\n")
            if nl >= 0:
                raw = bytes(self._buf[:nl])
                del self._buf[:nl + 1]
                line = raw.decode("utf-8", errors="replace").strip()
                if not line:
                    continue
                try:
                    payload = decode_line(line)
                except CorruptLine:
                    self.corrupt += 1
                    continue
                return payload
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None
                self.sock.settimeout(remaining)
            else:
                self.sock.settimeout(None)
            try:
                chunk = self.sock.recv(65536)
            except (socket.timeout, TimeoutError):
                # socket.timeout is only an alias of TimeoutError from
                # 3.10; on 3.9 it must be caught by name or a routine
                # recv timeout masquerades as a dead connection.
                return None
            except OSError as err:
                raise ConnectionError(f"recv failed: {err}") from err
            if not chunk:
                raise ConnectionError("peer closed the connection")
            self._buf += chunk

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


def parse_hostport(text: str, default_port: int) -> tuple:
    """``HOST[:PORT]`` -> ``(host, port)``.

    IPv6 literals use the bracketed form (``[::1]:7671`` or ``[::1]``);
    an unbracketed literal with multiple colons (``::1``) is taken as a
    bare host, never split at its last colon.
    """
    if text.startswith("["):
        host, sep, rest = text[1:].partition("]")
        if not sep or (rest and not rest.startswith(":")):
            raise ValueError(f"malformed [host]:port address: {text!r}")
        return host, int(rest[1:]) if rest else default_port
    if text.count(":") > 1:
        return text, default_port  # bare IPv6 literal, no port
    host, sep, port = text.partition(":")
    if not sep:
        return text, default_port
    return host or "127.0.0.1", int(port)

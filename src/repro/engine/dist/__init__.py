"""`repro.engine.dist` — the engine's lease loop, local or distributed.

A **coordinator** plans shards and hands them to **worker nodes** as
*leases* over a line-oriented JSONL protocol.  Every engine run goes
through it: a local run (`repro.engine.pool.run_scenario`) attaches its
own node processes over socketpairs, a distributed run serves nodes on
other machines over TCP.  Every piece reuses an engine invariant that
already exists:

* the wire format is the durable-log line discipline
  (`repro.engine.durable`): versioned, CRC-framed JSONL — a torn or
  bit-flipped frame is dropped like a lost packet, never trusted
  (`repro.engine.dist.protocol`);
* shards are handed out as leases with **monotonic fencing tokens**
  (`repro.engine.dist.lease`): a node that vanishes and resurrects can
  only submit a stale token, which is rejected, never double-counted;
* node liveness is carried in-band: beats renew exactly the lease they
  name, so a grant the node never saw expires honestly
  (`repro.engine.dist.coordinator`);
* a worker node is a thin loop around the single-shard exploration
  path; a remote one reconnects with jittered exponential backoff
  (`repro.engine.dist.node`);
* the merge is `repro.engine.pool.finalize_run` — shard-ordered, with
  honest `Coverage` when nodes never return — so a 2-node run with one
  node SIGKILLed mid-shard still merges byte-for-byte to the serial
  DPOR report.

CLI: ``python -m repro serve`` / ``python -m repro work --connect
HOST:PORT``.  Failure model and protocol reference: ``docs/distributed.md``.
The machinery is chaos-tested by the distributed rows of
``python -m repro chaos`` (network drop/delay/sever/duplicate faults via
`repro.engine.faults`, plus a node killed mid-shard).
"""

from .coordinator import Coordinator, DistParams, serve_scenario
from .lease import Lease, LeaseTable
from .node import run_node
from .protocol import (MSG_BEAT, MSG_DONE, MSG_FAIL, MSG_GRANT, MSG_HELLO,
                       MSG_IDLE, MSG_RESULT, MSG_WANT, MSG_WELCOME,
                       PROTOCOL_VERSION, Channel, Severed)

__all__ = [
    "Coordinator", "DistParams", "Lease", "LeaseTable", "run_node",
    "serve_scenario",
    "Channel", "Severed", "PROTOCOL_VERSION",
    "MSG_HELLO", "MSG_WELCOME", "MSG_WANT", "MSG_GRANT", "MSG_IDLE",
    "MSG_DONE", "MSG_BEAT", "MSG_RESULT", "MSG_FAIL",
]

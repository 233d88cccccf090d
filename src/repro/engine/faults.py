"""Deterministic fault injection: the engine's own adversary.

The resilience machinery (leases, budgets, durable logs) is verified
the same way the repo verifies memory-model executions — by *replaying a
decision deterministically*.  A :class:`FaultPlan` is a seeded, explicit
list of faults bound to named **sites**; instrumented code calls
:func:`fault_point` / :func:`mutate_blob` at those sites (durable
writes consult :func:`io_fault_actions` through `repro.engine.vfs`),
and a fault fires exactly when its coordinates match:

====================  =====================================================
site                  instrumented where
====================  =====================================================
``worker.explore``    once per execution inside a shard (crash/hang/raise)
``worker.result``     the serialized shard result before it crosses the
                      pipe back to the driver (corrupt)
``hedge.slow_worker``  the top of a shard exploration: an injected
                      per-shard delay, the straggler a hedged dispatch
                      must rescue (delay; `repro.engine.hedge`)
``pool.flip_result_byte``  the serialized shard result *before* its CRC
                      is taken — a lying executor whose corruption is
                      framing-consistent, catchable only by the audit
                      layer (corrupt; `repro.engine.audit`)
``checkpoint.append``  each checkpoint JSONL line (torn write)
``corpus.append``     each corpus JSONL line (torn write)
``net.send.<type>``   each distributed-protocol message send
                      (drop/delay/sever/duplicate; `repro.engine.dist`)
====================  =====================================================

Coordinates are ``(shard, attempt, exec_at)``; ``None`` matches anything,
so ``Fault("worker.explore", "crash", shard=1, attempt=1)`` crashes the
worker that runs shard 1's *first* attempt and leaves the retry alone —
which is precisely what makes chaos runs converge.  ``prob`` offers a
seeded probabilistic alternative (the decision is a hash of the plan seed
and the coordinates, so it is identical on every rerun).

Plans cross the process boundary through the ``REPRO_FAULT_PLAN``
environment variable: ``fork`` workers inherit it with the address space
and ``spawn`` workers inherit it with the environment, so the same plan
drives every process of a run.  With no plan active every hook is a
single dict lookup.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: Environment variable carrying the active plan across processes.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: Exit code of an injected hard crash (distinguishable in waitpid logs).
CRASH_EXIT_CODE = 86

KINDS = ("crash", "hang", "raise", "corrupt", "torn",
         # Network faults, consulted by the distributed transport's send
         # path (`repro.engine.dist.protocol`): a message silently lost,
         # delayed in flight, the whole connection cut, or delivered
         # twice.
         "drop", "delay", "sever", "duplicate",
         # Disk faults, consulted by the durable I/O layer
         # (`repro.engine.vfs`) at every writer site: the write fails
         # with the named errno (optionally after `after_bytes` landed,
         # modelling a disk filling mid-record), or the durability
         # barrier is silently swallowed.
         "enospc", "eio", "fsync_drop")

#: The kinds `repro.engine.vfs` interprets (plus "torn", shared with the
#: legacy line-level shim).
IO_KINDS = ("torn", "enospc", "eio", "fsync_drop")


class FaultInjected(RuntimeError):
    """The transient exception a ``raise`` fault throws."""


@dataclass(frozen=True)
class Fault:
    """One fault: a kind bound to a site and optional coordinates."""

    site: str
    kind: str  # one of KINDS
    shard: Optional[int] = None
    attempt: Optional[int] = None
    exec_at: Optional[int] = None
    #: Seeded firing probability, an alternative to exact coordinates.
    prob: Optional[float] = None
    hang_seconds: float = 3600.0
    #: How long a ``delay`` network fault holds a message.
    delay_seconds: float = 0.1
    #: ``torn`` disk faults: byte offset to cut the record at
    #: (None = halve it, the legacy shape).
    torn_at: Optional[int] = None
    #: ``enospc``/``eio`` faults: bytes that land before the failure
    #: (None/0 = fail before writing anything).
    after_bytes: Optional[int] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")

    def matches(self, site: str, shard: Optional[int],
                attempt: Optional[int], execs: Optional[int],
                seed: int) -> bool:
        if site != self.site:
            return False
        for want, got in ((self.shard, shard), (self.attempt, attempt),
                          (self.exec_at, execs)):
            if want is not None and want != got:
                return False
        if self.prob is not None:
            digest = hashlib.sha256(
                f"{seed}:{site}:{shard}:{attempt}:{execs}"
                .encode("utf-8")).digest()
            draw = int.from_bytes(digest[:4], "big") / 2 ** 32
            if draw >= self.prob:
                return False
        return True

    def to_json(self) -> Dict:
        out = {"site": self.site, "kind": self.kind}
        for key in ("shard", "attempt", "exec_at", "prob", "torn_at",
                    "after_bytes"):
            val = getattr(self, key)
            if val is not None:
                out[key] = val
        if self.hang_seconds != 3600.0:
            out["hang_seconds"] = self.hang_seconds
        if self.delay_seconds != 0.1:
            out["delay_seconds"] = self.delay_seconds
        return out

    @staticmethod
    def from_json(data: Dict) -> "Fault":
        return Fault(site=data["site"], kind=data["kind"],
                     shard=data.get("shard"), attempt=data.get("attempt"),
                     exec_at=data.get("exec_at"), prob=data.get("prob"),
                     hang_seconds=data.get("hang_seconds", 3600.0),
                     delay_seconds=data.get("delay_seconds", 0.1),
                     torn_at=data.get("torn_at"),
                     after_bytes=data.get("after_bytes"))


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, serializable set of faults for one chaos run."""

    faults: Tuple[Fault, ...] = ()
    seed: int = 0

    def encode(self) -> str:
        return json.dumps({"seed": self.seed,
                           "faults": [f.to_json() for f in self.faults]},
                          sort_keys=True)

    @staticmethod
    def decode(text: str) -> "FaultPlan":
        data = json.loads(text)
        return FaultPlan(faults=tuple(Fault.from_json(f)
                                      for f in data.get("faults", [])),
                         seed=data.get("seed", 0))

    def activate(self) -> None:
        """Install the plan for this process and every child it starts."""
        os.environ[FAULT_PLAN_ENV] = self.encode()
        # Activation marks the start of a fresh chaos run: one-shot
        # accounting and per-site sequences reset even when the plan
        # encodes identically to the previous one.
        _CACHE["raw"] = None

    @staticmethod
    def deactivate() -> None:
        os.environ.pop(FAULT_PLAN_ENV, None)

    def __enter__(self) -> "FaultPlan":
        self.activate()
        return self

    def __exit__(self, *exc) -> None:
        self.deactivate()


# Parsed-plan cache and fired-fault set, both keyed to the raw env value
# so switching plans (or deactivating) resets one-shot accounting.
_CACHE: Dict[str, object] = {"raw": None, "plan": None}
_FIRED: set = set()


def _active_plan() -> Optional[FaultPlan]:
    raw = os.environ.get(FAULT_PLAN_ENV)
    if raw is None:
        return None
    if raw != _CACHE["raw"]:
        _CACHE["raw"] = raw
        _CACHE["plan"] = FaultPlan.decode(raw)
        _FIRED.clear()
        _IO_SEQ.clear()
    return _CACHE["plan"]


def _iter_matching(site: str, kinds: Tuple[str, ...],
                   shard: Optional[int], attempt: Optional[int],
                   execs: Optional[int]):
    plan = _active_plan()
    if plan is None:
        return
    for idx, fault in enumerate(plan.faults):
        if fault.kind not in kinds:
            continue
        if not fault.matches(site, shard, attempt, execs, plan.seed):
            continue
        key = (idx, shard, attempt, execs)
        if key in _FIRED:
            continue
        _FIRED.add(key)
        yield plan, fault


def fault_point(site: str, shard: Optional[int] = None,
                attempt: Optional[int] = None,
                execs: Optional[int] = None) -> None:
    """Crash, hang, or raise here if the active plan says so."""
    for _plan, fault in _iter_matching(site, ("crash", "hang", "raise"),
                                       shard, attempt, execs):
        if fault.kind == "crash":
            os._exit(CRASH_EXIT_CODE)
        if fault.kind == "hang":
            # A plain sleep: killable by SIGKILL, which is exactly how
            # an expired lease is expected to clear it.
            time.sleep(fault.hang_seconds)
            return
        raise FaultInjected(f"injected transient fault at {site} "
                            f"(shard={shard}, attempt={attempt})")


def mutate_blob(site: str, blob: str, shard: Optional[int] = None,
                attempt: Optional[int] = None) -> str:
    """Deterministically corrupt ``blob`` if a ``corrupt`` fault matches."""
    for plan, _fault in _iter_matching(site, ("corrupt",), shard, attempt,
                                       None):
        digest = hashlib.sha256(
            f"{plan.seed}:{site}:{shard}:{attempt}".encode()).digest()
        pos = digest[0] % max(len(blob), 1)
        flipped = chr((ord(blob[pos]) ^ 0x20) or 0x21)
        blob = blob[:pos] + flipped + blob[pos + 1:]
    return blob


def injected_delay(site: str, shard: Optional[int] = None,
                   attempt: Optional[int] = None) -> float:
    """Total seconds of ``delay`` faults matching this site (0.0 = none).

    The compute-side sibling of the network ``delay`` kind: the
    ``hedge.slow_worker`` site calls this at the top of a shard
    exploration and sleeps the returned amount *in beat-sized chunks*
    — a straggler, not a hung worker — so the hedging layer
    (`repro.engine.hedge`), not lease expiry, is what must rescue the
    shard.  One-shot per coordinates, like every exact fault: the
    hedged duplicate runs under a different attempt number and is never
    slowed.
    """
    total = 0.0
    for _plan, fault in _iter_matching(site, ("delay",), shard, attempt,
                                       None):
        total += fault.delay_seconds
    return total


def flip_result_digit(site: str, blob: str, shard: Optional[int] = None,
                      attempt: Optional[int] = None) -> str:
    """Rotate one digit of the serialized ``executions`` count.

    The silent-corruption fault: unlike :func:`mutate_blob`'s character
    flip (which breaks the JSON and is caught by the CRC/decode path),
    this keeps the blob structurally valid and fires *before* the CRC
    is taken — modelling an executor that computed the wrong answer and
    framed it honestly.  Nothing on the ingest path can object; only a
    fingerprint comparison against a trusted re-execution
    (`repro.engine.audit`) catches it.
    """
    for _plan, _fault in _iter_matching(site, ("corrupt",), shard, attempt,
                                        None):
        marker = '"executions": '
        start = blob.find(marker)
        if start < 0:
            marker = '"executions":'
            start = blob.find(marker)
        if start < 0:
            continue
        pos = start + len(marker)
        end = pos
        while end < len(blob) and blob[end].isdigit():
            end += 1
        if end == pos:
            continue
        rotated = str((int(blob[end - 1]) + 1) % 10)
        blob = blob[:end - 1] + rotated + blob[end:]
    return blob


def net_fault_actions(site: str, shard: Optional[int] = None,
                      attempt: Optional[int] = None,
                      seq: Optional[int] = None) -> list:
    """Network faults matching this message send, in plan order.

    ``site`` is ``net.send.<message type>``; ``shard``/``attempt`` are
    the lease coordinates of the message (None for messages not tied to
    a shard) and ``seq`` is the connection's send sequence number, which
    lets seeded-probability faults fire independently per message.
    Returns the matching `Fault` objects so the transport can read
    ``delay_seconds``; the caller interprets the kinds (drop / delay /
    sever / duplicate).

    One-shot accounting deliberately ignores ``seq`` for
    exact-coordinate faults: a retransmission of the same lease's
    message arrives with a fresh sequence number, and if that opened a
    fresh one-shot slot a "drop this result" fault would drop every
    resend too — the recovery it exists to exercise could never win.
    Seeded-probability faults keep ``seq`` in the key so each message
    rolls its own dice.
    """
    plan = _active_plan()
    if plan is None:
        return []
    actions = []
    for idx, fault in enumerate(plan.faults):
        if fault.kind not in ("drop", "delay", "sever", "duplicate"):
            continue
        if not fault.matches(site, shard, attempt, seq, plan.seed):
            continue
        key = (idx, site, shard, attempt) if fault.prob is None \
            else (idx, site, shard, attempt, seq)
        if key in _FIRED:
            continue
        _FIRED.add(key)
        actions.append(fault)
    return actions


#: Per-site call sequence for disk-fault probability rolls (reset with
#: the plan cache when the active plan changes).
_IO_SEQ: Dict[str, int] = {}


def io_fault_actions(site: str) -> list:
    """Disk faults matching this durable write, in plan order.

    Consulted by `repro.engine.vfs` on every append / whole-file write.
    Same one-shot discipline as the network shim: an exact-coordinate
    fault fires once per plan (tear *this* record, then let recovery
    win), while a seeded-probability fault rolls per call — the call
    sequence number stands in for message ``seq`` so each write rolls
    its own dice deterministically.
    """
    plan = _active_plan()
    if plan is None:
        return []
    seq = _IO_SEQ.get(site, 0) + 1
    _IO_SEQ[site] = seq
    actions = []
    for idx, fault in enumerate(plan.faults):
        if fault.kind not in IO_KINDS:
            continue
        if not fault.matches(site, None, None,
                             seq if fault.prob is not None else None,
                             plan.seed):
            continue
        key = (idx, site) if fault.prob is None else (idx, site, seq)
        if key in _FIRED:
            continue
        _FIRED.add(key)
        actions.append(fault)
    return actions

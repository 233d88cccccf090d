"""The fuzz grammar: seeded random client programs over the library zoo.

A :class:`FuzzProgram` is a fully serializable description of one
concurrent client: which library instances it builds (with access-mode
profile choices where the implementation has them), which thread runs
which operation script, and which threads own the role-restricted
libraries (the single producer of an SPSC ring, the owner of a
Chase-Lev deque, the writer of a seqlock).  Programs are generated
deterministically from ``(seed, index)`` — the same coordinates always
yield the same program, in any process, which is what makes fuzz cases
replayable by name and campaigns reproducible across worker counts.

The grammar only emits *legal* clients: every operation it schedules is
allowed by the library's signature for the thread it lands on, and the
spec obligations attached to each signature are the ones the paper (and
the spec-satisfaction matrix) claims the implementation meets.  A
violation found on a non-``broken`` signature is therefore a real
finding — in the checker, the DPOR reduction, or the machine — not
grammar noise.  Deliberately broken implementations (the all-relaxed
Michael–Scott profile) are gated behind ``include_broken`` and act as
the positive control: campaigns that include them must find, shrink,
and persist violations.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core.spec_styles import SpecStyle

@dataclass(frozen=True)
class OpSig:
    """One operation a library signature offers to generated clients.

    ``role`` constrains which thread may run it: ``"any"``, ``"owner"``
    (the instance's owner thread), or ``"partner"`` (the instance's
    designated second thread — e.g. the consumer side of an SPSC ring).
    ``takes_value`` ops receive a fresh, globally unique payload value.
    """

    name: str
    takes_value: bool = False
    role: str = "any"


@dataclass(frozen=True)
class LibSig:
    """A library's fuzzable surface plus its spec obligations.

    ``styles`` are the consistency obligations the implementation is
    *expected to satisfy* on any legal client (the conservative reading
    of the matrix: `repro.checking.matrix`); ``graph_kind`` is the
    consistency family of its event graph (``None`` for libraries whose
    obligation is outcome- or race-based only).  ``broken`` marks
    deliberately buggy configurations used as the fuzzer's positive
    control.
    """

    name: str
    ops: Tuple[OpSig, ...]
    graph_kind: Optional[str] = None
    styles: Tuple[SpecStyle, ...] = ()
    #: Access-mode profiles the grammar may choose from (ms-queue).
    profiles: Tuple[str, ...] = ()
    with_to: bool = False
    broken: bool = False
    #: Library constructor parameters fixed by the signature.
    params: Dict[str, Any] = field(default_factory=dict)


_QUEUE_OPS = (OpSig("enq", takes_value=True), OpSig("deq"))
_STACK_OPS = (OpSig("push", takes_value=True), OpSig("pop"))

#: Every signature the grammar can draw from.  Keys are stable: they are
#: serialized into corpus entries and must keep meaning across versions.
SIGNATURES: Dict[str, LibSig] = {
    "ms-queue": LibSig(
        "ms-queue", _QUEUE_OPS, graph_kind="queue",
        styles=(SpecStyle.LAT_HB, SpecStyle.LAT_SO_ABS,
                SpecStyle.LAT_HB_ABS),
        profiles=("rel-acq", "sc")),
    "ms-queue-broken": LibSig(
        "ms-queue-broken", _QUEUE_OPS, graph_kind="queue",
        styles=(SpecStyle.LAT_HB,),
        profiles=("broken-rlx",), broken=True),
    "hw-queue": LibSig(
        "hw-queue", _QUEUE_OPS, graph_kind="queue",
        styles=(SpecStyle.LAT_HB,), params={"capacity": 8}),
    "vyukov-queue": LibSig(
        "vyukov-queue", _QUEUE_OPS, graph_kind="queue",
        styles=(SpecStyle.LAT_HB,), params={"capacity": 8}),
    "locked-queue": LibSig(
        "locked-queue", _QUEUE_OPS, graph_kind="queue",
        styles=(SpecStyle.LAT_HB, SpecStyle.LAT_SO_ABS,
                SpecStyle.LAT_HB_ABS)),
    "spsc-ring": LibSig(
        "spsc-ring",
        (OpSig("enq", takes_value=True, role="owner"),
         OpSig("deq", role="partner")),
        graph_kind="queue", styles=(SpecStyle.LAT_HB,),
        params={"capacity": 4}),
    "treiber": LibSig(
        "treiber", _STACK_OPS, graph_kind="stack",
        styles=(SpecStyle.LAT_HB, SpecStyle.LAT_HB_HIST), with_to=True),
    "locked-stack": LibSig(
        "locked-stack", _STACK_OPS, graph_kind="stack",
        styles=(SpecStyle.LAT_HB, SpecStyle.LAT_SO_ABS,
                SpecStyle.LAT_HB_ABS)),
    "elim-stack": LibSig(
        "elim-stack", _STACK_OPS, graph_kind="stack",
        styles=(SpecStyle.LAT_HB,),
        params={"patience": 2, "attempts": 1}),
    "chase-lev": LibSig(
        "chase-lev",
        (OpSig("push", takes_value=True, role="owner"),
         OpSig("take", role="owner"), OpSig("steal")),
        graph_kind="wsdeque", styles=(SpecStyle.LAT_HB,),
        params={"capacity": 8}),
    "exchanger": LibSig(
        "exchanger", (OpSig("exchange", takes_value=True),),
        graph_kind="exchanger", styles=(SpecStyle.LAT_HB,),
        params={"patience": 2, "attempts": 2}),
    "spinlock": LibSig(
        # The obligation is mutual exclusion over a non-atomic counter:
        # the race detector certifies it, and distinct observed
        # pre-increment values are checked as an outcome property.
        "spinlock", (OpSig("lock-inc"),)),
    "seqlock": LibSig(
        # Single-writer seqlock; the outcome obligation is "no torn
        # read": every successful read returns a record that was
        # actually written (reads may run on any thread).
        "seqlock",
        (OpSig("write", takes_value=True, role="owner"), OpSig("read")),
        params={"width": 2}),
}


@dataclass(frozen=True)
class GrammarConfig:
    """Tunable bounds of the generator (all serializable)."""

    max_threads: int = 3
    max_ops: int = 4
    max_libs: int = 2
    include_broken: bool = False
    value_base: int = 100
    #: Restrict the signature pool (empty = every eligible signature).
    only: Tuple[str, ...] = ()

    def to_json(self) -> Dict[str, Any]:
        return {"max_threads": self.max_threads, "max_ops": self.max_ops,
                "max_libs": self.max_libs,
                "include_broken": self.include_broken,
                "value_base": self.value_base, "only": list(self.only)}

    @staticmethod
    def from_json(data: Dict[str, Any]) -> "GrammarConfig":
        return GrammarConfig(
            max_threads=data.get("max_threads", 3),
            max_ops=data.get("max_ops", 4),
            max_libs=data.get("max_libs", 2),
            include_broken=data.get("include_broken", False),
            value_base=data.get("value_base", 100),
            only=tuple(data.get("only", ())))

    def pool(self) -> List[str]:
        names = [n for n in sorted(SIGNATURES)
                 if self.include_broken or not SIGNATURES[n].broken]
        if self.only:
            names = [n for n in names if n in self.only]
        if not names:
            raise ValueError("grammar signature pool is empty "
                             f"(only={self.only!r})")
        return names


@dataclass(frozen=True)
class LibInstance:
    """One library instance of a generated program."""

    sig: str
    profile: Optional[str] = None
    owner: int = 0
    partner: int = 0

    def to_json(self) -> Dict[str, Any]:
        return {"sig": self.sig, "profile": self.profile,
                "owner": self.owner, "partner": self.partner}

    @staticmethod
    def from_json(data: Dict[str, Any]) -> "LibInstance":
        return LibInstance(sig=data["sig"], profile=data.get("profile"),
                           owner=data.get("owner", 0),
                           partner=data.get("partner", 0))


#: One scripted operation: (library index, op name, value-or-None).
Op = Tuple[int, str, Optional[int]]


@dataclass(frozen=True)
class FuzzProgram:
    """A generated (or shrunk) client program, fully serializable."""

    libs: Tuple[LibInstance, ...]
    threads: Tuple[Tuple[Op, ...], ...]
    seed: int = 0
    index: int = 0

    def to_json(self) -> Dict[str, Any]:
        return {
            "v": 1,
            "libs": [inst.to_json() for inst in self.libs],
            "threads": [[[i, op, val] for (i, op, val) in script]
                        for script in self.threads],
            "seed": self.seed,
            "index": self.index,
        }

    @staticmethod
    def from_json(data: Dict[str, Any]) -> "FuzzProgram":
        return FuzzProgram(
            libs=tuple(LibInstance.from_json(d) for d in data["libs"]),
            threads=tuple(
                tuple((int(i), str(op), None if val is None else int(val))
                      for (i, op, val) in script)
                for script in data["threads"]),
            seed=data.get("seed", 0),
            index=data.get("index", 0))

    def digest(self) -> str:
        """Content digest naming the program (stable scenario names)."""
        payload = self.to_json()
        payload.pop("seed", None)
        payload.pop("index", None)
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:10]

    def size(self) -> Tuple[int, int]:
        """(thread count, total op count) — the shrinker's metric."""
        return len(self.threads), sum(len(s) for s in self.threads)

    def op_count(self) -> int:
        return sum(len(s) for s in self.threads)

    def validate(self) -> None:
        """Raise ValueError if the program breaks a signature role rule."""
        if not self.threads:
            raise ValueError("a fuzz program needs at least one thread")
        for t, script in enumerate(self.threads):
            for (i, op, val) in script:
                if not 0 <= i < len(self.libs):
                    raise ValueError(f"op references library {i} of "
                                     f"{len(self.libs)}")
                inst = self.libs[i]
                sig = SIGNATURES[inst.sig]
                ops = {o.name: o for o in sig.ops}
                if op not in ops:
                    raise ValueError(
                        f"{inst.sig} has no operation {op!r}")
                if not _role_ok(ops[op], t, inst):
                    raise ValueError(
                        f"thread {t} may not run {inst.sig}.{op} "
                        f"(role {ops[op].role}, owner {inst.owner}, "
                        f"partner {inst.partner})")
                if ops[op].takes_value != (val is not None):
                    raise ValueError(
                        f"{inst.sig}.{op} value mismatch ({val!r})")


def _role_ok(op: OpSig, thread: int, inst: LibInstance) -> bool:
    if op.role == "owner":
        return thread == inst.owner
    if op.role == "partner":
        return thread == inst.partner
    return True


def derive_rng(seed: int, index: int) -> random.Random:
    """The case RNG: a hash of (seed, index), like `repro.engine.faults`
    derives probabilistic fault decisions — stable across platforms and
    Python versions (no reliance on `random` seeding semantics beyond
    `Random(int)`)."""
    digest = hashlib.sha256(f"fuzz:{seed}:{index}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def generate_program(seed: int, index: int,
                     config: Optional[GrammarConfig] = None) -> FuzzProgram:
    """Generate case ``index`` of the campaign seeded with ``seed``."""
    config = config or GrammarConfig()
    rng = derive_rng(seed, index)
    pool = config.pool()

    n_threads = rng.randint(2, max(2, config.max_threads))
    n_libs = 1
    if config.max_libs > 1 and len(pool) > 1 and rng.random() < 0.35:
        n_libs = 2

    libs: List[LibInstance] = []
    for _ in range(n_libs):
        name = rng.choice(pool)
        sig = SIGNATURES[name]
        profile = rng.choice(sig.profiles) if sig.profiles else None
        owner = rng.randrange(n_threads)
        partner = owner
        if n_threads > 1:
            partner = (owner + 1 + rng.randrange(n_threads - 1)) % n_threads
        libs.append(LibInstance(name, profile, owner, partner))

    counter = 0
    threads: List[Tuple[Op, ...]] = []
    for t in range(n_threads):
        script: List[Op] = []
        for _ in range(rng.randint(1, max(1, config.max_ops))):
            legal = [(i, op) for i, inst in enumerate(libs)
                     for op in SIGNATURES[inst.sig].ops
                     if _role_ok(op, t, inst)]
            if not legal:
                break
            i, op = legal[rng.randrange(len(legal))]
            if op.takes_value:
                counter += 1
                script.append((i, op.name, config.value_base + counter))
            else:
                script.append((i, op.name, None))
        threads.append(tuple(script))

    if not any(threads):
        # Degenerate roll (all role-restricted ops landed on wrong
        # threads): force one legal op so the program does something.
        inst = libs[0]
        sig = SIGNATURES[inst.sig]
        op = sig.ops[0]
        t = inst.owner if op.role == "owner" else (
            inst.partner if op.role == "partner" else 0)
        val = config.value_base + 1 if op.takes_value else None
        scripts = list(threads)
        scripts[t] = ((0, op.name, val),)
        threads = scripts

    program = FuzzProgram(libs=tuple(libs), threads=tuple(threads),
                          seed=seed, index=index)
    program.validate()
    return program

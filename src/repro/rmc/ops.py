"""Operations that thread coroutines yield to the machine.

Threads are Python generator functions.  Each memory action is expressed by
yielding one of the dataclasses below; the machine executes it against the
shared memory and sends the result back into the generator:

    value = yield Load(loc, ACQ)
    yield Store(loc, 1, REL)
    ok, old = yield Cas(loc, expected=0, desired=1, mode=ACQ_REL)

Subroutines compose with ``yield from``; in particular every library method
in `repro.libs` is a generator so that clients can write
``v = yield from queue.dequeue()``.

Commit hooks
------------
An operation may carry a *commit hook*: a callable invoked atomically with
the operation's memory effect, at the point where the machine has updated
the thread's view with the operation's own effect but has not yet sealed
the released message view.  This is the executable analogue of the paper's
commit (linearization) points: hooks extend the event graph and plant ghost
view components, and — because they run before the message view is sealed —
a release write *publishes* those components exactly as the logic's logical
views piggyback on physical views.

Hook signature: ``hook(ctx: CommitCtx) -> None``; see
`repro.rmc.machine.CommitCtx`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, NamedTuple, Optional

from .modes import Mode

CommitHook = Callable[["CommitCtx"], None]  # noqa: F821  (defined in machine)


@dataclass
class Load:
    """Read ``loc`` at ``mode``; evaluates to the value read."""

    loc: int
    mode: Mode
    #: Invoked when the read commits (e.g. an empty-dequeue commit point).
    commit: Optional[CommitHook] = None


@dataclass
class Store:
    """Write ``val`` to ``loc`` at ``mode``; evaluates to ``None``."""

    loc: int
    val: Any
    mode: Mode
    commit: Optional[CommitHook] = None


@dataclass
class Cas:
    """Strong compare-and-swap; evaluates to ``(succeeded, value_read)``.

    A successful CAS reads the modification-order-maximal message (so that
    its write is mo-adjacent) and atomically appends ``desired``.  A failed
    CAS is a plain read of any coherence-visible message whose value differs
    from ``expected``; a strong CAS never fails spuriously.

    ``mode`` applies to the success case; ``fail_mode`` to the read on
    failure (defaults to relaxed, as in the common C11 idiom).
    """

    loc: int
    expected: Any
    desired: Any
    mode: Mode
    fail_mode: Mode = Mode.RLX
    commit: Optional[CommitHook] = None
    commit_fail: Optional[CommitHook] = None


@dataclass
class Faa:
    """Fetch-and-add (value must be an int); evaluates to the old value."""

    loc: int
    delta: int
    mode: Mode
    commit: Optional[CommitHook] = None


@dataclass
class Xchg:
    """Atomic exchange; evaluates to the old value."""

    loc: int
    val: Any
    mode: Mode
    commit: Optional[CommitHook] = None


@dataclass
class Fence:
    """Memory fence at ``mode`` (ACQ, REL, ACQ_REL or SC)."""

    mode: Mode


@dataclass
class Alloc:
    """Allocate fresh locations, one per initial value in ``inits``.

    Evaluates to a list of location ids.  The initialization writes are
    non-atomic messages owned by the allocating thread; publication must
    therefore go through release/acquire, exactly as for malloc'd nodes in
    the paper's implementations.
    """

    inits: List[Any]
    name: str = "cell"


@dataclass
class GhostCommit:
    """A purely logical commit: run a hook without touching memory.

    Used where the paper commits an event at a point with no memory effect
    of its own (never by the shipped libraries, but available to clients and
    tests building custom protocols).  Evaluates to ``None``.
    """

    commit: CommitHook = field(default=None)  # type: ignore[assignment]


Op = Any  # union of the above, kept loose for speed


# ----------------------------------------------------------------------
# Operation footprints (the DPOR interface; see `repro.rmc.dpor`)
# ----------------------------------------------------------------------

class Footprint(NamedTuple):
    """What one pending operation can touch, as seen by the scheduler.

    The machine computes the footprint of a thread's *pending* operation
    when a DPOR decider first asks for it at a scheduling decision, and
    caches it until the operation executes (threads yield their next op
    before being scheduled, so the footprint is known ahead of time).
    The partial-order-reduction layer (`repro.rmc.dpor`) decides from two
    footprints alone whether the corresponding steps commute.

    ``sc`` marks operations that read/write the global seq-cst view;
    ``hooked`` marks operations carrying a commit hook (hooks share the
    global commit sequence and the library event registry, so hooked
    steps never commute with each other).

    A named tuple: immutable, value-equal, and cheap to build.
    """

    thread: int
    kind: str  # "read" | "write" | "rmw" | "fence" | "alloc" | "ghost"
    loc: Optional[int] = None
    mode: str = ""
    sc: bool = False
    hooked: bool = False

    def to_json(self):
        return {"t": self.thread, "k": self.kind, "l": self.loc,
                "m": self.mode, "sc": self.sc, "h": self.hooked}

    @staticmethod
    def from_json(data) -> "Footprint":
        return Footprint(thread=data["t"], kind=data["k"], loc=data["l"],
                         mode=data["m"], sc=data["sc"], hooked=data["h"])


def op_footprint(tid: int, op: Op, sc_upgrade: bool = False,
                 model=None) -> Footprint:
    """The footprint of thread ``tid``'s pending operation ``op``.

    ``sc_upgrade`` mirrors the machine's ablation knob: every non-NA
    access executes at seq-cst, so the footprint must account for the
    upgraded mode *before* the machine mutates the op at execution time.

    ``model`` is the memory model the machine executes under (id,
    instance, or None for the default): the footprint reflects the mode
    the operation *actually* executes at after model strengthening, and
    the model decides which operations are globally coupled
    (`MemoryModel.footprint_sc`) — e.g. TSO couples every atomic read
    through the flush frontier.
    """
    if model is None or isinstance(model, str):
        # Lazy: repro.models imports this module's package.
        from ..models.base import get_model
        model = get_model(model)
    mode = getattr(op, "mode", None)
    if sc_upgrade and mode is not None and mode is not Mode.NA:
        mode = Mode.SC
    if isinstance(op, Load):
        emode = model.read_mode(mode)
        return Footprint(tid, "read", op.loc, emode.value,
                         model.footprint_sc("read", emode),
                         op.commit is not None)
    if isinstance(op, Store):
        emode = model.write_mode(mode)
        return Footprint(tid, "write", op.loc, emode.value,
                         model.footprint_sc("write", emode),
                         op.commit is not None)
    if isinstance(op, Cas):
        fail = Mode.SC if (sc_upgrade and op.fail_mode is not Mode.NA) \
            else op.fail_mode
        emode = model.rmw_mode(mode)
        efail = model.fail_mode(fail)
        return Footprint(tid, "rmw", op.loc, emode.value,
                         model.footprint_sc("rmw", emode)
                         or model.footprint_sc("rmw", efail),
                         op.commit is not None or op.commit_fail is not None)
    if isinstance(op, (Faa, Xchg)):
        emode = model.rmw_mode(mode)
        return Footprint(tid, "rmw", op.loc, emode.value,
                         model.footprint_sc("rmw", emode),
                         op.commit is not None)
    if isinstance(op, Fence):
        emode = model.fence_mode(mode)
        return Footprint(tid, "fence", None, emode.value,
                         model.footprint_sc("fence", emode), False)
    if isinstance(op, Alloc):
        # Allocation bumps the global location/component counters; keep
        # it dependent with everything rather than model those.
        return Footprint(tid, "alloc", None, "", False, True)
    # GhostCommit and anything unknown: an arbitrary hook — conservative.
    return Footprint(tid, "ghost", None, "", False, True)

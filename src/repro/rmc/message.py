"""Messages and per-location write histories.

Each memory location carries a *history*: the totally ordered list of write
messages to it, indexed by timestamp.  This is the executable form of the
paper's atomic points-to assertion ``l ->at h`` with
``h : Time -fin-> Val x View``: a set of write events, ordered by timestamp,
that may still be visible to some threads.

The modification order of a location *is* its timestamp order.  Writes are
append-only (a new write always receives the maximal timestamp), which is
the usual operational simplification: it excludes a handful of exotic
behaviours (e.g. 2+2W shapes) but admits no illegal ones — see DESIGN.md
substitution 2.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional

from .view import View


class Message(NamedTuple):
    """A single write message in a location's history.

    Attributes:
        loc: location id the write targets.
        ts: timestamp, i.e. the index in the location's history.
        val: value written (any Python value; libraries use tuples to carry
            ghost payloads such as event ids alongside real values).
        view: the view *released* by this write.  For release writes this is
            the writer's full view (including the write itself), for relaxed
            writes it is the writer's release-fence frontier, and for
            non-atomic writes just the write itself.  An acquiring read
            joins this into the reader's view — the paper's Rel-Write /
            Acq-Read rules.
        writer: thread id of the writer, or ``None`` for the initialization
            message.
        wclock: the writer's per-thread access counter at the write.  Views
            double as vector clocks over these counters, which is how the
            race detector decides happens-before (see `repro.rmc.races`).
        is_na: whether the write was non-atomic.

    A named tuple: immutable, equal to any message with equal fields,
    and cheap to build — the machine builds one per write and one per
    allocation.
    """

    loc: int
    ts: int
    val: Any
    view: View
    writer: Optional[int]
    wclock: int
    is_na: bool


class Location:
    """A memory cell: identity, debug name, and its write history."""

    __slots__ = ("loc", "name", "history", "na_read_marks", "at_read_marks",
                 "has_na_write")

    def __init__(self, loc: int, name: str,
                 history: Optional[List[Message]] = None):
        self.loc = loc
        self.name = name
        self.history: List[Message] = [] if history is None else history
        #: Per-thread clock of the latest non-atomic read (race detection).
        self.na_read_marks: Dict[int, int] = {}
        #: Per-thread clock of the latest atomic read (race detection: an
        #: atomic read races with an unordered later non-atomic write).
        self.at_read_marks: Dict[int, int] = {}
        #: Fast path: locations never touched non-atomically skip race scans.
        self.has_na_write = False

    @property
    def latest(self) -> Message:
        """The modification-order-maximal message."""
        return self.history[-1]

    def visible(self, frontier_ts: int) -> List[Message]:
        """Messages a thread whose view frontier is ``frontier_ts`` may read.

        Coherence in the view machine is exactly: a read must pick a message
        whose timestamp is at or above the reader's frontier for the
        location.
        """
        return self.history[frontier_ts:]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Location({self.name}#{self.loc}, |h|={len(self.history)})"

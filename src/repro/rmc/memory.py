"""Shared memory: locations, histories, ghost components, race detection.

The memory owns:

* real locations with write histories (`repro.rmc.message.Location`);
* the *ghost* component namespace — per-thread race-detector clocks and
  per-event logical-view markers draw fresh component ids from the same
  allocator as locations but have no history;
* the global SC view used by seq-cst accesses and fences.

Race detection
--------------
Each thread ``t`` owns a ghost clock component ``tau_t`` that it bumps on
every access, making views double as vector clocks: access ``a`` by ``t``
happens-before thread ``u``'s current point iff
``u.view[tau_t] >= clock_of(a)``.  A non-atomic access conflicts with any
unordered access to the same location; an atomic access conflicts with any
unordered *non-atomic* access.  Detected races raise
`repro.rmc.races.RaceError` — ORC11 undefined behaviour.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from .message import Location, Message
from .races import RaceError
from .view import EMPTY_VIEW, View


#: Builds a `Message` from its field tuple in one C call, skipping the
#: named tuple's Python-level ``__new__`` (one message per write).
_message = tuple.__new__


class Memory:
    """The shared store of one machine execution."""

    def __init__(self, race_detection: bool = True):
        self._next_component = 1  # component 0 is reserved/unused
        self.locations: Dict[int, Location] = {}
        self.ghost_names: Dict[int, str] = {}
        self.sc_view: View = EMPTY_VIEW
        self.race_detection = race_detection
        #: tau clock component of each registered thread.
        self.thread_clocks: Dict[int, int] = {}
        #: Global commit sequence number, shared by every event registry of
        #: the execution so that commit orders compose across libraries
        #: (needed by the elimination-stack simulation, Section 4.1).
        self.commit_seq = 0

    def next_commit_index(self) -> int:
        """Claim the next global commit-order position."""
        idx = self.commit_seq
        self.commit_seq += 1
        return idx

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def alloc(self, name: str = "cell", init: Any = 0) -> int:
        """Allocate a location with an initialization message at ts 0.

        The init message is visible to every thread (all views start at 0)
        and carries only its own coherence component, like a non-atomic
        initialization that was properly published before thread start.
        """
        loc = self._next_component
        self._next_component += 1
        self.locations[loc] = Location(loc, name, [_message(
            Message, (loc, 0, init, EMPTY_VIEW, None, 0, False))])
        return loc

    def alloc_many(self, inits: List[Any], name: str = "cell") -> List[int]:
        return [self.alloc(f"{name}[{i}]", v) for i, v in enumerate(inits)]

    def alloc_ghost(self, name: str = "ghost") -> int:
        """Allocate a history-less ghost view component."""
        comp = self._next_component
        self._next_component += 1
        self.ghost_names[comp] = name
        return comp

    def register_thread(self, tid: int) -> int:
        """Allocate and record the tau clock component for ``tid``."""
        tau = self.alloc_ghost(f"tau[{tid}]")
        self.thread_clocks[tid] = tau
        return tau

    def location(self, loc: int) -> Location:
        return self.locations[loc]

    # ------------------------------------------------------------------
    # Queries used by the machine
    # ------------------------------------------------------------------
    def visible(self, loc: int, view: View) -> List[Message]:
        """Coherence-permitted read choices for a reader with ``view``."""
        cell = self.locations[loc]
        return cell.history[view.get(loc):]

    def visible_above(self, loc: int, view: View, floor: View) -> List[Message]:
        """Read choices additionally bounded below by a global ``floor``.

        Memory models with a multi-copy-atomic store (TSO) restrict reads
        to messages at least as new as a *global* per-location frontier,
        not just the reader's own view; history is timestamp-indexed, so
        the bound is a slice like `visible`.
        """
        cell = self.locations[loc]
        return cell.history[max(view.get(loc), floor.get(loc)):]

    def latest(self, loc: int) -> Message:
        return self.locations[loc].latest

    def value(self, loc: int) -> Any:
        """The modification-order-latest value (test/debug convenience)."""
        return self.locations[loc].latest.val

    # ------------------------------------------------------------------
    # Race detection
    # ------------------------------------------------------------------
    def _hb_seen(self, view: View, msg: Message) -> bool:
        """Does a thread with ``view`` happen-after the write ``msg``?"""
        if msg.writer is None:
            return True  # initialization happens-before everything
        tau = self.thread_clocks.get(msg.writer)
        if tau is None:
            return False
        return view.get(tau) >= msg.wclock

    def check_read_race(self, loc: int, tid: int, view: View, is_na: bool) -> None:
        """Raise if a read at this point races with an earlier write.

        An atomic read can only race with a non-atomic write, so the
        machine skips this call for atomic reads of locations without
        one (`Location.has_na_write`).
        """
        if not self.race_detection:
            return
        cell = self.locations[loc]
        for msg in reversed(cell.history):
            if (is_na or msg.is_na) and not self._hb_seen(view, msg):
                kind = "na-read" if is_na else "atomic read"
                raise RaceError(
                    loc, cell.name, tid, msg.writer,
                    f"{kind} vs unsynchronized write",
                )

    def check_write_race(self, loc: int, tid: int, view: View, is_na: bool) -> None:
        """Raise if a write at this point races with an earlier access.

        An atomic write can only race with non-atomic accesses, so the
        machine skips this call for atomic writes to locations without a
        non-atomic write or read mark.
        """
        if not self.race_detection:
            return
        cell = self.locations[loc]
        if is_na or cell.has_na_write:
            for msg in reversed(cell.history):
                if (is_na or msg.is_na) and not self._hb_seen(view, msg):
                    kind = "na-write" if is_na else "atomic write"
                    raise RaceError(
                        loc, cell.name, tid, msg.writer,
                        f"{kind} vs unsynchronized write",
                    )
        marks = [cell.na_read_marks]
        if is_na:
            marks.append(cell.at_read_marks)
        for table in marks:
            for reader, clock in table.items():
                if reader == tid:
                    continue
                tau = self.thread_clocks.get(reader)
                if tau is None or view.get(tau) < clock:
                    kind = "na-write" if is_na else "atomic write"
                    raise RaceError(
                        loc, cell.name, tid, reader,
                        f"{kind} vs unsynchronized read",
                    )

    def mark_read(self, loc: int, tid: int, clock: int, is_na: bool) -> None:
        cell = self.locations[loc]
        table = cell.na_read_marks if is_na else cell.at_read_marks
        prev = table.get(tid, 0)
        if clock > prev:
            table[tid] = clock

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def append(
        self,
        loc: int,
        val: Any,
        view: View,
        writer: Optional[int],
        wclock: int,
        is_na: bool,
    ) -> Message:
        cell = self.locations[loc]
        history = cell.history
        msg = _message(
            Message, (loc, len(history), val, view, writer, wclock, is_na))
        history.append(msg)
        if is_na:
            cell.has_na_write = True
        return msg

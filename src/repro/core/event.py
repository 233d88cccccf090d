"""Library events: the vertices of Compass event graphs.

An event records one committed library operation, exactly as in the
paper's Figure 2::

    Event ::= (type, view, logview)

* ``kind``  — the operation descriptor (``Enq(v)``, ``Deq(v)``,
  ``Deq(EMPTY)``, ``Push(v)``, ``Pop(v)``, ``Exchange(v1, v2)``, ...);
* ``view``  — the *physical* view of the committing thread at the commit
  point (used to interact with memory-level reasoning);
* ``logview`` — the *logical* view: the set of event ids of operations of
  the same library object that happen-before this operation's commit.
  ``e in G(d).logview`` is written ``(e, d) in G.lhb``.

Additionally each event carries the committing thread id and its position
in the global commit order (the order in which commits hit the shared
state), which the paper's specs observe through the atomic update of the
shared graph ``G -> G'``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, FrozenSet, NamedTuple

from ..rmc.view import View


class _Empty:
    """Singleton for the empty-dequeue / empty-pop return (paper's ε)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "EMPTY"


class _Failed:
    """Singleton for a failed exchange (paper's ⊥)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "FAILED"


EMPTY = _Empty()
FAILED = _Failed()


# ----------------------------------------------------------------------
# Event kinds
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Enq:
    """A queue enqueue of ``val``."""

    val: Any


@dataclass(frozen=True)
class Deq:
    """A queue dequeue returning ``val`` (or ``EMPTY`` for ε)."""

    val: Any

    @property
    def is_empty(self) -> bool:
        return self.val is EMPTY


@dataclass(frozen=True)
class Push:
    """A stack push of ``val``."""

    val: Any


@dataclass(frozen=True)
class Pop:
    """A stack pop returning ``val`` (or ``EMPTY`` for ε)."""

    val: Any

    @property
    def is_empty(self) -> bool:
        return self.val is EMPTY


@dataclass(frozen=True)
class Take:
    """A work-stealing deque *owner* removal returning ``val`` (or EMPTY).

    Part of the work-stealing deque instance (the paper's §6 future work,
    built here): the owner pushes and takes at the young end, thieves
    steal at the old end.
    """

    val: Any

    @property
    def is_empty(self) -> bool:
        return self.val is EMPTY


@dataclass(frozen=True)
class Steal:
    """A work-stealing deque *thief* removal returning ``val`` (or EMPTY)."""

    val: Any

    @property
    def is_empty(self) -> bool:
        return self.val is EMPTY


@dataclass(frozen=True)
class Exchange:
    """An exchange that gave ``gave`` and received ``recv`` (⊥ = FAILED)."""

    gave: Any
    recv: Any

    @property
    def failed(self) -> bool:
        return self.recv is FAILED


# ----------------------------------------------------------------------
# The event record
# ----------------------------------------------------------------------

class Event(NamedTuple):
    """One committed operation of one library object.

    A named tuple: immutable, value-equal, and cheap to build (one per
    commit).
    """

    eid: int
    kind: Any
    view: View
    logview: FrozenSet[int]
    thread: int
    commit_index: int

    def __repr__(self) -> str:
        return (f"Event(e{self.eid}, {self.kind!r}, t{self.thread}, "
                f"@{self.commit_index})")

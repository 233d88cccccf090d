"""Elimination stack: Treiber base stack + exchanger, composed (§4.1).

The implementation is *exactly* the paper's: each try-operation first tries
the base stack and, on a lost race, tries to eliminate through the
exchanger — a push offers its value hoping a pop takes it; a pop offers
``SENTINEL`` hoping to receive a pushed value.  No new atomic instructions
are introduced: the composition is synchronization-free.

The *verification* side is the paper's simulation, rendered as a graph
construction (:func:`compose_elim_graph`): every base-stack event maps to
an elimination-stack event, and every successful exchange pair between a
value ``v`` and ``SENTINEL`` maps to an ES ``Push(v)`` immediately followed
by an ES ``Pop(v)``.  Because the exchanger commits matching pairs
atomically (adjacent commit indices), the pushed element is popped
"immediately": no concurrent commit can observe the intermediate state,
which is what re-establishing LIFO requires.  All other exchange events
(failures, pop–pop and push–push meetings) are ignored by the simulation,
as in the paper.

The composed graph is then checked against ``StackConsistent`` — the
closed-proof analogue of the paper's modular ES verification.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from ..core.event import Exchange, FAILED, Pop, Push
from ..core.graph import Graph
from ..core.event import Event
from ..rmc.memory import Memory
from .base import LibraryObject
from .exchanger import Exchanger
from .treiber import FAIL_RACE, TreiberStack


class _Sentinel:
    """The pop-side offer value (paper's SENTINEL)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "SENTINEL"


SENTINEL = _Sentinel()


class ElimStack(LibraryObject):
    """An elimination stack composed of a Treiber stack and an exchanger."""

    kind = "stack"

    def __init__(self, mem: Memory, name: str, slots: int = 1,
                 patience: int = 2, attempts: int = 1,
                 elim_only: bool = False):
        super().__init__(mem, name)
        self.base = TreiberStack(mem, f"{name}.base")
        self.ex = Exchanger(mem, f"{name}.ex", slots=slots)
        self.patience = patience
        self.attempts = attempts
        #: Skip the base stack entirely: every operation goes through the
        #: exchanger.  Not a useful stack (operations block on partners)
        #: but a high-pressure configuration for exercising the pair
        #: commit discipline and the composed-graph simulation.
        self.elim_only = elim_only

    @classmethod
    def setup(cls, mem: Memory, name: str = "es", slots: int = 1,
              patience: int = 2, attempts: int = 1,
              elim_only: bool = False) -> "ElimStack":
        return cls(mem, name, slots=slots, patience=patience,
                   attempts=attempts, elim_only=elim_only)

    # ------------------------------------------------------------------
    # Operations (paper §4.1, verbatim structure)
    # ------------------------------------------------------------------
    def try_push(self, v: Any):
        """One attempt: base stack first, then elimination."""
        if not self.elim_only:
            ok = yield from self.base.try_push(v)
            if ok:
                return True
        r = yield from self.ex.exchange(v, patience=self.patience,
                                        attempts=self.attempts)
        return r is SENTINEL

    def try_pop(self):
        """One attempt: a value, ``EMPTY``, or ``FAIL_RACE``."""
        if not self.elim_only:
            r = yield from self.base.try_pop()
            if r is not FAIL_RACE:
                return r
        r2 = yield from self.ex.exchange(SENTINEL, patience=self.patience,
                                         attempts=self.attempts)
        if r2 is not SENTINEL and r2 is not FAILED:
            return r2
        return FAIL_RACE

    def push(self, v: Any):
        while True:
            ok = yield from self.try_push(v)
            if ok:
                return

    def pop(self):
        while True:
            r = yield from self.try_pop()
            if r is not FAIL_RACE:
                return r

    # ------------------------------------------------------------------
    # The simulation: composed elimination-stack event graph
    # ------------------------------------------------------------------
    def graph(self) -> Graph:
        return compose_elim_graph(self.base, self.ex)


def compose_elim_graph(base: TreiberStack, ex: Exchanger) -> Graph:
    """Build the elimination stack's event graph from its parts.

    This is the executable simulation relation of §4.1:

    * every base-stack event becomes an ES event unchanged;
    * every successful ``v ↔ SENTINEL`` exchange pair becomes an ES
      ``Push(v)`` at the pair's lower commit index immediately followed by
      an ES ``Pop(v)`` at the higher one (the pair committed atomically,
      so nothing sits in between and LIFO sees the element popped
      immediately);
    * other exchanges (failures, push–push and pop–pop meetings) are
      ignored.

    Logical views are recomputed from physical views against the union
    ghost table, so cross-library lhb (a base push happening-before an
    eliminated pop, via any synchronization) composes for free.  A pair's
    *visibility ghost* is the **helper's**: having merely observed the
    helpee's offer does not mean having observed the exchange — the pair
    enters the graph only at the helper's commit (the paper's intermediate
    states, which non-exchanger operations must never observe).
    """
    # (kind, source event, visibility ghost) per prospective ES event.
    entries: List[Tuple[Any, Event, int]] = []
    base_index: Dict[int, int] = {}

    for eid, ev in sorted(base.registry.events.items()):
        base_index[eid] = len(entries)
        entries.append((ev.kind, ev, base.registry.ghosts[eid]))

    # Successful v↔SENTINEL exchange pairs become (Push, Pop) pairs.
    pair_of: Dict[int, int] = {}
    for a, b in ex.registry.so:
        pair_of[a] = b
    seen = set()
    pair_ids: List[Tuple[int, int]] = []  # (push es-id, pop es-id)
    for eid, ev in sorted(ex.registry.events.items()):
        if not isinstance(ev.kind, Exchange) or ev.kind.failed:
            continue
        peer = pair_of.get(eid)
        if peer is None or frozenset((eid, peer)) in seen:
            continue
        seen.add(frozenset((eid, peer)))
        peer_ev = ex.registry.events[peer]
        if ev.kind.gave is SENTINEL and peer_ev.kind.gave is not SENTINEL:
            pusher, popper = peer_ev, ev
        elif peer_ev.kind.gave is SENTINEL and ev.kind.gave is not SENTINEL:
            pusher, popper = ev, peer_ev
        else:
            continue  # push–push or pop–pop meeting: ignored
        helper = max(pusher, popper, key=lambda e: e.commit_index)
        helper_ghost = ex.registry.ghosts[helper.eid]
        pair_ids.append((len(entries), len(entries) + 1))
        entries.append((Push(pusher.kind.gave), pusher, helper_ghost))
        entries.append((Pop(pusher.kind.gave), popper, helper_ghost))

    ghosts = [g for (_k, _ev, g) in entries]
    events: Dict[int, Event] = {}
    for es_id, (kind, src, _g) in enumerate(entries):
        logview = {f for f, gf in enumerate(ghosts) if src.view.get(gf) >= 1}
        logview.add(es_id)
        events[es_id] = Event(
            eid=es_id,
            kind=kind,
            view=src.view,
            logview=frozenset(logview),
            thread=src.thread,
            commit_index=src.commit_index,
        )

    so = {(base_index[a], base_index[b]) for a, b in base.registry.so}

    # Eliminated pairs: the simulation commits push-then-pop atomically.
    for push_id, pop_id in pair_ids:
        push_ev, pop_ev = events[push_id], events[pop_id]
        lo = min(push_ev.commit_index, pop_ev.commit_index)
        hi = max(push_ev.commit_index, pop_ev.commit_index)
        events[push_id] = Event(
            eid=push_id, kind=push_ev.kind, view=push_ev.view,
            logview=(push_ev.logview | {push_id}) - {pop_id},
            thread=push_ev.thread, commit_index=lo)
        events[pop_id] = Event(
            eid=pop_id, kind=pop_ev.kind,
            view=push_ev.view.join(pop_ev.view),
            logview=push_ev.logview | pop_ev.logview | {push_id, pop_id},
            thread=pop_ev.thread, commit_index=hi)
        so.add((push_id, pop_id))

    return Graph(events=events, so=frozenset(so))

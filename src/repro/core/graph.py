"""Event graphs ``G = (events, so)`` with derived ``lhb``.

The graph is the client-facing abstraction of a library's behaviour
(paper Figure 2, bottom-left): a map from event ids to events plus the
synchronized-with relation ``so``; the local-happens-before relation
``lhb`` is derived from the events' logical views
(``(e, d) in G.lhb  iff  e in G(d).logview``).

Graphs here additionally expose the *commit order* (the order in which
commits hit the shared state), which the paper's logically atomic triples
observe step by step through ``G ⊑ G'`` extensions; ``prefix(k)`` recovers
the graph as it was at any point, which is what consistency conditions
like QUEUE-EMPDEQ quantify over ("has not been dequeued *in G*").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterable, List, Set, Tuple

from .event import Event
from .registry import EventRegistry


@dataclass(frozen=True)
class Graph:
    """An immutable event graph snapshot.

    ``parts`` memoizes what the spec checks derive from the graph
    (`repro.core.spec_styles`), so the styles checked on one snapshot
    share them; it takes no part in comparison or ``repr``.
    """

    events: Dict[int, Event]
    so: FrozenSet[Tuple[int, int]]
    parts: Dict[Any, Any] = field(default_factory=dict, init=False,
                                  repr=False, compare=False)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_registry(cls, registry: EventRegistry) -> "Graph":
        return cls(events=dict(registry.events), so=frozenset(registry.so))

    @classmethod
    def compose(cls, graphs: Iterable["Graph"],
                relabel: bool = False) -> "Graph":
        """Union of disjoint graphs (for multi-object client protocols).

        Event ids must already be disjoint unless ``relabel`` is set, in
        which case events are renumbered (offsets per graph) — logical
        views and ``so`` are renumbered accordingly.
        """
        events: Dict[int, Event] = {}
        so: Set[Tuple[int, int]] = set()
        offset = 0
        for g in graphs:
            if relabel:
                mapping = {eid: eid + offset for eid in g.events}
                for eid, ev in g.events.items():
                    events[mapping[eid]] = Event(
                        eid=mapping[eid],
                        kind=ev.kind,
                        view=ev.view,
                        logview=frozenset(mapping[x] for x in ev.logview
                                          if x in mapping),
                        thread=ev.thread,
                        commit_index=ev.commit_index,
                    )
                so.update((mapping[a], mapping[b]) for a, b in g.so)
                offset += (max(g.events) + 1) if g.events else 0
            else:
                overlap = events.keys() & g.events.keys()
                if overlap:
                    raise ValueError(f"overlapping event ids: {overlap}")
                events.update(g.events)
                so.update(g.so)
        return cls(events=events, so=frozenset(so))

    # ------------------------------------------------------------------
    # Relations
    # ------------------------------------------------------------------
    def lhb(self, e: int, d: int) -> bool:
        """Does ``e`` locally-happen-before ``d``?"""
        return e != d and e in self.events[d].logview

    def lhb_pairs(self) -> Set[Tuple[int, int]]:
        return {(e, d) for d, ev in self.events.items()
                for e in ev.logview if e != d}

    def so_partners(self, eid: int) -> List[int]:
        return [b for a, b in self.so if a == eid]

    def so_sources(self, eid: int) -> List[int]:
        return [a for a, b in self.so if b == eid]

    # ------------------------------------------------------------------
    # Views over the graph
    # ------------------------------------------------------------------
    def sorted_events(self) -> List[Event]:
        return sorted(self.events.values(), key=lambda ev: ev.commit_index)

    def prefix(self, commit_index: int) -> "Graph":
        """The graph right before the commit at ``commit_index``."""
        events = {eid: ev for eid, ev in self.events.items()
                  if ev.commit_index < commit_index}
        so = frozenset((a, b) for a, b in self.so
                       if a in events and b in events)
        return Graph(events=events, so=so)

    def of_kind(self, kind_type) -> List[Event]:
        return [ev for ev in self.sorted_events()
                if isinstance(ev.kind, kind_type)]

    def matched(self) -> Dict[int, int]:
        """Map each ``so``-source to its (first) target: enq→deq, push→pop."""
        out: Dict[int, int] = {}
        for a, b in sorted(self.so):
            out.setdefault(a, b)
        return out

    def __len__(self) -> int:
        return len(self.events)

    # ------------------------------------------------------------------
    # Well-formedness (structural invariants of the framework itself)
    # ------------------------------------------------------------------
    def wellformedness_errors(self) -> List[str]:
        """Check structural invariants: logviews reference committed,
        commit-earlier events, contain self, and ``lhb`` is transitive."""
        errors: List[str] = []
        for eid, ev in self.events.items():
            if eid not in ev.logview:
                errors.append(f"e{eid}: logview does not contain itself")
            for dep in ev.logview:
                if dep == eid:
                    continue
                if dep not in self.events:
                    errors.append(f"e{eid}: logview references unknown e{dep}")
                elif self.events[dep].commit_index >= ev.commit_index:
                    errors.append(
                        f"e{eid}: logview references e{dep} which commits later")
        for a, b in self.so:
            if a not in self.events or b not in self.events:
                errors.append(f"so edge ({a},{b}) references unknown event")
        # Transitivity of lhb.
        for d, ev in self.events.items():
            for e in ev.logview:
                if e == d or e not in self.events:
                    continue
                missing = self.events[e].logview - ev.logview
                if missing:
                    errors.append(
                        f"lhb not transitive: e{e} in logview(e{d}) but "
                        f"{sorted(missing)} not")
        return errors

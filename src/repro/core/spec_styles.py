"""The spec-style ladder and per-style runtime checkers.

The paper's families of specifications, ordered by strength (§2–§3):

* ``SEQ``        — sequential Hoare specs (whole-ownership; no concurrency);
* ``LAT_SO_ABS`` — Cosmo-style: logical atomicity + abstract state +
  the synchronized-with relation of matched pairs only;
* ``LAT_HB_ABS`` — + event graphs exposing local-happens-before
  (generalizes Cosmo; verifies the MP client);
* ``LAT_HB``     — event graphs *without* abstract state (satisfiable by
  weaker implementations, e.g. the relaxed Herlihy–Wing queue);
* ``LAT_HB_HIST``— + a linearizable history (a total order ``to`` that
  respects ``lhb`` and interprets sequentially).

A *proof* that an implementation satisfies a style becomes, executably: a
check applied to the event graph (+ commit order) of every explored
execution.  ``ABS`` styles check that the abstract state can be constructed
*at the implementation's natural commit points* — the paper's reason the
Herlihy–Wing queue gets only ``LAT_hb`` (constructing its abstract state
would need commit-point reordering and prophecy, §3.2) shows up here as a
genuine check failure.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from .consistency.base import Violation
from .consistency.deque import check_wsdeque_consistent
from .consistency.exchanger import check_exchanger_consistent
from .consistency.queue import check_queue_consistent
from .consistency.stack import check_stack_consistent
from .event import Deq, Enq, Pop, Push
from .graph import Graph
from .history import check_linearizable_history


class SpecStyle(enum.Enum):
    SEQ = "SEQ"
    LAT_SO_ABS = "LAT_so^abs"
    LAT_HB_ABS = "LAT_hb^abs"
    LAT_HB = "LAT_hb"
    LAT_HB_HIST = "LAT_hb^hist"

    def __str__(self) -> str:
        return self.value


#: Which styles imply which (stronger -> weaker), for matrix reporting.
IMPLICATIONS = {
    SpecStyle.LAT_HB_ABS: (SpecStyle.LAT_SO_ABS, SpecStyle.LAT_HB),
    SpecStyle.LAT_HB_HIST: (SpecStyle.LAT_HB,),
}


@dataclass
class CheckResult:
    """Outcome of checking one graph against one style."""

    style: SpecStyle
    violations: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


CONSISTENCY = {
    "queue": check_queue_consistent,
    "wsdeque": check_wsdeque_consistent,
    "stack": check_stack_consistent,
    "exchanger": check_exchanger_consistent,
}


def _abstract_replay(graph: Graph, kind: str,
                     strict_empty: bool) -> List[Violation]:
    """Replay the commit order maintaining the abstract state.

    ``strict_empty`` (the SC/SEQ reading) additionally requires empty
    dequeues/pops to observe a truly empty state; the relaxed reading
    (paper Fig. 2, Abs-Hb-Deq failure case) does not constrain them.
    """
    violations: List[Violation] = []
    state: List[int] = []
    for ev in graph.sorted_events():
        k = ev.kind
        if kind == "queue" and isinstance(k, Enq) or \
                kind == "stack" and isinstance(k, Push):
            if kind == "queue":
                state.append(ev.eid)
            else:
                state.insert(0, ev.eid)
        elif kind == "queue" and isinstance(k, Deq) or \
                kind == "stack" and isinstance(k, Pop):
            if k.is_empty:
                if strict_empty and state:
                    violations.append(Violation(
                        "ABS-EMPTY",
                        f"e{ev.eid} empty but abstract state {state}"))
                continue
            sources = graph.so_sources(ev.eid)
            if not state:
                violations.append(Violation(
                    "ABS-STATE",
                    f"e{ev.eid} commits on an empty abstract state"))
            elif len(sources) != 1 or state[0] != sources[0]:
                violations.append(Violation(
                    "ABS-STATE",
                    f"e{ev.eid} removes e{sources} but the abstract head "
                    f"is e{state[0]} (commit-point order is not "
                    f"{'FIFO' if kind == 'queue' else 'LIFO'})"))
            if state:
                removed = sources[0] if len(sources) == 1 else None
                if removed in state:
                    state.remove(removed)
                else:
                    state.pop(0)
        else:
            violations.append(Violation(
                "ABS-TYPES", f"e{ev.eid} foreign kind {k!r}"))
    return violations


def _so_view_transfer(graph: Graph) -> List[Violation]:
    """Cosmo-style so tracking: matched pairs transfer physical views."""
    violations = []
    for a, b in sorted(graph.so):
        if a in graph.events and b in graph.events:
            if not graph.events[a].view.leq(graph.events[b].view):
                violations.append(Violation(
                    "SO-VIEW", f"so edge e{a}→e{b} without view transfer"))
            if graph.events[a].commit_index >= graph.events[b].commit_index:
                violations.append(Violation(
                    "SO-ORDER", f"so edge e{a}→e{b} commits out of order"))
    return violations


def _shared(graph: Graph, key, compute, *args) -> List[Violation]:
    """``compute(graph, *args)``, computed once per graph under ``key``.

    Styles checked on the same graph share these parts; callers extend
    their own lists with the result and never mutate it.
    """
    parts = graph.parts
    out = parts.get(key)
    if out is None:
        out = parts[key] = compute(graph, *args)
    return out


def _wellformedness(graph: Graph) -> List[Violation]:
    return [Violation("WELLFORMED", msg)
            for msg in graph.wellformedness_errors()]


def check_style(
    graph: Graph,
    kind: str,
    style: SpecStyle,
    to: Optional[Sequence[int]] = None,
) -> CheckResult:
    """Check one execution's event graph against one spec style.

    The parts several styles share — well-formedness, the consistency
    conditions, the abstract replay and the so view transfer — and the
    linearizability check under a given ``to`` are computed once per
    graph (`Graph.parts`), whatever order the styles are checked in and
    however often the same graph is checked again.
    """
    violations = list(_shared(graph, "wellformed", _wellformedness))
    if style is SpecStyle.SEQ or style is SpecStyle.LAT_SO_ABS:
        strict = style is SpecStyle.SEQ
        violations.extend(_shared(graph, "so-view", _so_view_transfer))
        violations.extend(_shared(graph, ("abs", kind, strict),
                                  _abstract_replay, kind, strict))
    elif style in (SpecStyle.LAT_HB_ABS, SpecStyle.LAT_HB,
                   SpecStyle.LAT_HB_HIST):
        violations.extend(_shared(graph, ("consistency", kind),
                                  CONSISTENCY[kind]))
        if style is SpecStyle.LAT_HB_ABS:
            violations.extend(_shared(graph, ("abs", kind, False),
                                      _abstract_replay, kind, False))
        elif style is SpecStyle.LAT_HB_HIST:
            order = None if to is None else tuple(to)
            violations.extend(_shared(graph, ("hist", kind, order),
                                      check_linearizable_history, kind,
                                      to))
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unknown style {style}")
    return CheckResult(style=style, violations=violations)

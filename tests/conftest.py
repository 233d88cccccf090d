"""Shared test helpers: synthetic graphs and common program factories."""

from __future__ import annotations

import pickle
from typing import Dict, Iterable, Optional, Sequence, Tuple

import pytest

from repro.core.event import Event
from repro.core.graph import Graph
from repro.rmc.view import View

#: Ghost-component base for synthetic event views (must not collide with
#: anything a real execution allocates in the same test).
GHOST_BASE = 10_000


def mk_event(eid: int, kind, logview: Iterable[int], commit_index: int,
             thread: int = 0, view: Optional[View] = None) -> Event:
    """Build a synthetic event whose view encodes its logical view."""
    lv = frozenset(set(logview) | {eid})
    if view is None:
        view = View({GHOST_BASE + e: 1 for e in lv})
    return Event(eid=eid, kind=kind, view=view, logview=lv,
                 thread=thread, commit_index=commit_index)


def mk_graph(events: Sequence[Event],
             so: Iterable[Tuple[int, int]] = ()) -> Graph:
    """Assemble a graph from synthetic events."""
    return Graph(events={ev.eid: ev for ev in events}, so=frozenset(so))


def closed(*event_specs, so=()):
    """Build a graph from (eid, kind, direct_preds) specs with logviews
    transitively closed and commit indices in list order."""
    preds: Dict[int, set] = {}
    for eid, _kind, direct in event_specs:
        preds[eid] = set(direct)
    changed = True
    while changed:
        changed = False
        for eid in preds:
            extra = set()
            for p in preds[eid]:
                extra |= preds.get(p, set())
            if not extra <= preds[eid]:
                preds[eid] |= extra
                changed = True
    events = [mk_event(eid, kind, preds[eid], idx)
              for idx, (eid, kind, _d) in enumerate(event_specs)]
    return mk_graph(events, so)


def assert_value_record(record, fields: Sequence[str]) -> None:
    """The contract of the machine's records (`Message`, `Footprint`,
    `Event`): no field can be assigned, a record built from equal fields
    compares and hashes equal, and a pickle round trip (pool IPC) gives
    an equal record of the same type."""
    values = {name: getattr(record, name) for name in fields}
    for name, value in values.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
    assert {name: getattr(record, name) for name in fields} == values
    twin = type(record)(**values)
    assert twin is not record
    assert twin == record and hash(twin) == hash(record)
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is type(record) and back == record
    assert hash(back) == hash(record)


@pytest.fixture
def rng_seed():
    return 12345

"""Unit tests for small modules: modes, event kinds, library base."""

import pytest

from repro.checking.matrix import default_implementations
from repro.core.event import (EMPTY, FAILED, Deq, Enq, Event, Exchange,
                              Pop, Push, Steal, Take)
from repro.libs.base import LibraryObject, Payload
from repro.rmc import Memory, explore_random
from repro.rmc.modes import (ACQ, ACQ_REL, FENCE_MODES, Mode, NA,
                             READ_MODES, REL, RLX, RMW_MODES, SC,
                             WRITE_MODES)
from repro.rmc.view import View

from ..conftest import assert_value_record, mk_event


class TestModes:
    def test_acquire_classification(self):
        assert ACQ.is_acquire and ACQ_REL.is_acquire and SC.is_acquire
        assert not RLX.is_acquire and not REL.is_acquire
        assert not NA.is_acquire

    def test_release_classification(self):
        assert REL.is_release and ACQ_REL.is_release and SC.is_release
        assert not RLX.is_release and not ACQ.is_release

    def test_atomicity(self):
        assert not NA.is_atomic
        assert all(m.is_atomic for m in (RLX, ACQ, REL, ACQ_REL, SC))

    def test_mode_tables_are_consistent(self):
        assert NA in READ_MODES and NA in WRITE_MODES
        assert NA not in RMW_MODES and NA not in FENCE_MODES
        assert ACQ not in WRITE_MODES and REL not in READ_MODES
        assert set(RMW_MODES) == {RLX, ACQ, REL, ACQ_REL, SC}


class TestSentinels:
    def test_empty_is_singleton(self):
        from repro.core.event import _Empty
        assert _Empty() is EMPTY
        assert repr(EMPTY) == "EMPTY"

    def test_failed_is_singleton(self):
        from repro.core.event import _Failed
        assert _Failed() is FAILED
        assert repr(FAILED) == "FAILED"

    def test_sentinels_distinct(self):
        assert EMPTY is not FAILED


class TestKinds:
    @pytest.mark.parametrize("cls", [Deq, Pop, Take, Steal])
    def test_emptyable_kinds(self, cls):
        assert cls(EMPTY).is_empty
        assert not cls(7).is_empty

    def test_exchange_failed(self):
        assert Exchange("a", FAILED).failed
        assert not Exchange("a", "b").failed

    def test_kind_equality(self):
        assert Enq(1) == Enq(1) and Enq(1) != Enq(2)
        assert Push("x") == Push("x")
        assert Exchange("a", "b") == Exchange("a", "b")

    def test_event_repr_mentions_identity(self):
        ev = Event(eid=3, kind=Enq(7), view=View(), logview=frozenset({3}),
                   thread=1, commit_index=9)
        assert "e3" in repr(ev) and "t1" in repr(ev) and "@9" in repr(ev)


class TestPayloadAndBase:
    def test_payload_identity_semantics(self):
        a, b = Payload(1), Payload(1)
        assert a is not b and a != b  # identity, not value, equality

    def test_payload_eid_assigned_later(self):
        p = Payload("v")
        assert p.eid is None
        p.eid = 4
        assert p.eid == 4

    def test_library_object_owns_registry_and_graph(self):
        mem = Memory()
        lib = LibraryObject(mem, "thing")
        assert lib.registry.name == "thing"
        g = lib.graph()
        assert len(g.events) == 0 and g.so == frozenset()


class TestEventRecord:
    """Events are immutable value records: registries build one per
    commit and graphs, corpora and pool results carry them."""

    FIELDS = ("eid", "kind", "view", "logview", "thread", "commit_index")

    def test_synthetic_events(self):
        for kind in (Enq(1), Deq(EMPTY), Push((2, 3)), Exchange(4, FAILED)):
            assert_value_record(mk_event(3, kind, [1, 2], 5, thread=1),
                                self.FIELDS)

    def test_committed_events_of_an_execution(self):
        impl, = [i for i in default_implementations()
                 if i.name == "ms-queue/ra"]
        scenario = impl.scenario(3, 2, 0)
        checked = 0
        for result in explore_random(scenario.factory, runs=5, seed=1,
                                     max_steps=20_000):
            for case in scenario.extract(result):
                for event in case.graph.events.values():
                    assert_value_record(event, self.FIELDS)
                    checked += 1
        assert checked

    def test_repr_names_the_event(self):
        ev = mk_event(3, Enq(1), [], 5, thread=2)
        assert repr(ev) == "Event(e3, Enq(val=1), t2, @5)"

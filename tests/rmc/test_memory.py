"""Memory, message, and location unit tests."""

import pytest

from repro.rmc import NA, RLX, Memory, View, explore_all
from repro.rmc.litmus import CATALOGUE
from repro.rmc.view import EMPTY_VIEW
from tests.conftest import assert_value_record


class TestAllocation:
    def test_alloc_creates_init_message(self):
        mem = Memory()
        loc = mem.alloc("x", 41)
        cell = mem.location(loc)
        assert len(cell.history) == 1
        init = cell.history[0]
        assert init.val == 41 and init.ts == 0 and init.writer is None

    def test_alloc_distinct_ids(self):
        mem = Memory()
        ids = {mem.alloc(f"l{i}") for i in range(10)}
        assert len(ids) == 10

    def test_alloc_many(self):
        mem = Memory()
        locs = mem.alloc_many([1, 2, 3], "arr")
        assert [mem.value(l) for l in locs] == [1, 2, 3]
        assert mem.location(locs[1]).name == "arr[1]"

    def test_ghosts_have_no_history(self):
        mem = Memory()
        g = mem.alloc_ghost("g")
        assert g not in mem.locations
        assert mem.ghost_names[g] == "g"

    def test_ghosts_and_locations_share_namespace(self):
        mem = Memory()
        ids = [mem.alloc("x"), mem.alloc_ghost("g"), mem.alloc("y")]
        assert len(set(ids)) == 3

    def test_register_thread_allocates_clock(self):
        mem = Memory()
        tau = mem.register_thread(0)
        assert mem.thread_clocks[0] == tau


class TestVisibility:
    def test_visible_respects_frontier(self):
        mem = Memory()
        loc = mem.alloc("x", 0)
        mem.append(loc, 1, EMPTY_VIEW, writer=0, wclock=1, is_na=False)
        mem.append(loc, 2, EMPTY_VIEW, writer=0, wclock=2, is_na=False)
        assert [m.val for m in mem.visible(loc, View({}))] == [0, 1, 2]
        assert [m.val for m in mem.visible(loc, View({loc: 1}))] == [1, 2]
        assert [m.val for m in mem.visible(loc, View({loc: 2}))] == [2]

    def test_latest(self):
        mem = Memory()
        loc = mem.alloc("x", 0)
        mem.append(loc, 9, EMPTY_VIEW, writer=0, wclock=1, is_na=False)
        assert mem.latest(loc).val == 9
        assert mem.value(loc) == 9

    def test_append_assigns_sequential_ts(self):
        mem = Memory()
        loc = mem.alloc("x", 0)
        for i in range(5):
            msg = mem.append(loc, i, EMPTY_VIEW, 0, i + 1, False)
            assert msg.ts == i + 1

    def test_na_flag_tracked(self):
        mem = Memory()
        loc = mem.alloc("x", 0)
        assert not mem.location(loc).has_na_write
        mem.append(loc, 1, EMPTY_VIEW, 0, 1, is_na=True)
        assert mem.location(loc).has_na_write


class TestCommitSequence:
    def test_monotonic(self):
        mem = Memory()
        assert [mem.next_commit_index() for _ in range(4)] == [0, 1, 2, 3]
        assert mem.commit_seq == 4


class TestReadMarks:
    def test_mark_read_keeps_maximum(self):
        mem = Memory()
        loc = mem.alloc("x", 0)
        mem.mark_read(loc, tid=1, clock=5, is_na=True)
        mem.mark_read(loc, tid=1, clock=3, is_na=True)
        assert mem.location(loc).na_read_marks[1] == 5

    def test_na_and_atomic_marks_are_separate(self):
        mem = Memory()
        loc = mem.alloc("x", 0)
        mem.mark_read(loc, 1, 2, is_na=True)
        mem.mark_read(loc, 1, 7, is_na=False)
        cell = mem.location(loc)
        assert cell.na_read_marks[1] == 2
        assert cell.at_read_marks[1] == 7


MESSAGE_FIELDS = ("loc", "ts", "val", "view", "writer", "wclock", "is_na")


class TestMessageRecord:
    """Messages are immutable value records, whoever builds them."""

    def test_appended_and_init_messages(self):
        mem = Memory()
        loc = mem.alloc("x", (7, "payload"))
        mem.append(loc, 1, View({loc: 1, 99: 4}), 0, 3, is_na=True)
        mem.append(loc, None, EMPTY_VIEW, 1, 2, is_na=False)
        for msg in mem.location(loc).history:
            assert_value_record(msg, MESSAGE_FIELDS)

    @pytest.mark.parametrize("name", sorted(CATALOGUE))
    def test_messages_of_litmus_executions(self, name):
        for result in explore_all(CATALOGUE[name]):
            for cell in result.memory.locations.values():
                for msg in cell.history:
                    assert_value_record(msg, MESSAGE_FIELDS)

    def test_equal_fields_equal_messages_across_memories(self):
        a, b = Memory(), Memory()
        la, lb = a.alloc("x", 5), b.alloc("y", 5)
        assert la == lb
        assert a.latest(la) == b.latest(lb)
        assert a.append(la, 1, EMPTY_VIEW, 0, 1, False) != \
            b.append(lb, 1, EMPTY_VIEW, 0, 1, True)

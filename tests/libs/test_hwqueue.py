"""Herlihy–Wing queue: weak behaviours present, graph conditions hold."""

import pytest

from repro.checking.matrix import default_implementations
from repro.core import EMPTY, Deq, Enq, SpecStyle, check_style
from repro.libs import HWQueue
from repro.rmc import Program, RandomDecider, explore_all, explore_random
from repro.rmc.explore import replay


def prog(threads, capacity=8):
    def setup(mem):
        return {"q": HWQueue.setup(mem, "q", capacity=capacity)}
    return lambda: Program(setup, threads)


class TestSequential:
    def test_fifo_single_thread(self):
        def t(env):
            for v in [1, 2, 3]:
                yield from env["q"].enqueue(v)
            out = []
            for _ in range(3):
                out.append((yield from env["q"].dequeue()))
            return out
        r = prog([t])().run(RandomDecider(0))
        assert r.ok and r.returns[0] == [1, 2, 3]

    def test_try_dequeue_empty(self):
        def t(env):
            return (yield from env["q"].try_dequeue())
        r = prog([t])().run(RandomDecider(0))
        assert r.returns[0] is EMPTY
        g = r.env["q"].graph()
        assert len(g.events) == 1

    def test_capacity_overflow_raises(self):
        def t(env):
            for v in range(3):
                yield from env["q"].enqueue(v)
        with pytest.raises(IndexError):
            prog([t], capacity=2)().run(RandomDecider(0))


class TestConcurrent:
    def test_lat_hb_holds_everywhere(self):
        def p1(env):
            yield from env["q"].enqueue(1)
            yield from env["q"].enqueue(2)

        def p2(env):
            yield from env["q"].enqueue(3)

        def c(env):
            out = []
            for _ in range(3):
                out.append((yield from env["q"].try_dequeue()))
            return out
        for r in explore_random(prog([p1, p2, c]), runs=250, seed=4):
            assert r.ok
            g = r.env["q"].graph()
            assert g.wellformedness_errors() == []
            res = check_style(g, "queue", SpecStyle.LAT_HB)
            assert res.ok, [str(v) for v in res.violations]

    def test_abstract_state_style_fails_somewhere(self):
        """§3.2: the HW queue's commit points cannot produce the abstract
        state — the reproduction's stand-in for 'needs prophecy'."""
        def p1(env):
            yield from env["q"].enqueue(1)

        def p2(env):
            yield from env["q"].enqueue(2)

        def c(env):
            out = []
            for _ in range(2):
                out.append((yield from env["q"].try_dequeue()))
            return out
        failures = 0
        for r in explore_random(prog([p1, p2, c, c]), runs=400, seed=9):
            if not r.ok:
                continue
            g = r.env["q"].graph()
            if not check_style(g, "queue", SpecStyle.LAT_HB_ABS).ok:
                failures += 1
        assert failures > 0

    def test_exhaustive_small(self):
        def p(env):
            yield from env["q"].enqueue(1)

        def c(env):
            return (yield from env["q"].try_dequeue())
        seen_empty = seen_value = False
        for r in explore_all(prog([p, c], capacity=2), max_steps=500):
            assert r.ok
            g = r.env["q"].graph()
            assert check_style(g, "queue", SpecStyle.LAT_HB).ok
            if r.returns[1] is EMPTY:
                seen_empty = True
            elif r.returns[1] == 1:
                seen_value = True
        assert seen_empty and seen_value

    def test_spinning_dequeue_extracts(self):
        def p(env):
            yield from env["q"].enqueue(7)

        def c(env):
            return (yield from env["q"].dequeue())
        for r in explore_random(prog([p, c]), runs=60, seed=2):
            assert r.ok and r.returns[1] == 7

    def test_no_races(self):
        def p(env):
            yield from env["q"].enqueue(1)

        def c(env):
            yield from env["q"].try_dequeue()
        assert all(r.race is None for r in
                   explore_random(prog([p, p, c, c]), runs=200, seed=8))

    def test_element_extracted_at_most_once(self):
        def p(env):
            yield from env["q"].enqueue("x")

        def c(env):
            return (yield from env["q"].try_dequeue())
        for r in explore_random(prog([p, c, c]), runs=200, seed=6):
            got = [r.returns[1], r.returns[2]]
            assert got.count("x") <= 1


class TestHistWitness:
    """Exhaustive exploration refutes ``LAT_hb^hist`` for the relaxed
    queue's ``try_dequeue``.

    The catalogue row hw-queue/rlx on ``scenario(3, 3, 2)`` fails
    ``LAT_hb^hist`` (``HIST-EXISTS``) on 225 of its first 2000 DPOR
    executions; this is the first of them (execution 11).  Thread 1
    enqueues 102 into slot 1 and later starts a ``try_dequeue`` that
    reads ``back`` = 2, so it scans slots 0 and 1 only.  Meanwhile
    thread 2 enqueues 103 into slot 2 and then dequeues 102 from slot 1,
    so thread 1's scan finds both slots empty and returns EMPTY.  An
    empty queue at that dequeue needs 102 removed first, hence 103
    enqueued first, and 103 is never dequeued: no lhb-respecting order
    interprets.  The single scan is at fault, not weak memory: the sc
    model's DPOR tree of the same scenario has executions of this shape
    too.  ``LAT_hb`` holds, because QUEUE-EMPDEQ only asks that every
    enqueue in the empty dequeue's logical view was dequeued in the
    commit-order prefix.
    """

    TRACE = [(3, 0), (3, 0), (1, 0), (3, 0), (3, 0), (3, 0), (1, 0),
             (3, 0), (3, 0), (3, 0), (2, 0), (2, 0), (2, 0), (2, 0),
             (1, 0), (2, 0), (2, 0), (2, 0), (1, 0), (2, 0), (2, 1),
             (2, 1), (3, 0), (2, 1), (2, 1), (2, 1), (2, 1), (2, 1),
             (1, 0), (2, 1), (2, 1), (1, 0), (1, 0)]

    def graph(self):
        impl, = [i for i in default_implementations()
                 if i.name == "hw-queue/rlx"]
        scenario = impl.scenario(3, 3, 2)
        result = replay(scenario.factory, self.TRACE)
        assert result.ok
        case, = scenario.extract(result)
        return case.graph

    def test_hist_refuted_and_lat_hb_holds(self):
        g = self.graph()
        hist = check_style(g, "queue", SpecStyle.LAT_HB_HIST)
        assert [v.rule for v in hist.violations] == ["HIST-EXISTS"]
        assert check_style(g, "queue", SpecStyle.LAT_HB).ok

    def test_witness_shape(self):
        g = self.graph()
        by_kind = {ev.kind: ev for ev in g.events.values()}
        enq102, enq103 = by_kind[Enq(102)], by_kind[Enq(103)]
        deq102 = by_kind[Deq(102)]
        empty = [ev for ev in g.events.values()
                 if ev.kind == Deq(EMPTY) and ev.thread == enq102.thread
                 and ev.commit_index > enq102.commit_index]
        assert len(empty) == 1
        # 102 precedes the empty dequeue, 103 precedes 102's dequeue.
        assert g.lhb(enq102.eid, empty[0].eid)
        assert enq103.thread == deq102.thread != enq102.thread
        assert g.lhb(enq103.eid, deq102.eid)
        # 103 is never dequeued.
        assert not g.so_partners(enq103.eid)

"""Spec-style checker tests: the ladder's distinguishing behaviours."""

import pytest
from hypothesis import given, settings

from repro.checking.matrix import default_implementations
from repro.checking.runner import elim_stack_cases
from repro.core import (Deq, EMPTY, Enq, Pop, Push, SpecStyle, check_style)
from repro.core.consistency.base import Violation
from repro.core.graph import Graph
from repro.core.spec_styles import (CONSISTENCY, IMPLICATIONS,
                                    _abstract_replay, _so_view_transfer,
                                    check_linearizable_history)
from repro.engine.catalog import exchanger_pair_scenario, wsdeque_scenario
from repro.rmc import explore_random

from ..conftest import closed
from .test_mutation_properties import corrupted_graph, corrupted_stack_graph


def ok(graph, kind, style, to=None):
    return check_style(graph, kind, style, to=to).ok


def rules(graph, kind, style, to=None):
    return {v.rule for v in check_style(graph, kind, style, to=to).violations}


FIFO_COMMITS = closed((0, Enq(1), []), (1, Enq(2), [0]),
                      (2, Deq(1), [0, 1]), (3, Deq(2), [0, 1, 2]),
                      so=[(0, 2), (1, 3)])

# Commit order takes the *second* enqueue first: graph-consistent for
# unsynchronized dequeues, but the abstract state cannot be constructed.
NON_FIFO_COMMITS = closed((0, Enq(1), []), (1, Enq(2), [0]),
                          (2, Deq(2), [1]), (3, Deq(1), [0]),
                          so=[(1, 2), (0, 3)])

EMPTY_WHILE_NONEMPTY = closed((0, Enq(1), []), (1, Deq(EMPTY), []))


class TestSeq:
    def test_strict_fifo_ok(self):
        assert ok(FIFO_COMMITS, "queue", SpecStyle.SEQ)

    def test_strict_empty_rejected(self):
        assert "ABS-EMPTY" in rules(EMPTY_WHILE_NONEMPTY, "queue",
                                    SpecStyle.SEQ)


class TestLatSoAbs:
    def test_relaxed_empty_allowed(self):
        """Unlike SEQ, the RMC abstract-state styles do not constrain
        empty dequeues (Fig. 2 Abs-Hb-Deq's failure case)."""
        assert ok(EMPTY_WHILE_NONEMPTY, "queue", SpecStyle.LAT_SO_ABS)

    def test_commit_point_fifo_required(self):
        assert "ABS-STATE" in rules(NON_FIFO_COMMITS, "queue",
                                    SpecStyle.LAT_SO_ABS)

    def test_no_lhb_conditions(self):
        """so-abs does not see lhb: an EMPDEQ-violating graph passes."""
        g = closed((0, Enq(1), []), (1, Deq(EMPTY), [0]))
        assert ok(g, "queue", SpecStyle.LAT_SO_ABS)


class TestLatHbAbs:
    def test_fifo_commits_ok(self):
        assert ok(FIFO_COMMITS, "queue", SpecStyle.LAT_HB_ABS)

    def test_non_fifo_commits_fail(self):
        assert "ABS-STATE" in rules(NON_FIFO_COMMITS, "queue",
                                    SpecStyle.LAT_HB_ABS)

    def test_empdeq_enforced(self):
        g = closed((0, Enq(1), []), (1, Deq(EMPTY), [0]))
        assert "QUEUE-EMPDEQ" in rules(g, "queue", SpecStyle.LAT_HB_ABS)


class TestLatHb:
    def test_non_fifo_commits_ok(self):
        """The whole point of dropping the abstract state (§3.2)."""
        assert ok(NON_FIFO_COMMITS, "queue", SpecStyle.LAT_HB)

    def test_consistency_still_enforced(self):
        g = closed((0, Enq(1), []), (1, Deq(2), [0]), so=[(0, 1)])
        assert not ok(g, "queue", SpecStyle.LAT_HB)

    def test_stack_dispatch(self):
        g = closed((0, Push(1), []), (1, Pop(1), [0]), so=[(0, 1)])
        assert ok(g, "stack", SpecStyle.LAT_HB)


class TestLatHbHist:
    def test_reorderable_graph_passes_search(self):
        assert ok(NON_FIFO_COMMITS, "queue", SpecStyle.LAT_HB_HIST)

    def test_unlinearizable_graph_fails(self):
        g = closed((0, Enq(1), []), (1, Enq(2), [0]),
                   (2, Deq(2), [0, 1]), (3, Deq(1), [0, 1, 2]),
                   so=[(1, 2), (0, 3)])
        assert "HIST-EXISTS" in rules(g, "queue", SpecStyle.LAT_HB_HIST)

    def test_explicit_to_validated(self):
        # [0,1,3,2] respects lhb (0→1, 0,1→2, 0→3) and interprets FIFO:
        # enq 1, enq 2, deq 1, deq 2.
        assert ok(NON_FIFO_COMMITS, "queue", SpecStyle.LAT_HB_HIST,
                  to=[0, 1, 3, 2])
        # The raw commit order dequeues value 2 while 1 is at the head.
        assert not ok(NON_FIFO_COMMITS, "queue", SpecStyle.LAT_HB_HIST,
                      to=[0, 1, 2, 3])


class TestLadderStructure:
    def test_implications_declared(self):
        assert SpecStyle.LAT_SO_ABS in IMPLICATIONS[SpecStyle.LAT_HB_ABS]
        assert SpecStyle.LAT_HB in IMPLICATIONS[SpecStyle.LAT_HB_ABS]
        assert SpecStyle.LAT_HB in IMPLICATIONS[SpecStyle.LAT_HB_HIST]

    @pytest.mark.parametrize("g", [FIFO_COMMITS, NON_FIFO_COMMITS,
                                   EMPTY_WHILE_NONEMPTY])
    def test_hb_abs_implies_weaker_styles(self, g):
        """Empirically: any graph passing LAT_hb^abs passes LAT_so^abs
        and LAT_hb (on the shapes exercised here)."""
        if ok(g, "queue", SpecStyle.LAT_HB_ABS):
            assert ok(g, "queue", SpecStyle.LAT_SO_ABS)
            assert ok(g, "queue", SpecStyle.LAT_HB)

    def test_wellformedness_reported_under_any_style(self):
        from ..conftest import mk_event, mk_graph
        bad = mk_graph([mk_event(0, Enq(1), [5], 0)])
        for style in SpecStyle:
            assert any(v.rule == "WELLFORMED" for v in
                       check_style(bad, "queue", style).violations)


# ----------------------------------------------------------------------
# Shared spec parts: computed once per graph, equal to per-style work
# ----------------------------------------------------------------------

STYLES = tuple(SpecStyle)


def reference_check(graph, kind, style, to=None):
    """Every part recomputed for the one style, in the checker's order."""
    violations = [Violation("WELLFORMED", msg)
                  for msg in graph.wellformedness_errors()]
    if style is SpecStyle.SEQ:
        violations.extend(_so_view_transfer(graph))
        violations.extend(_abstract_replay(graph, kind, strict_empty=True))
    elif style is SpecStyle.LAT_SO_ABS:
        violations.extend(_so_view_transfer(graph))
        violations.extend(_abstract_replay(graph, kind, strict_empty=False))
    elif style is SpecStyle.LAT_HB_ABS:
        violations.extend(CONSISTENCY[kind](graph))
        violations.extend(_abstract_replay(graph, kind, strict_empty=False))
    elif style is SpecStyle.LAT_HB:
        violations.extend(CONSISTENCY[kind](graph))
    else:
        violations.extend(CONSISTENCY[kind](graph))
        violations.extend(check_linearizable_history(graph, kind, to=to))
    return violations


def outcome(check, graph, kind, style, to):
    """A comparable record of one check: its violations, or what it
    raised (some parts reject a kind they do not model)."""
    try:
        out = check(graph, kind, style, to)
    except Exception as err:  # noqa: BLE001 — compared, not hidden
        return ("raised", type(err).__name__, str(err))
    violations = out if isinstance(out, list) else out.violations
    if not isinstance(out, list):
        assert out.style is style and out.ok == (not violations)
    return [(v.rule, v.detail) for v in violations]


def assert_shared_equals_reference(graph, kind, to=None):
    want = {s: outcome(reference_check, graph, kind, s, to) for s in STYLES}
    for order in (STYLES, STYLES[::-1]):
        # A fresh snapshot per order: every order starts with no parts.
        fresh = Graph(events=graph.events, so=graph.so)
        got = {s: outcome(check_style, fresh, kind, s, to) for s in order}
        assert got == want, [s for s in STYLES if got[s] != want[s]]
        # Checked again, every part now comes from the memo.
        again = {s: outcome(check_style, fresh, kind, s, to)
                 for s in order}
        assert again == want


def library_cases():
    """Graph cases from random executions of every catalogue library, on
    the matrix's t3xo3 shape and schedule seed (where hw-queue/rlx and
    vyukov-queue/rlx already fail the *_abs styles)."""
    scenarios = []
    for impl in default_implementations():
        scenario = impl.scenario(3, 3, 1)
        if impl.name == "elim-stack":
            scenario.extract = elim_stack_cases("lib")
        scenarios.append((impl.name, scenario))
    scenarios.append(("exchanger", exchanger_pair_scenario(threads=3)))
    scenarios.append(("wsdeque", wsdeque_scenario()))
    out = []
    for name, scenario in scenarios:
        for result in explore_random(scenario.factory, runs=12,
                                     seed=1 * 977 + 13, max_steps=20_000):
            if result.ok:
                out.extend((name, case) for case in scenario.extract(result))
    return out


LIBRARY_CASES = library_cases()


class TestSharedSpecParts:
    def test_every_library_and_failing_row_is_covered(self):
        names = {name for name, _case in LIBRARY_CASES}
        assert names >= {impl.name for impl in default_implementations()}
        assert {"exchanger", "wsdeque"} <= names
        labels = {case.label for name, case in LIBRARY_CASES
                  if name == "elim-stack"}
        assert labels == {"elim-stack", "exchanger"}
        # The rows that fail the *_abs styles do fail here.
        for row in ("hw-queue/rlx", "vyukov-queue/rlx"):
            assert any(not check_style(case.graph, case.kind,
                                       SpecStyle.LAT_HB_ABS).ok
                       for name, case in LIBRARY_CASES if name == row), row

    @pytest.mark.parametrize("library",
                             sorted({name for name, _c in LIBRARY_CASES}))
    def test_library_graphs(self, library):
        for name, case in LIBRARY_CASES:
            if name == library:
                assert_shared_equals_reference(case.graph, case.kind,
                                               case.to)

    @pytest.mark.parametrize("g", [FIFO_COMMITS, NON_FIFO_COMMITS,
                                   EMPTY_WHILE_NONEMPTY])
    def test_hand_built_graphs(self, g):
        assert_shared_equals_reference(g, "queue")
        assert_shared_equals_reference(g, "queue", to=[0, 1, 3, 2]
                                       if len(g) == 4 else None)

    @given(corrupted_graph())
    @settings(max_examples=60, deadline=None)
    def test_corrupted_queue_graphs(self, g):
        assert_shared_equals_reference(g, "queue")

    @given(corrupted_stack_graph())
    @settings(max_examples=60, deadline=None)
    def test_corrupted_stack_graphs(self, g):
        assert_shared_equals_reference(g, "stack")

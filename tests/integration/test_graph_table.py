"""A run's table of distinct graphs changes no report.

Exhaustive runs check each execution against the first equal graph of
the run (`repro.checking.runner.record_result`'s ``graphs``), so spec
checks reuse that graph's parts.  Every report built that way — by the
serial loop, a 2-worker pool run and a dist run with audits — must equal,
byte for byte, the reference loop that checks every graph on its own.
"""

from __future__ import annotations

import threading

import pytest

from repro.checking import runner
from repro.checking.matrix import default_implementations
from repro.checking.runner import (EngineParams, GraphCase, Scenario,
                                   ScenarioReport, StyleTally,
                                   check_scenario, elim_stack_cases,
                                   record_result)
from repro.core import spec_styles
from repro.core.event import Deq, EMPTY, Enq
from repro.core.graph import Graph
from repro.core.spec_styles import SpecStyle, check_style
from repro.engine import ScenarioSpec, build_scenario
from repro.engine.dist import Coordinator, DistParams, run_node
from repro.engine.merge import report_to_json
from repro.engine.pool import run_scenario
from repro.rmc.dpor import DporStats, explore_all_dpor
from repro.rmc.explore import explore_all
from repro.rmc.machine import ExecutionResult
from repro.rmc.view import View

from ..conftest import mk_event, mk_graph

STYLES = tuple(SpecStyle)
ROWS = {impl.name: impl for impl in default_implementations()}


def reference(scenario, **options) -> ScenarioReport:
    """`check_scenario`'s serial loop, every graph checked on its own."""
    params = EngineParams(**options)
    report = ScenarioReport(scenario=scenario.name)
    report.styles = {s: StyleTally() for s in params.styles}
    dstats = DporStats()
    explore = explore_all_dpor if params.dpor_on() else explore_all
    extra = {"stats": dstats} if params.dpor_on() else {}
    for result in explore(scenario.factory, max_steps=params.max_steps,
                          max_executions=params.max_executions, **extra):
        record_result(report, scenario, result, params.styles)
        if report.executions >= params.max_executions:
            break
    report.pruned_subtrees = dstats.pruned_subtrees
    report.exhausted = report.executions < params.max_executions
    return report


def as_json(report: ScenarioReport):
    data = report_to_json(report)
    data.pop("seconds")
    return data


def assert_table_invisible(scenario, **options) -> ScenarioReport:
    want = reference(scenario, exhaustive=True, **options)
    got = check_scenario(scenario, exhaustive=True, **options)
    assert as_json(got) == as_json(want)
    return want


def mixed(impl: str, threads: int, ops: int, seed: int) -> ScenarioSpec:
    return ScenarioSpec("mixed-stress", kwargs={
        "impl": impl, "threads": threads, "ops": ops, "seed": seed})


class TestSerialLoop:
    @pytest.mark.parametrize("dpor", [True, False], ids=["dpor", "naive"])
    @pytest.mark.parametrize("shape", [(2, 2), (3, 2)],
                             ids=["t2xo2", "t3xo2"])
    @pytest.mark.parametrize("row", sorted(ROWS))
    def test_catalogue_row(self, row, shape, dpor):
        scenario = ROWS[row].scenario(*shape, 0)
        # The locked rows' spinning executions truncate at max_steps.
        assert_table_invisible(scenario, styles=STYLES, dpor=dpor,
                               max_executions=300, max_steps=500)

    def test_abs_failing_row(self):
        want = assert_table_invisible(
            ROWS["hw-queue/rlx"].scenario(3, 2, 0), styles=STYLES,
            max_executions=2000)
        assert want.styles[SpecStyle.LAT_HB_ABS].failed == 168
        assert want.styles[SpecStyle.LAT_SO_ABS].failed == 168

    def test_hist_failing_row(self):
        want = assert_table_invisible(
            ROWS["hw-queue/rlx"].scenario(3, 3, 2), styles=STYLES,
            max_executions=2000)
        assert want.styles[SpecStyle.LAT_HB_HIST].failed == 225
        assert want.styles[SpecStyle.LAT_HB].failed == 0

    def test_raced_row(self):
        want = assert_table_invisible(
            ROWS["ms-queue/broken-rlx"].scenario(3, 2, 2), styles=STYLES,
            max_executions=200)
        assert want.raced > 0

    def test_elim_stack_exchanger_case(self):
        scenario = ROWS["elim-stack"].scenario(3, 2, 0)
        scenario.extract = elim_stack_cases("lib")
        want = assert_table_invisible(scenario, styles=STYLES,
                                      max_executions=300)
        # The exchanger case is checked under LAT_hb only.
        assert want.styles[SpecStyle.LAT_HB].checked \
            == 2 * want.styles[SpecStyle.SEQ].checked

    def test_treiber_to(self):
        scenario = ROWS["treiber/rel-acq"].scenario(3, 3, 0)
        result = next(explore_all(scenario.factory))
        assert scenario.extract(result)[0].to is not None
        assert_table_invisible(scenario, styles=STYLES, max_executions=500)


class TestShardedRuns:
    def test_two_worker_pool(self):
        spec = mixed("hw-queue/rlx", 3, 2, 0)
        scenario = build_scenario(spec)
        want = reference(scenario, exhaustive=True, styles=STYLES,
                         max_executions=2000)
        got = check_scenario(scenario, spec=spec, exhaustive=True,
                             styles=STYLES, max_executions=2000, workers=2,
                             target_shards=4)
        assert as_json(got) == as_json(want)

    def test_dist_with_audits(self):
        spec = mixed("hw-queue/rlx", 3, 3, 2)
        params = EngineParams(exhaustive=True, styles=STYLES,
                              max_executions=1000, target_shards=4,
                              audit_fraction=1.0)
        want = reference(build_scenario(spec), exhaustive=True,
                         styles=STYLES, max_executions=1000)
        coord = Coordinator(params, spec,
                            DistParams(lease_seconds=30.0,
                                       node_wait_seconds=30.0))
        box = {}
        serve = threading.Thread(
            target=lambda: box.update(result=coord.serve()), daemon=True)
        serve.start()
        node = threading.Thread(
            target=run_node, args=(coord.host, coord.port),
            kwargs={"node_id": "n0", "emit": lambda *_: None}, daemon=True)
        node.start()
        serve.join(timeout=120)
        # The node may still explore a shard past the cut; let it go.
        node.join(timeout=120)
        assert "result" in box, "coordinator never settled"
        assert not node.is_alive()
        result = box["result"]
        assert result.telemetry.audits_done >= 1
        assert result.telemetry.audit_divergences == 0
        assert as_json(result.report) == as_json(want)


def check_in_turn(cases):
    """Check each case as one execution of a run, with a table and on
    its own; both reports as JSON."""
    pending = list(cases)
    scenario = Scenario("cases", factory=None,
                        extract=lambda _result: [pending.pop(0)])
    reports = []
    for graphs in ({}, None):
        pending[:] = cases
        report = ScenarioReport(scenario="cases")
        report.styles = {s: StyleTally() for s in STYLES}
        for i in range(len(cases)):
            result = ExecutionResult(returns={}, steps=1, truncated=False,
                                     race=None, memory=None, env=None,
                                     trace=[(i, 0)])
            record_result(report, scenario, result, STYLES, graphs=graphs)
        reports.append(as_json(report))
    return reports


def enq_deq(deq_view=None, deq_logview=(0,), so=((0, 1),), empty=False):
    """Enqueue e0 then dequeue e1, with the dequeue's parts given."""
    enq = mk_event(0, Enq(1), (), 0, view=View({7: 1}))
    deq = mk_event(1, Deq(EMPTY if empty else 1), deq_logview, 1,
                   thread=1, view=deq_view or View({7: 1, 8: 1}))
    return mk_graph([enq, deq], so)


class TestGraphKey:
    """Cases that differ in one part of the key never share a graph:
    the second case's report rows come from its own graph."""

    def assert_unshared(self, first: Graph, second: Graph,
                        to=(None, None)):
        cases = [GraphCase("queue", first, to=to[0]),
                 GraphCase("queue", second, to=to[1])]
        shared, alone = check_in_turn(cases)
        assert shared == alone
        # The pair is a real test: the two cases' reports differ.
        assert check_in_turn(cases[:1]) != check_in_turn(cases[1:])

    def test_event_views(self):
        # The dequeue misses the enqueue's view: SO-VIEW.
        self.assert_unshared(enq_deq(), enq_deq(deq_view=View({8: 1})))

    def test_event_logviews(self):
        # An empty dequeue that sees the enqueue breaks QUEUE-EMPDEQ.
        self.assert_unshared(enq_deq(deq_logview=(), so=(), empty=True),
                             enq_deq(so=(), empty=True))

    def test_so(self):
        twice = [mk_event(0, Enq(1), (), 0), mk_event(1, Enq(1), (), 1),
                 mk_event(2, Deq(1), (), 2, thread=1)]
        self.assert_unshared(mk_graph(twice, so=[(0, 2)]),
                             mk_graph(twice, so=[(1, 2)]))

    def test_so_order(self):
        # Equal so sets that iterate in insertion order (their edges
        # share a hash slot): a doubly-sourced dequeue lists its sources
        # in that order.
        events = [mk_event(0, Enq(1), (), 0), mk_event(3, Enq(2), (), 1),
                  mk_event(1, Deq(1), (0, 3), 2, thread=1)]
        first, second = (mk_graph(events, so=[(0, 1), (3, 1)]),
                         mk_graph(events, so=[(3, 1), (0, 1)]))
        assert first.so == second.so
        assert list(first.so) != list(second.so)
        self.assert_unshared(first, second)

    def test_event_order(self):
        # Two malformed events: the first violation follows dict order.
        bad = [mk_event(0, Enq(1), (), 0)._replace(logview=frozenset()),
               mk_event(1, Enq(2), (), 1)._replace(logview=frozenset())]
        self.assert_unshared(mk_graph(bad), mk_graph(bad[::-1]))

    def test_to(self):
        self.assert_unshared(enq_deq(), enq_deq(), to=([0, 1], [1, 0]))

    def test_hist_part_is_keyed_by_to(self):
        graph = enq_deq()
        assert check_style(graph, "queue", SpecStyle.LAT_HB_HIST,
                           to=[0, 1]).ok
        late = check_style(graph, "queue", SpecStyle.LAT_HB_HIST,
                           to=[1, 0])
        assert [v.rule for v in late.violations] \
            == ["HIST-LHB", "HIST-INTERP"]


class TestTableScope:
    """Each exhaustive run starts its own bounded table; random runs
    keep none.  Counted by the linearizability checks that run."""

    @pytest.fixture
    def linearizations(self, monkeypatch):
        calls = []
        inner = spec_styles.check_linearizable_history

        def counted(*args, **kwargs):
            calls.append(1)
            return inner(*args, **kwargs)
        monkeypatch.setattr(spec_styles, "check_linearizable_history",
                            counted)
        return calls

    def run(self, **options):
        scenario = ROWS["hw-queue/rlx"].scenario(3, 2, 0)
        return check_scenario(scenario, styles=(SpecStyle.LAT_HB_HIST,),
                              **options)

    def test_each_exhaustive_run_starts_empty(self, linearizations):
        first = self.run(exhaustive=True, max_executions=400)
        counts = [len(linearizations)]
        self.run(exhaustive=True, max_executions=400)
        counts.append(len(linearizations) - counts[0])
        # Repeated graphs share one check, and a second run repeats
        # every check of the first.
        assert 0 < counts[0] < first.complete
        assert counts[1] == counts[0]

    def test_each_shard_starts_empty(self, linearizations):
        counts = []
        for _ in range(2):
            before = len(linearizations)
            report = run_scenario(
                ROWS["hw-queue/rlx"].scenario(3, 2, 0),
                EngineParams(styles=(SpecStyle.LAT_HB_HIST,),
                             exhaustive=True, max_executions=400,
                             target_shards=1)).report
            counts.append(len(linearizations) - before)
        assert 0 < counts[0] < report.complete
        assert counts[1] == counts[0]

    def test_random_runs_check_every_graph(self, linearizations):
        # A small tree: 60 random runs repeat its graphs many times.
        scenario = ROWS["hw-queue/rlx"].scenario(2, 1, 0)
        report = check_scenario(scenario, runs=60, seed=3,
                                styles=(SpecStyle.LAT_HB_HIST,))
        assert len(linearizations) == report.complete == 60
        distinct = check_scenario(scenario, exhaustive=True,
                                  styles=(SpecStyle.LAT_HB_HIST,))
        assert distinct.complete < 60

    def test_table_is_bounded(self, linearizations, monkeypatch):
        self.run(exhaustive=True, max_executions=400)
        unbounded = len(linearizations)
        sizes = []
        first_graph = runner._first_graph

        def spy(graphs, case):
            sizes.append(len(graphs))
            return first_graph(graphs, case)
        monkeypatch.setattr(runner, "_first_graph", spy)
        monkeypatch.setattr(runner, "GRAPH_TABLE_CAP", 5)
        del linearizations[:]
        self.run(exhaustive=True, max_executions=400)
        # Graphs first seen after the table filled are checked unshared.
        assert max(sizes) == 5
        assert len(linearizations) > unbounded
        assert_table_invisible(ROWS["hw-queue/rlx"].scenario(3, 2, 0),
                               styles=STYLES, max_executions=400)

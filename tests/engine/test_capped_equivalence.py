"""Capped sharded runs check exactly the executions a serial run checks.

``max_executions`` caps the whole run, however it is sharded: the pool,
one worker with a checkpoint (inline shards), distributed, exhaustive
and randomized.  The merge keeps the shards, in order, up to the one
holding the cap's last execution (`repro.engine.pool.execution_cut`),
so the merged report must equal the serial report on every field but
``seconds``, with undegraded coverage.

Four layers pin it:

* a Hypothesis state machine, in the stateful style: each step draws a
  (scenario, cap, workers, mode, model) run over the pool or the
  distributed transport and compares it with the serial run of the same
  draw — plus treiber/rel-acq t3xo2 at cap 3000 and 2 workers, whose 9
  shards each hold at least 3000 executions;
* every cut point, deterministically: every cap up to and past the size
  of three small trees, with the cut in each shard and in each gap that
  carries DPOR planner prunes (the per-gap charges of
  `repro.engine.shard.plan_exhaustive_shards`);
* audit and hedge under a cap: every re-execution that checks a result
  must run under the cap that result was explored with, and a lie the
  audit repairs must not move the cut;
* a distributed node still exploring a shard past the cap when the
  coordinator settles exits cleanly, also when the node's connection
  thread sees the stop before the shutdown broadcast is sent.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional, Tuple

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, rule,
                                 run_state_machine_as_test)

from repro.checking import check_scenario
from repro.core import SpecStyle
from repro.engine import EngineParams, ScenarioSpec, build_scenario, \
    plan_exhaustive_shards, run_scenario
from repro.engine.audit import AUDIT_ATTEMPT_BASE
from repro.engine.dist import Coordinator, DistParams, run_node
from repro.engine.faults import Fault, FaultPlan

from ._support import assert_reports_equal

#: Generous bound for a distributed run on a loaded CI box.
JOIN_TIMEOUT = 60.0

STYLES = (SpecStyle.LAT_HB,)


def mixed(impl: str, threads: int, ops: int, seed: int = 0) -> ScenarioSpec:
    return ScenarioSpec("mixed-stress", kwargs={
        "impl": impl, "threads": threads, "ops": ops, "seed": seed})


#: The drawn scenarios: a 20-execution tree, a tree of a few thousand
#: executions whose first shard holds every cap drawn here, and a tree
#: far larger than any cap.
SCENARIOS = {
    "hw-queue/rlx t2xo1": mixed("hw-queue/rlx", 2, 1),
    "vyukov-queue/rlx t2xo2 seed 1": mixed("vyukov-queue/rlx", 2, 2, 1),
    "treiber/rel-acq t3xo2": mixed("treiber/rel-acq", 3, 2),
}

#: (exhaustive, dpor, runs): exhaustive with DPOR on or off, or
#: randomized with 1-80 runs.
modes = st.one_of(
    st.tuples(st.just(True), st.booleans(), st.just(300)),
    st.tuples(st.just(False), st.just(True), st.integers(1, 80)))

Mode = Tuple[bool, bool, int]


def serial_report(spec: ScenarioSpec, cap: int, mode: Mode, model: str):
    exhaustive, dpor, runs = mode
    return check_scenario(build_scenario(spec), styles=STYLES,
                          exhaustive=exhaustive, dpor=dpor, runs=runs,
                          max_executions=cap, model=model)


def engine_params(cap: int, mode: Mode, model: str,
                  **overrides) -> EngineParams:
    exhaustive, dpor, runs = mode
    return EngineParams(styles=STYLES, exhaustive=exhaustive, dpor=dpor,
                        runs=runs, max_executions=cap, model=model,
                        **overrides)


def pool_run(spec: ScenarioSpec, params: EngineParams, tmp_dir: str):
    """Pool run; one worker shards inline, planned for a checkpoint."""
    if params.workers == 1:
        params.checkpoint = f"{tmp_dir}/ck-{id(params)}.jsonl"
    return run_scenario(build_scenario(spec), params, spec=spec)


def dist_run(spec: ScenarioSpec, params: EngineParams,
             max_reconnects: int = 0,
             stop: Optional[threading.Event] = None):
    """A coordinator and two in-thread worker nodes, as in test_dist.

    Returns the result and the nodes' exit codes (None: still running
    a few seconds after the coordinator settled).  A tiny run can settle
    before the second node connects; with no reconnect budget that node
    exits at once instead of retrying in the background.  ``stop``
    replaces the coordinator's stop event.
    """
    coord = Coordinator(params, spec,
                        DistParams(lease_seconds=5.0, node_wait_seconds=20.0,
                                   idle_wait=0.05))
    if stop is not None:
        coord._stop = stop
    box: Dict = {}
    codes = [None, None]
    server = threading.Thread(
        target=lambda: box.update(result=coord.serve()), daemon=True)
    server.start()

    def node(i: int) -> None:
        codes[i] = run_node(coord.host, coord.port, node_id=f"n{i}",
                            emit=lambda *_: None,
                            max_reconnects=max_reconnects)
    nodes = [threading.Thread(target=node, args=(i,), daemon=True)
             for i in range(2)]
    for thread in nodes:
        thread.start()
    server.join(timeout=JOIN_TIMEOUT)
    assert "result" in box, "coordinator never settled"
    for thread in nodes:
        thread.join(timeout=5.0)
    return box["result"], codes


def assert_equals_serial(result, serial) -> None:
    assert_reports_equal(result.report, serial)
    assert not result.coverage.degraded, result.coverage.line()


class CappedRuns(RuleBasedStateMachine):
    """Each step is one capped sharded run checked against serial.

    Serial reports are cached per draw, so the state grows as the
    machine revisits a (scenario, cap, mode, model) under other shapes.
    """

    def __init__(self, tmp_dir: str = "."):
        super().__init__()
        self.tmp_dir = tmp_dir
        self.serial: Dict = {}

    def serial_for(self, name: str, cap: int, mode: Mode, model: str):
        key = (name, cap, mode, model)
        if key not in self.serial:
            self.serial[key] = serial_report(SCENARIOS[name], cap, mode,
                                             model)
        return self.serial[key]

    @rule(name=st.sampled_from(sorted(SCENARIOS)),
          cap=st.integers(1, 300), workers=st.sampled_from([1, 2, 4]),
          mode=modes, model=st.sampled_from(["orc11", "tso"]))
    def pool(self, name, cap, workers, mode, model):
        params = engine_params(cap, mode, model, workers=workers)
        result = pool_run(SCENARIOS[name], params, self.tmp_dir)
        assert_equals_serial(result, self.serial_for(name, cap, mode,
                                                     model))

    @rule(name=st.sampled_from(sorted(SCENARIOS)),
          cap=st.integers(1, 300), mode=modes,
          model=st.sampled_from(["orc11", "tso"]))
    def dist(self, name, cap, mode, model):
        params = engine_params(cap, mode, model, target_shards=8)
        result, _codes = dist_run(SCENARIOS[name], params)
        assert_equals_serial(result, self.serial_for(name, cap, mode,
                                                     model))


class TestCappedRunsEqualSerial:
    def test_state_machine(self, tmp_path):
        run_state_machine_as_test(
            lambda: CappedRuns(str(tmp_path)),
            settings=settings(max_examples=20, stateful_step_count=3,
                              deadline=None))

    def test_treiber_cap_3000_at_two_workers(self, tmp_path):
        """9 shards, each holding at least the cap of 3000 executions."""
        machine = CappedRuns(str(tmp_path))
        machine.pool(name="treiber/rel-acq t3xo2", cap=3000, workers=2,
                     mode=(True, True, 300), model="orc11")
        (serial,) = machine.serial.values()
        assert serial.executions == 3000


class TestEveryCutPoint:
    """Sharded equals serial with the cut at every point of small trees.

    Inline shards (one worker, many shards) keep these deterministic:
    every cap lands the cut in a known shard, including shards whose
    executions end exactly at the cap and the empty shards past it.
    """

    @staticmethod
    def check_caps(spec: ScenarioSpec, caps, target_shards: int,
                   dpor: Optional[bool] = None) -> None:
        # None keeps the engine's default (DPOR on).
        options = {} if dpor is None else {"dpor": dpor}
        scenario = build_scenario(spec)
        for cap in caps:
            serial = check_scenario(scenario, styles=STYLES,
                                    exhaustive=True, max_executions=cap,
                                    **options)
            params = EngineParams(styles=STYLES, exhaustive=True,
                                  max_executions=cap,
                                  target_shards=target_shards, **options)
            result = run_scenario(scenario, params, spec=spec)
            assert len(result.shards) > 1
            try:
                assert_equals_serial(result, serial)
            except AssertionError as err:
                raise AssertionError(f"cap {cap}: {err}") from err

    @pytest.mark.parametrize("target_shards", [4, 16])
    @pytest.mark.parametrize("dpor", [False, None])
    def test_hw_queue_every_cap(self, target_shards, dpor):
        """20 executions naively (16 under DPOR): every cap from 1 to
        one past the naive tree."""
        self.check_caps(SCENARIOS["hw-queue/rlx t2xo1"], range(1, 22),
                        target_shards, dpor=dpor)

    def test_vyukov_seed1_caps(self):
        """The first shard holds every cap here: the planner prunes in
        later gaps must not be charged."""
        self.check_caps(SCENARIOS["vyukov-queue/rlx t2xo2 seed 1"],
                        (1, 7, 50, 100, 300, 2000), target_shards=8)

    def test_gap_charges_sum_to_the_planner_total(self):
        factory = build_scenario(mixed("treiber/rel-acq", 3, 1)).factory
        gaps = []
        shards, total = plan_exhaustive_shards(
            factory, target=16, max_steps=20_000, gaps=gaps)
        assert len(gaps) == len(shards) + 1
        assert sum(gaps) == total > 0
        assert sum(1 for g in gaps if g) > 1

    def test_treiber_t3xo1_every_cap(self):
        """30 executions over 16 shards with planner prunes in five
        gaps: every cap, and one past the tree, charges exactly the gaps
        the serial DFS reaches."""
        self.check_caps(mixed("treiber/rel-acq", 3, 1), range(1, 32),
                        target_shards=16)


class TestAuditAndHedgeUnderCap:
    """Re-executions that check a result use the cap it ran under."""

    SPEC = SCENARIOS["vyukov-queue/rlx t2xo2 seed 1"]
    MODE = (True, True, 300)

    def test_pool_full_audit_and_hedge(self, tmp_path):
        serial = serial_report(self.SPEC, 100, self.MODE, "orc11")
        params = engine_params(100, self.MODE, "orc11", workers=2,
                               audit_fraction=1.0, hedge=True)
        result = pool_run(self.SPEC, params, str(tmp_path))
        assert_equals_serial(result, serial)
        assert result.coverage.divergences == 0
        assert result.telemetry.audits_done >= 1

    def test_dist_full_audit_and_hedge(self):
        serial = serial_report(self.SPEC, 100, self.MODE, "orc11")
        params = engine_params(100, self.MODE, "orc11", target_shards=8,
                               audit_fraction=1.0, hedge=True)
        result, _codes = dist_run(self.SPEC, params)
        assert_equals_serial(result, serial)
        assert result.coverage.divergences == 0
        assert result.telemetry.audits_done >= 1

    def test_hedged_duplicate_before_the_cut(self):
        """A straggler inside the capped prefix is rescued by a hedged
        duplicate and fully audited; the cut shard's share is re-run."""
        spec = SCENARIOS["hw-queue/rlx t2xo1"]
        serial = serial_report(spec, 10, self.MODE, "orc11")
        params = engine_params(10, self.MODE, "orc11", workers=4,
                               target_shards=4, shard_timeout=2.0,
                               hedge=True, audit_fraction=1.0)
        plan = FaultPlan((Fault("hedge.slow_worker", "delay", shard=1,
                                attempt=1, delay_seconds=2.5),))
        with plan:
            result = run_scenario(build_scenario(spec), params, spec=spec)
        assert_equals_serial(result, serial)
        tel = result.telemetry
        assert tel.hedge_wins >= 1
        assert tel.audit_divergences == 0

    #: A node overstates shard 0 by one execution (4 -> 5), which would
    #: put the cut of a cap of 9 in shard 1 instead of shard 2.  Shard
    #: 0's audit re-executes under attempt `AUDIT_ATTEMPT_BASE`; holding
    #: it back a second lets shards 0 and 1 land before it ends.
    LYING_SHARD_0 = FaultPlan((
        Fault("pool.flip_result_byte", "corrupt", shard=0, attempt=1),
        Fault("hedge.slow_worker", "delay", shard=0,
              attempt=AUDIT_ATTEMPT_BASE, delay_seconds=1.0)))

    def check_lie_repaired(self, result, serial) -> None:
        """The coordinator takes the cut only over audited results, so
        the repaired merge still equals serial, with nothing
        truncated."""
        assert_reports_equal(result.report, serial)
        assert result.coverage.divergences == 1
        assert result.coverage.truncated == []

    def test_cut_waits_for_the_audit_of_a_lying_node(self):
        spec = SCENARIOS["hw-queue/rlx t2xo1"]
        serial = serial_report(spec, 9, self.MODE, "orc11")
        params = engine_params(9, self.MODE, "orc11", target_shards=4,
                               audit_fraction=1.0)
        with self.LYING_SHARD_0:
            result, _codes = dist_run(spec, params)
        self.check_lie_repaired(result, serial)

    def test_cut_waits_for_the_audit_of_a_lying_worker(self):
        """The same lie from one of a 2-worker local run's nodes."""
        spec = SCENARIOS["hw-queue/rlx t2xo1"]
        serial = serial_report(spec, 9, self.MODE, "orc11")
        params = engine_params(9, self.MODE, "orc11", workers=2,
                               target_shards=4, audit_fraction=1.0)
        with self.LYING_SHARD_0:
            result = run_scenario(build_scenario(spec), params, spec=spec)
        self.check_lie_repaired(result, serial)


class TestNodesReleasedAtTheCap:
    def _dropped_shard_run(self, stop: Optional[threading.Event]) -> None:
        """A capped dist run that settles while one node is still inside
        a shard past the cut; both nodes must exit 0."""
        spec = SCENARIOS["vyukov-queue/rlx t2xo2 seed 1"]
        mode = (True, True, 300)
        serial = serial_report(spec, 100, mode, "orc11")
        params = engine_params(100, mode, "orc11", target_shards=8)
        # Shard 0 waits a second so both nodes hold a lease before it
        # completes and the cut (in shard 0) settles the run.
        plan = FaultPlan((
            Fault("hedge.slow_worker", "delay", shard=0, attempt=1,
                  delay_seconds=1.0),
            Fault("hedge.slow_worker", "delay", shard=1, attempt=1,
                  delay_seconds=30.0)))
        with plan:
            result, codes = dist_run(spec, params, max_reconnects=8,
                                     stop=stop)
        assert_equals_serial(result, serial)
        assert codes == [0, 0]

    def test_node_inside_a_dropped_shard_exits_cleanly(self):
        """The coordinator settles at the cap while the other node is
        still inside shard 1, pinned there by a slow-worker delay.  On
        the coordinator's ``done`` that node exits 0 at once, instead of
        spending its reconnect budget on a coordinator that is gone."""
        self._dropped_shard_run(None)

    def test_done_reaches_a_node_whose_connection_stops_first(self):
        """The same run, with the coordinator's shutdown held back after
        it signals stop: every connection thread sees the stop and closes
        before the shutdown broadcast is sent.  Each must still put
        ``done`` on the wire first, or the pinned node reads a bare close
        and spends its reconnect budget."""
        self._dropped_shard_run(SlowStop())


class SlowStop(threading.Event):
    """A stop event whose ``set`` returns only after 0.6 s, longer than
    a coordinator connection thread's receive poll."""

    def set(self) -> None:
        super().set()
        time.sleep(0.6)

"""The engine's event stream: one record per transition, summary = fold.

Every run shape — local nodes, remote nodes, the campaign service's WAL
sink — reports through `ProgressReporter.emit`, so a run's events alone
must rebuild its `TelemetrySummary` (after a JSON round trip), every
merged result must trace back to the grant of its lease, and the WAL's
grant/merge/divergence records must be exactly those events.
"""

from __future__ import annotations

import json
import multiprocessing
import sys
import threading

import pytest

from repro.core import SpecStyle
from repro.engine import (EngineParams, Event, ProgressReporter,
                          ScenarioSpec, TelemetrySummary, build_scenario,
                          read_records, run_scenario)
from repro.engine.dist import Coordinator, DistParams, run_node
from repro.engine.faults import Fault, FaultPlan
from repro.service.store import JobStore, WalSink

from ._support import hw_spec

JOIN_TIMEOUT = 60.0

#: The lying-node fault: shard 1's result has a digit rotated before
#: its CRC is stamped, so only the audit can catch it.
LIE = FaultPlan((Fault("pool.flip_result_byte", "corrupt", shard=1,
                       attempt=1),))

#: A capped workload whose first shard alone holds the cap: the other
#: eight shards are dropped at the cut.
CAPPED_SPEC = ScenarioSpec("mixed-stress",
                           kwargs={"impl": "treiber/rel-acq", "threads": 3,
                                   "ops": 2, "seed": 0})

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="ad-hoc fault plans reach local nodes only under fork")


def _dist_params(**overrides) -> EngineParams:
    base = dict(exhaustive=True, target_shards=4, max_steps=400)
    base.update(overrides)
    return EngineParams(**base)


def _dist_run(params: EngineParams, spec=None, sink=None):
    """Serve one run to two in-thread nodes; return its result."""
    coord = Coordinator(params, spec or hw_spec(),
                        DistParams(lease_seconds=5.0, node_wait_seconds=20.0),
                        sink=sink)
    box = {}
    serve = threading.Thread(
        target=lambda: box.update(result=coord.serve()), daemon=True)
    serve.start()
    nodes = [threading.Thread(target=run_node, args=(coord.host, coord.port),
                              kwargs={"node_id": f"n{i}",
                                      "emit": lambda *_: None},
                              daemon=True) for i in range(2)]
    for node in nodes:
        node.start()
    serve.join(timeout=JOIN_TIMEOUT)
    assert not serve.is_alive() and "result" in box, \
        "coordinator never settled"
    return box["result"]


def assert_stream_consistent(result) -> None:
    """The summary is the fold of the JSON-round-tripped events, and
    every merge is of a lease some grant handed out."""
    wire = json.loads(json.dumps([e.to_json() for e in result.events]))
    events = [Event.from_json(data) for data in wire]
    assert events == result.events
    assert TelemetrySummary.fold(events) == result.telemetry
    granted = set()
    for event in events:
        if event.kind == "grant":
            granted.add((event.shard, event.fields["token"]))
        elif event.kind == "merge":
            assert (event.shard, event.fields["token"]) in granted, event


def assert_capped_accounting(result, stderr: str) -> None:
    """Every planned shard is done, dropped at the cut, or skipped, and
    the final progress line shows the drop but no ETA."""
    tel = result.telemetry
    assert tel.shards_dropped > 0
    assert tel.shards_done + tel.shards_dropped + tel.shards_skipped \
        == tel.shards_total
    final = [line for line in stderr.splitlines() if "] done:" in line][-1]
    assert f"{tel.shards_dropped} dropped" in final
    assert "ETA" not in final


class TestPoolEvents:
    @needs_fork
    def test_crashed_node_run_folds_to_its_summary(self):
        plan = FaultPlan((Fault("worker.explore", "crash", shard=1,
                                attempt=1),))
        params = EngineParams(styles=(SpecStyle.LAT_HB,), exhaustive=True,
                              max_steps=400, workers=2, target_shards=4)
        with plan:
            result = run_scenario(build_scenario(hw_spec()), params,
                                  spec=hw_spec())
        assert result.telemetry.retries >= 1
        assert_stream_consistent(result)

    def test_capped_run_reports_its_dropped_shards(self, capsys):
        params = EngineParams(styles=(SpecStyle.LAT_HB,), exhaustive=True,
                              workers=2, max_executions=100, progress=True)
        result = run_scenario(build_scenario(CAPPED_SPEC), params,
                              spec=CAPPED_SPEC)
        assert_stream_consistent(result)
        assert_capped_accounting(result, capsys.readouterr().err)


class TestDistEvents:
    def test_audited_lie_folds_to_its_summary(self):
        with LIE:
            result = _dist_run(_dist_params(audit_fraction=1.0))
        assert result.telemetry.audit_divergences == 1
        assert result.coverage.divergences == 1
        assert_stream_consistent(result)

    def test_capped_run_reports_its_dropped_shards(self, capsys):
        params = EngineParams(styles=(SpecStyle.LAT_HB,), exhaustive=True,
                              target_shards=9, max_executions=100,
                              progress=True)
        result = _dist_run(params, spec=CAPPED_SPEC)
        assert_stream_consistent(result)
        assert_capped_accounting(result, capsys.readouterr().err)


class TestWalSink:
    def test_wal_records_are_the_runs_events(self, tmp_path):
        wal = str(tmp_path / "wal.jsonl")
        store = JobStore(wal)
        job, _created = store.submit("events", hw_spec().to_json(),
                                     _dist_params().wire_json())
        sink = WalSink(store, job.job_id)
        with LIE:
            result = _dist_run(_dist_params(audit_fraction=1.0), sink=sink)
        assert sink.errors == []
        assert result.telemetry.audit_divergences == 1
        assert_stream_consistent(result)

        def as_record(event: Event) -> dict:
            rec = {"rec": event.kind, "job": job.job_id,
                   "shard": event.shard}
            f = event.fields
            if event.kind == "grant":
                rec.update(token=f["token"], attempt=event.attempt,
                           node=event.node)
            elif event.kind == "merge":
                rec.update(token=f["token"], executions=f["executions"])
            else:
                rec.update(node=event.node, finding=f["finding"])
            return rec

        kinds = ("grant", "merge", "divergence")
        records, _diag = read_records(wal)
        assert [r for r in records if r["rec"] in kinds] == \
            [as_record(e) for e in result.events if e.kind in kinds]


class TestConcurrentEmit:
    def test_lock_free_emitters_lose_no_update(self):
        """The coordinator's discipline under thread churn: `merge`
        emitters share a lock, while `hung` (the serve thread) and
        `drain` (a signal handler) emit without one.  Every event lands
        in the log and in the summary."""
        reporter = ProgressReporter(enabled=False)
        lock = threading.Lock()
        rounds = 2000

        def merges(pid: int) -> None:
            for i in range(rounds):
                with lock:
                    reporter.emit("merge", shard=i, token=i, pid=pid,
                                  executions=1, steps=2, pruned=0)

        def hangs() -> None:
            for i in range(rounds):
                reporter.emit("hung", shard=i, pid=0, age=1.0)

        def drains() -> None:
            for _ in range(rounds):
                reporter.emit("drain")

        threads = [threading.Thread(target=merges, args=(pid,))
                   for pid in (1, 2)]
        threads += [threading.Thread(target=hangs),
                    threading.Thread(target=drains)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        tel = reporter.summary
        assert len(reporter.events) == 4 * rounds
        assert tel.shards_done == tel.executions == 2 * rounds
        assert tel.worker_shards == {1: rounds, 2: rounds}
        assert tel.hung_killed == rounds and tel.drained
        assert TelemetrySummary.fold(reporter.events) == tel

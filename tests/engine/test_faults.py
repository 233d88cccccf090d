"""Deterministic fault injection: plans, matching, and firing."""

import json
import os
import time

import pytest

from repro.engine.faults import (FAULT_PLAN_ENV, Fault, FaultInjected,
                                 FaultPlan, fault_point, mutate_blob)


class TestFaultMatching:
    def test_exact_coordinates(self):
        f = Fault("worker.explore", "raise", shard=3, attempt=1, exec_at=7)
        assert f.matches("worker.explore", 3, 1, 7, seed=0)
        assert not f.matches("worker.explore", 3, 2, 7, seed=0)
        assert not f.matches("worker.explore", 2, 1, 7, seed=0)
        assert not f.matches("worker.result", 3, 1, 7, seed=0)

    def test_none_is_wildcard(self):
        f = Fault("worker.explore", "raise")
        assert f.matches("worker.explore", 0, 1, 1, seed=0)
        assert f.matches("worker.explore", 99, 5, 1000, seed=0)

    def test_seeded_probability_is_deterministic(self):
        f = Fault("worker.explore", "raise", prob=0.5)
        draws = [f.matches("worker.explore", s, 1, 1, seed=7)
                 for s in range(64)]
        again = [f.matches("worker.explore", s, 1, 1, seed=7)
                 for s in range(64)]
        assert draws == again
        assert any(draws) and not all(draws)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Fault("worker.explore", "meltdown")


class TestFaultPlan:
    def test_encode_decode_round_trip(self):
        plan = FaultPlan((Fault("worker.explore", "crash", shard=1,
                                attempt=1),
                          Fault("checkpoint.append", "torn"),
                          Fault("worker.explore", "hang",
                                hang_seconds=0.5)), seed=9)
        assert FaultPlan.decode(plan.encode()) == plan

    def test_context_manager_sets_and_clears_env(self):
        plan = FaultPlan((Fault("worker.explore", "raise"),))
        assert FAULT_PLAN_ENV not in os.environ
        with plan:
            assert json.loads(os.environ[FAULT_PLAN_ENV])["seed"] == 0
        assert FAULT_PLAN_ENV not in os.environ


class TestFaultPoint:
    def test_noop_without_plan(self):
        FaultPlan.deactivate()
        fault_point("worker.explore", shard=0, attempt=1, execs=1)

    def test_raise_fires_once_per_coordinates(self):
        plan = FaultPlan((Fault("worker.explore", "raise", shard=2,
                                attempt=1, exec_at=3),), seed=1)
        with plan:
            fault_point("worker.explore", shard=2, attempt=1, execs=2)
            with pytest.raises(FaultInjected):
                fault_point("worker.explore", shard=2, attempt=1, execs=3)
            # One-shot: the same coordinates do not fire again.
            fault_point("worker.explore", shard=2, attempt=1, execs=3)
            # A different attempt never matches.
            fault_point("worker.explore", shard=2, attempt=2, execs=3)

    def test_hang_sleeps_for_configured_seconds(self):
        plan = FaultPlan((Fault("worker.explore", "hang", shard=0,
                                attempt=1, hang_seconds=0.05),), seed=2)
        with plan:
            start = time.monotonic()
            fault_point("worker.explore", shard=0, attempt=1, execs=1)
            assert time.monotonic() - start >= 0.05


class TestMutation:
    def test_mutate_blob_changes_one_char(self):
        plan = FaultPlan((Fault("worker.result", "corrupt", shard=0,
                                attempt=1),), seed=3)
        blob = json.dumps({"report": {"executions": 12}})
        with plan:
            out = mutate_blob("worker.result", blob, shard=0, attempt=1)
        assert out != blob
        assert len(out) == len(blob)
        assert sum(a != b for a, b in zip(out, blob)) == 1

    def test_mutate_blob_passthrough_without_match(self):
        plan = FaultPlan((Fault("worker.result", "corrupt", shard=5,
                                attempt=1),), seed=3)
        blob = "payload"
        with plan:
            assert mutate_blob("worker.result", blob, shard=0,
                               attempt=1) == blob

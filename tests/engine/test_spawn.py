"""Spawn-context workers: equivalence and fault-plan propagation.

``fork`` workers inherit everything by address-space copy, which can
mask real serialization bugs; ``spawn`` workers start from a fresh
interpreter and must rebuild the scenario from its registry spec and
pick the fault plan up from the environment (`repro.engine.faults`
documents that handshake).  These tests pin both properties.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.engine import EngineParams, run_scenario
from repro.engine.faults import Fault, FaultPlan

from ._support import assert_reports_equal, hw_spec

pytestmark = pytest.mark.skipif(
    "spawn" not in multiprocessing.get_all_start_methods(),
    reason="platform has no spawn start method")


def _run(**overrides):
    base = dict(exhaustive=True, max_steps=400)
    base.update(overrides)
    return run_scenario(None, EngineParams(**base), spec=hw_spec())


@pytest.fixture
def spawn_only(monkeypatch):
    """A platform without ``fork``: local nodes are spawned."""
    monkeypatch.setattr(
        "repro.engine.pool.multiprocessing.get_all_start_methods",
        lambda: ["spawn"])


class TestSpawnEquivalence:
    def test_spawn_pool_matches_serial(self, spawn_only):
        serial = _run(workers=1)
        spawned = _run(workers=2, target_shards=4)
        assert_reports_equal(spawned.report, serial.report)

    def test_fault_plan_crosses_the_spawn_boundary(self, spawn_only):
        """A transient fault must fire *inside* a spawn worker — which
        only happens if ``REPRO_FAULT_PLAN`` survives the process
        boundary — and the retry must still converge exactly."""
        serial = _run(workers=1)
        plan = FaultPlan((Fault("worker.explore", "raise",
                                shard=1, attempt=1),))
        with plan:
            result = _run(workers=2, target_shards=4)
        assert_reports_equal(result.report, serial.report)
        # The retry was charged, so the fault genuinely fired remotely.
        assert result.telemetry.retries >= 1

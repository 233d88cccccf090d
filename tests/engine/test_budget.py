"""Budgets and graceful degradation: partial reports, honest coverage."""

import time

from repro.checking import check_scenario
from repro.core import SpecStyle
from repro.engine import EngineParams, build_scenario, run_scenario
from repro.engine.budget import BudgetSpec, BudgetTracker, Coverage

from ._support import assert_reports_equal, vyukov_spec

STYLES = (SpecStyle.LAT_HB,)


class TestBudgetTracker:
    def test_disabled_never_breaches(self):
        assert BudgetTracker(BudgetSpec()).breach() is None

    def test_shard_seconds_breach(self):
        tracker = BudgetTracker(BudgetSpec(shard_seconds=0.0))
        assert "budget" in tracker.breach()

    def test_run_deadline_breach(self):
        tracker = BudgetTracker(BudgetSpec(run_deadline=time.time() - 1))
        assert "deadline" in tracker.breach()
        future = BudgetTracker(BudgetSpec(run_deadline=time.time() + 60))
        assert future.breach() is None


class TestCoverage:
    def test_full_coverage(self):
        cov = Coverage(shards_total=4, shards_complete=4)
        assert cov.fraction == 1.0
        assert not cov.degraded
        assert "4/4" in cov.line()

    def test_degraded_lists_truncated_prefixes(self):
        cov = Coverage(shards_total=8, shards_complete=2,
                       truncated=[f"prefix 0.{i}" for i in range(6)])
        assert cov.fraction == 0.25
        assert cov.degraded
        line = cov.line()
        assert "2/8" in line and "prefix 0.0" in line
        assert "+2 more" in line  # only the first 4 are spelled out


class TestBudgetedRun:
    def test_shard_budget_degrades_gracefully(self):
        """A zero shard budget: every shard stops after one execution and
        the merged report says so honestly — no false ``exhausted``."""
        spec = vyukov_spec()
        params = EngineParams(styles=STYLES, exhaustive=True,
                              max_steps=100_000, workers=1,
                              target_shards=4, shard_seconds=0.0)
        result = run_scenario(build_scenario(spec), params, spec=spec)
        report = result.report
        assert report.budget_exhausted
        assert not report.exhausted
        assert result.coverage.fraction < 1.0
        assert result.coverage.degraded
        assert all(t.startswith("prefix") for t in result.coverage.truncated)
        assert result.telemetry.budget_stops == len(result.shards)
        assert "budget exhausted" in report.summary()
        assert "coverage:" in report.summary()

    def test_truncated_shards_are_not_checkpointed(self, tmp_path):
        """A budget-truncated shard must be re-explored by a later,
        better-funded resume — its stub is not trustworthy progress."""
        spec = vyukov_spec()
        ck = str(tmp_path / "ck.jsonl")
        scenario = build_scenario(spec)
        starved = EngineParams(styles=STYLES, exhaustive=True,
                               max_steps=100_000, workers=1,
                               target_shards=4, checkpoint=ck,
                               shard_seconds=0.0)
        run_scenario(scenario, starved, spec=spec)
        funded = EngineParams(styles=STYLES, exhaustive=True,
                              max_steps=100_000, workers=1,
                              target_shards=4, checkpoint=ck)
        result = run_scenario(build_scenario(spec), funded, spec=spec)
        assert not result.report.budget_exhausted
        assert result.coverage.fraction == 1.0
        serial = check_scenario(build_scenario(spec), styles=STYLES,
                                exhaustive=True, max_steps=100_000)
        assert_reports_equal(result.report, serial)

    def test_run_deadline_skips_remaining_shards(self):
        spec = vyukov_spec()
        params = EngineParams(styles=STYLES, exhaustive=True,
                              max_steps=100_000, workers=1,
                              target_shards=4, run_seconds=0.0)
        result = run_scenario(build_scenario(spec), params, spec=spec)
        assert result.telemetry.shards_skipped > 0
        assert result.coverage.degraded
        assert not result.report.exhausted

    def test_check_scenario_threads_budgets_through(self):
        spec = vyukov_spec()
        report = check_scenario(build_scenario(spec), styles=STYLES,
                                exhaustive=True, max_steps=100_000,
                                spec=spec, shard_seconds=0.0)
        assert report.budget_exhausted
        assert report.coverage is not None and report.coverage.degraded

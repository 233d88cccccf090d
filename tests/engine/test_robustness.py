"""Failure handling: transient shard failures, worker crashes, the
spawn-only fallback, and checkpoint/corpus integrity across failures."""

import multiprocessing
import os

import pytest

from repro.checking import Scenario, check_scenario
from repro.core import SpecStyle
from repro.engine import (EngineParams, ScenarioSpec, ShardFailed,
                          build_scenario, load_corpus, run_scenario)

from ._support import assert_reports_equal, vyukov_spec

STYLES = (SpecStyle.LAT_HB,)


class TestInlineRetry:
    def test_transient_failure_is_retried(self):
        """A factory that blows up once: the shard is requeued and the
        final report matches a clean run exactly (the poisoned attempt
        leaves no partial counts behind)."""
        base = build_scenario(vyukov_spec())
        state = {"failed": False}

        def flaky_factory():
            if not state["failed"]:
                state["failed"] = True
                raise RuntimeError("transient glitch")
            return base.factory()

        scenario = Scenario(base.name, flaky_factory, base.extract)
        params = EngineParams(styles=STYLES, exhaustive=False, runs=20,
                              seed=4, workers=1, target_shards=4)
        result = run_scenario(scenario, params)
        assert result.telemetry.retries == 1
        serial = check_scenario(base, styles=STYLES, runs=20, seed=4)
        assert_reports_equal(result.report, serial)

    def test_persistent_failure_exhausts_budget(self):
        base = build_scenario(vyukov_spec())

        def doomed_factory():
            raise RuntimeError("always broken")

        scenario = Scenario("doomed", doomed_factory, base.extract)
        params = EngineParams(styles=(), exhaustive=False, runs=4,
                              workers=1, target_shards=1, max_retries=1)
        with pytest.raises(ShardFailed):
            run_scenario(scenario, params)


class TestWorkerCrash:
    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="ad-hoc scenarios reach workers only under fork")
    def test_crashed_worker_shard_is_requeued(self, tmp_path):
        """One worker process dies hard (os._exit) on its first task; the
        engine recycles the pool, requeues the lost shards, and still
        produces the serial report."""
        flag = tmp_path / "crash-once"
        flag.write_text("")
        parent = os.getpid()
        base = build_scenario(vyukov_spec())

        def crashing_factory():
            if os.getpid() != parent:
                try:
                    flag.unlink()  # atomic: exactly one worker wins
                except FileNotFoundError:
                    pass
                else:
                    os._exit(1)
            return base.factory()

        scenario = Scenario(base.name, crashing_factory, base.extract)
        params = EngineParams(styles=STYLES, exhaustive=False, runs=30,
                              seed=4, workers=2, target_shards=4)
        result = run_scenario(scenario, params)
        assert result.telemetry.retries >= 1
        assert result.telemetry.shards_done == len(result.shards)
        serial = check_scenario(base, styles=STYLES, runs=30, seed=4)
        assert_reports_equal(result.report, serial)

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="ad-hoc scenarios reach workers only under fork")
    def test_failing_workers_raise_and_are_reaped(self):
        """A shard that fails in every worker process spends its retry
        budget: the run raises ShardFailed, as a one-worker run does,
        and leaves no worker process behind."""
        parent = os.getpid()
        base = build_scenario(vyukov_spec())

        def factory():
            if os.getpid() != parent:
                raise RuntimeError("broken in every worker")
            return base.factory()

        before = {p.pid for p in multiprocessing.active_children()}
        scenario = Scenario(base.name, factory, base.extract)
        params = EngineParams(styles=STYLES, exhaustive=False, runs=20,
                              seed=4, workers=2, target_shards=4,
                              max_retries=1)
        with pytest.raises(ShardFailed):
            run_scenario(scenario, params)
        assert {p.pid for p in multiprocessing.active_children()} <= before


class TestSpawnOnlyFallback:
    def test_adhoc_scenario_falls_back_to_inline(self, monkeypatch):
        """On a spawn-only platform an ad-hoc scenario (no registry spec)
        cannot reach workers; the engine must degrade to inline execution
        rather than fail."""
        monkeypatch.setattr(
            "repro.engine.pool.multiprocessing.get_all_start_methods",
            lambda: ["spawn"])
        base = build_scenario(vyukov_spec())
        scenario = Scenario(base.name, base.factory, base.extract)
        params = EngineParams(styles=STYLES, exhaustive=False, runs=20,
                              seed=4, workers=2, target_shards=4)
        result = run_scenario(scenario, params)  # spec=None: ad-hoc
        # Everything ran in this process — no pool was ever built.
        assert set(result.telemetry.worker_shards) == {os.getpid()}
        serial = check_scenario(base, styles=STYLES, runs=20, seed=4)
        assert_reports_equal(result.report, serial)


class TestRetryExhaustion:
    def test_partial_checkpoint_survives_shard_failure(self, tmp_path):
        """When one shard burns its whole retry budget, ShardFailed
        propagates — but the shards completed before it stay
        checkpointed, and a later run resumes from them."""
        ck = str(tmp_path / "ck.jsonl")
        base = build_scenario(vyukov_spec())
        calls = {"n": 0}

        def factory():
            calls["n"] += 1
            if calls["n"] > 10:  # shards 0 and 1 (5 seeds each) succeed
                raise RuntimeError("persistent failure")
            return base.factory()

        scenario = Scenario(base.name, factory, base.extract)
        params = EngineParams(styles=STYLES, exhaustive=False, runs=20,
                              seed=4, workers=1, target_shards=4,
                              checkpoint=ck, max_retries=1)
        with pytest.raises(ShardFailed):
            run_scenario(scenario, params)

        healed = Scenario(base.name, base.factory, base.extract)
        result = run_scenario(healed, params)
        assert result.telemetry.shards_resumed == 2
        serial = check_scenario(base, styles=STYLES, runs=20, seed=4)
        assert_reports_equal(result.report, serial)


class TestCorpusIdempotence:
    def test_lost_flush_marker_does_not_duplicate_corpus(self, tmp_path):
        """A crash between the corpus flush and the ``corpus_flushed``
        marker write used to duplicate every entry on resume; the
        content-hash dedupe makes the re-flush a no-op."""
        ck, corpus = str(tmp_path / "ck.jsonl"), str(tmp_path / "c.jsonl")
        spec = ScenarioSpec("mp-queue",
                            kwargs={"impl": "ms", "use_flag": False})
        params = EngineParams(styles=(), exhaustive=False, runs=30,
                              seed=1, max_steps=100_000, workers=1,
                              target_shards=4, checkpoint=ck,
                              corpus=corpus)
        first = run_scenario(build_scenario(spec), params, spec=spec)
        n = len(load_corpus(corpus))
        assert n == len(first.corpus_entries) > 0

        # Simulate the crash window: drop the marker line, keeping every
        # completed-shard line.
        with open(ck, encoding="utf-8") as fh:
            lines = fh.readlines()
        kept = [ln for ln in lines if '"marker"' not in ln]
        assert len(kept) == len(lines) - 1
        with open(ck, "w", encoding="utf-8") as fh:
            fh.writelines(kept)

        second = run_scenario(build_scenario(spec), params, spec=spec)
        assert second.telemetry.shards_resumed == len(second.shards)
        entries = load_corpus(corpus)
        assert len(entries) == n  # re-flushed, but zero duplicates
        assert entries.diagnostics.corrupt == 0

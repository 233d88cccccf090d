"""Checkpoint/resume: an interrupted run picks up where it stopped."""

import json

from repro.checking import check_scenario
from repro.core import SpecStyle
from repro.engine import EngineParams, build_scenario, run_scenario

from ._support import assert_reports_equal, vyukov_spec

STYLES = (SpecStyle.LAT_HB,)


def engine_params(ck_path, **overrides):
    kwargs = dict(styles=STYLES, exhaustive=True, max_steps=400,
                  workers=1, target_shards=8, checkpoint=str(ck_path))
    kwargs.update(overrides)
    return EngineParams(**kwargs)


class TestKillResume:
    def test_interrupted_run_resumes_without_reexploring(self, tmp_path):
        """Simulate a kill by truncating the checkpoint to its first
        three shard lines; the rerun must resume exactly those shards and
        re-explore only the rest, ending in the serial report."""
        spec = vyukov_spec()
        scenario = build_scenario(spec)
        baseline = check_scenario(build_scenario(spec), styles=STYLES,
                                  exhaustive=True, max_steps=400)
        ck = tmp_path / "run.ck.jsonl"

        full = run_scenario(scenario, engine_params(ck), spec=spec)
        assert full.telemetry.shards_resumed == 0
        assert_reports_equal(full.report, baseline)

        lines = [ln for ln in ck.read_text().splitlines() if ln.strip()]
        shard_lines = [ln for ln in lines if "\"shard\"" in ln][:3]
        assert len(shard_lines) == 3
        ck.write_text("\n".join(shard_lines) + "\n")
        kept_execs = sum(json.loads(ln)["report"]["executions"]
                         for ln in shard_lines)

        resumed = run_scenario(scenario, engine_params(ck), spec=spec)
        t = resumed.telemetry
        assert t.shards_resumed == 3
        assert t.shards_done == len(resumed.shards)
        # Resumed shards are accounted to worker 0 and were NOT re-run:
        # their executions come straight from the checkpoint.
        assert t.worker_executions[0] == kept_execs
        assert t.executions == baseline.executions
        assert_reports_equal(resumed.report, baseline)

    def test_fully_checkpointed_run_resumes_everything(self, tmp_path):
        spec = vyukov_spec()
        scenario = build_scenario(spec)
        ck = tmp_path / "run.ck.jsonl"
        full = run_scenario(scenario, engine_params(ck), spec=spec)
        again = run_scenario(scenario, engine_params(ck), spec=spec)
        assert again.telemetry.shards_resumed == len(again.shards)
        assert_reports_equal(again.report, full.report)

    def test_malformed_tail_line_is_skipped(self, tmp_path):
        """A write cut off mid-crash loses only that shard."""
        spec = vyukov_spec()
        scenario = build_scenario(spec)
        ck = tmp_path / "run.ck.jsonl"
        run_scenario(scenario, engine_params(ck), spec=spec)
        lines = [ln for ln in ck.read_text().splitlines() if ln.strip()]
        shard_lines = [ln for ln in lines if "\"shard\"" in ln]
        # Keep two whole lines and a truncated third.
        ck.write_text("\n".join(shard_lines[:2]) + "\n"
                      + shard_lines[2][:len(shard_lines[2]) // 2] + "\n")
        resumed = run_scenario(scenario, engine_params(ck), spec=spec)
        assert resumed.telemetry.shards_resumed == 2
        baseline = check_scenario(build_scenario(spec), styles=STYLES,
                                  exhaustive=True, max_steps=400)
        assert_reports_equal(resumed.report, baseline)

    def test_different_params_do_not_share_checkpoint(self, tmp_path):
        """The fingerprint keeps runs with different parameters apart
        even when they share one checkpoint file."""
        spec = vyukov_spec()
        scenario = build_scenario(spec)
        ck = tmp_path / "run.ck.jsonl"
        run_scenario(scenario, engine_params(ck), spec=spec)
        other = run_scenario(
            scenario, engine_params(ck, styles=(SpecStyle.LAT_HB_ABS,)),
            spec=spec)
        assert other.telemetry.shards_resumed == 0


class TestCorpusFlushMarker:
    def test_corpus_not_duplicated_on_full_resume(self, tmp_path):
        """Re-running a completed checkpointed run must not append the
        corpus entries a second time."""
        from repro.engine import ScenarioSpec, load_corpus
        spec = ScenarioSpec("mp-queue",
                            kwargs={"impl": "ms", "use_flag": False})
        scenario = build_scenario(spec)
        ck = tmp_path / "mp.ck.jsonl"
        corpus = tmp_path / "mp.corpus.jsonl"
        params = EngineParams(styles=(), exhaustive=False, runs=30, seed=1,
                              max_steps=100_000, workers=1,
                              target_shards=4, checkpoint=str(ck),
                              corpus=str(corpus))
        first = run_scenario(scenario, params, spec=spec)
        assert first.report.outcome_failures > 0
        n = len(load_corpus(str(corpus)))
        assert n == len(first.corpus_entries) > 0

        again = run_scenario(scenario, params, spec=spec)
        assert again.telemetry.shards_resumed == len(again.shards)
        assert len(load_corpus(str(corpus))) == n

"""The silent-corruption audit layer (`repro.engine.audit`).

Unit coverage of the fingerprint/sampler/bisection pieces, then the
end-to-end conviction: a pool worker whose result blob is corrupted
*before* the CRC is stamped (framing-consistent lying) must be caught
by the sampled trusted re-execution, quarantined, repaired in the
merge, and leave a replayable divergence witness in the corpus.
"""

from __future__ import annotations

import os

import pytest

from repro.engine import EngineParams, run_scenario
from repro.engine.audit import (AuditSampler, bisect_divergence,
                                replay_divergence, report_fingerprint)
from repro.engine.corpus import load_corpus
from repro.engine.faults import Fault, FaultPlan
from repro.engine.registry import build_scenario

from ._support import assert_reports_equal, hw_spec


class TestReportFingerprint:
    def test_seconds_is_the_only_free_field(self):
        spec = hw_spec()
        params = EngineParams(exhaustive=True, workers=1, target_shards=1)
        a = run_scenario(build_scenario(spec), params, spec=spec).report
        b = run_scenario(build_scenario(spec), params, spec=spec).report
        assert a.seconds != b.seconds or True  # timing may differ
        assert report_fingerprint(a) == report_fingerprint(b)

    def test_content_change_changes_the_fingerprint(self):
        spec = hw_spec()
        params = EngineParams(exhaustive=True, workers=1, target_shards=1)
        report = run_scenario(build_scenario(spec), params,
                              spec=spec).report
        before = report_fingerprint(report)
        report.executions += 1
        assert report_fingerprint(report) != before


class TestAuditSampler:
    def test_fraction_bounds_are_validated(self):
        with pytest.raises(ValueError):
            AuditSampler(-0.1)
        with pytest.raises(ValueError):
            AuditSampler(1.5)

    def test_zero_audits_nothing_one_audits_everything(self):
        off, full = AuditSampler(0.0), AuditSampler(1.0)
        assert not any(off.should_audit(s) for s in range(64))
        assert all(full.should_audit(s) for s in range(64))

    def test_deterministic_per_seed_and_shard(self):
        a, b = AuditSampler(0.5, seed=9), AuditSampler(0.5, seed=9)
        assert [a.should_audit(s) for s in range(128)] \
            == [b.should_audit(s) for s in range(128)]

    def test_fraction_roughly_respected(self):
        picked = sum(AuditSampler(0.25, seed=1).should_audit(s)
                     for s in range(1000))
        assert 150 < picked < 350


class TestBisectDivergence:
    def test_equal_documents_yield_none(self):
        doc = {"a": [1, {"b": 2}], "c": "x"}
        assert bisect_divergence(doc, doc) is None

    def test_descends_to_the_minimal_leaf(self):
        expected = {"styles": {"lat-hb": {"checked": 20, "failed": 3}}}
        observed = {"styles": {"lat-hb": {"checked": 20, "failed": 4}}}
        path, want, got = bisect_divergence(expected, observed)
        assert path == "$.styles.lat-hb.failed"
        assert (want, got) == (3, 4)

    def test_length_mismatch_stops_at_the_container(self):
        path, want, got = bisect_divergence({"t": [1, 2]}, {"t": [1]})
        assert path == "$.t.length"
        assert (want, got) == (2, 1)

    def test_missing_key_is_named(self):
        path, want, got = bisect_divergence({"a": 1}, {})
        assert path == "$.a"
        assert (want, got) == (1, None)


class TestAuditedPoolRun:
    def test_lying_worker_convicted_repaired_and_witnessed(self, tmp_path):
        """Acceptance: `pool.flip_result_byte` rotates a digit of the
        execution count *before* the CRC is stamped, so the transport
        accepts the lie.  With ``audit_fraction=1.0`` the trusted
        re-execution must convict the worker, quarantine the pool,
        substitute the trusted result (merge equals serial), degrade
        coverage honestly, and persist a replayable witness."""
        spec = hw_spec()
        serial = run_scenario(
            build_scenario(spec),
            EngineParams(exhaustive=True, workers=1, target_shards=1),
            spec=spec).report
        corpus = str(tmp_path / "corpus.jsonl")
        params = EngineParams(exhaustive=True, workers=2, target_shards=4,
                              shard_timeout=2.0, audit_fraction=1.0,
                              corpus=corpus)
        plan = FaultPlan((Fault("pool.flip_result_byte", "corrupt",
                                shard=1, attempt=1),))
        with plan:
            result = run_scenario(build_scenario(spec), params, spec=spec)
        tel = result.telemetry
        assert tel.audit_divergences == 1
        assert tel.audits_done >= 4
        assert tel.workers_quarantined == 1
        # The trusted substitution repairs the merge; the conviction
        # degrades coverage, so the report cannot claim exhaustiveness.
        assert result.coverage.divergences == 1
        assert result.coverage.degraded
        repaired = result.report
        assert repaired.exhausted is False
        repaired.exhausted = serial.exhausted
        assert_reports_equal(repaired, serial)
        # The witness replays from the persisted corpus: a fresh
        # trusted execution confirms the recorded expected fingerprint
        # and the recorded observation stays the outlier.
        assert os.path.exists(corpus)
        witnesses = [e for e in load_corpus(corpus)
                     if e.kind == "divergence"]
        assert len(witnesses) == 1
        witness = witnesses[0]
        assert witness.expected_fingerprint != witness.observed_fingerprint
        assert witness.divergence_path
        outcome = replay_divergence(witness)
        assert outcome.reproduced, outcome.detail

    def test_clean_run_audits_without_findings(self):
        spec = hw_spec()
        serial = run_scenario(
            build_scenario(spec),
            EngineParams(exhaustive=True, workers=1, target_shards=1),
            spec=spec).report
        params = EngineParams(exhaustive=True, workers=2, target_shards=4,
                              shard_timeout=2.0, audit_fraction=1.0)
        result = run_scenario(build_scenario(spec), params, spec=spec)
        tel = result.telemetry
        assert tel.audits_done >= 4
        assert tel.audit_divergences == 0
        assert not result.coverage.degraded
        assert_reports_equal(result.report, serial)

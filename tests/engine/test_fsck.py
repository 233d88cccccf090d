"""The unified artifact auditor: audit, quarantine-and-heal, invariants."""

from __future__ import annotations

import json
import os

from repro.engine.audit import report_fingerprint
from repro.engine.durable import (append_line, encode_line,
                                  read_records)
from repro.engine.fsck import (FsckReport, audit_jsonl,
                               audit_wal_invariants, classify_record,
                               run_fsck)
from repro.service.store import WAL_KINDS, JobStore

WAL = [
    {"rec": "submit", "job": "job-0001", "seq": 1, "name": "n",
     "dedupe": "k", "spec": {"builder": "x"}, "params": {}},
    {"rec": "grant", "job": "job-0001", "shard": 0, "token": 1,
     "attempt": 1, "node": "n0"},
    {"rec": "grant", "job": "job-0001", "shard": 1, "token": 2,
     "attempt": 1, "node": "n0"},
    {"rec": "merge", "job": "job-0001", "shard": 0, "token": 1,
     "executions": 4},
]


def _write(path, payloads):
    for p in payloads:
        append_line(str(path), p, "s")


class TestClassify:
    def test_each_artifact_family_is_recognized(self):
        assert classify_record({"rec": "submit"}) == "wal"
        assert classify_record({"fp": "abc", "marker": "m"}) == "checkpoint"
        assert classify_record({"kind": "race", "trace": []}) == "corpus"
        assert classify_record({"x": 1}) == "unknown"


class TestAuditCleanliness:
    def test_clean_tree_exits_zero(self, tmp_path):
        _write(tmp_path / "wal.jsonl", WAL)
        (tmp_path / "report.json").write_text(json.dumps({"ok": True}))
        report = run_fsck(str(tmp_path))
        assert report.exit_code() == 0 and not report.findings
        assert report.files == 2 and report.records == 4

    def test_rejected_sidecars_are_not_audited(self, tmp_path):
        _write(tmp_path / "wal.jsonl", WAL)
        (tmp_path / "wal.jsonl.rejected").write_text("GARBAGE\n")
        assert run_fsck(str(tmp_path)).exit_code() == 0


class TestQuarantineAndHeal:
    def test_mid_file_damage_is_quarantined_not_just_tails(self, tmp_path):
        """The generalization of ``repair_tail``: a corrupt line in the
        *middle* of the log is quarantined and the file atomically
        rewritten with every intact record, in order."""
        path = tmp_path / "wal.jsonl"
        _write(path, WAL[:2])
        with open(path, "a") as fh:
            fh.write("MID-FILE GARBAGE\n")
        _write(path, WAL[2:])
        audit = run_fsck(str(path))
        assert audit.exit_code() == 1
        healed = run_fsck(str(path), repair=True)
        assert healed.exit_code() == 3
        records, diag = read_records(str(path))
        assert records == WAL and diag.corrupt == 0
        assert "GARBAGE" in (path.parent / "wal.jsonl.rejected").read_text()
        assert run_fsck(str(path)).exit_code() == 0

    def test_torn_tail_is_healed(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        _write(path, WAL)
        with open(path, "a") as fh:
            fh.write(encode_line({"rec": "done", "job": "job-0001",
                                  "ok": True, "summary": {}})[:15])
        assert run_fsck(str(path), repair=True).exit_code() == 3
        records, _ = read_records(str(path))
        assert records == WAL

    def test_missing_final_newline_alone_is_restored(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        _write(path, WAL)
        with open(path, "rb+") as fh:
            fh.seek(-1, os.SEEK_END)
            fh.truncate()
        assert run_fsck(str(path), repair=True).exit_code() == 3
        records, _ = read_records(str(path))
        assert records == WAL  # nothing was lost, only re-terminated

    def test_stray_tmp_files_are_removed(self, tmp_path):
        stray = tmp_path / "report.json.x1.tmp"
        stray.write_text("{par")
        assert run_fsck(str(tmp_path)).exit_code() == 1
        assert run_fsck(str(tmp_path), repair=True).exit_code() == 3
        assert not stray.exists()

    def test_corrupt_summary_is_quarantined_wholesale(self, tmp_path):
        (tmp_path / "report.json").write_text("{not json")
        assert run_fsck(str(tmp_path), repair=True).exit_code() == 3
        assert not (tmp_path / "report.json").exists()
        assert (tmp_path / "report.json.rejected").exists()


class TestWalInvariants:
    def _findings(self, records):
        return [f.what for f in audit_wal_invariants("wal", records)]

    def test_a_clean_wal_has_no_findings(self):
        assert self._findings(WAL) == []

    def test_merge_without_grant_is_flagged(self):
        bad = [WAL[0], WAL[3]]
        assert any("no grant" in w for w in self._findings(bad))

    def test_merge_token_above_the_grant_is_flagged(self):
        bad = list(WAL)
        bad[3] = dict(WAL[3], token=9)
        assert any("exceeds the highest granted" in w
                   for w in self._findings(bad))

    def test_duplicate_merge_is_flagged(self):
        assert any("merged twice" in w
                   for w in self._findings(WAL + [WAL[3]]))

    def test_token_floor_regression_is_flagged(self):
        bad = WAL[:3] + [dict(WAL[1], shard=2, token=1)]
        assert any("floor regressed" in w for w in self._findings(bad))

    def test_invariant_violations_survive_repair(self, tmp_path):
        """Accounting violations are evidence, not damage: ``--repair``
        must leave them (and the records behind them) alone."""
        path = tmp_path / "wal.jsonl"
        _write(path, [WAL[0], WAL[3]])
        report = run_fsck(str(path), repair=True)
        assert report.exit_code() == 1  # found, not repaired
        records, _ = read_records(str(path))
        assert records == [WAL[0], WAL[3]]


class TestRepairThenResume:
    def test_healed_checkpoint_resumes_byte_equal_to_serial(self, tmp_path):
        """The acceptance path: tear the checkpoint mid-record, let
        ``fsck --repair`` heal it, and the resumed run must merge to
        byte-for-byte the serial DPOR report."""
        from repro.core import SpecStyle
        from repro.engine import (EngineParams, build_scenario,
                                  run_scenario)
        from ._support import hw_spec
        spec = hw_spec()

        def params(shards, ck=None):
            return EngineParams(styles=(SpecStyle.LAT_HB,),
                                exhaustive=True, workers=1,
                                target_shards=shards,
                                checkpoint=ck)

        serial = report_fingerprint(run_scenario(
            build_scenario(spec), params(1), spec=spec).report)
        ck = tmp_path / "checkpoint.jsonl"
        run_scenario(build_scenario(spec), params(4, str(ck)), spec=spec)
        # Crash mid-append: half of one checkpoint record, no newline.
        data = ck.read_bytes()
        cut = data.rfind(b"\n", 0, len(data) - 1) + 1
        ck.write_bytes(data[:cut + (len(data) - cut) // 2])
        healed = run_fsck(str(ck), repair=True)
        assert healed.exit_code() == 3
        resumed = run_scenario(build_scenario(spec),
                               params(4, str(ck)), spec=spec)
        assert report_fingerprint(resumed.report) == serial

    def test_exit_code_table_is_exhaustive(self):
        assert FsckReport().exit_code() == 0
        from repro.engine.fsck import Finding
        assert FsckReport(findings=[Finding("p", "w")]).exit_code() == 1
        assert FsckReport(findings=[
            Finding("p", "w", repairable=True, repaired=True)
        ]).exit_code() == 3


class TestRepairIdempotency:
    """``fsck --repair`` must converge: once a tree is healed, every
    further repair run is a no-op exiting 0.

    Regression: the WAL whitelist lagged `JobStore._apply` — the audit
    layer's ``divergence`` records were "unknown kind" to fsck, so
    repairing a perfectly healthy tree quarantined valid records and
    never reached a fixed point.
    """

    @staticmethod
    def _full_wal(path):
        """A healthy WAL holding one record of every kind, written
        through the `JobStore` API; returns its records."""
        store = JobStore(str(path))
        done, _ = store.submit("done", {"builder": "x"}, {}, "k")
        store.mark_running(done.job_id)
        store.record_grant(done.job_id, 1, 2, 1, "n0")
        store.record_divergence(done.job_id, 1, "n0",
                                {"kind": "result-divergence", "shard": 1,
                                 "worker": "node n0"})
        store.record_merge(done.job_id, 1, 2, 4)
        store.finish(done.job_id, ok=True, summary={})
        failed, _ = store.submit("failed", {"builder": "x"}, {})
        store.fail(failed.job_id, "boom")
        cancelled, _ = store.submit("cancelled", {"builder": "x"}, {})
        store.cancel(cancelled.job_id)
        records, _ = read_records(str(path))
        assert {r["rec"] for r in records} == set(WAL_KINDS)
        return records

    def test_repair_of_a_healthy_tree_is_a_noop(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        self._full_wal(path)
        before = path.read_bytes()
        report = run_fsck(str(path), repair=True)
        assert report.exit_code() == 0 and not report.findings
        assert path.read_bytes() == before
        assert not (tmp_path / "wal.jsonl.rejected").exists()

    def test_second_repair_after_damage_is_a_noop(self, tmp_path):
        full = self._full_wal(tmp_path / "healthy.jsonl")
        path = tmp_path / "wal.jsonl"
        _write(path, full[:3])
        with open(path, "a") as fh:
            fh.write("MID-FILE GARBAGE\n")
        _write(path, full[3:])
        assert run_fsck(str(path), repair=True).exit_code() == 3
        records, _ = read_records(str(path))
        # Every valid record — the divergence one included — survived.
        assert records == full
        healed = path.read_bytes()
        again = run_fsck(str(path), repair=True)
        assert again.exit_code() == 0 and not again.findings
        assert path.read_bytes() == healed

    def test_divergence_without_grant_is_flagged_not_eaten(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        orphan = [WAL[0], {"rec": "divergence", "job": "job-0001",
                           "shard": 7, "node": "n0", "finding": {}}]
        _write(path, orphan)
        report = run_fsck(str(path), repair=True)
        assert report.exit_code() == 1  # evidence, not damage
        assert any("no grant" in f.what for f in report.findings)
        records, _ = read_records(str(path))
        assert records == orphan

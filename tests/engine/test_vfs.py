"""The injectable durable-I/O layer: fault shim, rollback, tracing."""

import errno
import json
import os
import threading

import pytest

from repro.engine import vfs
from repro.engine.durable import append_line, read_records
from repro.engine.faults import Fault, FaultPlan
from repro.engine.vfs import (DurableWriteError, OsVFS, TraceVFS,
                              atomic_write_text, get_vfs, install)


class TestAppendBlob:
    def test_append_accumulates(self, tmp_path):
        path = str(tmp_path / "log")
        v = OsVFS()
        v.append_blob(path, b"one\n", "s")
        v.append_blob(path, b"two\n", "s")
        assert open(path, "rb").read() == b"one\ntwo\n"

    def test_enospc_rolls_back_and_raises(self, tmp_path):
        path = str(tmp_path / "log")
        OsVFS().append_blob(path, b"keep\n", "s")
        plan = FaultPlan((Fault("corpus.append", "enospc"),), seed=1)
        with plan, pytest.raises(DurableWriteError) as exc:
            OsVFS().append_blob(path, b"lost\n", "corpus.append")
        assert exc.value.errno == errno.ENOSPC
        assert exc.value.path == path
        # The failed record is rolled back off the log entirely.
        assert open(path, "rb").read() == b"keep\n"

    def test_partial_write_then_enospc_rolls_back(self, tmp_path):
        """``after_bytes`` models the disk filling mid-record: some
        bytes land, then the write fails — the rollback must remove
        the partial record, not leave it torn on disk."""
        path = str(tmp_path / "log")
        OsVFS().append_blob(path, b"keep\n", "s")
        plan = FaultPlan(
            (Fault("corpus.append", "enospc", after_bytes=3),), seed=1)
        with plan, pytest.raises(DurableWriteError):
            OsVFS().append_blob(path, b"lost-record\n", "corpus.append")
        assert open(path, "rb").read() == b"keep\n"

    def test_eio_carries_its_errno(self, tmp_path):
        path = str(tmp_path / "log")
        plan = FaultPlan((Fault("wal", "eio"),), seed=1)
        with plan, pytest.raises(DurableWriteError) as exc:
            OsVFS().append_blob(path, b"x\n", "wal")
        assert exc.value.errno == errno.EIO

    def test_torn_at_cuts_at_the_byte(self, tmp_path):
        path = str(tmp_path / "log")
        plan = FaultPlan((Fault("s", "torn", torn_at=4),), seed=1)
        with plan:
            OsVFS().append_blob(path, b"0123456789\n", "s")
        assert open(path, "rb").read() == b"0123\n"

    def test_fsync_drop_still_lands_the_bytes(self, tmp_path):
        path = str(tmp_path / "log")
        plan = FaultPlan((Fault("s", "fsync_drop"),), seed=1)
        with plan:
            OsVFS().append_blob(path, b"unsynced\n", "s")
        # The OS cache still holds the write; only the barrier is gone.
        assert open(path, "rb").read() == b"unsynced\n"

    def test_faults_are_one_shot_per_site(self, tmp_path):
        path = str(tmp_path / "log")
        plan = FaultPlan((Fault("s", "enospc"),), seed=1)
        with plan:
            with pytest.raises(DurableWriteError):
                OsVFS().append_blob(path, b"a\n", "s")
            OsVFS().append_blob(path, b"b\n", "s")  # retry wins
        assert open(path, "rb").read() == b"b\n"


class TestAtomicWrite:
    def test_replaces_whole_file(self, tmp_path):
        path = str(tmp_path / "report.json")
        atomic_write_text(path, "old")
        atomic_write_text(path, "new")
        assert open(path).read() == "new"
        assert [p for p in os.listdir(tmp_path) if ".tmp" in p] == []

    def test_failure_keeps_the_old_content(self, tmp_path):
        path = str(tmp_path / "report.json")
        atomic_write_text(path, "old", site="report.write")
        plan = FaultPlan((Fault("report.write", "enospc"),), seed=1)
        with plan, pytest.raises(DurableWriteError):
            atomic_write_text(path, "new", site="report.write")
        assert open(path).read() == "old"
        assert [p for p in os.listdir(tmp_path) if ".tmp" in p] == []


class TestInstall:
    def test_install_swaps_and_restores(self, tmp_path):
        traced = TraceVFS(str(tmp_path))
        assert isinstance(get_vfs(), OsVFS)
        with install(traced):
            assert get_vfs() is traced
        assert get_vfs() is not traced

    def test_install_is_per_thread(self, tmp_path):
        traced = TraceVFS(str(tmp_path))
        seen = []
        with install(traced):
            other = threading.Thread(
                target=lambda: seen.append(get_vfs()))
            other.start()
            other.join()
        assert seen[0] is not traced


class TestTraceVFS:
    def test_records_appends_with_relative_paths(self, tmp_path):
        traced = TraceVFS(str(tmp_path))
        with install(traced):
            append_line(str(tmp_path / "wal.jsonl"),
                        {"rec": "submit"}, "service.wal")
            traced.mark("acked")
        kinds = [(op.kind, op.path) for op in traced.ops]
        assert kinds == [("append", "wal.jsonl"), ("mark", "")]
        assert traced.ops[0].synced
        assert traced.ops[1].label == "acked"
        assert json.loads(traced.ops[0].data.decode())["rec"] == "submit"

    def test_records_unsynced_flag(self, tmp_path):
        traced = TraceVFS(str(tmp_path))
        plan = FaultPlan((Fault("s", "fsync_drop"),), seed=1)
        with plan, install(traced):
            traced.append_blob(str(tmp_path / "log"), b"x\n", "s")
        assert not traced.ops[0].synced

    def test_truncate_records_surviving_content(self, tmp_path):
        path = str(tmp_path / "log")
        traced = TraceVFS(str(tmp_path))
        with install(traced):
            traced.append_blob(path, b"keep\ntorn", "s")
            traced.truncate(path, 5, site="repair")
        op = traced.ops[-1]
        assert op.kind == "truncate" and op.data == b"keep\n"


class TestGracefulDegradation:
    def test_checkpoint_writer_collects_instead_of_raising(self, tmp_path):
        from repro.checking import ScenarioReport
        from repro.engine import CheckpointWriter
        writer = CheckpointWriter(str(tmp_path / "ck.jsonl"), "fp")
        plan = FaultPlan((Fault("checkpoint.append", "enospc"),), seed=1)
        with plan:
            writer.write_shard(0, ScenarioReport(scenario="s"), [])
        assert len(writer.write_errors) == 1
        records, _ = read_records(str(tmp_path / "ck.jsonl"))
        assert records == []  # nothing half-written

    def test_append_entries_collects_with_error_list(self, tmp_path):
        from repro.engine import CorpusEntry, append_entries
        entries = [CorpusEntry(kind="race", trace=[(0, i)], violation="v")
                   for i in range(3)]
        errors = []
        plan = FaultPlan((Fault("corpus.append", "eio"),), seed=1)
        with plan:
            written = append_entries(str(tmp_path / "corpus.jsonl"),
                                     entries, errors=errors)
        # One entry lost to EIO, the rest of the flush carried on.
        assert written == 2 and len(errors) == 1

    def test_append_entries_raises_without_error_list(self, tmp_path):
        from repro.engine import CorpusEntry, append_entries
        plan = FaultPlan((Fault("corpus.append", "eio"),), seed=1)
        with plan, pytest.raises(DurableWriteError):
            append_entries(str(tmp_path / "corpus.jsonl"),
                           [CorpusEntry(kind="race", trace=[(0, 0)],
                                        violation="v")])

    def test_coverage_counts_durable_errors_as_degraded(self):
        from repro.engine import Coverage
        cov = Coverage(shards_total=4, shards_complete=4,
                       durable_errors=2)
        assert cov.degraded
        assert "2 durable writes lost" in cov.line()

    def test_run_scenario_degrades_honestly_on_disk_errors(self, tmp_path):
        """An exhaustive run whose checkpoint appends hit ENOSPC keeps
        its in-memory result but must stop claiming ``exhausted``."""
        from repro.core import SpecStyle
        from repro.engine import (EngineParams, build_scenario,
                                  run_scenario)
        from ._support import hw_spec
        styles = (SpecStyle.LAT_HB,)
        spec = hw_spec()

        def params(ck):
            return EngineParams(styles=styles, exhaustive=True,
                                workers=1, target_shards=4,
                                checkpoint=ck)

        plan = FaultPlan(tuple(Fault("checkpoint.append", "enospc")
                               for _ in range(2)), seed=1)
        with plan:
            result = run_scenario(build_scenario(spec),
                                  params(str(tmp_path / "ck.jsonl")),
                                  spec=spec)
        assert result.coverage.durable_errors >= 1
        assert result.coverage.degraded
        assert not result.report.exhausted
        assert result.telemetry.durable_write_errors >= 1
        # Everything *except* the honesty flag matches a clean run:
        # the in-memory result itself was never lost.
        clean = run_scenario(build_scenario(spec),
                             params(str(tmp_path / "ck2.jsonl")),
                             spec=spec)
        assert result.report.executions == clean.report.executions
        assert clean.report.exhausted

"""Durable JSONL framing: CRC tags, torn writes, quarantine on load."""

import os
import socket

import pytest

from repro.engine.dist.protocol import Channel
from repro.engine.durable import (REJECTED_SUFFIX, CorruptLine,
                                  append_line, canonical, decode_line,
                                  encode_line, read_records,
                                  repair_tail)
from repro.engine.faults import Fault, FaultPlan


class TestLineFraming:
    def test_round_trip(self):
        payload = {"shard": 3, "report": {"executions": 9}}
        line = encode_line(payload)
        assert decode_line(line) == payload

    def test_line_without_crc_is_corrupt(self):
        with pytest.raises(CorruptLine):
            decode_line('{"shard": 1}')

    def test_channel_drops_a_frame_without_crc(self):
        """Every frame on the wire is CRC-checked: one without a CRC is
        counted and skipped, and the next intact frame comes through."""
        ours, theirs = socket.socketpair()
        try:
            theirs.sendall(b'{"t": "result", "shard": 1}\n'
                           + (encode_line({"t": "beat", "shard": 2})
                              + "\n").encode("utf-8"))
            ch = Channel(ours)
            assert ch.recv(timeout=5.0) == {"t": "beat", "shard": 2}
            assert ch.corrupt == 1
        finally:
            ours.close()
            theirs.close()

    def test_crc_mismatch_detected(self):
        line = encode_line({"shard": 3, "n": 100})
        tampered = line.replace("100", "999")
        with pytest.raises(CorruptLine):
            decode_line(tampered)

    def test_garbage_detected(self):
        with pytest.raises(CorruptLine):
            decode_line('{"shard": 3, "repo')
        with pytest.raises(CorruptLine):
            decode_line("[1, 2, 3]")

    def test_canonical_is_key_order_independent(self):
        assert canonical({"b": 1, "a": 2}) == canonical({"a": 2, "b": 1})


class TestAppendAndRead:
    def test_append_then_read(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        append_line(path, {"shard": 0}, site="checkpoint.append")
        append_line(path, {"shard": 1}, site="checkpoint.append")
        records, diag = read_records(path)
        assert records == [{"shard": 0}, {"shard": 1}]
        assert (diag.total, diag.loaded, diag.corrupt) == (2, 2, 0)

    def test_missing_file_is_empty(self, tmp_path):
        records, diag = read_records(str(tmp_path / "absent.jsonl"))
        assert records == [] and diag.total == 0

    def test_corrupt_lines_skipped_and_quarantined(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        append_line(path, {"shard": 0}, site="checkpoint.append")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"shard": 1, "torn-off-mid\n')
            fh.write("\n")  # blank lines are not corruption
            fh.write("not json at all\n")
        append_line(path, {"shard": 2}, site="checkpoint.append")
        records, diag = read_records(path)
        assert records == [{"shard": 0}, {"shard": 2}]
        assert diag.corrupt == 2
        assert diag.rejected_path == path + REJECTED_SUFFIX
        with open(diag.rejected_path, encoding="utf-8") as fh:
            assert len(fh.readlines()) == 2

    def test_line_without_crc_is_quarantined(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        append_line(path, {"shard": 0}, site="checkpoint.append")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"shard": 1}\n')  # parses, but carries no CRC
        append_line(path, {"shard": 2}, site="checkpoint.append")
        records, diag = read_records(path)
        assert records == [{"shard": 0}, {"shard": 2}]
        assert (diag.total, diag.loaded, diag.corrupt) == (3, 2, 1)
        with open(diag.rejected_path, encoding="utf-8") as fh:
            assert fh.readlines() == ['{"shard": 1}\n']

    def test_quarantine_is_idempotent(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("broken line\n")
        read_records(path)
        read_records(path)  # same bad line must not be re-quarantined
        with open(path + REJECTED_SUFFIX, encoding="utf-8") as fh:
            assert fh.readlines() == ["broken line\n"]

    def test_torn_fault_tears_exactly_one_append(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        plan = FaultPlan((Fault("corpus.append", "torn"),), seed=5)
        with plan:
            append_line(path, {"entry": 0}, site="corpus.append")
            append_line(path, {"entry": 1}, site="corpus.append")
        records, diag = read_records(path)
        # The fault is one-shot: first write torn, second intact.
        assert records == [{"entry": 1}]
        assert diag.corrupt == 1

    def test_quarantine_dedupes_by_content_not_position(self, tmp_path):
        """The ``.rejected`` sidecar dedupes on line CRC: re-reading a
        log that grew a *new* corrupt line appends only the new one,
        and a corrupt line repeated in the log lands exactly once."""
        path = str(tmp_path / "log.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("first bad line\n")
            fh.write("first bad line\n")  # repeated corruption
        read_records(path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("second bad line\n")
        read_records(path)
        with open(path + REJECTED_SUFFIX, encoding="utf-8") as fh:
            assert fh.readlines() == ["first bad line\n",
                                      "second bad line\n"]


class TestTornTailRepair:
    """A crash mid-``O_APPEND`` can cut the final record *and* its
    newline; the loader must truncate-and-quarantine the tail instead
    of letting the next append glue onto it (satellite regression)."""

    def _tear_tail(self, path, keep=12):
        with open(path, "rb") as fh:
            data = fh.read()
        cut = data.rfind(b"\n", 0, len(data) - 1) + 1
        with open(path, "wb") as fh:
            fh.write(data[:cut + keep])  # partial record, no newline

    def test_torn_tail_truncated_and_quarantined(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        append_line(path, {"shard": 0}, site="checkpoint.append")
        append_line(path, {"shard": 1}, site="checkpoint.append")
        self._tear_tail(path)
        records, diag = read_records(path)
        assert records == [{"shard": 0}]
        assert diag.corrupt == 1
        assert diag.rejected_path == path + REJECTED_SUFFIX
        with open(path, "rb") as fh:
            assert fh.read().endswith(b"\n")  # truncated to a boundary

    def test_later_appends_never_glue_onto_a_torn_tail(self, tmp_path):
        """The actual hazard: without the repair, the post-crash append
        concatenates onto the torn tail and one crash destroys a
        healthy record too."""
        path = str(tmp_path / "log.jsonl")
        append_line(path, {"shard": 0}, site="checkpoint.append")
        append_line(path, {"shard": 1}, site="checkpoint.append")
        self._tear_tail(path)
        read_records(path)  # the crash-recovery load heals the file
        append_line(path, {"shard": 2}, site="checkpoint.append")
        records, diag = read_records(path)
        assert records == [{"shard": 0}, {"shard": 2}]
        assert diag.corrupt == 0  # already healed; nothing new rejected

    def test_intact_record_missing_only_its_newline_is_kept(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        append_line(path, {"shard": 0}, site="checkpoint.append")
        append_line(path, {"shard": 1}, site="checkpoint.append")
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(data[:-1])  # only the newline was torn off
        assert repair_tail(path) is None
        records, diag = read_records(path)
        assert records == [{"shard": 0}, {"shard": 1}]
        assert diag.corrupt == 0
        with open(path, "rb") as fh:
            assert fh.read() == data  # newline restored in place

    def test_repair_is_a_noop_on_clean_and_missing_files(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        assert repair_tail(path) is None  # missing file
        append_line(path, {"shard": 0}, site="checkpoint.append")
        with open(path, "rb") as fh:
            before = fh.read()
        assert repair_tail(path) is None  # clean file
        with open(path, "rb") as fh:
            assert fh.read() == before

    def test_no_quarantine_means_no_repair(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        append_line(path, {"shard": 0}, site="checkpoint.append")
        self._tear_tail(path, keep=5)
        with open(path, "rb") as fh:
            before = fh.read()
        read_records(path, quarantine=False)
        with open(path, "rb") as fh:
            assert fh.read() == before  # read-only load: file untouched

    def test_whole_file_is_one_torn_record(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"shard": 0, "cut-off-mi')  # no newline at all
        records, diag = read_records(path)
        assert records == []
        assert diag.corrupt == 1
        with open(path, "rb") as fh:
            assert fh.read() == b""  # truncated back to empty

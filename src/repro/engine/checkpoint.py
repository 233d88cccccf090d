"""Checkpoint/resume: completed-shard state as an append-only JSONL log.

Every completed shard appends one line::

    {"fp": "<run fingerprint>", "shard": 17,
     "report": {... report_to_json ...},
     "corpus": [... CorpusEntry.to_json ...],
     "v": 1, "crc": "<crc32 of the payload>"}

The ``v``/``crc`` framing and the single-``write()`` fsynced appends
come from `repro.engine.durable`; corrupt lines are quarantined to a
``.rejected`` sidecar on load instead of being silently dropped.

The *fingerprint* hashes everything that determines the work partition —
the scenario spec (or name for ad-hoc scenarios), the exploration
parameters, and the shard list itself — so a resume only trusts lines
written by an identical run.  Because shard planning is deterministic,
re-running the same invocation recomputes the same shard list, loads the
completed lines, and explores only what is missing; an interrupted run
(Ctrl-C, worker crash, step budget) loses at most the shards in flight.

A single checkpoint file can host several runs (fingerprint-tagged
lines), which is what lets one ``--resume`` path serve a CLI command
that checks several scenarios back to back.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional, Tuple

from ..checking.runner import ScenarioReport
from .corpus import CorpusEntry
from .durable import LineDiagnostics, append_line, read_records
from .vfs import DurableWriteError
from .merge import report_from_json, report_to_json
from .registry import ScenarioSpec
from .shard import Shard


def run_fingerprint(scenario_name: str, spec: Optional[ScenarioSpec],
                    params_json: Dict, shards: List[Shard]) -> str:
    payload = json.dumps({
        "scenario": spec.to_json() if spec else scenario_name,
        "params": params_json,
        "shards": [s.to_json() for s in shards],
    }, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def load_completed_ex(path: str, fingerprint: str) \
        -> Tuple[Dict[int, Tuple[ScenarioReport, List[CorpusEntry]]],
                 set, LineDiagnostics]:
    """Read a checkpoint file: completed shards, markers, diagnostics.

    Lines are versioned and CRC-tagged (`repro.engine.durable`); a line
    cut off mid-crash, bit-rotted, or otherwise malformed is skipped and
    quarantined to the ``.rejected`` sidecar — the shard it would have
    recorded is simply re-explored.  Markers (e.g. ``corpus_flushed``)
    record run-level events so a fully-resumed rerun does not repeat
    them.
    """
    done: Dict[int, Tuple[ScenarioReport, List[CorpusEntry]]] = {}
    markers: set = set()
    records, diag = read_records(path)
    for data in records:
        if data.get("fp") != fingerprint:
            continue
        if "marker" in data:
            markers.add(data["marker"])
            continue
        if "shard" not in data:
            continue
        try:
            done[int(data["shard"])] = (
                report_from_json(data["report"]),
                [CorpusEntry.from_json(e) for e in data.get("corpus", [])])
        except (KeyError, TypeError, ValueError):
            diag.loaded -= 1
            diag.corrupt += 1
    return done, markers, diag


class CheckpointWriter:
    """Appends one fingerprint-tagged durable line per completed shard.

    A failed append (``ENOSPC``/``EIO``, surfacing as
    `repro.engine.vfs.DurableWriteError`) does **not** propagate: the
    in-memory result is still merged, the error is collected in
    ``write_errors``, and `repro.engine.pool.finalize_run` folds the
    count into the run's `Coverage` so a resume-impaired run never
    claims a universal verdict.  The rollback inside
    `repro.engine.vfs.OsVFS.append_blob` guarantees the checkpoint file
    itself stays well-formed.
    """

    def __init__(self, path: str, fingerprint: str):
        self.path = path
        self.fingerprint = fingerprint
        #: Human-readable descriptions of appends lost to disk errors.
        self.write_errors: List[str] = []

    def write_shard(self, shard_id: int, report: ScenarioReport,
                    entries: List[CorpusEntry]) -> None:
        self._append({
            "fp": self.fingerprint,
            "shard": shard_id,
            "report": report_to_json(report),
            "corpus": [e.to_json() for e in entries],
        })

    def write_marker(self, marker: str) -> None:
        self._append({"fp": self.fingerprint, "marker": marker})

    def _append(self, payload: Dict) -> None:
        try:
            append_line(self.path, payload, site="checkpoint.append")
        except DurableWriteError as err:
            self.write_errors.append(str(err))

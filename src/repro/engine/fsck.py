"""``repro fsck``: one auditor over every durable artifact the repo writes.

Four on-disk formats carry campaign state — the **checkpoint** log,
the **corpus** log, the service **WAL** (all CRC-framed JSONL,
`repro.engine.durable`), and whole-file **JSON summaries**
(``report.json``, ``service.json``).  Each already has a tolerant
loader, but the loaders heal lazily, one file at a time, on the next
use.  ``fsck`` audits them all up front, and with ``--repair``
generalizes `repro.engine.durable.repair_tail` into
**quarantine-and-heal for any damaged record**, not just a torn tail:

* per-record integrity: version/CRC framing, parseability, and
  per-kind field validation (a WAL record names a known ``rec`` kind;
  a corpus line rebuilds a `CorpusEntry`; a checkpoint line carries a
  fingerprint plus a shard report or a marker);
* file-level damage: a torn final record (no trailing newline), stray
  ``*.tmp`` files left by an interrupted atomic write, an unparseable
  JSON summary;
* cross-artifact invariants over the WAL's accounting: every
  ``merge`` record references a shard some ``grant`` record granted,
  merge tokens never exceed the shard's granted token, no shard is
  merged twice, and the fencing-token floor never regresses along the
  log.

Repairs are conservative: damaged records are quarantined to the
``.rejected`` sidecar (the same discipline every loader uses) and the
file is atomically rewritten with only its intact lines; nothing is
ever invented.  Cross-artifact violations are **reported, never
repaired** — they mean the accounting itself is wrong, and deleting
evidence would hide the bug the audit exists to find.

Exit codes (``python -m repro fsck [PATH] [--repair]``):

=====  ================================================================
exit   meaning
=====  ================================================================
0      clean: every artifact intact, all invariants hold
1      issues found (without ``--repair``), or issues that remain
       after repair (cross-artifact violations are never repaired)
2      usage error (missing path)
3      ``--repair`` healed every issue; artifacts are now clean
=====  ================================================================
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..service.store import WAL_KINDS
from . import vfs as vfs_mod
from .corpus import CorpusEntry
from .durable import (REJECTED_SUFFIX, CorruptLine, _quarantine,
                      decode_line, encode_line)

#: Files fsck treats as whole-file JSON summaries.
SUMMARY_NAMES = ("report.json", "service.json")


@dataclass
class Finding:
    """One problem the audit saw."""

    path: str
    what: str
    #: A repair pass can heal this (quarantine/truncate/unlink).
    repairable: bool = False
    #: The repair pass healed it.
    repaired: bool = False

    def line(self) -> str:
        tag = "repaired" if self.repaired else \
            ("repairable" if self.repairable else "unrepairable")
        return f"{self.path}: {self.what} [{tag}]"


@dataclass
class FsckReport:
    """The audit's verdict over one tree or file."""

    files: int = 0
    records: int = 0
    findings: List[Finding] = field(default_factory=list)

    @property
    def unrepaired(self) -> List[Finding]:
        return [f for f in self.findings if not f.repaired]

    def exit_code(self) -> int:
        if not self.findings:
            return 0
        if not self.unrepaired:
            return 3
        return 1

    def summary(self) -> str:
        healed = sum(f.repaired for f in self.findings)
        verdict = "clean" if not self.findings else \
            (f"{len(self.findings)} issue(s), {healed} repaired, "
             f"{len(self.unrepaired)} remaining")
        return (f"fsck: {self.files} artifact file(s), "
                f"{self.records} record(s): {verdict}")


# ----------------------------------------------------------------------
# Classification
# ----------------------------------------------------------------------

def classify_record(payload: Dict) -> str:
    """Which artifact family one decoded record belongs to."""
    if "rec" in payload:
        return "wal"
    if "fp" in payload:
        return "checkpoint"
    if "kind" in payload and "trace" in payload:
        return "corpus"
    return "unknown"


def _validate(kind: str, payload: Dict) -> Optional[str]:
    """Per-kind field validation; returns a problem or None."""
    if kind == "wal":
        if payload.get("rec") not in WAL_KINDS:
            return f"unknown WAL record kind {payload.get('rec')!r}"
        if payload["rec"] == "submit" and "spec" not in payload:
            return "WAL submit record carries no spec"
        if payload["rec"] in ("grant", "merge"):
            for fld in ("job", "shard", "token"):
                if fld not in payload:
                    return (f"WAL {payload['rec']} record missing "
                            f"{fld!r}")
        if payload["rec"] == "divergence":
            for fld in ("job", "shard"):
                if fld not in payload:
                    return (f"WAL divergence record missing {fld!r}")
    elif kind == "checkpoint":
        if "marker" in payload:
            return None
        if "shard" not in payload or "report" not in payload:
            return "checkpoint line is neither a shard nor a marker"
    elif kind == "corpus":
        try:
            CorpusEntry.from_json(payload)
        except (KeyError, TypeError, ValueError) as err:
            return f"corpus entry does not rebuild: {err}"
    return None


# ----------------------------------------------------------------------
# Per-file audit
# ----------------------------------------------------------------------

def _scan_lines(path: str) -> Tuple[List[Tuple[str, Optional[Dict],
                                               Optional[str]]], bool]:
    """Raw per-line scan: ``(line, payload|None, problem|None)`` rows
    plus whether the file ends in a torn (newline-less) tail."""
    with open(path, "rb") as fh:
        data = fh.read()
    torn_tail = bool(data) and not data.endswith(b"\n")
    rows = []
    for raw in data.decode("utf-8", errors="replace").split("\n"):
        line = raw.strip()
        if not line:
            continue
        try:
            payload = decode_line(line)
        except CorruptLine as err:
            rows.append((line, None, str(err)))
            continue
        rows.append((line, payload, None))
    return rows, torn_tail


def audit_jsonl(path: str, repair: bool = False) \
        -> Tuple[List[Finding], List[Dict], int]:
    """Audit one framed-JSONL artifact; returns ``(findings, intact
    records, record count)``.

    With ``repair``, damaged lines are quarantined to the
    ``.rejected`` sidecar and the file is **atomically rewritten**
    with only its intact lines — the generalization of
    `repro.engine.durable.repair_tail` from torn tails to arbitrary
    mid-file damage.  Intact records are never touched or reordered.
    """
    rows, torn_tail = _scan_lines(path)
    findings: List[Finding] = []
    intact: List[Dict] = []
    bad_lines: List[str] = []
    kinds: Dict[str, int] = {}
    for line, payload, problem in rows:
        if payload is not None and problem is None:
            kind = classify_record(payload)
            problem = _validate(kind, payload)
            if problem is None:
                kinds[kind] = kinds.get(kind, 0) + 1
                intact.append(payload)
                continue
        findings.append(Finding(path, problem or "corrupt line",
                                repairable=True))
        bad_lines.append(line)
    if torn_tail and not bad_lines:
        # The tail record itself decoded (only the newline was torn);
        # still a finding — the next append would glue onto it.
        findings.append(Finding(path, "missing final newline",
                                repairable=True))
    elif torn_tail:
        findings[-1].what += " (torn tail)"
    if len(kinds) > 1:
        findings.append(Finding(
            path, f"mixed artifact kinds in one file: {sorted(kinds)}"))
    if repair and (bad_lines or torn_tail):
        _quarantine(path, bad_lines)
        text = "".join(encode_line(p) + "\n" for p in intact)
        vfs_mod.atomic_write_bytes(path, text.encode("utf-8"),
                                   site="fsck.repair")
        for finding in findings:
            if finding.repairable:
                finding.repaired = True
    return findings, intact, len(rows)


def audit_summary(path: str, repair: bool = False) -> List[Finding]:
    """Audit one whole-file JSON summary (``report.json`` & co.)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            json.load(fh)
        return []
    except (OSError, ValueError) as err:
        finding = Finding(path, f"summary is not valid JSON: {err}",
                          repairable=True)
        if repair:
            # Quarantine wholesale: a summary is derivable from the
            # checkpoint, so moving the damage aside loses nothing.
            os.replace(path, path + REJECTED_SUFFIX)
            vfs_mod.get_vfs().fsync_dir(
                os.path.dirname(os.path.abspath(path)))
            finding.repaired = True
        return [finding]


# ----------------------------------------------------------------------
# Cross-artifact invariants (the WAL's accounting)
# ----------------------------------------------------------------------

def audit_wal_invariants(path: str, records: List[Dict]) \
        -> List[Finding]:
    """Accounting invariants across one WAL's intact records.

    These are never repairable: a merge for an ungranted shard or a
    regressed token floor means some incarnation *acted* wrongly, and
    the record of that is exactly what the audit must preserve.
    """
    findings: List[Finding] = []
    granted: Dict[Tuple[str, int], int] = {}  # (job, shard) -> max token
    merged: set = set()
    floor: Dict[str, int] = {}
    for rec in records:
        if classify_record(rec) != "wal":
            continue
        kind = rec.get("rec")
        job = rec.get("job", "")
        if kind == "grant":
            shard, token = int(rec["shard"]), int(rec["token"])
            if token <= floor.get(job, 0):
                findings.append(Finding(
                    path, f"token floor regressed: grant of token "
                          f"{token} for shard {shard} at or below the "
                          f"already-granted floor {floor[job]}"))
            floor[job] = max(floor.get(job, 0), token)
            key = (job, shard)
            granted[key] = max(granted.get(key, 0), token)
        elif kind == "merge":
            shard, token = int(rec["shard"]), int(rec["token"])
            key = (job, shard)
            if key not in granted:
                findings.append(Finding(
                    path, f"merge record for shard {shard} that no "
                          f"grant record granted"))
            elif token > granted[key]:
                findings.append(Finding(
                    path, f"merge token {token} exceeds the highest "
                          f"granted token {granted[key]} for shard "
                          f"{shard}"))
            if key in merged:
                findings.append(Finding(
                    path, f"shard {shard} merged twice"))
            merged.add(key)
        elif kind == "divergence":
            shard = int(rec["shard"])
            if (job, shard) not in granted:
                findings.append(Finding(
                    path, f"divergence record for shard {shard} that "
                          f"no grant record granted"))
    return findings


# ----------------------------------------------------------------------
# The walk
# ----------------------------------------------------------------------

def _targets(root: str) -> Tuple[List[str], List[str], List[str]]:
    """(jsonl files, summary files, stray temp files) under ``root``."""
    if os.path.isfile(root):
        if os.path.basename(root) in SUMMARY_NAMES:
            return [], [root], []
        return [root], [], []
    logs: List[str] = []
    summaries: List[str] = []
    strays: List[str] = []
    for dirpath, _dirs, names in sorted(os.walk(root)):
        for name in sorted(names):
            path = os.path.join(dirpath, name)
            if name.endswith(".tmp"):
                strays.append(path)
            elif name in SUMMARY_NAMES:
                summaries.append(path)
            elif name.endswith(".jsonl") \
                    and not name.endswith(REJECTED_SUFFIX):
                logs.append(path)
    return logs, summaries, strays


def run_fsck(target: str, repair: bool = False,
             emit: Callable = lambda line: None) -> FsckReport:
    """Audit (and with ``repair``, heal) every artifact under ``target``."""
    report = FsckReport()
    logs, summaries, strays = _targets(target)
    for path in logs:
        report.files += 1
        findings, intact, count = audit_jsonl(path, repair=repair)
        report.records += count
        findings.extend(audit_wal_invariants(path, intact))
        report.findings.extend(findings)
    for path in summaries:
        report.files += 1
        report.findings.extend(audit_summary(path, repair=repair))
    for path in strays:
        finding = Finding(path, "stray temp file from an interrupted "
                                "atomic write", repairable=True)
        if repair:
            try:
                os.unlink(path)
                finding.repaired = True
            except OSError as err:
                finding.what += f" (unlink failed: {err})"
        report.findings.append(finding)
    for finding in report.findings:
        emit(f"fsck: {finding.line()}")
    return report

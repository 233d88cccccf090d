"""Durable JSONL records: versioned, CRC-tagged, torn-write tolerant.

Both persistent logs (the checkpoint and the counterexample corpus) use
the same line discipline:

* every line is one JSON object carrying ``"v": 1`` and a ``"crc"`` —
  the CRC32 of the payload's canonical JSON (sorted keys, no spaces)
  *without* the two framing fields;
* appends are a **single** ``write()`` on an ``O_APPEND`` descriptor
  followed by ``fsync`` — concurrent appenders (the ROADMAP's
  distributed-sharding interface) interleave at line granularity and a
  crash can only ever tear the final line;
* loaders never raise on a damaged line: anything that fails to parse or
  fails its CRC is **quarantined** — appended once to a ``.rejected``
  sidecar next to the log — counted in :class:`LineDiagnostics`, and
  skipped.  A line without a ``crc`` is damage like any other.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from . import vfs

#: Current on-disk record version.
RECORD_VERSION = 1

#: Suffix of the quarantine sidecar for corrupt lines.
REJECTED_SUFFIX = ".rejected"


class CorruptLine(ValueError):
    """A JSONL line that failed to parse or failed its CRC."""


@dataclass
class LineDiagnostics:
    """What a tolerant load saw: kept and quarantined counts."""

    total: int = 0
    loaded: int = 0
    corrupt: int = 0
    rejected_path: Optional[str] = None

    def note(self, other: "LineDiagnostics") -> None:
        self.total += other.total
        self.loaded += other.loaded
        self.corrupt += other.corrupt
        self.rejected_path = other.rejected_path or self.rejected_path


def canonical(payload: Dict) -> str:
    """The byte-stable JSON form CRCs and content hashes are taken over."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _crc(payload: Dict) -> str:
    return f"{zlib.crc32(canonical(payload).encode('utf-8')):08x}"


def encode_line(payload: Dict) -> str:
    """Frame a payload as one versioned, CRC-tagged JSONL line."""
    framed = dict(payload)
    framed["v"] = RECORD_VERSION
    framed["crc"] = _crc(payload)
    return canonical(framed)


def decode_line(line: str) -> Dict:
    """Parse one line back to its payload.

    Raises :class:`CorruptLine` on anything unparseable, CRC-less or
    CRC-mismatched: a record without a CRC could carry any damage
    unverified (a single bit-flip in the "crc" *key* would otherwise
    load it verbatim).
    """
    try:
        data = json.loads(line)
    except json.JSONDecodeError as err:
        raise CorruptLine(f"unparseable JSONL line: {err}") from err
    if not isinstance(data, dict):
        raise CorruptLine("JSONL line is not an object")
    if "crc" not in data:
        raise CorruptLine("record without a CRC")
    crc = data.pop("crc")
    data.pop("v", None)
    if _crc(data) != crc:
        raise CorruptLine("CRC mismatch (torn or bit-rotted line)")
    return data


def append_line(path: str, payload: Dict, site: str) -> None:
    """Append one framed record: a single ``O_APPEND`` write + fsync.

    ``site`` names the fault-injection site (``checkpoint.append`` /
    ``corpus.append`` / ``service.wal``) so chaos runs can tear, fail,
    or unsync exactly this write.  Routed through the active
    `repro.engine.vfs` instance: a failed write (``ENOSPC``/``EIO``) is
    rolled back off the log and surfaces as
    `repro.engine.vfs.DurableWriteError` — the log itself stays
    well-formed.
    """
    data = (encode_line(payload) + "\n").encode("utf-8")
    vfs.get_vfs().append_blob(path, data, site)


def _line_crc(line: str) -> int:
    return zlib.crc32(line.encode("utf-8"))


def _quarantine(path: str, bad_lines: Iterable[str]) -> Optional[str]:
    """Append corrupt raw lines (once each) to the ``.rejected`` sidecar.

    Dedupe is by line CRC against everything already in the sidecar
    *and* within the incoming batch, so re-loading the same damaged log
    — or a log whose corruption repeats — never grows the sidecar: the
    quarantine is idempotent across reloads.
    """
    bad = [ln for ln in bad_lines if ln]
    if not bad:
        return None
    sidecar = path + REJECTED_SUFFIX
    seen = set()
    if os.path.exists(sidecar):
        with open(sidecar, "r", encoding="utf-8") as fh:
            seen = {_line_crc(ln.rstrip("\n")) for ln in fh}
    fresh: List[str] = []
    for ln in bad:
        crc = _line_crc(ln)
        if crc in seen:
            continue
        seen.add(crc)
        fresh.append(ln)
    if fresh:
        created = not os.path.exists(sidecar)
        vfs.get_vfs().append_blob(
            sidecar, ("\n".join(fresh) + "\n").encode("utf-8"),
            "quarantine.append")
        if created:
            # The quarantine itself must survive a crash: make the new
            # sidecar's directory entry durable too.
            vfs.get_vfs().fsync_dir(
                os.path.dirname(os.path.abspath(sidecar)))
    return sidecar


def repair_tail(path: str) -> Optional[str]:
    """Heal a torn final record left by a crash mid-``O_APPEND`` write.

    A ``kill -9`` between the kernel accepting part of an append and the
    newline landing leaves the log ending in a partial record with *no*
    trailing newline.  Left alone, the **next** append glues onto that
    tail and one corrupt line swallows a healthy record too.  This
    repairs the file in place before anyone appends again:

    * a complete record whose newline alone was torn off gets the
      newline restored (nothing is lost);
    * a genuinely torn tail is quarantined to the ``.rejected`` sidecar
      and the file truncated back to the last newline boundary — the
      rest of the log is kept, never rejected wholesale.

    Returns the quarantined tail text, or None when no repair was
    needed.  Call only when no concurrent appender is live (a loader's
    startup, a store's open) — truncation races appends.
    """
    if not path or not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        data = fh.read()
    if not data or data.endswith(b"\n"):
        return None  # ends cleanly; torn-but-newlined lines are the
        # loader's per-line quarantine business, not a tail repair
    cut = data.rfind(b"\n") + 1
    tail = data[cut:].decode("utf-8", errors="replace").strip()
    try:
        decode_line(tail)
    except CorruptLine:
        pass  # genuinely torn: truncate and quarantine below
    else:
        # The record survived intact; only its newline was lost.
        vfs.get_vfs().append_blob(path, b"\n", "repair.tail")
        return None
    # Truncate back to the last newline boundary; the VFS truncate also
    # fsyncs the containing directory so the repair itself survives a
    # crash between the truncate and the next append.
    vfs.get_vfs().truncate(path, cut, site="repair.tail")
    _quarantine(path, [tail])
    return tail


def read_records(path: str, quarantine: bool = True) \
        -> Tuple[List[Dict], LineDiagnostics]:
    """Load every intact record; skip-and-quarantine the rest.

    With ``quarantine`` on, a torn *final* record (a crash mid-append
    left no trailing newline) is first healed by :func:`repair_tail` —
    truncated off and quarantined — so that later appends to the same
    log cannot glue onto the damage.
    """
    records: List[Dict] = []
    diag = LineDiagnostics()
    bad: List[str] = []
    if not path or not os.path.exists(path):
        return records, diag
    if quarantine and repair_tail(path) is not None:
        diag.total += 1
        diag.corrupt += 1
        diag.rejected_path = path + REJECTED_SUFFIX
    # ``errors="replace"``: a bit-flip can leave bytes that are not
    # valid UTF-8; the mojibake line then fails its CRC and quarantines
    # like any other damage instead of raising mid-iteration.
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            diag.total += 1
            try:
                payload = decode_line(line)
            except CorruptLine:
                diag.corrupt += 1
                bad.append(line)
                continue
            diag.loaded += 1
            records.append(payload)
    if quarantine and bad:
        diag.rejected_path = _quarantine(path, bad)
    return records, diag

"""The injectable durable-I/O layer every persistent writer goes through.

Crash-safety claims are only as strong as the I/O they rest on, so all
four durable writers — the checkpoint (`repro.engine.checkpoint`), the
counterexample corpus (`repro.engine.corpus`), the service WAL
(`repro.service.store`), and whole-file summaries (``report.json``,
``service.json``) — route their writes through one small virtual
filesystem object instead of calling ``os`` directly.  That indirection
buys three things:

* **one fault shim**: the seeded `repro.engine.faults` plan can tear any
  write at byte granularity (``torn`` + ``torn_at``), drop an fsync
  (``fsync_drop``), or fail a write with ``ENOSPC`` / ``EIO``
  (optionally *after* a deterministic number of bytes landed,
  ``after_bytes``) — at every durable site, not just the three the
  service tests happened to pin;
* **one crash model**: `TraceVFS` records the exact sequence of
  appends, fsyncs, renames, and directory syncs a workload performed,
  which is what lets `repro.engine.crashcheck` materialize *every*
  legal on-disk crash state instead of sampling a few;
* **one write discipline**: append-paths are write-all +
  rollback-on-failure (a partial ``ENOSPC`` write is truncated back off
  so the log is never left poisoned), and whole-file writes are
  tempfile + fsync + rename + parent-directory fsync.

`get_vfs` returns the active instance; `install` swaps one in for a
``with`` block (crashcheck's tracing, tests).  The default `OsVFS` with
no fault plan active costs one extra attribute lookup per operation.

Barrier semantics the rest of the repo relies on (the documented
crash-consistency model, ``docs/robustness.md``):

===============  ======================================================
call returned    what is guaranteed durable
===============  ======================================================
``append_blob``  every earlier append to that file, plus this record
                 (single ``O_APPEND`` write + fsync); a crash *during*
                 the call can only tear this one record's tail
``atomic_write`` the file contains either the complete old or the
                 complete new content — never a mix, never a partial —
                 and the rename itself survives a crash (parent-dir
                 fsync)
``fsync_dir``    directory entries created/renamed earlier are durable
===============  ======================================================
"""

from __future__ import annotations

import errno
import os
import tempfile
import threading
from dataclasses import dataclass
from typing import List, Optional

from .faults import io_fault_actions


class DurableWriteError(OSError):
    """A durable write failed (disk full, I/O error) after rollback.

    Raised instead of the raw ``OSError`` so callers can distinguish
    "the medium failed but the log is still well-formed" from arbitrary
    I/O trouble.  ``errno`` is preserved from the underlying failure.
    """

    def __init__(self, path: str, op: str, err: OSError):
        super().__init__(err.errno, f"{op} failed on {path}: "
                                    f"{err.strerror or err}")
        self.path = path
        self.op = op


def _write_all(fd: int, data: bytes) -> int:
    """Write every byte (``os.write`` may be short); on failure the
    raised ``OSError`` carries ``bytes_written`` so the caller can roll
    exactly the landed prefix back."""
    done = 0
    try:
        while done < len(data):
            done += os.write(fd, data[done:])
    except OSError as err:
        err.bytes_written = done
        raise
    return done


class OsVFS:
    """The real filesystem, with the deterministic fault shim inline.

    Every mutating operation consults the active
    :class:`repro.engine.faults.FaultPlan` (if any) for the site it was
    handed; with no plan active the check is a single dict lookup.
    """

    # -- fault shim ----------------------------------------------------

    def _shim(self, site: str, data: bytes) -> tuple:
        """Apply matching disk faults: returns ``(data, skip_fsync,
        fail)`` where ``fail`` is ``None`` or ``(errno, after_bytes)``."""
        skip_fsync = False
        fail = None
        for fault in io_fault_actions(site):
            if fault.kind == "torn":
                cut = fault.torn_at if fault.torn_at is not None \
                    else max(len(data) // 2, 1)
                cut = max(min(cut, len(data)), 1)
                # Keep the newline so only this one record is damaged
                # under later appends.
                data = data[:cut].rstrip(b"\n") + b"\n"
            elif fault.kind == "fsync_drop":
                skip_fsync = True
            elif fault.kind in ("enospc", "eio"):
                code = errno.ENOSPC if fault.kind == "enospc" else errno.EIO
                fail = (code, fault.after_bytes)
        return data, skip_fsync, fail

    # -- append path ---------------------------------------------------

    def append_blob(self, path: str, data: bytes, site: str) -> None:
        """One record: a single ``O_APPEND`` write-all + fsync.

        On failure (injected or real ``ENOSPC``/``EIO``, or a partial
        write) the file is truncated back to its pre-call length before
        `DurableWriteError` is raised, so a failed append never leaves
        a torn record for the *next* append to glue onto.  Callers must
        hold whatever lock serializes appends to ``path`` (the rollback
        truncate races concurrent appenders).
        """
        data, skip_fsync, fail = self._shim(site, data)
        fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            # The pre-call length is only needed for rollback, and
            # querying it up front (fstat/lseek) costs as much as a
            # second fsync on some filesystems — so the happy path just
            # counts what it writes and the error path reconstructs the
            # start from the post-failure end.
            landed = 0
            try:
                if fail is not None:
                    code, after = fail
                    if after:
                        landed += _write_all(fd, data[:after])
                    raise OSError(code, os.strerror(code))
                landed += _write_all(fd, data)
                if not skip_fsync:
                    os.fsync(fd)
            except OSError as err:
                landed += getattr(err, "bytes_written", 0)
                try:  # roll the partial record back off the log
                    end = os.lseek(fd, 0, os.SEEK_END)
                    os.ftruncate(fd, end - landed)
                    os.fsync(fd)
                except OSError:
                    pass  # best effort; repair_tail heals what remains
                raise DurableWriteError(path, "append", err) from err
        finally:
            os.close(fd)
        self._note("append", path, data, site, synced=not skip_fsync)

    # -- whole-file path -----------------------------------------------

    def atomic_write(self, path: str, data: bytes, site: str) -> None:
        """Replace ``path`` atomically: tempfile + fsync + rename +
        parent-directory fsync.  A crash at any instant leaves either
        the complete old content or the complete new content."""
        data, skip_fsync, fail = self._shim(site, data)
        parent = os.path.dirname(os.path.abspath(path))
        fd, tmp = tempfile.mkstemp(prefix=os.path.basename(path) + ".",
                                   suffix=".tmp", dir=parent)
        try:
            try:
                if fail is not None:
                    code, after = fail
                    if after:
                        _write_all(fd, data[:after])
                    raise OSError(code, os.strerror(code))
                _write_all(fd, data)
                if not skip_fsync:
                    os.fsync(fd)
            finally:
                os.close(fd)
            os.replace(tmp, path)
        except OSError as err:
            try:  # the target was never touched; remove the dead temp
                os.unlink(tmp)
            except OSError:
                pass
            raise DurableWriteError(path, "atomic_write", err) from err
        if not skip_fsync:
            self.fsync_dir(parent)
        self._note("replace", path, data, site)

    # -- repair path ---------------------------------------------------

    def truncate(self, path: str, size: int, site: str = "") -> None:
        """Cut a file back to ``size`` bytes and fsync it *and* its
        directory — a tail repair that itself survives a crash."""
        fd = os.open(path, os.O_WRONLY)
        try:
            os.ftruncate(fd, size)
            os.fsync(fd)
        finally:
            os.close(fd)
        self.fsync_dir(os.path.dirname(os.path.abspath(path)))
        self._note("truncate", path, b"", site)

    def _note(self, kind: str, path: str, data: bytes, site: str,
              synced: bool = True) -> None:
        """Recorder hook — `TraceVFS` overrides; the real VFS does not."""

    def fsync_dir(self, dirpath: str) -> None:
        """Make directory entries (creates, renames) durable."""
        try:
            fd = os.open(dirpath or ".", os.O_RDONLY)
        except OSError:
            return  # e.g. O_RDONLY on a dir is not universal; best effort
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)


# ----------------------------------------------------------------------
# Tracing (the crash-state enumerator's recorder)
# ----------------------------------------------------------------------

@dataclass
class IoOp:
    """One recorded durable operation (paths are workload-relative)."""

    kind: str  # "append" | "replace" | "truncate" | "mark"
    path: str
    data: bytes = b""
    site: str = ""
    #: Whether the write was made durable before the call returned
    #: (``False`` when an ``fsync_drop`` fault swallowed the barrier).
    synced: bool = True
    #: For ``mark`` ops: the label the workload planted.
    label: str = ""


class TraceVFS(OsVFS):
    """An `OsVFS` that also records every durable mutation it performs.

    The recorded `IoOp` list is the input to
    `repro.engine.crashcheck.crash_states`: each op is a point the
    process could have died at, and the op's bytes are what a crash
    could have torn.  Paths are stored relative to ``root`` so crash
    states can be re-materialized into fresh directories.

    ``mark(label)`` plants a logical marker in the trace — "the submit
    was acknowledged here" — that invariant checks can anchor to.
    """

    def __init__(self, root: str):
        self.root = os.path.abspath(root)
        self.ops: List[IoOp] = []
        self._lock = threading.Lock()

    def _rel(self, path: str) -> str:
        return os.path.relpath(os.path.abspath(path), self.root)

    def _record(self, op: IoOp) -> None:
        with self._lock:
            self.ops.append(op)

    def mark(self, label: str) -> None:
        self._record(IoOp(kind="mark", path="", label=label))

    def _note(self, kind: str, path: str, data: bytes, site: str,
              synced: bool = True) -> None:
        if kind == "truncate":
            # Record the *surviving* content: a truncate rewrites the
            # file's tail, so later crash states start from it whole.
            with open(path, "rb") as fh:
                data = fh.read()
        self._record(IoOp(kind=kind, path=self._rel(path), data=data,
                          site=site, synced=synced))


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------

_DEFAULT = OsVFS()
_ACTIVE = threading.local()


def get_vfs() -> OsVFS:
    """The VFS durable writers must route through."""
    return getattr(_ACTIVE, "vfs", None) or _DEFAULT


class install:
    """``with install(vfs): ...`` — swap the active VFS for a block.

    Installation is per-thread (a crashcheck run tracing its workload
    must not capture an unrelated thread's appends) and re-entrant.
    """

    def __init__(self, vfs: OsVFS):
        self.vfs = vfs
        self._prev: Optional[OsVFS] = None

    def __enter__(self) -> OsVFS:
        self._prev = getattr(_ACTIVE, "vfs", None)
        _ACTIVE.vfs = self.vfs
        return self.vfs

    def __exit__(self, *exc) -> None:
        _ACTIVE.vfs = self._prev


# Convenience wrappers so call sites read as one-liners.

def atomic_write_bytes(path: str, data: bytes,
                       site: str = "atomic.write") -> None:
    get_vfs().atomic_write(path, data, site)


def atomic_write_text(path: str, text: str,
                      site: str = "atomic.write") -> None:
    get_vfs().atomic_write(path, text.encode("utf-8"), site)

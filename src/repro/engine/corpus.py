"""The persistent counterexample corpus: failing traces that replay.

Every failing decision trace an exploration encounters — a spec-style
violation, a data race, or an outcome-check failure — can be persisted as
one JSON line::

    {"scenario": {"builder": "mp-queue", "args": [], "kwargs": {...}},
     "scenario_name": "mp-queue[hw,noflag]",
     "kind": "style" | "outcome" | "race",
     "style": "LAT_HB_ABS" | null,
     "trace": [[arity, chosen], ...],
     "violation": "<human-readable message>",
     "max_steps": 20000,
     "model": "orc11"}

``model`` is the memory-model id (`repro.models`) the failing execution
was found under.  A decision trace indexes into model-dependent choice
sets, so replaying it under a different model is meaningless — replay
runs under the recorded model and *refuses* an explicit conflicting
``--model`` (exit 2 at the CLI; :class:`ModelMismatch` in-process).

``scenario`` is a `repro.engine.registry.ScenarioSpec`; with it the
entry is self-contained — any process, any day, can rebuild the program
and re-execute the exact decision sequence (``python -m repro replay
corpus.jsonl``).  Ad-hoc scenarios (no registered builder) record
``"scenario": null`` and replay only in-process via
:func:`replay_entry` with an explicit scenario.

On disk each line additionally carries the durable-record framing
(``"v"`` + ``"crc"``, see `repro.engine.durable`); appends are single
fsynced ``O_APPEND`` writes, loading skips-and-quarantines damaged
lines, and re-appending the same entries is a no-op (content-hash
dedupe), so the corpus survives crashes, kills, and concurrent
appenders.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set

from ..checking.runner import CORPUS_CAP, Scenario
from ..core.spec_styles import SpecStyle, check_style
from ..rmc.scheduler import FixedDecider
from .durable import LineDiagnostics, append_line, canonical, read_records
from .merge import trace_from_json
from .shard import Shard
from .vfs import DurableWriteError
from .registry import ScenarioSpec, build_scenario

@dataclass
class CorpusEntry:
    """One replayable counterexample."""

    kind: str  # "style" | "outcome" | "race" | "divergence"
    trace: List
    violation: str
    style: Optional[SpecStyle] = None
    scenario_name: str = ""
    spec: Optional[ScenarioSpec] = None
    max_steps: int = 20_000
    #: Memory-model id the trace was recorded under (`repro.models`).
    model: str = "orc11"
    #: Divergence-witness fields (`repro.engine.audit`): the shard whose
    #: re-execution diverged, the result-determining params it ran
    #: under, and the trusted/observed report fingerprints.  Only
    #: ``kind="divergence"`` entries carry them; they are omitted from
    #: the JSON otherwise so pre-existing corpus hashes stay stable.
    shard: Optional[Shard] = None
    params: Optional[dict] = None
    expected_fingerprint: str = ""
    observed_fingerprint: str = ""
    divergence_path: str = ""

    def to_json(self):
        data = {
            "scenario": self.spec.to_json() if self.spec else None,
            "scenario_name": self.scenario_name,
            "kind": self.kind,
            "style": self.style.name if self.style else None,
            "trace": [[int(a), int(c)] for a, c in self.trace],
            "violation": self.violation,
            "max_steps": self.max_steps,
            "model": self.model,
        }
        if self.shard is not None:
            data["shard"] = self.shard.to_json()
            data["params"] = dict(self.params or {})
            data["expected_fingerprint"] = self.expected_fingerprint
            data["observed_fingerprint"] = self.observed_fingerprint
            data["divergence_path"] = self.divergence_path
        return data

    @staticmethod
    def from_json(data) -> "CorpusEntry":
        return CorpusEntry(
            kind=data["kind"],
            trace=trace_from_json(data["trace"]),
            violation=data["violation"],
            style=SpecStyle[data["style"]] if data.get("style") else None,
            scenario_name=data.get("scenario_name", ""),
            spec=ScenarioSpec.from_json(data["scenario"])
            if data.get("scenario") else None,
            max_steps=data.get("max_steps", 20_000),
            model=data.get("model", "orc11"),
            shard=Shard.from_json(data["shard"])
            if data.get("shard") else None,
            params=dict(data["params"]) if data.get("params") else None,
            expected_fingerprint=data.get("expected_fingerprint", ""),
            observed_fingerprint=data.get("observed_fingerprint", ""),
            divergence_path=data.get("divergence_path", ""))


class CorpusSink:
    """Collects capped counterexample entries during one exploration.

    Handed to `repro.checking.runner.record_result`; workers return
    their sink contents with the shard report and the engine concatenates
    them in shard order, so the persisted corpus is deterministic too.
    """

    def __init__(self, scenario_name: str, spec: Optional[ScenarioSpec],
                 max_steps: int, cap: int = CORPUS_CAP,
                 model: str = "orc11"):
        self.scenario_name = scenario_name
        self.spec = spec
        self.max_steps = max_steps
        self.cap = cap
        self.model = model
        self.entries: List[CorpusEntry] = []
        self.dropped = 0

    def record(self, kind: str, style: Optional[SpecStyle], trace,
               violation: str) -> None:
        if len(self.entries) >= self.cap:
            self.dropped += 1
            return
        self.entries.append(CorpusEntry(
            kind=kind, trace=list(trace), violation=violation, style=style,
            scenario_name=self.scenario_name, spec=self.spec,
            max_steps=self.max_steps, model=self.model))


def entry_hash(payload) -> str:
    """Content hash of one entry's canonical JSON — the dedupe key that
    makes corpus flushes idempotent across kill/resume cycles."""
    return canonical(payload)


def existing_hashes(path: str) -> Set[str]:
    """Content hashes already persisted at ``path`` (tolerant read)."""
    records, _diag = read_records(path, quarantine=False)
    return {entry_hash(r) for r in records}


def append_entries(path: str, entries: List[CorpusEntry],
                   dedupe: bool = True,
                   errors: Optional[List[str]] = None) -> int:
    """Append entries as durable JSONL lines; returns how many were new.

    Each line is a single ``O_APPEND`` ``write()`` + fsync (see
    `repro.engine.durable`), so concurrent appenders are safe and a
    mid-line crash can only tear the final line.  With ``dedupe`` (the
    default) entries whose content hash is already present are skipped,
    which makes the flush idempotent: a crash between the append and the
    checkpoint's ``corpus_flushed`` marker no longer duplicates every
    entry on resume.

    With an ``errors`` list supplied, a failed append (``ENOSPC``/
    ``EIO`` — `repro.engine.vfs.DurableWriteError`) is recorded there
    and the flush carries on with the remaining entries instead of
    raising; the `repro.engine.vfs` rollback keeps the corpus
    well-formed either way.
    """
    if not entries:
        return 0
    seen = existing_hashes(path) if dedupe else set()
    written = 0
    for entry in entries:
        payload = entry.to_json()
        key = entry_hash(payload)
        if key in seen:
            continue
        seen.add(key)
        try:
            append_line(path, payload, site="corpus.append")
        except DurableWriteError as err:
            if errors is None:
                raise
            errors.append(str(err))
            continue
        written += 1
    return written


class CorpusEntries(List[CorpusEntry]):
    """A loaded corpus plus what the tolerant loader saw on the way."""

    def __init__(self, entries=(), diagnostics: LineDiagnostics = None):
        super().__init__(entries)
        self.diagnostics = diagnostics or LineDiagnostics()


def load_corpus(path: str) -> CorpusEntries:
    """Load a corpus, skipping (and quarantining) malformed lines.

    A torn final line, a blank-corrupt line, or a CRC mismatch no longer
    raises — like `repro.engine.checkpoint.load_completed_ex`, damaged
    lines are skipped, copied once to the ``.rejected`` sidecar, and
    counted in the returned list's ``diagnostics``.
    """
    records, diag = read_records(path)
    entries: List[CorpusEntry] = []
    bad: List[str] = []
    for record in records:
        try:
            entries.append(CorpusEntry.from_json(record))
        except (KeyError, TypeError, ValueError):
            diag.loaded -= 1
            diag.corrupt += 1
            bad.append(canonical(record))
    if bad:
        from .durable import _quarantine
        diag.rejected_path = _quarantine(path, bad) or diag.rejected_path
    return CorpusEntries(entries, diag)


@dataclass
class ReplayOutcome:
    """Did re-executing a corpus entry reproduce its violation?"""

    entry: CorpusEntry
    reproduced: bool
    detail: str = ""
    messages: List[str] = field(default_factory=list)


class ModelMismatch(RuntimeError):
    """A corpus entry was asked to replay under a different memory model.

    Decision traces index into model-dependent choice sets; replaying
    under the wrong model would silently produce garbage, so it is an
    error instead (the CLI maps it to a one-line message and exit 2).
    """

    def __init__(self, entry_model: str, requested: str):
        super().__init__(
            f"corpus entry was recorded under model {entry_model!r}; "
            f"refusing replay under {requested!r}")
        self.entry_model = entry_model
        self.requested = requested


def replay_entry(entry: CorpusEntry,
                 scenario: Optional[Scenario] = None,
                 model: Optional[str] = None) -> ReplayOutcome:
    """Re-execute a corpus entry's decision trace and re-run its check.

    The scenario is rebuilt from the entry's spec unless one is passed
    explicitly (ad-hoc scenarios).  Reproduction means: same *kind* of
    failure on the replayed execution — the race fires again, the outcome
    check raises again, or some extracted graph fails the recorded style
    again.

    Replay always runs under the model recorded in the entry; passing an
    explicit conflicting ``model`` raises :class:`ModelMismatch` rather
    than replaying a trace against semantics it was not recorded under.
    """
    if model is not None and model != entry.model:
        raise ModelMismatch(entry.model, model)
    if entry.kind == "divergence":
        # Audit-layer witnesses re-execute a whole shard rather than a
        # single decision trace (`repro.engine.audit`).
        from .audit import replay_divergence
        return replay_divergence(entry, scenario=scenario)
    if scenario is None:
        if entry.spec is None:
            return ReplayOutcome(entry, False,
                                 "entry has no scenario spec; pass the "
                                 "scenario explicitly")
        scenario = build_scenario(entry.spec)
    result = scenario.factory().run(FixedDecider(entry.trace),
                                    max_steps=entry.max_steps,
                                    model=entry.model)
    if entry.kind == "race":
        ok = result.race is not None
        return ReplayOutcome(entry, ok,
                             str(result.race) if ok else "no race fired",
                             [str(result.race)] if ok else [])
    if result.race is not None or result.truncated:
        return ReplayOutcome(entry, False,
                             "replayed execution did not complete")
    if entry.kind == "outcome":
        if scenario.outcome_check is None:
            return ReplayOutcome(entry, False, "scenario has no outcome "
                                 "check")
        try:
            scenario.outcome_check(result)
        except AssertionError as err:
            return ReplayOutcome(entry, True, str(err), [str(err)])
        return ReplayOutcome(entry, False, "outcome check passed on replay")
    # kind == "style"
    if entry.style is None:
        return ReplayOutcome(entry, False, "style entry without a style")
    messages = []
    for case in scenario.extract(result):
        if case.styles is not None and entry.style not in case.styles:
            continue
        res = check_style(case.graph, case.kind, entry.style, to=case.to)
        if not res.ok:
            messages.extend(str(v) for v in res.violations)
    if messages:
        return ReplayOutcome(entry, True, messages[0], messages)
    return ReplayOutcome(entry, False,
                         f"{entry.style} check passed on replay")

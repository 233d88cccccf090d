"""Silent-corruption screening: sampled re-execution + fingerprints.

The lease/fencing machinery defends against workers that are slow or
dead.  It has no answer for workers that are *wrong* — bit flips,
version skew, a nondeterministic environment — because a lying
executor returns a well-formed, CRC-consistent result that merges
cleanly.  Compass shards make the defense cheap: exploration is
deterministic, so any shard re-executed anywhere must produce a
byte-identical report.  The audit layer exploits that:

* :func:`report_fingerprint` — canonical hash of a shard report with
  wall-time stripped (the one legitimately nondeterministic field);
  :func:`report_divergence` names where two reports' fingerprints part;
* :class:`AuditSampler` — a seeded hash draw picks which completed
  shards get re-executed (``audit_fraction`` of them, deterministically
  per ``(seed, shard)`` so reruns audit the same shards);
* the driver re-executes sampled shards in the *coordinating* process —
  the same interpreter that defines the serial baseline — and compares
  fingerprints.  A mismatch is definitive: the origin worker lied.
  The driver then emits a structured :class:`DivergenceFinding`,
  quarantines the origin (refuses the node further grants; a local run
  also kills and replaces its process), substitutes the trusted re-execution into the
  merge, and charges the event in `repro.engine.budget.Coverage` as
  degraded-not-exhausted;
* :func:`bisect_divergence` — structural descent through the two report
  documents to the minimal divergent leaf, so the finding names *what*
  diverged (one counter, one tally) instead of two opaque hashes;
* :func:`divergence_witness` / :func:`replay_divergence` — the finding
  persists as a ``kind="divergence"`` corpus entry carrying the shard
  and result-determining params; replay re-executes the shard fresh and
  confirms the trusted fingerprint, proving the recorded observation
  was the wrong one.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from .corpus import CorpusEntry, ReplayOutcome
from .merge import report_to_json
from .registry import ScenarioSpec, build_scenario
from .shard import Shard

#: Attempt-counter offset for audit re-executions (see
#: `repro.engine.hedge.HEDGE_ATTEMPT_BASE` for the rationale: fault
#: coordinates key on the attempt, so an injected corruption aimed at a
#: primary attempt must not re-fire inside the audit).
AUDIT_ATTEMPT_BASE = 2000

#: The structured finding kind, as surfaced in service WAL records.
RESULT_DIVERGENCE = "result-divergence"


def _fingerprinted(report) -> Dict[str, Any]:
    """The report document a fingerprint covers: all but ``seconds``."""
    data = report_to_json(report)
    data.pop("seconds", None)
    return data


def report_fingerprint(report) -> str:
    """Canonical content hash of a shard report, wall-time excluded.

    ``seconds`` is the only field two byte-identical explorations
    legitimately disagree on, so it is stripped before hashing; every
    other field — counts, tallies, example lists, traces — must match
    exactly between any two executions of the same shard.
    """
    blob = json.dumps(_fingerprinted(report), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def report_divergence(expected, observed) -> Optional[str]:
    """None when two reports have one fingerprint; otherwise their
    first differing path (`bisect_divergence`), as one line."""
    if report_fingerprint(expected) == report_fingerprint(observed):
        return None
    leaf = bisect_divergence(_fingerprinted(expected),
                             _fingerprinted(observed))
    if leaf is None:
        return "report fingerprints differ"
    path, want, got = leaf
    return f"report differs at {path}: {got!r} != {want!r}"


class AuditSampler:
    """Seeded selection of which completed shards to re-execute."""

    def __init__(self, fraction: float, seed: int = 0):
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(
                f"audit fraction must be in [0, 1], got {fraction}")
        self.fraction = fraction
        self.seed = seed

    def should_audit(self, shard_id: int) -> bool:
        """Deterministic per ``(seed, shard_id)`` — a resumed or repeated
        run audits exactly the same shards."""
        if self.fraction <= 0.0:
            return False
        if self.fraction >= 1.0:
            return True
        digest = hashlib.sha256(
            f"{self.seed}:audit:{shard_id}".encode("utf-8")).digest()
        draw = int.from_bytes(digest[:8], "big") / float(1 << 64)
        return draw < self.fraction


def bisect_divergence(expected: Any, observed: Any,
                      path: str = "$") -> Optional[Tuple[str, Any, Any]]:
    """Descend two JSON documents to the minimal divergent leaf.

    Returns ``(path, expected_leaf, observed_leaf)`` for the first
    divergence in canonical (sorted-key, index) order, or ``None`` if
    the documents are equal.  Containers of mismatched shape stop the
    descent at the container (that *is* the minimal statement of the
    divergence there).
    """
    if isinstance(expected, dict) and isinstance(observed, dict):
        for key in sorted(set(expected) | set(observed)):
            if key not in expected:
                return (f"{path}.{key}", None, observed[key])
            if key not in observed:
                return (f"{path}.{key}", expected[key], None)
            found = bisect_divergence(expected[key], observed[key],
                                      f"{path}.{key}")
            if found is not None:
                return found
        return None
    if isinstance(expected, list) and isinstance(observed, list):
        if len(expected) != len(observed):
            return (f"{path}.length", len(expected), len(observed))
        for idx, (a, b) in enumerate(zip(expected, observed)):
            found = bisect_divergence(a, b, f"{path}[{idx}]")
            if found is not None:
                return found
        return None
    if expected != observed:
        return (path, expected, observed)
    return None


@dataclass
class DivergenceFinding:
    """One audited shard whose origin result was provably wrong."""

    shard_id: int
    shard: Shard
    #: Who produced the divergent result ("worker pid 1234" / node id).
    worker: str
    expected_fingerprint: str
    observed_fingerprint: str
    #: Minimal divergent leaf (from :func:`bisect_divergence`).
    path: str = ""
    expected_value: Any = None
    observed_value: Any = None
    scenario_name: str = ""

    def describe(self) -> str:
        where = f" at {self.path} ({self.expected_value!r} != " \
                f"{self.observed_value!r})" if self.path else ""
        return (f"{RESULT_DIVERGENCE}: shard {self.shard_id} from "
                f"{self.worker} diverged from trusted re-execution"
                f"{where}")

    def to_json(self) -> Dict[str, Any]:
        return {"kind": RESULT_DIVERGENCE,
                "shard": self.shard_id,
                "shard_desc": self.shard.describe(),
                "worker": self.worker,
                "expected": self.expected_fingerprint,
                "observed": self.observed_fingerprint,
                "path": self.path,
                "detail": self.describe()}


def audit_shard(scenario, spec: Optional[ScenarioSpec], shard: Shard,
                params, shard_id: int, expected_report,
                observed_fingerprint: str, worker: str) \
        -> Tuple[Any, Optional[DivergenceFinding]]:
    """Re-execute one shard in this (trusted) process and compare.

    Returns ``(trusted_report_and_entries, finding)``: the re-execution
    result either confirms the origin (``finding is None``) or convicts
    it, in which case the caller substitutes the trusted result into the
    merge and quarantines the origin.  ``expected_report`` is the report
    the origin worker delivered; ``observed_fingerprint`` its hash.
    """
    from .pool import _explore_shard  # circular at module load
    trusted = _explore_shard(scenario, spec, shard, params,
                             shard_id=shard_id,
                             attempt=AUDIT_ATTEMPT_BASE + shard_id)
    trusted_fp = report_fingerprint(trusted[0])
    if trusted_fp == observed_fingerprint:
        return trusted, None
    leaf = bisect_divergence(_fingerprinted(trusted[0]),
                             _fingerprinted(expected_report))
    finding = DivergenceFinding(
        shard_id=shard_id, shard=shard, worker=worker,
        expected_fingerprint=trusted_fp,
        observed_fingerprint=observed_fingerprint,
        scenario_name=getattr(scenario, "name", ""))
    if leaf is not None:
        finding.path, finding.expected_value, finding.observed_value = leaf
    return trusted, finding


def divergence_witness(finding: DivergenceFinding,
                       spec: Optional[ScenarioSpec],
                       params) -> CorpusEntry:
    """The finding as a replayable ``kind="divergence"`` corpus entry.

    Carries the shard and every result-determining parameter, so any
    process, any day, can re-execute the shard and confirm the trusted
    fingerprint (`replay_divergence`).
    """
    return CorpusEntry(
        kind="divergence", trace=[], violation=finding.describe(),
        scenario_name=finding.scenario_name, spec=spec,
        max_steps=params.max_steps, model=params.model,
        shard=finding.shard, params=params.fingerprint_json(),
        expected_fingerprint=finding.expected_fingerprint,
        observed_fingerprint=finding.observed_fingerprint,
        divergence_path=finding.path)


def replay_divergence(entry: CorpusEntry,
                      scenario=None) -> ReplayOutcome:
    """Re-execute a divergence witness's shard and confirm the verdict.

    Reproduction means: a fresh trusted execution of the recorded shard
    matches the *expected* fingerprint (the deterministic truth) while
    the recorded *observed* fingerprint differs — i.e. the original
    divergent result really was the outlier.
    """
    from .pool import EngineParams, _explore_shard  # circular at load
    if entry.shard is None or entry.params is None:
        return ReplayOutcome(entry, False,
                             "divergence entry missing its shard or "
                             "params; cannot re-execute")
    if scenario is None:
        if entry.spec is None:
            return ReplayOutcome(entry, False,
                                 "entry has no scenario spec; pass the "
                                 "scenario explicitly")
        scenario = build_scenario(entry.spec)
    params = EngineParams.from_wire(entry.params)
    report, _entries = _explore_shard(scenario, entry.spec, entry.shard,
                                      params)
    fresh = report_fingerprint(report)
    if fresh != entry.expected_fingerprint:
        return ReplayOutcome(
            entry, False,
            f"fresh re-execution fingerprint {fresh[:12]} does not match "
            f"the recorded trusted fingerprint "
            f"{entry.expected_fingerprint[:12]}")
    if entry.observed_fingerprint == entry.expected_fingerprint:
        return ReplayOutcome(entry, False,
                             "recorded fingerprints do not diverge")
    detail = (f"trusted fingerprint {fresh[:12]} confirmed; recorded "
              f"observation {entry.observed_fingerprint[:12]} diverges"
              + (f" at {entry.divergence_path}"
                 if entry.divergence_path else ""))
    return ReplayOutcome(entry, True, detail, [detail])

"""The budgeted fuzz campaign: generate, explore, shrink, persist.

A campaign walks case indices ``0, 1, 2, ...`` of a seeded grammar,
explores each generated program (randomized by default, exhaustively
with ``exhaustive=True``), and — for every distinct failure class a
case exhibits — shrinks the program to a minimal reproducer and lands
it in the counterexample corpus as a ``fuzz-case`` entry, replayable by
``python -m repro replay`` like any other counterexample.

Determinism is the design center, matching the rest of the engine:

* case ``index`` under master seed ``S`` is the same program in every
  process (`repro.fuzz.grammar.derive_rng`), and every worker gets the
  campaign's `FuzzParams` (master seed included) from the pool
  initializer, so ``--workers N`` changes wall-clock time but not one
  byte of the result;
* cases are *consumed* in index order regardless of completion order,
  and the execution budget is charged in that order, so the set of
  counted cases — and hence the violations, the shrunk programs, and
  the corpus bytes — is identical for any worker count.

The wall-clock budget (``seconds``) is the one intentionally
non-deterministic stop condition; a campaign cut short by it is flagged
``time_limited`` in the report.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..engine.corpus import CORPUS_CAP, CorpusEntry, append_entries
from ..engine.registry import ScenarioSpec
from ..engine.shard import Shard, iter_shard
from .executor import scenario_for
from .grammar import (FuzzProgram, GrammarConfig, SIGNATURES, derive_rng,
                      generate_program)
from .shrink import (Failure, ShrinkStats, exploration_oracle, failure_of,
                     shrink)


def case_explore_seed(seed: int, index: int) -> int:
    """The explorer seed of case ``index`` (independent of the grammar
    stream so adding grammar draws never perturbs schedules)."""
    return derive_rng(seed, index ^ 0x5EED).randrange(2 ** 31)


@dataclass
class FuzzParams:
    """Everything that shapes one campaign."""

    budget: int = 2_000
    #: Optional wall-clock stop (not deterministic; flagged in report).
    seconds: Optional[float] = None
    seed: int = 0
    workers: int = 1
    #: Randomized executions per case (ignored with ``exhaustive``).
    per_case: int = 30
    #: Exhaustive per-case exploration (DPOR on) instead of randomized.
    exhaustive: bool = False
    #: Execution cap per case in exhaustive mode.
    max_case_executions: int = 400
    max_steps: int = 4_000
    config: GrammarConfig = field(default_factory=GrammarConfig)
    corpus_path: Optional[str] = None
    corpus_cap: int = CORPUS_CAP
    #: Oracle-call budget per shrink.
    shrink_budget: int = 250
    #: Cap on shrunk-and-persisted failures per campaign (honest
    #: accounting: the overflow is counted, never silently dropped).
    max_shrinks: int = 25
    progress: bool = False
    #: Memory model id (`repro.models`) every case explores under;
    #: stamped into persisted counterexample entries.
    model: str = "orc11"


@dataclass
class CaseOutcome:
    """What exploring one generated case produced (picklable)."""

    index: int
    digest: str
    program: FuzzProgram
    executions: int = 0
    complete: int = 0
    truncated: int = 0
    raced: int = 0
    steps: int = 0
    #: First failure per distinct failure class, in discovery order.
    failures: List[Failure] = field(default_factory=list)


@dataclass
class ShrinkRecord:
    """One shrunk counterexample's provenance."""

    case_index: int
    kind: str
    style: Optional[str]
    from_digest: str
    to_digest: str
    from_size: Tuple[int, int]
    to_size: Tuple[int, int]
    attempts: int
    violation: str


@dataclass
class CampaignReport:
    """The campaign's result: honest coverage plus replayable entries."""

    seed: int
    budget: int
    cases: int = 0
    executions: int = 0
    complete: int = 0
    truncated: int = 0
    raced: int = 0
    steps: int = 0
    failures_found: int = 0
    #: Violations found on signatures not marked ``broken`` — real
    #: findings in the checkers/DPOR/machine, never expected to be > 0.
    unexpected: int = 0
    shrinks: List[ShrinkRecord] = field(default_factory=list)
    shrinks_skipped: int = 0
    entries: List[CorpusEntry] = field(default_factory=list)
    corpus_written: int = 0
    sig_coverage: Dict[str, int] = field(default_factory=dict)
    time_limited: bool = False
    seconds: float = 0.0

    def to_json(self) -> Dict:
        """Everything result-determining (``seconds`` excluded), for
        byte-for-byte reproducibility checks."""
        return {
            "seed": self.seed, "budget": self.budget, "cases": self.cases,
            "executions": self.executions, "complete": self.complete,
            "truncated": self.truncated, "raced": self.raced,
            "steps": self.steps, "failures_found": self.failures_found,
            "unexpected": self.unexpected,
            "shrinks": [{
                "case": r.case_index, "kind": r.kind, "style": r.style,
                "from": r.from_digest, "to": r.to_digest,
                "from_size": list(r.from_size), "to_size": list(r.to_size),
                "violation": r.violation,
            } for r in self.shrinks],
            "shrinks_skipped": self.shrinks_skipped,
            "entries": [e.to_json() for e in self.entries],
            "sig_coverage": dict(sorted(self.sig_coverage.items())),
            "time_limited": self.time_limited,
        }

    def summary(self) -> str:
        lines = [
            f"fuzz campaign seed={self.seed}: {self.cases} cases, "
            f"{self.executions} executions ({self.complete} complete, "
            f"{self.truncated} truncated, {self.raced} raced), "
            f"{self.steps} steps, {self.seconds:.2f}s"
            + (", time limited" if self.time_limited else "")]
        lines.append(
            f"  failures: {self.failures_found} found, "
            f"{len(self.shrinks)} shrunk"
            + (f", {self.shrinks_skipped} past the shrink cap"
               if self.shrinks_skipped else "")
            + f", {self.unexpected} UNEXPECTED")
        for rec in self.shrinks:
            what = rec.kind + (f" {rec.style}" if rec.style else "")
            lines.append(
                f"    {what}: case {rec.case_index} "
                f"{rec.from_size[0]}t/{rec.from_size[1]}op -> "
                f"{rec.to_size[0]}t/{rec.to_size[1]}op "
                f"fuzz[{rec.to_digest}]")
        cov = ", ".join(f"{name}:{n}"
                        for name, n in sorted(self.sig_coverage.items()))
        lines.append(f"  grammar coverage: {cov or '(none)'}")
        if self.corpus_written or self.entries:
            lines.append(f"  corpus: {len(self.entries)} entries, "
                         f"{self.corpus_written} newly persisted")
        return "\n".join(lines)


def run_case(params: FuzzParams, index: int) -> CaseOutcome:
    """Generate and explore one case; collect per-class first failures."""
    fp = generate_program(params.seed, index, params.config)
    scenario = scenario_for(fp)
    outcome = CaseOutcome(index=index, digest=fp.digest(), program=fp)
    shard = Shard(kind="prefix") if params.exhaustive else Shard(
        kind="seeds", seed=case_explore_seed(params.seed, index),
        runs=params.per_case)
    seen: set = set()
    for result in iter_shard(scenario.factory, shard, params.max_steps,
                             params.max_case_executions, dpor=True,
                             model=params.model):
        outcome.executions += 1
        outcome.steps += result.steps
        if result.race is not None:
            outcome.raced += 1
        elif result.truncated:
            outcome.truncated += 1
        else:
            outcome.complete += 1
        failure = failure_of(scenario, result)
        if failure is not None and failure.key not in seen:
            seen.add(failure.key)
            outcome.failures.append(failure)
        if params.exhaustive \
                and outcome.executions >= params.max_case_executions:
            break
    return outcome


#: Worker-side params, installed by the pool initializer (fork start
#: method: inherited by memory, closures and all).
_CAMPAIGN_WORKER: Dict = {}


def _init_campaign_worker(params: FuzzParams) -> None:
    _CAMPAIGN_WORKER["params"] = params


def _run_case_task(index: int) -> CaseOutcome:
    return run_case(_CAMPAIGN_WORKER["params"], index)


def _shrink_failure(params: FuzzParams, case: CaseOutcome,
                    failure: Failure) -> Tuple[FuzzProgram, Failure,
                                               ShrinkStats]:
    oracle = exploration_oracle(
        runs=params.per_case,
        seed=case_explore_seed(params.seed, case.index),
        max_steps=params.max_steps,
        exhaustive=params.exhaustive,
        max_executions=params.max_case_executions,
        want=failure.key, model=params.model)
    return shrink(case.program, oracle, max_attempts=params.shrink_budget)


def _is_expected(program: FuzzProgram, failure: Failure) -> bool:
    """A failure is *expected* iff the program contains a deliberately
    broken library (the positive control).  Attribution is conservative:
    any broken instance in the program claims the failure."""
    del failure
    return any(SIGNATURES[inst.sig].broken for inst in program.libs)


def run_campaign(params: FuzzParams,
                 emit: Optional[Callable[[str], None]] = None
                 ) -> CampaignReport:
    """Run one budgeted campaign; see the module docstring for the
    determinism contract."""
    report = CampaignReport(seed=params.seed, budget=params.budget)
    start = time.monotonic()
    deadline = start + params.seconds if params.seconds else None
    pool = None
    try:
        workers = max(1, params.workers)
        if workers > 1 \
                and "fork" in multiprocessing.get_all_start_methods():
            pool = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_init_campaign_worker, initargs=(params,))
        pending: Dict[int, object] = {}
        next_submit = 0
        index = 0
        while report.executions < params.budget:
            if deadline is not None and time.monotonic() > deadline:
                report.time_limited = True
                break
            if pool is not None:
                while next_submit < index + 2 * workers:
                    pending[next_submit] = pool.submit(_run_case_task,
                                                       next_submit)
                    next_submit += 1
                try:
                    case = pending.pop(index).result()
                except Exception:  # noqa: BLE001 — recompute locally
                    case = run_case(params, index)
            else:
                case = run_case(params, index)
            index += 1
            _consume_case(params, report, case, emit)
            if params.progress and emit is not None \
                    and case.index % 10 == 0:
                emit(f"[fuzz] case {case.index}: "
                     f"{report.executions}/{params.budget} executions, "
                     f"{report.failures_found} failures, "
                     f"{time.monotonic() - start:.1f}s")
    finally:
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    if params.corpus_path and report.entries:
        report.corpus_written = append_entries(
            params.corpus_path, report.entries[:params.corpus_cap])
    report.seconds = time.monotonic() - start
    return report


def _consume_case(params: FuzzParams, report: CampaignReport,
                  case: CaseOutcome,
                  emit: Optional[Callable[[str], None]]) -> None:
    """Fold one case into the report, in index order (determinism)."""
    report.cases += 1
    report.executions += case.executions
    report.complete += case.complete
    report.truncated += case.truncated
    report.raced += case.raced
    report.steps += case.steps
    for inst in case.program.libs:
        report.sig_coverage[inst.sig] = \
            report.sig_coverage.get(inst.sig, 0) + 1
    for failure in case.failures:
        report.failures_found += 1
        if not _is_expected(case.program, failure):
            report.unexpected += 1
            if emit is not None:
                emit(f"[fuzz] UNEXPECTED {failure.key} on clean case "
                     f"{case.index} fuzz[{case.digest}]: "
                     f"{failure.message}")
        if len(report.shrinks) >= params.max_shrinks:
            report.shrinks_skipped += 1
            continue
        shrunk, verified, stats = _shrink_failure(params, case, failure)
        report.shrinks.append(ShrinkRecord(
            case_index=case.index, kind=verified.kind,
            style=verified.style.name if verified.style else None,
            from_digest=case.digest, to_digest=shrunk.digest(),
            from_size=case.program.size(), to_size=shrunk.size(),
            attempts=stats.attempts, violation=verified.message))
        report.entries.append(CorpusEntry(
            kind=verified.kind, trace=list(verified.trace),
            violation=verified.message, style=verified.style,
            scenario_name=f"fuzz[{shrunk.digest()}]",
            spec=ScenarioSpec("fuzz-case",
                              kwargs={"program": shrunk.to_json()}),
            max_steps=params.max_steps, model=params.model))
        if emit is not None:
            emit(f"[fuzz] case {case.index} {verified.kind}"
                 + (f" {verified.style}" if verified.style else "")
                 + f": {stats.line()} -> fuzz[{shrunk.digest()}]")

"""The checking harness: explore executions, check graphs, aggregate.

This is the executable stand-in for the paper's per-library Coq proofs:
a :class:`Scenario` bundles a program factory with *graph extractors*
(which library graphs to pull out of a finished execution and which
consistency kind / linearization applies), and :func:`check_scenario`
explores the execution space — exhaustively for bounded scenarios,
randomized for larger ones — checking every graph of every complete
execution against the requested spec styles.

A completed :class:`ScenarioReport` answers, per style, "does this
implementation satisfy this spec on this workload?", with counterexample
decision traces kept for replay when it does not.

Reports are *mergeable*: per-shard partial reports produced by the
parallel engine (`repro.engine`) combine — in shard order — into exactly
the report the serial path produces (capped example lists keep the
earliest entries, i.e. the serial-DFS-first counterexamples).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..core.graph import Graph
from ..core.spec_styles import SpecStyle, check_style
from ..rmc.dpor import DporStats, explore_all_dpor
from ..rmc.explore import explore_all, explore_random
from ..rmc.machine import ExecutionResult

GraphExtractor = Callable[[ExecutionResult], List["GraphCase"]]

#: Cap on stored counterexamples per tally / outcome list.  ``examples``
#: and the corresponding trace lists stay index-aligned under this cap.
EXAMPLE_CAP = 3


@dataclass
class GraphCase:
    """One graph to check: its kind and an optional given linearization.

    ``styles`` optionally restricts which of the requested spec styles
    apply to this graph (e.g. an exchanger graph only supports ``LAT_hb``
    consistency — there is no sequential interpretation to linearize
    against).
    """

    kind: str
    graph: Graph
    to: Optional[Sequence[int]] = None
    label: str = ""
    styles: Optional[Sequence[SpecStyle]] = None


@dataclass
class Scenario:
    """A checkable workload: program factory + what to check about it."""

    name: str
    factory: Callable[[], Any]
    extract: GraphExtractor
    #: Optional whole-execution property (e.g. Fig. 1's "never empty").
    outcome_check: Optional[Callable[[ExecutionResult], None]] = None
    #: Optional per-execution counters (complete executions only),
    #: summed into ``ScenarioReport.metrics``.
    metrics: Optional[Callable[[ExecutionResult], Dict[str, int]]] = None


@dataclass
class StyleTally:
    """Per-style violation counts across an exploration.

    ``examples[i]`` is the first violation of the ``i``-th recorded
    failing graph and ``failing_traces[i]`` is that execution's decision
    trace; both lists are capped at :data:`EXAMPLE_CAP` and stay
    index-aligned.
    """

    checked: int = 0
    failed: int = 0
    examples: List[str] = field(default_factory=list)
    failing_traces: List[List] = field(default_factory=list)

    def record(self, ok: bool, violations, trace) -> None:
        self.checked += 1
        if not ok:
            self.failed += 1
            if len(self.examples) < EXAMPLE_CAP:
                self.examples.append(str(violations[0]) if violations
                                     else "violation")
                self.failing_traces.append(list(trace))

    def merge(self, other: "StyleTally") -> "StyleTally":
        """Fold ``other`` (a later shard, in serial order) into ``self``."""
        self.checked += other.checked
        self.failed += other.failed
        room = EXAMPLE_CAP - len(self.examples)
        if room > 0:
            self.examples.extend(other.examples[:room])
            self.failing_traces.extend(other.failing_traces[:room])
        return self

    def __add__(self, other: "StyleTally") -> "StyleTally":
        out = StyleTally(checked=self.checked, failed=self.failed,
                         examples=list(self.examples),
                         failing_traces=[list(t) for t in
                                         self.failing_traces])
        return out.merge(other)

    @property
    def ok(self) -> bool:
        return self.failed == 0


@dataclass
class ScenarioReport:
    """Aggregate result of checking one scenario."""

    scenario: str
    executions: int = 0
    complete: int = 0
    truncated: int = 0
    raced: int = 0
    steps: int = 0
    seconds: float = 0.0
    exhausted: bool = False
    #: True when any shard stopped early on a resource budget breach
    #: (see `repro.engine.budget`) — the run degraded gracefully.
    budget_exhausted: bool = False
    #: Engine-attached `repro.engine.budget.Coverage` describing which
    #: shard subtrees completed (None on serial, budget-free runs).
    coverage: Optional[object] = None
    #: Branches skipped by sleep-set DPOR (`repro.rmc.dpor`); 0 when the
    #: reduction is off.  ``executions + pruned_subtrees`` at a fully
    #: enumerated frontier is the naive tree size.
    pruned_subtrees: int = 0
    styles: Dict[SpecStyle, StyleTally] = field(default_factory=dict)
    outcome_failures: int = 0
    outcome_examples: List[str] = field(default_factory=list)
    #: Decision traces of the outcome-check failures, index-aligned with
    #: ``outcome_examples`` — empty-dequeue counterexamples replay like
    #: style violations.
    outcome_traces: List[List] = field(default_factory=list)
    #: Summed per-execution counters from ``Scenario.metrics``.
    metrics: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return (self.raced == 0 and self.outcome_failures == 0
                and all(t.ok for t in self.styles.values()))

    def merge(self, other: "ScenarioReport") -> "ScenarioReport":
        """Fold ``other`` (a later shard, in serial order) into ``self``.

        ``seconds`` accumulates worker CPU time (wall-clock time of a
        parallel run is tracked by the engine); every other field combines
        so that merging per-shard partials in shard order reproduces the
        serial report exactly.
        """
        self.executions += other.executions
        self.complete += other.complete
        self.truncated += other.truncated
        self.raced += other.raced
        self.steps += other.steps
        self.seconds += other.seconds
        self.exhausted = self.exhausted and other.exhausted
        self.budget_exhausted = (self.budget_exhausted
                                 or other.budget_exhausted)
        self.pruned_subtrees += other.pruned_subtrees
        for style, tally in other.styles.items():
            if style in self.styles:
                self.styles[style].merge(tally)
            else:
                self.styles[style] = tally + StyleTally()
        self.outcome_failures += other.outcome_failures
        room = EXAMPLE_CAP - len(self.outcome_examples)
        if room > 0:
            self.outcome_examples.extend(other.outcome_examples[:room])
            self.outcome_traces.extend(other.outcome_traces[:room])
        for key, val in other.metrics.items():
            self.metrics[key] = self.metrics.get(key, 0) + val
        return self

    def __add__(self, other: "ScenarioReport") -> "ScenarioReport":
        out = ScenarioReport(scenario=self.scenario, exhausted=self.exhausted)
        out.budget_exhausted = self.budget_exhausted
        out.pruned_subtrees = self.pruned_subtrees
        out.styles = {s: t + StyleTally() for s, t in self.styles.items()}
        out.executions = self.executions
        out.complete = self.complete
        out.truncated = self.truncated
        out.raced = self.raced
        out.steps = self.steps
        out.seconds = self.seconds
        out.outcome_failures = self.outcome_failures
        out.outcome_examples = list(self.outcome_examples)
        out.outcome_traces = [list(t) for t in self.outcome_traces]
        out.metrics = dict(self.metrics)
        return out.merge(other)

    def summary(self) -> str:
        lines = [
            f"scenario {self.scenario}: {self.executions} executions "
            f"({self.complete} complete, {self.truncated} truncated, "
            f"{self.raced} raced), {self.steps} steps, "
            f"{self.seconds:.2f}s"
            + (", exhausted" if self.exhausted else "")
            + (", budget exhausted" if self.budget_exhausted else "")
            + (f", {self.pruned_subtrees} pruned (DPOR)"
               if self.pruned_subtrees else "")
        ]
        if self.coverage is not None \
                and getattr(self.coverage, "degraded", False):
            lines.append("  " + self.coverage.line())
        for style, tally in self.styles.items():
            status = "OK" if tally.ok else f"FAILED x{tally.failed}"
            lines.append(f"  {style}: {status} over {tally.checked} graphs")
            for ex in tally.examples[:2]:
                lines.append(f"    e.g. {ex}")
        if self.outcome_failures:
            lines.append(f"  outcome check FAILED x{self.outcome_failures}")
        for key, val in sorted(self.metrics.items()):
            lines.append(f"  metric {key}: {val}")
        return "\n".join(lines)


def record_result(
    report: ScenarioReport,
    scenario: Scenario,
    result: ExecutionResult,
    styles: Sequence[SpecStyle],
    sink=None,
) -> None:
    """Check one execution into ``report`` (shared serial/worker path).

    ``sink`` is an optional counterexample collector with a
    ``record(kind, style, trace, violation)`` method (see
    `repro.engine.corpus.CorpusSink`); it receives every failing
    decision trace — spec violation, race, or outcome failure.
    """
    report.executions += 1
    report.steps += result.steps
    if result.race is not None:
        report.raced += 1
        if sink is not None:
            sink.record("race", None, result.trace, str(result.race))
        return
    if result.truncated:
        report.truncated += 1
        return
    report.complete += 1
    if scenario.outcome_check is not None:
        try:
            scenario.outcome_check(result)
        except AssertionError as err:
            report.outcome_failures += 1
            if len(report.outcome_examples) < EXAMPLE_CAP:
                report.outcome_examples.append(str(err))
                report.outcome_traces.append(list(result.trace))
            if sink is not None:
                sink.record("outcome", None, result.trace, str(err))
    if scenario.metrics is not None:
        for key, val in scenario.metrics(result).items():
            report.metrics[key] = report.metrics.get(key, 0) + val
    for case in scenario.extract(result):
        for style in styles:
            if case.styles is not None and style not in case.styles:
                continue
            res = check_style(case.graph, case.kind, style, to=case.to)
            report.styles[style].record(res.ok, res.violations,
                                        result.trace)
            if not res.ok and sink is not None:
                sink.record("style", style, result.trace,
                            str(res.violations[0]) if res.violations
                            else "violation")


def check_scenario(
    scenario: Scenario,
    styles: Sequence[SpecStyle] = (SpecStyle.LAT_HB,),
    exhaustive: bool = False,
    runs: int = 300,
    seed: int = 0,
    max_steps: int = 20_000,
    max_executions: int = 100_000,
    workers: int = 1,
    spec=None,
    checkpoint: Optional[str] = None,
    corpus: Optional[str] = None,
    progress: bool = False,
    max_retries: int = 2,
    start_method: Optional[str] = None,
    shard_timeout: Optional[float] = -1.0,
    shard_seconds: Optional[float] = None,
    run_seconds: Optional[float] = None,
    max_rss_mb: Optional[float] = None,
    dpor: Optional[bool] = None,
    corpus_cap: Optional[int] = None,
    model: str = "orc11",
    hedge: bool = False,
    audit_fraction: float = 0.0,
) -> ScenarioReport:
    """Explore the scenario and check every complete execution.

    With ``workers > 1`` (or any of ``checkpoint``/``corpus``/
    ``progress``/the budgets) the exploration is delegated to the
    parallel engine (`repro.engine`): the decision tree (exhaustive
    mode) or seed range (randomized mode) is sharded across local
    worker processes and the per-shard partial reports are merged back —
    byte-for-byte equal to the serial run, modulo ``seconds``.  ``spec``
    optionally names the scenario in the engine's builder registry so
    corpus entries stay replayable across processes.  However the run
    is sharded, ``max_executions`` caps the whole run: the merge keeps
    the first ``max_executions`` executions in shard order, exactly the
    ones the serial run checks.

    ``shard_seconds``/``run_seconds``/``max_rss_mb`` are graceful
    degradation budgets (see ``docs/robustness.md``): on breach the run
    returns a partial report flagged ``budget_exhausted`` with coverage
    accounting instead of dying.  ``shard_timeout`` is a local node's
    lease: seconds without a beat before it counts as hung (pass None
    for wait-forever; the default sentinel keeps the engine's default).

    ``dpor`` controls sleep-set partial-order reduction
    (`repro.rmc.dpor`): on by default in exhaustive mode, ignored in
    randomized mode.  Pruned-branch counts land in
    ``report.pruned_subtrees``.

    ``corpus_cap`` bounds how many counterexample entries the run
    persists to ``corpus`` (``None`` keeps the engine default,
    `repro.engine.corpus.CORPUS_CAP`); it only matters when a corpus
    path is given.

    ``model`` selects the memory model (`repro.models`) every execution
    is interpreted under; it is part of the engine fingerprint and is
    stamped into corpus entries, so checkpoints and counterexamples
    never mix models.

    ``hedge`` speculatively re-dispatches straggler shards past an
    adaptive deadline, and ``audit_fraction`` re-executes that fraction
    of completed shards in the driver to screen for silent corruption
    (both ``docs/robustness.md``); neither changes the merged report's
    contents on an honest fleet.
    """
    budgets = (shard_seconds is not None or run_seconds is not None
               or max_rss_mb is not None)
    if workers <= 1 and checkpoint is None and corpus is None \
            and not progress and not budgets \
            and not hedge and audit_fraction <= 0:
        report = ScenarioReport(scenario=scenario.name)
        report.styles = {s: StyleTally() for s in styles}
        start = time.perf_counter()
        dstats = DporStats()
        if exhaustive:
            if dpor is not False:
                source = explore_all_dpor(scenario.factory,
                                          max_steps=max_steps,
                                          max_executions=max_executions,
                                          stats=dstats, model=model)
            else:
                source = explore_all(scenario.factory, max_steps=max_steps,
                                     max_executions=max_executions,
                                     model=model)
        else:
            source = explore_random(scenario.factory, runs=runs, seed=seed,
                                    max_steps=max_steps, model=model)
        for result in source:
            record_result(report, scenario, result, styles)
            if report.executions >= max_executions:
                break
        report.pruned_subtrees = dstats.pruned_subtrees
        report.exhausted = exhaustive and report.executions < max_executions
        report.seconds = time.perf_counter() - start
        return report

    from ..engine import EngineParams, run_scenario
    params = EngineParams(
        styles=tuple(styles), exhaustive=exhaustive, runs=runs, seed=seed,
        max_steps=max_steps, max_executions=max_executions,
        workers=workers, checkpoint_path=checkpoint, corpus_path=corpus,
        progress=progress, max_retries=max_retries,
        start_method=start_method, shard_seconds=shard_seconds,
        run_seconds=run_seconds, max_rss_mb=max_rss_mb, dpor=dpor,
        model=model, hedge=hedge, audit_fraction=audit_fraction)
    if corpus_cap is not None:
        params.corpus_cap = corpus_cap
    if shard_timeout is None or shard_timeout >= 0:
        params.shard_timeout = shard_timeout
    return run_scenario(scenario, params, spec=spec).report


# ----------------------------------------------------------------------
# Common extractors
# ----------------------------------------------------------------------

def single_library(env_key: str, kind: Optional[str] = None,
                   with_to: bool = False) -> GraphExtractor:
    """Extract the graph of the library stored at ``result.env[env_key]``.

    ``with_to`` additionally pulls the implementation's own linearization
    (`TreiberStack.linearization`) for ``LAT_hb^hist`` checking.
    """
    def extract(result: ExecutionResult) -> List[GraphCase]:
        lib = result.env[env_key]
        to = lib.linearization() if with_to else None
        return [GraphCase(kind=kind or lib.kind, graph=lib.graph(), to=to,
                          label=env_key)]
    return extract


def elim_stack_cases(env_key: str = "s") -> GraphExtractor:
    """Composed ES graph + the underlying exchanger graph."""
    def extract(result: ExecutionResult) -> List[GraphCase]:
        es = result.env[env_key]
        return [
            GraphCase(kind="stack", graph=es.graph(), label="elim-stack"),
            GraphCase(kind="exchanger", graph=es.ex.graph(),
                      label="exchanger", styles=(SpecStyle.LAT_HB,)),
        ]
    return extract

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
from dataclasses import dataclass, field, fields
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
                self.styles[style] = StyleTally().merge(tally)
        self.outcome_failures += other.outcome_failures
        room = EXAMPLE_CAP - len(self.outcome_examples)
        if room > 0:
            self.outcome_examples.extend(other.outcome_examples[:room])
            self.outcome_traces.extend(other.outcome_traces[:room])
        for key, val in other.metrics.items():
            self.metrics[key] = self.metrics.get(key, 0) + val
        return self

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


#: Most distinct graphs one run's table keeps (`record_result`'s
#: ``graphs``); a graph first seen after that is checked unshared.  Each
#: kept graph pins its events, views and spec-check parts.
GRAPH_TABLE_CAP = 1024


def _first_graph(graphs: Dict, case: GraphCase) -> Graph:
    """The run's first graph equal to ``case.graph``, kept in ``graphs``.

    The key holds the events in commit order and the ``so`` pairs in
    their iteration order, so every collection a spec check walks
    iterates alike on both graphs and their reports are byte-identical.
    """
    graph = case.graph
    to = case.to
    key = (case.kind, None if to is None else tuple(to),
           tuple(graph.events.values()), tuple(graph.so))
    first = graphs.get(key)
    if first is not None:
        return first
    if len(graphs) < GRAPH_TABLE_CAP:
        graphs[key] = graph
    return graph


def record_result(
    report: ScenarioReport,
    scenario: Scenario,
    result: ExecutionResult,
    styles: Sequence[SpecStyle],
    sink=None,
    graphs: Optional[Dict] = None,
) -> None:
    """Check one execution into ``report`` (shared serial/worker path).

    ``sink`` is an optional counterexample collector with a
    ``record(kind, style, trace, violation)`` method (see
    `repro.engine.corpus.CorpusSink`); it receives every failing
    decision trace — spec violation, race, or outcome failure.

    ``graphs`` is the run's table of distinct graphs, a fresh dict per
    exhaustive run (whose executions repeat library-level graphs): a
    case whose graph equals one checked earlier in the run is checked
    against that earlier `Graph`, so its spec-check parts come from the
    earlier graph's `parts` memo.  Without it every graph is checked on
    its own, the reference path.
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
        graph = (case.graph if graphs is None
                 else _first_graph(graphs, case))
        for style in styles:
            if case.styles is not None and style not in case.styles:
                continue
            res = check_style(graph, case.kind, style, to=case.to)
            report.styles[style].record(res.ok, res.violations,
                                        result.trace)
            if not res.ok and sink is not None:
                sink.record("style", style, result.trace,
                            str(res.violations[0]) if res.violations
                            else "violation")


#: Default cap on corpus entries collected per run
#: (`EngineParams.corpus_cap`, `repro.engine.corpus`): a badly broken
#: implementation can fail on *every* execution; the first entries are
#: the serial-DFS-first counterexamples and carry all the signal.
CORPUS_CAP = 100

#: Seconds a local node may hold a lease without a beat before it is
#: declared hung, SIGKILLed and replaced.  A real default, so a lone
#: hung node cannot stall a run forever.  Exploration loops beat
#: *between* executions, so keep this comfortably above the longest
#: single execution (``max_steps`` bounds it).
DEFAULT_SHARD_TIMEOUT = 300.0

#: `EngineParams` fields a remote node needs besides the fingerprint.
_NODE_FIELDS = ("target_shards", "corpus_cap", "hedge", "audit_fraction")


@dataclass
class EngineParams:
    """Everything that shapes one check: the one place each option of
    `check_scenario` and the engine (`repro.engine`) is declared."""

    styles: Sequence[SpecStyle] = (SpecStyle.LAT_HB,)
    exhaustive: bool = False
    runs: int = 300
    seed: int = 0
    max_steps: int = 20_000
    #: Execution cap for the whole run, however it is sharded: the merge
    #: keeps the first ``max_executions`` executions in shard order
    #: (`repro.engine.pool.execution_cut`), exactly the ones a serial
    #: run checks.
    max_executions: int = 100_000
    #: Local worker processes the run is sharded across.
    workers: int = 1
    #: Shard-count target (None = `SHARDS_PER_WORKER` per worker).
    target_shards: Optional[int] = None
    #: Checkpoint log of completed shards; a rerun resumes from it.
    checkpoint: Optional[str] = None
    #: Corpus file every failing trace is appended to as a replayable
    #: entry, at most ``corpus_cap`` of them per run.
    corpus: Optional[str] = None
    corpus_cap: int = CORPUS_CAP
    #: Live progress lines on stderr.
    progress: bool = False
    #: Failed attempts a shard may retry before the run gives up on it.
    max_retries: int = 2
    #: A local node's lease: seconds without a beat before the node is
    #: declared hung, killed and replaced, and its shard requeued
    #: (None = wait forever).
    shard_timeout: Optional[float] = DEFAULT_SHARD_TIMEOUT
    #: Wall-clock budget per shard; a breaching shard stops cleanly and
    #: returns a partial report flagged ``budget_exhausted``.
    shard_seconds: Optional[float] = None
    #: Wall-clock budget for the whole run; on breach remaining shards
    #: are skipped and the merged report carries coverage accounting.
    run_seconds: Optional[float] = None
    #: Peak-RSS ceiling per worker process, in MiB.
    max_rss_mb: Optional[float] = None
    #: Sleep-set partial-order reduction (`repro.rmc.dpor`) in
    #: exhaustive mode; randomized mode ignores it.
    dpor: bool = True
    #: Memory model id (`repro.models`): the semantics every execution
    #: of this run is interpreted under.  Part of the fingerprint —
    #: outcome sets differ across models, so checkpoints and corpus
    #: records must never mix models.
    model: str = "orc11"
    #: Hedged execution (`repro.engine.hedge`): once a shard runs past
    #: the adaptive deadline, dispatch a speculative duplicate; the
    #: first structurally-valid result wins.  Deliberately *not* part
    #: of the fingerprint: hedging changes who delivers a result, never
    #: what it contains.
    hedge: bool = False
    #: Fraction of completed shards re-executed by the trusted driver
    #: process and fingerprint-compared (`repro.engine.audit`); 0 = off.
    #: Also excluded from the fingerprint for the same reason.
    audit_fraction: float = 0.0

    def dpor_on(self) -> bool:
        """The resolved DPOR switch: only exhaustive mode reduces."""
        return self.exhaustive and self.dpor

    def fingerprint_json(self) -> Dict:
        """The parameters that determine exploration results.

        Budgets and timeouts are deliberately excluded: they shape *how
        far* a run gets, not what any completed shard contains, so
        checkpoints stay resumable across different budget settings.
        """
        return {
            "styles": [s.name for s in self.styles],
            "exhaustive": self.exhaustive,
            "runs": self.runs,
            "seed": self.seed,
            "max_steps": self.max_steps,
            "max_executions": self.max_executions,
            "dpor": self.dpor_on(),
            "model": self.model,
        }

    def wire_json(self) -> Dict:
        """The fields a remote node or a submitted campaign needs.

        A superset of `fingerprint_json` (everything result-determining)
        plus the shard target and the knobs that shape a node's local
        loop; budgets and watchdog windows stay coordinator-side.
        """
        data = self.fingerprint_json()
        data.update((name, getattr(self, name)) for name in _NODE_FIELDS)
        return data

    @staticmethod
    def from_wire(data: Dict) -> "EngineParams":
        """Rebuild params from `wire_json` (or `fingerprint_json`)
        output; a field the data lacks keeps its default."""
        names = {f.name for f in fields(EngineParams)}
        kwargs = {k: v for k, v in data.items() if k in names}
        kwargs["styles"] = tuple(SpecStyle[name] for name in data["styles"])
        return EngineParams(**kwargs)


def check_scenario(scenario: Scenario, spec=None,
                   **options) -> ScenarioReport:
    """Explore the scenario and check every complete execution.

    ``options`` are `EngineParams` fields.  Unless one of them needs the
    parallel engine (workers, durable files, progress, budgets, hedging
    or audits), this is the serial reference loop: exhaustive DFS (sleep-set reduced unless
    ``dpor=False``) or ``runs`` seeded random executions, capped at
    ``max_executions``.  Otherwise the run is delegated to
    `repro.engine.run_scenario`: the decision tree (exhaustive mode) or
    seed range (randomized mode) is sharded across local worker
    processes and the per-shard partial reports are merged back —
    byte-for-byte equal to the serial run, modulo ``seconds``, however
    it is sharded.  ``spec`` optionally names the scenario in the
    engine's builder registry so spawned workers can rebuild it and
    corpus entries stay replayable across processes.
    """
    params = EngineParams(**options)
    if (params.workers > 1 or params.checkpoint is not None
            or params.corpus is not None or params.progress
            or params.shard_seconds is not None
            or params.run_seconds is not None
            or params.max_rss_mb is not None or params.hedge
            or params.audit_fraction > 0):
        from ..engine.pool import run_scenario
        return run_scenario(scenario, params, spec=spec).report
    report = ScenarioReport(scenario=scenario.name)
    report.styles = {s: StyleTally() for s in params.styles}
    start = time.perf_counter()
    dstats = DporStats()
    if params.dpor_on():
        source = explore_all_dpor(scenario.factory,
                                  max_steps=params.max_steps,
                                  max_executions=params.max_executions,
                                  stats=dstats, model=params.model)
    elif params.exhaustive:
        source = explore_all(scenario.factory, max_steps=params.max_steps,
                             max_executions=params.max_executions,
                             model=params.model)
    else:
        source = explore_random(scenario.factory, runs=params.runs,
                                seed=params.seed,
                                max_steps=params.max_steps,
                                model=params.model)
    graphs = {} if params.exhaustive else None
    for result in source:
        record_result(report, scenario, result, params.styles,
                      graphs=graphs)
        if report.executions >= params.max_executions:
            break
    report.pruned_subtrees = dstats.pruned_subtrees
    report.exhausted = (params.exhaustive
                        and report.executions < params.max_executions)
    report.seconds = time.perf_counter() - start
    return report


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

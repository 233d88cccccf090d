"""Execution-space exploration: exhaustive (stateless DFS) and randomized.

The exhaustive explorer enumerates the complete decision tree of a bounded
program by *replay*: each execution is rerun from scratch under a
`repro.rmc.scheduler.PrefixDecider`; the recorded trace of
``(arity, chosen)`` pairs identifies the rightmost decision with an untried
sibling, which becomes the next prefix.  This is classic stateless model
checking: a generator cannot be copied, and commit hooks close over
generator-local objects, so every execution rebuilds the program and
re-runs its threads.  The DPOR explorer (`repro.rmc.dpor`) makes the
prefix a replay shares with the previous one cheap: there thread code
and hooks run again, but the memory-model effects are taken from the
previous replay's step records (`repro.rmc.machine.Machine._forward`).

It plays the role the Coq proofs play in the paper: instead of proving a
consistency condition for *all* executions, we enumerate all executions of
bounded scenarios and check the condition on each.  Randomized exploration
scales the same checks to larger scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Sequence

from .dpor import DporStats, explore_all_dpor
from .machine import ExecutionResult
from .program import Program
from .scheduler import FixedDecider, PrefixDecider, RandomDecider

ProgramFactory = Callable[[], Program]

#: Cap on stored race counterexample traces (kept small; the full set goes
#: to the corpus when one is attached).
RACE_TRACE_CAP = 5


@dataclass
class ExplorationStats:
    """Aggregate statistics of one exploration run."""

    executions: int = 0
    complete: int = 0
    truncated: int = 0
    raced: int = 0
    steps: int = 0
    exhausted: bool = False  # True iff the whole tree was enumerated
    race_traces: List[List] = field(default_factory=list)
    #: Race traces not stored because :data:`RACE_TRACE_CAP` was reached
    #: — honest accounting for the capped list above.
    race_traces_dropped: int = 0
    #: Branches skipped by sleep-set DPOR (`repro.rmc.dpor`); 0 for
    #: naive enumeration.
    pruned_subtrees: int = 0

    def record(self, result: ExecutionResult) -> None:
        self.executions += 1
        self.steps += result.steps
        if result.race is not None:
            self.raced += 1
            if len(self.race_traces) < RACE_TRACE_CAP:
                self.race_traces.append(list(result.trace))
            else:
                self.race_traces_dropped += 1
        elif result.truncated:
            self.truncated += 1
        else:
            self.complete += 1


def explore_all(
    factory: ProgramFactory,
    max_steps: int = 2_000,
    max_executions: int = 200_000,
    race_detection: bool = True,
    sc_upgrade: bool = False,
    prefix: Sequence[int] = (),
    model=None,
) -> Iterator[ExecutionResult]:
    """Enumerate every execution of the (bounded) program, by replay.

    Programs with unbounded spin loops must be loop-bounded for exhaustive
    mode; runs exceeding ``max_steps`` come back with ``truncated=True`` and
    their subtree is still backtracked normally.

    ``prefix`` roots the enumeration at a decision-tree subtree: the first
    ``len(prefix)`` decisions are pinned and backtracking never crosses
    above them.  This is the work-sharding hook of the parallel engine
    (`repro.engine`): disjoint prefixes yield disjoint subtrees whose
    union is exactly the ``prefix=()`` enumeration, in DFS order.
    """
    base = list(prefix)
    cur: List[int] = list(base)
    executions = 0
    while executions < max_executions:
        decider = PrefixDecider(cur)
        result = factory().run(decider, max_steps=max_steps,
                               race_detection=race_detection,
                               sc_upgrade=sc_upgrade, model=model)
        executions += 1
        yield result
        trace = decider.trace
        j = len(trace) - 1
        while j >= len(base) and trace[j][1] + 1 >= trace[j][0]:
            j -= 1
        if j < len(base):
            return
        cur = [trace[i][1] for i in range(j)] + [trace[j][1] + 1]


def explore_random(
    factory: ProgramFactory,
    runs: int,
    seed: int = 0,
    max_steps: int = 100_000,
    race_detection: bool = True,
    sc_upgrade: bool = False,
    model=None,
) -> Iterator[ExecutionResult]:
    """Run ``runs`` independent executions with seeded random decisions."""
    for i in range(runs):
        decider = RandomDecider(seed + i)
        yield factory().run(decider, max_steps=max_steps,
                            race_detection=race_detection,
                            sc_upgrade=sc_upgrade, model=model)


def check_all(
    factory: ProgramFactory,
    check: Callable[[ExecutionResult], None],
    exhaustive: bool = True,
    runs: int = 500,
    seed: int = 0,
    max_steps: int = 2_000,
    max_executions: int = 200_000,
    dpor: bool = True,
    model=None,
) -> ExplorationStats:
    """Explore and apply ``check`` to every non-raced complete execution.

    ``check`` should raise (e.g. ``AssertionError``) on a violation; the
    offending execution's decision trace is replayable with
    :func:`replay`.

    ``dpor`` controls sleep-set partial-order reduction
    (`repro.rmc.dpor`): on by default in exhaustive mode (every final
    outcome is still checked; redundant interleavings are skipped and
    counted in ``stats.pruned_subtrees``), ignored in randomized mode.
    """
    stats = ExplorationStats()
    dstats = DporStats()
    if exhaustive and dpor:
        source = explore_all_dpor(factory, max_steps=max_steps,
                                  max_executions=max_executions,
                                  stats=dstats, model=model)
    elif exhaustive:
        source = explore_all(factory, max_steps=max_steps,
                             max_executions=max_executions, model=model)
    else:
        source = explore_random(factory, runs=runs, seed=seed,
                                max_steps=max_steps, model=model)
    exhausted = True
    for result in source:
        stats.record(result)
        if result.ok:
            check(result)
        if stats.executions >= max_executions:
            exhausted = False
            break
    stats.exhausted = exhaustive and exhausted
    stats.pruned_subtrees = dstats.pruned_subtrees
    return stats


def replay(factory: ProgramFactory, trace, max_steps: int = 100_000,
           race_detection: bool = True, model=None) -> ExecutionResult:
    """Re-execute a recorded decision trace (counterexample replay)."""
    return factory().run(FixedDecider(trace), max_steps=max_steps,
                         race_detection=race_detection, model=model)

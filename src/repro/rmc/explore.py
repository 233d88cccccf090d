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

from typing import Callable, Iterator, List, Sequence

from .machine import ExecutionResult
from .program import Program
from .scheduler import FixedDecider, PrefixDecider, RandomDecider

ProgramFactory = Callable[[], Program]


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


def replay(factory: ProgramFactory, trace, max_steps: int = 100_000,
           race_detection: bool = True, model=None) -> ExecutionResult:
    """Re-execute a recorded decision trace (counterexample replay)."""
    return factory().run(FixedDecider(trace), max_steps=max_steps,
                         race_detection=race_detection, model=model)

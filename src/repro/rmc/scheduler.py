"""Deciders: the sources of nondeterminism resolution.

An execution of the machine is fully determined by the *decision sequence*:
at each step, (1) which enabled thread runs, and (2) for reads with several
coherence-permitted messages, which message is read.  A
:class:`Decider` resolves both kinds of choice through a single
``_choose(n)`` funnel, which makes replay and exhaustive enumeration
uniform: a trace is just the list of ``(arity, chosen)`` pairs.

* :class:`RandomDecider` — seeded uniform choices, for randomized testing.
* :class:`PrefixDecider` — follow a given prefix, then take branch 0,
  recording arities; the workhorse of the stateless DFS explorer.
* :class:`FixedDecider` — replay an exact trace (counterexample replay).
* :class:`RoundRobinDecider` — deterministic fair scheduling with
  coherence-maximal reads; useful as a smoke-test "SC-like" schedule.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

Choice = Tuple[int, int]  # (arity, chosen)


class Decider:
    """Base class; subclasses override :meth:`_choose`."""

    #: Deciders that set this are handed, at every scheduling decision,
    #: a getter for the per-branch operation footprints
    #: (`repro.rmc.ops.op_footprint`) — the DPOR hook (`repro.rmc.dpor`).
    #: The machine computes footprints only when the getter is called.
    wants_footprints = False

    #: Deciders that set this keep a ``records`` list: the machine
    #: appends a `repro.rmc.machine.StepRecord` per step it executes,
    #: and first fast-forwards through the records the list already
    #: holds — steps of an earlier replay of the same program, under the
    #: decisions ``trace`` already holds (`repro.rmc.dpor`).
    wants_records = False

    def __init__(self) -> None:
        self.trace: List[Choice] = []

    def _choose(self, n: int) -> int:
        raise NotImplementedError

    def choose(self, n: int, footprints=None) -> int:
        """Resolve an ``n``-ary decision and record it in the trace.

        ``footprints`` is only supplied (and only meaningful) for
        scheduling decisions when :attr:`wants_footprints` is set: a
        zero-argument callable returning a tuple of one
        `repro.rmc.ops.Footprint` per branch.
        """
        if n <= 0:
            raise ValueError("decision with no alternatives")
        c = 0 if n == 1 else self._choose(n)
        if not 0 <= c < n:
            raise ValueError(f"decider chose {c} out of {n}")
        self.trace.append((n, c))
        return c

    # The machine distinguishes the two kinds only for readability;
    # both funnel through :meth:`choose`.
    def choose_thread(self, enabled: Sequence[int], footprints=None) -> int:
        return enabled[self.choose(len(enabled), footprints)]

    def choose_read(self, n: int) -> int:
        return self.choose(n)


class RandomDecider(Decider):
    """Uniformly random choices from a seeded RNG."""

    def __init__(self, seed: Optional[int] = None):
        super().__init__()
        self.rng = random.Random(seed)

    def _choose(self, n: int) -> int:
        return self.rng.randrange(n)


class PrefixDecider(Decider):
    """Follow ``prefix``; afterwards always take branch 0.

    Used for stateless DFS: the explorer reruns the program with ever-longer
    prefixes, inspecting the recorded trace for unexplored siblings.
    """

    def __init__(self, prefix: Sequence[int] = ()):
        super().__init__()
        self.prefix = list(prefix)

    def _choose(self, n: int) -> int:
        i = len(self.trace)
        if i < len(self.prefix):
            return min(self.prefix[i], n - 1)
        return 0


class FixedDecider(Decider):
    """Replay an exact recorded trace; error if the run diverges."""

    def __init__(self, trace: Sequence[Choice]):
        super().__init__()
        self._replay = list(trace)

    def _choose(self, n: int) -> int:
        i = len(self.trace)
        if i >= len(self._replay):
            raise ValueError("replay trace exhausted: execution diverged")
        arity, chosen = self._replay[i]
        if arity != n:
            raise ValueError(
                f"replay divergence at step {i}: arity {n} != recorded {arity}"
            )
        return chosen


class RoundRobinDecider(Decider):
    """Rotate through threads; reads take the newest visible message."""

    def __init__(self, quantum: int = 1):
        super().__init__()
        self.quantum = max(1, quantum)
        self._step = 0

    def choose_thread(self, enabled: Sequence[int], footprints=None) -> int:
        idx = (self._step // self.quantum) % len(enabled)
        self._step += 1
        self.choose(len(enabled))  # keep the trace aligned
        self.trace[-1] = (len(enabled), idx)
        return enabled[idx]

    def _choose(self, n: int) -> int:
        return n - 1  # newest message

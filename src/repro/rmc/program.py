"""Programs: a setup phase plus a list of thread coroutines.

A :class:`Program` packages

* ``setup(memory) -> env``: runs before any thread starts, allocates the
  shared locations / library objects, and returns an environment handed to
  each thread;
* ``threads``: generator functions ``fn(env)`` that yield
  `repro.rmc.ops` operations.

Example (the classic message-passing litmus)::

    def setup(mem):
        return {"x": mem.alloc("x"), "f": mem.alloc("f")}

    def producer(env):
        yield Store(env["x"], 42, RLX)
        yield Store(env["f"], 1, REL)

    def consumer(env):
        while (yield Load(env["f"], ACQ)) == 0:
            pass
        return (yield Load(env["x"], RLX))

    prog = Program(setup, [producer, consumer])

Because a generator cannot be rewound or copied, explorers take a *program
factory* and build a fresh program for every execution; :class:`Program`
itself is reusable as long as ``setup`` and the thread functions are
(plain functions are).  A DPOR replay still re-runs the thread code of
the prefix it shares with the previous replay, but takes that prefix's
memory-model effects from the previous replay (docs/dpor.md, "Prefix
fast-forward").
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional

from .machine import ExecutionResult, Machine
from .memory import Memory
from .scheduler import Decider, RandomDecider

ThreadFn = Callable[[Any], Generator]
SetupFn = Callable[[Memory], Any]


class Program:
    """A concurrent program: shared-state setup plus thread bodies."""

    def __init__(
        self,
        setup: Optional[SetupFn],
        threads: List[ThreadFn],
        name: str = "program",
    ):
        if not threads:
            raise ValueError("a program needs at least one thread")
        self.setup = setup
        self.threads = list(threads)
        self.name = name

    def run(
        self,
        decider: Optional[Decider] = None,
        max_steps: int = 100_000,
        race_detection: bool = True,
        sc_upgrade: bool = False,
        model=None,
    ) -> ExecutionResult:
        """Run one execution (random schedule by default)."""
        decider = decider if decider is not None else RandomDecider()
        return Machine(self, decider, max_steps, race_detection,
                       sc_upgrade=sc_upgrade, model=model).run()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Program({self.name!r}, {len(self.threads)} threads)"

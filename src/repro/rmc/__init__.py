"""`repro.rmc` — the ORC11-style view-based relaxed memory simulator.

Public surface:

* modes: ``NA, RLX, ACQ, REL, ACQ_REL, SC`` (`repro.rmc.modes.Mode`)
* operations yielded by thread coroutines: `Load`, `Store`, `Cas`,
  `Faa`, `Xchg`, `Fence`, `Alloc`, `GhostCommit`
* `Program` + `Machine.run` / `Program.run` for single executions
* `explore_all` / `explore_random` / `replay` for execution-space
  exploration, and `explore_all_dpor` (`repro.rmc.dpor`) for the
  sleep-set-reduced exhaustive enumeration; checking every execution
  is `repro.checking.check_scenario`'s job
* `View`, `Memory`, `Message` for the Compass layer and for tests
* the litmus catalogue (`repro.rmc.litmus`) validating the model
"""

from .dpor import (DporStats, SleepSetCut, SleepSetDecider, child_sleep,
                   explore_all_dpor, independent)
from .explore import explore_all, explore_random, replay
from .machine import CommitCtx, ExecutionResult, Machine, ThreadState, run
from .memory import Memory
from .message import Location, Message
from .modes import ACQ, ACQ_REL, NA, REL, RLX, SC, Mode
from .ops import (Alloc, Cas, Faa, Fence, Footprint, GhostCommit, Load,
                  Store, Xchg, op_footprint)
from .program import Program
from .races import RaceError, RmcError, SteppingError
from .scheduler import (Decider, FixedDecider, PrefixDecider, RandomDecider,
                        RoundRobinDecider)
from .view import EMPTY_VIEW, View, join_all

__all__ = [
    "ACQ", "ACQ_REL", "NA", "REL", "RLX", "SC", "Mode",
    "Alloc", "Cas", "Faa", "Fence", "GhostCommit", "Load", "Store", "Xchg",
    "Program", "Machine", "run", "CommitCtx", "ExecutionResult",
    "ThreadState",
    "Decider", "RandomDecider", "PrefixDecider", "FixedDecider",
    "RoundRobinDecider",
    "explore_all", "explore_random", "replay",
    "explore_all_dpor", "DporStats", "SleepSetDecider", "SleepSetCut",
    "independent", "child_sleep", "Footprint", "op_footprint",
    "Memory", "Message", "Location", "View", "EMPTY_VIEW", "join_all",
    "RaceError", "RmcError", "SteppingError",
]

"""The view-based operational machine for the ORC11 fragment.

This module implements, executably, the step rules the paper sketches in
Section 2.3 (Rel-Write, Acq-Read, and their relatives in Section 5.3):

* each thread carries a current view, a release-fence frontier, and an
  acquire cache (for relaxed reads whose synchronization is claimed by a
  later acquire fence);
* a write appends a message at the location's next timestamp and seals into
  it the view the write *releases* (full view for release writes, the
  release-fence frontier for relaxed writes);
* a read picks any coherence-visible message (timestamp at or above the
  reader's frontier) and, if acquiring, joins the message view;
* RMWs read the modification-order-maximal message and carry the read
  message's view into the written message (release sequences through RMW
  chains — what makes Treiber-stack resource transfer work);
* seq-cst accesses additionally synchronize through a global SC view and
  read mo-maximally, giving the strongly synchronized baselines.

Load buffering is impossible by construction (a read only sees existing
messages), matching ORC11's ``po ∪ rf`` acyclicity.

The points where these rules can *vary* — mode strengthening, the read
visibility predicate, view acquisition, message-view construction, the
SC-access synchronization, and fence rules — are dispatched through a
:class:`repro.models.base.MemoryModel` (``model=`` on `Machine`/`run`);
the default ``"orc11"`` model is exactly the semantics described above.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

from .memory import Memory
from .message import Message
from .modes import FENCE_MODES, Mode, READ_MODES, RMW_MODES, WRITE_MODES
from .ops import (Alloc, Cas, Faa, Fence, Footprint, GhostCommit, Load, Op,
                  Store, Xchg, op_footprint)
from .races import RaceError, SteppingError
from .scheduler import Decider
from .view import EMPTY_VIEW, View


class ThreadState:
    """Mutable per-thread machine state.

    ``footprint`` caches the footprint of ``pending`` (None until a
    footprint-wanting decider asks, and again after every `_advance`).
    """

    __slots__ = (
        "tid", "gen", "view", "rel_view", "acq_cache",
        "clock", "tau", "finished", "retval", "pending", "footprint",
    )

    def __init__(self, tid: int, gen: Generator, tau: int):
        self.tid = tid
        self.gen = gen
        self.view: View = EMPTY_VIEW
        self.rel_view: View = EMPTY_VIEW
        self.acq_cache: View = EMPTY_VIEW
        self.clock = 0
        self.tau = tau
        self.finished = False
        self.retval: Any = None
        self.pending: Optional[Op] = None
        self.footprint: Optional[Footprint] = None


class CommitCtx:
    """Context handed to commit hooks, atomically with the memory effect.

    The hook runs after the thread's view has absorbed the operation's own
    effect (read acquisition / the write's coherence component) but before
    a written message's released view is sealed, so ghost components added
    here are published by release writes — the executable image of logical
    views piggybacking on physical views.
    """

    __slots__ = ("machine", "thread", "op", "msg_read", "ts_written", "value_read")

    def __init__(self, machine, thread, op, msg_read=None, ts_written=None,
                 value_read=None):
        self.machine: "Machine" = machine
        self.thread: ThreadState = thread
        self.op = op
        self.msg_read: Optional[Message] = msg_read
        self.ts_written: Optional[int] = ts_written
        self.value_read: Any = value_read

    @property
    def view(self) -> View:
        """The committing thread's view at the commit point."""
        return self.thread.view

    def add_ghost(self, component: int, ts: int = 1) -> None:
        """Plant a ghost component into the committing thread's view."""
        self.thread.view = self.thread.view.extend(component, ts)


@dataclass
class ExecutionResult:
    """Outcome of one complete (or truncated/raced) execution."""

    returns: Dict[int, Any]
    steps: int
    truncated: bool
    race: Optional[RaceError]
    memory: Memory
    env: Any
    trace: List = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.truncated and self.race is None


class Machine:
    """Drives one execution of a program under a decider."""

    def __init__(
        self,
        program,
        decider: Decider,
        max_steps: int = 100_000,
        race_detection: bool = True,
        sc_upgrade: bool = False,
        model=None,
    ):
        self.program = program
        self.decider = decider
        self.max_steps = max_steps
        #: Ablation knob: execute every atomic access/fence at seq-cst.
        #: Separates *algorithmic* weakness from *memory-model* weakness —
        #: e.g. the Herlihy–Wing queue's non-FIFO commit order survives
        #: the upgrade (its need for prophecy is algorithmic), while all
        #: litmus weak outcomes vanish.
        self.sc_upgrade = sc_upgrade
        # Imported lazily: repro.models imports rmc leaf modules, so a
        # module-level import here would cycle when the models package is
        # the entry point.
        from ..models.base import get_model
        self.model = get_model(model)
        self.memory = Memory(race_detection=race_detection)
        self.env = program.setup(self.memory) if program.setup else None
        self.threads: List[ThreadState] = []
        for tid, fn in enumerate(program.threads):
            gen = fn(self.env)
            tau = self.memory.register_thread(tid)
            th = ThreadState(tid, gen, tau)
            self.threads.append(th)
        self.steps = 0

    # ------------------------------------------------------------------
    # Top-level driving
    # ------------------------------------------------------------------
    def run(self) -> ExecutionResult:
        race: Optional[RaceError] = None
        truncated = False
        try:
            for th in self.threads:
                self._advance(th, None)  # prime: run to the first yield
            wants_footprints = self.decider.wants_footprints
            while True:
                enabled = [t.tid for t in self.threads if not t.finished]
                if not enabled:
                    break
                if self.steps >= self.max_steps:
                    truncated = True
                    break
                if wants_footprints:
                    tid = self.decider.choose_thread(
                        enabled, lambda e=enabled: self._footprints(e))
                else:
                    tid = self.decider.choose_thread(enabled)
                self._step(self.threads[tid])
        except RaceError as err:
            race = err
        return ExecutionResult(
            returns={t.tid: t.retval for t in self.threads},
            steps=self.steps,
            truncated=truncated,
            race=race,
            memory=self.memory,
            env=self.env,
            trace=self.decider.trace,
        )

    def _footprints(self, enabled: Sequence[int]) -> Tuple[Footprint, ...]:
        """The footprints of the ``enabled`` threads' pending operations.

        A footprint is a pure function of the pending op, the model and
        ``sc_upgrade``, so each is computed at most once per pending op
        and cached on its thread until `_advance` replaces the op.
        """
        out = []
        for tid in enabled:
            th = self.threads[tid]
            fp = th.footprint
            if fp is None:
                fp = th.footprint = op_footprint(
                    tid, th.pending, self.sc_upgrade, model=self.model)
            out.append(fp)
        return tuple(out)

    def _advance(self, th: ThreadState, send_value: Any) -> None:
        th.footprint = None
        try:
            th.pending = th.gen.send(send_value)
        except StopIteration as stop:
            th.finished = True
            th.retval = stop.value
            th.pending = None

    def _step(self, th: ThreadState) -> None:
        self.steps += 1
        result = self._execute(th, th.pending)
        self._advance(th, result)

    # ------------------------------------------------------------------
    # Operation semantics
    # ------------------------------------------------------------------
    def _execute(self, th: ThreadState, op: Op) -> Any:
        if self.sc_upgrade and hasattr(op, "mode") and \
                op.mode is not Mode.NA:
            op.mode = Mode.SC
            if isinstance(op, Cas):
                op.fail_mode = Mode.SC
        if isinstance(op, Load):
            if op.mode not in READ_MODES:
                raise SteppingError(f"load cannot be {op.mode}")
            return self._do_load(th, op)
        if isinstance(op, Store):
            if op.mode not in WRITE_MODES:
                raise SteppingError(f"plain store cannot be {op.mode}")
            return self._do_store(th, op)
        if isinstance(op, Cas):
            if op.mode not in RMW_MODES:
                raise SteppingError(f"CAS cannot be {op.mode}")
            return self._do_cas(th, op)
        if isinstance(op, Faa):
            if op.mode not in RMW_MODES:
                raise SteppingError(f"FAA cannot be {op.mode}")
            return self._do_rmw(th, op, lambda old: old + op.delta)
        if isinstance(op, Xchg):
            if op.mode not in RMW_MODES:
                raise SteppingError(f"XCHG cannot be {op.mode}")
            return self._do_rmw(th, op, lambda _old: op.val)
        if isinstance(op, Fence):
            if op.mode not in FENCE_MODES:
                raise SteppingError(f"fence cannot be {op.mode}")
            return self._do_fence(th, op)
        if isinstance(op, Alloc):
            return [self.memory.alloc(op.name, init) for init in op.inits]
        if isinstance(op, GhostCommit):
            op.commit(CommitCtx(self, th, op))
            return None
        raise SteppingError(f"unknown operation {op!r}")

    def _tick(self, th: ThreadState) -> None:
        """Bump the thread's race-detector clock for a new access."""
        th.clock += 1
        th.view = th.view.extend(th.tau, th.clock)

    # -- loads ----------------------------------------------------------
    def _do_load(self, th: ThreadState, op: Load) -> Any:
        mode = self.model.read_mode(op.mode)
        self._tick(th)
        self.memory.check_read_race(op.loc, th.tid, th.view, mode is Mode.NA)
        self.model.pre_access(self.memory, th, mode)
        choices = self.model.read_choices(self.memory, th, op.loc, mode)
        msg = choices[self.decider.choose_read(len(choices))]
        self.model.absorb_read(self.memory, th, msg, mode)
        self.memory.mark_read(op.loc, th.tid, th.clock, mode is Mode.NA)
        if op.commit is not None:
            op.commit(CommitCtx(self, th, op, msg_read=msg, value_read=msg.val))
        self.model.post_access(self.memory, th, mode)
        return msg.val

    # -- stores ---------------------------------------------------------
    def _do_store(self, th: ThreadState, op: Store) -> None:
        mode = self.model.write_mode(op.mode)
        self._tick(th)
        self.memory.check_write_race(op.loc, th.tid, th.view, mode is Mode.NA)
        self.model.pre_access(self.memory, th, mode)
        ts = self.memory.location(op.loc).next_ts
        th.view = th.view.extend(op.loc, ts)
        if op.commit is not None:
            op.commit(CommitCtx(self, th, op, ts_written=ts))
        mview = self.model.released_view(self.memory, th, op.loc, ts, mode,
                                         None)
        self.memory.append(op.loc, op.val, mview, th.tid, th.clock,
                           mode is Mode.NA)
        self.model.post_access(self.memory, th, mode)

    # -- read-modify-writes ----------------------------------------------
    def _do_cas(self, th: ThreadState, op: Cas):
        mode = self.model.rmw_mode(op.mode)
        self._tick(th)
        self.memory.check_read_race(op.loc, th.tid, th.view, False)
        self.model.pre_access(self.memory, th, mode)
        # The CAS read deliberately stays on the coherence predicate (not
        # `read_choices`): models that restrict reads below a global floor
        # do so here through `pre_access` raising the thread view first.
        visible = self.memory.visible(op.loc, th.view)
        latest = visible[-1]
        choices = [m for m in visible if m.val != op.expected]
        if latest.val == op.expected:
            choices.append(latest)
        msg = choices[self.decider.choose_read(len(choices))]
        if msg.val == op.expected:
            result = self._rmw_write(th, op, msg, op.desired, op.commit, mode)
            out = (True, msg.val)
        else:
            # Failed CAS: a plain read at fail_mode.
            self.model.absorb_read(self.memory, th, msg,
                                   self.model.fail_mode(op.fail_mode))
            self.memory.mark_read(op.loc, th.tid, th.clock, False)
            if op.commit_fail is not None:
                op.commit_fail(
                    CommitCtx(self, th, op, msg_read=msg, value_read=msg.val))
            out = (False, msg.val)
        self.model.post_access(self.memory, th, mode)
        return out

    def _do_rmw(self, th: ThreadState, op, compute) -> Any:
        mode = self.model.rmw_mode(op.mode)
        self._tick(th)
        self.memory.check_read_race(op.loc, th.tid, th.view, False)
        self.model.pre_access(self.memory, th, mode)
        msg = self.memory.latest(op.loc)
        self._rmw_write(th, op, msg, compute(msg.val), op.commit, mode)
        self.model.post_access(self.memory, th, mode)
        return msg.val

    def _rmw_write(self, th: ThreadState, op, read_msg: Message, new_val,
                   commit, mode: Mode) -> Message:
        """Common successful-RMW path: mo-adjacent read-and-write.

        ``mode`` is the mode the RMW actually executes at (after model
        strengthening), not the annotation.
        """
        self.memory.check_write_race(op.loc, th.tid, th.view, False)
        # Read side.
        self.model.absorb_rmw_read(self.memory, th, read_msg, mode)
        self.memory.mark_read(op.loc, th.tid, th.clock, False)
        # Write side, mo-adjacent to the read message.
        ts = read_msg.ts + 1
        assert ts == self.memory.location(op.loc).next_ts
        th.view = th.view.extend(op.loc, ts)
        if commit is not None:
            commit(CommitCtx(self, th, op, msg_read=read_msg, ts_written=ts,
                             value_read=read_msg.val))
        mview = self.model.released_view(self.memory, th, op.loc, ts, mode,
                                         read_msg.view)
        return self.memory.append(op.loc, new_val, mview, th.tid, th.clock,
                                  False)

    # -- fences -----------------------------------------------------------
    def _do_fence(self, th: ThreadState, op: Fence) -> None:
        self.model.fence(self.memory, th, self.model.fence_mode(op.mode))


def run(program, decider: Decider, max_steps: int = 100_000,
        race_detection: bool = True,
        sc_upgrade: bool = False, model=None) -> ExecutionResult:
    """Run ``program`` to completion under ``decider``."""
    return Machine(program, decider, max_steps, race_detection,
                   sc_upgrade=sc_upgrade, model=model).run()

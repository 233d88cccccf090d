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

Under a decider that asks for records (`Decider.wants_records`, the
DPOR replays of `repro.rmc.dpor`) the machine keeps a `StepRecord` per
step and fast-forwards a replay through the steps it shares with the
previous one (`Machine._forward`, docs/dpor.md "Prefix fast-forward").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, NamedTuple, Optional, Tuple

# The module, not `get_model` itself: repro.models imports rmc leaf
# modules, so when the models package is the entry point it is still
# initializing while this module loads.
from ..models import base as model_registry
from .memory import Memory
from .message import Location, Message
from .modes import (FENCE_MODES, Mode, NA, READ_MODES, RMW_MODES,
                    WRITE_MODES)
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


class StepRecord(NamedTuple):
    """One executed step, as the next DPOR replay fast-forwards it.

    A thread state is ``(view, rel_view, acq_cache, clock, sc_view)``:
    the thread's views and race-detector clock plus the memory's SC
    view.  A record holds no program value — views are component ids
    and timestamps, so replays of one program can share them, while a
    value may be an object a generator created (`Machine._forward`).
    """

    #: The thread that stepped.
    thread: int
    #: Length of the decision trace when the step ended.
    end: int
    #: The thread state its commit hook ran at (None: no hook ran).
    at_hook: Optional[tuple]
    #: The thread state after the step.
    after: tuple
    #: Timestamp of the message the step read (None: it read none).
    read_ts: Optional[int]
    #: View sealed into the message the step wrote (None: it wrote none).
    sealed: Optional[View]


#: Builds a `StepRecord` from its field tuple in one C call.
_record = tuple.__new__


def _state(th: ThreadState, memory: Memory) -> tuple:
    """The `StepRecord` thread state of ``th`` now."""
    return (th.view, th.rel_view, th.acq_cache, th.clock, memory.sc_view)


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
        self.model = model_registry.get_model(model)
        self.memory = Memory(race_detection=race_detection)
        self.env = program.setup(self.memory) if program.setup else None
        self.threads: List[ThreadState] = []
        for tid, fn in enumerate(program.threads):
            gen = fn(self.env)
            tau = self.memory.register_thread(tid)
            th = ThreadState(tid, gen, tau)
            self.threads.append(th)
        self.steps = 0
        #: The decider's step records (None: it asks for none).
        self._records: Optional[List[StepRecord]] = (
            decider.records if decider.wants_records else None)
        # What the executing step read, sealed and ran its hook at; the
        # step rules set them and `run` files them in the step's record.
        self._read: Optional[Message] = None
        self._sealed: Optional[View] = None
        self._at_hook: Optional[tuple] = None

    # ------------------------------------------------------------------
    # Top-level driving
    # ------------------------------------------------------------------
    def run(self) -> ExecutionResult:
        race: Optional[RaceError] = None
        truncated = False
        threads = self.threads
        decider = self.decider
        records = self._records
        memory = self.memory
        try:
            for th in threads:
                self._advance(th, None)  # prime: run to the first yield
            if records:
                self._forward(records)
            # The runnable threads, rebuilt only when one finishes; the
            # footprint getter reads it at the decision it is handed to.
            enabled = self._enabled = [t.tid for t in threads
                                       if not t.finished]
            footprints = (self._footprints
                          if decider.wants_footprints else None)
            execute = self._execute
            max_steps = self.max_steps
            while enabled:
                if self.steps >= max_steps:
                    truncated = True
                    break
                if footprints is None:
                    th = threads[decider.choose_thread(enabled)]
                else:
                    th = threads[decider.choose_thread(enabled, footprints)]
                self.steps += 1
                if records is None:
                    self._advance(th, execute(th, th.pending))
                else:
                    self._read = self._sealed = self._at_hook = None
                    value = execute(th, th.pending)
                    read = self._read
                    records.append(_record(StepRecord, (
                        th.tid, len(decider.trace), self._at_hook,
                        _state(th, memory),
                        None if read is None else read.ts, self._sealed)))
                    self._advance(th, value)
                if th.finished:
                    enabled = self._enabled = [t.tid for t in threads
                                               if not t.finished]
        except RaceError as err:
            race = err
        return ExecutionResult(
            returns={t.tid: t.retval for t in threads},
            steps=self.steps,
            truncated=truncated,
            race=race,
            memory=self.memory,
            env=self.env,
            trace=decider.trace,
        )

    def _footprints(self) -> Tuple[Footprint, ...]:
        """The footprints of the enabled threads' pending operations.

        A footprint is a pure function of the pending op, the model and
        ``sc_upgrade``, so each is computed at most once per pending op
        and cached on its thread until `_advance` replaces the op.
        """
        out = []
        for tid in self._enabled:
            th = self.threads[tid]
            fp = th.footprint
            if fp is None:
                fp = th.footprint = op_footprint(
                    tid, th.pending, self.sc_upgrade, model=self.model)
            out.append(fp)
        return tuple(out)

    def _forward(self, records: List[StepRecord]) -> None:
        """Redo ``records``: the steps the previous replay took under the
        decisions ``self.decider.trace`` already holds.

        Thread code and commit hooks run again, so every object a
        generator or hook creates and every event a registry commits is
        rebuilt, with the identities this replay gives it.  The memory
        model's work is not redone: visibility, view joins, model
        dispatch, race checks and decisions come from the records.  A
        hook runs at its recorded thread state, a read re-marks its
        location, a write appends the fresh op's value under the
        recorded view, and the thread takes its recorded state after
        the step.  Values never come from a record: a read sends the
        rebuilt message's value and an RMW computes from it.
        """
        threads, memory = self.threads, self.memory
        locations = memory.locations
        for tid, _end, at_hook, after, read_ts, sealed in records:
            th = threads[tid]
            op = th.pending
            kind = type(op)
            if kind is Alloc or kind is GhostCommit:
                self._advance(th, _STEPS[kind](self, th, op))
                continue
            if self.sc_upgrade and op.mode is not NA:
                op.mode = Mode.SC
                if kind is Cas:
                    op.fail_mode = Mode.SC
            value = None
            if kind is not Fence:
                loc, clock = op.loc, after[3]
                history = locations[loc].history
                msg = old = None
                if read_ts is not None:
                    msg = history[read_ts]
                    value = old = msg.val
                    # Every model keeps a non-atomic access non-atomic,
                    # and RMWs are never non-atomic.
                    memory.mark_read(loc, tid, clock, op.mode is NA)
                hook = op.commit
                if kind is Cas:
                    value = (sealed is not None, old)
                    if sealed is None:
                        hook = op.commit_fail
                ts = None if sealed is None else len(history)
                if hook is not None:
                    (th.view, th.rel_view, th.acq_cache, th.clock,
                     memory.sc_view) = at_hook
                    hook(CommitCtx(self, th, op, msg_read=msg,
                                   ts_written=ts, value_read=old))
                if sealed is not None:
                    if kind is Store:
                        memory.append(loc, op.val, sealed, tid, clock,
                                      op.mode is NA)
                    else:
                        new = (op.desired if kind is Cas
                               else old + op.delta if kind is Faa
                               else op.val)
                        memory.append(loc, new, sealed, tid, clock, False)
            (th.view, th.rel_view, th.acq_cache, th.clock,
             memory.sc_view) = after
            self._advance(th, value)
        self.steps += len(records)

    def _advance(self, th: ThreadState, send_value: Any) -> None:
        th.footprint = None
        try:
            th.pending = th.gen.send(send_value)
        except StopIteration as stop:
            th.finished = True
            th.retval = stop.value
            th.pending = None

    # ------------------------------------------------------------------
    # Operation semantics
    # ------------------------------------------------------------------
    def _execute(self, th: ThreadState, op: Op) -> Any:
        step = _STEPS.get(type(op))
        if step is None:
            raise SteppingError(f"unknown operation {op!r}")
        if self.sc_upgrade and hasattr(op, "mode") and op.mode is not NA:
            op.mode = Mode.SC
            if type(op) is Cas:
                op.fail_mode = Mode.SC
        return step(self, th, op)

    def _tick(self, th: ThreadState) -> None:
        """Bump the thread's race-detector clock for a new access."""
        th.clock += 1
        th.view = th.view.extend(th.tau, th.clock)

    # -- loads ----------------------------------------------------------
    def _do_load(self, th: ThreadState, op: Load) -> Any:
        if op.mode not in READ_MODES:
            raise SteppingError(f"load cannot be {op.mode}")
        model, memory, loc = self.model, self.memory, op.loc
        mode = model.read_mode(op.mode)
        na = mode is NA
        self._tick(th)
        # An atomic read races only with a non-atomic write.
        if memory.race_detection and (
                na or memory.locations[loc].has_na_write):
            memory.check_read_race(loc, th.tid, th.view, na)
        model.pre_access(memory, th, mode)
        choices = model.read_choices(memory, th, loc, mode)
        msg = self._read = choices[self.decider.choose_read(len(choices))]
        model.absorb_read(memory, th, msg, mode)
        memory.mark_read(loc, th.tid, th.clock, na)
        if op.commit is not None:
            if self._records is not None:
                self._at_hook = _state(th, memory)
            op.commit(CommitCtx(self, th, op, msg_read=msg, value_read=msg.val))
        model.post_access(memory, th, mode)
        return msg.val

    # -- stores ---------------------------------------------------------
    def _do_store(self, th: ThreadState, op: Store) -> None:
        if op.mode not in WRITE_MODES:
            raise SteppingError(f"plain store cannot be {op.mode}")
        model, memory, loc = self.model, self.memory, op.loc
        mode = model.write_mode(op.mode)
        na = mode is NA
        self._tick(th)
        cell = memory.locations[loc]
        # An atomic write races only with non-atomic accesses.
        if memory.race_detection and (na or cell.has_na_write
                                      or cell.na_read_marks):
            memory.check_write_race(loc, th.tid, th.view, na)
        model.pre_access(memory, th, mode)
        ts = len(cell.history)  # the next timestamp: t⁺ = |h(ℓ)|
        th.view = th.view.extend(loc, ts)
        if op.commit is not None:
            if self._records is not None:
                self._at_hook = _state(th, memory)
            op.commit(CommitCtx(self, th, op, ts_written=ts))
        mview = self._sealed = model.released_view(memory, th, loc, ts,
                                                   mode, None)
        memory.append(loc, op.val, mview, th.tid, th.clock, na)
        model.post_access(memory, th, mode)

    # -- read-modify-writes ----------------------------------------------
    def _do_cas(self, th: ThreadState, op: Cas):
        if op.mode not in RMW_MODES:
            raise SteppingError(f"CAS cannot be {op.mode}")
        model, memory, loc = self.model, self.memory, op.loc
        mode = model.rmw_mode(op.mode)
        self._tick(th)
        cell = memory.locations[loc]
        if memory.race_detection and cell.has_na_write:
            memory.check_read_race(loc, th.tid, th.view, False)
        model.pre_access(memory, th, mode)
        # The CAS read deliberately stays on the coherence predicate (not
        # `read_choices`): models that restrict reads below a global floor
        # do so here through `pre_access` raising the thread view first.
        # Choices: every visible message whose value fails the CAS, then
        # the mo-latest one (the only one a successful CAS may read).
        visible = memory.visible(loc, th.view)
        expected = op.expected
        if len(visible) == 1:
            choices = visible
        else:
            choices = [m for m in visible[:-1] if m.val != expected]
            choices.append(visible[-1])
        msg = self._read = choices[self.decider.choose_read(len(choices))]
        if msg.val == expected:
            self._rmw_write(th, op, cell, msg, op.desired, op.commit, mode)
            out = (True, msg.val)
        else:
            # Failed CAS: a plain read at fail_mode.
            model.absorb_read(memory, th, msg, model.fail_mode(op.fail_mode))
            memory.mark_read(loc, th.tid, th.clock, False)
            if op.commit_fail is not None:
                if self._records is not None:
                    self._at_hook = _state(th, memory)
                op.commit_fail(
                    CommitCtx(self, th, op, msg_read=msg, value_read=msg.val))
            out = (False, msg.val)
        model.post_access(memory, th, mode)
        return out

    def _do_faa(self, th: ThreadState, op: Faa) -> Any:
        if op.mode not in RMW_MODES:
            raise SteppingError(f"FAA cannot be {op.mode}")
        return self._do_rmw(th, op, lambda old: old + op.delta)

    def _do_xchg(self, th: ThreadState, op: Xchg) -> Any:
        if op.mode not in RMW_MODES:
            raise SteppingError(f"XCHG cannot be {op.mode}")
        return self._do_rmw(th, op, lambda _old: op.val)

    def _do_rmw(self, th: ThreadState, op, compute) -> Any:
        model, memory, loc = self.model, self.memory, op.loc
        mode = model.rmw_mode(op.mode)
        self._tick(th)
        cell = memory.locations[loc]
        if memory.race_detection and cell.has_na_write:
            memory.check_read_race(loc, th.tid, th.view, False)
        model.pre_access(memory, th, mode)
        msg = self._read = cell.latest
        self._rmw_write(th, op, cell, msg, compute(msg.val), op.commit, mode)
        model.post_access(memory, th, mode)
        return msg.val

    def _rmw_write(self, th: ThreadState, op, cell: Location,
                   read_msg: Message, new_val, commit, mode: Mode) -> Message:
        """Common successful-RMW path: mo-adjacent read-and-write.

        ``mode`` is the mode the RMW actually executes at (after model
        strengthening), not the annotation.
        """
        model, memory, loc = self.model, self.memory, op.loc
        if memory.race_detection and (cell.has_na_write
                                      or cell.na_read_marks):
            memory.check_write_race(loc, th.tid, th.view, False)
        # Read side.
        model.absorb_rmw_read(memory, th, read_msg, mode)
        memory.mark_read(loc, th.tid, th.clock, False)
        # Write side, mo-adjacent to the read message.
        ts = read_msg.ts + 1
        assert ts == len(cell.history)
        th.view = th.view.extend(loc, ts)
        if commit is not None:
            if self._records is not None:
                self._at_hook = _state(th, memory)
            commit(CommitCtx(self, th, op, msg_read=read_msg, ts_written=ts,
                             value_read=read_msg.val))
        mview = self._sealed = model.released_view(memory, th, loc, ts,
                                                   mode, read_msg.view)
        return memory.append(loc, new_val, mview, th.tid, th.clock, False)

    # -- fences and the rest ------------------------------------------------
    def _do_fence(self, th: ThreadState, op: Fence) -> None:
        if op.mode not in FENCE_MODES:
            raise SteppingError(f"fence cannot be {op.mode}")
        self.model.fence(self.memory, th, self.model.fence_mode(op.mode))

    def _do_alloc(self, th: ThreadState, op: Alloc) -> List[int]:
        return [self.memory.alloc(op.name, init) for init in op.inits]

    def _do_ghost(self, th: ThreadState, op: GhostCommit) -> None:
        op.commit(CommitCtx(self, th, op))


#: One step rule per operation class, keyed by the op's exact type.
_STEPS = {
    Load: Machine._do_load,
    Store: Machine._do_store,
    Cas: Machine._do_cas,
    Faa: Machine._do_faa,
    Xchg: Machine._do_xchg,
    Fence: Machine._do_fence,
    Alloc: Machine._do_alloc,
    GhostCommit: Machine._do_ghost,
}


def run(program, decider: Decider, max_steps: int = 100_000,
        race_detection: bool = True,
        sc_upgrade: bool = False, model=None) -> ExecutionResult:
    """Run ``program`` to completion under ``decider``."""
    return Machine(program, decider, max_steps, race_detection,
                   sc_upgrade=sc_upgrade, model=model).run()

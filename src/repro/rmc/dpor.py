"""Sleep-set dynamic partial-order reduction for the exhaustive explorer.

The raw decision tree enumerated by `repro.rmc.explore.explore_all`
explodes factorially in interleavings, but most sibling branches are
commuting reorderings of *independent* steps: executing thread ``u``
then ``t`` reaches exactly the machine state of ``t`` then ``u`` whenever
the two pending operations cannot observe each other.  This module prunes
those redundant branches with Godefroid-style **sleep sets**, while
provably preserving the set of reachable final states — see
``docs/dpor.md`` for the full soundness argument.

The pieces:

* :func:`independent` — a conservative commutation check over the
  operation footprints (`repro.rmc.ops.Footprint`) the machine hands the
  decider for every enabled thread at each scheduling decision;
* :class:`SleepSetDecider` — a `repro.rmc.scheduler.Decider` that follows
  a prefix and then descends leftmost-*awake*, maintaining the sleep set
  along the path and aborting the replay (:class:`SleepSetCut`) when
  every enabled thread is asleep;
* :func:`explore_all_dpor` — the drop-in replacement for ``explore_all``:
  the same stateless replay loop, backtracking only to awake siblings and
  counting every skipped branch in :class:`DporStats`.  Each replay
  inherits the previous replay's footprints and entry sleep sets for the
  prefix the two share, so only the new suffix does DPOR work, and the
  previous replay's step records, so the machine fast-forwards through
  the shared prefix (`repro.rmc.machine.Machine._forward`).

Sleep sets are a *path* property: the sleep set at any node is a pure
function of the decisions leading to it.  That is what makes the
reduction compose with the prefix-sharded engine (`repro.engine.shard`):
a shard root's inherited sleep set can be computed at planning time and
shipped inside the `Shard`, after which the shard explores exactly the
slice of the serial DPOR enumeration below its prefix.

Sleep-set bookkeeping (the invariant the code maintains):

* entering a scheduling node, ``sleep`` maps thread ids to the footprint
  of their pending op for every thread whose step from here is known to
  be covered by an already-explored sibling subtree;
* branches whose thread is asleep are skipped (counted as pruned);
* after exploring branch ``t``, ``t`` is added to the sleep set for the
  remaining siblings;
* descending into branch ``t`` keeps only the sleeping threads whose
  footprint is independent of ``t``'s — a dependent step invalidates the
  coverage argument, so the thread wakes up.

Read decisions (which visible message a load takes) are *data*
nondeterminism inside a single step: they are never pruned and the sleep
set passes through them unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .machine import ExecutionResult, StepRecord
from .ops import Footprint
from .scheduler import Decider

ProgramFactory = Callable[[], "Program"]  # noqa: F821


# ----------------------------------------------------------------------
# Independence
# ----------------------------------------------------------------------

def independent(a: Footprint, b: Footprint) -> bool:
    """Do the two pending steps commute (conservatively)?

    Returns True only when executing ``a`` then ``b`` provably reaches
    the same machine state as ``b`` then ``a``, for *any* state in which
    both are enabled.  The rules, justified against the machine in
    ``docs/dpor.md``:

    * same thread: never independent (program order);
    * allocations and ghost/unknown ops: dependent with everything
      (global counters, arbitrary hooks);
    * two hooked ops: dependent (commit hooks share the global commit
      sequence and the library event registry);
    * two seq-cst ops: dependent (both read-modify the global SC view);
    * a fence: otherwise independent of everything — fences only touch
      the issuing thread's views (the SC case is caught above);
    * different locations: independent;
    * same location: independent iff both are plain reads (reads never
      race each other and visibility depends only on the reader's own
      view).
    """
    if a.thread == b.thread:
        return False
    if a.kind in ("alloc", "ghost") or b.kind in ("alloc", "ghost"):
        return False
    if a.hooked and b.hooked:
        return False
    if a.sc and b.sc:
        return False
    if a.kind == "fence" or b.kind == "fence":
        return True
    if a.loc != b.loc:
        return True
    return a.kind == "read" and b.kind == "read"


def child_sleep(footprints: Sequence[Footprint], chosen: int,
                entry_sleep: Dict[int, Footprint]) -> Dict[int, Footprint]:
    """The sleep set inherited by branch ``chosen`` of a scheduling node.

    Earlier siblings are asleep for the chosen branch (either they were
    asleep already or their subtree has been fully explored), and only
    the sleepers independent of the chosen step stay asleep below it.
    """
    if not chosen and not entry_sleep:
        return {}  # the leftmost branch of a node with nothing asleep
    now = dict(entry_sleep)
    for k in range(chosen):
        t = footprints[k].thread
        if t not in now:
            now[t] = footprints[k]
    fc = footprints[chosen]
    return {t: fu for t, fu in now.items() if independent(fu, fc)}


# ----------------------------------------------------------------------
# The decider
# ----------------------------------------------------------------------

class SleepSetCut(Exception):
    """Raised mid-replay when every enabled thread is asleep.

    Every continuation from such a node is Mazurkiewicz-equivalent to an
    already-explored execution, so the replay is abandoned (it is *not*
    counted as an execution) and the explorer backtracks from the partial
    trace.
    """


class SleepSetDecider(Decider):
    """Follow ``prefix``, then descend into the leftmost *awake* branch.

    The sleep-set analogue of `repro.rmc.scheduler.PrefixDecider`.  The
    decider records, per decision, the branch footprints (None for read
    decisions) and the sleep set *on entry* to the node, which is what
    the backtracking sweep in :func:`explore_all_dpor` and the shard
    planner (`repro.engine.shard.plan_exhaustive_shards`) consume.

    Both are pure functions of the decisions above the node, so when
    :func:`explore_all_dpor` hands over the previous replay's records
    for the shared prefix (`_reuse`), the first ``reused`` decisions
    just follow the prefix: no footprint is fetched and no sleep set is
    built until the last of them derives its child's sleep set.  The
    previous replay's step records for the steps wholly before the new
    sibling come along too (``records``), and the machine fast-forwards
    through them without asking the decider at all.

    ``pin`` is the length of the shard-root prefix: ``entry_sleep`` is
    installed as the sleep set at node ``pin`` (the shard root), and
    decisions above it belong to the stem — never backtracked, their
    sleep state irrelevant.  ``pruned`` counts branches skipped during
    the descent (leading asleep siblings, plus all ``n`` branches of a
    cut node).
    """

    wants_footprints = True
    wants_records = True

    def __init__(self, prefix: Sequence[int] = (), pin: int = 0,
                 entry_sleep: Optional[Dict[int, Footprint]] = None):
        super().__init__()
        self.prefix = list(prefix)
        self.pin = pin
        self.entry = dict(entry_sleep or {})
        #: Sleep set at the current node (thread id -> pending footprint).
        #: Never mutated in place: every update builds a fresh dict, so
        #: the per-node snapshots in ``entry_sleeps`` stay valid.
        self.sleep: Dict[int, Footprint] = {} if pin else dict(self.entry)
        #: Per-decision branch footprints (None for read decisions).
        self.footprints: List[Optional[Tuple[Footprint, ...]]] = []
        #: Per-decision sleep set on entry to the node.
        self.entry_sleeps: List[Dict[int, Footprint]] = []
        #: Branches skipped during this replay's descent.
        self.pruned = 0
        #: Leading decisions whose records came from the previous replay.
        self.reused = 0
        #: One record per step of this replay (`Decider.wants_records`).
        self.records: List[StepRecord] = []

    def _reuse(self, prev: "SleepSetDecider") -> None:
        """Take ``prev``'s records for the nodes this prefix shares.

        The prefix agrees with ``prev``'s trace on every decision but its
        last, so the footprints and entry sleep set at each of its
        ``len(prefix)`` nodes are the ones ``prev`` recorded, and so are
        the steps whose decisions all lie before that last one: they
        become this replay's first records, and their decisions its
        first trace entries.
        """
        m = len(self.prefix)
        self.footprints = prev.footprints[:m]
        self.entry_sleeps = prev.entry_sleeps[:m]
        self.reused = m
        records = prev.records
        k = len(records)
        while k and records[k - 1].end >= m:
            k -= 1
        if k:
            self.records = records[:k]
            self.trace = prev.trace[:records[k - 1].end]

    def choose(self, n: int, footprints=None) -> int:
        if n <= 0:
            raise ValueError("decision with no alternatives")
        trace = self.trace
        i = len(trace)
        if i < self.reused:
            c = self.prefix[i]
            if c >= n:
                c = n - 1
            if i == self.reused - 1:
                # The new sibling: derive its child's sleep set (a
                # reused prefix always ends at or below the shard root).
                f, entry = self.footprints[i], self.entry_sleeps[i]
                self.sleep = entry if f is None else child_sleep(f, c, entry)
            trace.append((n, c))
            return c
        if i == self.pin and self.pin:
            self.sleep = dict(self.entry)
        if footprints is not None:
            footprints = footprints()
        self.footprints.append(footprints)
        self.entry_sleeps.append(self.sleep)
        if footprints is None:
            # Read decision: data nondeterminism inside one step.  All
            # branches are explored; the sleep set passes through.
            c = min(self.prefix[i], n - 1) if i < len(self.prefix) else 0
        elif i < len(self.prefix):
            c = min(self.prefix[i], n - 1)
            if i >= self.pin:
                self.sleep = child_sleep(footprints, c, self.sleep)
        else:
            c = 0
            while c < n and footprints[c].thread in self.sleep:
                c += 1
            if c == n:
                # Every enabled thread is asleep: redundant subtree.
                self.pruned += n
                self.footprints.pop()
                self.entry_sleeps.pop()
                raise SleepSetCut(f"all {n} branches asleep at depth {i}")
            self.pruned += c
            self.sleep = child_sleep(footprints, c, self.sleep)
        if not 0 <= c < n:
            raise ValueError(f"decider chose {c} out of {n}")
        self.trace.append((n, c))
        return c


# ----------------------------------------------------------------------
# The exploration driver
# ----------------------------------------------------------------------

@dataclass
class DporStats:
    """Reduction telemetry for one DPOR exploration.

    ``pruned_subtrees`` counts skipped branches — subtree roots the
    sleep-set argument proved redundant.  ``executions +
    pruned_subtrees`` is the *effective tree size*: a lower bound on the
    number of executions naive enumeration would have needed (each
    pruned subtree contains at least one execution).
    """

    pruned_subtrees: int = 0


def _next_prefix(decider: SleepSetDecider, base_len: int,
                 stats: Optional[DporStats]) -> Optional[List[int]]:
    """The deepest unexplored *awake* sibling, as a replay prefix.

    The sleep-set analogue of ``explore_all``'s rightmost-untried-sibling
    sweep: walking up from the deepest decision, skip — counting as
    pruned — the remaining siblings whose thread sleeps on entry to the
    node.  A scheduling node's branches are distinct threads, so the
    earlier siblings that went to sleep never cover a later one.
    Backtracking never crosses above ``base_len`` (the shard-root pin).
    """
    trace = decider.trace
    fps = decider.footprints
    sleeps = decider.entry_sleeps
    j = len(trace) - 1
    while j >= base_len:
        n, c = trace[j]
        f = fps[j]
        if f is None:  # read decision: plain in-order enumeration
            if c + 1 < n:
                return [trace[i][1] for i in range(j)] + [c + 1]
            j -= 1
            continue
        entry = sleeps[j]
        for k in range(c + 1, n):
            if f[k].thread not in entry:
                return [trace[i][1] for i in range(j)] + [k]
            if stats is not None:
                stats.pruned_subtrees += 1
        j -= 1
    return None


def explore_all_dpor(
    factory: ProgramFactory,
    max_steps: int = 2_000,
    max_executions: int = 200_000,
    race_detection: bool = True,
    sc_upgrade: bool = False,
    prefix: Sequence[int] = (),
    sleep: Sequence[Footprint] = (),
    stats: Optional[DporStats] = None,
    model=None,
) -> Iterator[ExecutionResult]:
    """Enumerate one execution per reachable outcome-relevant schedule.

    The sleep-set-pruned counterpart of
    `repro.rmc.explore.explore_all`: every final machine state (and so
    every outcome tuple, race verdict, and consistency result over
    complete executions) reached by the naive enumeration is reached by
    at least one execution yielded here; redundant interleavings are
    skipped and tallied in ``stats.pruned_subtrees``.

    ``prefix`` roots the enumeration at a subtree and ``sleep`` is that
    subtree root's inherited sleep set — together they are the sharding
    hook: `repro.engine.shard.plan_exhaustive_shards` computes
    matching (prefix, sleep) pairs so that disjoint shards concatenate,
    in prefix order, to exactly the ``prefix=()`` enumeration.

    Every replay after the first reuses the previous replay's footprints
    and entry sleep sets for the prefix they share, and fast-forwards
    through the steps they share from its step records
    (`SleepSetDecider._reuse`).  Each replay still gets a fresh decider,
    trace list and program: ``ExecutionResult.trace`` aliases the
    decider's trace, and consumers keep it.
    """
    base = list(prefix)
    entry = {fp.thread: fp for fp in sleep}
    cur: List[int] = list(base)
    executions = 0
    prev: Optional[SleepSetDecider] = None
    while executions < max_executions:
        decider = SleepSetDecider(cur, pin=len(base), entry_sleep=entry)
        if prev is not None:
            decider._reuse(prev)
        try:
            result = factory().run(decider, max_steps=max_steps,
                                   race_detection=race_detection,
                                   sc_upgrade=sc_upgrade, model=model)
        except SleepSetCut:
            result = None
        if stats is not None:
            stats.pruned_subtrees += decider.pruned
        if result is not None:
            executions += 1
            yield result
        nxt = _next_prefix(decider, len(base), stats)
        if nxt is None:
            return
        cur = nxt
        prev = decider

"""Work sharding: the decision tree (or seed range) as resumable units.

Stateless replay-based exploration is embarrassingly parallel because a
decision-tree *prefix* fully identifies a subtree: `explore_all` with
``prefix=p`` enumerates exactly the executions whose decision traces
extend ``p``, in DFS order.  Sharding is therefore:

* **exhaustive mode** — probe the tree breadth-first (one replayed
  execution per expanded node) until enough disjoint subtree roots exist,
  then hand each root to a worker.  Lexicographically sorted prefixes
  concatenate to exactly the serial DFS enumeration, so merged reports
  match the serial run byte for byte;
* **randomized mode** — split the seed range ``[seed, seed+runs)`` into
  contiguous chunks; `explore_random` derives run ``i``'s decider from
  ``seed + i``, so chunked unions equal the serial sequence.

Probe executions are replayed again inside their shard (a worker starts
at its subtree's leftmost leaf); that duplication is one execution per
*internal* planned node and buys complete decoupling between planning
and workers.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from ..rmc.dpor import (DporStats, SleepSetCut, SleepSetDecider,
                        child_sleep, explore_all_dpor)
from ..rmc.explore import ProgramFactory, explore_all, explore_random
from ..rmc.machine import ExecutionResult
from ..rmc.ops import Footprint
from ..rmc.scheduler import PrefixDecider

#: Shards to aim for per worker: enough slack that one slow subtree does
#: not serialize the tail of the run.
SHARDS_PER_WORKER = 4

#: Ceiling on planning probes (each probe is one replayed execution).
PROBE_CAP = 512

#: Prefixes at least this long are not split further.
MAX_SPLIT_DEPTH = 12


@dataclass(frozen=True)
class Shard:
    """One unit of work: a subtree root or a seed range.

    ``sleep`` is the subtree root's inherited sleep set under DPOR
    (`repro.rmc.dpor`): the pending-op footprints of threads whose step
    at the root is already covered by an earlier shard.  Empty when DPOR
    is off, and omitted from the JSON form when empty so pre-DPOR
    checkpoints keep their shard encoding.
    """

    kind: str  # "prefix" | "seeds"
    prefix: Tuple[int, ...] = ()
    seed: int = 0
    runs: int = 0
    sleep: Tuple[Footprint, ...] = ()

    def sort_key(self):
        return self.prefix if self.kind == "prefix" else (self.seed,)

    def describe(self) -> str:
        """Short human-readable identity for coverage accounting."""
        if self.kind == "prefix":
            return ("prefix " + ".".join(map(str, self.prefix))
                    if self.prefix else "prefix <root>")
        return f"seeds [{self.seed}, {self.seed + self.runs})"

    def to_json(self):
        if self.kind == "prefix":
            data = {"kind": "prefix", "prefix": list(self.prefix)}
            if self.sleep:
                data["sleep"] = [fp.to_json() for fp in self.sleep]
            return data
        return {"kind": "seeds", "seed": self.seed, "runs": self.runs}

    @staticmethod
    def from_json(data) -> "Shard":
        if data["kind"] == "prefix":
            return Shard(kind="prefix", prefix=tuple(data["prefix"]),
                         sleep=tuple(Footprint.from_json(fp)
                                     for fp in data.get("sleep", ())))
        return Shard(kind="seeds", seed=data["seed"], runs=data["runs"])


def plan_exhaustive_shards(
    factory: ProgramFactory,
    target: int,
    max_steps: int,
    model=None,
    gaps: Optional[List[int]] = None,
    dpor: bool = True,
) -> Tuple[List[Shard], int]:
    """Split the decision tree into >= ``target`` disjoint subtrees
    (when the tree is big enough), by breadth-first prefix expansion.

    Invariant: at every moment ``frontier + done`` is a partition of the
    tree, so the returned shards always cover the serial enumeration
    exactly once regardless of where expansion stops.

    With ``dpor`` the *reduced* tree is split: probes descend
    leftmost-awake under a `SleepSetDecider`, and each frontier node
    carries the sleep set the serial DPOR enumeration would have on
    entering it (`child_sleep`) — the sleep set is a pure function of
    the path, so shipping it inside the `Shard` makes the sharded union
    *exactly* the serial DPOR enumeration, prune for prune.  Without it
    probes run under a `PrefixDecider`, which records no footprints, so
    every decision is planned like a read decision: every branch awake,
    nothing pruned.

    Returns ``(shards, planner_pruned)``.  ``planner_pruned`` counts the
    asleep branches at nodes the planner pinned into shard prefixes
    (stem nodes and split nodes): those nodes are inside every child's
    prefix and are never backtracked by any shard, so the planner must
    account for their pruned branches or the merged telemetry would
    undercount the reduction.  Nodes *below* a shard root are recounted
    by the shard itself, so probes charge nothing for them.

    ``gaps``, when given, is filled with the same count split by where
    the serial DFS meets each pruned branch: ``gaps[i]`` is charged just
    before shard ``i`` (``gaps[len(shards)]`` after the last one).  An
    asleep branch ``k`` at a pinned node on path ``p`` is skipped when
    the DFS reaches the point ``p + (k,)`` in prefix order, so it lands
    in the gap before the first shard sorting at or after that point.
    A run that stops at an execution cap inside shard ``i`` counts only
    ``gaps[:i + 1]`` (``docs/dpor.md``, "Composition with sharding").
    """
    frontier: List[Tuple[Tuple[int, ...], Tuple[Footprint, ...]]] = [((), ())]
    done: List[Tuple[Tuple[int, ...], Tuple[Footprint, ...]]] = []
    # Every branch the planner prunes, as the path ``p + (k,)`` to it.
    pruned: List[Tuple[int, ...]] = []
    probes = 0
    while frontier and len(frontier) + len(done) < target \
            and probes < PROBE_CAP:
        prefix, sleep = frontier.pop(0)  # shallowest first
        if len(prefix) >= MAX_SPLIT_DEPTH:
            done.append((prefix, sleep))
            continue
        if dpor:
            decider = SleepSetDecider(prefix, pin=len(prefix),
                                      entry_sleep={fp.thread: fp
                                                   for fp in sleep})
        else:
            decider = PrefixDecider(prefix)
        try:
            factory().run(decider, max_steps=max_steps, model=model)
        except SleepSetCut:
            pass  # the whole residue is redundant; the shard recounts it
        probes += 1
        trace = decider.trace
        if dpor:
            fps, sleeps = decider.footprints, decider.entry_sleeps
        else:
            fps, sleeps = [None] * len(trace), [{}] * len(trace)
        split: Optional[int] = None
        for i in range(len(prefix), len(trace)):
            n = trace[i][0]
            f = fps[i]
            if f is None:
                if n > 1:  # read decisions: every branch is awake
                    split = i
                    break
            elif sum(1 for k in range(n)
                     if f[k].thread not in sleeps[i]) > 1:
                split = i
                break
        if split is None:
            # At most one awake branch per node below this prefix: a
            # subtree the shard enumerates (and prune-counts) alone.
            done.append((prefix, sleep))
            continue
        path = prefix + tuple(c for _n, c in trace[len(prefix):split])
        # Stem nodes end up inside every child prefix; charge their
        # asleep branches (all but the chosen one) to the planner
        # (exactly once, here).
        for i in range(len(prefix), split):
            if fps[i] is not None:
                pruned.extend(path[:i] + (k,) for k in range(trace[i][0])
                              if k != path[i])
        f, entry = fps[split], sleeps[split]
        for k in range(trace[split][0]):
            if f is None:
                child = entry
            elif f[k].thread in entry:
                pruned.append(path + (k,))  # asleep at the split
                continue
            else:
                child = child_sleep(f, k, entry)
            frontier.append((path + (k,),
                             tuple(child[t] for t in sorted(child))))
    pairs = sorted(done + frontier, key=lambda item: item[0])
    if gaps is not None:
        prefixes = [p for p, _s in pairs]
        gaps[:] = [0] * (len(pairs) + 1)
        for point in pruned:
            gaps[bisect_left(prefixes, point)] += 1
    return ([Shard(kind="prefix", prefix=p, sleep=s) for p, s in pairs],
            len(pruned))


def plan_random_shards(runs: int, seed: int, target: int) -> List[Shard]:
    """Split ``runs`` seeded executions into ~``target`` contiguous
    seed-range chunks."""
    target = max(1, min(target, runs))
    base, extra = divmod(runs, target)
    shards = []
    offset = 0
    for i in range(target):
        count = base + (1 if i < extra else 0)
        if count == 0:
            continue
        shards.append(Shard(kind="seeds", seed=seed + offset, runs=count))
        offset += count
    return shards


def iter_shard(
    factory: ProgramFactory,
    shard: Shard,
    max_steps: int,
    max_executions: int,
    dpor: bool = False,
    stats: Optional[DporStats] = None,
    model=None,
) -> Iterator[ExecutionResult]:
    """Enumerate one shard's executions (the single-worker core loops).

    With ``dpor`` the prefix subtree is enumerated under sleep-set
    reduction rooted at the shard's inherited sleep set; skipped
    branches accumulate into ``stats``.
    """
    if shard.kind == "prefix":
        if dpor:
            yield from explore_all_dpor(factory, max_steps=max_steps,
                                        max_executions=max_executions,
                                        prefix=shard.prefix,
                                        sleep=shard.sleep, stats=stats,
                                        model=model)
        else:
            yield from explore_all(factory, max_steps=max_steps,
                                   max_executions=max_executions,
                                   prefix=shard.prefix, model=model)
    else:
        yield from explore_random(factory, runs=shard.runs, seed=shard.seed,
                                  max_steps=max_steps, model=model)

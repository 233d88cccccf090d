"""Deterministic counterexample shrinking for generated fuzz programs.

When a campaign finds a violation it does not persist the raw generated
program: a random client is noisy, and the corpus is the project's
regression suite — it should hold *minimal* reproducers.  The shrinker
greedily applies size-reducing transformations (drop threads, drop op
chunks, drop single ops, drop unused library instances, canonicalize
payload values) and keeps a candidate only when the *oracle* confirms it
still exhibits the same class of failure — same kind (``style`` /
``outcome`` / ``race``) and, for spec-style violations, the same style.

Everything is deterministic: candidates are enumerated in a fixed
order, the oracle explores with a fixed seed, and the first accepted
improvement restarts the pass — so the same failing program always
shrinks to the same minimal program, on any machine.  The shrunk
program is failure-verified by construction (only oracle-confirmed
candidates are ever accepted) and never larger than the original in
threads or ops (every transformation is a strict reduction).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Tuple

from ..core.spec_styles import SpecStyle, check_style
from ..engine.shard import Shard, iter_shard
from ..rmc.machine import ExecutionResult
from .executor import scenario_for
from .grammar import FuzzProgram, LibInstance

#: (kind, style-name-or-None) — the identity of a failure class.
FailureKey = Tuple[str, Optional[str]]


@dataclass(frozen=True)
class Failure:
    """One observed violation: its class plus a replayable witness."""

    kind: str  # "style" | "outcome" | "race"
    style: Optional[SpecStyle]
    trace: Tuple
    message: str

    @property
    def key(self) -> FailureKey:
        return (self.kind, self.style.name if self.style else None)


def failure_of(scenario, result: ExecutionResult,
               want: Optional[FailureKey] = None) -> Optional[Failure]:
    """The first failure this execution exhibits, filtered to ``want``.

    Checks in a fixed order (race, outcome, then styles in scenario
    order) so the reported failure for a given execution is stable.
    """
    def match(f: Failure) -> Optional[Failure]:
        return f if want is None or f.key == want else None

    if result.race is not None:
        return match(Failure("race", None, tuple(result.trace),
                             str(result.race)))
    if result.truncated:
        return None
    if scenario.outcome_check is not None:
        try:
            scenario.outcome_check(result)
        except AssertionError as err:
            found = match(Failure("outcome", None, tuple(result.trace),
                                  str(err)))
            if found:
                return found
    for case in scenario.extract(result):
        for style in case.styles or ():
            if want is not None and (("style", style.name) != want):
                continue
            res = check_style(case.graph, case.kind, style, to=case.to)
            if not res.ok:
                msg = str(res.violations[0]) if res.violations \
                    else "violation"
                found = match(Failure("style", style,
                                      tuple(result.trace), msg))
                if found:
                    return found
    return None


def exploration_oracle(runs: int, seed: int, max_steps: int,
                       exhaustive: bool = False,
                       max_executions: int = 400,
                       want: Optional[FailureKey] = None,
                       model=None,
                       ) -> Callable[[FuzzProgram], Optional[Failure]]:
    """An oracle that re-explores a candidate and reports the first
    matching failure (or ``None``).  Deterministic for fixed arguments:
    randomized exploration uses the fixed ``seed``, exhaustive
    exploration enumerates in DFS order (no DPOR — the oracle must not
    trust the reduction it may be used to debug)."""
    shard = Shard(kind="prefix") if exhaustive else Shard(
        kind="seeds", seed=seed, runs=runs)

    def check(fp: FuzzProgram) -> Optional[Failure]:
        if fp.op_count() == 0:
            return None
        scenario = scenario_for(fp)
        for result in iter_shard(scenario.factory, shard, max_steps,
                                 max_executions, dpor=False, model=model):
            failure = failure_of(scenario, result, want)
            if failure is not None:
                return failure
        return None
    return check


@dataclass
class ShrinkStats:
    """Honest accounting of one shrink run."""

    attempts: int = 0        # oracle invocations (including the final
    accepted: int = 0        # re-verification of the result)
    initial_threads: int = 0
    initial_ops: int = 0
    final_threads: int = 0
    final_ops: int = 0

    def line(self) -> str:
        return (f"shrink {self.initial_threads}t/{self.initial_ops}op -> "
                f"{self.final_threads}t/{self.final_ops}op "
                f"({self.attempts} oracle calls, {self.accepted} accepted)")


def _remap_thread_ref(ref: int, dropped: int) -> int:
    if ref == dropped:
        return 0
    return ref - 1 if ref > dropped else ref


def _drop_thread(fp: FuzzProgram, t: int) -> FuzzProgram:
    libs = tuple(
        LibInstance(inst.sig, inst.profile,
                    _remap_thread_ref(inst.owner, t),
                    _remap_thread_ref(inst.partner, t))
        for inst in fp.libs)
    threads = fp.threads[:t] + fp.threads[t + 1:]
    return FuzzProgram(libs=libs, threads=threads,
                       seed=fp.seed, index=fp.index)


def _drop_ops(fp: FuzzProgram, t: int, start: int, count: int) -> FuzzProgram:
    script = fp.threads[t]
    new_script = script[:start] + script[start + count:]
    threads = fp.threads[:t] + (new_script,) + fp.threads[t + 1:]
    return FuzzProgram(libs=fp.libs, threads=threads,
                       seed=fp.seed, index=fp.index)


def _drop_unused_libs(fp: FuzzProgram) -> Optional[FuzzProgram]:
    used = {i for script in fp.threads for (i, _op, _val) in script}
    if len(used) == len(fp.libs):
        return None
    keep = [i for i in range(len(fp.libs)) if i in used]
    if not keep:
        return None
    remap = {old: new for new, old in enumerate(keep)}
    libs = tuple(fp.libs[i] for i in keep)
    threads = tuple(
        tuple((remap[i], op, val) for (i, op, val) in script)
        for script in fp.threads)
    return FuzzProgram(libs=libs, threads=threads,
                       seed=fp.seed, index=fp.index)


def _canonicalize_values(fp: FuzzProgram) -> FuzzProgram:
    """Renumber payload values to 1..n in (thread, position) order."""
    counter = 0
    threads: List[Tuple] = []
    for script in fp.threads:
        new_script = []
        for (i, op, val) in script:
            if val is not None:
                counter += 1
                new_script.append((i, op, counter))
            else:
                new_script.append((i, op, val))
        threads.append(tuple(new_script))
    return FuzzProgram(libs=fp.libs, threads=tuple(threads),
                       seed=fp.seed, index=fp.index)


def _valid(fp: FuzzProgram) -> bool:
    try:
        fp.validate()
    except ValueError:
        return False
    return True


def _candidates(fp: FuzzProgram) -> Iterator[FuzzProgram]:
    """Strictly smaller (or value-canonicalized) variants, fixed order."""
    # 1. Drop whole threads (biggest single reduction first).
    if len(fp.threads) > 1:
        for t in range(len(fp.threads)):
            yield _drop_thread(fp, t)
    # 2. Drop contiguous op chunks, halves before single ops (ddmin-lite).
    for t, script in enumerate(fp.threads):
        n = len(script)
        if n >= 4:
            half = n // 2
            yield _drop_ops(fp, t, 0, half)
            yield _drop_ops(fp, t, half, n - half)
    for t, script in enumerate(fp.threads):
        for j in range(len(script)):
            yield _drop_ops(fp, t, j, 1)
    # 3. Drop library instances no op references any more.
    smaller = _drop_unused_libs(fp)
    if smaller is not None:
        yield smaller


def shrink(fp: FuzzProgram,
           check: Callable[[FuzzProgram], Optional[Failure]],
           max_attempts: int = 250
           ) -> Tuple[FuzzProgram, Failure, ShrinkStats]:
    """Minimize ``fp`` while ``check`` keeps confirming the failure.

    Returns ``(minimal program, its re-verified failure, stats)``.
    Raises ``ValueError`` if ``fp`` does not fail under the oracle in
    the first place (a fuzz-campaign bug, not a user error).
    """
    stats = ShrinkStats()
    stats.initial_threads, stats.initial_ops = fp.size()
    stats.attempts += 1
    best_failure = check(fp)
    if best_failure is None:
        raise ValueError(
            "shrink: program does not fail under the oracle "
            f"(digest {fp.digest()})")
    best = fp

    improved = True
    while improved and stats.attempts < max_attempts:
        improved = False
        for candidate in _candidates(best):
            if stats.attempts >= max_attempts:
                break
            if not _valid(candidate):
                continue
            stats.attempts += 1
            failure = check(candidate)
            if failure is not None:
                best, best_failure = candidate, failure
                stats.accepted += 1
                improved = True
                break  # restart the pass from the new, smaller best

    canon = _canonicalize_values(best)
    if canon != best and _valid(canon) and stats.attempts < max_attempts:
        stats.attempts += 1
        failure = check(canon)
        if failure is not None:
            best, best_failure = canon, failure
            stats.accepted += 1

    stats.final_threads, stats.final_ops = best.size()
    assert stats.final_threads <= stats.initial_threads
    assert stats.final_ops <= stats.initial_ops
    return best, best_failure, stats
